#!/usr/bin/env bash
# Tier-1 verification entrypoint: everything a PR must keep green.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test --workspace -q =="
# Every crate's unit, integration and property tests, not the root
# package's alone (~75 s cold).
cargo test --workspace -q --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "== lint: process creation goes through ProcessImage =="
# Outside simkernel (which owns the primitives), non-test code must build
# processes via simkernel::image::ProcessImage, not raw kernel.spawn /
# mmap_labeled. Test modules (everything from '#[cfg(test)]' down, by the
# repo's tests-at-end convention) and comment lines are exempt.
violations=0
for f in $(grep -rlE 'kernel\.spawn\(|\.mmap_labeled\(' crates/*/src --include='*.rs' | grep -v '^crates/simkernel/' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE 'kernel\.spawn\(|\.mmap_labeled\(' | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: direct kernel.spawn/mmap_labeled call site(s) found; use simkernel::image::ProcessImage" >&2
  exit 1
fi

echo "== lint: fault-returning simkernel APIs must propagate errors =="
# Any simkernel call that can return KernelError::FaultInjected must be
# propagated (`?`) or matched in non-test code, never unwrap()/expect()ed:
# a seeded fault plan would otherwise panic the stack instead of reaching
# the kubelet's recovery path. Same tests-at-end/comment exemptions as
# above.
fault_apis='\.(build|touch|read_file|charge_anon|map_shared|map_cow|charge_heap)\([^)]*\)[[:space:]]*\.(unwrap|expect)\('
violations=0
for f in $(grep -rlE "$fault_apis" crates/*/src --include='*.rs' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE "$fault_apis" | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: unwrap()/expect() on a fault-returning simkernel API; propagate the error so fault plans stay recoverable" >&2
  exit 1
fi

echo "== lint: hard kills go through the kubelet watchdog path =="
# Containerd::interrupt_pod (epoch interrupt + SIGKILL + reap + lifecycle
# fail) is the only sanctioned hard-kill verb, and only the kubelet may
# call it: from the liveness-kill path and from the grace-period
# escalation in remove_pod. New call sites elsewhere would bypass the
# SIGTERM → grace → SIGKILL discipline. Same tests-at-end/comment
# exemptions as above; the definition site (containerd's cri.rs) is
# exempt too.
violations=0
for f in $(grep -rlF '.interrupt_pod(' crates/*/src --include='*.rs' \
    | grep -v '^crates/containerd/src/cri.rs$' \
    | grep -v '^crates/k8s/src/kubelet.rs$' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nF '.interrupt_pod(' | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: direct interrupt_pod call site(s) outside the kubelet; hard kills must ride the liveness/grace-period path" >&2
  exit 1
fi

echo "== lint: cgroup charge/limit verbs ride their sanctioned choke points =="
# Cgroup CPU charging and limit-setting are accounting choke points: guest
# CPU is charged once per execution (engines' exec pipeline), and cpu/io
# limits are applied once per pod sync (the kubelet). Call sites anywhere
# else would double-charge or bypass the pod-spec path — page/byte charges
# must never reach cgroup accounting around those verbs. Same
# tests-at-end/comment exemptions as above; simkernel (the definition
# site) is exempt.
cgroup_verbs='\.cgroup_charge_cpu\(|\.cgroup_set_cpu_max\(|\.cgroup_set_io_read_budget\('
violations=0
for f in $(grep -rlE "$cgroup_verbs" crates/*/src --include='*.rs' \
    | grep -v '^crates/simkernel/' \
    | grep -v '^crates/engines/src/exec.rs$' \
    | grep -v '^crates/k8s/src/kubelet.rs$' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE "$cgroup_verbs" | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: cgroup charge/limit call site(s) outside the exec pipeline / kubelet sync; charges must not bypass cgroup accounting" >&2
  exit 1
fi

echo "== lint: pod placement goes through the scheduler =="
# Placement is the scheduler's monopoly: outside crates/k8s (where the
# cluster drives kubelets through Scheduler::place), non-test code must
# never call kubelet.manage_pod / kubelet.sync_pod directly — harness and
# example code would otherwise bypass policy scoring, feasibility checks
# and the placement determinism the sweep tables pin. Same
# tests-at-end/comment exemptions as above.
placement_verbs='\.manage_pod\(|\.sync_pod\('
violations=0
for f in $(grep -rlE "$placement_verbs" crates/*/src examples src --include='*.rs' \
    | grep -v '^crates/k8s/' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE "$placement_verbs" | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: direct manage_pod/sync_pod call site(s) outside crates/k8s; placement must go through the scheduler" >&2
  exit 1
fi

echo "== lint: node-kill verbs stay inside the cluster layer =="
# Node::crash / Node::fence / Kernel::power_off are the ungraceful-death
# primitives; only crates/k8s (the cluster drives them through crash_node
# and the lease tick) may call them — harness and example code must go
# through Cluster::crash_node/restart_node/partition_node so lease
# bookkeeping, fencing and eviction stay consistent. simkernel (the
# power_off definition site) is exempt. Same tests-at-end/comment
# exemptions as above.
kill_verbs='\.crash\(|\.fence\(|\.power_off\('
violations=0
for f in $(grep -rlE "$kill_verbs" crates/*/src examples src --include='*.rs' \
    | grep -v '^crates/k8s/' \
    | grep -v '^crates/simkernel/' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE "$kill_verbs" | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: node-kill verb call site(s) outside crates/k8s; ungraceful death must go through Cluster::crash_node and the lease tick" >&2
  exit 1
fi

echo "== smoke: examples/quickstart =="
cargo run --release --offline --example quickstart >/dev/null

echo "== smoke: chaos sweep + hung-guest watchdog scenario (--smoke plan) =="
cargo run --release --offline -p harness --bin chaos -- --smoke >/dev/null

echo "== smoke: multi-node drain (3 nodes, drain one, controller reconverges) =="
# A spread deployment over 3 nodes, one node drained: every victim must be
# rescheduled by the controller and come back Running+ready on a survivor.
cargo run --release --offline -p harness --bin chaos -- --multinode-smoke >/dev/null

echo "== smoke: node crash (3 nodes, power-fail one, lease-driven recovery) =="
# A 6-replica deployment over 3 nodes, one node power-failed: the lease
# must expire, the controller evict and re-home the lost replicas, and
# the deployment reconverge on the survivors with nothing leaked.
cargo run --release --offline -p harness --bin chaos -- --node-crash-smoke >/dev/null

echo "== smoke: fault-schedule explorer (12 seeded schedules) =="
# Seeded schedules of {crash, restart, partition, heal}; every schedule
# must reconverge and pass the invariants, violations shrink to a minimal
# failing prefix (exit 1 if any survive).
cargo run --release --offline -p harness --bin chaos -- --explore --schedules 12 >/dev/null

echo "== smoke: adversarial isolation (1 attacker × 4 kinds vs 4 victims) =="
# Containment contracts on the contribution config: every attacker
# throttled / OOM-killed / backed-off / pressure-evicted, victims Running
# and ready, and the zero-attacker baseline byte-identical across runs.
cargo run --release --offline -p harness --bin chaos -- --isolation-smoke >/dev/null

echo "== lint: overload-control verbs stay inside k8s::service =="
# Deadline propagation, shedding and breaker bookkeeping are the service
# layer's monopoly: outside crates/k8s, non-test code must consume the
# Service API (route/admit/try_start/complete) rather than poking breaker
# state machines, retry-budget token accounting or shed taxonomies
# directly — the traffic harness would otherwise fork its own overload
# policy and drift from the one the contracts pin. Same tests-at-end/
# comment exemptions as above.
service_verbs='ShedReason::|BreakerState::|\.on_failure\(|\.on_success\(|\.try_withdraw\(|\.admits\(|\.backoff_for\('
violations=0
for f in $(grep -rlE "$service_verbs" crates/*/src examples src --include='*.rs' \
    | grep -v '^crates/k8s/' || true); do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
    | grep -nE "$service_verbs" | sed "s|^|$f:|" || true)
  if [ -n "$hits" ]; then
    echo "$hits"
    violations=1
  fi
done
if [ "$violations" -ne 0 ]; then
  echo "lint: overload-control verb call site(s) outside crates/k8s; shedding/breaker/budget policy lives in k8s::service" >&2
  exit 1
fi

echo "== smoke: traffic (steady cell + overload-and-recover + rollout/HPA scenario) =="
# The request path under open-loop load on the contribution config: the
# steady cell serves, the overload contract holds (goodput floor at 3×,
# bounded p99 for admitted requests, p99 reconverges after the load
# drops, control arm with the retry budget disabled demonstrably
# degrades), and the live-traffic rollout + HPA scenario passes.
cargo run --release --offline -p harness --bin traffic -- --smoke >/dev/null

echo "== perf smoke: fig8 grid, serial vs 2 workers =="
# Fails if the 2-worker driver pass is >10% slower than the serial pass —
# catches reintroduced shared-state serialization in harness::parallel.
cargo run --release --offline -p harness --bin bench_trajectory -- --perf-smoke

echo "verify: OK"
