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

echo "== cargo test (benchmark package) =="
# benchmark/ is its own package outside the workspace and imports the
# harness API by name: a signature change must fail here, not in the
# pipeline that runs the benchmark.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

# lint_call_sites <label> <regex> <roots> <exempt-path-regex> <message>
# Fails the build with <message> if a non-test, non-comment line under
# <roots> matches <regex> (ERE) in a file whose path does not match
# <exempt-path-regex> ('^$' exempts nothing). Test modules (everything
# from '#[cfg(test)]' down, by the repo's tests-at-end convention) and
# comment lines are exempt. A regex over source is not a visibility rule:
# a verb that one crate owns is pub(crate) instead, and only what crosses
# a crate boundary is linted here.
lint_call_sites() {
  local label=$1 pattern=$2 roots=$3 exempt=$4 message=$5 violations=0 f hits
  echo "== lint: $label =="
  # shellcheck disable=SC2086 # roots is a list of globs
  for f in $(grep -rlE "$pattern" $roots --include='*.rs' | grep -vE "$exempt" || true); do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
      | grep -nE "$pattern" | sed "s|^|$f:|" || true)
    if [ -n "$hits" ]; then
      echo "$hits"
      violations=1
    fi
  done
  if [ "$violations" -ne 0 ]; then
    echo "lint: $message" >&2
    exit 1
  fi
}

# Outside simkernel (which owns the primitives), non-test code must build
# processes via simkernel::image::ProcessImage, not raw kernel.spawn
# (Kernel::mmap_labeled is pub(crate): the compiler holds that one).
lint_call_sites "process creation goes through ProcessImage" \
  'kernel\.spawn\(' 'crates/*/src' '^crates/simkernel/' \
  "direct kernel.spawn call site(s) found; use simkernel::image::ProcessImage"

# Any simkernel call that can return KernelError::FaultInjected must be
# propagated (`?`) or matched in non-test code, never unwrap()/expect()ed:
# a seeded fault plan would otherwise panic the stack instead of reaching
# the kubelet's recovery path.
lint_call_sites "fault-returning simkernel APIs must propagate errors" \
  '\.(build|touch|read_file|charge_anon|map_shared|map_cow|charge_heap)\([^)]*\)[[:space:]]*\.(unwrap|expect)\(' \
  'crates/*/src' '^$' \
  "unwrap()/expect() on a fault-returning simkernel API; propagate the error so fault plans stay recoverable"

# Containerd::interrupt_pod (epoch interrupt + SIGKILL + reap + lifecycle
# fail) is the only sanctioned hard-kill verb, and only the kubelet may
# call it: from the liveness-kill path and from the grace-period
# escalation in remove_pod. New call sites elsewhere would bypass the
# SIGTERM → grace → SIGKILL discipline. The definition site (containerd's
# cri.rs) is exempt too.
lint_call_sites "hard kills go through the kubelet watchdog path" \
  '\.interrupt_pod\(' 'crates/*/src' \
  '^crates/containerd/src/cri\.rs$|^crates/k8s/src/kubelet\.rs$' \
  "direct interrupt_pod call site(s) outside the kubelet; hard kills must ride the liveness/grace-period path"

# Cgroup limit-setting is an accounting choke point: cpu/io limits are
# applied once per pod sync (the kubelet), and call sites anywhere else
# would bypass the pod-spec path. (The charge verb, Kernel::cgroup_charge_cpu,
# is pub(crate): guest CPU is charged once per guest start through its one
# caller, simkernel::image::charge_cpu.) simkernel is exempt.
lint_call_sites "cgroup limit verbs ride their sanctioned choke point" \
  '\.cgroup_set_cpu_max\(|\.cgroup_set_io_read_budget\(' 'crates/*/src' \
  '^crates/simkernel/|^crates/k8s/src/kubelet\.rs$' \
  "cgroup limit call site(s) outside the kubelet's pod sync; limits must not bypass the pod-spec path"

# Node::crash and Node::fence are pub(crate) in crates/k8s, so the
# compiler keeps harness and example code on Cluster::crash_node /
# restart_node / partition_node. Kernel::power_off crosses the simkernel
# -> k8s crate boundary and has to stay pub; only crates/k8s may call it,
# or lease bookkeeping, fencing and eviction go out of step. simkernel
# (the definition site) is exempt.
lint_call_sites "Kernel::power_off stays inside the cluster layer" \
  '\.power_off\(' 'crates/*/src examples src' '^crates/k8s/|^crates/simkernel/' \
  "power_off call site(s) outside crates/k8s; ungraceful death must go through Cluster::crash_node and the lease tick"

# The breaker, retry-budget and backoff verbs are pub(crate) in
# crates/k8s. ShedReason and BreakerState are part of the Service API's
# results and stay pub, but outside crates/k8s non-test code must not
# match on them: the traffic harness would otherwise fork its own
# overload policy and drift from the one the contracts pin.
lint_call_sites "shed and breaker taxonomies stay inside k8s::service" \
  'ShedReason::|BreakerState::' 'crates/*/src examples src' '^crates/k8s/' \
  "ShedReason/BreakerState matched outside crates/k8s; shedding and breaker policy lives in k8s::service"

echo "== smoke: examples/quickstart =="
cargo run --release --offline --example quickstart >/dev/null

echo "== smoke: examples/sandbox_api (the sandboxer's only consumer outside unit tests) =="
cargo run --release --offline --example sandbox_api >/dev/null

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
# failing prefix (exit 1 if any survive). Twice: one settled cluster is
# borrowed by every worker that forks it, so the binary's stdout must not
# depend on how many there are.
for n in 1 2; do
  HARNESS_THREADS=$n cargo run --release --offline -p harness --bin chaos -- \
    --explore --schedules 12 >"target/explore-smoke.t$n"
done
cmp target/explore-smoke.t1 target/explore-smoke.t2

echo "== smoke: adversarial isolation (1 attacker × 4 kinds vs 4 victims) =="
# Containment contracts on the contribution config: every attacker
# throttled / OOM-killed / backed-off / pressure-evicted, victims Running
# and ready, and the zero-attacker baseline byte-identical across runs.
cargo run --release --offline -p harness --bin chaos -- --isolation-smoke >/dev/null

echo "== smoke: traffic (steady cell + overload-and-recover + rollout/HPA scenario) =="
# The request path under open-loop load on the contribution config: the
# steady cell serves, the overload contract holds (goodput floor at 3×,
# bounded p99 for admitted requests, p99 reconverges after the load
# drops, control arm with the retry budget disabled demonstrably
# degrades), and the live-traffic rollout + HPA scenario passes.
cargo run --release --offline -p harness --bin traffic -- --smoke >/dev/null

echo "== smoke: cluster density sweep + scheduler ablation (3 nodes) =="
# measure_scale / density_sweep: the entry point the benchmark's
# dense_cluster workload times, which no test above runs.
cargo run --release --offline -p harness --bin figures -- cluster --smoke >/dev/null

echo "== paper claims (figures claims: all 15, at the paper's densities) =="
# The full 27-cell grid, nothing skipped: under a second since the host
# executes each distinct guest once per process. Exit 1 is a failed claim.
cargo run --release --offline -p harness --bin figures -- claims >/dev/null

echo "== size: non-blank lines (ROADMAP item 7 reads each PR's delta off this, split test / non-test) =="
count() { find "$@" -not -path '*/target/*' -not -path './.git/*' -print0 | xargs -0 cat | grep -c '[^[:space:]]'; }
# Non-test Rust is what precedes a file's first '#[cfg(test)]' (the repo's
# tests-at-end convention) under crates/*/src, src/ and examples/; the
# rest of those files, tests/ and crates/*/tests/ are test code.
non_test=$(find crates/*/src src examples -name '*.rs' -print0 \
  | xargs -0 awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t' | grep -c '[^[:space:]]')
echo "markdown (*.md): $(count . -name '*.md')"
echo "rust non-test: $non_test"
echo "rust test: $(($(count crates src tests examples -name '*.rs') - non_test))"

echo "verify: OK"
