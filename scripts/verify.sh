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

echo "== mutants: the catalogue entries whose file this change touches =="
# scripts/mutants.txt keeps the bugs a test was shown to catch; a change to
# a file one of them mutates must still be caught by its test. The whole
# catalogue (every file) is `scripts/mutants.sh` with no flag.
scripts/mutants.sh --touched target/mutants

echo "== cargo test (benchmark package) =="
# benchmark/ is its own package outside the workspace and imports the
# harness API by name: a signature change must fail here, not in the
# pipeline that runs the benchmark.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings denied) =="
# [workspace.lints.clippy] and clippy.toml configure clippy; this is what
# runs it. clippy.toml's call-site rules apply to test code too. The
# benchmark package is outside the workspace and stays ungated.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== check: #[cfg(test)] marks only a file's trailing test module =="
# The lints below and the size count treat everything from a file's first
# '#[cfg(test)]' down as test code. An item-level '#[cfg(test)]' halfway
# down a file would silently hide the rest of it from both, so the
# attribute may only open the last top-level item, a 'mod <name> {'.
# A test-only helper goes into that module as an 'impl' block.
cfg_test_misuse=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { state = 0 }
  /#\[cfg\(test\)\]/ {
    if (state != 0 || $0 != "#[cfg(test)]") print FILENAME ":" FNR ": " $0
    state = 1; next
  }
  state == 1 { if ($0 !~ /^mod [a-z_]+ \{$/) print FILENAME ":" FNR ": " $0; state = 2; next }
  state == 2 && /^(pub|fn|impl|struct|enum|mod|use|const|static|type|trait|macro_rules|#\[)/ {
    print FILENAME ":" FNR ": after the test module: " $0
  }')
if [ -n "$cfg_test_misuse" ]; then
  echo "$cfg_test_misuse"
  echo "check: #[cfg(test)] on something other than a file's trailing test module" >&2
  exit 1
fi

# lint_call_sites <label> <regex> <roots> <exempt-path-regex> <message>
# Fails the build with <message> if a non-test, non-comment line under
# <roots> matches <regex> (ERE) in a file whose path does not match
# <exempt-path-regex> ('^$' exempts nothing). Test modules (everything
# from '#[cfg(test)]' down, by the repo's tests-at-end convention) and
# comment lines are exempt. A regex over source is not a visibility rule:
# a verb that one crate owns is pub(crate), which the workspace lints
# (unreachable_pub, dead_code) keep honest, and a verb that another crate
# has to call is a clippy.toml rule. A lint stays here only for what
# neither can express.
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

# Any simkernel call that can return KernelError::FaultInjected must be
# propagated (`?`) or matched in non-test code, never unwrap()/expect()ed:
# a seeded fault plan would otherwise panic the stack instead of reaching
# the kubelet's recovery path. This one is not a visibility question: the
# verbs are the public doorways, and what is forbidden is a use of their
# result.
lint_call_sites "fault-returning simkernel APIs must propagate errors" \
  '\.(build|touch|read_file|charge_anon|map_shared|map_cow|charge_heap)\([^)]*\)[[:space:]]*\.(unwrap|expect)\(' \
  'crates/*/src' '^$' \
  "unwrap()/expect() on a fault-returning simkernel API; propagate the error so fault plans stay recoverable"

# Three call-site rules live in clippy.toml and fail the clippy step
# above: Containerd::interrupt_pod (the kubelet's hard kill), the cgroup
# limit verbs (the kubelet's pod sync) and Kernel::power_off (Node::crash).
# Each sanctioned caller carries an `#[expect(clippy::disallowed_methods)]`
# naming why, and simkernel, which defines the kernel verbs, allows them.

# The breaker state, retry-budget and backoff verbs are pub(crate) in
# crates/k8s. ShedReason stays pub because it is the error type of
# Service::{route, admit}, which benchmark/src/probes.rs calls; outside
# crates/k8s non-test code must not match on it: the traffic harness
# would otherwise fork its own overload policy and drift from the one the
# contracts pin. clippy.toml's disallowed-types entry catches an import
# or a type annotation, but not a fully qualified variant in a pattern
# (`k8s_sim::service::ShedReason::QueueFull`), so this lint stays.
lint_call_sites "shed and breaker taxonomies stay inside k8s::service" \
  'ShedReason::' 'crates/*/src examples src' '^crates/k8s/' \
  "ShedReason matched outside crates/k8s; shedding and breaker policy lives in k8s::service"

echo "== smoke: examples/quickstart =="
cargo run --release --offline --example quickstart >/dev/null

echo "== smoke: examples/sandbox_api (the sandboxer's only consumer outside unit tests) =="
cargo run --release --offline --example sandbox_api >/dev/null

echo "== smoke: examples/hybrid_pods (Wasm and Python pods on one crun binary) =="
cargo run --release --offline --example hybrid_pods >/dev/null

echo "== smoke: examples/multi_tenant (a memory limit through config.json to an OOM) =="
cargo run --release --offline --example multi_tenant >/dev/null

echo "== smoke: chaos sweep + hung-guest watchdog scenario (--smoke plan) =="
cargo run --release --offline -p harness --bin chaos -- --smoke >/dev/null

echo "== traffic: steady sweep + overload contract on all seven configs + scenario =="
# The full run, not --smoke: every config's overload-and-recover contract
# (exit 1 on a violation), the heaviest load the event queue carries.
cargo run --release --offline -p harness --bin traffic >/dev/null

echo "== smoke: multi-node drain (3 nodes, drain one, controller reconverges) =="
# A spread deployment over 3 nodes, one node drained: every victim must be
# rescheduled by the controller and come back Running+ready on a survivor.
cargo run --release --offline -p harness --bin chaos -- --multinode-smoke >/dev/null

echo "== smoke: node crash (3 nodes, power-fail one, lease-driven recovery) =="
# A 6-replica deployment over 3 nodes, one node power-failed: the lease
# must expire, the controller evict and re-home the lost replicas, and
# the deployment reconverge on the survivors with nothing leaked.
cargo run --release --offline -p harness --bin chaos -- --node-crash-smoke >/dev/null

echo "== smoke: recovery times (crash and partition/heal per Wasm config) =="
# Lease detection and time-to-reconverge on a 3-node cluster per config: a
# wait that runs out of rounds is an error, not a time, and fails here.
cargo run --release --offline -p harness --bin chaos -- --recovery >/dev/null

echo "== smoke: fault-schedule explorer (30 seeded schedules) =="
# Seeded schedules of {crash, restart, partition, heal}; every schedule
# must reconverge and pass the invariants, violations shrink to a minimal
# failing prefix (exit 1 if any survive). 30 schedules at the default
# seed are 25 distinct ones, so the five repeats take their outcome from
# the run of the schedule they repeat.
cargo run --release --offline -p harness --bin chaos -- --explore --schedules 30 >/dev/null

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
# dense_cluster workload times, which no test above runs, and the one run
# here of a multi-node measure_startup, which simulates each distinct node
# schedule once.
cargo run --release --offline -p harness --bin figures -- cluster --smoke >/dev/null

# fenced_block <regex>: the first fenced block of EXPERIMENTS.md after the
# line matching <regex>, fences left out. A block that must equal a
# program's output line for line is compared against it with this, so
# the document cannot drift from the program.
fenced_block() {
  awk -v anchor="$1" '$0 ~ anchor { h = 1; next }
                      h && /^```/ { if (in_block) exit; in_block = 1; next }
                      in_block' EXPERIMENTS.md
}

echo "== paper claims (figures claims: all 15, at the paper's densities) =="
# The full 27-cell grid, nothing skipped: under a second since the host
# executes each distinct guest once per process. Exit 1 is a failed claim.
# Its stdout must also be, line for line, the fenced block under
# EXPERIMENTS.md's "Claim check summary".
cargo run --release --offline -p harness --bin figures -- claims >target/claims.stdout
if ! diff <(fenced_block '^## Claim check summary') target/claims.stdout; then
  echo "EXPERIMENTS.md's claim check summary (<) differs from 'figures claims' (>)." >&2
  echo "Regenerate the block from: cargo run --release --offline -p harness --bin figures -- claims" >&2
  exit 1
fi

echo "== smoke: studies app-impact + ablations (the heavy Python scripts, pyrt's direct parse/run) =="
# The only runs of the compute- and memory-heavy Python scripts (their
# math/json imports and list.append) and of ablation_inplace's direct
# pyrt::parse / Interp::run: with these two, every construct pyrt's
# grammar keeps runs in tier-1.
for s in app-impact ablations; do
  cargo run --release --offline -p harness --bin studies -- "$s" >/dev/null
done

echo "== size: non-blank lines (ROADMAP item 9 reads each PR's delta off this, split test / non-test) and host bytes per pod =="
count() { find "$@" -not -path '*/target/*' -not -path './.git/*' -print0 | xargs -0 cat | grep -c '[^[:space:]]'; }
# Non-test Rust is what precedes a file's first '#[cfg(test)]' (the repo's
# tests-at-end convention) under crates/*/src, src/ and examples/; the
# rest of those files, tests/ and crates/*/tests/ are test code.
non_test_src() {
  find crates/*/src src examples -name '*.rs' -print0 \
    | xargs -0 awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t'
}
non_test=$(non_test_src | grep -c '[^[:space:]]')
echo "markdown (*.md): $(count . -name '*.md')"
echo "rust non-test: $non_test"
# What the crates export: rustc's unreachable_pub denies a `pub` item
# that its crate root does not export.
pub_items=$(non_test_src | grep -c '^[[:space:]]*pub ')
echo "pub items (non-test): $pub_items"
echo "rust test: $(($(count crates src tests examples -name '*.rs') - non_test))"
# Host heap per resident pod, per config: a PR's delta in what a pod costs
# the simulator sits next to its delta in lines.
# The three lines must also be the fenced block after EXPERIMENTS.md's
# "Host heap per resident pod" paragraph.
echo "host memory per resident pod (tests/host_footprint.rs):"
cargo test -q --offline --test host_footprint -- --nocapture | grep 'B/pod' \
  | tee target/host_footprint.stdout
if ! diff <(fenced_block '^Host heap per resident pod') target/host_footprint.stdout; then
  echo "EXPERIMENTS.md's host heap block (<) differs from tests/host_footprint.rs (>)." >&2
  echo "Regenerate the block from: cargo test -q --offline --test host_footprint -- --nocapture | grep 'B/pod'" >&2
  exit 1
fi
# What each benchmark workload's shape costs the host, in counts: the
# block after EXPERIMENTS.md's "Host cost census" paragraph. A change that
# moves a count pastes the new block there.
echo "host cost census (tests/host_census.rs):"
census_rows='^(shape|fig_sweep|dense_cluster|traffic_steady|traffic_overload|fault_explore) '
cargo test -q --offline --test host_census -- --nocapture | grep -E "$census_rows" \
  | tee target/host_census.stdout
if ! diff <(fenced_block '^Host cost census') target/host_census.stdout; then
  echo "EXPERIMENTS.md's host cost census (<) differs from tests/host_census.rs (>)." >&2
  echo "Regenerate the block from: cargo test -q --offline --test host_census -- --nocapture | grep -E '$census_rows'" >&2
  exit 1
fi

echo "== size budget: four numbers against their ceilings in scripts/size_budget.txt =="
# A budget that is only written down gets skipped, so it gates. A change
# that must grow a number raises its ceiling in the same diff.
over=0
# budget <name> <value> <what grew> <why that matters> <how to fix it>
budget() {
  local ceiling
  ceiling=$(awk -v name="$1" '$1 == name { print $2 }' scripts/size_budget.txt)
  if [ -z "$ceiling" ]; then
    echo "size budget: scripts/size_budget.txt has no ceiling for $1" >&2
    exit 1
  fi
  echo "$1: $2 (ceiling $ceiling)"
  if [ "$2" -gt "$ceiling" ]; then
    printf '%s\n' "size budget: $1 is $2, over its ceiling of $ceiling by $(($2 - ceiling))" \
      "  What grew: $3" "  Why that matters: $4" "  How to fix it: $5" >&2
    over=1
  fi
}
budget rust-non-test "$non_test" \
  "non-blank non-test Rust under crates/*/src, src/ and examples/." \
  "every line is one more that each later refactor must read and keep byte-identical; the tree is meant to shrink (ROADMAP item 9)." \
  "delete what the change made unnecessary (the old path, a setting with one value, a helper with one caller). If the growth is the point, raise the ceiling in scripts/size_budget.txt and say why in the change."
budget pub-items "$pub_items" \
  "non-test items declared 'pub'." \
  "a pub item is API other crates may come to rely on, and rustc's dead-code lints cannot see past it." \
  "make the item pub(crate) unless non-test code in another crate, a doc test or benchmark/ calls it (DESIGN.md, \"Crate boundaries\"). If it must be pub, raise the ceiling in scripts/size_budget.txt."
budget design-md-lines "$(wc -l <DESIGN.md)" \
  "DESIGN.md." \
  "it should hold mechanisms and invariants only, and is to shrink to one section per crate (ROADMAP item 9)." \
  "replace the text the change supersedes instead of appending; measurements go to EXPERIMENTS.md, history to CHANGES.md."
budget experiments-md-lines "$(wc -l <EXPERIMENTS.md)" \
  "EXPERIMENTS.md." \
  "it should keep the current table per experiment and workload, not every past before/after trail." \
  "replace the table a new measurement supersedes; move history to CHANGES.md."
if [ "$over" -ne 0 ]; then
  exit 1
fi

echo "verify: OK"
