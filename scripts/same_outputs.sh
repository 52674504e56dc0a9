#!/usr/bin/env bash
# Byte-identity check of this tree against another checkout of the repo
# (normally the parent commit, made with `git clone`): every simulated
# output must be the same on both sides.
#
# Usage: scripts/same_outputs.sh <parent-tree> [<out-dir>]
#
# Builds each side's harness binaries, examples and benchmark package, then
# runs `figures all phases table1 table2 claims` and `cluster --smoke`, the
# four `studies`, the seven `chaos` modes (`--explore --schedules 200`
# among them), the four `traffic` modes and the four examples, and
# `diff -r`s the stdouts and the CSVs they leave in target/experiments. Then compares the `sim_digest` of the five
# benchmark workloads at seeds 1 and 5. Exits 1 on any difference and 2 on
# a usage or build error. Outputs stay in <out-dir> (default: a new
# temporary directory) for inspection.
set -uo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -f "$1/Cargo.toml" ]; then
  echo "usage: $0 <parent-tree> [<out-dir>]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-$(mktemp -d)}
mkdir -p "$out"

for src in "$parent" "$change"; do
  echo "== build $src =="
  (cd "$src" \
    && cargo build --release --offline -q -p harness --bins \
    && cargo build --release --offline -q --examples \
    && cargo build --release --offline -q --manifest-path benchmark/Cargo.toml) \
    || { echo "build failed in $src" >&2; exit 2; }
done

# run_side <src> <dir>: each mode in a directory of its own under <dir>,
# its stdout in `stdout` and its CSVs in `target/experiments`. A non-zero
# exit is appended to the stdout, not fatal: the sides must agree on it.
run_side() {
  local bin=$1/target/release dir=$2 m
  run() { # <label> <command...>
    mkdir -p "$dir/$1"
    (cd "$dir/$1" && "${@:2}" >stdout || echo "exit $?" >>stdout)
  }
  for m in all phases table1 table2 claims; do run "figures_$m" "$bin/figures" $m; done
  run figures_cluster_smoke "$bin/figures" cluster --smoke
  for m in design-questions app-impact wamr-aot ablations; do run "studies_$m" "$bin/studies" $m; done
  for m in "" --smoke --multinode-smoke --node-crash-smoke "--explore --schedules 200" \
    --recovery --isolation-smoke; do
    # shellcheck disable=SC2086 # a mode is a list of flags
    run "chaos${m// /_}" "$bin/chaos" $m
  done
  for m in "" --smoke --scenario "--smoke --seed 7"; do
    # shellcheck disable=SC2086
    run "traffic${m// /_}" "$bin/traffic" $m
  done
  for m in quickstart hybrid_pods multi_tenant sandbox_api; do run "example_$m" "$bin/examples/$m"; done
}

differ=0
echo "== outputs =="
run_side "$parent" "$out/parent"
run_side "$change" "$out/change"
diff -r "$out/parent" "$out/change" || differ=1

echo "== sim_digest =="
for w in fig_sweep dense_cluster traffic_steady traffic_overload fault_explore; do
  for s in 1 5; do
    digests=()
    for src in "$parent" "$change"; do
      digests+=("$(cd "$src" && ./benchmark/target/release/mwc-benchmark --workload $w \
        --seed $s --seconds 1 --trace 0 | grep -o 'sim_digest [0-9a-f]*')")
    done
    echo "$w seed $s: parent ${digests[0]#sim_digest }, change ${digests[1]#sim_digest }"
    [ -n "${digests[0]}" ] && [ "${digests[0]}" = "${digests[1]}" ] || differ=1
  done
done

if [ $differ -ne 0 ]; then
  echo "same_outputs: the two trees differ (outputs kept in $out)" >&2
  exit 1
fi
echo "same_outputs: no difference (outputs in $out)"
