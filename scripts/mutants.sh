#!/usr/bin/env bash
# Run the mutation catalogue (scripts/mutants.txt): each mutant must be
# killed by the test its entry names.
#
# Usage: scripts/mutants.sh [--touched] <work-dir>
#
# Copies the tree (without target/ and .git/) into a fresh <work-dir>/tree
# and builds there into one target dir, <work-dir>/target, shared by every
# mutant and kept for the next run. Each named test must
# first pass on the unmutated copy. Then, one entry at a time, the
# entry's snippet is replaced in the copy, the test is built (a mutant
# that does not compile is an error, not a kill) and run, and the file is
# restored. A mutant whose test still passes survives; a snippet that
# does not occur exactly once is stale. Either fails the run (exit 1).
#
# --touched keeps only the entries whose file this change touches: the
# files that differ from the parent commit (HEAD~1 once the change is
# committed, HEAD while it is still in the working tree) plus untracked
# ones. If git cannot name them (no repository, no parent commit), the run
# fails (exit 2) rather than select nothing.
set -uo pipefail
cd "$(dirname "$0")/.."

touched_only=0
if [ "${1:-}" = "--touched" ]; then
  touched_only=1
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--touched] <work-dir>" >&2
  exit 2
fi
work=$1
mkdir -p "$work"
work=$(cd "$work" && pwd)

# Parse the catalogue into parallel arrays, one index per entry.
files=() finds=() replaces=() tests=() claims=()
file='' find='' replace='' test='' claim=''
entry_end() {
  if [ -n "$file" ]; then
    if [ -z "$find" ] || [ -z "$test" ] || [ -z "$claim" ]; then
      echo "mutants.txt: the entry for $file lacks find, test or claim" >&2
      exit 2
    fi
    files+=("$file") finds+=("$find") replaces+=("$replace") tests+=("$test") claims+=("$claim")
  fi
  file='' find='' replace='' test='' claim=''
}
while IFS= read -r line || [ -n "$line" ]; do
  case $line in
    '#'*) ;;
    '') entry_end ;;
    'file: '*) file=${line#file: } ;;
    'find: '*) find=${line#find: } ;;
    'replace: '*) replace=${line#replace: } ;;
    'test: '*) test=${line#test: } ;;
    'claim: '*) claim=${line#claim: } ;;
    *)
      echo "mutants.txt: unreadable line: $line" >&2
      exit 2
      ;;
  esac
done <scripts/mutants.txt
entry_end

selected=("${!files[@]}")
if [ "$touched_only" -eq 1 ]; then
  if git diff --quiet HEAD 2>/dev/null; then
    base=HEAD~1
  else
    base=HEAD
  fi
  if ! git rev-parse -q --verify "$base^{commit}" >/dev/null \
    || ! changed=$(git diff --name-only "$base") \
    || ! untracked=$(git ls-files -o --exclude-standard); then
    echo "mutants: git cannot list the files changed since $base" >&2
    exit 2
  fi
  touched=$'\n'$changed$'\n'$untracked$'\n'
  selected=()
  for i in "${!files[@]}"; do
    if [[ $touched == *$'\n'"${files[$i]}"$'\n'* ]]; then
      selected+=("$i")
    fi
  done
  echo "mutants: ${#selected[@]} of ${#files[@]} entries mutate a file changed since $base"
fi
if [ "${#selected[@]}" -eq 0 ]; then
  exit 0
fi

echo "== copy the tree to $work/tree =="
rm -rf "$work/tree"
mkdir "$work/tree"
# -m stamps every file with the time of the copy: a file keeping an older
# mtime would let cargo reuse an artifact built from an earlier run's
# mutant of it.
tar --exclude=./target --exclude=./benchmark/target --exclude=./.git -cf - . \
  | tar -xmf - -C "$work/tree"
export CARGO_TARGET_DIR=$work/target
cd "$work/tree" || exit 2

# cargo_test <args> [<extra...>]: the entry's test, quiet, offline.
cargo_test() {
  # shellcheck disable=SC2086 # the entry's test is a list of arguments
  cargo test --offline -q $1 "${@:2}"
}

echo "== the named tests pass unmutated =="
declare -A baseline=()
for i in "${selected[@]}"; do
  t=${tests[$i]}
  if [ -z "${baseline[$t]:-}" ]; then
    baseline[$t]=1
    if ! cargo_test "$t" >"$work/baseline.log" 2>&1; then
      cat "$work/baseline.log"
      echo "mutants: 'cargo test $t' fails on the unmutated tree" >&2
      exit 1
    fi
  fi
done

failed=0
for i in "${selected[@]}"; do
  f=${files[$i]} find=${finds[$i]} replace=${replaces[$i]} t=${tests[$i]}
  what="$f: '$find' (${claims[$i]})"
  if [ ! -f "$f" ]; then
    echo "STALE     $what: no such file"
    failed=1
    continue
  fi
  original=$(cat "$f"; printf x)
  original=${original%x}
  rest=${original//"$find"/}
  count=$(((${#original} - ${#rest}) / ${#find}))
  if [ "$count" -ne 1 ]; then
    echo "STALE     $what: the snippet occurs $count times, not once"
    failed=1
    continue
  fi
  printf '%s' "${original/"$find"/"$replace"}" >"$f"
  if ! cargo_test "$t" --no-run >"$work/mutant.log" 2>&1; then
    cat "$work/mutant.log"
    echo "BROKEN    $what: the mutant does not compile"
    failed=1
  elif cargo_test "$t" >"$work/mutant.log" 2>&1; then
    echo "SURVIVED  $what: 'cargo test $t' passes"
    failed=1
  else
    echo "killed    $what"
  fi
  printf '%s' "$original" >"$f"
done

if [ "$failed" -ne 0 ]; then
  echo "mutants: a mutant survived, did not compile, or is stale" >&2
  exit 1
fi
echo "mutants: all ${#selected[@]} killed"
