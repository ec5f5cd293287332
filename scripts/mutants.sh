#!/usr/bin/env bash
# Does every test in scripts/mutants.txt catch the fault it is listed
# against?
#
#   scripts/mutants.sh [rev]     # rev defaults to HEAD; for uncommitted
#                                # work: scripts/mutants.sh $(git stash create)
#
# Exports <rev>'s committed files with `git archive` into target/mutants/src
# (its builds go to target/mutants/target, kept between runs, so a rerun
# compiles only what a mutant touches). First every listed test runs on the
# export as it is: each must run, and pass. Then, line by line, the string
# is replaced in the export (it must occur in its file exactly once, or the
# line is stale), the test runs and must fail (a build error is not a
# catch), and the file is put back. Every line is tried; the exit is
# non-zero at the end if a line was stale, a test failed unmutated or a
# mutant survived. The list's format is described at its top.
#
# Each test binary is built first (`cargo test --no-run`), unbounded; then
# the test alone runs, in its package's directory, under a virtual-memory
# ceiling of 4 GiB and, mutated, under `timeout` at max(60 s, 10 times its
# unmutated time). A mutant that runs past that limit is `caught (timed
# out)` when the unmutated run took at most a tenth of the limit; a run
# the memory ceiling stops is not a catch.
set -euo pipefail

if [ "$#" -gt 1 ]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
rev=${1:-HEAD}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
  echo "mutants: '$rev' names no commit" >&2
  exit 2
}
work=$root/target/mutants
src=$work/src
rm -rf "$src"
mkdir -p "$src"
git -C "$root" archive "$commit" | tar -x -C "$src"
export CARGO_TARGET_DIR=$work/target
vmem_kib=$((4 * 1024 * 1024))

# The lines of the list, comments and blank lines left out; each field is
# cut at its tab, so an empty replacement stays a field.
mutants=()
while IFS= read -r line; do
  case $line in '#'* | '') continue ;; esac
  mutants+=("$line")
done <"$root/scripts/mutants.txt"
field() {
  local line=$1 n=$2
  for ((i = 1; i < n; i++)); do line=${line#*$'\t'}; done
  printf '%s' "${line%%$'\t'*}"
}

# Builds the one test binary the cargo arguments pick and prints its path
# and its package's directory, tab-separated; the build log is in $work/log.
build_test() {
  local args=$1
  # shellcheck disable=SC2086 # the cargo arguments are words
  (cd "$src" && cargo test -q --offline --no-run $args \
    --message-format=json-render-diagnostics 2>"$work/log") |
    python3 -c '
import json, os, sys
tests = [m for m in map(json.loads, sys.stdin)
         if m.get("reason") == "compiler-artifact" and m["profile"]["test"] and m["executable"]]
if len(tests) != 1:
    sys.exit(f"mutants: the cargo arguments pick {len(tests)} test binaries, not one")
print(tests[0]["executable"], os.path.dirname(tests[0]["manifest_path"]), sep="\t")'
}

# Builds and runs one test under the memory ceiling and, when a limit in
# seconds is given, under `timeout`. The status is the test's: 124 or 137
# when it timed out, and 3 when it did not build. The log is in $work/log.
run_test() {
  local args=$1 test=$2 limit=${3:-} built
  built=$(build_test "$args") || return 3
  (
    cd "${built#*$'\t'}"
    ulimit -v "$vmem_kib"
    exec ${limit:+timeout -k 5 "$limit"} "${built%%$'\t'*}" --exact "$test"
  ) >"$work/log" 2>&1
}

now_ms() { echo $(($(date +%s%N) / 1000000)); }

failed=0
declare -A unmutated_ms
for line in "${mutants[@]}"; do
  args=$(field "$line" 4) test=$(field "$line" 5)
  [ -z "${unmutated_ms[$args $test]:-}" ] || continue
  started=$(now_ms)
  if ! run_test "$args" "$test" || ! grep -q '^running 1 test$' "$work/log"; then
    echo "mutants: $test ($args) does not run and pass unmutated; its log:" >&2
    tail -15 "$work/log" >&2
    failed=1
  fi
  unmutated_ms[$args $test]=$(($(now_ms) - started))
done
[ "$failed" = 0 ] || exit 1

for line in "${mutants[@]}"; do
  file=$(field "$line" 1) from=$(field "$line" 2) to=$(field "$line" 3)
  args=$(field "$line" 4) test=$(field "$line" 5)
  cp "$src/$file" "$work/original"
  if ! python3 - "$src/$file" "$from" "$to" <<'EOF'; then
import sys
path, old, new = sys.argv[1:]
text = open(path).read()
if text.count(old) != 1:
    sys.exit(f"mutants: stale line: {path} holds {old!r} {text.count(old)} times, not once")
open(path, "w").write(text.replace(old, new))
EOF
    failed=1
    continue
  fi
  took=${unmutated_ms[$args $test]}
  limit=$(((10 * took + 999) / 1000))
  [ "$limit" -ge 60 ] || limit=60
  status=0
  run_test "$args" "$test" "$limit" || status=$?
  if [ "$status" = 0 ]; then
    echo "SURVIVED: $file: '$from' -> '$to' passes $test" >&2
    failed=1
  elif [ "$status" = 124 ] || [ "$status" = 137 ]; then
    if [ $((10 * took)) -le $((1000 * limit)) ]; then
      echo "caught (timed out): $file: '$from' -> '$to' runs $test past $limit s"
    else
      echo "NOT RUN: $file: '$from' -> '$to' runs $test past $limit s," \
        "which took $took ms unmutated" >&2
      failed=1
    fi
  elif [ "$status" = 3 ]; then
    echo "NOT RUN: $file: '$from' -> '$to' does not build; the log:" >&2
    tail -15 "$work/log" >&2
    failed=1
  elif grep -qF -- "---- $test stdout ----" "$work/log"; then
    echo "caught: $file: '$from' -> '$to' fails $test"
  else
    echo "NOT RUN: $file: '$from' -> '$to' left $test unrun; the log:" >&2
    tail -15 "$work/log" >&2
    failed=1
  fi
  cp "$work/original" "$src/$file"
done
if [ "$failed" != 0 ]; then
  echo "mutants: FAILED" >&2
  exit 1
fi
echo "mutants: all ${#mutants[@]} caught"
