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
set -euo pipefail

if [ "$#" -gt 1 ]; then
  sed -n '2,17p' "$0" >&2
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

# Runs one test; the log is in $work/log.
run_test() {
  local args=$1 test=$2
  # shellcheck disable=SC2086 # the cargo arguments are words
  (cd "$src" && cargo test -q --offline $args -- --exact "$test") >"$work/log" 2>&1
}

failed=0
declare -A checked
for line in "${mutants[@]}"; do
  args=$(field "$line" 4) test=$(field "$line" 5)
  [ -z "${checked[$args $test]:-}" ] || continue
  checked[$args $test]=1
  if ! run_test "$args" "$test" || ! grep -q '^running 1 test$' "$work/log"; then
    echo "mutants: $test ($args) does not run and pass unmutated; its log:" >&2
    tail -15 "$work/log" >&2
    failed=1
  fi
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
  if run_test "$args" "$test"; then
    echo "SURVIVED: $file: '$from' -> '$to' passes $test" >&2
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
