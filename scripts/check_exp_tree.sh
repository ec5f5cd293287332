#!/usr/bin/env bash
# Does the working tree's sixdust-exp write the same `all` tree as another
# revision's? The output check a change makes against its parent.
#
#   scripts/check_exp_tree.sh <rev>
#
# Exports <rev>'s committed files with `git archive` into a throwaway
# directory under target/ (removed on exit, like bench_build.sh's
# worktree), builds its sixdust-exp there and the working tree's here
# (release, offline), runs both with `--scale tiny --seed 11 --out DIR
# all` (one DIR, moved aside after each run: the tree records its own
# path) and compares the two output trees with `diff -r`. Exits non-zero
# on any difference. Uncommitted work is in the working tree's binary.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
rev=$1
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
  echo "check_exp_tree: '$rev' names no commit" >&2
  exit 2
}
work=$root/target/exp-tree-${commit:0:12}

rm -rf "$work"
mkdir -p "$work/src"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$commit" | tar -x -C "$work/src"
build() {
  cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" \
    -p sixdust-experiments --bin sixdust-exp
}
build "$work/src"
build "$root"
run() {
  "$1/target/release/sixdust-exp" --scale tiny --seed 11 --out "$work/out" all \
    >"$work/$2.out" 2>"$work/$2.log" || {
    echo "check_exp_tree: the $2 binary failed; its last lines:" >&2
    tail -5 "$work/$2.log" >&2
    exit 1
  }
  mv "$work/out" "$work/$2"
}
run "$work/src" rev
run "$root" tree
if diff -r "$work/rev" "$work/tree"; then
  echo "check_exp_tree: identical 'all' trees ($(find "$work/tree" -type f | wc -l) files)" \
    "at ${commit:0:12} and the working tree"
else
  echo "check_exp_tree: the 'all' trees of ${commit:0:12} and the working tree differ" >&2
  exit 1
fi
