#!/usr/bin/env bash
# Does the working tree's sixdust-exp write the same `all` tree, the
# same service checkpoint and the same session-day report as another
# revision's? The output check a change makes against its parent.
#
#   scripts/check_exp_tree.sh <rev>
#
# Exports <rev>'s committed files with `git archive` into a throwaway
# directory under target/ (removed on exit, like bench_build.sh's
# worktree), builds its sixdust-exp there and the working tree's here
# (release, offline), runs both with `--scale tiny --seed 11 --out DIR
# all` (one DIR, moved aside after each run: the tree records its own
# path) and compares the two output trees with `diff -r`. Then runs both
# with `--checkpoint FILE pipeline` (a fresh FILE each: an existing one
# is resumed from) and compares the two four-year checkpoints with
# `cmp`, since `all` alone never writes one. Last, runs both with
# `--clients 200000 --flash-crowd --serve-report FILE publish`, a session
# day of 200 000 clients with a flash crowd (~4 s), and compares the two
# day reports with `cmp`, since `all` serves only the uniform day. Exits
# non-zero on any difference. Uncommitted work is in the working tree's
# binary.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  sed -n '2,21p' "$0" >&2
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
invoke() {
  local bin=$1 name=$2
  shift 2
  "$bin/target/release/sixdust-exp" --scale tiny --seed 11 --out "$work/out" "$@" \
    >"$work/$name.out" 2>"$work/$name.log" || {
    echo "check_exp_tree: the $name run failed; its last lines:" >&2
    tail -5 "$work/$name.log" >&2
    exit 1
  }
}
run() {
  invoke "$1" "$2" all
  mv "$work/out" "$work/$2"
  invoke "$1" "$2-checkpoint" --checkpoint "$work/$2.checkpoint.json" pipeline
  rm -rf "$work/out"
  invoke "$1" "$2-sessions" --clients 200000 --flash-crowd \
    --serve-report "$work/$2.sessions.json" publish
  rm -rf "$work/out"
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
if cmp "$work/rev.checkpoint.json" "$work/tree.checkpoint.json"; then
  echo "check_exp_tree: identical pipeline checkpoints" \
    "($(wc -c <"$work/tree.checkpoint.json") bytes)"
else
  echo "check_exp_tree: the pipeline checkpoints of ${commit:0:12} and the working tree differ" >&2
  exit 1
fi
if cmp "$work/rev.sessions.json" "$work/tree.sessions.json"; then
  echo "check_exp_tree: identical session-day reports" \
    "($(wc -c <"$work/tree.sessions.json") bytes)"
else
  echo "check_exp_tree: the session-day reports of ${commit:0:12} and the working tree differ" >&2
  exit 1
fi
