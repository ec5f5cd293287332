#!/usr/bin/env bash
# Does the working tree's sixdust-exp write the same `all` tree, the
# same service checkpoint, the same session-day report and the same
# outputs of the three modes `all` never reaches as another revision's,
# and does a run resumed from either checkpoint write that `all` tree
# too? The output check a change makes against its parent.
#
#   scripts/check_exp_tree.sh <rev>
#
# Exports <rev>'s committed files with `git archive` into a throwaway
# directory under target/ (removed on exit, like bench_build.sh's
# worktree), builds its sixdust-exp there and the working tree's here
# (release, offline), and runs each binary six times with `--scale tiny
# --seed 11 --out DIR` (one DIR, moved aside after each run: the tree
# records its own path): `all`; `--checkpoint FILE pipeline` (a fresh
# FILE: an existing one is resumed from), since `all` alone never writes
# a checkpoint; `--clients 200000 --flash-crowd --serve-report FILE
# publish`, a session day of 200 000 clients with a flash crowd (~4 s),
# since `all` serves only the uniform day; and the three modes `all`
# never reaches: `--mirrors 3 --serve-faults --serve-report FILE
# publish` (the chaos report), `--vantages 3` (its
# vantage_disagreement.json) and `--dashboard FILE publish` (the HTML).
# The `--series` JSONL carries wall-clock columns and is left to cli.rs.
# Then the working tree's binary runs `--checkpoint COPY all` twice, from
# a copy of <rev>'s checkpoint and from a copy of its own: both must
# resume (the log says so) after the last round and write <rev>'s `all`
# tree. It compares the two `all` trees and both resumed trees with
# `diff -r`, and each pair of checkpoints, day reports, chaos reports,
# vantage artifacts and dashboards with `cmp`, runs every comparison
# (printing both sizes when they differ) and exits non-zero at the end
# if any of them differed. Uncommitted work is in the working tree's
# binary.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  sed -n '2,32p' "$0" >&2
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
  invoke "$1" "$2-chaos" --mirrors 3 --serve-faults --serve-report "$work/$2.chaos.json" publish
  rm -rf "$work/out"
  invoke "$1" "$2-vantages" --vantages 3
  mv "$work/out/vantage_disagreement.json" "$work/$2.vantages.json"
  rm -rf "$work/out"
  invoke "$1" "$2-dashboard" --dashboard "$work/$2.dashboard.html" publish
  rm -rf "$work/out"
}
run "$work/src" rev
run "$root" tree
failed=0
for from in rev tree; do
  cp "$work/$from.checkpoint.json" "$work/resume-$from.json"
  invoke "$root" "resume-$from" --checkpoint "$work/resume-$from.json" all
  mv "$work/out" "$work/resumed-from-$from"
  # An unusable checkpoint is reported and ignored, and a fresh run
  # writes the same tree: only the log tells a resume from one.
  grep "resuming from checkpoint" "$work/resume-$from.log" || {
    echo "check_exp_tree: the working tree did not resume from the $from checkpoint:" >&2
    grep "checkpoint" "$work/resume-$from.log" >&2 || true
    failed=1
  }
done
same_tree() {
  if diff -r "$work/rev" "$work/$1"; then
    echo "check_exp_tree: identical 'all' trees ($(find "$work/$1" -type f | wc -l) files)" \
      "at ${commit:0:12} and $2"
  else
    echo "check_exp_tree: the 'all' trees of ${commit:0:12} and $2 differ" >&2
    failed=1
  fi
}
same_file() {
  if cmp "$work/rev.$1" "$work/tree.$1"; then
    echo "check_exp_tree: identical $2 ($(wc -c <"$work/tree.$1") bytes)"
  else
    echo "check_exp_tree: the $2 of ${commit:0:12} and the working tree differ" \
      "($(wc -c <"$work/rev.$1") and $(wc -c <"$work/tree.$1") bytes)" >&2
    failed=1
  fi
}
same_tree tree "the working tree"
same_file checkpoint.json "pipeline checkpoints"
same_file sessions.json "session-day reports"
same_file chaos.json "chaos reports"
same_file vantages.json "vantage artifacts"
same_file dashboard.html "dashboards"
same_tree resumed-from-rev "the working tree resumed from ${commit:0:12}'s checkpoint"
same_tree resumed-from-tree "the working tree resumed from its own checkpoint"
exit "$failed"
