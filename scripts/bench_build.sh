#!/usr/bin/env bash
# One revision's benchmark binary, built beside the working tree and not
# in it: what scripts/bench_pairs.sh wants two of.
#
#   scripts/bench_build.sh <rev> <out-binary>
#
# Checks <rev> out as a detached worktree under target/, builds the
# benchmark workspace there (release, offline), copies
# benchmark/target/release/sixdust-benchmark to <out-binary> and removes
# the worktree again. The working tree, its index and its own
# benchmark/target are not touched, so uncommitted work is not in the
# binary: commit what is to be measured first.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  sed -n '2,12p' "$0" >&2
  exit 2
fi
rev=$1
out=$2
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
  echo "bench_build: '$rev' names no commit" >&2
  exit 2
}
tree=$root/target/bench-build-${commit:0:12}

mkdir -p "$root/target"
git -C "$root" worktree add --quiet --detach "$tree" "$commit"
# --force: the build rewrites benchmark/Cargo.lock in the worktree.
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
mkdir -p "$(dirname "$out")"
cp "$tree/benchmark/target/release/sixdust-benchmark" "$out"
echo "bench_build: $out is ${commit:0:12} ($(git -C "$root" log -1 --format=%s "$commit" | cut -c1-60))"
