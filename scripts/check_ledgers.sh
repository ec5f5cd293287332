#!/usr/bin/env bash
# Pins what the benchmark workloads compute across commits.
#
# The benchmark itself only checks that a workload's ledger repeats between
# the passes of one run; a refactor that bends the reproduction the same
# way in every pass would go unnoticed. scripts/ledgers.txt holds the
# ledger every workload prints at seed 11, and this runs each workload once
# (one pass, seconds) and compares. Needs no registry.
#
#   scripts/check_ledgers.sh
#   scripts/check_ledgers.sh --against <parent-binary> [seed...]
#
# The pinned file holds one seed, and a change to a path that draws (loss,
# sampling, rotation) must hold on draws it was not written against:
# --against runs every workload once per seed (default 101 102 103) on a
# parent commit's benchmark binary (scripts/bench_build.sh makes one) and
# on the working tree, and compares what the two print.
set -euo pipefail
cd "$(dirname "$0")/.."

pinned=scripts/ledgers.txt
printed=target/ledgers.printed
mkdir -p target

# ledgers <seed> <command...>: the ledger line of every workload at <seed>.
ledgers() {
  local seed=$1 workload
  shift
  while read -r _ workload _; do
    "$@" --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | grep '^ledger '
  done <"$pinned"
}
tree=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

if [ "${1:-}" = --against ]; then
  parent=${2:?check_ledgers: --against needs a parent benchmark binary}
  shift 2
  seeds=("$@")
  [ "${#seeds[@]}" -gt 0 ] || seeds=(101 102 103)
  for seed in "${seeds[@]}"; do
    ledgers "$seed" "$parent" >"$printed.parent"
    ledgers "$seed" "${tree[@]}" >"$printed"
    if ! diff -u "$printed.parent" "$printed"; then
      echo "check_ledgers: FAILED: at seed $seed the working tree no longer computes what" >&2
      echo "$parent does." >&2
      exit 1
    fi
  done
  echo "check_ledgers: OK ($(wc -l <"$pinned") workloads equal to $parent at seeds ${seeds[*]})"
  exit 0
fi

ledgers 11 "${tree[@]}" >"$printed"

if ! diff -u "$pinned" "$printed"; then
  echo "check_ledgers: FAILED: a workload no longer computes what $pinned records." >&2
  echo "Update that file only when the change in behaviour is intended; a refactor or" >&2
  echo "an optimisation must leave every ledger as it is." >&2
  exit 1
fi
echo "check_ledgers: OK ($(wc -l <"$pinned") workloads at seed 11)"
