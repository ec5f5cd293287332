#!/usr/bin/env bash
# Pins what the benchmark workloads compute across commits.
#
# The benchmark itself only checks that a workload's ledger repeats between
# the passes of one run; a refactor that bends the reproduction the same
# way in every pass would go unnoticed. scripts/ledgers.txt holds the
# ledger every workload prints at seed 11, and this runs each workload once
# (one pass, seconds) and compares. Needs no registry.
#
# The same runs read each workload's set_bytes_per_addr, which repeats
# exactly for one seed too: scripts/set_bytes.txt pins it at seed 11, and a
# value above the pinned one fails as a changed ledger does. A change that
# lowers it updates the pin.
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
pinned_bytes=scripts/set_bytes.txt
printed=target/ledgers.printed
mkdir -p target

# runs <seed> <command...>: every workload once at <seed>; its ledger line,
# then "set_bytes <workload> <B/addr>".
runs() {
  local seed=$1 workload out bytes
  shift
  while read -r _ workload _; do
    out=$("$@" --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    grep '^ledger ' <<<"$out"
    bytes=$(grep -o '"set_bytes_per_addr":{"value":[^,}]*' <<<"$out" | sed 's/.*://')
    LC_ALL=C printf 'set_bytes %s %.4f\n' "$workload" "$bytes"
  done <"$pinned"
}

# ledgers <seed> <command...>: the ledger line of every workload at <seed>.
ledgers() {
  runs "$@" | grep '^ledger '
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

runs 11 "${tree[@]}" >"$printed.all"
grep '^ledger ' "$printed.all" >"$printed"

if ! diff -u "$pinned" "$printed"; then
  echo "check_ledgers: FAILED: a workload no longer computes what $pinned records." >&2
  echo "Update that file only when the change in behaviour is intended; a refactor or" >&2
  echo "an optimisation must leave every ledger as it is." >&2
  exit 1
fi
grown=0
while read -r _ workload pin; do
  now=$(awk -v w="$workload" '$1 == "set_bytes" && $2 == w { print $3 }' "$printed.all")
  if awk -v now="$now" -v pin="$pin" 'BEGIN { exit !(now == "" || now > pin) }'; then
    echo "check_ledgers: FAILED: $workload's sets hold ${now:-?} B an address, above the" >&2
    echo "$pin B that $pinned_bytes pins." >&2
    grown=1
  fi
done <"$pinned_bytes"
[ "$grown" = 0 ] || exit 1
echo "check_ledgers: OK ($(wc -l <"$pinned") workloads at seed 11, set bytes within $pinned_bytes)"
