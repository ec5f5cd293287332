#!/usr/bin/env bash
# Pins what the benchmark workloads compute across commits.
#
# The benchmark itself only checks that a workload's ledger repeats between
# the passes of one run; a refactor that bends the reproduction the same
# way in every pass would go unnoticed. scripts/ledgers.txt holds the
# ledger every workload prints at seed 11, and this runs each workload once
# (one pass, seconds) and compares. Needs no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

pinned=scripts/ledgers.txt
printed=target/ledgers.printed
mkdir -p target
: >"$printed"
while read -r _ workload _; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 11 --seconds 1 --trace 0 | grep '^ledger ' >>"$printed"
done <"$pinned"

if ! diff -u "$pinned" "$printed"; then
  echo "check_ledgers: FAILED: a workload no longer computes what $pinned records." >&2
  echo "Update that file only when the change in behaviour is intended; a refactor or" >&2
  echo "an optimisation must leave every ledger as it is." >&2
  exit 1
fi
echo "check_ledgers: OK ($(wc -l <"$pinned") workloads at seed 11)"
