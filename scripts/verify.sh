#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally in one shot.
#
#   scripts/verify.sh            # build + tests + clippy + docs + mutants
#   scripts/verify.sh --quick    # build + tests only (fast pre-push check)
#   scripts/verify.sh --against <parent-binary>
#                                # full mode, and every workload's ledger equal
#                                # to the parent commit's on seeds 101-103
#                                # (scripts/bench_build.sh makes the binary)
#
# Nothing here needs a registry or a network: the root workspace depends on
# nothing outside itself.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
parent=
while [ "$#" -gt 0 ]; do
  case $1 in
    --quick) quick=1 ;;
    --against)
      parent=$(realpath "${2:?verify: --against needs a parent benchmark binary}")
      shift
      ;;
    *)
      sed -n '2,10p' "$0" >&2
      exit 2
      ;;
  esac
  shift
done

echo "== grep gate: no Vec<u128> in public signatures outside crates/addr"
# AddrSet is the only address-set currency at crate boundaries; a public
# fn/struct field shipping a raw Vec<u128> outside crates/addr is a
# regression. (Benches, tests and private items are exempt.)
if grep -rnE '^\s*pub (fn|struct|enum|type)?[^;{]*Vec<u128>' \
    crates/*/src src \
    --include='*.rs' \
  | grep -v '^crates/addr/' \
  | grep -v 'pub(crate)'; then
  echo "grep gate FAILED: public Vec<u128> signature outside crates/addr (use AddrSet)" >&2
  exit 1
fi

echo "== grep gate: every metric-name literal is inventoried in METRICS.md"
# METRICS.md is the contract for dashboards, SLOs and series consumers; a
# counter/gauge/histogram registered under a name the inventory does not
# list (in backticks) is a silent drift. Dynamically-formatted families
# (format!(...)) are documented as patterns and checked by eye.
missing=0
# Only dot-separated names are checked: the naming scheme requires a
# `<subsystem>.<object>` path, so dotless throwaway names in unit tests
# stay out of the inventory. The serve layer's ledger tables
# (`("serve.retry.attempts", |t| ..)`) are walked by a unit test of
# crates/serve instead.
for name in $(grep -rhoE '\.(counter|gauge|histogram)\("[^"]+"\)' \
    crates/*/src src --include='*.rs' \
  | sed -E 's/.*\("([^"]+)".*/\1/' | grep '\.' | sort -u); do
  if ! grep -qF "\`$name\`" METRICS.md; then
    echo "metric \`$name\` is registered in code but not inventoried in METRICS.md" >&2
    missing=1
  fi
done
if [ "$missing" != 0 ]; then
  echo "grep gate FAILED: add the missing metric names to METRICS.md" >&2
  exit 1
fi

echo "== grep gate: every metric METRICS.md inventories is a name literal in the sources"
# The other direction: a table row whose name no source spells any more is
# a stale contract. `<var>` patterns are checked by eye, the `addr` section
# names benchmark figures, not metrics, and the test-only names sit in no
# table.
for name in $(awk '/^## / { skip = ($2 == "addr" || $2 == "Test-only") }
    !skip && /^\| `/ { split($0, col, "|"); gsub(/[ `]/, "", col[2]); print col[2] }' METRICS.md \
  | grep -v '<'); do
  if ! grep -rqF "\"$name\"" crates/*/src --include='*.rs'; then
    echo "metric \`$name\` is inventoried in METRICS.md but no source registers it" >&2
    missing=1
  fi
done
if [ "$missing" != 0 ]; then
  echo "grep gate FAILED: drop the stale rows from METRICS.md" >&2
  exit 1
fi

echo "== grep gate: no registry crate in a manifest, only sixdust* in Cargo.lock"
# JSON is sixdust-json, threads and locks are std's, `sixdust_addr::prf` is
# the project's RNG and the property tests are seeded loops over it.
# benchmark/ keeps its unused stand-ins until a benchmark PR deletes them.
if grep -nE '^(serde|serde_json|proptest|criterion|crossbeam|parking_lot|bytes|rand)\b' \
    Cargo.toml crates/*/Cargo.toml; then
  echo "grep gate FAILED: a removed dependency is back in a Cargo.toml" >&2
  exit 1
fi
if grep '^name = ' Cargo.lock | grep -v '^name = "sixdust'; then
  echo "grep gate FAILED: Cargo.lock names a package from outside the workspace" >&2
  exit 1
fi

echo "== grep gate: every sixdust-* dependency is named by its package"
# A crate edge nothing spells is dead weight in the build graph: each
# `sixdust-x` under [dependencies] needs a `sixdust_x` in the package's
# src/, each one under [dev-dependencies] one in its src/ or tests/.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  while read -r section dep; do
    case $section in
      dependencies) dirs=("$dir/src") ;;
      dev-dependencies) dirs=("$dir/src" "$dir/tests") ;;
    esac
    if ! grep -rqw "${dep//-/_}" "${dirs[@]}" --include='*.rs' 2>/dev/null; then
      echo "$manifest: $dep is a [$section] entry that no ${dirs[*]} file names" >&2
      missing=1
    fi
  done < <(awk '/^\[/ { section = substr($0, 2, length($0) - 2) }
      (section == "dependencies" || section == "dev-dependencies") && /^sixdust-/ {
        split($1, name, "."); print section, name[1] }' "$manifest")
done
if [ "$missing" != 0 ]; then
  echo "grep gate FAILED: drop the unused crate edges" >&2
  exit 1
fi

echo "== non-test lines per crate (scripts/loc.sh: what a size claim in CHANGES.md quotes)"
scripts/loc.sh

echo "== cargo build --release --offline && cargo test -q --offline (Tier-1)"
# Every crate's unit tests, crates/*/tests, tests/*.rs, doctests, the
# examples and sixdust-exp; crates/experiments/tests/cli.rs runs
# `sixdust-exp --scale tiny pipeline` and reads its JSON back.
cargo build --release --offline
cargo test -q --offline

echo "== benchmark harness: its own tests, then every workload once (quick)"
# Needs no registry either. `all --quick` (seconds) runs every output
# check and fails on a ledger that differs between two passes of one seed.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --quick

echo "== pinned ledgers: every workload still computes what scripts/ledgers.txt records"
# `all --quick` compares the passes of one commit with each other; this
# compares the commit with the ones before it, and holds every workload's
# set_bytes_per_addr to the ceiling in scripts/set_bytes.txt.
scripts/check_ledgers.sh

echo "== cargo fmt --all --check"
cargo fmt --all --check

echo "== mirror chaos scenario (quick mode: 3-mirror chaos replay, byte-identical)"
# A seeded chaos day (mirror outages, an origin publish blackout, sync
# corruption) replayed over a 3-mirror tier at tiny scale: the resilient
# client path must absorb the fault plan with zero hard failures, and
# the identical seed must reproduce the DayReport byte-for-byte.
chaos_dir=target/verify-chaos
rm -rf "$chaos_dir" && mkdir -p "$chaos_dir"
for run in a b; do
  target/release/sixdust-exp --scale tiny --seed 11 --out "$chaos_dir/$run" \
    --mirrors 3 --serve-faults --serve-report "$chaos_dir/$run.json" \
    publish >/dev/null 2>"$chaos_dir/$run.log"
done
cmp "$chaos_dir/a.json" "$chaos_dir/b.json" \
  || { echo "chaos scenario FAILED: reports differ across identical seeds" >&2; exit 1; }
grep -q " 0 hard failures" "$chaos_dir/a.log" \
  || { echo "chaos scenario FAILED: hard failures in the chaos day" >&2; \
       grep "chaos day" "$chaos_dir/a.log" >&2 || true; exit 1; }
grep "chaos day over" "$chaos_dir/a.log"

echo "== multi-vantage scenario (3-vantage fleet, deterministic outputs)"
# The EU/US/CN fleet over the GFW filtering era: the disagreement
# artifact must be non-empty (the firewall split is visible), and the
# whole output tree and every count of the fleet summary line must be
# identical across identical seeds (the line's wall time and the path it
# wrote are cut out).
vantage_dir=target/verify-vantage
rm -rf "$vantage_dir" && mkdir -p "$vantage_dir"
for run in a b; do
  target/release/sixdust-exp --scale tiny --seed 11 --out "$vantage_dir/$run" \
    --vantages 3 >/dev/null 2>"$vantage_dir/$run.log"
  grep "vantage fleet" "$vantage_dir/$run.log" \
    | sed -E 's/ in [0-9.]+s / in -s /; s/; wrote .*//' >"$vantage_dir/$run.summary"
done
diff -r "$vantage_dir/a" "$vantage_dir/b" \
  || { echo "vantage scenario FAILED: output trees differ across identical seeds" >&2; exit 1; }
diff "$vantage_dir/a.summary" "$vantage_dir/b.summary" \
  || { echo "vantage scenario FAILED: fleet counts differ across identical seeds" >&2; exit 1; }
grep -q "gfw-class" "$vantage_dir/a.log" \
  || { echo "vantage scenario FAILED: no fleet summary line" >&2; exit 1; }
grep -Eq "[1-9][0-9]* disagreements" "$vantage_dir/a.log" \
  || { echo "vantage scenario FAILED: empty disagreement artifact" >&2; \
       grep "vantage fleet" "$vantage_dir/a.log" >&2 || true; exit 1; }
grep "vantage fleet" "$vantage_dir/a.log"

echo "== flash-crowd scenario (1M-client session day through the event loop, byte-identical)"
# A million session-based virtual clients, 40% of them piling onto the
# publication spikes, replayed through the event-loop front end: the day
# must complete, count flash arrivals, and reproduce the DayReport
# byte-for-byte across identical seeds.
flash_dir=target/verify-flash
rm -rf "$flash_dir" && mkdir -p "$flash_dir"
for run in a b; do
  target/release/sixdust-exp --scale tiny --seed 11 --out "$flash_dir/$run" \
    --clients 1000000 --flash-crowd --serve-report "$flash_dir/$run.json" \
    publish >/dev/null 2>"$flash_dir/$run.log"
done
cmp "$flash_dir/a.json" "$flash_dir/b.json" \
  || { echo "flash-crowd scenario FAILED: reports differ across identical seeds" >&2; exit 1; }
grep -Eq "flash crowd: [1-9][0-9]* arrivals" "$flash_dir/a.log" \
  || { echo "flash-crowd scenario FAILED: no flash arrivals counted" >&2; \
       grep "serve day" "$flash_dir/a.log" >&2 || true; exit 1; }
grep "serve day:" "$flash_dir/a.log"
grep "flash crowd:" "$flash_dir/a.log"

echo "== resume scenario (a run resumed from its own checkpoint writes the experiments)"
# `--checkpoint C pipeline` runs the four years and leaves C behind;
# `--checkpoint C all` must resume from it (an unusable checkpoint would
# be reported, ignored and the run started afresh) with no round left to
# run, and write the tree a fresh `all` writes. One --out directory,
# moved aside after each run: the tree records its own path.
resume_dir=target/verify-resume
rm -rf "$resume_dir" && mkdir -p "$resume_dir"
for run in fresh checkpoint resumed; do
  case $run in
    fresh) args=(all) ;;
    checkpoint) args=(--checkpoint "$resume_dir/service.ckpt" pipeline) ;;
    resumed) args=(--checkpoint "$resume_dir/service.ckpt" all) ;;
  esac
  target/release/sixdust-exp --scale tiny --seed 11 --out "$resume_dir/out" "${args[@]}" \
    >/dev/null 2>"$resume_dir/$run.log"
  mv "$resume_dir/out" "$resume_dir/$run"
done
grep "resuming from checkpoint" "$resume_dir/resumed.log" \
  || { echo "resume scenario FAILED: the second run did not resume" >&2; \
       grep "checkpoint" "$resume_dir/resumed.log" >&2 || true; exit 1; }
diff -r "$resume_dir/fresh" "$resume_dir/resumed" \
  || { echo "resume scenario FAILED: the resumed run wrote another tree" >&2; exit 1; }
# Checkpoint v8 is 1 869 592 bytes; the bound of 2 517 342 is 1.3 times
# the 1 936 417 bytes of v7 it was set from. A format change that grows
# it past that fails here.
ckpt_bytes=$(wc -c <"$resume_dir/service.ckpt")
[ "$ckpt_bytes" -le 2517342 ] \
  || { echo "resume scenario FAILED: the checkpoint is $ckpt_bytes bytes, past 2517342" >&2; \
       exit 1; }
echo "resume scenario: $(find "$resume_dir/resumed" -type f | wc -l) files, as a fresh run," \
  "from a $ckpt_bytes-byte checkpoint"

if [ "$quick" = 0 ]; then
  if [ -n "$parent" ]; then
    echo "== ledgers on seeds the change was not written against: equal to the parent's"
    scripts/check_ledgers.sh --against "$parent"
  fi

  echo "== cargo test --release -q --offline (arithmetic and assertions under optimisation)"
  cargo test --release -q --offline

  echo "== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --offline --workspace --all-targets -- -D warnings

  echo "== cargo doc --workspace --no-deps (warnings denied)"
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

  echo "== mutants: each fault in scripts/mutants.txt fails the test listed against it"
  # The committed tree, or the uncommitted one when there is any (a stash
  # commit of it; nothing is stashed away).
  scripts/mutants.sh "$(git stash create || true)"
fi

echo "verify: OK"
