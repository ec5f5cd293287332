#!/usr/bin/env bash
# The alternating-pairs protocol for claiming (or ruling out) a change in
# a workload's throughput on a host that drifts.
#
#   scripts/bench_pairs.sh [--json FILE] <parent-binary> <change-binary> <workload>[,<workload>…] [pairs=10] [seconds=6]
#
# Both arguments are prebuilt `sixdust-benchmark` binaries, one per
# commit, which scripts/bench_build.sh makes without touching the working
# tree:
#
#   scripts/bench_build.sh HEAD~1 target/bench-parent
#   scripts/bench_build.sh HEAD   target/bench-change
#
# Every pair runs the workload once on each side with tracing off, back
# to back, on a seed of its own (SEED0, default 101, plus the pair's
# index); which side goes first flips every pair, so neither always
# inherits the warmer or the busier host. A pair is only counted if both
# runs are correct, nothing failed and, the seed being the same, both
# print the same ledger.
#
# Printed: every pair, then per side the median and quartiles of
# `ops_per_s` and `ops_per_s_median`, and the pairs the change won. Then,
# per side, the quartiles of the other two timed end-to-end metrics of the
# same runs, `peak_rss_mib` and `setup_s`, so that a change can show none
# of them got worse.
#
# Then the verdict on those four metrics against the `bound` each has in
# BENCHMARK.json: the change's median may be worse than the parent's by
# at most that share of it. Where the parent's own interquartile range is
# a wider share of its median than the bound, the runs cannot tell, and
# the metric is unresolved unless every change run beat every parent run:
#
#   bounds: ok | <metric> worse by X % (bound B %); <metric> unresolved (…)
#
# Last, one verdict per metric of the four by the rule this repository
# claims a gain by: the change better, in the direction BENCHMARK.json
# gives as the metric's `better`, in at least nine pairs of ten
# (W/N ≥ 9/10), and its median better than the parent's by more than the
# parent's interquartile range:
#
#   claim <metric>: met|not met (won W/N, gap G vs parent iqr I)
#
# Given a comma-separated list of workloads, it runs each one's pairs in
# turn and prints each one's lines as above, a blank line between them,
# then one last line naming every workload whose bounds were not ok:
#
#   workloads: bounds ok | workloads: bounds not ok on <workload>[, …]
#
# With --json FILE it prints the same and also writes FILE: the host
# (`nproc`, rustc, date, and the revisions of the two binaries, taken
# from PARENT_REV and CHANGE_REV, by default `git rev-parse HEAD~1` and
# `HEAD`), the protocol (first seed, pairs, seconds), and per workload and
# metric each side's median, q1 and q3, the pairs won, the bound verdict
# and the claim verdict, with the `bounds:`, `claim` and `workloads:`
# lines as printed. scripts/bench_history.sh reads such files.
set -euo pipefail

json_out=
if [ "${1:-}" = --json ]; then
  json_out=${2:?--json needs a file}
  shift 2
fi
if [ "$#" -lt 3 ]; then
  sed -n '2,55p' "$0" >&2
  exit 2
fi
benchmark_json=$(dirname "$0")/../BENCHMARK.json
parent=$1
change=$2
IFS=, read -r -a workloads <<<"$3"
pairs=${4:-10}
seconds=${5:-6}
seed0=${SEED0:-101}

# run <binary> <seed>: one run; sets r_ops, r_med, r_rss, r_setup and r_ledger.
run() {
  local out json
  if ! out=$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0); then
    echo "bench_pairs: $1 --workload $workload --seed $2 failed" >&2
    exit 1
  fi
  json=$(tail -n 1 <<<"$out")
  if ! grep -q '"correct":true' <<<"$json" || ! grep -q '"failed":0[,}]' <<<"$json"; then
    echo "bench_pairs: $1 on seed $2 is not correct or has failures: $json" >&2
    exit 1
  fi
  # `"ops_per_s":` cannot match inside `"ops_per_s_median":`: the quote closes the name.
  r_ops=$(metric ops_per_s <<<"$json")
  r_med=$(metric ops_per_s_median <<<"$json")
  r_rss=$(metric peak_rss_mib <<<"$json")
  r_setup=$(metric setup_s <<<"$json")
  r_ledger=$(sed -n "s/^ledger $workload //p" <<<"$out")
}

metric() {
  sed -E "s/.*\"$1\":\{\"value\":([-+0-9.eE]+).*/\1/"
}

# The p-quantile of the sorted numbers in v[1..NR], by linear interpolation.
quantile='function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + (lo < NR)] - v[lo]) }'

# Quartiles of the numbers on standard input.
quartiles() {
  sort -g | awk "$quantile"'
    { v[NR] = $1 }
    END { printf "median %.4g  q1 %.4g  q3 %.4g  (iqr %.3g, n %d)\n", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25), NR }'
}

# stat <median|iqr>: that statistic of the numbers on standard input.
stat() {
  sort -g | awk -v what="$1" "$quantile"'
    { v[NR] = $1 }
    END { print (what == "median") ? q(0.5) : q(0.75) - q(0.25) }'
}

# json_quartiles: the numbers on standard input as a JSON object of their
# median, q1 and q3.
json_quartiles() {
  sort -g | awk "$quantile"'
    { v[NR] = $1 }
    END { printf "{\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g}", q(0.5), q(0.25), q(0.75) }'
}

# bench_entry <metric>: sets bound and better from the metric's
# end-to-end entry in BENCHMARK.json.
bench_entry() {
  local entry
  entry=$(sed -n "/\"name\": \"$1\"/,/}/p" "$benchmark_json")
  bound=$(sed -n 's/.*"bound": *\([-+0-9.eE]*\).*/\1/p' <<<"$entry")
  better=$(sed -n 's/.*"better": *"\([a-z]*\)".*/\1/p' <<<"$entry")
  if [ -z "$bound" ] || [ -z "$better" ]; then
    echo "bench_pairs: no bound for $1 in $benchmark_json" >&2
    exit 1
  fi
}

# bound_verdict <metric> <stem>: nothing when the change's median of the
# runs in $tmp/<side>.<stem> is within the metric's bound of the parent's;
# otherwise how far past it went, or why the runs cannot tell.
bound_verdict() {
  local bound better
  bench_entry "$1"
  awk -v name="$1" -v bound="$bound" -v better="$better" \
    -v p="$(stat median <"$tmp/parent.$2")" -v c="$(stat median <"$tmp/change.$2")" \
    -v iqr="$(stat iqr <"$tmp/parent.$2")" \
    -v pmin="$(sort -g "$tmp/parent.$2" | head -n 1)" -v pmax="$(sort -g "$tmp/parent.$2" | tail -n 1)" \
    -v cmin="$(sort -g "$tmp/change.$2" | head -n 1)" -v cmax="$(sort -g "$tmp/change.$2" | tail -n 1)" 'BEGIN {
      base = (p != 0) ? p : 1
      # How much worse the change median is, as a share of the parent one.
      worse = ((better == "higher") ? p - c : c - p) / base
      all_better = (better == "higher") ? cmin > pmax : cmax < pmin
      if (worse > bound)
        printf "%s worse by %.1f %% (bound %.0f %%)", name, 100 * worse, 100 * bound
      else if (iqr / base > bound && !all_better)
        printf "%s unresolved (parent iqr %.1f %% of its median, bound %.0f %%)", name, 100 * iqr / base, 100 * bound
    }'
}

# claim_verdict <metric> <stem>: the claim line for that metric, from the
# runs in $tmp/<side>.<stem>, one line per pair in pair order.
claim_verdict() {
  local bound better
  bench_entry "$1"
  paste "$tmp/parent.$2" "$tmp/change.$2" | awk -v name="$1" -v better="$better" \
    -v p="$(stat median <"$tmp/parent.$2")" -v c="$(stat median <"$tmp/change.$2")" \
    -v iqr="$(stat iqr <"$tmp/parent.$2")" '
    { won += (better == "higher") ? ($2 > $1) : ($2 < $1) }
    END {
      gap = (better == "higher") ? c - p : p - c
      met = (10 * won >= 9 * NR) && (gap > iqr)
      printf "claim %s: %s (won %d/%d, gap %.4g vs parent iqr %.4g)\n", name, met ? "met" : "not met", won, NR, gap, iqr
    }'
}

# pairs_of <workload>: the pairs of one workload and their verdicts; sets
# bounds_ok to whether that workload's bounds were ok.
pairs_of() {
  local workload=$1 won=0 lost=0 i seed side sides metric v verdicts
  local p_ops p_med p_ledger c_ops c_med c_ledger
  rm -f "$tmp"/*
  won=0
  lost=0
  printf '%-5s %-6s %-6s %12s %12s %12s %12s\n' pair seed first parent change parent_med change_med
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    # Even pairs run the parent first, odd pairs the change.
    sides=(parent change)
    if ((i % 2 == 1)); then
      sides=(change parent)
    fi
    for side in "${sides[@]}"; do
      if [ "$side" = parent ]; then
        run "$parent" "$seed"
        p_ops=$r_ops p_med=$r_med p_ledger=$r_ledger
        echo "$r_rss" >>"$tmp/parent.rss"
        echo "$r_setup" >>"$tmp/parent.setup"
      else
        run "$change" "$seed"
        c_ops=$r_ops c_med=$r_med c_ledger=$r_ledger
        echo "$r_rss" >>"$tmp/change.rss"
        echo "$r_setup" >>"$tmp/change.setup"
      fi
    done
    if [ -z "$p_ledger" ] || [ "$p_ledger" != "$c_ledger" ]; then
      echo "bench_pairs: seed $seed: ledgers differ (parent '$p_ledger', change '$c_ledger')" >&2
      exit 1
    fi
    printf '%-5s %-6s %-6s %12.4f %12.4f %12.4f %12.4f\n' \
      "$((i + 1))" "$seed" "${sides[0]}" "$p_ops" "$c_ops" "$p_med" "$c_med"
    echo "$p_ops" >>"$tmp/parent.ops"
    echo "$c_ops" >>"$tmp/change.ops"
    echo "$p_med" >>"$tmp/parent.med"
    echo "$c_med" >>"$tmp/change.med"
    case $(awk -v p="$p_ops" -v c="$c_ops" 'BEGIN { print (c > p) ? "won" : (c < p) ? "lost" : "tie" }') in
      won) won=$((won + 1)) ;;
      lost) lost=$((lost + 1)) ;;
    esac
  done

  echo
  echo "$workload, $pairs pairs of $seconds s, seeds $seed0..$((seed0 + pairs - 1)), every ledger equal:"
  for side in parent change; do
    echo "  $side ops_per_s         $(quartiles <"$tmp/$side.ops")"
    echo "  $side ops_per_s_median  $(quartiles <"$tmp/$side.med")"
  done
  echo "  change ahead on ops_per_s in $won of $pairs pairs, behind in $lost"
  for side in parent change; do
    echo "  $side peak_rss_mib      $(quartiles <"$tmp/$side.rss")"
  done
  for side in parent change; do
    echo "  $side setup_s           $(quartiles <"$tmp/$side.setup")"
  done
  verdicts=()
  declare -A bound_of claim_of
  for metric in ops_per_s:ops ops_per_s_median:med peak_rss_mib:rss setup_s:setup; do
    v=$(bound_verdict "${metric%%:*}" "${metric#*:}")
    bound_of[$metric]=${v:-ok}
    if [ -n "$v" ]; then
      verdicts+=("$v")
    fi
  done
  if [ "${#verdicts[@]}" -eq 0 ]; then
    bounds_line="bounds: ok"
    bounds_ok=yes
  else
    bounds_line=$(IFS=';' && echo "bounds:${verdicts[*]/#/ }")
    bounds_ok=no
  fi
  echo "$bounds_line"
  for metric in ops_per_s:ops ops_per_s_median:med peak_rss_mib:rss setup_s:setup; do
    claim_of[$metric]=$(claim_verdict "${metric%%:*}" "${metric#*:}")
    echo "${claim_of[$metric]}"
  done
  if [ -n "$json_out" ]; then
    json_workloads+=("$(json_workload)")
  fi
}

# json_workload: the workload pairs_of has just run, as a JSON object,
# from its runs in $tmp and the verdicts it printed.
json_workload() {
  local metric name claim sep=
  printf '    {\n      "workload": "%s",\n      "metrics": {' "$workload"
  for metric in ops_per_s:ops ops_per_s_median:med peak_rss_mib:rss setup_s:setup; do
    name=${metric%%:*} claim=${claim_of[$metric]}
    printf '%s\n        "%s": {"parent": %s, "change": %s, "won": %s, "pairs": %s, "bound": "%s", "claim": "%s"}' \
      "$sep" "$name" "$(json_quartiles <"$tmp/parent.${metric#*:}")" \
      "$(json_quartiles <"$tmp/change.${metric#*:}")" \
      "$(sed -E 's/.*won ([0-9]+)\/.*/\1/' <<<"$claim")" "$pairs" "${bound_of[$metric]}" \
      "$(sed -E 's/^claim [a-z_]+: (met|not met).*/\1/' <<<"$claim")"
    sep=,
  done
  printf '\n      },\n      "bounds": "%s",\n      "claims": [' "$bounds_line"
  sep=
  for metric in ops_per_s:ops ops_per_s_median:med peak_rss_mib:rss setup_s:setup; do
    printf '%s\n        "%s"' "$sep" "${claim_of[$metric]}"
    sep=,
  done
  printf '\n      ]\n    }'
}

# write_json <workloads line>: FILE of --json, from every workload's object.
write_json() {
  local sep=
  {
    printf '{\n  "host": {\n'
    printf '    "nproc": %s,\n' "$(nproc)"
    printf '    "rustc": "%s",\n' "$(rustc --version)"
    printf '    "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '    "parent_rev": "%s",\n' "${PARENT_REV:-$(git -C "$(dirname "$0")" rev-parse HEAD~1)}"
    printf '    "change_rev": "%s"\n  },\n' "${CHANGE_REV:-$(git -C "$(dirname "$0")" rev-parse HEAD)}"
    printf '  "seed0": %s,\n  "pairs": %s,\n  "seconds": %s,\n  "workloads": [' "$seed0" "$pairs" "$seconds"
    for w in "${json_workloads[@]}"; do
      printf '%s\n%s' "$sep" "$w"
      sep=,
    done
    printf '\n  ],\n  "workloads_line": %s\n}\n' "${1:-null}"
  } >"$json_out"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
not_ok=()
json_workloads=()
for ((w = 0; w < ${#workloads[@]}; w++)); do
  if ((w > 0)); then
    echo
  fi
  pairs_of "${workloads[w]}"
  if [ "$bounds_ok" = no ]; then
    not_ok+=("${workloads[w]}")
  fi
done
workloads_line=
if [ "${#workloads[@]}" -gt 1 ]; then
  if [ "${#not_ok[@]}" -eq 0 ]; then
    workloads_line="workloads: bounds ok"
  else
    printf -v list '%s, ' "${not_ok[@]}"
    workloads_line="workloads: bounds not ok on ${list%, }"
  fi
  echo "$workloads_line"
fi
if [ -n "$json_out" ]; then
  # One workload prints no such line: null.
  write_json "${workloads_line:+\"$workloads_line\"}"
fi
