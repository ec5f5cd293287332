#!/usr/bin/env bash
# The perf trajectory: each workload's claimed metrics across every
# BENCH_PR<n>.json the repository keeps.
#
#   scripts/bench_history.sh [dir]     # dir defaults to the repository root
#
# Reads the files scripts/bench_pairs.sh --json writes, in order of <n>,
# and prints each workload's rows in that order: one per file and metric
# whose claim was met (parent and change median, the change in per cent,
# pairs won) and, for a file that measured the workload with no claim
# met, one row saying so, so that every measurement shows. Each row ends
# with that workload's `bounds:` line from the file.
set -euo pipefail

dir=${1:-$(dirname "$0")/..}
python3 - "$dir" <<'EOF'
import glob, json, os, re, sys

files = glob.glob(os.path.join(sys.argv[1], "BENCH_PR*.json"))
number = lambda path: int(re.search(r"BENCH_PR(\d+)\.json$", path).group(1))
rows = {}
for path in sorted((p for p in files if re.search(r"BENCH_PR\d+\.json$", p)), key=number):
    tag = f"PR{number(path)}"
    with open(path) as f:
        doc = json.load(f)
    for workload in doc["workloads"]:
        name, bounds = workload["workload"], workload["bounds"]
        out = rows.setdefault(name, [])
        met = [(m, v) for m, v in workload["metrics"].items() if v["claim"] == "met"]
        if not met:
            out.append(f"  {tag:<6} {'(no claim met)':<18} {'':>40}  {bounds}")
        for metric, v in met:
            p, c = v["parent"]["median"], v["change"]["median"]
            share = f"{100 * (c - p) / p:+.1f} %" if p else "n/a"
            out.append(
                f"  {tag:<6} {metric:<18} {p:>12.4g} -> {c:<12.4g} {share:>9}  "
                f"won {v['won']}/{v['pairs']}  {bounds}"
            )
if not rows:
    sys.exit(f"bench_history: no BENCH_PR*.json in {sys.argv[1]}")
for name, out in rows.items():
    print(name)
    print("\n".join(out))
EOF
