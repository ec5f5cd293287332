#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/*.rs, the lines before
# the file's first `#[cfg(test)]` (the whole file when it has none), summed
# per crate, then the workspace total. A size claim in CHANGES.md quotes
# this script's output at the parent commit and at the change.
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh <dir>      # another checkout (e.g. a clone of the parent)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  lines=$(awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }' \
    "$crate"src/*.rs)
  printf '%-22s %6d\n' "${crate%/}" "$lines"
  total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"
