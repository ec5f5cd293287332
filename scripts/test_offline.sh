#!/usr/bin/env bash
# Every test of the root workspace, with no registry: the workspace has no
# dependency outside itself, so this is cargo and nothing else. Arguments
# go to `cargo test` (`scripts/test_offline.sh -p sixdust-serve`).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo test --offline "$@"
