#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload paper|ext|oracle --seed N --seconds S --trace 0|1
#
# Run from the repository root or anywhere inside it.  The last line of
# standard output is the JSON result; build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
