#!/usr/bin/env bash
# Build the benchmark from source and run one workload. From the root of a
# checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build's output goes to stderr; the last line on stdout is the result.
# The build stays inside the checkout (_build/, dune's shared cache off).
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
