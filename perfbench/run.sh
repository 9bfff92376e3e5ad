#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Workloads: cold-project, wide-lookahead, rebuild-warm.  The build log
# goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
