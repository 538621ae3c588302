#!/bin/sh
# BENCHMARK.json's command: build perf.exe from this checkout, then run
# one workload and print its result as the last line of stdout:
#   sh bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
# The build stays inside the checkout: no dune cache, and the
# compiler's temporary files go under _build.
set -eu
if command -v dune >/dev/null 2>&1; then dune=dune; else dune="opam exec -- dune"; fi
TMPDIR="$PWD/_build/tmp"
export TMPDIR
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled $dune build --root . ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
