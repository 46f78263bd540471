#!/bin/sh
# Builds wfq_benchmark from source (release profile, its own build
# directory) and runs it; the arguments go to `wfq_benchmark run`:
#
#   sh benchmark/run.sh --workload pairs --seed 1 --seconds 12 --trace 0
#
# Run from anywhere; it works from the root of the checkout it lives in.
set -eu
cd "$(dirname "$0")/.."
[ -f dune-project ] || { echo "run.sh: no dune-project at $(pwd)" >&2; exit 2; }
if command -v dune >/dev/null 2>&1; then DUNE=dune; else DUNE="opam exec -- dune"; fi
# The shared dune cache lives outside the checkout: keep the build inside.
DUNE_CACHE=disabled $DUNE build --root . --build-dir .bench_build --profile release \
  ./benchmark/bin/wfq_benchmark.exe 1>&2
exec ./.bench_build/default/benchmark/bin/wfq_benchmark.exe run "$@"
