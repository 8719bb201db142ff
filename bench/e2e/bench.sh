#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then take one measurement.
#
#   bash bench/e2e/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build products and the benchmark's scratch
# caches and journals go to $CARGO_TARGET_DIR (default _build); the last
# line of stdout is the JSON result.
set -euo pipefail
build="${CARGO_TARGET_DIR:-_build}"
dune build --root . --build-dir "$build" --cache=disabled --display=quiet ./bench/e2e/e2e.exe >&2
exec "$build/default/bench/e2e/e2e.exe" bench --scratch "$build/e2e-scratch" "$@"
