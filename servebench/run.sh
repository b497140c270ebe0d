#!/usr/bin/env bash
# Builds the serving benchmark in Release (gridmap library, plan_server and
# the benchmark program, in .bench_build/servebench, never the developer's build/) and
# runs one workload. Build output goes to stderr; the last stdout line is the
# run's JSON result.
#
#   bash servebench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/servebench"
mkdir -p "$build"
{
  if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    generator=()
    command -v ninja >/dev/null && generator=(-G Ninja)
    cmake -S "$root/servebench" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2
exec "$build/servebench" --bin-dir "$build" "$@"
