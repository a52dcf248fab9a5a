#!/usr/bin/env bash
# End-to-end benchmark (README.md in this directory). Builds lrcbench from
# the checkout's sources into build-bench/, then runs workloads, each in its
# own process, one after another.
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#       every workload; rows "workload metric value unit n p25 p75",
#       results in build-bench/results.json
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last stdout line is its JSON result, the full
#       result (samples, provenance) goes to build-bench/W.json
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"

workload="" seed=1 seconds=30 trace=0 smoke=0
usage() {
  echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]" >&2
  exit 2
}
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace=$2; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: no simulator sources under $root/src" >&2
  exit 1
fi

# Build output goes to a log so stdout carries only results. Once
# configured, the build re-runs CMake itself when a CMakeLists.txt changes.
mkdir -p "$build"
if ! { { [ -f "$build/CMakeCache.txt" ] || cmake -S "$here" -B "$build"; } &&
       cmake --build "$build" -j "$(nproc)"; } > "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

# Provenance. The ceiling keeps git from searching directories above the
# checkout when the checkout is not a repository.
export GIT_CEILING_DIRECTORIES
GIT_CEILING_DIRECTORIES=$(dirname "$root")
commit=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
dirty=0
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2> /dev/null)" ]; then
  dirty=1
fi

args=(--seed "$seed" --seconds "$seconds" --trace "$trace" --out-dir "$build"
      --commit "$commit" --dirty "$dirty")
if [ "$smoke" = 1 ]; then args+=(--smoke); fi

if [ -n "$workload" ]; then
  exec "$build/lrcbench" --workload "$workload" "${args[@]}" --json "$build/$workload.json"
fi

status=0
files=()
for w in $("$build/lrcbench" --list); do
  "$build/lrcbench" --workload "$w" "${args[@]}" --json "$build/$w.json" || status=1
  grep -q '"correct": true' "$build/$w.json" || status=1
  files+=("$build/$w.json")
done
{ printf '{"workloads": [\n'; cat "${files[@]}" | paste -sd,; printf ']}\n'; } > "$build/results.json"
echo "results written to $build/results.json"
exit "$status"
