#!/usr/bin/env bash
# Reproduces every paper artifact and ablation end-to-end:
# build, run the full test suite, then every benchmark binary.
#
#   scripts/reproduce.sh            # bench scale (default, minutes)
#   scripts/reproduce.sh --quick    # smoke scale (seconds)
#   scripts/reproduce.sh --paper-scale   # original inputs (hours)
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARGS=("$@")

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Optional: the Debug build enables the protocols' internal assertions.
if [[ "${LRCSIM_DEBUG_SWEEP:-0}" == "1" ]]; then
  cmake -B build-debug -G Ninja -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-debug
  ctest --test-dir build-debug
fi

# Every binary runs even when one fails (a micro-bench exits 1 on a missed
# bound); the script fails at the end if any did.
{
  status=0
  for b in build/bench/*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name="$(basename "$b")"
    echo "===== $name ====="
    if [[ "$name" == micro_* ]]; then
      "$b" || status=1   # positional arguments of their own, no scale flags
    else
      "$b" "${SCALE_ARGS[@]}" || status=1
    fi
    echo
  done
  exit $status
} 2>&1 | tee bench_output.txt

echo "Done. See test_output.txt and bench_output.txt; compare the tables"
echo "against EXPERIMENTS.md."
