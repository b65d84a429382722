#!/usr/bin/env bash
# Stress mode: runs the timing-sensitive suites (ctest labels faults,
# serving and durability) repeatedly while every hardware thread is kept
# busy, so timing flakes show up before merge instead of after.
#
# Starts one CPU-bound busy loop per hardware thread (`nproc` of them, no
# more), runs
#   ctest -L 'faults|serving|durability' -j$(nproc) \
#         --repeat until-fail:<repeats> --output-on-failure
# in <build-dir>, kills the loops on exit and exits with ctest's status.
#
# Usage: bash scripts/ctest_under_load.sh <build-dir> <repeats>
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <repeats>"
  exit 2
fi
build_dir="$1"
repeats="$2"
threads="$(nproc)"

hogs=()
cleanup() {
  [ "${#hogs[@]}" -gt 0 ] && kill "${hogs[@]}" 2>/dev/null
}
trap cleanup EXIT

for _ in $(seq "$threads"); do
  bash -c 'while :; do :; done' &
  hogs+=("$!")
done

cd "$build_dir" || exit 2
ctest -L 'faults|serving|durability' -j"$threads" \
      --repeat until-fail:"$repeats" --output-on-failure
status=$?
exit "$status"
