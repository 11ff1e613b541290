#!/usr/bin/env bash
# Byte-compare this checkout's outputs with a git revision's.
#
#   tools/cmp_outputs.sh REV
#
# Exports REV (git archive) into a temporary directory and builds it, builds
# the working tree next to it, then runs six outputs with both builds and
# `cmp`s their stdout:
#
#   campaign --json                              (the default grid)
#   campaign --sys all --modes diag,perf --workers 1 --json
#   ... the same with --strategy random
#   campaign --sys all --fabric hetero,fanin4 --cc dcqcn,mistuned
#            --modes diag,perf --workers 1 --hours 1 --json
#   bench_fig4 --seeds 3
#   bench_fig5 --seeds 3
#
# Exits 0 when all six are byte-identical, 1 when any differs (its first
# differing byte is printed), 2 on a usage or build error.  Set TMPDIR to
# choose where the builds go, JOBS for the build parallelism (default 2) and
# KEEP=1 to keep the temporary directory.
set -euo pipefail

if [[ $# -ne 1 || "$1" == -* ]]; then
  echo "usage: tools/cmp_outputs.sh REV" >&2
  exit 2
fi
rev="$1"
root="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
jobs="${JOBS:-2}"
targets=(campaign bench_fig4 bench_fig5)

work="$(mktemp -d "${TMPDIR:-/tmp}/cmp_outputs.XXXXXX")"
cleanup() {
  if [[ "${KEEP:-0}" != 1 ]]; then rm -rf "$work"; fi
}
trap cleanup EXIT

build() {  # build SRC DIR
  local generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  if ! { cmake -S "$1" -B "$2" "${generator[@]}" &&
         cmake --build "$2" -j "$jobs" --target "${targets[@]}"; } \
       >"$2.log" 2>&1; then
    echo "cmp_outputs: build of $1 failed (log: $2.log)" >&2
    KEEP=1
    exit 2
  fi
}

mkdir -p "$work/base"
if ! git -C "$root" archive "$rev" | tar -x -C "$work/base"; then
  echo "cmp_outputs: cannot export revision '$rev'" >&2
  exit 2
fi
build "$work/base" "$work/base-build"
build "$root" "$work/head-build"

runs=(
  "campaign --json"
  "campaign --sys all --modes diag,perf --workers 1 --json"
  "campaign --sys all --modes diag,perf --workers 1 --strategy random --json"
  "campaign --sys all --fabric hetero,fanin4 --cc dcqcn,mistuned --modes diag,perf --workers 1 --hours 1 --json"
  "bench_fig4 --seeds 3"
  "bench_fig5 --seeds 3"
)
status=0
for i in "${!runs[@]}"; do
  read -r -a cmd <<<"${runs[$i]}"
  for side in base head; do
    "$work/$side-build/${cmd[0]}" "${cmd[@]:1}" >"$work/$side.$i.out" \
      2>/dev/null
  done
  if cmp "$work/base.$i.out" "$work/head.$i.out"; then
    echo "same     ${runs[$i]}"
  else
    echo "DIFFERS  ${runs[$i]}"
    status=1
  fi
done
exit "$status"
