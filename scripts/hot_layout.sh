#!/usr/bin/env bash
# Prints where the linker put the benchmark's layout-sensitive symbols:
# bench's host-speed kernel (main.refKernel) and spice's per-solve hot
# functions. Each line gives the address, the size in bytes and the
# address mod 64 (the offset inside a 64-byte block), which is what
# moves a timing when a change shifts code. Compare the output of the
# parent's binary with the change's before believing a time change
# (see bench/README.md and ROADMAP item 5(a)).
#
#   bash scripts/hot_layout.sh [BINARY]
#
# BINARY defaults to bench-out/.bench/bench, the binary bench/run.sh
# builds. The script reads the binary with `go tool nm` and writes
# nothing.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/bench-out/.bench/bench}
[ -f "$bin" ] || { echo "hot_layout: no binary at $bin (run bench/run.sh first)" >&2; exit 1; }

syms=(
  main.refKernel
  'repro/internal/spice.(*Circuit).newton'
  'repro/internal/spice.(*Circuit).solveDC'
  'repro/internal/spice.(*Circuit).solveDCFrom'
  'repro/internal/spice.(*Circuit).warmDC'
  'repro/internal/spice.(*MOSFET).mosEval'
  'repro/internal/spice.softplusSq'
  'repro/internal/spice.(*Circuit).solverState'
  'repro/internal/spice.(*Circuit).dcTel'
  'repro/internal/spice.(*Circuit).startSolveClock'
  'repro/internal/spice.(*Capacitor).Stamp'
  'repro/internal/spice.(*Circuit).SolveTran'
)

declare -A addr size
while read -r a s kind name; do
  [ "$kind" = T ] || continue
  addr[$name]=$a
  size[$name]=$s
done < <(go tool nm -size "$bin")

printf '%-12s %6s %6s  %s\n' address size mod64 symbol
for s in "${syms[@]}"; do
  if [ -z "${addr[$s]:-}" ]; then
    printf '%-12s %6s %6s  %s\n' - - - "$s"
    continue
  fi
  printf '%-12s %6d %6d  %s\n' "0x${addr[$s]}" "${size[$s]}" $((16#${addr[$s]} % 64)) "$s"
done
