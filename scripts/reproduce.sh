#!/usr/bin/env bash
# Regenerates every table and figure of the paper into bench_results/.
#
# Usage: scripts/reproduce.sh [--quick]
#   --quick : scaled-down geometry (default is the full evaluation-server
#             configuration; all 16 binaries took 11.4 s together on a
#             2-core x86-64 Xeon, table3_containment the longest at 2.9 s).
set -euo pipefail
cd "$(dirname "$0")/.."
MODE="${1:-}"
OUT=bench_results
mkdir -p "$OUT"

BINARIES=(
  table1_transforms
  table2_config
  fig1_hierarchy
  fig2_layout
  table3_containment
  ept_protection
  fig4_exec_time
  fig5_throughput
  fig6_sensitivity_time
  fig7_sensitivity_tput
  guard_overhead
  softtrr_deadlines
  colocation
  rowpress_sweep
  fragmentation
  soak
)

echo "building release binaries..."
cargo build --release -p bench --bins

for bin in "${BINARIES[@]}"; do
  echo "== $bin =="
  # shellcheck disable=SC2086
  # The telemetry path line differs per checkout; the committed files omit it.
  ./target/release/"$bin" $MODE | sed '/^telemetry: wrote /d' | tee "$OUT/$bin.txt"
  echo
done

echo "All outputs written to $OUT/. Compare against EXPERIMENTS.md."
