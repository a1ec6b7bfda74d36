#!/usr/bin/env bash
# Regenerates every table and figure of the paper: one `paper <artifact>`
# run per committed bench_results/<artifact>.txt (~4 s for all 16 at full
# scale on a 2-core x86-64 Xeon, Figs 5 and 7 the longest at under 1 s).
#
# Usage: scripts/reproduce.sh [--quick]
#   Full scale rewrites bench_results/, so `git diff` shows any drift.
#   --quick writes outputs and telemetry to a fresh temporary directory
#   (its path is printed), never over the full-scale pins.
set -euo pipefail
cd "$(dirname "$0")/.."
MODE="${1:-}"
case "$MODE" in
  "") OUT=bench_results ;;
  --quick)
    OUT="$(mktemp -d)"
    export SILOZ_TELEMETRY_DIR="${SILOZ_TELEMETRY_DIR:-$OUT}"
    ;;
  *)
    echo "usage: scripts/reproduce.sh [--quick]" >&2
    exit 2
    ;;
esac

cargo build --release -q -p bench --bin paper
for pin in bench_results/*.txt; do
  name="$(basename "$pin" .txt)"
  echo "== $name =="
  # The telemetry path line differs per checkout; the committed files omit it.
  # shellcheck disable=SC2086
  ./target/release/paper "$name" $MODE | sed '/^telemetry: wrote /d' | tee "$OUT/$name.txt"
  echo
done

echo "All outputs written to $OUT/. Compare against EXPERIMENTS.md."
