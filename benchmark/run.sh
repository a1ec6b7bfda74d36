#!/usr/bin/env bash
# The repo benchmark's one command: builds the harness in release mode and
# runs it. See README.md in this directory.
#
#   benchmark/run.sh                      every workload -> out/results.json
#   benchmark/run.sh --traced             ... each followed by its traced run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload (the benchmark driver's form)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -d "$root/crates" ]; then
  echo "run.sh: no crates/ beside benchmark/: the harness builds the simulator from source" >&2
  exit 1
fi

# Share the repo's target/ unless the caller picked a directory (relative
# ones are relative to where the caller stands, as cargo reads them).
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/siloz-benchmark" --out "$here/out" --commit "$commit" "$@"
