#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the full test suite.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one gate and prints its wall time, so cost regressions in any gate
# are visible in every log (the source gate additionally enforces its own
# 15 s budget in-process and fails when it blows it).
step() {
  local label="$1"
  shift
  echo "== ${label} =="
  local t0
  t0=$(date +%s)
  "$@"
  echo "-- ${label}: $(($(date +%s) - t0))s"
}

step "cargo fmt --check" cargo fmt --all --check

step "cargo clippy (warnings are errors)" \
  cargo clippy --workspace --all-targets -- -D warnings

step "cargo test" cargo test --workspace -q

# benchmark/ is its own workspace with path deps on crates/*: without this
# step an API change that breaks the pipeline's harness passes every gate.
step "benchmark harness (own workspace) builds and passes against crates/*" \
  cargo test --offline -q --manifest-path benchmark/Cargo.toml

step "analysis gate: siloz-lint (token rules + seed-provenance + address-domain)" \
  cargo run --release -q -p analysis --bin siloz-lint

step "analysis gate: isolation-verify (bijectivity + containment proofs)" \
  cargo run --release -q -p analysis --bin isolation-verify

step "analysis gate: interleave-check (exhaustive schedule exploration)" \
  cargo run --release -q -p analysis --bin interleave-check

# The quick soaks' reports hold simulated quantities only, so each run must
# reproduce its committed copy byte for byte. They write into a scratch
# SILOZ_TELEMETRY_DIR (their TELEMETRY_*.json lands there too).
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
pinned() {
  local report="$1"
  shift
  SILOZ_TELEMETRY_DIR="$artifacts" "$@"
  cmp "$report" "$artifacts/$report"
}

step "fleet gate: quick multi-tenant soak (churn + attacks + determinism), pinned to FLEET_soak_quick.json" \
  pinned FLEET_soak_quick.json cargo run --release -q -p bench --bin fleet_soak -- --quick

# ~1 min: three strategies on two-socket evaluation hosts with GiB-sized
# guests and multi-node expansions (636 per strategy) — the only committed
# report that drives create/expand/migrate at that shape.
step "fleet gate: full multi-tenant soak on evaluation hosts, pinned to FLEET_soak.json" \
  pinned FLEET_soak.json cargo run --release -q -p bench --bin fleet_soak

step "mitigation gate: quick head-to-head arena (duels + soak + perf), pinned to ARENA_quick.json" \
  pinned ARENA_quick.json cargo run --release -q -p bench --bin arena -- --quick

step "cluster gate: quick multi-host soak (scheduler + migration + determinism), pinned to CLUSTER_soak_quick.json" \
  pinned CLUSTER_soak_quick.json cargo run --release -q -p bench --bin cluster_soak -- --quick

# ~50 s on 2 cores, <= 1.8 GiB: 4096 hosts, 1.67 M events, three policies. The
# strongest byte-pin a lifecycle change can be held to.
step "cluster gate: 4096-host scale soak, pinned to CLUSTER_soak_scale.json" \
  pinned CLUSTER_soak_scale.json cargo run --release -q -p bench --bin cluster_soak -- --scale 4096

# Every workspace member except the vendored stand-ins, so a new crate is
# documented-or-failing without being named here.
doc_gate() {
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace \
    --exclude rand --exclude proptest --exclude parking_lot
}
step "cargo doc (warnings are errors, first-party crates)" doc_gate

echo "== miri (optional): telemetry under the interpreter =="
if cargo miri --version >/dev/null 2>&1; then
  cargo miri test -p telemetry -q
else
  echo "cargo miri unavailable — skipping (informational gate only)"
fi

echo "all checks passed"
