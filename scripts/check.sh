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

# What each benchmark workload simulates, pinned: the release harness runs
# all five at seed 11 for 0.1 s (~5 s in all) and prints the first pass's
# event count and digest. A perf change must leave every line as it is; a
# change that moves one on purpose regenerates scripts/bench_digests.txt.
bench_digests() {
  CARGO_TARGET_DIR=target cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
  local w
  for w in cluster_churn fleet_soak figure_cold figure_warm defended_fleet; do
    target/release/siloz-benchmark --out "$artifacts/benchmark" --commit check \
      --workload "$w" --seed 11 --seconds 0.1 --trace 0 |
      sed -n "s/^sim_events count \(.*\)/$w \1/p; s/^sim_digest fnv1a //p" | paste -sd ' '
  done >"$artifacts/bench_digests.txt"
  grep -v '^#' scripts/bench_digests.txt | diff - "$artifacts/bench_digests.txt"
}
step "benchmark gate: sim_events/sim_digest of all five workloads, pinned to scripts/bench_digests.txt" \
  bench_digests

# `cargo test` builds the three root examples but never runs them.
# Well under a second together in a release build.
run_examples() {
  local ex
  for ex in quickstart cloud_provisioning ept_protection; do
    SILOZ_TELEMETRY_DIR="$artifacts" cargo run --release -q --example "$ex" >/dev/null
  done
}
step "examples: the three root examples run to completion" run_examples

step "fleet gate: quick multi-tenant soak (churn + attacks + determinism), pinned to FLEET_soak_quick.json" \
  pinned FLEET_soak_quick.json cargo run --release -q -p bench --bin fleet_soak -- --quick

# ~8-10 s on 2 cores: three strategies on two-socket evaluation hosts with GiB-sized
# guests and multi-node expansions (636 per strategy) — the only committed
# report that drives create/expand/migrate at that shape.
step "fleet gate: full multi-tenant soak on evaluation hosts, pinned to FLEET_soak.json" \
  pinned FLEET_soak.json cargo run --release -q -p bench --bin fleet_soak

# Every paper artifact at full scale (Tables 1-3, Figs 1-2 and 4-7, §3,
# §7.1's EPT guard rows and soak, §8.1, §8.3, §8.4, §2.5; ~15 s together on
# 2 cores, Table 3's 40 campaigns the longest at ~11 s) must reproduce its
# committed bench_results/ file byte for byte, less the run-specific
# "telemetry: wrote <path>" line. Table 3 and the RowPress sweep also exit
# non-zero when a verdict they assert is red. A `paper` unit test keeps
# that directory and the binary's artifact table the same set.
paper_pins() {
  local pin name
  for pin in bench_results/*.txt; do
    name="$(basename "$pin" .txt)"
    SILOZ_TELEMETRY_DIR="$artifacts" cargo run --release -q -p bench --bin paper -- "$name" |
      sed '/^telemetry: wrote /d' >"$artifacts/$name.txt"
    cmp "$pin" "$artifacts/$name.txt"
  done
}
step "paper gate: every full-scale paper artifact, pinned to bench_results/" paper_pins

step "mitigation gate: quick head-to-head arena (duels + soak + perf), pinned to ARENA_quick.json" \
  pinned ARENA_quick.json cargo run --release -q -p bench --bin arena -- --quick

step "cluster gate: quick multi-host soak (scheduler + migration + determinism), pinned to CLUSTER_soak_quick.json" \
  pinned CLUSTER_soak_quick.json cargo run --release -q -p bench --bin cluster_soak -- --quick

# ~17-21 s on 2 cores, VmHWM ~1.3 GiB: 4096 hosts, 1.67 M events, three
# policies. The strongest byte-pin a lifecycle change can be held to, and a
# memory gate: the step fails when the soak's own VmHWM exceeds 1.8 GiB.
scale_rss_limit_mib=1843
scale_soak() {
  local out peak
  out="$(cargo run --release -q -p bench --bin cluster_soak -- --scale 4096)"
  echo "$out"
  peak="$(sed -n 's/^peak_rss_mib: //p' <<<"$out")"
  if [[ -z "$peak" ]] || ((peak > scale_rss_limit_mib)); then
    echo "scale soak peak RSS ${peak:-unreported} MiB exceeds ${scale_rss_limit_mib} MiB" >&2
    return 1
  fi
}
step "cluster gate: 4096-host scale soak, pinned to CLUSTER_soak_scale.json, VmHWM <= 1.8 GiB" \
  pinned CLUSTER_soak_scale.json scale_soak

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
