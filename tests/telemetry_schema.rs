//! Golden-snapshot regression test: the `TELEMETRY_*.json` document format
//! is pinned byte-for-byte against a checked-in fixture.
//!
//! Downstream tooling (dashboards, diffing runs) parses these files; any
//! format change must be deliberate. If you intentionally evolve the
//! schema, bump `telemetry::SCHEMA_VERSION`, regenerate the fixture with
//! the `print-actual` hint in the failure message, and note the change in
//! `DESIGN.md`.

use siloz_repro::telemetry::{encode, Registry};

/// Builds the reference registry exercising every metric type, both
/// volatility flags, nesting, empty children, and histogram edge cases
/// (zero values, powers of two, large magnitudes).
fn golden_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("accesses").add(1_000_000);
    reg.counter_volatile("steals").add(3);
    reg.gauge("frames_remaining").add(-42);
    reg.gauge_volatile("workers").add(7);
    let h = reg.histo("latency_ns");
    for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
        h.observe(v);
    }
    reg.histo_volatile("wall_ns").observe(5_000);
    let ctrl = reg.child("ctrl");
    ctrl.counter("row_hits").add(900);
    ctrl.child("tlb").counter("hits").add(850);
    // The hypervisor's admission-control export: per-policy capacity
    // rejections plus point-in-time group-pool fragmentation.
    let admission = reg.child("admission");
    admission.counter("rejections_first_fit").add(5);
    admission.counter("rejections_best_fit").add(4);
    admission.counter("rejections_socket_affine").add(3);
    admission.gauge("groups_claimed").add(6);
    admission.gauge("fragmentation_pct").add(25);
    // The controller's mitigation-hook export (the shape every
    // `Mitigation::export_telemetry` fans into under `ctrl/mitigation`).
    let mitigation = ctrl.child("mitigation");
    mitigation.counter("acts_observed").add(240_000);
    mitigation.counter("acts_throttled").add(512);
    mitigation.counter("rows_blacklisted").add(2);
    mitigation.counter("throttle_ps_total").add(768_000_000);
    // The cluster engine's export shape: cluster-level counters (with
    // the sharded pending queue's occupancy and short-circuit tallies),
    // the scheduler's placement and index-maintenance tallies, and one
    // per-host rollup child carrying the O(touched) claim-release sizes.
    let cluster = reg.child("cluster");
    cluster.counter("migrations").add(57);
    cluster.counter("sync_proofs").add(4);
    cluster.counter("shard_retries_skipped").add(9);
    cluster.gauge("live_sandboxes").add(12);
    cluster.gauge("pending_shards").add(2);
    let scheduler = cluster.child("scheduler");
    scheduler.counter("placements").add(130);
    scheduler.counter("placement_rejects").add(2);
    scheduler.counter("affinity_hits").add(31);
    scheduler.counter("bucket_moves").add(640);
    let host0 = cluster.child("host0");
    host0.counter("events_processed").add(410);
    host0.counter("isolation_violations").add(0);
    host0.counter("claim_releases").add(12);
    host0.counter("claim_released_groups").add(84);
    host0.gauge("live_vms").add(3);
    // An empty child must render as empty maps, not be dropped.
    let _ = reg.child("empty");
    reg
}

#[test]
fn snapshot_json_matches_golden_fixture() {
    let actual = encode::snapshot_file("golden", &golden_registry().snapshot());
    let expected = include_str!("fixtures/telemetry_golden.json");
    assert_eq!(
        actual, expected,
        "TELEMETRY JSON schema drifted from tests/fixtures/telemetry_golden.json.\n\
         If intentional: bump telemetry::SCHEMA_VERSION, update the fixture to the\n\
         actual text below, and document the change.\n--- actual ---\n{actual}"
    );
}

#[test]
fn merged_golden_snapshot_doubles_every_metric() {
    // Merging a snapshot with itself must double counters, gauges, and
    // every histogram bucket — the additive algebra the determinism battery
    // depends on, checked against the same reference tree the fixture pins.
    let snap = golden_registry().snapshot();
    let mut doubled = snap.clone();
    doubled.merge(&snap);
    let other = golden_registry();
    other.counter("accesses").add(1_000_000);
    other.counter_volatile("steals").add(3);
    other.gauge("frames_remaining").add(-42);
    other.gauge_volatile("workers").add(7);
    let h = other.histo("latency_ns");
    for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
        h.observe(v);
    }
    other.histo_volatile("wall_ns").observe(5_000);
    let ctrl = other.child("ctrl");
    ctrl.counter("row_hits").add(900);
    ctrl.child("tlb").counter("hits").add(850);
    let admission = other.child("admission");
    admission.counter("rejections_first_fit").add(5);
    admission.counter("rejections_best_fit").add(4);
    admission.counter("rejections_socket_affine").add(3);
    admission.gauge("groups_claimed").add(6);
    admission.gauge("fragmentation_pct").add(25);
    let mitigation = ctrl.child("mitigation");
    mitigation.counter("acts_observed").add(240_000);
    mitigation.counter("acts_throttled").add(512);
    mitigation.counter("rows_blacklisted").add(2);
    mitigation.counter("throttle_ps_total").add(768_000_000);
    let cluster = other.child("cluster");
    cluster.counter("migrations").add(57);
    cluster.counter("sync_proofs").add(4);
    cluster.counter("shard_retries_skipped").add(9);
    cluster.gauge("live_sandboxes").add(12);
    cluster.gauge("pending_shards").add(2);
    let scheduler = cluster.child("scheduler");
    scheduler.counter("placements").add(130);
    scheduler.counter("placement_rejects").add(2);
    scheduler.counter("affinity_hits").add(31);
    scheduler.counter("bucket_moves").add(640);
    let host0 = cluster.child("host0");
    host0.counter("events_processed").add(410);
    host0.counter("isolation_violations").add(0);
    host0.counter("claim_releases").add(12);
    host0.counter("claim_released_groups").add(84);
    host0.gauge("live_vms").add(3);
    assert_eq!(doubled, other.snapshot());
}
