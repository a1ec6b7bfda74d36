//! The arena's zero-regression gate: Siloz *behind the `Mitigation`
//! trait* must be bit-identical to the direct pre-trait path — every
//! sample, summary statistic, and deterministic telemetry export — for
//! any worker count, cache state, and subarray-size configuration.
//!
//! The siloz arena row and [`sim::figure4`] run the same (Baseline vs
//! Siloz) comparison; the only difference is that the arena routes the
//! candidate arm through [`mitigation::Backend::Siloz`]. Because that
//! backend installs no controller hook, the cells must come out
//! byte-for-byte equal. These tests are wired into `scripts/check.sh`
//! as a hard gate.

use mitigation::Backend;
use siloz::SilozConfig;
use sim::{figure4, figure4_uncompiled, Run, SimConfig};

fn small_sim() -> SimConfig {
    SimConfig {
        ops: 6_000,
        repeats: 2,
        vm_memory: 128 << 20,
        vcpus: 2,
        working_set: 8 << 20,
    }
}

/// The worker counts the equivalence battery sweeps — serial reference,
/// even split, and a prime count that leaves a ragged remainder (the
/// values `SILOZ_THREADS` is pinned to in CI).
const THREADS: [usize; 3] = [1, 2, 7];

#[test]
fn siloz_behind_the_trait_is_bitwise_the_direct_path_across_threads() {
    let config = SilozConfig::mini();
    let sim = small_sim();
    let mut grids = Vec::new();
    for threads in THREADS {
        let arena = sim::arena(
            &config,
            &sim,
            &[Backend::Siloz],
            &Run::with_threads(threads),
        )
        .unwrap();
        let direct = figure4(&config, &sim, &Run::with_threads(threads)).unwrap();
        assert_eq!(
            arena[0].rows, direct,
            "siloz arena row diverged from figure4 at {threads} threads"
        );
        grids.push(arena);
    }
    // And the whole sweep is thread-count invariant.
    assert_eq!(grids[0], grids[1]);
    assert_eq!(grids[1], grids[2]);
}

#[test]
fn siloz_behind_the_trait_matches_the_uncompiled_oracle() {
    // Chains the pins: arena (compiled replay, trait-routed) ==
    // figure4 (compiled, direct) == figure4_uncompiled (the slow
    // oracle), so the trait port cannot hide behind the trace compiler.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let arena = sim::arena(&config, &sim, &[Backend::Siloz], &Run::with_threads(2)).unwrap();
    let oracle = figure4_uncompiled(&config, &sim, &Run::with_threads(2)).unwrap();
    assert_eq!(arena[0].rows, oracle);
}

#[test]
fn equivalence_holds_across_subarray_config_variants() {
    // The trait port must be invisible for every presumed-subarray-size
    // configuration the sensitivity figures sweep, not just the nominal.
    let sim = small_sim();
    for rows in [128u32, 256, 512] {
        let config = SilozConfig::mini().with_presumed_subarray_rows(rows);
        let arena = sim::arena(&config, &sim, &[Backend::Siloz], &Run::with_threads(2)).unwrap();
        let direct = figure4(&config, &sim, &Run::with_threads(2)).unwrap();
        assert_eq!(
            arena[0].rows, direct,
            "divergence at presumed_subarray_rows={rows}"
        );
    }
}

#[test]
fn arena_telemetry_matches_the_direct_path_deterministically() {
    // The telemetry contract: the siloz grid's registry child exports
    // the same deterministic snapshot as the direct figure4 run, and
    // re-running reproduces it byte for byte.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let arena_run = Run::with_threads(2);
    sim::arena(&config, &sim, &[Backend::Siloz], &arena_run).unwrap();
    let direct_run = Run::with_threads(2);
    figure4(&config, &sim, &direct_run).unwrap();
    let arena_json = arena_run
        .reg
        .child("siloz")
        .snapshot()
        .deterministic()
        .to_json();
    let direct_json = direct_run.reg.snapshot().deterministic().to_json();
    assert_eq!(
        arena_json, direct_json,
        "trait-routed telemetry diverged from the direct path"
    );

    let again = Run::with_threads(2);
    sim::arena(&config, &sim, &[Backend::Siloz], &again).unwrap();
    assert_eq!(
        arena_json,
        again
            .reg
            .child("siloz")
            .snapshot()
            .deterministic()
            .to_json(),
        "arena telemetry is not reproducible"
    );
}

#[test]
fn none_backend_rides_the_reference_arm_bitwise() {
    // Every backend's reference arm is the same undefended baseline
    // drawn from the same seeds through one shared cache — so reference
    // summaries must be bitwise equal across grids, and the `none`
    // row's overhead must be pure measurement noise (its hook slot is
    // empty; the candidate arm re-uses the reference replay outcome).
    let config = SilozConfig::mini();
    let sim = small_sim();
    let grids = sim::arena(
        &config,
        &sim,
        &[Backend::None, Backend::Siloz, Backend::BlockHammer],
        &Run::with_threads(2),
    )
    .unwrap();
    let (none, siloz, blockhammer) = (&grids[0], &grids[1], &grids[2]);
    for (i, row) in none.rows.iter().enumerate() {
        assert_eq!(
            row.reference, siloz.rows[i].reference,
            "{}: reference arm differs between none and siloz grids",
            row.workload
        );
        assert_eq!(
            row.reference, blockhammer.rows[i].reference,
            "{}: reference arm differs between none and blockhammer grids",
            row.workload
        );
        // 0.3% relative noise per sample, z bounded by ±6: a paired
        // overhead can never legitimately reach ±5%.
        assert!(
            row.overhead_pct().abs() < 5.0,
            "{}: none-backend overhead {:.3}% is not noise",
            row.workload,
            row.overhead_pct()
        );
    }
}
