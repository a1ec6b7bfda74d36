//! The compiled replay pipeline is an optimization, not a semantic fork:
//! every measurement taken through `run_workload_compiled` (ledger →
//! bind → `run_compiled`) must be **bit-identical** to the uncompiled
//! reference (`run_workload`: generate → translate → `run_trace`) — same
//! sample, same controller statistics, same deterministic telemetry —
//! across workloads, hypervisor kinds, configurations, seeds, repeats,
//! thread counts, and non-power-of-two VM backings. These tests are the
//! CI pin for that contract; `scripts/check.sh` runs them as a dedicated
//! gate.

use mitigation::Backend;
use siloz::{HypervisorKind, SilozConfig};
use sim::{
    arena, figure4, figure4_uncompiled, figure5, figure5_uncompiled, figure6, run_workload,
    run_workload_compiled, run_workload_compiled_observed, Run, SimConfig, TraceCache,
};
use telemetry::Registry;
use workloads::{exec_time_workload, throughput_workload, EXEC_TIME_SUITE_LEN};

/// A deliberately small grid so the full cross-product stays fast.
fn small_sim() -> SimConfig {
    SimConfig {
        ops: 2_000,
        repeats: 2,
        vm_memory: 64 << 20,
        vcpus: 2,
        working_set: 8 << 20,
    }
}

/// Bitwise equality for measured samples — `==` would paper over NaN and
/// signed-zero drift.
fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
}

#[test]
fn compiled_matches_uncompiled_across_workloads_kinds_and_seeds() {
    let config = SilozConfig::mini();
    let sim = small_sim();
    let cache = TraceCache::new();
    // YCSB A, terasort, SPEC-like, PARSEC-like from the Fig. 4 roster,
    // plus memcached and OLTP from the Fig. 5 roster.
    let exec_indices = [0usize, 6, 7, 8];
    let tput_indices = [0usize, 1];
    for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
        for seed in [1u64, 42, 0xdead_beef] {
            for &i in &exec_indices {
                let mut direct = exec_time_workload(i, sim.working_set);
                let mut compiled = exec_time_workload(i, sim.working_set);
                let a = run_workload(&config, kind, direct.as_mut(), &sim, seed, &Registry::new())
                    .unwrap();
                let b = run_workload_compiled(&config, kind, compiled.as_mut(), &sim, seed, &cache)
                    .unwrap();
                assert_bits_eq(
                    a,
                    b,
                    &format!("exec workload {i} kind {kind:?} seed {seed}"),
                );
            }
            for &i in &tput_indices {
                let mut direct = throughput_workload(i, sim.working_set);
                let mut compiled = throughput_workload(i, sim.working_set);
                let a = run_workload(&config, kind, direct.as_mut(), &sim, seed, &Registry::new())
                    .unwrap();
                let b = run_workload_compiled(&config, kind, compiled.as_mut(), &sim, seed, &cache)
                    .unwrap();
                assert_bits_eq(
                    a,
                    b,
                    &format!("tput workload {i} kind {kind:?} seed {seed}"),
                );
            }
        }
    }
}

#[test]
fn compiled_matches_uncompiled_across_configurations() {
    // The same draw measured under different subarray-group sizes — the
    // sensitivity sweep's axis — must agree arm by arm.
    let sim = small_sim();
    let cache = TraceCache::new();
    // Mini geometry nominal is 256 presumed rows; halve and double it, the
    // same axis figures 6/7 sweep.
    for rows in [128u32, 256, 512] {
        let config = SilozConfig::mini().with_presumed_subarray_rows(rows);
        let mut direct = exec_time_workload(1, sim.working_set);
        let mut compiled = exec_time_workload(1, sim.working_set);
        let a = run_workload(
            &config,
            HypervisorKind::Siloz,
            direct.as_mut(),
            &sim,
            7,
            &Registry::new(),
        )
        .unwrap();
        let b = run_workload_compiled(
            &config,
            HypervisorKind::Siloz,
            compiled.as_mut(),
            &sim,
            7,
            &cache,
        )
        .unwrap();
        assert_bits_eq(a, b, &format!("presumed_subarray_rows {rows}"));
    }
}

#[test]
fn compiled_replay_handles_non_pow2_backing() {
    // 192 MiB is not a power of two, so the VM's backing blocks span an
    // irregular HPA layout — the bind pass must still resolve every guest
    // offset exactly as the uncompiled translator does.
    let config = SilozConfig::mini();
    let mut sim = small_sim();
    sim.vm_memory = 192 << 20;
    let cache = TraceCache::new();
    for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
        for i in [0usize, EXEC_TIME_SUITE_LEN - 1] {
            let mut direct = exec_time_workload(i, sim.working_set);
            let mut compiled = exec_time_workload(i, sim.working_set);
            let a =
                run_workload(&config, kind, direct.as_mut(), &sim, 3, &Registry::new()).unwrap();
            let b =
                run_workload_compiled(&config, kind, compiled.as_mut(), &sim, 3, &cache).unwrap();
            assert_bits_eq(
                a,
                b,
                &format!("non-pow2 backing, workload {i} kind {kind:?}"),
            );
        }
    }
}

#[test]
fn direct_and_compiled_cells_export_identical_deterministic_telemetry() {
    // The compiled cell replays against a scratch device with physics off,
    // but what it *exports* — controller totals, hypervisor state, DRAM
    // stats — must be indistinguishable from the uncompiled cell's.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let cache = TraceCache::new();
    for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
        let mut direct = exec_time_workload(2, sim.working_set);
        let mut compiled = exec_time_workload(2, sim.working_set);
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        let a = run_workload(&config, kind, direct.as_mut(), &sim, 11, &reg_a).unwrap();
        let b = run_workload_compiled_observed(
            &config,
            kind,
            compiled.as_mut(),
            &sim,
            11,
            &cache,
            &reg_b,
        )
        .unwrap();
        assert_bits_eq(a, b, &format!("observed sample, kind {kind:?}"));
        assert_eq!(
            reg_a.snapshot().deterministic().to_json(),
            reg_b.snapshot().deterministic().to_json(),
            "deterministic telemetry diverged for kind {kind:?}"
        );
    }
}

#[test]
fn thread_counts_do_not_change_figure_output() {
    // The engine deals cells to workers by index; 1, 2, and 7 workers must
    // emit the same figure, and the compiled figure must equal the
    // uncompiled one at every worker count.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let reference = figure4_uncompiled(&config, &sim, &Run::with_threads(1)).unwrap();
    for threads in [1usize, 2, 7] {
        let compiled = figure4(&config, &sim, &Run::with_threads(threads)).unwrap();
        assert_eq!(reference, compiled, "figure4 diverged at {threads} workers");
        let uncompiled = figure4_uncompiled(&config, &sim, &Run::with_threads(threads)).unwrap();
        assert_eq!(
            reference, uncompiled,
            "uncompiled figure4 diverged at {threads} workers"
        );
    }
}

#[test]
fn warm_cache_regeneration_is_bit_identical() {
    // A persistent TraceCache turns regeneration into replay-outcome
    // lookups; the emitted figure must not depend on the cache's state.
    // Fig. 6 and the arena go through the caller's cache like Fig. 4 does.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let backends = [Backend::None, Backend::BlockHammer];
    let regenerate = |run: &Run| {
        (
            figure4(&config, &sim, run).unwrap(),
            figure6(&config, &sim, run).unwrap(),
            arena(&config, &sim, &backends, run).unwrap(),
        )
    };
    let kept = Run::with_threads(1);
    let cold = regenerate(&kept);
    let warm = regenerate(&kept);
    assert_eq!(cold, warm, "warm regeneration diverged from the cold run");
    let fresh = regenerate(&Run::with_threads(1));
    assert_eq!(cold, fresh, "cache reuse changed the figure");
}

#[test]
fn figure5_compiled_matches_uncompiled() {
    let config = SilozConfig::mini();
    let sim = small_sim();
    let compiled = figure5(&config, &sim, &Run::with_threads(2)).unwrap();
    let uncompiled = figure5_uncompiled(&config, &sim, &Run::with_threads(2)).unwrap();
    assert_eq!(compiled, uncompiled, "figure5 compiled path diverged");
}
