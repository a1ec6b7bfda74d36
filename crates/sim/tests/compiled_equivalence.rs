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
    // stats — must be indistinguishable from the uncompiled cell's. A
    // sink-less cell warms the cache first, so both observed cells below
    // are warm hits: a sink must get the full export even when nothing is
    // re-simulated.
    let config = SilozConfig::mini();
    let sim = small_sim();
    let cache = TraceCache::new();
    for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
        let reg_direct = Registry::new();
        let mut direct = exec_time_workload(2, sim.working_set);
        let a = run_workload(&config, kind, direct.as_mut(), &sim, 11, &reg_direct).unwrap();
        let expected = reg_direct.snapshot().deterministic().to_json();
        let mut warming = exec_time_workload(2, sim.working_set);
        let sinkless =
            run_workload_compiled(&config, kind, warming.as_mut(), &sim, 11, &cache).unwrap();
        assert_bits_eq(a, sinkless, &format!("sink-less sample, kind {kind:?}"));
        for pass in 0..2 {
            let reg = Registry::new();
            let mut compiled = exec_time_workload(2, sim.working_set);
            let b = run_workload_compiled_observed(
                &config,
                kind,
                compiled.as_mut(),
                &sim,
                11,
                &cache,
                &reg,
            )
            .unwrap();
            assert_bits_eq(a, b, &format!("observed sample {pass}, kind {kind:?}"));
            assert_eq!(
                expected,
                reg.snapshot().deterministic().to_json(),
                "deterministic telemetry diverged for kind {kind:?}, observed cell {pass}"
            );
        }
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

/// Measures one draw of `make()` under the baseline and then under Siloz,
/// directly and through `cache`, asserting each compiled sample and its
/// deterministic telemetry bit-identical to the direct cell's. Returns the
/// two direct samples and how many of the two compiled cells `cache`
/// served by a row translate.
fn paired_cells(
    config: &SilozConfig,
    sim: &SimConfig,
    make: &dyn Fn() -> Box<dyn workloads::WorkloadGen>,
    seed: u64,
    cache: &TraceCache,
) -> ([f64; 2], [usize; 2]) {
    let mut samples = [0.0; 2];
    let mut translated = [0; 2];
    for (arm, kind) in [HypervisorKind::Baseline, HypervisorKind::Siloz]
        .into_iter()
        .enumerate()
    {
        let (reg_direct, reg_compiled) = (Registry::new(), Registry::new());
        let direct = run_workload(config, kind, make().as_mut(), sim, seed, &reg_direct).unwrap();
        let before = cache.translated_replays();
        let compiled = run_workload_compiled_observed(
            config,
            kind,
            make().as_mut(),
            sim,
            seed,
            cache,
            &reg_compiled,
        )
        .unwrap();
        translated[arm] = cache.translated_replays() - before;
        let what = format!("{} under {kind:?}", make().name());
        assert_bits_eq(direct, compiled, &what);
        assert_eq!(
            reg_direct.snapshot().deterministic().to_json(),
            reg_compiled.snapshot().deterministic().to_json(),
            "telemetry of {what}"
        );
        samples[arm] = direct;
    }
    (samples, translated)
}

#[test]
fn fig4_siloz_cells_replay_as_row_translates_of_their_baseline_cells() {
    // On the evaluation host every Fig. 4 draw binds under Siloz to the
    // baseline's program with each row moved up one 1,024-row subarray
    // group, on the same banks with the same TLB counts: the Siloz cell is
    // served from the baseline's outcome, and the two arms' samples (same
    // seed, so same noise) are bitwise equal.
    let config = SilozConfig::evaluation();
    let sim = SimConfig {
        ops: 1_500,
        ..SimConfig::default()
    };
    let cache = TraceCache::new();
    for seed in [5, 11] {
        for i in 0..EXEC_TIME_SUITE_LEN {
            let make = || exec_time_workload(i, sim.working_set);
            let ([baseline, siloz], translated) = paired_cells(&config, &sim, &make, seed, &cache);
            let what = format!("workload {i}, seed {seed}");
            assert_eq!(translated, [0, 1], "{what}: only the Siloz cell");
            assert_bits_eq(baseline, siloz, &format!("{what}: raw ratio 1"));
        }
    }
    assert_eq!(cache.translated_replays(), 2 * EXEC_TIME_SUITE_LEN);
}

/// Guest ops drawn uniformly over the whole working set.
struct Scatter(u64);

impl workloads::WorkloadGen for Scatter {
    fn name(&self) -> String {
        "scatter".into()
    }

    fn working_set(&self) -> u64 {
        self.0
    }

    fn metric(&self) -> workloads::Metric {
        workloads::Metric::ExecTime
    }

    fn generate(&mut self, count: usize, rng: &mut rand::rngs::StdRng) -> Vec<workloads::GuestOp> {
        use rand::Rng;
        (0..count)
            .map(|_| workloads::GuestOp::read(rng.gen_range(0..self.0) & !63))
            .collect()
    }
}

#[test]
fn cells_that_are_not_row_translates_replay_on_their_own() {
    // Siloz backs the evaluation VM's first 1.5 GiB one subarray group up,
    // the next 0.5 GiB at 4 GiB (2.5 GiB up: not a whole stripe) and the
    // last 1 GiB at 3 GiB. A draw confined to the first 1.5 GiB is a row
    // translate of the baseline's; one that reaches past it replays on its
    // own. Both stay bit-identical to the direct path.
    let config = SilozConfig::evaluation();
    let sim = SimConfig {
        ops: 1_500,
        ..SimConfig::default()
    };
    let cache = TraceCache::new();
    for (working_set, expect) in [(3 << 30, [0, 0]), (2 << 30, [0, 0]), (3 << 29, [0, 1])] {
        let make = || Box::new(Scatter(working_set)) as Box<dyn workloads::WorkloadGen>;
        let (_, translated) = paired_cells(&config, &sim, &make, 5, &cache);
        assert_eq!(translated, expect, "a {working_set:#x}-byte draw");
    }
}

#[test]
fn a_non_pow2_backing_translates_through_the_compare_wrap() {
    // The mini Siloz VM of 192 MiB (not a power of two) is one run 128 MiB
    // up, 256 rows: its cells are served from the baseline's outcomes
    // through `HpaMap`'s compare-and-modulo wrap, bit-identically.
    let mut sim = small_sim();
    sim.vm_memory = 192 << 20;
    let cache = TraceCache::new();
    for i in [0usize, EXEC_TIME_SUITE_LEN - 1] {
        let make = || exec_time_workload(i, sim.working_set);
        let (_, translated) = paired_cells(&SilozConfig::mini(), &sim, &make, 3, &cache);
        assert_eq!(translated, [0, 1], "192 MiB backing, workload {i}");
    }
    let whole = || Box::new(Scatter(192 << 20)) as Box<dyn workloads::WorkloadGen>;
    let (_, translated) = paired_cells(&SilozConfig::mini(), &sim, &whole, 3, &cache);
    assert_eq!(translated, [0, 1], "a draw over the whole 192 MiB");
}

#[test]
fn hooked_cells_never_take_a_translated_outcome() {
    // BlockHammer runs on the baseline's placement, so its env backs the
    // VM exactly as the undefended reference does; only the hook differs,
    // and a hooked replay is its own.
    let run = Run::with_threads(1);
    arena(
        &SilozConfig::mini(),
        &small_sim(),
        &[Backend::BlockHammer],
        &run,
    )
    .unwrap();
    assert_eq!(run.cache.translated_replays(), 0);
}
