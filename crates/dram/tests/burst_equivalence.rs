//! Burst-vs-reference equivalence battery.
//!
//! `DramSystem::activate_burst` is specified to be *bit-identical* to the
//! per-ACT reference path for any run-ordered activation sequence: same flip
//! log (including order), same `DramStats`, same active-flip rows, same
//! deterministic telemetry. These properties drive randomized schedules —
//! across TRR configurations, RowPress open times, row repairs, and
//! subarray-boundary aggressors — through both paths and compare every
//! observable.
//!
//! The last property does the same for *reused* handles: each target of a
//! fixed cast is resolved once (`resolve_aggressor`, at its first issue) and
//! then applied many times (`activate_resolved`) between time advances,
//! against the same per-ACT reference on a twin device. A fixed lockstep
//! pins all three paths at both ends of a bank under TRR.

use dram::{Aggressor, DramStats, DramSystem, DramSystemBuilder};
use dram_addr::{mini_geometry, BankId, InternalMapConfig, RepairMap};
use proptest::prelude::*;

/// One coalescible run: `count` back-to-back ACTs of `(bank, row)` holding
/// the row open `extra_open_ns` beyond nominal, followed by a time advance.
#[derive(Debug, Clone)]
struct Run {
    bank: u32,
    row: u32,
    count: u64,
    extra_open_ns: u64,
    advance_ns: u64,
}

fn run_strategy() -> impl Strategy<Value = Run> {
    (0u32..4, 0u32..3, 0u32..2048, 0u64..2002, 0u32..2, 0u32..3).prop_map(
        |(bank, row_kind, row_any, count, press, adv_kind)| Run {
            bank,
            // Bias rows toward a few subarray-boundary-adjacent hot spots so
            // runs actually re-hammer the same victims past their thresholds.
            row: match row_kind {
                0 => 250 + row_any % 12, // straddles the 256-row subarray edge
                1 => 20 + row_any % 10,
                _ => row_any,
            },
            // 0 and 1 are degenerate bursts; anything else is a real run.
            count,
            extra_open_ns: if press == 0 { 0 } else { 1_500 }, // RowPress on/off
            advance_ns: match adv_kind {
                0 => 0,
                1 => 94,
                _ => 50_000,
            },
        },
    )
}

fn build(trr: (usize, usize), repairs: bool) -> DramSystem {
    let mut map = RepairMap::new();
    if repairs {
        // Repair a hot-spot row to a spare in another subarray, and a row
        // whose spare sits right at a subarray edge.
        map.insert(BankId(0), 22, 600);
        map.insert(BankId(1), 255, 511);
    }
    DramSystemBuilder::new(mini_geometry())
        .trr(trr.0, trr.1)
        .repairs(map)
        .internal_map(InternalMapConfig::identity())
        .build()
}

/// Replays `runs` per-ACT on `reference` and coalesced on `burst`, then
/// asserts every observable is bit-identical.
fn assert_equivalent(runs: &[Run], trr: (usize, usize), repairs: bool) -> DramStats {
    let mut reference = build(trr, repairs);
    let mut burst = build(trr, repairs);
    for r in runs {
        let bank = BankId(r.bank);
        for _ in 0..r.count {
            reference.activate_row(bank, r.row, r.extra_open_ns);
        }
        reference.advance_ns(r.advance_ns);
        burst.activate_burst(bank, r.row, r.count, r.extra_open_ns);
        burst.advance_ns(r.advance_ns);
    }
    assert_same_observables(&reference, &burst);
    *reference.stats()
}

/// Asserts every observable of the two devices is bit-identical.
fn assert_same_observables(reference: &DramSystem, burst: &DramSystem) {
    assert_eq!(reference.stats(), burst.stats(), "DramStats diverged");
    assert_eq!(
        reference.flip_log().all(),
        burst.flip_log().all(),
        "flip logs diverged (order-sensitive)"
    );
    assert_eq!(
        reference.rows_with_active_flips(),
        burst.rows_with_active_flips(),
        "active flip rows diverged"
    );
    let snap = |d: &DramSystem| {
        let reg = telemetry::Registry::new();
        d.export_telemetry(&reg);
        reg.snapshot().deterministic().to_json()
    };
    assert_eq!(snap(reference), snap(burst), "telemetry diverged");
}

/// The `(bank, row, extra_open_ns)` targets a reused-handle schedule draws
/// from; each gets one handle, resolved at its first issue.
const CAST: [(u32, u32, u64); 12] = [
    // Rows two apart: each is a distance-2 victim of its neighbours, so an
    // aggressor's own half-row gains victim state *after* its handle was
    // resolved. (With `build`'s repairs, row 22 hammers at spare 600 and
    // the chain is 24-26-28.)
    (0, 20, 0),
    (0, 22, 0),
    (0, 24, 0),
    (0, 26, 0),
    (0, 28, 0),
    // Adjacent to 20 and 22, so their distance-1 victim is itself an
    // aggressor: a handle that skips its own-row refresh lets it flip.
    (0, 21, 0),
    // Row 20 again under RowPress: a second handle for one row, and victims
    // 19/21 fold weight segments as the two alternate.
    (0, 20, 1_500),
    // Both sides of a subarray edge (256-row subarrays).
    (0, 255, 0),
    (0, 256, 1_500),
    // Bank 1: with `build`'s repairs row 255 lives at spare 511, the last
    // row of the next subarray.
    (1, 255, 0),
    (1, 254, 0),
    (1, 300, 0),
];

/// One step of a reused-handle schedule: `count` ACTs through the handle of
/// `CAST[slot]`, then a time advance.
#[derive(Debug, Clone)]
struct Step {
    slot: usize,
    count: u64,
    advance_ns: u64,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..CAST.len(), 0u32..6, 0u64..40_000, 0u32..3).prop_map(
        |(slot, count_kind, count_any, adv_kind)| Step {
            slot,
            count: match count_kind {
                0 => 0,
                1 => 1,
                // Sieges long enough to cross weak-cell thresholds, so a
                // missed refresh or a wrong weight shows up as a flip.
                2 => 20_000 + count_any,
                _ => 2 + count_any % 2_000,
            },
            advance_ns: match adv_kind {
                0 => 0,
                1 => 94,
                _ => 50_000, // several REF steps, TRR serves included
            },
        },
    )
}

/// Replays `steps` per-ACT on one device and through reused handles on its
/// twin, then asserts every observable is bit-identical. A bank's victim
/// arena keeps growing (both rank sides of rows 18..30) while earlier
/// handles into it are live.
fn assert_reused_handles_equivalent(steps: &[Step], trr: (usize, usize), repairs: bool) {
    let mut reference = build(trr, repairs);
    let mut reused = build(trr, repairs);
    let mut handles: [Option<Aggressor>; CAST.len()] = [None; CAST.len()];
    for step in steps {
        let (bank, row, extra_open_ns) = CAST[step.slot];
        let bank = BankId(bank);
        for _ in 0..step.count {
            reference.activate_row(bank, row, extra_open_ns);
        }
        reference.advance_ns(step.advance_ns);
        // Resolving is the bank's first touch, so an empty burst must not
        // be what resolves a handle; on a live handle it is a no-op.
        let handle = &mut handles[step.slot];
        if step.count > 0 || handle.is_some() {
            let handle =
                handle.get_or_insert_with(|| reused.resolve_aggressor(bank, row, extra_open_ns));
            reused.activate_resolved(handle, step.count);
        }
        reused.advance_ns(step.advance_ns);
    }
    assert_same_observables(&reference, &reused);
}

/// Aggressors at both ends of the bank (internal rows 0, 1, R − 2, R − 1 on
/// both rank sides: `build` maps identically) under TRR(4, 2), driven
/// per-ACT, one-shot and through reused handles. Each round's three REF
/// steps serve all four aggressors, so TRR refreshes the neighbours of row
/// 0 and row R − 1, where only one side of the blast radius exists — the
/// `agg >= d` / `agg + d < rows_per_bank` guards that now index an array.
#[test]
fn bank_edge_aggressors_under_trr_match_across_paths() {
    const ROUNDS: u64 = 12;
    let rows = mini_geometry().rows_per_bank;
    let edges = [0, 1, rows - 2, rows - 1];
    let trefi_ns = dram::REFRESH_WINDOW_NS / dram::REFS_PER_WINDOW as u64;
    let mut reference = build((4, 2), false);
    let mut one_shot = build((4, 2), false);
    let mut reused = build((4, 2), false);
    let mut handles: [Option<Aggressor>; 4] = [None; 4];
    let bank = BankId(0);
    for round in 0..ROUNDS {
        for (i, (&row, handle)) in edges.iter().zip(&mut handles).enumerate() {
            // Long sieges (past weak-cell thresholds) mixed with 1-ACT runs.
            let count = [25_000u64, 1, 3_000, 40_000][(round as usize + i) % 4];
            for _ in 0..count {
                reference.activate_row(bank, row, 0);
            }
            one_shot.activate_burst(bank, row, count, 0);
            let handle = handle.get_or_insert_with(|| reused.resolve_aggressor(bank, row, 0));
            reused.activate_resolved(handle, count);
        }
        for d in [&mut reference, &mut one_shot, &mut reused] {
            d.advance_ns(3 * trefi_ns);
        }
    }
    assert_same_observables(&reference, &one_shot);
    assert_same_observables(&reference, &reused);
    let stats = reference.stats();
    assert_eq!(stats.ref_steps, 3 * ROUNDS);
    assert_eq!(
        stats.trr_triggers,
        2 * edges.len() as u64 * ROUNDS,
        "every edge aggressor served on both sides every round"
    );
    let flipped = |lo, hi| reference.flip_log().in_row_range(bank, lo, hi).count();
    assert!(flipped(0, 4) > 0, "the low edge's victims flipped");
    assert!(
        flipped(rows - 4, rows) > 0,
        "the high edge's victims flipped"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No TRR: pure disturbance accumulation, threshold crossings, refresh
    /// interleaving, and RowPress weight changes.
    #[test]
    fn burst_equals_reference_without_trr(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (0, 0), false);
    }

    /// Default TRR (capacity 4, serve 2): the counted observe must replay
    /// Misra-Gries decrement/replace churn and post-REF zero-count slots.
    #[test]
    fn burst_equals_reference_with_trr(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (4, 2), false);
    }

    /// Row repairs: bursts on repaired rows hammer the spare's neighbors and
    /// flips translate through the inverse repair map identically.
    #[test]
    fn burst_equals_reference_with_repairs(
        runs in prop::collection::vec(run_strategy(), 1..40),
    ) {
        assert_equivalent(&runs, (4, 2), true);
    }

    /// Long same-row sieges: single runs big enough to cross many weak-cell
    /// thresholds inside one burst, so the crossing-act solver and the
    /// ordered emission sweep are exercised hard.
    #[test]
    fn burst_equals_reference_on_long_sieges(
        row in 250u32..262,
        bank in 0u32..4,
        count in 30_000u64..90_000,
        press in 0u32..2,
    ) {
        let extra = if press == 0 { 0u64 } else { 2_000 };
        let runs = [
            Run { bank, row, count, extra_open_ns: extra, advance_ns: 100 },
            Run { bank, row: row + 2, count, extra_open_ns: 0, advance_ns: 0 },
            Run { bank, row, count: count / 2, extra_open_ns: 0, advance_ns: 60_000 },
        ];
        let stats = assert_equivalent(&runs, (0, 0), false);
        prop_assert!(stats.acts >= 75_000);
    }

    /// Reused handles: resolve once, apply many times across REF and TRR
    /// boundaries, with and without TRR and repairs.
    #[test]
    fn reused_handles_equal_reference(
        steps in prop::collection::vec(step_strategy(), 1..60),
        config in 0usize..3,
    ) {
        let (trr, repairs) = [((0, 0), false), ((4, 2), false), ((4, 2), true)][config];
        assert_reused_handles_equivalent(&steps, trr, repairs);
    }
}
