//! `interleave-check`: exhaustive interleaving exploration of the
//! telemetry hot paths.
//!
//! The lock-free telemetry claims (DESIGN.md §Telemetry) reduce to: every
//! mutation is a sequence of single `Relaxed` atomic RMWs, relaxed addition
//! never loses increments, and therefore once all writers have joined the
//! totals are exact for *any* thread scheduling. These scenarios prove that
//! exhaustively for bounded configurations: each scenario fixes per-thread
//! step lists (each step = exactly one RMW of the real implementation, via
//! `telemetry::hooks`), replays them under **every** distinct interleaving
//! the scheduler ([`crate::sched`]) can produce, and checks the invariants
//! at every prefix and the linearized totals at the end.
//!
//! Replaying single-threaded is faithful because a single atomic RMW is
//! indivisible on real hardware too: any concurrent execution's memory
//! effects on one cell equal *some* total order of the RMWs touching it,
//! and the enumeration visits every such order.

use crate::sched::{for_each_interleaving, schedule_count};
use dram_addr::mini_decoder;
use memctrl::{MemOp, MemoryController};
use telemetry::hooks::{apply, merge_steps, observe_steps, HistoStep};
use telemetry::{Histo, HistoSnapshot, Registry};

/// Outcome of one scenario.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Per-thread step counts explored.
    pub steps_per_thread: Vec<usize>,
    /// Distinct schedules explored (cross-checked against the multinomial).
    pub schedules: u128,
    /// First failure description, if any.
    pub failure: Option<String>,
}

impl ScenarioResult {
    /// Whether every schedule satisfied every invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs every scenario. All must pass for the `interleave-check` gate.
#[must_use]
pub fn check_all() -> Vec<ScenarioResult> {
    vec![
        counter_linearizable(&[4, 4]),
        counter_linearizable(&[2, 2, 2]),
        histo_observe_torn(),
        histo_merge_monoid(),
        controller_export(),
    ]
}

/// Replays `schedule` over per-thread step lists, calling `step` for each
/// executed step and `check` after each prefix (with the number of steps
/// executed so far). Returns the first failure `check` reports.
fn replay<S: Copy>(
    threads: &[Vec<S>],
    schedule: &[usize],
    mut step: impl FnMut(S),
    mut check: impl FnMut(usize) -> Option<String>,
) -> Option<String> {
    let mut cursor = vec![0usize; threads.len()];
    for (done, &tid) in schedule.iter().enumerate() {
        step(threads[tid][cursor[tid]]);
        cursor[tid] += 1;
        if let Some(fail) = check(done + 1) {
            return Some(format!("schedule {schedule:?}, step {}: {fail}", done + 1));
        }
    }
    None
}

/// Shared driver: enumerate every interleaving of `threads`' steps, run
/// `explore` per schedule, record the first failure and the schedule count.
fn explore<S: Copy>(
    name: &'static str,
    threads: &[Vec<S>],
    mut run: impl FnMut(&[usize]) -> Option<String>,
) -> ScenarioResult {
    let counts: Vec<usize> = threads.iter().map(Vec::len).collect();
    let mut schedules = 0u128;
    let mut failure = None;
    for_each_interleaving(&counts, |schedule| {
        schedules += 1;
        if failure.is_none() {
            failure = run(schedule);
        }
    });
    if failure.is_none() && schedules != schedule_count(&counts) {
        failure = Some(format!(
            "enumerator visited {schedules} schedules, multinomial says {}",
            schedule_count(&counts)
        ));
    }
    ScenarioResult {
        name,
        steps_per_thread: counts,
        schedules,
        failure,
    }
}

/// S1 — counter linearizability: with every step a `Counter::inc`, the
/// count equals the number of completed increments after *every* prefix of
/// *every* schedule (strict linearizability, not just final-total
/// exactness).
fn counter_linearizable(counts: &[usize]) -> ScenarioResult {
    let threads: Vec<Vec<()>> = counts.iter().map(|&n| vec![(); n]).collect();
    explore("counter-linearizable", &threads, |schedule| {
        let c = telemetry::Counter::default();
        replay(
            &threads,
            schedule,
            |()| c.inc(),
            |done| {
                (c.get() != done as u64)
                    .then(|| format!("count {} after {done} completed increments", c.get()))
            },
        )
    })
}

/// S2 — torn histogram observes: two threads each run two full
/// `observe` RMW sequences. Intermediate states may be torn, but (a) the
/// per-observe step order (count, sum, bucket) means bucket totals never
/// exceed the count at any prefix, and (b) every schedule converges to the
/// exact sequential result.
fn histo_observe_torn() -> ScenarioResult {
    let obs: [[u64; 2]; 2] = [[5, 9], [1 << 20, 77]];
    let threads: Vec<Vec<HistoStep>> = obs
        .iter()
        .map(|vals| vals.iter().flat_map(|&v| observe_steps(v)).collect())
        .collect();
    let reference = Histo::default();
    for vals in &obs {
        for &v in vals {
            reference.observe(v);
        }
    }
    let want = reference.snapshot();
    explore("histo-observe-torn", &threads, |schedule| {
        let h = Histo::default();
        replay(
            &threads,
            schedule,
            |s| apply(&h, s),
            |done| {
                let snap = h.snapshot();
                let bucket_total: u64 = snap.buckets.iter().sum();
                if bucket_total > snap.count {
                    return Some(format!(
                        "bucket total {bucket_total} exceeds count {} mid-schedule",
                        snap.count
                    ));
                }
                (done == schedule.len() && snap != want)
                    .then(|| "final state differs from sequential observes".to_string())
            },
        )
    })
}

/// S3 — histogram merge is a commutative monoid: three threads each merge
/// a distinct snapshot into one histogram; every interleaving of the merge
/// RMWs must land on the same state as any sequential merge order. The
/// monoid laws (associativity, commutativity, identity) are also asserted
/// directly on [`HistoSnapshot::merge`].
fn histo_merge_monoid() -> ScenarioResult {
    let mut parts = [
        HistoSnapshot::default(),
        HistoSnapshot::default(),
        HistoSnapshot::default(),
    ];
    parts[0].observe(3);
    parts[1].observe(1 << 12);
    parts[2].observe(u64::MAX);
    // Each part fills exactly one bucket, so each merge is 3 RMWs.
    let threads: Vec<Vec<HistoStep>> = parts.iter().map(merge_steps).collect();

    if let Some(fail) = monoid_laws(&parts) {
        return ScenarioResult {
            name: "histo-merge-monoid",
            steps_per_thread: threads.iter().map(Vec::len).collect(),
            schedules: 0,
            failure: Some(fail),
        };
    }

    let reference = Histo::default();
    for p in &parts {
        reference.merge_from(p);
    }
    let want = reference.snapshot();
    explore("histo-merge-monoid", &threads, |schedule| {
        let h = Histo::default();
        replay(
            &threads,
            schedule,
            |s| apply(&h, s),
            |done| {
                (done == schedule.len() && h.snapshot() != want)
                    .then(|| "final state differs from sequential merges".to_string())
            },
        )
    })
}

fn monoid_laws(parts: &[HistoSnapshot; 3]) -> Option<String> {
    let [a, b, c] = parts;
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    let mut ab_c = a.clone();
    ab_c.merge(b);
    ab_c.merge(c);
    let mut bc = b.clone();
    bc.merge(c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    if ab_c != a_bc {
        return Some("merge is not associative".into());
    }
    // a ⊕ b == b ⊕ a
    let mut ab = a.clone();
    ab.merge(b);
    let mut ba = b.clone();
    ba.merge(a);
    if ab != ba {
        return Some("merge is not commutative".into());
    }
    // a ⊕ 0 == a
    let mut a_id = a.clone();
    a_id.merge(&HistoSnapshot::default());
    if &a_id != a {
        return Some("empty snapshot is not a merge identity".into());
    }
    None
}

/// S4 — the flat controller's telemetry export: two experiment cells
/// export the *same real* [`memctrl::CtrlStats`] (produced by an actual
/// mini-geometry trace) into one shared registry concurrently; every
/// interleaving of the 7+7 counter RMWs must produce exactly doubled
/// totals. A faithfulness guard first replays one thread's steps alone and
/// demands bit-equality with `CtrlStats::export_telemetry` itself, so the
/// modeled step list cannot drift from the real implementation.
fn controller_export() -> ScenarioResult {
    let decoder = mini_decoder();
    let mut dram = dram::DramSystem::new(*decoder.geometry());
    let mut ctrl = MemoryController::new(decoder);
    let ops: Vec<MemOp> = (0..32)
        .map(|i| MemOp::read(i * 1664).on_thread((i % 4) as u16))
        .collect();
    let trace = ctrl.run_trace(&mut dram, ops);
    let stats = trace.stats;

    // The exact (name, value) adds export_telemetry issues, in order.
    let export: Vec<(&'static str, u64)> = vec![
        ("accesses", stats.accesses),
        ("row_hits", stats.row_hits),
        ("row_misses", stats.row_misses),
        ("row_conflicts", stats.row_conflicts),
        ("reads", stats.reads),
        ("latency_ps_total", stats.total_latency_ps),
        ("bytes", stats.bytes),
    ];
    let threads = vec![export.clone(), export.clone()];

    // Faithfulness guard: one replayed export == one real export.
    let replayed = Registry::new();
    for &(name, value) in &export {
        replayed.counter(name).add(value);
    }
    let real = Registry::new();
    stats.export_telemetry(&real);
    if replayed.snapshot() != real.snapshot() {
        return ScenarioResult {
            name: "controller-export",
            steps_per_thread: threads.iter().map(Vec::len).collect(),
            schedules: 0,
            failure: Some("modeled export steps diverge from CtrlStats::export_telemetry".into()),
        };
    }
    let mut want = real.snapshot();
    want.merge(&real.snapshot());

    explore("controller-export", &threads, |schedule| {
        let reg = Registry::new();
        replay(
            &threads,
            schedule,
            |(name, value)| reg.counter(name).add(value),
            |done| {
                (done == schedule.len() && reg.snapshot() != want)
                    .then(|| "final registry differs from doubled export".to_string())
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_pass_exhaustively() {
        for r in check_all() {
            assert!(r.passed(), "{}: {:?}", r.name, r.failure);
            assert!(r.schedules > 0, "{} explored nothing", r.name);
        }
    }

    #[test]
    fn scenario_schedule_counts_match_the_multinomials() {
        let results = check_all();
        let by_name: std::collections::BTreeMap<&str, u128> =
            results.iter().map(|r| (r.name, r.schedules)).collect();
        assert_eq!(by_name["histo-observe-torn"], 924); // C(12,6)
        assert_eq!(by_name["histo-merge-monoid"], 1680); // 9!/(3!)^3
        assert_eq!(by_name["controller-export"], 3432); // C(14,7)
    }

    #[test]
    fn a_lossy_step_model_is_caught() {
        // Sanity-check the harness itself: replaying a *load-then-store*
        // (non-RMW) counter model under all interleavings must fail the
        // linearizability check — this is exactly the lost-update bug the
        // RMW discipline prevents.
        let threads: Vec<Vec<()>> = vec![vec![(); 2], vec![(); 2]];
        let mut failed = false;
        for_each_interleaving(&[2, 2], |schedule| {
            let mut value = 0u64;
            let mut stale: Vec<Option<u64>> = vec![None; 2];
            let mut cursor = [0usize; 2];
            for &tid in schedule {
                // Model: read on the first of a thread's two steps, write
                // back +1 on the second.
                if cursor[tid] == 0 {
                    stale[tid] = Some(value);
                } else {
                    value = stale[tid].unwrap() + 1;
                }
                cursor[tid] += 1;
            }
            if value != 2 {
                failed = true;
            }
        });
        assert!(failed, "load/store model should lose an update somewhere");
        drop(threads);
    }
}
