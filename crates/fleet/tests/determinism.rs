//! Fleet determinism battery: fanning churn scenarios across worker
//! threads must not change a single deterministic bit.
//!
//! Cells (seed × placement strategy) run through
//! [`sim::run_cells`] at 1, 2, and 7 workers — the same counts
//! the `SILOZ_THREADS` battery uses elsewhere — all exporting into one
//! shared registry. Reports must match exactly and the deterministic
//! telemetry snapshot must be bit-identical.

use fleet::{run_fleet, FleetReport, Scenario};
use numa::PlacementStrategy;
use sim::run_cells;
use telemetry::Registry;

/// A trimmed quick scenario so the 3×-thread battery stays fast.
fn cell_scenario(idx: usize) -> Scenario {
    let strategy = PlacementStrategy::ALL[idx % 3];
    let seed = 100 + (idx / 3) as u64;
    let mut s = Scenario::quick(seed, strategy);
    s.target_events = 150;
    s.attack_prob = 0.03;
    s
}

fn battery(threads: usize) -> (String, Vec<FleetReport>) {
    let reg = Registry::new();
    let reports: Vec<FleetReport> = run_cells(6, threads, &reg, |idx| {
        run_fleet(cell_scenario(idx), &reg).expect("fleet cell")
    });
    (reg.snapshot().deterministic().to_json(), reports)
}

#[test]
fn fleet_telemetry_is_thread_count_invariant() {
    let (ref_json, ref_reports) = battery(1);
    for r in &ref_reports {
        assert!(r.clean(), "isolation violated: {r:?}");
        assert!(r.events_processed >= 150);
    }
    assert!(
        ref_json.contains("isolation_checks"),
        "fleet metrics missing from snapshot"
    );
    for threads in [2, 7] {
        let (json, reports) = battery(threads);
        assert_eq!(
            ref_reports, reports,
            "fleet reports diverged at {threads} threads"
        );
        assert_eq!(
            ref_json, json,
            "deterministic telemetry diverged at {threads} threads"
        );
    }
}

#[test]
fn strategies_actually_differ() {
    // The three policies are distinct placements, not aliases: over the
    // same seed they should not all produce identical runs.
    let runs: Vec<String> = PlacementStrategy::ALL
        .iter()
        .map(|&strategy| {
            let mut s = Scenario::quick(42, strategy);
            s.target_events = 200;
            s.attack_prob = 0.0;
            format!("{:?}", run_fleet(s, &Registry::new()).expect("run"))
        })
        .collect();
    assert!(
        runs[0] != runs[1] || runs[0] != runs[2],
        "all three strategies behaved identically"
    );
}
