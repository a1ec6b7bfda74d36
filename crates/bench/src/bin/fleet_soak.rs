//! Fleet soak: multi-tenant churn under group-aware admission (§8).
//!
//! Runs the fleet scenario matrix — seeds × the three placement
//! strategies — three times, at 1, 2, and 7 worker threads, and demands
//! the deterministic telemetry snapshot and every per-run report be
//! bit-identical across thread counts. Any cross-VM subarray-group
//! sharing or escaped flip at any of the thousands of event boundaries
//! fails the process.
//!
//! Artifacts: `TELEMETRY_fleet_soak.json` (merged registry) and
//! `FLEET_soak.json` (per-run reports).
//!
//! Usage: `cargo run --release -p bench --bin fleet_soak [--quick]`

use bench::{emit_telemetry, Args, Scale};
use fleet::{run_fleet, FleetReport, Scenario};
use numa::PlacementStrategy;
use sim::run_cells;
use telemetry::Registry;

fn main() {
    let scale = Args::from_env("fleet_soak [--quick]").scale;
    let (seeds, min_events): (&[u64], u64) = match scale {
        Scale::Quick => (&[11], 2_000),
        Scale::Full => (&[11, 12], 5_000),
    };
    let cells = seeds.len() * PlacementStrategy::ALL.len();
    let scenario_of = |idx: usize| -> Scenario {
        let seed = seeds[idx / PlacementStrategy::ALL.len()];
        let strategy = PlacementStrategy::ALL[idx % PlacementStrategy::ALL.len()];
        match scale {
            Scale::Quick => Scenario::quick(seed, strategy),
            Scale::Full => Scenario::soak(seed, strategy),
        }
    };

    println!("fleet soak: {cells} cells (seeds {seeds:?} x 3 strategies), determinism battery at 1/2/7 workers\n");
    let mut reference: Option<(String, Vec<FleetReport>)> = None;
    let mut last_reg = Registry::new();
    for threads in [1usize, 2, 7] {
        let reg = Registry::new();
        let reports = run_cells(cells, threads, &reg, |idx| {
            run_fleet(scenario_of(idx), &reg).expect("fleet cell")
        });
        let det = reg.snapshot().deterministic().to_json();
        match &reference {
            None => reference = Some((det, reports)),
            Some((ref_json, ref_reports)) => {
                assert_eq!(
                    ref_reports, &reports,
                    "fleet reports diverged at {threads} worker threads"
                );
                assert_eq!(
                    ref_json, &det,
                    "deterministic telemetry diverged at {threads} worker threads"
                );
                println!("workers={threads}: bit-identical with the serial run");
            }
        }
        last_reg = reg;
    }
    let (_, reports) = reference.expect("at least one battery ran");

    println!(
        "\n{:<14} {:>6} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "strategy",
        "seed",
        "events",
        "admitted",
        "rejected",
        "attacks",
        "flips",
        "escapes",
        "violations",
        "frag%"
    );
    for r in &reports {
        println!(
            "{:<14} {:>6} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>8}",
            r.strategy,
            r.seed,
            r.events_processed,
            r.admitted + r.deferred_admits,
            r.rejections,
            r.attacks,
            r.attack_flips,
            r.attack_escapes,
            r.violations_total,
            r.fragmentation_pct,
        );
        assert!(
            r.events_processed >= min_events,
            "scenario too small: {} events < {min_events}",
            r.events_processed
        );
        assert!(
            r.clean(),
            "isolation violated for {} seed {}: {:?}",
            r.strategy,
            r.seed,
            r.violation_samples
        );
        assert!(r.full_proofs > 0 && r.incremental_checks > 0);
    }
    let checks: u64 = reports.iter().map(|r| r.incremental_checks).sum();
    let proofs: u64 = reports.iter().map(|r| r.full_proofs).sum();
    println!("\nisolation: {checks} incremental boundary checks, {proofs} full proofs, 0 violations, 0 escapes");

    // The quick gate writes under its own label so it never clobbers the
    // committed full-scale FLEET_soak.json artifact.
    let label = match scale {
        Scale::Quick => "soak_quick",
        Scale::Full => "soak",
    };
    match fleet::write_reports(label, &reports) {
        Ok(path) => println!("reports: wrote {}", path.display()),
        Err(e) => eprintln!("reports: could not write FLEET_{label}.json: {e}"),
    }
    emit_telemetry("fleet_soak", &last_reg);
}
