//! Cluster soak: datacenter-scale sandbox churn across sharded per-host
//! engines, a cluster scheduler, and cross-host migration.
//!
//! Runs every cluster placement policy (spread / bin-pack /
//! socket-affine) three times — at 1, 2, and 7 worker threads — and
//! demands the per-policy reports and the deterministic telemetry
//! snapshot be bit-identical across thread counts. Every host proves the
//! §4.1 invariant at its own event boundaries; sync barriers re-prove
//! cluster-wide consistency (every sandbox on exactly one host,
//! scheduler accounting equal to hypervisor occupancy, no over-commit).
//! Any violation or escaped flip anywhere in the fleet fails the
//! process.
//!
//! `--scale N` selects the thousands-of-hosts tier instead: one pass
//! per policy at 7 workers over an `N`-host fleet under soak-density
//! churn (the indexed scheduler is what makes this tier tractable —
//! the linear scan, retained as its test oracle, pays O(hosts) per
//! placement). It writes
//! `CLUSTER_soak_scale.json` and skips the thread-count battery; the
//! quick and full tiers already pin determinism.
//!
//! Artifacts: `TELEMETRY_cluster_soak.json` (merged registry) and
//! `CLUSTER_soak.json` (per-run reports; the quick gate writes
//! `CLUSTER_soak_quick.json` instead so the committed full-scale
//! artifact stays put).
//!
//! Usage: `cargo run --release -p bench --bin cluster_soak [--quick | --scale N]`

use bench::{emit_telemetry, Scale};
use cluster::{run_cluster, ClusterPolicy, ClusterReport, ClusterScenario};
use telemetry::Registry;

/// Parses `--scale N` (the thousands-of-hosts tier), if present.
fn scale_hosts() -> Option<u32> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            let n = args.next().expect("--scale needs a host count");
            return Some(n.parse().expect("--scale host count must be a u32"));
        }
    }
    None
}

/// Prints the per-policy report table and enforces the soak's isolation
/// and liveness invariants on every report.
fn check_reports(reports: &[ClusterReport], min_hosts: u64, min_events: u64) {
    println!(
        "\n{:<14} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>9}",
        "policy",
        "hosts",
        "events",
        "placed",
        "departed",
        "migrate",
        "attacks",
        "escapes",
        "hostviol",
        "clustviol"
    );
    for r in reports {
        println!(
            "{:<14} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>9}",
            r.policy,
            r.hosts,
            r.events_total(),
            r.placements,
            r.departures,
            r.migrations,
            r.attacks,
            r.attack_escapes,
            r.host_violations,
            r.cluster_violations,
        );
        assert!(
            r.hosts >= min_hosts,
            "fleet too small: {} hosts < {min_hosts}",
            r.hosts
        );
        assert!(
            r.events_total() >= min_events,
            "scenario too small: {} events < {min_events}",
            r.events_total()
        );
        assert!(
            r.clean(),
            "isolation or consistency violated for {} seed {}: {:?}",
            r.policy,
            r.seed,
            r.violation_samples
        );
        assert!(r.migrations > 0, "no cross-host migration exercised");
        assert!(r.full_proofs > 0 && r.incremental_checks > 0 && r.sync_proofs > 0);
        assert_eq!(r.final_live, 0, "sandboxes leaked past the trace");
    }
    let events: u64 = reports.iter().map(ClusterReport::events_total).sum();
    let migrations: u64 = reports.iter().map(|r| r.migrations).sum();
    let proofs: u64 = reports.iter().map(|r| r.full_proofs).sum();
    let syncs: u64 = reports.iter().map(|r| r.sync_proofs).sum();
    println!(
        "\nisolation: {events} lifecycle events, {migrations} cross-host migrations, \
         {proofs} host proofs, {syncs} cluster sync proofs, 0 violations, 0 escapes"
    );
}

/// The thousands-of-hosts tier: one pass per policy at 7 workers.
fn run_scale(hosts: u32) {
    let seed = 11u64;
    let policies = ClusterPolicy::ALL;
    println!(
        "cluster soak (scale tier): {} policies x {hosts} hosts at 7 workers\n",
        policies.len()
    );
    let reg = Registry::new();
    let reports: Vec<ClusterReport> = policies
        .iter()
        .map(|&policy| {
            run_cluster(ClusterScenario::scale(seed, policy, hosts), 7, &reg).expect("cluster run")
        })
        .collect();
    check_reports(&reports, u64::from(hosts), u64::from(hosts) * 32);
    match cluster::write_cluster_reports("soak_scale", &reports) {
        Ok(path) => println!("reports: wrote {}", path.display()),
        Err(e) => eprintln!("reports: could not write CLUSTER_soak_scale.json: {e}"),
    }
    emit_telemetry("cluster_soak_scale", &reg);
}

fn main() {
    if let Some(hosts) = scale_hosts() {
        run_scale(hosts);
        return;
    }
    let scale = Scale::from_args();
    let seed = 11u64;
    let (min_events, min_hosts): (u64, u64) = match scale {
        Scale::Quick => (4_000, 16),
        Scale::Full => (1_000_000, 256),
    };
    let scenario_of = |policy: ClusterPolicy| match scale {
        Scale::Quick => ClusterScenario::quick(seed, policy),
        Scale::Full => ClusterScenario::soak(seed, policy),
    };

    let policies = ClusterPolicy::ALL;
    println!(
        "cluster soak: {} policies x determinism battery at 1/2/7 workers\n",
        policies.len()
    );
    let mut reference: Option<(String, Vec<ClusterReport>)> = None;
    let mut last_reg = Registry::new();
    for threads in [1usize, 2, 7] {
        let reg = Registry::new();
        let reports: Vec<ClusterReport> = policies
            .iter()
            .map(|&policy| run_cluster(scenario_of(policy), threads, &reg).expect("cluster run"))
            .collect();
        let det = reg.snapshot().deterministic().to_json();
        match &reference {
            None => reference = Some((det, reports)),
            Some((ref_json, ref_reports)) => {
                assert_eq!(
                    ref_reports, &reports,
                    "cluster reports diverged at {threads} worker threads"
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
    check_reports(&reports, min_hosts, min_events);

    // The quick gate writes under its own label so it never clobbers the
    // committed full-scale CLUSTER_soak.json artifact.
    let label = match scale {
        Scale::Quick => "soak_quick",
        Scale::Full => "soak",
    };
    match cluster::write_cluster_reports(label, &reports) {
        Ok(path) => println!("reports: wrote {}", path.display()),
        Err(e) => eprintln!("reports: could not write CLUSTER_{label}.json: {e}"),
    }
    emit_telemetry("cluster_soak", &last_reg);
}
