//! The determinism battery: telemetry from the full stack is bit-identical
//! for any worker-thread count.
//!
//! Experiment cells fan out over `SILOZ_THREADS` workers, all exporting
//! into one shared registry. Every deterministic metric merges by addition
//! (commutative + associative), so the deterministic view of the merged
//! snapshot — [`telemetry::Snapshot::deterministic`], which strips
//! wall-clock and scheduling metrics — must not depend on how cells were
//! scheduled. These tests pin that guarantee at 1, 2, and 7 workers, the
//! same counts the paper-figure binaries see via `SILOZ_THREADS`.

use siloz_repro::cluster::{run_cluster, ClusterPolicy, ClusterScenario};
use siloz_repro::mitigation::Backend;
use siloz_repro::siloz::{HypervisorKind, SilozConfig};
use siloz_repro::sim::{arena, figure4, run_colocation_suite, Run, SimConfig, SuitePlan};
use siloz_repro::telemetry::{MetricValue, Registry};
use siloz_repro::workloads::mlc::{Mlc, MlcKind};
use siloz_repro::workloads::ycsb::{Ycsb, YcsbKind};
use siloz_repro::workloads::WorkloadGen;

fn tiny_sim() -> SimConfig {
    SimConfig {
        ops: 6_000,
        repeats: 2,
        vm_memory: 128 << 20,
        vcpus: 2,
        working_set: 8 << 20,
    }
}

/// One colocation-suite run at `threads`, returning the deterministic
/// snapshot JSON plus the experiment results for cross-checking.
fn colocation_snapshot(threads: usize) -> (String, String) {
    let config = SilozConfig::mini();
    let sim = tiny_sim();
    let reg = Registry::new();
    let plan = SuitePlan {
        config: &config,
        kinds: &[HypervisorKind::Baseline, HypervisorKind::Siloz],
        sim: &sim,
        seed: 11,
        threads,
    };
    let results = run_colocation_suite(
        &plan,
        || Box::new(Ycsb::new(YcsbKind::C, 8 << 20)) as Box<dyn WorkloadGen>,
        || Box::new(Mlc::new(MlcKind::Reads, 8 << 20)) as Box<dyn WorkloadGen>,
        &reg,
    )
    .expect("colocation suite");
    let json = reg.snapshot().deterministic().to_json();
    (json, format!("{results:?}"))
}

#[test]
fn colocation_suite_telemetry_is_thread_count_invariant() {
    let (ref_json, ref_results) = colocation_snapshot(1);
    assert!(
        ref_json.contains("row_hits"),
        "controller metrics missing from snapshot"
    );
    for threads in [2, 7] {
        let (json, results) = colocation_snapshot(threads);
        assert_eq!(
            ref_results, results,
            "experiment output diverged at {threads} threads"
        );
        assert_eq!(
            ref_json, json,
            "deterministic telemetry diverged at {threads} threads"
        );
    }
}

#[test]
fn figure4_telemetry_is_thread_count_invariant() {
    let config = SilozConfig::mini();
    let sim = tiny_sim();
    let run = |threads: usize| {
        let run = Run::with_threads(threads);
        let rows = figure4(&config, &sim, &run).expect("figure 4");
        (run.reg.snapshot(), rows)
    };
    let (serial_snap, serial_rows) = run(1);
    for threads in [2, 7] {
        let (snap, rows) = run(threads);
        assert_eq!(
            serial_rows, rows,
            "figure rows diverged at {threads} threads"
        );
        assert_eq!(
            serial_snap.deterministic().to_json(),
            snap.deterministic().to_json(),
            "deterministic telemetry diverged at {threads} threads"
        );
    }
    // The raw snapshot, by contrast, legitimately carries scheduling
    // metrics: the engine group must have recorded per-cell wall time.
    let engine = &serial_snap.children["engine"];
    assert!(engine.metrics["cell_wall_ns"].is_volatile());
    assert!(!engine.metrics["cells_run"].is_volatile());
}

#[test]
fn deterministic_snapshot_counts_real_work() {
    // Beyond invariance, the numbers must be the *right* ones: one cell per
    // (seed, workload, side), every trace op accounted for in the
    // controller child.
    let config = SilozConfig::mini();
    let sim = tiny_sim();
    let run = Run::with_threads(3);
    figure4(&config, &sim, &run).expect("figure 4");
    let snap = run.reg.snapshot();
    let n_workloads = 9;
    let cells = sim.repeats as u64 * n_workloads * 2;
    let MetricValue::Counter {
        value: cells_run, ..
    } = snap.children["engine"].metrics["cells_run"]
    else {
        panic!("cells_run missing");
    };
    assert_eq!(cells_run, cells);
    let MetricValue::Counter {
        value: accesses, ..
    } = snap.children["ctrl"].metrics["accesses"]
    else {
        panic!("ctrl accesses missing");
    };
    assert_eq!(accesses, cells * sim.ops as u64);
    // Each cell boots one hypervisor and creates one VM.
    let MetricValue::Counter { value: vms, .. } = snap.children["hv"].metrics["vms_created"] else {
        panic!("vms_created missing");
    };
    assert_eq!(vms, cells);
}

#[test]
fn cluster_telemetry_is_thread_count_invariant() {
    // The cluster engine shards per-host fleet engines across workers and
    // merges their exports at barriers; its deterministic snapshot —
    // cluster counters, scheduler tallies, absorbed host trees, per-host
    // rollups — must not depend on the worker count.
    let scenario = || {
        let mut s = ClusterScenario::quick(23, ClusterPolicy::SocketAffine);
        s.hosts = 6;
        s.target_sandboxes = 90;
        s.mean_lifetime = 30.0;
        s.attack_prob = 0.0;
        s
    };
    let run = |threads: usize| {
        let reg = Registry::new();
        let report = run_cluster(scenario(), threads, &reg).expect("cluster run");
        (reg.snapshot(), report)
    };
    let (serial_snap, serial_report) = run(1);
    assert!(serial_report.clean(), "reference run must be clean");
    assert!(serial_report.migrations > 0, "migration must be exercised");
    for threads in [2, 7] {
        let (snap, report) = run(threads);
        assert_eq!(
            serial_report, report,
            "cluster report diverged at {threads} threads"
        );
        assert_eq!(
            serial_snap.deterministic().to_json(),
            snap.deterministic().to_json(),
            "cluster telemetry diverged at {threads} threads"
        );
    }
    // The deterministic tree must carry the cluster children; the raw
    // snapshot additionally holds the volatile sync wall clock.
    let cluster = &serial_snap.children["cluster"];
    let MetricValue::Counter { value: placed, .. } =
        cluster.children["scheduler"].metrics["placements"]
    else {
        panic!("scheduler placements missing");
    };
    assert!(placed >= serial_report.sandboxes);
    assert!(cluster.metrics["sync_wall_ns"].is_volatile());
    assert!(!cluster.metrics["migrations"].is_volatile());
    assert!(
        cluster.children.contains_key("host0"),
        "per-host rollups missing"
    );
    assert!(
        cluster.children["hosts"].children["fleet"]
            .metrics
            .contains_key("events_processed"),
        "absorbed host tree missing"
    );
    // The scheduler-index counters ride the same export: bucket moves
    // under the scheduler child, the pending queue's shard occupancy and
    // short-circuit tally on the cluster node (the wall clock is
    // volatile), and the O(touched) claim-release sizes in the absorbed
    // fleet tree.
    assert!(
        cluster.children["scheduler"]
            .metrics
            .contains_key("bucket_moves"),
        "scheduler index counters missing"
    );
    assert!(!cluster.metrics["shard_retries_skipped"].is_volatile());
    assert!(cluster.metrics.contains_key("pending_shards"));
    assert!(cluster.metrics["sched_wall_ns"].is_volatile());
    let fleet = &cluster.children["hosts"].children["fleet"];
    let MetricValue::Counter {
        value: released, ..
    } = fleet.metrics["claim_released_groups"]
    else {
        panic!("claim release sizes missing");
    };
    let MetricValue::Counter {
        value: releases, ..
    } = fleet.metrics["claim_releases"]
    else {
        panic!("claim release count missing");
    };
    assert!(releases > 0, "departures must release claims");
    assert!(
        released >= releases,
        "every release frees at least one group"
    );
}

#[test]
fn arena_mitigation_telemetry_is_thread_count_invariant() {
    // The arena adds per-backend registry children, and hooked backends
    // add a `mitigation` child under each controller export. Both must
    // obey the same invariance as every other deterministic metric.
    let config = SilozConfig::mini();
    let sim = tiny_sim();
    let backends = [Backend::None, Backend::BlockHammer];
    let run = |threads: usize| {
        let run = Run::with_threads(threads);
        let grids = arena(&config, &sim, &backends, &run).expect("arena");
        (run.reg.snapshot(), grids)
    };
    let (serial_snap, serial_grids) = run(1);
    for threads in [2, 7] {
        let (snap, grids) = run(threads);
        assert_eq!(
            serial_grids, grids,
            "arena grids diverged at {threads} threads"
        );
        assert_eq!(
            serial_snap.deterministic().to_json(),
            snap.deterministic().to_json(),
            "arena telemetry diverged at {threads} threads"
        );
    }
    // The hooked backend's cells carried the defense: its controller
    // child must hold a `mitigation` registry with live counters, and
    // the unhooked backend must not grow one.
    let hooked = &serial_snap.children["blockhammer"].children["ctrl"].children["mitigation"];
    let MetricValue::Counter { value: acts, .. } = hooked.metrics["acts_observed"] else {
        panic!("acts_observed missing from the mitigation child");
    };
    assert!(acts > 0, "the blockhammer hook observed no activations");
    assert!(
        hooked.metrics.contains_key("rows_blacklisted"),
        "blacklist counter missing"
    );
    assert!(
        !serial_snap.children["none"].children["ctrl"]
            .children
            .contains_key("mitigation"),
        "the none backend must not install a controller hook"
    );
}
