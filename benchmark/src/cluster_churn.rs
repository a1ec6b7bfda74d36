//! `cluster_churn`: the north-star cluster shape — scheduler, pending
//! queue, claims, per-host admit/depart, cross-host migration and two
//! fleet-wide defrag sweeps — stepped one barrier epoch at a time.

use crate::measure::{fnv1a, mean, median, peak_rss_mb_now, RegionTimer, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{Observations, Pass, ProbeInputs, Roster, VmShape, Workload};
use cluster::{ClusterEventKind, ClusterPolicy, ClusterScenario, ClusterSim};
use std::time::Instant;

/// Hosts in the fleet. `ClusterScenario::scale` keeps per-host pressure
/// constant, so event count, ledger compiles and defrag work all scale
/// linearly with this; 64 hosts keeps one pass near a second.
pub const HOSTS: u32 = 64;

/// Epochs after which a pass that still has work is declared stuck.
const EPOCH_LIMIT: u64 = 100_000;

/// The cluster workload.
pub struct ClusterChurn;

/// The scenario a pass runs: the scale tier without its handful of attack
/// campaigns. A fleet this small draws zero to six of them per pass, each
/// costing as much as a tenth of all the other events together; campaigns
/// are measured on the two single-host workloads instead.
pub fn scenario(seed: u64) -> ClusterScenario {
    let mut s = ClusterScenario::scale(seed, ClusterPolicy::Spread, HOSTS);
    s.attack_prob = 0.0;
    s
}

/// What one barrier epoch did, beyond scheduling and stepping hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Schedule, step, reconcile.
    Plain,
    /// Also a cluster-wide sync proof.
    Sync,
    /// Also a sync proof and a fleet-wide defragmentation sweep.
    Defrag,
}

impl EpochKind {
    /// Classifies an epoch from how many sync proofs and host defrag
    /// sweeps completed during it. Defrag epochs are always sync epochs
    /// (the defrag period is a multiple of the sync period).
    pub fn classify(sync_proofs: u64, defrag_sweeps: u64) -> EpochKind {
        match (sync_proofs, defrag_sweeps) {
            (0, _) => EpochKind::Plain,
            (_, 0) => EpochKind::Sync,
            _ => EpochKind::Defrag,
        }
    }

    /// The epoch's span name, also the key its duration (ns) is sampled
    /// under.
    fn span_name(self) -> &'static str {
        match self {
            EpochKind::Plain => "epoch.plain",
            EpochKind::Sync => "epoch.sync",
            EpochKind::Defrag => "epoch.defrag",
        }
    }
}

/// One counter of the fleet-wide host aggregate (`cluster.hosts.fleet.*`)
/// in the cluster's exported telemetry.
fn host_counter(snap: &telemetry::Snapshot, name: &str) -> u64 {
    let counter = snap
        .children
        .get("cluster")
        .and_then(|c| c.children.get("hosts"))
        .and_then(|h| h.children.get("fleet"))
        .and_then(|f| f.metrics.get(name));
    match counter {
        Some(telemetry::MetricValue::Counter { value, .. }) => *value,
        _ => 0,
    }
}

/// Defrag sweeps completed fleet-wide so far (only the host engines count
/// them, so this goes through the telemetry export).
fn defrag_sweeps(sim: &ClusterSim) -> u64 {
    let reg = telemetry::Registry::new();
    sim.export_telemetry(&reg);
    host_counter(&reg.snapshot(), "defrag_sweeps")
}

impl Workload for ClusterChurn {
    fn pass(&mut self, seed: u64, tracer: &mut Tracer, obs: &mut Observations) -> Pass {
        let mut pass = Pass::default();
        let setup = Instant::now();
        let booted = ClusterSim::new(scenario(seed), 1);
        pass.setup_s = setup.elapsed().as_secs_f64();
        let mut sim = match booted {
            Ok(sim) => sim,
            Err(e) => {
                pass.attempted = 1;
                pass.fail(format!("boot failed: {e}"));
                return pass;
            }
        };
        if tracer.enabled() {
            obs.sample("cluster.boot_ns", pass.setup_s * 1e9);
        }

        let run = tracer.open("run", "process");
        let region = RegionTimer::start();
        let mut outcome = Ok(());
        if tracer.enabled() {
            // Epoch by epoch, classifying each after it ran. (A pass with
            // unplaceable sandboxes left over stops stepping at the limit;
            // `run_to_completion` below knows how to abandon them.)
            //
            // Peak-RSS growth is only attributable in the process's first
            // traced pass: later passes reuse the heap the first one grew.
            let first_traced = obs.samples("cluster.boot_ns").len() == 1;
            let mut hwm_mb = peak_rss_mb_now();
            let mut sweeps_seen = 0;
            while outcome.is_ok() && !sim.is_done() && sim.stats().epochs < EPOCH_LIMIT {
                let syncs_before = sim.stats().sync_proofs;
                let events_before = sim.stats().cluster_events;
                let id = tracer.open("epoch", "cluster");
                let t = Instant::now();
                outcome = sim.step_epoch();
                let ns = t.elapsed().as_nanos() as f64;
                // Classified after the span's end is taken: the sweep count
                // needs a telemetry export, which must not be billed to the
                // epoch.
                let syncs = sim.stats().sync_proofs - syncs_before;
                let sweeps = if syncs > 0 {
                    defrag_sweeps(&sim)
                } else {
                    sweeps_seen
                };
                let kind = EpochKind::classify(syncs, sweeps - sweeps_seen);
                sweeps_seen = sweeps;
                let events = sim.stats().cluster_events - events_before;
                tracer.close(id, events, Some(kind.span_name()));
                obs.sample(kind.span_name(), ns);
                if first_traced {
                    let now_mb = peak_rss_mb_now();
                    if kind == EpochKind::Defrag {
                        obs.tally("cluster.defrag_hwm_growth_mb", now_mb - hwm_mb);
                    }
                    hwm_mb = now_mb;
                }
            }
        }
        // Steps whatever epochs remain (all of them, untraced), then
        // final-proves every occupied host, re-verifies cluster consistency
        // and builds the report.
        let report = outcome.and_then(|()| sim.run_to_completion());
        pass.cost = region.stop();
        pass.attempted = sim.stats().epochs.max(1);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                tracer.close(run, 0, None);
                pass.fail(format!("epoch failed: {e}"));
                return pass;
            }
        };
        pass.events = report.events_total();
        tracer.close(run, pass.events, None);

        pass.check(report.clean(), || {
            format!("cluster not clean: {:?}", report.violation_samples)
        });
        pass.check(report.final_live == 0, || {
            format!("{} sandboxes live at drain", report.final_live)
        });
        pass.check(report.groups_claimed == 0, || {
            format!("{} groups claimed at drain", report.groups_claimed)
        });
        let issues = sim.verify_cluster();
        pass.check(issues.is_empty(), || format!("verify_cluster: {issues:?}"));
        let ended = report.departures + report.final_live + report.abandoned_pending;
        pass.check(report.sandboxes == ended, || {
            format!(
                "{} sandboxes arrived but {ended} departed, stayed or were abandoned",
                report.sandboxes
            )
        });
        pass.digest = fnv1a(FNV_OFFSET, report.to_json().render().as_bytes());

        if tracer.enabled() && obs.samples("cluster.boot_ns").len() == 1 {
            obs.tally("cluster.hwm_mb", peak_rss_mb_now());
        }
        if tracer.enabled() {
            let (again, ns) = tracer.timed("cluster.report", "cluster", || sim.report());
            obs.sample("cluster.report_ns", ns);
            std::hint::black_box(again);

            let reg = telemetry::Registry::new();
            let ((), ns) = tracer.timed("cluster.export_telemetry", "telemetry", || {
                sim.export_telemetry(&reg);
            });
            obs.sample("telemetry.export_ms", ns / 1e6);
            let snap = reg.snapshot();
            crate::probes::sample_encode(&reg, tracer, obs);

            let stats = sim.stats();
            for (key, value) in [
                ("cluster.events", report.events_total()),
                ("cluster.cluster_events", report.cluster_events),
                ("cluster.sandboxes", report.sandboxes),
                ("cluster.placements", report.placements),
                ("cluster.placement_rejects", report.placement_rejects),
                ("cluster.departures", report.departures),
                ("cluster.migrations", report.migrations),
                ("cluster.slices", report.slices),
                ("cluster.ledger_compiles", report.ledger_compiles),
                ("cluster.program_binds", report.program_binds),
                ("cluster.sync_proofs", report.sync_proofs),
                ("cluster.full_proofs", report.full_proofs),
                ("cluster.sched_wall_ns", stats.sched_wall_ns),
                ("cluster.sync_wall_ns", stats.sync_wall_ns),
                ("cluster.slice_ops", host_counter(&snap, "slice_ops")),
                (
                    "cluster.block_migrations",
                    host_counter(&snap, "defrag_migrations"),
                ),
            ] {
                obs.tally(key, value as f64);
            }
        }
        pass
    }

    fn probe_inputs(&self, seed: u64) -> ProbeInputs {
        let s = scenario(seed);
        let (events, _) = cluster::generate_cluster_trace(&s);
        let vms = events
            .iter()
            .filter_map(|e| match e.kind {
                ClusterEventKind::Arrive {
                    mem_bytes, vcpus, ..
                } => Some(VmShape { mem_bytes, vcpus }),
                _ => None,
            })
            .collect();
        ProbeInputs {
            config: s.host_config,
            backend: s.mitigation,
            vms,
            roster: Roster::FleetTenants,
            ops: s.slice_ops as usize,
            working_set: s.slice_working_set,
            cell: sim::SimConfig::quick(),
            hosts: s.hosts,
            seed,
        }
    }

    fn layer_metrics(&self, obs: &Observations) -> Vec<(&'static str, f64)> {
        let attempts = obs.total("cluster.placements") + obs.total("cluster.placement_rejects");
        vec![
            (
                "cluster.boot_ms",
                median(obs.samples("cluster.boot_ns")) / 1e6,
            ),
            (
                "cluster.epoch_plain_ms_p50",
                median(obs.samples("epoch.plain")) / 1e6,
            ),
            (
                "cluster.epoch_sync_ms_mean",
                mean(obs.samples("epoch.sync")) / 1e6,
            ),
            (
                "cluster.epoch_defrag_ms_mean",
                mean(obs.samples("epoch.defrag")) / 1e6,
            ),
            ("cluster.share_defrag_frac", {
                let sum = |key: &str| obs.samples(key).iter().sum::<f64>();
                let defrag = sum("epoch.defrag");
                let all = defrag + sum("epoch.sync") + sum("epoch.plain");
                if all == 0.0 {
                    0.0
                } else {
                    defrag / all
                }
            }),
            (
                "cluster.defrag_rss_share_frac",
                obs.ratio("cluster.defrag_hwm_growth_mb", "cluster.hwm_mb"),
            ),
            (
                "cluster.sched_ns_per_event",
                obs.ratio("cluster.sched_wall_ns", "cluster.cluster_events"),
            ),
            (
                "cluster.sync_ms_per_proof",
                obs.ratio("cluster.sync_wall_ns", "cluster.sync_proofs") / 1e6,
            ),
            (
                "cluster.placement_reject_frac",
                if attempts == 0.0 {
                    0.0
                } else {
                    obs.total("cluster.placement_rejects") / attempts
                },
            ),
            (
                "cluster.migrations_per_kevent",
                obs.ratio("cluster.migrations", "cluster.events") * 1e3,
            ),
            (
                "cluster.ledger_compiles_per_sandbox",
                obs.ratio("cluster.ledger_compiles", "cluster.sandboxes"),
            ),
            (
                "cluster.report_ms",
                median(obs.samples("cluster.report_ns")) / 1e6,
            ),
        ]
    }

    fn attribution(&self, obs: &Observations, unit: &dyn Fn(&str) -> f64) -> Vec<(String, f64)> {
        let n = |key: &str| obs.total(key);
        let ops_per_slice = if n("cluster.slices") == 0.0 {
            0.0
        } else {
            n("cluster.slice_ops") / n("cluster.slices")
        };
        vec![
            (
                "cluster.scheduler".into(),
                n("cluster.placements") * unit("cluster.scheduler_place_ns") / 1e9,
            ),
            (
                "siloz.create_vm".into(),
                n("cluster.placements") * unit("siloz.create_vm_us_p50") / 1e6,
            ),
            (
                "siloz.destroy_vm".into(),
                (n("cluster.departures") + n("cluster.migrations"))
                    * unit("siloz.destroy_vm_us_p50")
                    / 1e6,
            ),
            (
                "siloz.migrate_block".into(),
                n("cluster.block_migrations") * unit("siloz.migrate_block_ms") / 1e3,
            ),
            (
                "workloads.draw+sim.compile".into(),
                n("cluster.ledger_compiles")
                    * ops_per_slice
                    * (unit("workloads.draw_ns_per_op") + unit("sim.compile_ns_per_op"))
                    / 1e9,
            ),
            (
                "sim.bind".into(),
                n("cluster.program_binds") * ops_per_slice * unit("sim.bind_ns_per_op") / 1e9,
            ),
            (
                "memctrl.replay".into(),
                n("cluster.slice_ops") * unit("memctrl.replay_ns_per_op") / 1e9,
            ),
            (
                "analysis.live_proof".into(),
                n("cluster.full_proofs") * unit("analysis.live_proof_us") / 1e6,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_classify_from_proof_and_sweep_deltas() {
        assert_eq!(EpochKind::classify(0, 0), EpochKind::Plain);
        assert_eq!(EpochKind::classify(1, 0), EpochKind::Sync);
        assert_eq!(EpochKind::classify(1, 40), EpochKind::Defrag);
        // Sweeps are only looked up at sync epochs; without a proof the
        // epoch is plain whatever the stale sweep delta says.
        assert_eq!(EpochKind::classify(0, 3), EpochKind::Plain);
    }

    #[test]
    fn the_scenario_keeps_the_scale_tier_shape_without_campaigns() {
        let s = scenario(11);
        let reference = ClusterScenario::scale(11, ClusterPolicy::Spread, HOSTS);
        assert_eq!(s.hosts, HOSTS);
        assert_eq!(s.target_sandboxes, HOSTS * 32);
        assert_eq!(s.attack_prob, 0.0);
        assert_eq!(s.defrag_period_epochs, reference.defrag_period_epochs);
        assert_eq!(
            s.defrag_period_epochs % s.sync_period,
            0,
            "defrag epochs must be sync epochs for the classifier"
        );
        let (events, _) = cluster::generate_cluster_trace(&s);
        assert!(!events.iter().any(|e| e.kind == ClusterEventKind::Attack));
    }
}
