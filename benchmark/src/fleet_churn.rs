//! `fleet_soak` and `defended_fleet`: one host doing everything, driven
//! one [`FleetSim::step`] at a time.
//!
//! The CLI seed feeds only trace generation ([`fleet::generate_trace`]):
//! arrivals, sizes, lifetimes, expansions, slice times, defrag sweeps.
//! The engine itself runs under a fixed seed and a fixed number of attack
//! campaigns against the first tenants to arrive, so the aggressors'
//! Blacksmith pattern draws are common random numbers across seeds.
//! Pattern length alone moves one campaign's cost several-fold, and a
//! pass can afford only a handful of campaigns; left to the seed, that
//! draw would set the run-to-run spread of every metric on these two
//! workloads.

use crate::measure::{fnv1a, RegionTimer, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{Observations, Pass, ProbeInputs, Roster, VmShape, Workload};
use fleet::{EventKind, FleetSim, FleetStats, Scenario};
use numa::PlacementStrategy;
use std::time::Instant;

/// Seed of the engine's own streams (attack patterns, guest ledgers).
const ENGINE_SEED: u64 = 0x51_10_2b;

/// Which of the two single-host workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// `Scenario::soak` on the evaluation host under Siloz.
    Soak,
    /// `Scenario::quick` on the mini host behind BlockHammer.
    Defended,
}

/// The single-host churn workloads.
pub struct FleetChurn {
    kind: FleetKind,
}

impl FleetChurn {
    /// The workload of the given kind.
    pub fn new(kind: FleetKind) -> Self {
        Self { kind }
    }

    /// The scenario whose generated trace the pass replays. Sized so one
    /// pass takes a few seconds: the soak keeps `Scenario::soak`'s ratio
    /// of ~3 campaigns per 1000 pre-generated events, the defended run
    /// `attack_prob = 0.1`'s ~1 campaign per 30.
    fn trace_scenario(&self, seed: u64) -> Scenario {
        let mut s = match self.kind {
            FleetKind::Soak => {
                let mut s = Scenario::soak(seed, PlacementStrategy::FirstFit);
                s.target_events = 1_000;
                s
            }
            FleetKind::Defended => {
                let mut s = Scenario::quick(seed, PlacementStrategy::FirstFit);
                s.target_events = 60;
                s.mitigation = mitigation::Backend::BlockHammer;
                s
            }
        };
        s.attack_prob = 0.0;
        s
    }

    /// Campaigns injected per pass.
    fn campaigns(&self) -> u32 {
        match self.kind {
            FleetKind::Soak => 3,
            FleetKind::Defended => 2,
        }
    }
}

/// The [`FleetStats`] counters a step can move, copied out so a step can
/// be classified from the delta around it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounters {
    arrivals: u64,
    departures: u64,
    expand_attempts: u64,
    slices: u64,
    attacks: u64,
    defrag_sweeps: u64,
    full_proofs: u64,
    check_wall_ns: u64,
}

impl From<&FleetStats> for StepCounters {
    fn from(s: &FleetStats) -> Self {
        Self {
            arrivals: s.arrivals,
            departures: s.departures,
            expand_attempts: s.expansions + s.expand_denials,
            slices: s.slices,
            attacks: s.attacks,
            defrag_sweeps: s.defrag_sweeps,
            full_proofs: s.full_proofs,
            check_wall_ns: s.check_wall_ns,
        }
    }
}

/// What one engine step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A tenant arrived (admitted, deferred or rejected).
    Arrive,
    /// A VM was destroyed (and deferred tenants possibly re-admitted).
    Depart,
    /// A growth burst was granted or denied.
    Expand,
    /// A workload slice replayed.
    Slice,
    /// A hammer campaign ran (with its Copy-on-Flip response).
    Attack,
    /// A defragmentation sweep ran.
    Defrag,
    /// Nothing countable: an event for a tenant that is not live.
    Orphan,
}

impl StepKind {
    /// Every kind, in reporting order.
    pub const ALL: [StepKind; 7] = [
        StepKind::Arrive,
        StepKind::Depart,
        StepKind::Expand,
        StepKind::Slice,
        StepKind::Attack,
        StepKind::Defrag,
        StepKind::Orphan,
    ];

    /// Classifies a step from the counters before and after it. Exactly
    /// one event is dispatched per step, so at most one of these counters
    /// moves.
    pub fn classify(before: &StepCounters, after: &StepCounters) -> StepKind {
        if after.attacks > before.attacks {
            StepKind::Attack
        } else if after.defrag_sweeps > before.defrag_sweeps {
            StepKind::Defrag
        } else if after.slices > before.slices {
            StepKind::Slice
        } else if after.expand_attempts > before.expand_attempts {
            StepKind::Expand
        } else if after.arrivals > before.arrivals {
            StepKind::Arrive
        } else if after.departures > before.departures {
            StepKind::Depart
        } else {
            StepKind::Orphan
        }
    }

    /// The span name of a step of this kind, also the key its duration
    /// (ns) is sampled under.
    pub fn span_name(self) -> &'static str {
        match self {
            StepKind::Arrive => "step.arrive",
            StepKind::Depart => "step.depart",
            StepKind::Expand => "step.expand",
            StepKind::Slice => "step.slice",
            StepKind::Attack => "step.attack",
            StepKind::Defrag => "step.defrag",
            StepKind::Orphan => "step.orphan",
        }
    }
}

impl Workload for FleetChurn {
    fn pass(&mut self, seed: u64, tracer: &mut Tracer, obs: &mut Observations) -> Pass {
        let mut pass = Pass::default();
        let setup = Instant::now();
        let trace_scenario = self.trace_scenario(seed);
        let (events, _) = fleet::generate_trace(&trace_scenario);
        let mut engine_scenario = trace_scenario.clone();
        engine_scenario.seed = ENGINE_SEED;
        engine_scenario.target_events = 0;
        let mut sim = match FleetSim::new(engine_scenario) {
            Ok(sim) => sim,
            Err(e) => {
                pass.attempted = 1;
                pass.fail(format!("boot failed: {e}"));
                return pass;
            }
        };
        // Campaigns first, so they take sequence numbers 0..K whatever the
        // trace holds (the engine seeds each campaign from its tenant and
        // sequence number). The first K tenants arrive on an empty host
        // and are always admitted; each turns aggressor mid-life.
        let campaigns = self.campaigns();
        for ev in &events {
            if let EventKind::Arrive { lifetime, .. } = ev.kind {
                if ev.tenant < campaigns {
                    sim.inject(ev.at + (lifetime / 2).max(1), ev.tenant, EventKind::Attack);
                }
            }
        }
        for ev in &events {
            sim.inject(ev.at, ev.tenant, ev.kind);
        }
        pass.setup_s = setup.elapsed().as_secs_f64();

        let run = tracer.open("run", "process");
        let region = RegionTimer::start();
        let mut outcome = Ok(());
        if tracer.enabled() {
            // Step by step, classifying each step from the counters it moved.
            let mut before = StepCounters::from(sim.stats());
            loop {
                let id = tracer.open("step", "fleet");
                let t = Instant::now();
                let more = sim.step();
                let ns = t.elapsed().as_nanos() as f64;
                let after = StepCounters::from(sim.stats());
                let kind = StepKind::classify(&before, &after);
                let ran = matches!(more, Ok(true));
                tracer.close(id, u64::from(ran), ran.then_some(kind.span_name()));
                if !ran {
                    outcome = more.map(drop);
                    break;
                }
                obs.sample(kind.span_name(), ns);
                if after.full_proofs > before.full_proofs {
                    let proof_ns = after.check_wall_ns - before.check_wall_ns;
                    obs.sample("fleet.full_proof_ns", proof_ns as f64);
                }
                before = after;
            }
        }
        // Steps whatever is still queued (everything, untraced), then runs
        // the final §4.1 proof and snapshots the report.
        let proofs_before = StepCounters::from(sim.stats());
        let report = outcome.and_then(|()| sim.run_to_completion());
        pass.cost = region.stop();
        pass.events = sim.stats().events_processed;
        pass.attempted = pass.events.max(1);
        tracer.close(run, pass.events, None);

        let report = match report {
            Ok(report) => report,
            Err(e) => {
                pass.fail(format!("step failed: {e}"));
                return pass;
            }
        };
        let siloz = trace_scenario.mitigation == mitigation::Backend::Siloz;
        pass.check(report.violations_total == 0, || {
            format!("isolation violated: {:?}", report.violation_samples)
        });
        pass.check(!siloz || report.attack_escapes == 0, || {
            format!("{} flips escaped under Siloz", report.attack_escapes)
        });
        pass.check(report.final_live == 0, || {
            format!("{} VMs live at drain", report.final_live)
        });
        pass.check(report.groups_claimed == 0, || {
            format!("{} groups claimed at drain", report.groups_claimed)
        });
        pass.check(report.attacks == u64::from(campaigns), || {
            format!("{} of {campaigns} campaigns ran", report.attacks)
        });
        pass.digest = fnv1a(FNV_OFFSET, report.to_json().render().as_bytes());

        if tracer.enabled() {
            let stats = sim.stats();
            let drained = StepCounters::from(stats);
            if drained.full_proofs > proofs_before.full_proofs {
                let proof_ns = drained.check_wall_ns - proofs_before.check_wall_ns;
                obs.sample("fleet.full_proof_ns", proof_ns as f64);
            }
            let admission = sim.admission();
            for (key, value) in [
                ("fleet.events", stats.events_processed),
                ("fleet.arrivals", stats.arrivals),
                (
                    "fleet.admitted",
                    admission.admitted + admission.deferred_admits,
                ),
                ("fleet.rejections", admission.rejections),
                ("fleet.departures", stats.departures),
                ("fleet.expansions", stats.expansions),
                ("fleet.slices", stats.slices),
                ("fleet.slice_ops", stats.slice_ops),
                ("fleet.ledger_compiles", stats.ledger_compiles),
                ("fleet.program_binds", stats.program_binds),
                ("fleet.attacks", stats.attacks),
                (
                    "fleet.block_migrations",
                    stats.defrag_migrations + stats.cof_migrated,
                ),
                ("fleet.full_proofs", stats.full_proofs),
                ("fleet.check_wall_ns", stats.check_wall_ns),
            ] {
                obs.tally(key, value as f64);
            }
            let reg = telemetry::Registry::new();
            let ((), ns) = tracer.timed("fleet.export_telemetry", "telemetry", || {
                sim.export_telemetry(&reg);
            });
            obs.sample("telemetry.export_ms", ns / 1e6);
            crate::probes::sample_encode(&reg, tracer, obs);
        }
        pass
    }

    fn probe_inputs(&self, seed: u64) -> ProbeInputs {
        let s = self.trace_scenario(seed);
        let (events, _) = fleet::generate_trace(&s);
        let vms = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Arrive {
                    mem_bytes, vcpus, ..
                } => Some(VmShape { mem_bytes, vcpus }),
                _ => None,
            })
            .collect();
        let cell = match self.kind {
            FleetKind::Soak => sim::SimConfig::default(),
            FleetKind::Defended => sim::SimConfig::quick(),
        };
        ProbeInputs {
            config: s.config,
            backend: s.mitigation,
            vms,
            roster: Roster::FleetTenants,
            ops: s.slice_ops as usize,
            working_set: s.slice_working_set,
            cell,
            hosts: 1,
            seed,
        }
    }

    fn layer_metrics(&self, obs: &Observations) -> Vec<(&'static str, f64)> {
        use crate::measure::{mean, median};
        let us = |key: &str| median(obs.samples(key)) / 1e3;
        let ms_mean = |key: &str| mean(obs.samples(key)) / 1e6;
        let sum = |kind: StepKind| obs.samples(kind.span_name()).iter().sum::<f64>();
        let total: f64 = StepKind::ALL.into_iter().map(sum).sum();
        let share = |kinds: &[StepKind]| {
            if total == 0.0 {
                0.0
            } else {
                kinds.iter().copied().map(sum).sum::<f64>() / total
            }
        };
        vec![
            ("fleet.step_arrive_us_p50", us("step.arrive")),
            ("fleet.step_depart_us_p50", us("step.depart")),
            ("fleet.step_expand_us_p50", us("step.expand")),
            ("fleet.step_slice_us_p50", us("step.slice")),
            ("fleet.step_attack_ms_mean", ms_mean("step.attack")),
            ("fleet.step_defrag_ms_mean", ms_mean("step.defrag")),
            (
                "fleet.share_lifecycle_frac",
                share(&[StepKind::Arrive, StepKind::Depart, StepKind::Expand]),
            ),
            ("fleet.share_slice_frac", share(&[StepKind::Slice])),
            ("fleet.share_attack_frac", share(&[StepKind::Attack])),
            ("fleet.share_defrag_frac", share(&[StepKind::Defrag])),
            (
                "fleet.check_us_per_event",
                obs.ratio("fleet.check_wall_ns", "fleet.events") / 1e3,
            ),
            (
                "fleet.full_proof_us",
                mean(obs.samples("fleet.full_proof_ns")) / 1e3,
            ),
            (
                "fleet.admit_reject_frac",
                obs.ratio("fleet.rejections", "fleet.arrivals"),
            ),
            (
                "fleet.compiles_per_slice",
                obs.ratio("fleet.ledger_compiles", "fleet.slices"),
            ),
            (
                "fleet.binds_per_slice",
                obs.ratio("fleet.program_binds", "fleet.slices"),
            ),
        ]
    }

    fn attribution(&self, obs: &Observations, unit: &dyn Fn(&str) -> f64) -> Vec<(String, f64)> {
        let n = |key: &str| obs.total(key);
        let ops_per_slice = if n("fleet.slices") == 0.0 {
            0.0
        } else {
            n("fleet.slice_ops") / n("fleet.slices")
        };
        let campaign_ms = match self.kind {
            FleetKind::Soak => unit("hammer.campaign_ms"),
            FleetKind::Defended => unit("hammer.campaign_defended_ms"),
        };
        vec![
            (
                "siloz.create_vm".into(),
                n("fleet.admitted") * unit("siloz.create_vm_us_p50") / 1e6,
            ),
            (
                "siloz.destroy_vm".into(),
                n("fleet.departures") * unit("siloz.destroy_vm_us_p50") / 1e6,
            ),
            (
                "siloz.expand_vm".into(),
                n("fleet.expansions") * unit("siloz.expand_vm_us_p50") / 1e6,
            ),
            (
                "siloz.migrate_block".into(),
                n("fleet.block_migrations") * unit("siloz.migrate_block_ms") / 1e3,
            ),
            (
                "workloads.draw+sim.compile".into(),
                n("fleet.ledger_compiles")
                    * ops_per_slice
                    * (unit("workloads.draw_ns_per_op") + unit("sim.compile_ns_per_op"))
                    / 1e9,
            ),
            (
                "sim.bind".into(),
                n("fleet.program_binds") * ops_per_slice * unit("sim.bind_ns_per_op") / 1e9,
            ),
            (
                "memctrl.replay".into(),
                n("fleet.slice_ops") * unit("memctrl.replay_ns_per_op") / 1e9,
            ),
            (
                "hammer.campaign".into(),
                n("fleet.attacks") * campaign_ms / 1e3,
            ),
            (
                "analysis.live_proof".into(),
                n("fleet.full_proofs") * unit("analysis.live_proof_us") / 1e6,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_classify_from_the_counter_that_moved() {
        let base = StepCounters::default();
        let moved = |f: fn(&mut StepCounters)| {
            let mut after = base;
            f(&mut after);
            StepKind::classify(&base, &after)
        };
        assert_eq!(moved(|c| c.arrivals += 1), StepKind::Arrive);
        assert_eq!(moved(|c| c.departures += 1), StepKind::Depart);
        assert_eq!(moved(|c| c.expand_attempts += 1), StepKind::Expand);
        assert_eq!(moved(|c| c.slices += 1), StepKind::Slice);
        assert_eq!(moved(|c| c.attacks += 1), StepKind::Attack);
        assert_eq!(moved(|c| c.defrag_sweeps += 1), StepKind::Defrag);
        assert_eq!(moved(|_| {}), StepKind::Orphan);
        // Proofs and check time ride along with whatever the step did.
        assert_eq!(
            moved(|c| {
                c.slices += 1;
                c.full_proofs += 1;
                c.check_wall_ns += 900;
            }),
            StepKind::Slice
        );
        assert_eq!(moved(|c| c.full_proofs += 1), StepKind::Orphan);
    }

    #[test]
    fn denied_and_granted_expansions_are_both_expand_steps() {
        let mut stats = FleetStats::default();
        let before = StepCounters::from(&stats);
        stats.expand_denials += 1;
        let denied = StepCounters::from(&stats);
        assert_eq!(StepKind::classify(&before, &denied), StepKind::Expand);
        stats.expansions += 1;
        let granted = StepCounters::from(&stats);
        assert_eq!(StepKind::classify(&denied, &granted), StepKind::Expand);
    }

    #[test]
    fn the_first_tenants_to_arrive_carry_the_lowest_ids() {
        // Campaign injection targets tenants `0..K` and relies on them
        // arriving first, onto an empty host.
        for kind in [FleetKind::Soak, FleetKind::Defended] {
            let w = FleetChurn::new(kind);
            let (events, _) = fleet::generate_trace(&w.trace_scenario(5));
            let first: Vec<u32> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Arrive { .. }))
                .map(|e| e.tenant)
                .take(w.campaigns() as usize)
                .collect();
            assert_eq!(first, (0..w.campaigns()).collect::<Vec<_>>());
            assert!(
                !events.iter().any(|e| e.kind == EventKind::Attack),
                "the generated trace itself carries no campaigns"
            );
        }
    }
}
