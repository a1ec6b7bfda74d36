//! `figure_cold` and `figure_warm`: Fig. 4 measurement cells through
//! [`sim::run_workload_compiled`] — generate → compile → bind → controller
//! replay → device, with no churn, no attack and no defrag.
//!
//! The cold workload gives every seed group a fresh [`TraceCache`], so it
//! uses the cache as a writer; the warm workload regenerates one group
//! against a populated cache, using it as a reader. A cold-path gain that
//! taxes lookups, keys or memoised outcomes shows on the second.

use crate::measure::{fnv1a, RegionTimer, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{Observations, Pass, ProbeInputs, Roster, VmShape, Workload};
use siloz::{HypervisorKind, SilozConfig};
use sim::{SimConfig, TraceCache};
use std::time::Instant;
use workloads::{WorkloadGen, EXEC_TIME_SUITE_LEN};

/// The two arms of a Fig. 4 comparison, in cell order.
const ARMS: [HypervisorKind; 2] = [HypervisorKind::Baseline, HypervisorKind::Siloz];

/// Cells in one seed group: every roster entry under both arms.
pub const CELLS_PER_GROUP: usize = EXEC_TIME_SUITE_LEN * ARMS.len();

/// Seed groups per cold pass.
const COLD_GROUPS: u64 = 4;

/// Regenerations of the group per warm pass.
const WARM_REGENERATIONS: u64 = 1_000;

/// Which side of the cache to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Fresh cache per seed group.
    Cold,
    /// One populated cache, regenerated repeatedly.
    Warm,
}

/// The figure-cell workloads.
pub struct Figure {
    kind: FigureKind,
    config: SilozConfig,
    cell: SimConfig,
}

impl Figure {
    /// The workload of the given kind on the evaluation host with the
    /// default cell shape (`ops = 120_000`).
    pub fn new(kind: FigureKind) -> Self {
        Self {
            kind,
            config: SilozConfig::evaluation(),
            cell: SimConfig::default(),
        }
    }

    fn roster(&self) -> Vec<Box<dyn WorkloadGen>> {
        (0..EXEC_TIME_SUITE_LEN)
            .map(|i| workloads::exec_time_workload(i, self.cell.working_set))
            .collect()
    }

    /// Measures one seed group's cells in roster order, both arms per
    /// entry (they share the entry's trace draw, as the figure does).
    /// Failed cells are counted on `pass` and yield NaN.
    fn group(
        &self,
        roster: &mut [Box<dyn WorkloadGen>],
        seed: u64,
        cache: &TraceCache,
        tracer: &mut Tracer,
        span: &'static str,
        pass: &mut Pass,
    ) -> Vec<f64> {
        let mut values = Vec::with_capacity(CELLS_PER_GROUP);
        for workload in roster.iter_mut() {
            for kind in ARMS {
                pass.attempted += 1;
                let id = tracer.open(span, "sim");
                let cell = sim::run_workload_compiled(
                    &self.config,
                    kind,
                    workload.as_mut(),
                    &self.cell,
                    seed,
                    cache,
                );
                tracer.close(id, 1, None);
                match cell {
                    Ok(v) if v.is_finite() => values.push(v),
                    Ok(v) => {
                        pass.fail(format!("{} under {kind:?}: value {v}", workload.name()));
                        values.push(f64::NAN);
                    }
                    Err(e) => {
                        pass.fail(format!("{} under {kind:?}: {e}", workload.name()));
                        values.push(f64::NAN);
                    }
                }
            }
        }
        values
    }
}

fn digest_values(state: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(state, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

impl Workload for Figure {
    fn pass(&mut self, seed: u64, tracer: &mut Tracer, obs: &mut Observations) -> Pass {
        let mut pass = Pass {
            digest: FNV_OFFSET,
            ..Pass::default()
        };
        match self.kind {
            FigureKind::Cold => {
                // Input generation: one generator roster and one empty
                // cache per seed group.
                let setup = Instant::now();
                let mut groups: Vec<(Vec<Box<dyn WorkloadGen>>, TraceCache)> = (0..COLD_GROUPS)
                    .map(|_| (self.roster(), TraceCache::new()))
                    .collect();
                pass.setup_s = setup.elapsed().as_secs_f64();

                let run = tracer.open("run", "process");
                let region = RegionTimer::start();
                for (g, (roster, cache)) in groups.iter_mut().enumerate() {
                    let group_seed = seed * COLD_GROUPS + g as u64;
                    let values =
                        self.group(roster, group_seed, cache, tracer, "cell.cold", &mut pass);
                    pass.digest = digest_values(pass.digest, &values);
                }
                pass.cost = region.stop();
                pass.events = COLD_GROUPS * CELLS_PER_GROUP as u64;
                tracer.close(run, pass.events, None);
            }
            FigureKind::Warm => {
                // Set-up is the cache population pass: the group's cells,
                // cold, into the cache every timed cell then reads.
                let setup = Instant::now();
                let cache = TraceCache::new();
                let mut roster = self.roster();
                let mut idle = Tracer::new(false);
                let cold = self.group(&mut roster, seed, &cache, &mut idle, "cell.cold", &mut pass);
                pass.setup_s = setup.elapsed().as_secs_f64();
                pass.digest = digest_values(pass.digest, &cold);

                // On a warm cache a cell reads its generator's identity and
                // never draws from it, so one roster serves every
                // regeneration.
                let run = tracer.open("run", "process");
                let region = RegionTimer::start();
                for _ in 0..WARM_REGENERATIONS {
                    let warm =
                        self.group(&mut roster, seed, &cache, tracer, "cell.warm", &mut pass);
                    let same = warm
                        .iter()
                        .zip(&cold)
                        .all(|(w, c)| w.to_bits() == c.to_bits());
                    pass.check(same, || {
                        format!("warm cells differ from cold: {warm:?} vs {cold:?}")
                    });
                }
                pass.cost = region.stop();
                pass.events = WARM_REGENERATIONS * CELLS_PER_GROUP as u64;
                tracer.close(run, pass.events, None);
            }
        }
        if tracer.enabled() {
            obs.tally("figure.cells", pass.events as f64);
            obs.tally("figure.groups", COLD_GROUPS as f64);
        }
        pass
    }

    fn probe_inputs(&self, seed: u64) -> ProbeInputs {
        ProbeInputs {
            config: self.config.clone(),
            backend: mitigation::Backend::Siloz,
            vms: vec![VmShape {
                mem_bytes: self.cell.vm_memory,
                vcpus: self.cell.vcpus,
            }],
            roster: Roster::ExecTimeSuite,
            ops: self.cell.ops,
            working_set: self.cell.working_set,
            cell: self.cell,
            hosts: 1,
            seed,
        }
    }

    fn layer_metrics(&self, _obs: &Observations) -> Vec<(&'static str, f64)> {
        // Cell timings come from the `sim` layer probe on every workload.
        Vec::new()
    }

    fn attribution(&self, obs: &Observations, unit: &dyn Fn(&str) -> f64) -> Vec<(String, f64)> {
        let cells = obs.total("figure.cells");
        match self.kind {
            FigureKind::Warm => vec![(
                "sim.cell_warm".into(),
                cells * unit("sim.cell_warm_us_p50") / 1e6,
            )],
            FigureKind::Cold => {
                let ops = self.cell.ops as f64;
                let groups = obs.total("figure.groups");
                // Per group: one ledger per roster entry (both arms share
                // it), one bind and one replay per cell, one boot and one
                // VM per arm.
                let ledgers = groups * EXEC_TIME_SUITE_LEN as f64;
                let arms = groups * ARMS.len() as f64;
                vec![
                    (
                        "workloads.draw+sim.compile".into(),
                        ledgers
                            * ops
                            * (unit("workloads.draw_ns_per_op") + unit("sim.compile_ns_per_op"))
                            / 1e9,
                    ),
                    (
                        "sim.bind".into(),
                        cells * ops * unit("sim.bind_ns_per_op") / 1e9,
                    ),
                    (
                        "memctrl.replay".into(),
                        cells * ops * unit("memctrl.replay_ns_per_op") / 1e9,
                    ),
                    ("siloz.boot".into(), arms * unit("siloz.boot_ms") / 1e3),
                    (
                        "siloz.create_vm".into(),
                        arms * unit("siloz.create_vm_us_p50") / 1e6,
                    ),
                ]
            }
        }
    }
}
