//! What every benchmark workload has in common: one closed-loop *pass*
//! (set up from a seed, run to drain, check the outputs), the samples a
//! traced pass leaves behind, and the inputs the layer probes replay.

use crate::measure::RegionCost;
use crate::trace::Tracer;
use siloz::SilozConfig;
use std::collections::BTreeMap;

/// The outcome of one closed-loop pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds from the start of the pass to its first timed event:
    /// boot/`new`, input generation, cache population.
    pub setup_s: f64,
    /// What the timed region cost.
    pub cost: RegionCost,
    /// Machine speed around the pass relative to the reference (filled in
    /// by the driver loop from its [`crate::measure::SpeedProbe`]).
    pub machine_speed: f64,
    /// Simulated events completed in the timed region.
    pub events: u64,
    /// Steps attempted (epochs, engine steps, cells) plus end-of-pass
    /// output checks.
    pub attempted: u64,
    /// Steps or checks that failed.
    pub failed: u64,
    /// First few failure messages, verbatim.
    pub failures: Vec<String>,
    /// FNV-1a of the pass's rendered report / cell values.
    pub digest: u64,
}

impl Pass {
    /// Records one end-of-pass output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed step.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Raw per-layer observations from traced passes: timing samples keyed by
/// what was timed, and exact counts taken at the same boundaries.
#[derive(Debug, Default)]
pub struct Observations {
    samples: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
}

impl Observations {
    /// Records one timing sample under `key`.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Accumulates `value` into the running total under `key`.
    pub fn tally(&mut self, key: &'static str, value: f64) {
        *self.totals.entry(key).or_insert(0.0) += value;
    }

    /// The samples recorded under `key` (empty if none).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Every sample key, ascending.
    pub fn sample_keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.keys().copied()
    }

    /// The running total under `key` (0 if never tallied).
    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    /// Every `(key, total)`, ascending by key.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.totals.iter().map(|(k, v)| (*k, *v))
    }

    /// `total(num) / total(den)`, or 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.total(den);
        if d == 0.0 {
            0.0
        } else {
            self.total(num) / d
        }
    }
}

/// One VM request of the workload's own generated trace.
#[derive(Debug, Clone, Copy)]
pub struct VmShape {
    /// Requested guest RAM, bytes.
    pub mem_bytes: u64,
    /// Requested vCPUs.
    pub vcpus: u32,
}

/// Which guest load generators the workload's slices/cells draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// `workloads::fleet_tenant_workload(tenant, ..)` (fleet and cluster).
    FleetTenants,
    /// `workloads::exec_time_workload(i, ..)` (Fig. 4 cells).
    ExecTimeSuite,
}

/// The workload's own inputs, as the layer probes replay them.
#[derive(Debug, Clone)]
pub struct ProbeInputs {
    /// Boot configuration of the simulated host(s).
    pub config: SilozConfig,
    /// The deployed defense (decides hypervisor kind and controller hook).
    pub backend: mitigation::Backend,
    /// VM requests from the workload's generated trace, in arrival order.
    pub vms: Vec<VmShape>,
    /// Guest load generators.
    pub roster: Roster,
    /// Guest ops per slice / cell.
    pub ops: usize,
    /// Guest working set, bytes.
    pub working_set: u64,
    /// Shape of a Fig. 4 measurement cell under this configuration.
    pub cell: sim::SimConfig,
    /// Hosts the scheduler probe spans (1 for single-host workloads).
    pub hosts: u32,
    /// Seed for the probes' own draws.
    pub seed: u64,
}

/// A benchmark workload.
pub trait Workload {
    /// Runs one closed-loop pass on inputs generated from `seed`. With an
    /// enabled `tracer` the pass also records a span per step and leaves
    /// per-layer samples and counts in `obs`; simulated behaviour is
    /// identical either way.
    fn pass(&mut self, seed: u64, tracer: &mut Tracer, obs: &mut Observations) -> Pass;

    /// The inputs the layer probes replay for this workload.
    fn probe_inputs(&self, seed: u64) -> ProbeInputs;

    /// The per-layer metrics this workload's traced passes yield, from the
    /// observations they left (`(metric name, value)`).
    fn layer_metrics(&self, obs: &Observations) -> Vec<(&'static str, f64)>;

    /// Probe unit costs × this workload's own operation counts: the share
    /// of timed CPU the outside-in probes can account for, in seconds,
    /// per term. `unit` looks up a probe metric by name.
    fn attribution(&self, obs: &Observations, unit: &dyn Fn(&str) -> f64) -> Vec<(String, f64)>;
}
