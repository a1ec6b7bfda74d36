//! Noisy-neighbor colocation experiment (§8.4 context).
//!
//! Siloz isolates *disturbance* (security), not memory-controller bandwidth
//! (performance): subarray groups deliberately span every bank, so two
//! colocated tenants still contend for banks and channels exactly as on the
//! baseline. This experiment quantifies that: a latency-sensitive tenant
//! runs alone and then next to a bandwidth hog, under both hypervisors.
//! Expected shape: colocation hurts both hypervisors similarly — Siloz
//! neither adds interference nor (by design, §8.4) removes it; bank/channel
//! partitioning is future work.

use crate::engine::run_cells;
use crate::run::{vm_trace, SimConfig, TraceShape};
use dram::{DimmProfile, DramSystemBuilder};
use memctrl::{MemOp, MemoryController};
use siloz::{Hypervisor, HypervisorKind, SilozConfig, SilozError, VmSpec};
use telemetry::Registry;
use workloads::WorkloadGen;

/// Result of one colocation measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColocationResult {
    /// Victim tenant's mean memory latency running alone, ns.
    pub solo_latency_ns: f64,
    /// Victim tenant's mean memory latency next to the aggressor, ns.
    pub colocated_latency_ns: f64,
}

impl ColocationResult {
    /// Relative slowdown from colocation (1.0 = none).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.solo_latency_ns == 0.0 {
            return 1.0;
        }
        self.colocated_latency_ns / self.solo_latency_ns
    }
}

/// Builds a tenant's physical trace on threads `[thread_base, +threads)`.
fn tenant_trace(
    hv: &Hypervisor,
    vm: siloz::VmHandle,
    workload: &mut dyn WorkloadGen,
    ops: usize,
    threads: u16,
    thread_base: u16,
    seed: u64,
) -> Result<Vec<MemOp>, SilozError> {
    vm_trace(
        hv,
        vm,
        workload,
        &TraceShape {
            ops,
            threads,
            thread_base,
            seed,
        },
    )
}

/// Measures the victim workload's latency alone and colocated with the
/// aggressor workload, under `kind`, exporting stack-wide telemetry into
/// `reg`.
///
/// Both the solo and the colocated measurement export into the same
/// children (`ctrl`, `dram`, `hv`); totals are additive over the two
/// replays, so the snapshot is deterministic for a given configuration.
pub fn run_colocation(
    config: &SilozConfig,
    kind: HypervisorKind,
    victim: &mut dyn WorkloadGen,
    aggressor: &mut dyn WorkloadGen,
    sim: &SimConfig,
    seed: u64,
    reg: &Registry,
) -> Result<ColocationResult, SilozError> {
    let threads = sim.vcpus.clamp(1, 8) as u16;
    let measure = |with_aggressor: bool,
                   victim: &mut dyn WorkloadGen,
                   aggressor: &mut dyn WorkloadGen|
     -> Result<f64, SilozError> {
        let dram = DramSystemBuilder::new(config.geometry)
            .profiles(vec![DimmProfile::invulnerable()])
            .build();
        let mut hv =
            Hypervisor::boot_with(config.clone(), kind, dram, dram_addr::RepairMap::new())?;
        let vm_v = hv.create_vm(VmSpec::new("victim", sim.vcpus, sim.vm_memory))?;
        let trace_v = tenant_trace(&hv, vm_v, victim, sim.ops, threads, 0, seed)?;
        let merged: Vec<MemOp> = if with_aggressor {
            let vm_a = hv.create_vm(VmSpec::new("aggressor", sim.vcpus, sim.vm_memory))?;
            let trace_a = tenant_trace(
                &hv,
                vm_a,
                aggressor,
                sim.ops,
                threads,
                threads,
                seed ^ 0xa99,
            )?;
            // Interleave the two tenants' streams.
            let mut merged = Vec::with_capacity(trace_v.len() + trace_a.len());
            for (a, b) in trace_v.iter().zip(&trace_a) {
                merged.push(*a);
                merged.push(*b);
            }
            merged
        } else {
            trace_v
        };
        let mut ctrl = MemoryController::new(hv.decoder().clone()).without_physics();
        let result = ctrl.run_trace(hv.dram_mut(), merged);
        ctrl.export_telemetry(&reg.child("ctrl"));
        hv.dram().export_telemetry(&reg.child("dram"));
        hv.export_telemetry(&reg.child("hv"));
        Ok(result.mean_latency_ns_of(0..threads))
    };
    let solo = measure(false, victim, aggressor)?;
    let colocated = measure(true, victim, aggressor)?;
    Ok(ColocationResult {
        solo_latency_ns: solo,
        colocated_latency_ns: colocated,
    })
}

/// Everything a colocation suite run needs besides the workload factories
/// and the telemetry sink: which stack to boot, which hypervisor kinds to
/// compare, the simulation shape, the seed, and the engine worker count.
#[derive(Debug, Clone, Copy)]
pub struct SuitePlan<'a> {
    /// Stack configuration the hypervisors boot with.
    pub config: &'a SilozConfig,
    /// Hypervisor kinds to measure, in output order.
    pub kinds: &'a [HypervisorKind],
    /// Simulation shape (ops, repeats, VM memory, vCPUs, working set).
    pub sim: &'a SimConfig,
    /// Base RNG seed shared by every kind's cell.
    pub seed: u64,
    /// Engine worker threads to fan the kinds out over.
    pub threads: usize,
}

/// Measures colocation under each hypervisor kind concurrently — one engine
/// cell per kind, fanned out over `plan.threads` workers.
///
/// [`run_colocation`] deliberately reuses its workload *instances* between
/// the solo and colocated measurements, so parallelism lives at the
/// hypervisor-kind level: each cell builds fresh generators through the
/// factories, exactly as a serial loop constructing them per iteration
/// would, and results come back in `plan.kinds` order regardless of
/// scheduling.
///
/// Telemetry lands in `reg`: engine scheduling metrics at `engine`, and
/// each hypervisor kind's stack totals under a per-kind child (`baseline` /
/// `siloz`).
pub fn run_colocation_suite<V, A>(
    plan: &SuitePlan<'_>,
    victim: V,
    aggressor: A,
    reg: &Registry,
) -> Result<Vec<(HypervisorKind, ColocationResult)>, SilozError>
where
    V: Fn() -> Box<dyn WorkloadGen> + Sync,
    A: Fn() -> Box<dyn WorkloadGen> + Sync,
{
    let engine_reg = reg.child("engine");
    let results = run_cells(plan.kinds.len(), plan.threads, &engine_reg, |idx| {
        let mut v = victim();
        let mut a = aggressor();
        let kind_reg = reg.child(match plan.kinds[idx] {
            HypervisorKind::Baseline => "baseline",
            HypervisorKind::Siloz => "siloz",
        });
        run_colocation(
            plan.config,
            plan.kinds[idx],
            v.as_mut(),
            a.as_mut(),
            plan.sim,
            plan.seed,
            &kind_reg,
        )
    });
    plan.kinds
        .iter()
        .zip(results)
        .map(|(&kind, r)| r.map(|res| (kind, res)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mlc::{Mlc, MlcKind};
    use workloads::ycsb::{Ycsb, YcsbKind};

    fn quick_sim() -> SimConfig {
        SimConfig {
            ops: 15_000,
            repeats: 1,
            vm_memory: 128 << 20,
            vcpus: 4,
            working_set: 16 << 20,
        }
    }

    #[test]
    fn colocation_slows_the_victim_under_both_hypervisors() {
        let config = SilozConfig::mini();
        let sim = quick_sim();
        let mut results = Vec::new();
        for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
            let mut victim = Ycsb::new(YcsbKind::C, sim.working_set);
            let mut hog = Mlc::new(MlcKind::Reads, sim.working_set);
            let reg = Registry::new();
            let r = run_colocation(&config, kind, &mut victim, &mut hog, &sim, 3, &reg).unwrap();
            assert!(
                r.slowdown() > 1.02,
                "{kind:?}: a bandwidth hog must slow the victim ({:.3})",
                r.slowdown()
            );
            results.push(r.slowdown());
        }
        // Siloz neither amplifies nor removes performance interference:
        // slowdowns are in the same ballpark (within 25% of each other).
        let ratio = results[1] / results[0];
        assert!(
            (0.75..1.25).contains(&ratio),
            "baseline slowdown {:.3} vs siloz {:.3}",
            results[0],
            results[1]
        );
    }
}
