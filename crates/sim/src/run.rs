//! Running one workload inside one VM under one hypervisor.

use crate::cache::{BoundEnv, CellOutcome, LedgerKey, TraceCache};
use crate::compile::GuestLedger;
use crate::noise::noisy;
use dram::{DimmProfile, DramSystem, DramSystemBuilder};
use memctrl::{CompiledTrace, MemOp, MemoryController, TraceResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use siloz::{BackingBlock, Hypervisor, HypervisorKind, SilozConfig, SilozError, VmSpec};
use std::sync::Arc;
use telemetry::Registry;
use workloads::{Metric, WorkloadGen};

/// Precomputed guest-offset → host-physical translation over a VM's
/// unmediated backing blocks.
///
/// When total RAM and the block size are both powers of two — the common
/// case for every geometry in this repo — the per-op wrap/index/offset
/// chain reduces to one mask, one shift, and one mask instead of three
/// 64-bit divisions.
pub(crate) struct HpaMap {
    blocks: Vec<BackingBlock>,
    ram_bytes: u64,
    block_bytes: u64,
    /// `(ram_mask, blk_shift, blk_mask)` when both sizes are powers of two.
    pow2: Option<(u64, u32, u64)>,
}

impl HpaMap {
    pub(crate) fn new(blocks: Vec<BackingBlock>) -> Self {
        assert!(!blocks.is_empty());
        let block_bytes = blocks[0].bytes();
        let ram_bytes: u64 = blocks.iter().map(|b| b.bytes()).sum();
        let pow2 = (ram_bytes.is_power_of_two() && block_bytes.is_power_of_two())
            .then(|| (ram_bytes - 1, block_bytes.trailing_zeros(), block_bytes - 1));
        Self {
            blocks,
            ram_bytes,
            block_bytes,
            pow2,
        }
    }

    /// Translates a guest offset (wrapped into RAM) to a host physical
    /// address.
    #[inline]
    pub(crate) fn to_hpa(&self, guest: u64) -> u64 {
        if let Some((ram_mask, blk_shift, blk_mask)) = self.pow2 {
            let guest = guest & ram_mask;
            self.blocks[(guest >> blk_shift) as usize].hpa() + (guest & blk_mask)
        } else {
            let guest = guest % self.ram_bytes;
            let idx = (guest / self.block_bytes) as usize;
            self.blocks[idx].hpa() + guest % self.block_bytes
        }
    }
}

/// Shape of one tenant's physical trace: how many guest ops to draw, how
/// many vCPU streams to deal them across, the global thread-id base those
/// streams start at (so several tenants' traces can interleave through one
/// controller without colliding), and the RNG seed for the draw.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Guest operations to generate.
    pub ops: usize,
    /// vCPU streams the ops are dealt to (chains stay within a stream).
    pub threads: u16,
    /// First global controller thread id of this tenant's streams.
    pub thread_base: u16,
    /// Seed for the workload draw.
    pub seed: u64,
}

/// Builds one tenant's physical [`MemOp`] trace: draws `shape.ops` guest
/// operations from `workload`, deals each logical request (a chain starting
/// at a non-dependent op) round-robin to the tenant's vCPU streams, and
/// resolves guest offsets through the VM's actual unmediated backing.
///
/// Shared by the colocation experiment and the fleet simulator's per-VM
/// load generators.
///
/// # Errors
///
/// Fails if `vm` is unknown to `hv`.
pub fn vm_trace(
    hv: &Hypervisor,
    vm: siloz::VmHandle,
    workload: &mut dyn WorkloadGen,
    shape: &TraceShape,
) -> Result<Vec<MemOp>, SilozError> {
    let hpa_map = HpaMap::new(hv.vm_unmediated_backing(vm)?);
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let ledger = GuestLedger::generate(workload, shape.ops, shape.threads, &mut rng);
    Ok(ledger.expand_mem_ops(&hpa_map, shape.thread_base))
}

/// Binds an already-compiled [`GuestLedger`] to a VM's concrete backing,
/// emitting a pre-decoded replay program for
/// [`MemoryController::run_compiled`]. The fleet's load generators compile
/// each tenant's ledger once and re-bind it here whenever the tenant's
/// backing changes (respawn, expansion, defrag migration).
///
/// # Errors
///
/// Fails if `vm` is unknown to `hv`.
pub fn vm_compiled(
    hv: &Hypervisor,
    vm: siloz::VmHandle,
    ledger: &GuestLedger,
    thread_base: u16,
) -> Result<CompiledTrace, SilozError> {
    let hpa_map = HpaMap::new(hv.vm_unmediated_backing(vm)?);
    Ok(ledger.bind(&hpa_map, hv.decoder().clone(), thread_base))
}

/// Simulation parameters shared across experiment runs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Memory operations replayed per measurement.
    pub ops: usize,
    /// Repeats (independent seeds) per configuration, for error bars.
    pub repeats: u32,
    /// VM memory size (must cover the workloads' working sets).
    pub vm_memory: u64,
    /// VM vCPUs.
    pub vcpus: u32,
    /// Workload working-set size.
    pub working_set: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            ops: 120_000,
            repeats: 5,
            vm_memory: 3 << 30,
            vcpus: 40,
            working_set: 256 << 20,
        }
    }
}

impl SimConfig {
    /// A smaller configuration for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            ops: 20_000,
            repeats: 3,
            vm_memory: 256 << 20,
            vcpus: 4,
            working_set: 32 << 20,
        }
    }
}

/// Domain separator for the measurement-noise RNG stream (`"noise_v1"`),
/// keeping noise draws independent of the workload draw even when both
/// halves of a [`RunSeeds`] carry the same value.
pub const NOISE_DOMAIN: u64 = 0x6e6f_6973_655f_7631;

/// The two independent random streams of one measurement cell.
///
/// The *trace* seed drives the workload draw (which guest ops run); the
/// *noise* seed drives the run-to-run measurement noise. Splitting them
/// lets paired configurations share one trace draw — common random numbers
/// across a comparison, and one [`GuestLedger`] compile instead of two —
/// while still sampling independent nuisance factors per measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeeds {
    /// Seed for the workload draw (and substrate preload).
    pub trace: u64,
    /// Seed for the measurement-noise stream.
    pub noise: u64,
}

impl RunSeeds {
    /// Both streams keyed by one seed — the single-seed entry points'
    /// behavior.
    #[must_use]
    pub fn uniform(seed: u64) -> Self {
        Self {
            trace: seed,
            noise: seed,
        }
    }

    fn noise_rng(self) -> StdRng {
        StdRng::seed_from_u64(self.noise ^ NOISE_DOMAIN)
    }
}

/// How a measurement cell replays its trace.
#[derive(Clone, Copy)]
pub(crate) enum Replay<'a> {
    /// Generate, translate, and decode per cell; replay via
    /// [`MemoryController::run_trace`]. The equivalence oracle.
    Direct,
    /// Reuse compiled ledgers, pooled substrates, booted environments, and
    /// replay outcomes through this [`TraceCache`]; replay via
    /// [`MemoryController::run_compiled`]. Bit-identical to [`Self::Direct`].
    Compiled(&'a TraceCache),
}

/// One arm of a comparison: the configuration and hypervisor kind a cell
/// boots, and the mitigation backend whose controller hook (if it has one)
/// is installed for the replay — the arena grid's axis. Backends without a
/// hook (`None`, `Siloz`) leave the cell byte-for-byte identical to an
/// undefended one: `Siloz`'s defense is the placement kind itself.
pub(crate) type Arm<'a> = (&'a SilozConfig, HypervisorKind, Option<mitigation::Backend>);

/// One measured sample: execution time in milliseconds (ExecTime) or
/// bandwidth in GiB/s (Throughput), through the direct replay path — the
/// reference [`run_workload_compiled`] is pinned against.
///
/// After the trace replay, the memory controller's totals land in `reg`'s
/// `ctrl` child, the device model's in `dram`, and the hypervisor's VM /
/// EPT accounting in `hv`. All exported metrics merge by addition, so many
/// concurrent runs can share one registry and the merged snapshot is
/// independent of scheduling order.
pub fn run_workload(
    config: &SilozConfig,
    kind: HypervisorKind,
    workload: &mut dyn WorkloadGen,
    sim: &SimConfig,
    seed: u64,
    reg: &Registry,
) -> Result<f64, SilozError> {
    workload_cell(
        (config, kind, None),
        CellWorkload::Ready(workload),
        sim,
        RunSeeds::uniform(seed),
        Replay::Direct,
        reg,
    )
}

/// [`run_workload`] through the trace compiler: the sample is bit-identical
/// to the direct path, but ledgers, substrates, booted environments, and
/// replay outcomes are shared through `cache` across every cell that can
/// reuse them.
pub fn run_workload_compiled(
    config: &SilozConfig,
    kind: HypervisorKind,
    workload: &mut dyn WorkloadGen,
    sim: &SimConfig,
    seed: u64,
    cache: &TraceCache,
) -> Result<f64, SilozError> {
    run_workload_compiled_observed(config, kind, workload, sim, seed, cache, &Registry::new())
}

/// [`run_workload_compiled`] that also exports stack-wide telemetry into
/// `reg` — the same `ctrl`/`dram`/`hv` children, with identical values, as
/// [`run_workload`].
///
/// The one sink-less/sink-taking pair left in the workspace: the benchmark
/// harness (`benchmark/`, which a PR touching `crates/` may not edit) calls
/// [`run_workload_compiled`] by its six-argument signature, so that name
/// cannot grow the `reg` parameter until a benchmark PR moves its callers.
pub fn run_workload_compiled_observed(
    config: &SilozConfig,
    kind: HypervisorKind,
    workload: &mut dyn WorkloadGen,
    sim: &SimConfig,
    seed: u64,
    cache: &TraceCache,
    reg: &Registry,
) -> Result<f64, SilozError> {
    workload_cell(
        (config, kind, None),
        CellWorkload::Ready(workload),
        sim,
        RunSeeds::uniform(seed),
        Replay::Compiled(cache),
        reg,
    )
}

/// Boots the measurement environment for one configuration: hypervisor
/// with an invulnerable DIMM (disturbance bookkeeping off — allocation
/// policy is what is being measured), one VM, and its guest→HPA map.
fn boot_env(
    config: &SilozConfig,
    kind: HypervisorKind,
    sim: &SimConfig,
) -> Result<BoundEnv, SilozError> {
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(vec![DimmProfile::invulnerable()])
        .build();
    let mut hv = Hypervisor::boot_with(config.clone(), kind, dram, dram_addr::RepairMap::new())?;
    let vm = hv.create_vm(VmSpec::new("perf-vm", sim.vcpus, sim.vm_memory))?;
    let hpa = HpaMap::new(hv.vm_unmediated_backing(vm)?);
    Ok(BoundEnv { hv, hpa })
}

/// Converts a replay result into the cell's sample and exports telemetry.
fn finish_cell(
    metric: Metric,
    result: &TraceResult,
    ctrl: &MemoryController,
    env: &BoundEnv,
    seeds: RunSeeds,
    reg: &Registry,
) -> f64 {
    ctrl.export_telemetry(&reg.child("ctrl"));
    env.hv.dram().export_telemetry(&reg.child("dram"));
    env.hv.export_telemetry(&reg.child("hv"));
    let raw = match metric {
        Metric::ExecTime => result.elapsed_ms(),
        Metric::Throughput => result.bandwidth_gib_s(),
    };
    noisy(raw, &mut seeds.noise_rng())
}

/// A cell's workload: either a generator the caller already built (the
/// public single-cell entry points) or a deferred build (grid drivers).
/// Compiled cells only invoke a deferred build when the ledger for the
/// cell's draw is not already cached — on a warm cache, no workload (or
/// substrate preload) is constructed at all.
pub(crate) enum CellWorkload<'a> {
    /// A ready generator; its identity is read off the instance.
    Ready(&'a mut dyn WorkloadGen),
    /// Identity known up front, generator built on demand.
    Deferred {
        /// [`WorkloadGen::name`] of the workload `build` produces.
        name: String,
        /// [`WorkloadGen::working_set`] of the built workload.
        working_set: u64,
        /// [`WorkloadGen::metric`] of the built workload.
        metric: Metric,
        /// Builds the generator (invoked at most once).
        build: Box<dyn FnOnce() -> Box<dyn WorkloadGen> + 'a>,
    },
}

impl CellWorkload<'_> {
    /// `(name, working_set, metric)` without forcing a deferred build.
    fn identity(&self) -> (String, u64, Metric) {
        match self {
            CellWorkload::Ready(w) => (w.name(), w.working_set(), w.metric()),
            CellWorkload::Deferred {
                name,
                working_set,
                metric,
                ..
            } => (name.clone(), *working_set, *metric),
        }
    }
}

/// One measurement cell: both the direct path and the compiled path, which
/// the equivalence battery pins bit-identical (samples *and* exported
/// telemetry).
pub(crate) fn workload_cell(
    (config, kind, defense): Arm<'_>,
    workload: CellWorkload<'_>,
    sim: &SimConfig,
    seeds: RunSeeds,
    replay: Replay<'_>,
    reg: &Registry,
) -> Result<f64, SilozError> {
    // Deal each logical request (a chain starting at a non-dependent op) to
    // the next vCPU, as a multi-threaded server would; dependencies stay
    // within their thread.
    let threads = sim.vcpus.clamp(1, 16) as u16;
    let (name, working_set, metric) = workload.identity();
    match replay {
        Replay::Direct => {
            let mut built;
            let workload: &mut dyn WorkloadGen = match workload {
                CellWorkload::Ready(w) => w,
                CellWorkload::Deferred { build, .. } => {
                    built = build();
                    built.as_mut()
                }
            };
            let mut env = boot_env(config, kind, sim)?;
            let mut rng = StdRng::seed_from_u64(seeds.trace);
            let ledger = GuestLedger::generate(workload, sim.ops, threads, &mut rng);
            let trace = ledger.expand_mem_ops(&env.hpa, 0);
            let mut ctrl = MemoryController::new(env.hv.decoder().clone()).without_physics();
            if let Some(hook) = defense.and_then(mitigation::Backend::controller_hook) {
                ctrl = ctrl.with_mitigation(hook);
            }
            let result = ctrl.run_trace(env.hv.dram_mut(), trace);
            Ok(finish_cell(metric, &result, &ctrl, &env, seeds, reg))
        }
        Replay::Compiled(cache) => {
            let ledger_key: LedgerKey = (name, working_set, sim.ops, threads, seeds.trace);
            // Environment identity covers every configuration axis a cell
            // can vary: hypervisor kind, VM shape, the full config
            // (geometry, subarray size, policy toggles), and — when one is
            // installed — the controller defense, since a hooked replay's
            // outcome is not interchangeable with an undefended one.
            let hook_tag = match defense {
                Some(d) if d.controller_hook().is_some() => d.name(),
                _ => "",
            };
            let env_key = format!(
                "{kind:?}|{}|{}|{config:?}|{hook_tag}",
                sim.vm_memory, sim.vcpus
            );
            let env = cache.env(&env_key, || boot_env(config, kind, sim))?;
            // Cells replay with physics off against a fresh controller and
            // scratch device, so the whole outcome is a pure function of
            // (ledger, env): a recurring measurement is never re-simulated.
            let outcome = cache.replay(&ledger_key, &env_key, || {
                let ledger = cache.ledger(&ledger_key, || {
                    let mut built;
                    let workload: &mut dyn WorkloadGen = match workload {
                        CellWorkload::Ready(w) => w,
                        CellWorkload::Deferred { build, .. } => {
                            built = build();
                            built.as_mut()
                        }
                    };
                    let mut rng = StdRng::seed_from_u64(seeds.trace);
                    // Substrate pool: workloads sharing one load phase
                    // (e.g. all six YCSB mixes over one store size) adopt
                    // the pooled post-load snapshot and resume the pooled
                    // RNG, skipping the preload while drawing
                    // byte-identical traces.
                    if let Some(substrate) = workload.substrate_key() {
                        let pool_key = (substrate, seeds.trace);
                        if let Some((snap, loaded_rng)) = cache.substrate(&pool_key) {
                            workload.adopt_substrate(&snap);
                            rng = loaded_rng;
                        } else {
                            workload.preload(&mut rng);
                            if let Some(snap) = workload.export_substrate() {
                                cache.store_substrate(pool_key, snap, rng.clone());
                            }
                        }
                    }
                    Arc::new(GuestLedger::generate(workload, sim.ops, threads, &mut rng))
                });
                let program = ledger.bind(&env.hpa, env.hv.decoder().clone(), 0);
                // The env is shared and immutable; replay drives a
                // per-cell scratch device (never touched with physics
                // disabled).
                let mut scratch = DramSystem::new(config.geometry);
                let mut ctrl = MemoryController::new(env.hv.decoder().clone()).without_physics();
                if let Some(hook) = defense.and_then(mitigation::Backend::controller_hook) {
                    ctrl = ctrl.with_mitigation(hook);
                }
                let result = ctrl.run_compiled(&mut scratch, &program);
                Arc::new(CellOutcome { result, ctrl })
            });
            Ok(finish_cell(
                metric,
                &outcome.result,
                &outcome.ctrl,
                &env,
                seeds,
                reg,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mlc::{Mlc, MlcKind};
    use workloads::ycsb::{Ycsb, YcsbKind};

    /// One direct-path sample on the mini configuration.
    fn sample(kind: HypervisorKind, wl: &mut dyn WorkloadGen, sim: &SimConfig, seed: u64) -> f64 {
        run_workload(&SilozConfig::mini(), kind, wl, sim, seed, &Registry::new()).unwrap()
    }

    fn block(gpa: u64, frame: u64, order: u8) -> BackingBlock {
        BackingBlock {
            gpa,
            frame,
            order,
            node: numa::NodeId(0),
        }
    }

    #[test]
    fn hpa_map_fast_path_matches_division_chain() {
        // 4 × 2 MiB blocks: RAM and block size both powers of two, so the
        // mask/shift fast path is taken; check it against the plain
        // modulo/divide chain it replaces.
        let blocks: Vec<BackingBlock> = (0..4)
            .map(|i| block(i << 21, 0x4000 + i * 512, 9))
            .collect();
        let map = HpaMap::new(blocks.clone());
        assert!(map.pow2.is_some());
        let ram: u64 = blocks.iter().map(|b| b.bytes()).sum();
        let bb = blocks[0].bytes();
        for guest in (0..4 * ram).step_by(4097) {
            let g = guest % ram;
            let expect = blocks[(g / bb) as usize].hpa() + g % bb;
            assert_eq!(map.to_hpa(guest), expect, "guest {guest:#x}");
        }
    }

    #[test]
    fn hpa_map_non_pow2_ram_uses_division_chain() {
        // 3 blocks: RAM is 6 MiB (not a power of two) — generic path.
        let blocks: Vec<BackingBlock> = (0..3)
            .map(|i| block(i << 21, 0x8000 + i * 512, 9))
            .collect();
        let map = HpaMap::new(blocks.clone());
        assert!(map.pow2.is_none());
        let ram: u64 = blocks.iter().map(|b| b.bytes()).sum();
        let bb = blocks[0].bytes();
        for guest in (0..4 * ram).step_by(8191) {
            let g = guest % ram;
            let expect = blocks[(g / bb) as usize].hpa() + g % bb;
            assert_eq!(map.to_hpa(guest), expect, "guest {guest:#x}");
        }
    }

    #[test]
    fn exec_time_sample_is_positive_and_repeatable() {
        let sim = SimConfig {
            vm_memory: 256 << 20,
            working_set: 16 << 20,
            ops: 10_000,
            repeats: 1,
            vcpus: 2,
        };
        let mut wl = Ycsb::new(YcsbKind::C, sim.working_set);
        let a = sample(HypervisorKind::Siloz, &mut wl, &sim, 1);
        assert!(a > 0.0);
        let mut wl2 = Ycsb::new(YcsbKind::C, sim.working_set);
        let b = sample(HypervisorKind::Siloz, &mut wl2, &sim, 1);
        assert_eq!(a, b, "same seed, same sample");
    }

    #[test]
    fn throughput_sample_reports_bandwidth() {
        let sim = SimConfig {
            vm_memory: 128 << 20,
            working_set: 16 << 20,
            ops: 20_000,
            repeats: 1,
            vcpus: 2,
        };
        let mut wl = Mlc::new(MlcKind::Reads, sim.working_set);
        let bw = sample(HypervisorKind::Baseline, &mut wl, &sim, 2);
        assert!(bw > 1.0, "streaming reads exceed 1 GiB/s: {bw}");
    }

    #[test]
    fn baseline_and_siloz_are_close_on_streaming() {
        // The headline claim in miniature: same workload, both hypervisors,
        // difference within a few percent (exact equality is not expected
        // because physical layouts differ).
        let sim = SimConfig {
            vm_memory: 128 << 20,
            working_set: 16 << 20,
            ops: 30_000,
            repeats: 1,
            vcpus: 2,
        };
        let mut w1 = Mlc::new(MlcKind::Reads, sim.working_set);
        let base = sample(HypervisorKind::Baseline, &mut w1, &sim, 3);
        let mut w2 = Mlc::new(MlcKind::Reads, sim.working_set);
        let sz = sample(HypervisorKind::Siloz, &mut w2, &sim, 3);
        let diff_pct = ((sz / base) - 1.0).abs() * 100.0;
        assert!(
            diff_pct < 3.0,
            "siloz vs baseline bandwidth differs {diff_pct:.2}%"
        );
    }
}
