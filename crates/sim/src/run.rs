//! Running one workload inside one VM under one hypervisor.

use crate::cache::{BoundEnv, CellOutcome, EnvKey, LedgerKey, TraceCache};
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
/// Every block is `4096 << order` bytes and all blocks of a map are one
/// size, so the block index and the offset inside it are one shift and
/// one mask. Only an offset past RAM pays a division to wrap into it.
pub(crate) struct HpaMap {
    blocks: Vec<BackingBlock>,
    ram_bytes: u64,
    /// log2 of the common block size.
    blk_shift: u32,
}

impl HpaMap {
    /// The map over a VM's unmediated backing blocks.
    ///
    /// # Errors
    ///
    /// A VM with no unmediated backing (a zero-byte guest) has no guest
    /// offset to translate, and blocks of more than one size have no
    /// common shift: `BadConfig`.
    pub(crate) fn new(blocks: Vec<BackingBlock>) -> Result<Self, SilozError> {
        let Some(first) = blocks.first() else {
            return Err(SilozError::BadConfig(
                "VM has no unmediated backing to replay a trace on".into(),
            ));
        };
        if blocks.iter().any(|b| b.order != first.order) {
            return Err(SilozError::BadConfig(
                "VM backing blocks differ in size".into(),
            ));
        }
        let ram_bytes = first.bytes() * blocks.len() as u64;
        Ok(Self {
            blk_shift: first.bytes().trailing_zeros(),
            blocks,
            ram_bytes,
        })
    }

    /// Bytes per backing block.
    fn block_bytes(&self) -> u64 {
        1 << self.blk_shift
    }

    /// Whether every guest offset in `[0, extent)` decodes under `self`
    /// exactly as under `from`, but for one row shift, with the same
    /// stream-decoder hit, miss and alias sequence: the blocks
    /// [`Self::to_hpa`] reads for those offsets pair up with equal sizes,
    /// and every pair returns one equal
    /// [`dram_addr::SystemAddressDecoder::row_translate`]. A ledger of
    /// that extent then binds to `from`'s program with rows moved, which
    /// replays to the same outcome.
    pub(crate) fn row_translates(
        &self,
        from: &HpaMap,
        decoder: &dram_addr::SystemAddressDecoder,
        extent: u64,
    ) -> bool {
        if self.blk_shift != from.blk_shift {
            return false;
        }
        // An extent past either map's RAM wraps, and names blocks that are
        // not there: no translate.
        let n = extent.div_ceil(self.block_bytes()) as usize;
        let (Some(to), Some(from)) = (self.blocks.get(..n), from.blocks.get(..n)) else {
            return false;
        };
        let mut shift = None;
        from.iter().zip(to).all(|(a, b)| {
            decoder
                .row_translate(a.hpa(), b.hpa(), self.block_bytes())
                .is_some_and(|t| *shift.get_or_insert(t) == t)
        })
    }

    /// Translates a guest offset (wrapped into RAM) to a host physical
    /// address.
    #[inline]
    pub(crate) fn to_hpa(&self, guest: u64) -> u64 {
        let guest = if guest < self.ram_bytes {
            guest
        } else {
            guest % self.ram_bytes
        };
        let offset = guest & (self.block_bytes() - 1);
        self.blocks[(guest >> self.blk_shift) as usize].hpa() + offset
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
/// Fails if `vm` is unknown to `hv` or has no unmediated backing.
pub fn vm_trace(
    hv: &Hypervisor,
    vm: siloz::VmHandle,
    workload: &mut dyn WorkloadGen,
    shape: &TraceShape,
) -> Result<Vec<MemOp>, SilozError> {
    let hpa_map = HpaMap::new(hv.vm_unmediated_backing(vm)?)?;
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
/// Fails if `vm` is unknown to `hv` or has no unmediated backing.
pub fn vm_compiled(
    hv: &Hypervisor,
    vm: siloz::VmHandle,
    ledger: &GuestLedger,
    thread_base: u16,
) -> Result<CompiledTrace, SilozError> {
    let hpa_map = HpaMap::new(hv.vm_unmediated_backing(vm)?)?;
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
        Some(reg),
    )
}

/// [`run_workload`] through the trace compiler: the sample is bit-identical
/// to the direct path, but ledgers, substrates, booted environments, and
/// replay outcomes are shared through `cache` across every cell that can
/// reuse them.
/// It exports no telemetry, so a warm cell costs only its cache lookups.
pub fn run_workload_compiled(
    config: &SilozConfig,
    kind: HypervisorKind,
    workload: &mut dyn WorkloadGen,
    sim: &SimConfig,
    seed: u64,
    cache: &TraceCache,
) -> Result<f64, SilozError> {
    workload_cell(
        (config, kind, None),
        CellWorkload::Ready(workload),
        sim,
        RunSeeds::uniform(seed),
        Replay::Compiled(cache),
        None,
    )
}

/// [`run_workload_compiled`] that also exports stack-wide telemetry into
/// `reg` — the same `ctrl`/`dram`/`hv` children, with identical values, as
/// [`run_workload`], warm or cold. The export costs several times a warm
/// cell's lookups: callers that read no telemetry use the sink-less call.
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
        Some(reg),
    )
}

/// Boots the measurement environment for one configuration: hypervisor
/// with an invulnerable DIMM (disturbance bookkeeping off — allocation
/// policy is what is being measured), one VM, and its guest→HPA map.
pub(crate) fn boot_env(
    config: &SilozConfig,
    kind: HypervisorKind,
    sim: &SimConfig,
) -> Result<BoundEnv, SilozError> {
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(vec![DimmProfile::invulnerable()])
        .build();
    let mut hv = Hypervisor::boot_with(config.clone(), kind, dram, dram_addr::RepairMap::new())?;
    let vm = hv.create_vm(VmSpec::new("perf-vm", sim.vcpus, sim.vm_memory))?;
    let hpa = HpaMap::new(hv.vm_unmediated_backing(vm)?)?;
    Ok(BoundEnv { hv, hpa })
}

/// Converts a replay result into the cell's sample; exports telemetry if `reg`.
fn finish_cell(
    metric: Metric,
    result: &TraceResult,
    ctrl: &MemoryController,
    env: &BoundEnv,
    seeds: RunSeeds,
    reg: Option<&Registry>,
) -> f64 {
    if let Some(reg) = reg {
        ctrl.export_telemetry(&reg.child("ctrl"));
        env.hv.dram().export_telemetry(&reg.child("dram"));
        env.hv.export_telemetry(&reg.child("hv"));
    }
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

    /// Runs `draw` on the generator, building a deferred one first.
    fn draw<R>(self, draw: impl FnOnce(&mut dyn WorkloadGen) -> R) -> R {
        match self {
            CellWorkload::Ready(w) => draw(w),
            CellWorkload::Deferred { build, .. } => draw(build().as_mut()),
        }
    }
}

/// One measurement cell: both the direct path and the compiled path, which
/// the equivalence battery pins bit-identical (samples *and* exported
/// telemetry). With no `reg`, the cell exports nothing.
pub(crate) fn workload_cell(
    (config, kind, defense): Arm<'_>,
    workload: CellWorkload<'_>,
    sim: &SimConfig,
    seeds: RunSeeds,
    replay: Replay<'_>,
    reg: Option<&Registry>,
) -> Result<f64, SilozError> {
    // Deal each logical request (a chain starting at a non-dependent op) to
    // the next vCPU, as a multi-threaded server would; dependencies stay
    // within their thread.
    let threads = sim.vcpus.clamp(1, 16) as u16;
    let (name, working_set, metric) = workload.identity();
    match replay {
        Replay::Direct => {
            let mut env = boot_env(config, kind, sim)?;
            let mut rng = StdRng::seed_from_u64(seeds.trace);
            let ledger = workload.draw(|w| GuestLedger::generate(w, sim.ops, threads, &mut rng));
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
            let env_key = EnvKey {
                kind,
                vm_memory: sim.vm_memory,
                vcpus: sim.vcpus,
                config: config.clone(),
                hook: defense.filter(|d| d.controller_hook().is_some()),
            };
            let (ordinal, env) = cache.env(env_key, || boot_env(config, kind, sim))?;
            // Cells replay with physics off against a fresh controller and
            // scratch device, so the whole outcome is a pure function of
            // (ledger, env): a recurring measurement is never re-simulated.
            let outcome = cache.replay((ledger_key, ordinal), |ledger_key| {
                let ledger = cache.ledger(ledger_key, || {
                    workload.draw(|workload| {
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
                    })
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

    /// `map` against the modulo/divide chain it replaces, on a stride
    /// through four RAMs and on the offsets around a wrap.
    fn assert_division_chain(map: &HpaMap, blocks: &[BackingBlock], step: usize) {
        let ram: u64 = blocks.iter().map(|b| b.bytes()).sum();
        let bb = blocks[0].bytes();
        let edges = [ram - 1, ram, ram + 1, 3 * ram];
        for guest in (0..4 * ram).step_by(step).chain(edges) {
            let g = guest % ram;
            let expect = blocks[(g / bb) as usize].hpa() + g % bb;
            assert_eq!(map.to_hpa(guest), expect, "guest {guest:#x}");
        }
    }

    #[test]
    fn hpa_map_pow2_ram_matches_division_chain() {
        // 4 × 2 MiB blocks: RAM is 8 MiB, a power of two.
        let blocks: Vec<BackingBlock> = (0..4)
            .map(|i| block(i << 21, 0x4000 + i * 512, 9))
            .collect();
        let map = HpaMap::new(blocks.clone()).unwrap();
        assert_division_chain(&map, &blocks, 4097);
    }

    #[test]
    fn hpa_map_non_pow2_ram_matches_division_chain() {
        // 3 blocks: RAM is 6 MiB, not a power of two.
        let blocks: Vec<BackingBlock> = (0..3)
            .map(|i| block(i << 21, 0x8000 + i * 512, 9))
            .collect();
        let map = HpaMap::new(blocks.clone()).unwrap();
        assert_division_chain(&map, &blocks, 8191);
    }

    #[test]
    fn hpa_map_rejects_blocks_of_two_sizes() {
        // A shift by the first block's size would index the wrong block.
        let blocks = vec![block(0, 0x4000, 9), block(2 << 20, 0x8000, 0)];
        let map = HpaMap::new(blocks);
        assert!(matches!(map, Err(SilozError::BadConfig(_))));
    }

    #[test]
    fn row_translates_needs_every_read_block_to_move_alike() {
        // Skylake: 1.5 MiB stripes (384 frames), one row each; a TLB span
        // of 1,024 stripes is 1.5 GiB. Four 2 MiB blocks from HPA 0.
        let dec = dram_addr::skylake_decoder();
        let map = |shift: &dyn Fn(u64) -> u64, order: u8| {
            let blocks = (0..4).map(|i| block(i << 21, shift(i) + i * 512, order));
            HpaMap::new(blocks.collect()).unwrap()
        };
        let base = map(&|_| 0, 9);
        let translates = |to: &HpaMap, extent| to.row_translates(&base, &dec, extent);
        let span = 1024 * 384;
        assert!(translates(&map(&|_| span, 9), 8 << 20));
        assert!(translates(&map(&|_| 4 * 384, 9), 8 << 20), "4 rows up");
        assert!(
            !translates(&map(&|_| span, 9), (8 << 20) + 1),
            "past the RAM"
        );
        assert!(
            !translates(&map(&|_| span, 10), 1 << 20),
            "other block size"
        );
        assert!(
            !translates(&map(&|_| 384, 9), 8 << 20),
            "one row: another bank"
        );
        assert!(
            !translates(&map(&|_| 512, 9), 8 << 20),
            "not a whole stripe"
        );
        let last_apart = map(&|i| if i == 3 { 2 * span } else { span }, 9);
        assert!(
            translates(&last_apart, 6 << 20),
            "the last block is not read"
        );
        assert!(
            !translates(&last_apart, (6 << 20) + 1),
            "the last block is read"
        );
        assert!(translates(&base, 0), "an empty ledger reads nothing");

        // One 1 GiB mapping jump over the mini geometry (512 KiB stripes):
        // four rows up moves A's block at HPA 0 up 1,024 stripes, but B's
        // at 512 MiB down 1,020 — one row shift, two TLB slot shifts.
        let config = dram_addr::decoder::DecoderConfig {
            row_groups_per_block: 4,
            jump_bytes: 1 << 30,
            bank_hash: dram_addr::BankHash::XorRow,
        };
        let dec = dram_addr::SystemAddressDecoder::new(dram_addr::mini_geometry(), config).unwrap();
        let pair = |a: [u64; 2], b: [u64; 2]| {
            let map = |hpa: [u64; 2]| {
                HpaMap::new(hpa.iter().map(|&h| block(0, h >> 12, 9)).collect()).unwrap()
            };
            map(b).row_translates(&map(a), &dec, 4 << 20)
        };
        assert!(pair([0, 4 << 20], [512 << 20, (512 << 20) + (4 << 20)]));
        assert!(!pair([0, 512 << 20], [512 << 20, 2 << 20]));
    }

    #[test]
    fn hooked_cells_replay_their_own_trace() {
        // The BlockHammer arm backs the VM as the undefended baseline does,
        // so the baseline's outcome sits under the same ledger with a
        // backing that is trivially a translate; the hook alone must keep
        // the arm off it.
        let config = SilozConfig::mini();
        let sim = SimConfig {
            ops: 4_000,
            ..SimConfig::quick()
        };
        let cache = TraceCache::new();
        let cell = |defense, replay, reg: &Registry| {
            let workload = CellWorkload::Ready(&mut Ycsb::new(YcsbKind::A, sim.working_set));
            let arm = (&config, HypervisorKind::Baseline, defense);
            workload_cell(arm, workload, &sim, RunSeeds::uniform(9), replay, Some(reg)).unwrap()
        };
        cell(None, Replay::Compiled(&cache), &Registry::new());
        let hooked = Some(mitigation::Backend::BlockHammer);
        let (direct, compiled) = (Registry::new(), Registry::new());
        let a = cell(hooked, Replay::Direct, &direct);
        let b = cell(hooked, Replay::Compiled(&cache), &compiled);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            direct.snapshot().deterministic().to_json(),
            compiled.snapshot().deterministic().to_json()
        );
        assert_eq!(cache.translated_replays(), 0);
    }

    #[test]
    fn a_vm_without_backing_is_an_error_not_a_panic() {
        // `create_vm` admits a zero-byte guest; it has no block to map.
        let sim = SimConfig {
            vm_memory: 0,
            ..SimConfig::quick()
        };
        let mut wl = Ycsb::new(YcsbKind::C, sim.working_set);
        let cell = run_workload(
            &SilozConfig::mini(),
            HypervisorKind::Baseline,
            &mut wl,
            &sim,
            1,
            &Registry::new(),
        );
        assert!(matches!(cell, Err(SilozError::BadConfig(_))), "{cell:?}");
        assert!(HpaMap::new(Vec::new()).is_err());
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
