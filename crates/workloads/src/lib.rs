//! Workload generators for the Siloz performance evaluation (§7.2, §7.3).
//!
//! The paper measures execution time with redis+YCSB, Hadoop terasort, SPEC
//! CPU 2017 and PARSEC 3.0, and throughput with memcached, SysBench mySQL,
//! and Intel MLC. This crate rebuilds the *memory behaviour* of each from
//! scratch: real in-memory substrates (a hash-table KV store, a slab cache,
//! a B+-tree, a merge sorter) executed over an address-traced arena, plus
//! synthetic kernels whose access patterns match the SPEC/PARSEC/MLC
//! categories (pointer chasing, stencils, streaming, random walks).
//!
//! Every workload implements [`WorkloadGen`]: it yields [`GuestOp`]s —
//! guest-address memory operations with compute gaps and dependency flags —
//! which the `sim` crate translates to host physical traces under a given
//! hypervisor and replays through the memory controller.

#![forbid(unsafe_code)]

pub mod arena;
pub mod extra;
pub mod kv;
pub mod mlc;
pub mod oltp;
pub mod parsec;
pub mod spec;
pub mod terasort;
pub mod ycsb;
pub mod zipf;

pub use arena::TraceArena;
pub use extra::{Gups, PageRank};
pub use kv::KvStore;
pub use zipf::Zipfian;

use rand::rngs::StdRng;

/// One guest-address memory operation, 16 bytes.
///
/// The offset and the two flags share one word: offsets lie below the
/// working set, far under 2^62, so the top two bits hold `write` and
/// `dependent`. The compute gap keeps a full `u64`: terasort's sort gap
/// `n·log2(n)·800` ps passes `u32::MAX` near a 3.5 GiB working set.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GuestOp {
    /// Offset in the low 62 bits, [`Self::WRITE`] and [`Self::DEPENDENT`]
    /// above it.
    bits: u64,
    /// Compute time before issuing this op, picoseconds.
    gap_ps: u64,
}

const _: () = assert!(std::mem::size_of::<GuestOp>() == 16);

impl GuestOp {
    /// Bound on [`Self::offset`]: the bits at and above it are flags.
    const OFFSET_LIMIT: u64 = 1 << 62;
    const WRITE: u64 = 1 << 63;
    const DEPENDENT: u64 = 1 << 62;

    /// An op with no compute gap.
    pub(crate) const fn new(offset: u64, write: bool, dependent: bool) -> Self {
        debug_assert!(offset < Self::OFFSET_LIMIT, "guest offset past 2^62");
        Self {
            bits: offset | (write as u64 * Self::WRITE) | (dependent as u64 * Self::DEPENDENT),
            gap_ps: 0,
        }
    }

    /// An independent read.
    #[must_use]
    pub const fn read(offset: u64) -> Self {
        Self::new(offset, false, false)
    }

    /// An independent write.
    #[must_use]
    pub const fn write(offset: u64) -> Self {
        Self::new(offset, true, false)
    }

    /// Marks the op dependent on the previous one.
    #[must_use]
    pub const fn chained(mut self) -> Self {
        self.bits |= Self::DEPENDENT;
        self
    }

    /// Adds compute time before the op.
    #[must_use]
    pub const fn with_gap_ps(mut self, gap: u64) -> Self {
        self.gap_ps = gap;
        self
    }

    /// Byte offset within the workload's working set (guest address space).
    #[must_use]
    pub const fn offset(self) -> u64 {
        self.bits & (Self::OFFSET_LIMIT - 1)
    }

    /// Write (true) or read (false).
    #[must_use]
    pub const fn is_write(self) -> bool {
        self.bits & Self::WRITE != 0
    }

    /// Compute time before issuing this op, picoseconds.
    #[must_use]
    pub const fn gap_ps(self) -> u64 {
        self.gap_ps
    }

    /// Whether this op depends on the previous op's data (serializes).
    #[must_use]
    pub const fn is_dependent(self) -> bool {
        self.bits & Self::DEPENDENT != 0
    }
}

impl std::fmt::Debug for GuestOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestOp")
            .field("offset", &self.offset())
            .field("write", &self.is_write())
            .field("gap_ps", &self.gap_ps)
            .field("dependent", &self.is_dependent())
            .finish()
    }
}

/// Whether a workload is reported as execution time (Fig. 4/6) or
/// throughput (Fig. 5/7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Lower-is-better completion time.
    ExecTime,
    /// Higher-is-better operation/bandwidth rate.
    Throughput,
}

/// A cloneable snapshot of a workload's preloaded data-structure substrate.
///
/// Several workloads share byte-identical preload phases — every YCSB mix
/// loads the same KV store for a given `(working_set, seed)`, regardless of
/// the request mix that follows. The trace compiler pools these snapshots
/// (keyed by [`WorkloadGen::substrate_key`]) so a grid of cells pays for
/// each distinct preload once; adopting a snapshot plus cloning the
/// post-preload RNG reproduces the cold path bit for bit. Cloning a
/// snapshot is cheap: a [`KvStore`] shares its table copy-on-write, so
/// every adopter reads the one preloaded table and keeps its own writes.
#[derive(Debug, Clone)]
pub enum SubstrateSnapshot {
    /// A preloaded [`KvStore`] (YCSB and memcached substrates).
    Kv(KvStore),
}

/// A workload generator.
pub trait WorkloadGen {
    /// Display name (matches the paper's figure labels).
    fn name(&self) -> String;
    /// Working-set size in bytes (guest addresses are `[0, working_set)`).
    fn working_set(&self) -> u64;
    /// How the workload is reported.
    fn metric(&self) -> Metric;
    /// Generates the next `count` operations.
    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp>;
    /// Cache key identifying this workload's preload phase, or `None` when
    /// the workload has no poolable substrate. Two workloads returning the
    /// same key must consume identical RNG draws during [`Self::preload`]
    /// and end with identical substrate state, so a snapshot from one can
    /// seed the other.
    fn substrate_key(&self) -> Option<String> {
        None
    }
    /// Runs the preload phase alone (idempotent; [`Self::generate`] still
    /// preloads lazily if this was never called).
    fn preload(&mut self, _rng: &mut StdRng) {}
    /// Snapshots the preloaded substrate, or `None` if not preloaded (or
    /// not poolable).
    fn export_substrate(&self) -> Option<SubstrateSnapshot> {
        None
    }
    /// Adopts a pooled substrate snapshot, marking the workload preloaded.
    fn adopt_substrate(&mut self, _snap: &SubstrateSnapshot) {}
    /// Coarse relative cost of one measurement cell running this workload
    /// (construction + generation + replay), in arbitrary units. The sim
    /// engine uses it to dispatch expensive cells first (LPT scheduling) so
    /// one long straggler cannot serialize the tail of a parallel figure
    /// run; only the ordering matters, and results are independent of it.
    /// Values were measured at the quick mini-config scale (~milliseconds
    /// per unit); substrate-heavy workloads (KV stores) dominate.
    fn cost_hint(&self) -> u64 {
        4
    }
}

/// Number of workloads in [`exec_time_suite`].
pub const EXEC_TIME_SUITE_LEN: usize = ycsb::YcsbKind::ALL.len() + 3;

/// Number of workloads in [`throughput_suite`].
pub const THROUGHPUT_SUITE_LEN: usize = mlc::MlcKind::ALL.len() + 2;

/// The `i`-th entry of [`exec_time_suite`], built alone.
///
/// Measurement cells that need exactly one workload use this instead of
/// constructing (and immediately discarding) the other eight substrates —
/// suite construction is working-set-sized work (KV preloads, sort inputs).
///
/// # Panics
///
/// Panics if `i >= EXEC_TIME_SUITE_LEN`.
#[must_use]
pub fn exec_time_workload(i: usize, working_set: u64) -> Box<dyn WorkloadGen> {
    let n_ycsb = ycsb::YcsbKind::ALL.len();
    assert!(i < EXEC_TIME_SUITE_LEN, "workload index {i} out of range");
    if i < n_ycsb {
        Box::new(ycsb::Ycsb::new(ycsb::YcsbKind::ALL[i], working_set))
    } else {
        match i - n_ycsb {
            0 => Box::new(terasort::Terasort::new(working_set)),
            1 => Box::new(spec::SpecSuite::new(working_set)),
            _ => Box::new(parsec::ParsecSuite::new(working_set)),
        }
    }
}

/// The `i`-th entry of [`throughput_suite`], built alone.
///
/// # Panics
///
/// Panics if `i >= THROUGHPUT_SUITE_LEN`.
#[must_use]
pub fn throughput_workload(i: usize, working_set: u64) -> Box<dyn WorkloadGen> {
    assert!(i < THROUGHPUT_SUITE_LEN, "workload index {i} out of range");
    match i {
        0 => Box::new(kv::Memcached::new(working_set)),
        1 => Box::new(oltp::SysbenchOltp::new(working_set)),
        _ => Box::new(mlc::Mlc::new(mlc::MlcKind::ALL[i - 2], working_set)),
    }
}

/// The full execution-time roster of Fig. 4: six YCSB workloads on the KV
/// store, terasort, a SPEC CPU 2017-like suite and a PARSEC 3.0-like suite.
#[must_use]
pub fn exec_time_suite(working_set: u64) -> Vec<Box<dyn WorkloadGen>> {
    (0..EXEC_TIME_SUITE_LEN)
        .map(|i| exec_time_workload(i, working_set))
        .collect()
}

/// The throughput roster of Fig. 5: memcached, SysBench-mySQL-like OLTP,
/// and the five Intel MLC configurations.
#[must_use]
pub fn throughput_suite(working_set: u64) -> Vec<Box<dyn WorkloadGen>> {
    (0..THROUGHPUT_SUITE_LEN)
        .map(|i| throughput_workload(i, working_set))
        .collect()
}

/// Number of entries in the fleet roster of [`fleet_tenant_workload`].
pub const FLEET_ROSTER_LEN: u32 = 8;

/// Deterministic per-tenant workload assignment for fleet scenarios: tenant
/// `tenant` runs the `tenant % FLEET_ROSTER_LEN`-th entry of a fixed mixed
/// roster (four YCSB mixes, memcached, OLTP, streaming MLC, GUPS), sized to
/// `working_set`. The mapping depends only on the tenant id, so a fleet
/// trace replays bit-identically regardless of scheduling.
#[must_use]
pub fn fleet_tenant_workload(tenant: u32, working_set: u64) -> Box<dyn WorkloadGen> {
    match tenant % FLEET_ROSTER_LEN {
        0 => Box::new(ycsb::Ycsb::new(ycsb::YcsbKind::A, working_set)),
        1 => Box::new(ycsb::Ycsb::new(ycsb::YcsbKind::B, working_set)),
        2 => Box::new(ycsb::Ycsb::new(ycsb::YcsbKind::C, working_set)),
        3 => Box::new(kv::Memcached::new(working_set)),
        4 => Box::new(oltp::SysbenchOltp::new(working_set)),
        5 => Box::new(mlc::Mlc::new(mlc::MlcKind::Reads, working_set)),
        6 => Box::new(ycsb::Ycsb::new(ycsb::YcsbKind::F, working_set)),
        _ => Box::new(extra::Gups::new(working_set)),
    }
}

/// The name of tenant `tenant`'s roster entry: what
/// [`fleet_tenant_workload`]`(tenant, working_set).name()` returns for any
/// working set, without building the generator (the OLTP entry bulk-loads
/// a B+-tree to construct).
#[must_use]
pub fn fleet_tenant_name(tenant: u32) -> &'static str {
    match tenant % FLEET_ROSTER_LEN {
        0 => ycsb::YcsbKind::A.label(),
        1 => ycsb::YcsbKind::B.label(),
        2 => ycsb::YcsbKind::C.label(),
        3 => "memcached",
        4 => "mysql",
        5 => mlc::MlcKind::Reads.label(),
        6 => ycsb::YcsbKind::F.label(),
        _ => "gups",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn guest_op_round_trips_at_the_offset_bound() {
        let offset = (1 << 62) - 64;
        let op = GuestOp::write(offset).chained().with_gap_ps(u64::MAX);
        assert_eq!(op.offset(), offset);
        assert!(op.is_write() && op.is_dependent());
        assert_eq!(op.gap_ps(), u64::MAX);
        let read = GuestOp::read(offset);
        assert_eq!(read.offset(), offset);
        assert!(!read.is_write() && !read.is_dependent());
        assert_eq!(read.gap_ps(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "guest offset past 2^62")]
    fn guest_op_rejects_an_offset_in_the_flag_bits() {
        let _ = GuestOp::read(1 << 62);
    }

    #[test]
    fn fleet_roster_is_deterministic_and_total() {
        for tenant in 0..16 {
            let a = fleet_tenant_workload(tenant, 8 << 20).name();
            let b = fleet_tenant_workload(tenant, 8 << 20).name();
            assert_eq!(a, b);
            assert_eq!(
                a,
                fleet_tenant_workload(tenant + FLEET_ROSTER_LEN, 8 << 20).name()
            );
        }
        let distinct: std::collections::BTreeSet<String> = (0..FLEET_ROSTER_LEN)
            .map(|t| fleet_tenant_workload(t, 8 << 20).name())
            .collect();
        assert_eq!(
            distinct.len(),
            FLEET_ROSTER_LEN as usize,
            "roster entries are distinct"
        );
    }

    #[test]
    fn fleet_tenant_names_match_the_built_generators() {
        for tenant in 0..2 * FLEET_ROSTER_LEN {
            for working_set in [1 << 20, 8 << 20, 64 << 20] {
                assert_eq!(
                    fleet_tenant_name(tenant),
                    fleet_tenant_workload(tenant, working_set).name(),
                    "tenant {tenant}, working set {working_set}"
                );
            }
        }
    }

    #[test]
    fn suites_cover_the_paper_rosters() {
        let et = exec_time_suite(64 << 20);
        let names: Vec<String> = et.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"redis-A".to_string()));
        assert!(names.contains(&"redis-F".to_string()));
        assert!(names.contains(&"terasort".to_string()));
        assert!(names.contains(&"SPEC-2017".to_string()));
        assert!(names.contains(&"PARSEC-3.0".to_string()));
        assert_eq!(et.len(), 9);

        let tp = throughput_suite(64 << 20);
        let names: Vec<String> = tp.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"memcached".to_string()));
        assert!(names.contains(&"mysql".to_string()));
        assert!(names.contains(&"mlc-stream".to_string()));
        assert_eq!(tp.len(), 7);
    }

    #[test]
    fn all_workloads_generate_in_bounds_ops() {
        let ws = 16 << 20;
        let mut rng = StdRng::seed_from_u64(1);
        for mut wl in exec_time_suite(ws).into_iter().chain(throughput_suite(ws)) {
            let ops = wl.generate(2000, &mut rng);
            assert!(!ops.is_empty(), "{} generated nothing", wl.name());
            for op in &ops {
                assert!(
                    op.offset() < wl.working_set(),
                    "{} op at {:#x} beyond working set {:#x}",
                    wl.name(),
                    op.offset(),
                    wl.working_set()
                );
            }
        }
    }

    #[test]
    fn substrate_pool_roundtrip_is_bit_identical() {
        // Pool path: preload one mix, snapshot it, and let every mix adopt
        // the one shared snapshot in turn, resuming the post-load RNG. Each
        // must draw exactly its own cold path's ops, so no mix's writes may
        // reach the table the snapshot shares with the mixes after it.
        let mut loader = ycsb::Ycsb::new(ycsb::YcsbKind::E, 4 << 20);
        let mut loaded = StdRng::seed_from_u64(42);
        loader.preload(&mut loaded);
        let snap = loader.export_substrate().expect("preloaded");
        for kind in ycsb::YcsbKind::ALL {
            let mut cold = ycsb::Ycsb::new(kind, 4 << 20);
            assert_eq!(loader.substrate_key(), cold.substrate_key());
            let ops_cold = cold.generate(2_000, &mut StdRng::seed_from_u64(42));
            let mut warm = ycsb::Ycsb::new(kind, 4 << 20);
            assert!(warm.export_substrate().is_none(), "not yet preloaded");
            warm.adopt_substrate(&snap);
            let ops_warm = warm.generate(2_000, &mut loaded.clone());
            assert_eq!(ops_cold, ops_warm, "{kind:?}");
        }

        // Memcached pools under its own key (different preload draws).
        let mut mc = kv::Memcached::new(4 << 20);
        assert_ne!(mc.substrate_key(), loader.substrate_key());
        let mc_cold = mc.generate(2_000, &mut StdRng::seed_from_u64(7));
        let mut loaded = StdRng::seed_from_u64(7);
        let mut mc_loader = kv::Memcached::new(4 << 20);
        mc_loader.preload(&mut loaded);
        let snap = mc_loader.export_substrate().expect("preloaded");
        for _ in 0..2 {
            let mut mc_warm = kv::Memcached::new(4 << 20);
            mc_warm.adopt_substrate(&snap);
            assert_eq!(mc_cold, mc_warm.generate(2_000, &mut loaded.clone()));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = ycsb::Ycsb::new(ycsb::YcsbKind::A, 8 << 20);
        let mut b = ycsb::Ycsb::new(ycsb::YcsbKind::A, 8 << 20);
        let ops_a = a.generate(500, &mut StdRng::seed_from_u64(9));
        let ops_b = b.generate(500, &mut StdRng::seed_from_u64(9));
        assert_eq!(ops_a, ops_b);
    }
}
