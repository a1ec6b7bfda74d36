//! The top-level DRAM system: all banks, data, disturbance, refresh, ECC.
//!
//! The activation path here is tier-0 hot: hammer patterns activate the same
//! few aggressor rows millions of times per refresh window. Supporting state
//! is therefore flat (geometry-ordinal `Vec`s instead of hashed maps, a
//! precomputed per-bank profile copy, reusable scratch buffers), and the
//! device offers two equivalent activation entry points:
//!
//! - [`DramSystem::activate_row`] / [`DramSystem::activate`]: the per-ACT
//!   *reference* path, O(blast radius) per activation;
//! - [`DramSystem::activate_burst`]: the *coalesced ledger* path, applying a
//!   run of same-row activations in O(blast radius) total. Disturbance
//!   between refresh events is linear in the activation count, so a burst
//!   can accumulate `count * w` per victim and emit every newly-crossed weak
//!   cell in one ordered sweep; `TrrTracker::observe_n` replays the sampler
//!   state exactly. The equivalence proptests in
//!   `crates/dram/tests/burst_equivalence.rs` pin the two paths to
//!   bit-identical flips, stats, and telemetry.
//!
//! A burst is two steps split along what each depends on.
//! [`DramSystem::resolve_aggressor`] does everything that is a function of
//! `(bank, row, extra_open_ns)` alone — repair lookup, internal-row
//! transforms, the subarray check, the RowPress-scaled weights, and finding
//! (or creating) each victim in the bank's arena — and returns an
//! [`Aggressor`] handle. [`DramSystem::activate_resolved`] does what depends
//! on `count`: TRR observation, the aggressor's own refresh, disturbance
//! accrual and ordered flip emission, reaching victims by arena index.
//! `activate_burst` is the two back to back; a hammer loop resolves each
//! aggressor once per pattern and applies it every period. A handle is
//! resolved *at the first issue* (resolving is the bank's first touch and
//! starts its refresh sweep) and is tied to one `extra_open_ns` and one
//! device. Its own half-rows are looked up on every apply — one load from
//! the bank's flat victim index — because a neighbour two rows away may
//! create their state after the handle was resolved.

use crate::bank::{side_idx, BankState};
use crate::ecc::{classify, EccMode, ReadIntegrity};
use crate::flip::{BitFlip, FlipLog, WeakCell};
use crate::profile::DimmProfile;
use crate::rowmap::RowMap;
use crate::{REFRESH_WINDOW_NS, REFS_PER_WINDOW};
use dram_addr::transform::media_row_from_internal;
use dram_addr::{
    internal_row, BankId, Geometry, InternalMapConfig, MediaAddress, RankSide, RepairMap,
};

/// Running counters of device-level events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DramStats {
    /// Total row activations.
    pub acts: u64,
    /// Distributed REF steps executed.
    pub ref_steps: u64,
    /// Suspected-aggressor rows served by TRR (neighbor refreshes issued
    /// from the tracker, summed over both rank sides).
    pub trr_triggers: u64,
    /// Words corrected by ECC during reads.
    pub corrected_words: u64,
    /// Uncorrectable (2-bit) words encountered during reads.
    pub uncorrectable_words: u64,
    /// Words where ECC was silently defeated during reads.
    pub silent_words: u64,
}

/// Result of a patrol-scrub pass (§2.5; consumed by Copy-on-Flip-style
/// defenses and the containment experiments).
#[derive(Debug, Default, Clone)]
pub struct ScrubReport {
    /// Corrected single-bit flips, as `(bank, media row, byte)` locations.
    pub corrected: Vec<(BankId, u32, u32)>,
    /// Locations with multi-bit (uncorrectable) damage, left in place.
    pub uncorrectable: Vec<(BankId, u32, u32)>,
}

/// Flipped cells of one media row: `(byte, bit, side)` tuples.
type FlippedCells = Vec<(u32, u8, RankSide)>;

/// Packs a `(bank, row)` coordinate into a [`RowMap`] key.
#[inline]
#[must_use]
fn row_key(bank: BankId, row: u32) -> u64 {
    (bank.0 as u64) << 32 | row as u64
}

/// Unpacks a [`row_key`] back into `(bank, row)`.
#[inline]
#[must_use]
fn unpack_row_key(key: u64) -> (BankId, u32) {
    (BankId((key >> 32) as u32), key as u32)
}

/// Smallest activation index `j` in `[1, count]` at which a victim whose
/// disturbance evolves as `base + w * (n0 + j)` reaches `threshold`.
///
/// The caller guarantees `w > 0` and that the burst's final disturbance
/// crosses the threshold. The closed-form estimate is fixed up by walking
/// against the *exact* float evaluation the per-ACT reference path performs,
/// so the returned index is bit-for-bit the act on which the reference path
/// would have emitted the flip.
///
/// Cold and never inlined: only a threshold crossing reaches it, and
/// inlined, its `n0`-to-float setup is hoisted into the victim loop of
/// every burst, crossing or not.
#[cold]
#[inline(never)]
fn first_crossing(base: f64, w: f64, n0: u64, count: u64, threshold: f64) -> u64 {
    let val = |j: u64| base + w * ((n0 + j) as f64);
    debug_assert!(w > 0.0);
    debug_assert!(val(count) >= threshold, "caller checked the final value");
    let est = ((threshold - base) / w - n0 as f64).ceil();
    let mut j = if est.is_finite() && est >= 1.0 {
        (est as u64).min(count)
    } else {
        1
    };
    while j > 1 && val(j - 1) >= threshold {
        j -= 1;
    }
    while val(j) < threshold {
        j += 1;
    }
    j
}

/// Most victims one rank side of an aggressor can have: two per distance
/// of [`crate::DisturbanceWeights`]'s radius (≤ 2).
const MAX_VICTIMS: usize = 4;

/// One victim half-row of a resolved aggressor.
#[derive(Debug, Clone, Copy, Default)]
struct ResolvedVictim {
    /// Index into the bank's victim arena.
    idx: u32,
    /// Internal row (flips are reported from it).
    row: u32,
    /// Per-ACT weight at this distance, RowPress scaling applied.
    w: f64,
}

/// One rank side of a resolved aggressor.
#[derive(Debug, Clone, Copy, Default)]
struct AggressorSide {
    /// The internal row physically activated on this side.
    row: u32,
    n_victims: u8,
    /// The first `n_victims` entries, in (distance, lo/hi) order.
    victims: [ResolvedVictim; MAX_VICTIMS],
}

/// A `(bank, media row, extra_open_ns)` activation target resolved once by
/// [`DramSystem::resolve_aggressor`] and applied any number of times by
/// [`DramSystem::activate_resolved`]. Heap-free and `Copy`; valid only on
/// the device that made it.
#[derive(Debug, Clone, Copy)]
pub struct Aggressor {
    bank: BankId,
    rank: u16,
    sides: [AggressorSide; 2],
}

/// Builder for [`DramSystem`].
#[derive(Debug, Clone)]
pub struct DramSystemBuilder {
    geometry: Geometry,
    internal: InternalMapConfig,
    repairs: RepairMap,
    profiles: Vec<DimmProfile>,
    ecc: EccMode,
    trr_capacity: usize,
    trr_served: usize,
    pattern_dependent: bool,
    scrub_interval_ns: u64,
}

impl DramSystemBuilder {
    /// Starts a builder for the given geometry with evaluation defaults:
    /// DDR4 mirroring+inversion, no repairs, DIMM profile "C" on every slot,
    /// SEC-DED ECC, and a 4-entry TRR serving 2 rows per REF.
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            internal: InternalMapConfig::default(),
            repairs: RepairMap::new(),
            profiles: vec![DimmProfile::default_eval()],
            ecc: EccMode::SecDed,
            trr_capacity: 4,
            trr_served: 2,
            pattern_dependent: true,
            scrub_interval_ns: 0,
        }
    }

    /// Sets the DIMM-internal address transformations (§6).
    #[must_use]
    pub fn internal_map(mut self, cfg: InternalMapConfig) -> Self {
        self.internal = cfg;
        self
    }

    /// Installs a row-repair table (§6).
    #[must_use]
    pub fn repairs(mut self, repairs: RepairMap) -> Self {
        self.repairs = repairs;
        self
    }

    /// Assigns DIMM profiles round-robin across the machine's DIMM slots.
    ///
    /// With the evaluation geometry (6 DIMMs/socket) and the six Table 3
    /// profiles, socket 0's DIMMs are exactly A-F.
    #[must_use]
    pub fn profiles(mut self, profiles: Vec<DimmProfile>) -> Self {
        assert!(!profiles.is_empty(), "at least one DIMM profile required");
        self.profiles = profiles;
        self
    }

    /// Sets the ECC mode.
    #[must_use]
    pub fn ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Configures the per-bank TRR tracker (0 capacity disables TRR).
    #[must_use]
    pub fn trr(mut self, capacity: usize, served_per_ref: usize) -> Self {
        self.trr_capacity = capacity;
        self.trr_served = served_per_ref;
        self
    }

    /// Enables/disables data-pattern-dependent flips (true/anti cells).
    /// On (the default), only charged cells leak; experiments with
    /// all-zero victims see roughly half the flips of striped victims.
    #[must_use]
    pub fn pattern_dependent(mut self, on: bool) -> Self {
        self.pattern_dependent = on;
        self
    }

    /// Enables automatic ECC patrol scrubbing every `interval_ns` of
    /// simulated time (0 disables; servers typically scrub the full memory
    /// over hours — the §7.1 experiment relies on patrol scrub to catch
    /// any undetected flips).
    #[must_use]
    pub fn patrol_scrub(mut self, interval_ns: u64) -> Self {
        self.scrub_interval_ns = interval_ns;
        self
    }

    /// Builds the DRAM system.
    ///
    /// Per-bank lookups consulted on every activation — the DIMM profile and
    /// the rank — are precomputed here into geometry-ordinal flat arrays so
    /// the hot path never re-derives them from division chains.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`Geometry::validate`]).
    #[must_use]
    pub fn build(self) -> DramSystem {
        self.geometry.validate().expect("valid geometry");
        let total_banks = self.geometry.total_banks() as usize;
        let mut profile_of_bank = Vec::with_capacity(total_banks);
        let mut rank_of_bank = Vec::with_capacity(total_banks);
        for flat in 0..total_banks as u32 {
            let m = BankId(flat).to_media(&self.geometry);
            let dimm_idx = (m.socket as usize * self.geometry.channels_per_socket as usize
                + m.channel as usize)
                * self.geometry.dimms_per_channel as usize
                + m.dimm as usize;
            profile_of_bank.push(self.profiles[dimm_idx % self.profiles.len()]);
            rank_of_bank.push(m.rank);
        }
        let mut repair_inverse = RowMap::new();
        for (&(bank, media_row), &target) in self.repairs.iter() {
            *repair_inverse.get_or_insert_with(row_key(bank, target), || media_row) = media_row;
        }
        let trefi_ns = REFRESH_WINDOW_NS / REFS_PER_WINDOW as u64;
        DramSystem {
            geometry: self.geometry,
            internal: self.internal,
            repairs: self.repairs,
            repair_inverse,
            profile_of_bank,
            rank_of_bank,
            ecc: self.ecc,
            trr_capacity: self.trr_capacity,
            trr_served: self.trr_served,
            pattern_dependent: self.pattern_dependent,
            scrub_interval_ns: self.scrub_interval_ns,
            next_scrub_ns: self.scrub_interval_ns.max(1),
            scrub_history: ScrubReport::default(),
            banks: (0..total_banks).map(|_| None).collect(),
            touched_banks: Vec::new(),
            data: RowMap::new(),
            flipped: RowMap::new(),
            flip_log: FlipLog::new(),
            now_ns: 0,
            next_ref_ns: trefi_ns,
            trefi_ns,
            stats: DramStats::default(),
            scratch_flips: Vec::new(),
            scratch_read: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_served: Vec::new(),
        }
    }
}

/// The machine's DRAM: every bank of every DIMM, with disturbance physics.
///
/// # Examples
///
/// Hammering two aggressor rows past the threshold flips bits in victims
/// between them, but never outside their subarray:
///
/// ```
/// use dram::{DramSystem, DramSystemBuilder};
/// use dram_addr::{mini_geometry, BankId};
///
/// let mut dram = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
/// let bank = BankId(0);
/// for _ in 0..200_000 {
///     dram.activate_row(bank, 10, 0);
///     dram.activate_row(bank, 12, 0);
///     dram.advance_ns(94);
/// }
/// assert!(dram.flip_log().len() > 0);
/// for f in dram.flip_log().all() {
///     assert!(f.media_row / 256 == 10 / 256, "flip escaped the subarray");
/// }
/// ```
#[derive(Debug)]
pub struct DramSystem {
    geometry: Geometry,
    internal: InternalMapConfig,
    repairs: RepairMap,
    /// Internal spare row → the media row whose data lives there, keyed by
    /// [`row_key`].
    repair_inverse: RowMap<u32>,
    /// DIMM profile of each bank, indexed by flat bank ordinal. A POD copy
    /// per bank so the activation path reads one cache line instead of
    /// re-deriving the DIMM slot from division chains.
    profile_of_bank: Vec<DimmProfile>,
    /// Rank of each bank, indexed by flat bank ordinal.
    rank_of_bank: Vec<u16>,
    ecc: EccMode,
    trr_capacity: usize,
    trr_served: usize,
    pattern_dependent: bool,
    scrub_interval_ns: u64,
    next_scrub_ns: u64,
    scrub_history: ScrubReport,
    /// Per-bank disturbance state, indexed by flat bank ordinal;
    /// materialized on first activation.
    banks: Vec<Option<BankState>>,
    /// Ordinals of materialized banks in first-touch order: the distributed
    /// REF sweep visits exactly these (untouched banks hold no victim state).
    touched_banks: Vec<u32>,
    /// Written row data, media coordinates (keyed by [`row_key`]). An absent
    /// row is an all-zero row, and that is the canonical form: zero writes
    /// never materialise one (see [`DramSystem::write_row`]).
    data: RowMap<Box<[u8]>>,
    /// Currently-flipped cells per media row (keyed by [`row_key`]; entries
    /// may be empty — [`RowMap`] has no removal).
    flipped: RowMap<FlippedCells>,
    flip_log: FlipLog,
    now_ns: u64,
    next_ref_ns: u64,
    trefi_ns: u64,
    stats: DramStats,
    /// Reusable flip-collection buffer for the activation paths:
    /// `(act index, side, internal victim, cell)`.
    scratch_flips: Vec<(u64, RankSide, u32, WeakCell)>,
    /// Reusable in-range flip buffer for reads: `(byte, bit)`.
    scratch_read: Vec<(u32, u8)>,
    /// Reusable per-word flip-count buffer for reads.
    scratch_counts: Vec<u32>,
    /// Reusable buffer for the aggressors TRR serves at one REF step.
    scratch_served: Vec<u32>,
}

impl DramSystem {
    /// Convenience constructor with all defaults for `geometry`.
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        DramSystemBuilder::new(geometry).build()
    }

    /// The geometry this system was built with.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Device-event counters.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The historical log of every bit flip that ever occurred.
    #[must_use]
    pub fn flip_log(&self) -> &FlipLog {
        &self.flip_log
    }

    /// Clears the historical flip log (active cell corruption is untouched).
    pub fn clear_flip_log(&mut self) {
        self.flip_log.clear();
    }

    /// Current simulated time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The DIMM profile governing a bank's cells.
    #[must_use]
    pub fn profile_for(&self, bank: BankId) -> &DimmProfile {
        &self.profile_of_bank[bank.0 as usize]
    }

    /// Advances simulated time, executing any distributed REF steps that
    /// come due (one step per tREFI; a full pass refreshes every row within
    /// the 64 ms window).
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns += ns;
        while self.next_ref_ns <= self.now_ns {
            self.refresh_step();
            self.next_ref_ns += self.trefi_ns;
        }
        if self.scrub_interval_ns > 0 {
            while self.next_scrub_ns <= self.now_ns {
                let report = self.scrub();
                self.scrub_history.corrected.extend(report.corrected);
                self.scrub_history
                    .uncorrectable
                    .extend(report.uncorrectable);
                self.next_scrub_ns += self.scrub_interval_ns;
            }
        }
    }

    /// Accumulated results of automatic patrol scrubs (empty when patrol
    /// scrubbing is disabled).
    #[must_use]
    pub fn scrub_history(&self) -> &ScrubReport {
        &self.scrub_history
    }

    /// Adds this device's event totals into `reg`: activation/refresh/TRR
    /// counts, ECC outcomes, patrol-scrub results, and the distribution of
    /// active flips per subarray group (the containment quantity Table 3
    /// keys on).
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        reg.counter("acts").add(self.stats.acts);
        reg.counter("ref_steps").add(self.stats.ref_steps);
        reg.counter("trr_triggers").add(self.stats.trr_triggers);
        reg.counter("ecc_corrected_words")
            .add(self.stats.corrected_words);
        reg.counter("ecc_uncorrectable_words")
            .add(self.stats.uncorrectable_words);
        reg.counter("ecc_silent_words").add(self.stats.silent_words);
        reg.counter("scrub_corrected")
            .add(self.scrub_history.corrected.len() as u64);
        reg.counter("scrub_uncorrectable")
            .add(self.scrub_history.uncorrectable.len() as u64);
        reg.counter("flips_active").add(self.flip_log.len() as u64);
        // Group flips by (bank, subarray) with a sort + run-length count.
        let mut groups: Vec<(BankId, u32)> = self
            .flip_log
            .all()
            .iter()
            .map(|f| (f.bank, self.geometry.subarray_of_row(f.media_row)))
            .collect();
        groups.sort_unstable();
        let mut distinct = 0u64;
        let mut i = 0;
        let per_group_histo = reg.histo("flips_per_subarray_group");
        let mut run_lengths = Vec::new();
        while i < groups.len() {
            let mut j = i + 1;
            while j < groups.len() && groups[j] == groups[i] {
                j += 1;
            }
            distinct += 1;
            run_lengths.push((j - i) as u64);
            i = j;
        }
        reg.counter("subarray_groups_with_flips").add(distinct);
        for n in run_lengths {
            per_group_histo.observe(n);
        }
    }

    /// The state of `bank`, materialized (and joined to the REF sweep's
    /// `touched_banks`) on its first touch.
    fn bank_state(&mut self, bank: BankId) -> &mut BankState {
        let slot = &mut self.banks[bank.0 as usize];
        if slot.is_none() {
            *slot = Some(BankState::new(
                self.geometry.rows_per_bank,
                self.trr_capacity,
                self.trr_served,
            ));
            self.touched_banks.push(bank.0);
        }
        slot.as_mut().expect("just materialized")
    }

    /// Executes one distributed REF step across all active banks.
    fn refresh_step(&mut self) {
        self.stats.ref_steps += 1;
        let chunk = (self.geometry.rows_per_bank / REFS_PER_WINDOW).max(1);
        let rows_per_bank = self.geometry.rows_per_bank;
        let mut served = std::mem::take(&mut self.scratch_served);
        for ti in 0..self.touched_banks.len() {
            let ord = self.touched_banks[ti] as usize;
            let bank = self.banks[ord].as_mut().expect("touched bank exists");
            let start = bank.refresh_ptr;
            for i in 0..chunk {
                bank.refresh_row((start + i) % rows_per_bank);
            }
            bank.refresh_ptr = (start + chunk) % rows_per_bank;
            // TRR: serve suspected aggressors by refreshing their neighbors.
            for side in 0..2u8 {
                bank.trr[side as usize].on_refresh(&mut served);
                self.stats.trr_triggers += served.len() as u64;
                for &agg in &served {
                    for d in 1..=2u32 {
                        if agg >= d {
                            bank.refresh_half_row(side, agg - d);
                        }
                        if agg + d < rows_per_bank {
                            bank.refresh_half_row(side, agg + d);
                        }
                    }
                }
            }
        }
        self.scratch_served = served;
    }

    /// Activates a row given its full media address (§2.4).
    ///
    /// `extra_open_ns` is how long the row stays open beyond the nominal
    /// access time; long open times add RowPress disturbance (§2.5).
    pub fn activate(&mut self, media: &MediaAddress, extra_open_ns: u64) {
        let bank = media.global_bank(&self.geometry);
        self.activate_inner(bank, media.row, media.rank, extra_open_ns);
    }

    /// Activates `media_row` of `bank` (rank inferred from the bank id).
    pub fn activate_row(&mut self, bank: BankId, media_row: u32, extra_open_ns: u64) {
        let rank = self.rank_of_bank[bank.0 as usize];
        self.activate_inner(bank, media_row, rank, extra_open_ns);
    }

    /// Applies `count` back-to-back activations of `media_row` in one
    /// O(blast radius) sweep (the coalesced activation ledger).
    ///
    /// Produces bit-for-bit the flips, stats, and bank state of `count`
    /// sequential [`DramSystem::activate_row`] calls: disturbance
    /// accumulates as `count * w` per victim in segment form, every
    /// newly-crossed weak cell is emitted at its exact crossing act (in
    /// per-ACT order), and TRR sampler state replays via
    /// [`crate::TrrTracker::observe_n`].
    ///
    /// Activations are instantaneous (they never advance simulated time), so
    /// a burst can never *internally* cross a refresh; the contract is that
    /// callers must split activation runs around `advance_ns` calls — i.e. a
    /// burst stands for a run of ACTs with no intervening time advance.
    /// `count = 0` is a no-op (no bank state is materialized).
    ///
    /// This is the one-shot form: [`DramSystem::resolve_aggressor`] then
    /// [`DramSystem::activate_resolved`]. A caller that bursts the same row
    /// many times keeps the handle and pays the resolve once.
    pub fn activate_burst(&mut self, bank: BankId, media_row: u32, count: u64, extra_open_ns: u64) {
        if count == 0 {
            return;
        }
        let aggressor = self.resolve_aggressor(bank, media_row, extra_open_ns);
        self.activate_resolved(&aggressor, count);
    }

    /// Resolves everything about activating `media_row` of `bank` that does
    /// not depend on how many times: the internal aggressor row per rank
    /// side (repairs and DIMM-internal transforms applied), and its
    /// same-subarray victims within the blast radius with their
    /// RowPress-scaled weights, as indices into the bank's victim arena.
    ///
    /// Three things a caller holding the handle must know:
    ///
    /// - Resolving is the bank's *first touch*: it materializes the bank
    ///   state (and the victims' weak cells), and the bank's distributed
    ///   refresh sweep counts REF steps from that moment. Resolve where the
    ///   first burst would have been issued, not earlier.
    /// - The weights have `extra_open_ns` baked in: one handle per open time.
    /// - The handle indexes this device's arena and is meaningless on any
    ///   other device.
    #[inline]
    pub fn resolve_aggressor(
        &mut self,
        bank: BankId,
        media_row: u32,
        extra_open_ns: u64,
    ) -> Aggressor {
        debug_assert!(media_row < self.geometry.rows_per_bank);
        let rank = self.rank_of_bank[bank.0 as usize];
        let profile = self.profile_of_bank[bank.0 as usize];
        let geometry = self.geometry;
        let half = (geometry.row_bytes / 2) as u32;
        let sub_rows = geometry.rows_per_subarray;
        let rows_per_bank = geometry.rows_per_bank;
        let rowpress = profile.rowpress_per_us * extra_open_ns as f64 / 1000.0;
        let repaired_target = if self.repairs.is_repaired(bank, media_row) {
            Some(self.repairs.resolve(bank, media_row))
        } else {
            None
        };
        let internal_cfg = self.internal;
        let state = self.bank_state(bank);
        let mut aggressor = Aggressor {
            bank,
            rank,
            sides: [AggressorSide::default(); 2],
        };
        for (side, resolved) in RankSide::BOTH.into_iter().zip(&mut aggressor.sides) {
            let row = repaired_target
                .unwrap_or_else(|| internal_row(media_row, rank, side, internal_cfg));
            resolved.row = row;
            let sub = row / sub_rows;
            for d in 1..=profile.weights.radius() {
                let w = profile.weights.at(d) * (1.0 + rowpress);
                if w <= 0.0 {
                    continue;
                }
                let lo = row.checked_sub(d);
                let hi = if row + d < rows_per_bank {
                    Some(row + d)
                } else {
                    None
                };
                for v in [lo, hi].into_iter().flatten() {
                    if v / sub_rows != sub {
                        continue; // Subarray isolation (Fig. 1).
                    }
                    let idx = state.victim_idx_or_insert(&profile, bank.0, side, v, half);
                    resolved.victims[resolved.n_victims as usize] =
                        ResolvedVictim { idx, row: v, w };
                    resolved.n_victims += 1;
                }
            }
        }
        aggressor
    }

    /// Applies `count` back-to-back activations of a resolved aggressor:
    /// everything [`DramSystem::activate_burst`] promises, with the victims
    /// reached by arena index. `count = 0` is a no-op.
    ///
    /// The aggressor's own half-rows are not in the handle: rows two apart
    /// are each other's distance-2 victims, so an own half-row may gain
    /// victim state after the handle was resolved. Each call looks them up
    /// in the bank's flat index, one load per side.
    pub fn activate_resolved(&mut self, aggressor: &Aggressor, count: u64) {
        debug_assert!(
            self.now_ns < self.next_ref_ns,
            "a burst must not span a refresh boundary: split runs around advance_ns"
        );
        if count == 0 {
            return;
        }
        self.stats.acts += count;
        let bank = aggressor.bank;
        let state = self.banks[bank.0 as usize]
            .as_mut()
            .expect("resolve_aggressor materialized the bank");
        state.acts += count;
        for (side, resolved) in RankSide::BOTH.into_iter().zip(&aggressor.sides) {
            let s = side_idx(side);
            state.trr[s as usize].observe_n(resolved.row, count);
            // Every ACT refreshes the activated row itself; after the run,
            // only the last refresh matters.
            state.refresh_half_row(s, resolved.row);
            for v in &resolved.victims[..resolved.n_victims as usize] {
                debug_assert!(
                    (v.idx as usize) < state.victims.len(),
                    "handle resolved on another device"
                );
                let vs = &mut state.victims[v.idx as usize];
                let (base, n0) = vs.add(v.w, count);
                let final_disturb = base + v.w * ((n0 + count) as f64);
                while let Some(cell) = vs.pop_crossed(final_disturb) {
                    let j = first_crossing(base, v.w, n0, count, cell.threshold);
                    self.scratch_flips.push((j, side, v.row, cell));
                }
            }
        }
        if !self.scratch_flips.is_empty() {
            self.apply_scratch_flips(bank, aggressor.rank);
        }
    }

    /// Applies the flips an activation collected in `scratch_flips`, in
    /// per-ACT order — ascending crossing act, ties kept in (side,
    /// distance, lo/hi, cell) collection order by stability — and empties
    /// the buffer.
    fn apply_scratch_flips(&mut self, bank: BankId, rank: u16) {
        let mut flips = std::mem::take(&mut self.scratch_flips);
        flips.sort_by_key(|f| f.0);
        for &(_, side, internal_victim, cell) in &flips {
            self.apply_flip(bank, rank, side, internal_victim, cell);
        }
        flips.clear();
        self.scratch_flips = flips;
    }

    /// The per-ACT reference path (see [`DramSystem::activate_burst`] for
    /// the coalesced equivalent).
    fn activate_inner(&mut self, bank: BankId, media_row: u32, rank: u16, extra_open_ns: u64) {
        debug_assert!(media_row < self.geometry.rows_per_bank);
        self.stats.acts += 1;
        let profile = self.profile_of_bank[bank.0 as usize];
        let geometry = self.geometry;
        let internal_cfg = self.internal;
        let half = (geometry.row_bytes / 2) as u32;
        let sub_rows = geometry.rows_per_subarray;
        let rows_per_bank = geometry.rows_per_bank;
        let rowpress = profile.rowpress_per_us * extra_open_ns as f64 / 1000.0;
        let repaired_target = if self.repairs.is_repaired(bank, media_row) {
            Some(self.repairs.resolve(bank, media_row))
        } else {
            None
        };

        // Collect flips first to avoid borrowing `self` inside the loop.
        let mut new_flips = std::mem::take(&mut self.scratch_flips);
        {
            let state = self.bank_state(bank);
            state.acts += 1;
            for side in RankSide::BOTH {
                // The internal row whose cells are physically activated: a
                // repaired row's charge lives at its spare (§6); otherwise
                // the DDR4/vendor transforms apply.
                let aggressor = repaired_target
                    .unwrap_or_else(|| internal_row(media_row, rank, side, internal_cfg));
                state.trr[side_idx(side) as usize].observe(aggressor);
                // An ACT refreshes the activated row itself.
                state.refresh_half_row(side_idx(side), aggressor);
                // Disturb same-subarray neighbors (§2.5): rows in other
                // subarrays are electrically isolated.
                let sub = aggressor / sub_rows;
                for d in 1..=profile.weights.radius() {
                    let w = profile.weights.at(d) * (1.0 + rowpress);
                    if w <= 0.0 {
                        continue;
                    }
                    let lo = aggressor.checked_sub(d);
                    let hi = if aggressor + d < rows_per_bank {
                        Some(aggressor + d)
                    } else {
                        None
                    };
                    for v in [lo, hi].into_iter().flatten() {
                        if v / sub_rows != sub {
                            continue; // Subarray isolation (Fig. 1).
                        }
                        let vs = state.victim_mut(&profile, bank.0, side, v, half);
                        vs.add(w, 1);
                        let disturb = vs.disturb();
                        while let Some(cell) = vs.pop_crossed(disturb) {
                            new_flips.push((1, side, v, cell));
                        }
                    }
                }
            }
        }
        self.scratch_flips = new_flips;
        self.apply_scratch_flips(bank, rank);
    }

    /// Applies one flip at an internal victim location, translating back to
    /// media coordinates. Honors cell polarity: only a charged cell (stored
    /// bit matching the cell's vulnerable state) can flip.
    fn apply_flip(
        &mut self,
        bank: BankId,
        rank: u16,
        side: RankSide,
        internal_victim: u32,
        cell: WeakCell,
    ) {
        let (byte_in_half, bit) = (cell.byte_in_half, cell.bit);
        // Whose data lives at this internal row? A repair spare holds the
        // repaired media row's data; otherwise invert the transforms. Flips
        // landing in a repaired-away (disused) defective row hit no data.
        let media_row = match self.repair_inverse.get(row_key(bank, internal_victim)) {
            Some(&m) => m,
            None => {
                let m = media_row_from_internal(internal_victim, rank, side, self.internal);
                if self.repairs.is_repaired(bank, m) {
                    return;
                }
                m
            }
        };
        let half = (self.geometry.row_bytes / 2) as u32;
        let byte = match side {
            RankSide::A => byte_in_half,
            RankSide::B => half + byte_in_half,
        };
        // Pattern dependence: the stored bit must be in the cell's charged
        // state to leak. (Stored = written data XOR any active flip.)
        if self.pattern_dependent {
            let stored = self
                .data
                .get(row_key(bank, media_row))
                .map_or(0, |row| row[byte as usize]);
            let already = self
                .flipped
                .get(row_key(bank, media_row))
                .is_some_and(|v| v.contains(&(byte, bit, side)));
            let current = ((stored >> bit) & 1) ^ u8::from(already);
            if current != cell.polarity.vulnerable_bit() {
                return;
            }
        }
        let key = (byte, bit, side);
        let active = self
            .flipped
            .get_or_insert_with(row_key(bank, media_row), Vec::new);
        if !active.contains(&key) {
            active.push(key);
        }
        self.flip_log.record(BitFlip {
            bank,
            media_row,
            side,
            byte,
            bit,
        });
    }

    /// Writes bytes into a media row, restoring correct charge over the
    /// written region (overlapping flips are cleared).
    ///
    /// An absent row *is* an all-zero row (the canonical sparse form): zeros
    /// written into a row that holds no data clear the overlapping flips and
    /// store nothing, so zero-filling and block copies of never-written
    /// memory leave `data` — and the process's memory — where they were.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the row.
    pub fn write_row(&mut self, bank: BankId, media_row: u32, offset: u32, bytes: &[u8]) {
        let row_bytes = self.geometry.row_bytes as usize;
        let end = offset as usize + bytes.len();
        assert!(end <= row_bytes, "write beyond row end");
        let key = row_key(bank, media_row);
        if bytes.iter().all(|&b| b == 0) {
            if let Some(row) = self.data.get_mut(key) {
                row[offset as usize..end].fill(0);
            }
        } else {
            let row = self.data.get_or_insert_with(key, || {
                // lint:allow(hot-alloc) — first non-zero write to a row allocates its backing store once
                vec![0u8; row_bytes].into_boxed_slice()
            });
            row[offset as usize..end].copy_from_slice(bytes);
        }
        if let Some(active) = self.flipped.get_mut(key) {
            // RowMap has no removal; an emptied list simply stays empty.
            active.retain(|&(b, _, _)| (b as usize) < offset as usize || b as usize >= end);
        }
    }

    /// Reads bytes from a media row into `out` (cleared first), applying
    /// active flips and ECC, without allocating.
    ///
    /// Returns the integrity classification; `out` holds the data, corrected
    /// where ECC can correct. This is the hot-path form of
    /// [`DramSystem::read_row`] — block-copy loops (guest slices, migration)
    /// call it once per cache line with a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the row.
    pub fn read_row_into(
        &mut self,
        bank: BankId,
        media_row: u32,
        offset: u32,
        len: u32,
        out: &mut Vec<u8>,
    ) -> ReadIntegrity {
        let row_bytes = self.geometry.row_bytes as usize;
        let end = offset as usize + len as usize;
        assert!(end <= row_bytes, "read beyond row end");
        out.clear();
        match self.data.get(row_key(bank, media_row)) {
            Some(row) => out.extend_from_slice(&row[offset as usize..end]),
            None => out.resize(len as usize, 0),
        }
        // Collect in-range flips, then count them per 64-bit word via a
        // sort + run-length pass (same multiset `classify` always saw).
        let mut in_range = std::mem::take(&mut self.scratch_read);
        in_range.clear();
        if let Some(active) = self.flipped.get(row_key(bank, media_row)) {
            for &(byte, bit, _) in active {
                if (byte as usize) >= offset as usize && (byte as usize) < end {
                    in_range.push((byte, bit));
                }
            }
        }
        let mut counts = std::mem::take(&mut self.scratch_counts);
        counts.clear();
        in_range.sort_unstable_by_key(|&(byte, _)| byte / 8);
        let mut i = 0;
        while i < in_range.len() {
            let word = in_range[i].0 / 8;
            let mut j = i + 1;
            while j < in_range.len() && in_range[j].0 / 8 == word {
                j += 1;
            }
            counts.push((j - i) as u32);
            i = j;
        }
        let integrity = classify(self.ecc, &counts);
        match integrity {
            ReadIntegrity::Clean => {}
            ReadIntegrity::Corrected(n) => {
                // ECC corrects the returned data (cells stay flipped).
                self.stats.corrected_words += n as u64;
            }
            other => {
                // Data returned with the corruption applied.
                for &(byte, bit) in &in_range {
                    out[byte as usize - offset as usize] ^= 1 << bit;
                }
                match other {
                    ReadIntegrity::Uncorrectable(n) => self.stats.uncorrectable_words += n as u64,
                    ReadIntegrity::SilentlyCorrupt(n) => self.stats.silent_words += n as u64,
                    _ => unreachable!(),
                }
            }
        }
        in_range.clear();
        self.scratch_read = in_range;
        counts.clear();
        self.scratch_counts = counts;
        integrity
    }

    /// Reads bytes from a media row, applying active flips and ECC.
    ///
    /// Returns the data (corrected where ECC can correct) and the integrity
    /// classification of the access. Allocates the returned buffer; hot
    /// loops should prefer [`DramSystem::read_row_into`].
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the row.
    pub fn read_row(
        &mut self,
        bank: BankId,
        media_row: u32,
        offset: u32,
        len: u32,
    ) -> (Vec<u8>, ReadIntegrity) {
        let mut out = Vec::with_capacity(len as usize);
        let integrity = self.read_row_into(bank, media_row, offset, len, &mut out);
        (out, integrity)
    }

    /// Number of actively-flipped cells in a media row.
    #[must_use]
    pub fn active_flip_count(&self, bank: BankId, media_row: u32) -> usize {
        self.flipped
            .get(row_key(bank, media_row))
            .map_or(0, Vec::len)
    }

    /// Number of media rows holding written data: the device's memory
    /// footprint as a count. Zero-fills of unwritten rows never raise it
    /// (see [`DramSystem::write_row`]).
    #[must_use]
    pub fn rows_written(&self) -> usize {
        self.data.len()
    }

    /// Whether a media row is blank: no written data and no active flip, so
    /// every read of it returns clean zeros and touches no counter.
    #[must_use]
    pub fn row_is_blank(&self, bank: BankId, media_row: u32) -> bool {
        self.data.get(row_key(bank, media_row)).is_none()
            && self.active_flip_count(bank, media_row) == 0
    }

    /// All media rows currently holding flipped cells.
    #[must_use]
    pub fn rows_with_active_flips(&self) -> Vec<(BankId, u32)> {
        let mut v: Vec<(BankId, u32)> = self
            .flipped
            .iter()
            .filter(|(_, cells)| !cells.is_empty())
            .map(|(k, _)| unpack_row_key(k))
            .collect();
        v.sort_unstable();
        v
    }

    /// Patrol scrub (§2.5): walks all corrupted rows; corrects (rewrites)
    /// cells in words with a single flip, reports multi-bit words.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut keys: Vec<u64> = self
            .flipped
            .iter()
            .filter(|(_, cells)| !cells.is_empty())
            .map(|(k, _)| k)
            .collect();
        keys.sort_unstable();
        for key in keys {
            let Some(active) = self.flipped.get_mut(key) else {
                continue;
            };
            // Per-word flip counts, kept sorted by word for binary search.
            let mut words: Vec<(u32, u32)> = Vec::new();
            for &(byte, _, _) in active.iter() {
                match words.binary_search_by_key(&(byte / 8), |e| e.0) {
                    Ok(i) => words[i].1 += 1,
                    Err(i) => words.insert(i, (byte / 8, 1)),
                }
            }
            let (bank, row) = unpack_row_key(key);
            active.retain(|&(byte, _, _)| {
                let i = words
                    .binary_search_by_key(&(byte / 8), |e| e.0)
                    .expect("every active byte was counted");
                if words[i].1 == 1 {
                    report.corrected.push((bank, row, byte));
                    false
                } else {
                    report.uncorrectable.push((bank, row, byte));
                    true
                }
            });
        }
        report.corrected.sort_unstable();
        report.uncorrectable.sort_unstable();
        report.uncorrectable.dedup();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_addr::mini_geometry;

    fn hammer_pair(dram: &mut DramSystem, bank: BankId, a: u32, b: u32, rounds: u32) {
        for _ in 0..rounds {
            dram.activate_row(bank, a, 0);
            dram.activate_row(bank, b, 0);
            dram.advance_ns(94); // ~2 * tRC
        }
    }

    fn no_trr() -> DramSystem {
        DramSystemBuilder::new(mini_geometry()).trr(0, 0).build()
    }

    #[test]
    fn double_sided_hammer_flips_sandwiched_victim() {
        let mut dram = no_trr();
        let bank = BankId(0);
        hammer_pair(&mut dram, bank, 20, 22, 120_000);
        assert!(
            dram.flip_log().in_row_range(bank, 21, 22).count() > 0,
            "row 21 is double-sided hammered and must flip"
        );
    }

    #[test]
    fn flips_never_escape_the_subarray() {
        // §2.5/Fig. 1: rows in different subarrays are unaffected.
        let mut dram = no_trr();
        let bank = BankId(1);
        // Hammer at the subarray boundary (mini geometry: 256-row subarrays).
        hammer_pair(&mut dram, bank, 254, 256, 150_000);
        for f in dram.flip_log().all() {
            let sub_of_flip = f.media_row / 256;
            assert!(
                sub_of_flip == 254 / 256 || sub_of_flip == 256 / 256,
                "flip in row {} is outside both aggressors' subarrays",
                f.media_row
            );
            // Stronger: each flip must share a subarray with an aggressor.
        }
        // Victims 255 (same subarray as 254) may flip; row 256's neighbors
        // 257+ may flip; but aggressor 254 must never flip row 256's side
        // victims' subarray-crossing neighbors. Check the boundary cell:
        // row 255 can only have been flipped by aggressor 254 (same
        // subarray), which is legal; what must NOT happen is zero-distance
        // isolation violations, verified by the subarray check above.
        assert!(dram.stats().acts >= 300_000);
    }

    #[test]
    fn single_subarray_isolation_boundary_is_exact() {
        // Hammer only row 255 (last row of subarray 0). Row 256 (subarray 1)
        // is adjacent by media address but must never flip; row 254 may.
        let mut dram = no_trr();
        let bank = BankId(2);
        for _ in 0..400_000 {
            dram.activate_row(bank, 255, 0);
            dram.advance_ns(47);
        }
        assert_eq!(
            dram.flip_log().in_row_range(bank, 256, 259).count(),
            0,
            "no flips across the subarray boundary"
        );
    }

    #[test]
    fn refresh_prevents_slow_hammering() {
        // Below-threshold activation rates never flip: the 64 ms refresh
        // window clears disturbance first.
        let mut dram = no_trr();
        let bank = BankId(0);
        // ~6400 ACTs per aggressor per 64 ms window, far below threshold.
        for _ in 0..50_000 {
            dram.activate_row(bank, 40, 0);
            dram.activate_row(bank, 42, 0);
            dram.advance_ns(10_000);
        }
        assert!(dram.flip_log().is_empty(), "slow hammering must not flip");
    }

    #[test]
    fn trr_defends_against_simple_double_sided_hammering() {
        let mut trr = DramSystemBuilder::new(mini_geometry()).trr(4, 2).build();
        let bank = BankId(0);
        hammer_pair(&mut trr, bank, 20, 22, 120_000);
        assert!(
            trr.flip_log().is_empty(),
            "TRR should catch a plain double-sided pattern"
        );
    }

    #[test]
    fn many_sided_pattern_defeats_trr() {
        // TRRespass/Blacksmith-style: more aggressors than tracker slots.
        let mut dram = DramSystemBuilder::new(mini_geometry()).trr(4, 2).build();
        let bank = BankId(0);
        let aggressors: Vec<u32> = (0..12).map(|i| 10 + i * 2).collect();
        for _ in 0..120_000 {
            for &a in &aggressors {
                dram.activate_row(bank, a, 0);
            }
            dram.advance_ns(47 * aggressors.len() as u64);
        }
        assert!(
            !dram.flip_log().is_empty(),
            "a 12-sided pattern must defeat the 4-entry TRR"
        );
    }

    #[test]
    fn rowpress_amplifies_disturbance() {
        // Same ACT count, long open time: flips appear sooner (§2.5).
        let mut plain = no_trr();
        let mut pressed = no_trr();
        let bank = BankId(0);
        for _ in 0..30_000 {
            plain.activate_row(bank, 20, 0);
            plain.activate_row(bank, 22, 0);
            plain.advance_ns(94);
            pressed.activate_row(bank, 20, 3_000);
            pressed.activate_row(bank, 22, 3_000);
            pressed.advance_ns(94);
        }
        assert!(
            pressed.flip_log().len() > plain.flip_log().len(),
            "RowPress (long tAggOn) must increase flips: pressed={} plain={}",
            pressed.flip_log().len(),
            plain.flip_log().len()
        );
    }

    #[test]
    fn writes_restore_flipped_cells() {
        let mut dram = no_trr();
        let bank = BankId(0);
        hammer_pair(&mut dram, bank, 20, 22, 120_000);
        let rows: Vec<u32> = dram
            .rows_with_active_flips()
            .iter()
            .filter(|(b, _)| *b == bank)
            .map(|&(_, r)| r)
            .collect();
        assert!(!rows.is_empty());
        let row_bytes = dram.geometry().row_bytes as usize;
        for r in rows {
            dram.write_row(bank, r, 0, &vec![0u8; row_bytes]);
            assert_eq!(dram.active_flip_count(bank, r), 0);
        }
    }

    #[test]
    fn zero_writes_never_materialise_an_unwritten_row() {
        let mut dram = no_trr();
        let bank = BankId(0);
        hammer_pair(&mut dram, bank, 20, 22, 120_000);
        assert!(dram.active_flip_count(bank, 21) > 0);
        assert!(!dram.row_is_blank(bank, 21), "flipped cells are not blank");
        // Zeros into an unwritten row: flips under the write are cleared,
        // the row reads back as zeros, and nothing is stored.
        dram.write_row(bank, 21, 0, &[0u8; 8192]);
        assert_eq!(dram.active_flip_count(bank, 21), 0);
        assert_eq!(dram.rows_written(), 0);
        assert!(dram.row_is_blank(bank, 21));
        assert_eq!(
            dram.read_row(bank, 21, 0, 8192),
            (vec![0u8; 8192], ReadIntegrity::Clean)
        );
        // One non-zero byte materialises the row ...
        dram.write_row(bank, 21, 100, &[0, 0, 7, 0]);
        assert_eq!(dram.rows_written(), 1);
        assert!(!dram.row_is_blank(bank, 21));
        assert_eq!(dram.read_row(bank, 21, 100, 4).0, [0, 0, 7, 0]);
        // ... and zeros into a *written* row overwrite what it held.
        dram.write_row(bank, 21, 96, &[0u8; 16]);
        assert_eq!(dram.rows_written(), 1);
        assert_eq!(dram.read_row(bank, 21, 96, 16).0, [0u8; 16]);
    }

    #[test]
    fn read_applies_ecc() {
        let mut dram = no_trr();
        let bank = BankId(0);
        dram.write_row(bank, 21, 0, &[0xAAu8; 64]);
        hammer_pair(&mut dram, bank, 20, 22, 200_000);
        let n_flips = dram.active_flip_count(bank, 21);
        assert!(n_flips > 0);
        let (_data, integrity) = dram.read_row(bank, 21, 0, 8192);
        match integrity {
            ReadIntegrity::Corrected(_)
            | ReadIntegrity::Uncorrectable(_)
            | ReadIntegrity::SilentlyCorrupt(_) => {}
            ReadIntegrity::Clean => panic!("flipped row read back clean"),
        }
    }

    #[test]
    fn read_row_into_matches_read_row() {
        let mut dram = no_trr();
        let bank = BankId(0);
        dram.write_row(bank, 21, 0, &[0x5Au8; 128]);
        hammer_pair(&mut dram, bank, 20, 22, 200_000);
        let mut scratch = Vec::new();
        for (offset, len) in [(0u32, 64u32), (64, 64), (0, 8192), (100, 28)] {
            let integrity_into = dram.read_row_into(bank, 21, offset, len, &mut scratch);
            let (data, integrity) = dram.read_row(bank, 21, offset, len);
            // Stats diverge (both calls count ECC events) but data and
            // classification must agree.
            assert_eq!(scratch, data, "offset {offset} len {len}");
            assert_eq!(integrity_into, integrity);
        }
    }

    #[test]
    fn scrub_corrects_single_bit_words_and_reports_locations() {
        let mut dram = no_trr();
        let bank = BankId(0);
        hammer_pair(&mut dram, bank, 30, 32, 120_000);
        assert!(!dram.rows_with_active_flips().is_empty());
        let report = dram.scrub();
        assert!(!report.corrected.is_empty() || !report.uncorrectable.is_empty());
        // After a scrub, another scrub finds nothing new to correct.
        let again = dram.scrub();
        assert!(again.corrected.is_empty());
    }

    #[test]
    fn repaired_rows_hammer_at_their_spare_location() {
        // A media row repaired to a spare in a different subarray disturbs
        // neighbors of the *spare*, not of the media address (§6).
        let mut repairs = RepairMap::new();
        let bank = BankId(0);
        // Media row 20 backed by internal row 600 (subarray 2 in mini).
        repairs.insert(bank, 20, 600);
        let mut dram = DramSystemBuilder::new(mini_geometry())
            .trr(0, 0)
            .repairs(repairs)
            .internal_map(InternalMapConfig::identity())
            .build();
        for _ in 0..400_000 {
            dram.activate_row(bank, 20, 0);
            dram.advance_ns(47);
        }
        let near_media: usize = dram.flip_log().in_row_range(bank, 18, 23).count();
        let near_spare: usize = dram.flip_log().in_row_range(bank, 598, 603).count();
        assert_eq!(near_media, 0, "no disturbance at the disused media rows");
        assert!(near_spare > 0, "disturbance appears around the spare row");
    }

    #[test]
    fn profiles_map_to_dimm_slots_round_robin() {
        use dram_addr::skylake_geometry;
        let dram = DramSystemBuilder::new(skylake_geometry())
            .profiles(DimmProfile::evaluation_dimms())
            .build();
        // Socket 0 channel 0 -> profile A; channel 5 -> profile F.
        let g = *dram.geometry();
        let mut seen = Vec::new();
        for flat in 0..g.banks_per_socket() {
            let name = dram.profile_for(BankId(flat)).name;
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, ["A", "B", "C", "D", "E", "F"]);
    }

    #[test]
    fn building_a_device_pays_nothing_per_bank() {
        // Host set-up (`setup_s` in the repo benchmark) builds a device per
        // host; its cost is O(banks) only in the `None` slots. Bank state —
        // the victim arena, its index, the TRR tables — exists from a bank's
        // first activation, and stays small enough that the slot array of a
        // 384-bank evaluation host is a few pages. Handles live with their
        // caller, never inline here. 176 bytes with a `RowMap` victim index,
        // 144 with the flat `Vec<u32>` one (its rows live on the heap).
        let size = std::mem::size_of::<Option<BankState>>();
        assert!(size <= 144, "Option<BankState> grew to {size} bytes");
        let dram = DramSystem::new(dram_addr::skylake_geometry());
        assert_eq!(dram.banks.len(), 384);
        assert!(dram.banks.iter().all(Option::is_none));
        assert!(dram.touched_banks.is_empty());
    }

    #[test]
    fn invulnerable_profile_never_flips() {
        let mut dram = DramSystemBuilder::new(mini_geometry())
            .profiles(vec![DimmProfile::invulnerable()])
            .trr(0, 0)
            .build();
        hammer_pair(&mut dram, BankId(0), 20, 22, 50_000);
        assert!(dram.flip_log().is_empty());
    }

    #[test]
    fn patrol_scrub_corrects_over_time() {
        // Like §7.1's 24 h soak: automatic scrubbing repairs single-bit
        // damage as simulated time passes.
        let mut dram = DramSystemBuilder::new(mini_geometry())
            .trr(0, 0)
            .patrol_scrub(10_000_000) // every 10 ms of simulated time
            .build();
        let bank = BankId(0);
        hammer_pair(&mut dram, bank, 20, 22, 120_000);
        // ~11 ms of hammering elapsed; push past the next scrub point.
        dram.advance_ns(20_000_000);
        assert!(
            !dram.scrub_history().corrected.is_empty(),
            "patrol scrub must have corrected something"
        );
        // Single-bit (per word) corruption is gone from the cells.
        let corrected = dram.scrub();
        assert!(corrected.corrected.is_empty(), "nothing left to correct");
    }

    #[test]
    fn flips_are_data_pattern_dependent() {
        // True cells flip only 1 -> 0; anti cells only 0 -> 1. Striping a
        // victim with all-ones vs all-zeros must select disjoint flip sets
        // at the same cell positions.
        let run = |fill: u8| {
            let mut dram = no_trr();
            let bank = BankId(0);
            let row_bytes = dram.geometry().row_bytes as usize;
            dram.write_row(bank, 21, 0, &vec![fill; row_bytes]);
            hammer_pair(&mut dram, bank, 20, 22, 200_000);
            let flips: Vec<(u32, u8)> = dram
                .flip_log()
                .in_row_range(bank, 21, 22)
                .map(|f| (f.byte, f.bit))
                .collect();
            flips
        };
        let ones = run(0xFF);
        let zeros = run(0x00);
        assert!(!ones.is_empty(), "all-ones victims expose true cells");
        assert!(!zeros.is_empty(), "all-zero victims expose anti cells");
        for f in &ones {
            assert!(!zeros.contains(f), "cell {f:?} flipped in both polarities");
        }
    }

    #[test]
    fn pattern_independence_can_be_disabled() {
        // With the option off, both fills flip the same cells.
        let run = |fill: u8| {
            let mut dram = DramSystemBuilder::new(mini_geometry())
                .trr(0, 0)
                .pattern_dependent(false)
                .build();
            let bank = BankId(0);
            let row_bytes = dram.geometry().row_bytes as usize;
            dram.write_row(bank, 21, 0, &vec![fill; row_bytes]);
            hammer_pair(&mut dram, bank, 20, 22, 150_000);
            dram.flip_log()
                .in_row_range(bank, 21, 22)
                .map(|f| (f.byte, f.bit))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0xFF), run(0x00));
    }

    #[test]
    fn time_advances_and_refresh_steps_accumulate() {
        let mut dram = no_trr();
        dram.activate_row(BankId(0), 0, 0); // materialize a bank
        dram.advance_ns(REFRESH_WINDOW_NS);
        assert_eq!(dram.stats().ref_steps, REFS_PER_WINDOW as u64);
        assert_eq!(dram.now_ns(), REFRESH_WINDOW_NS);
    }

    // ------------------------------------------------------------------
    // Burst edge cases. The broad randomized equivalence battery lives in
    // crates/dram/tests/burst_equivalence.rs; these pin the named corners.
    // ------------------------------------------------------------------

    /// Asserts two devices have bit-identical observable state.
    fn assert_same_state(a: &DramSystem, b: &DramSystem) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.flip_log().all(), b.flip_log().all());
        assert_eq!(a.rows_with_active_flips(), b.rows_with_active_flips());
    }

    #[test]
    fn burst_count_zero_and_one_match_per_act_exactly() {
        let mut reference = no_trr();
        let mut burst = no_trr();
        let bank = BankId(0);
        // count = 0: a no-op that must not even materialize bank state.
        burst.activate_burst(bank, 10, 0, 0);
        assert_eq!(burst.stats().acts, 0);
        assert!(burst.touched_banks.is_empty());
        // count = 1 repeatedly: identical to the per-ACT path bit-for-bit.
        for round in 0..120_000 {
            reference.activate_row(bank, 20, 0);
            reference.activate_row(bank, 22, 0);
            reference.advance_ns(94);
            burst.activate_burst(bank, 20, 1, 0);
            burst.activate_burst(bank, 22, 1, 0);
            burst.advance_ns(94);
            let _ = round;
        }
        assert_same_state(&reference, &burst);
        assert!(!reference.flip_log().is_empty());
    }

    #[test]
    fn resolve_aggressor_is_the_banks_first_touch() {
        // The contract a handle's holder works to: a bank's refresh sweep
        // counts REF steps from its first touch, and resolving is a touch.
        // Resolve → REF → burst therefore leaves the sweep one chunk ahead
        // of REF → burst, which is why a handle is resolved where its first
        // burst is issued and not earlier.
        let bank = BankId(0);
        let mut early = no_trr();
        let aggressor = early.resolve_aggressor(bank, 20, 0);
        assert_eq!(early.touched_banks, [bank.0]);
        early.advance_ns(early.trefi_ns);
        early.activate_resolved(&aggressor, 5);

        let mut late = no_trr();
        late.advance_ns(late.trefi_ns);
        late.activate_burst(bank, 20, 5, 0);

        let sweep = |d: &DramSystem| d.banks[bank.0 as usize].as_ref().unwrap().refresh_ptr;
        let chunk = (mini_geometry().rows_per_bank / REFS_PER_WINDOW).max(1);
        assert_eq!(sweep(&late), 0);
        assert_eq!(sweep(&early), chunk);
        assert_eq!(early.stats(), late.stats());
    }

    #[test]
    fn burst_split_at_refresh_boundary_matches_per_act() {
        // A hammer run interleaved with time advances: the caller splits the
        // run into one burst per inter-refresh interval. Both paths must see
        // the same refresh schedule and produce the same flips.
        let mut reference = no_trr();
        let mut burst = no_trr();
        let bank = BankId(0);
        let per_interval = 800u64; // ACTs between time advances
        for _ in 0..160 {
            for _ in 0..per_interval {
                reference.activate_row(bank, 50, 0);
            }
            reference.advance_ns(40_000); // > tREFI: refresh lands mid-run
            burst.activate_burst(bank, 50, per_interval, 0);
            burst.advance_ns(40_000);
        }
        assert_same_state(&reference, &burst);
        assert!(reference.stats().ref_steps > 0, "refreshes did occur");
    }

    #[test]
    fn burst_crossing_a_trr_serve_matches_per_act() {
        // With TRR enabled, REFs between bursts serve tracked aggressors and
        // reset counters; observe_n must replay the sampler exactly across
        // those serves, including the zero-count entries they leave behind.
        let run = |coalesced: bool| {
            let mut dram = DramSystemBuilder::new(mini_geometry()).trr(4, 2).build();
            let bank = BankId(0);
            let aggressors: [u32; 12] = core::array::from_fn(|i| 10 + 2 * i as u32);
            for _ in 0..12_000 {
                for &a in &aggressors {
                    if coalesced {
                        dram.activate_burst(bank, a, 10, 0);
                    } else {
                        for _ in 0..10 {
                            dram.activate_row(bank, a, 0);
                        }
                    }
                }
                dram.advance_ns(47 * 10 * aggressors.len() as u64);
            }
            dram
        };
        let reference = run(false);
        let burst = run(true);
        assert_same_state(&reference, &burst);
        assert!(reference.stats().trr_triggers > 0, "TRR did serve");
        assert!(!reference.flip_log().is_empty(), "pattern defeated TRR");
    }

    #[test]
    fn burst_on_repaired_row_matches_per_act() {
        let build = || {
            let mut repairs = RepairMap::new();
            repairs.insert(BankId(0), 20, 600);
            DramSystemBuilder::new(mini_geometry())
                .trr(0, 0)
                .repairs(repairs)
                .internal_map(InternalMapConfig::identity())
                .build()
        };
        let mut reference = build();
        let mut burst = build();
        let bank = BankId(0);
        for _ in 0..500 {
            for _ in 0..800 {
                reference.activate_row(bank, 20, 0);
            }
            reference.advance_ns(800 * 47);
            burst.activate_burst(bank, 20, 800, 0);
            burst.advance_ns(800 * 47);
        }
        assert_same_state(&reference, &burst);
        assert!(
            reference.flip_log().in_row_range(bank, 598, 603).count() > 0,
            "hammering lands at the spare"
        );
    }

    #[test]
    fn burst_with_victims_straddling_subarray_edge_matches_per_act() {
        // Aggressor at row 255 (last of subarray 0, mini geometry): victims
        // 256/257 are out of the subarray and must stay untouched on both
        // paths; 253/254 accumulate normally.
        let mut reference = no_trr();
        let mut burst = no_trr();
        let bank = BankId(2);
        for _ in 0..500 {
            for _ in 0..900 {
                reference.activate_row(bank, 255, 0);
            }
            reference.advance_ns(900 * 47);
            burst.activate_burst(bank, 255, 900, 0);
            burst.advance_ns(900 * 47);
        }
        assert_same_state(&reference, &burst);
        assert_eq!(burst.flip_log().in_row_range(bank, 256, 259).count(), 0);
        assert!(burst.flip_log().in_row_range(bank, 253, 255).count() > 0);
    }

    #[test]
    fn burst_with_rowpress_matches_per_act() {
        let mut reference = no_trr();
        let mut burst = no_trr();
        let bank = BankId(0);
        for _ in 0..400 {
            // Mixed weights within one window: RowPress on row 20 only, so
            // victim 21 sees two weight regimes and the segment fold runs.
            // Both paths issue the identical run-ordered ACT sequence.
            for _ in 0..100 {
                reference.activate_row(bank, 20, 3_000);
            }
            for _ in 0..100 {
                reference.activate_row(bank, 22, 0);
            }
            reference.advance_ns(100 * 94);
            burst.activate_burst(bank, 20, 100, 3_000);
            burst.activate_burst(bank, 22, 100, 0);
            burst.advance_ns(100 * 94);
        }
        assert_same_state(&reference, &burst);
        assert!(!reference.flip_log().is_empty());
    }
}
