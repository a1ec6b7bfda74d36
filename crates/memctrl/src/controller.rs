//! The FR-FCFS memory controller.
//!
//! All scheduling state lives in dense `Vec`s indexed by ordinals derived
//! from the [`Geometry`] (flat bank id, channel ordinal, rank ordinal)
//! rather than hash maps — the controller's hot path does no hashing at
//! all. Address decode goes through a [`DecodeTlb`], and [`run_trace`]
//! decodes each op once as the scheduler draws it instead of re-decoding
//! the whole pending window on every FR-FCFS pick; [`run_compiled`] feeds
//! the same scheduling loop from a pre-decoded program. The pre-flattening
//! implementation is retained as [`crate::HashedController`] — the
//! independently written oracle both entry points are tested against.
//!
//! [`run_trace`]: MemoryController::run_trace
//! [`run_compiled`]: MemoryController::run_compiled

use crate::bankfsm::{AccessKind, BankFsm, PagePolicy};
use crate::compiled::{CompiledOp, CompiledTrace, INVALID_BANK};
use crate::stats::CtrlStats;
use crate::timing::DdrTimings;
use dram::DramSystem;
use dram_addr::{AddrError, BankId, DecodeTlb, Geometry, MediaAddress, SystemAddressDecoder};

/// One memory operation of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Host physical address.
    pub phys: u64,
    /// Write (true) or read (false).
    pub write: bool,
    /// CPU time (picoseconds) this thread spends between its previous op's
    /// issue and this op's issue: models compute between memory accesses.
    pub gap_ps: u64,
    /// If true, this op cannot issue before this *thread's* previous op
    /// completes (models a data dependency, e.g. pointer chasing).
    pub dependent: bool,
    /// Issuing hardware thread. Threads progress independently: gaps and
    /// dependencies apply per thread, so a 40-thread trace keeps the
    /// memory system far busier than a serial one.
    pub thread: u16,
}

impl MemOp {
    /// An independent read with no preceding compute gap, on thread 0.
    #[must_use]
    pub const fn read(phys: u64) -> Self {
        Self {
            phys,
            write: false,
            gap_ps: 0,
            dependent: false,
            thread: 0,
        }
    }

    /// An independent write with no preceding compute gap, on thread 0.
    #[must_use]
    pub const fn write(phys: u64) -> Self {
        Self {
            phys,
            write: true,
            gap_ps: 0,
            dependent: false,
            thread: 0,
        }
    }

    /// Marks the op as dependent on its thread's previous op completing.
    #[must_use]
    pub const fn after_previous(mut self) -> Self {
        self.dependent = true;
        self
    }

    /// Adds a compute gap before the op.
    #[must_use]
    pub const fn with_gap_ps(mut self, gap_ps: u64) -> Self {
        self.gap_ps = gap_ps;
        self
    }

    /// Assigns the op to a hardware thread.
    #[must_use]
    pub const fn on_thread(mut self, thread: u16) -> Self {
        self.thread = thread;
        self
    }
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Row-buffer interaction.
    pub kind: AccessKind,
    /// Completion time (data burst end), picoseconds.
    pub done_ps: u64,
    /// Arrival-to-completion latency, picoseconds.
    pub latency_ps: u64,
}

/// Result of replaying a whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// Controller statistics accumulated over the trace.
    pub stats: CtrlStats,
    /// Time from the first issue to the last completion, picoseconds.
    pub elapsed_ps: u64,
    /// Per-thread `(latency sum ps, access count)` — for per-tenant
    /// accounting when several VMs' threads share one trace. Strictly
    /// ascending by thread id (one entry per id, so
    /// [`Self::mean_latency_ns_of`] can binary-search it); threads with no
    /// completed access are omitted.
    pub thread_latency: Vec<(u16, (u64, u64))>,
}

impl TraceResult {
    /// Elapsed time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ps as f64 * 1e-9
    }

    /// Achieved bandwidth over the trace, GiB/s.
    #[must_use]
    pub fn bandwidth_gib_s(&self) -> f64 {
        if self.elapsed_ps == 0 {
            return 0.0;
        }
        self.stats.bytes as f64 / (1u64 << 30) as f64 / (self.elapsed_ps as f64 * 1e-12)
    }

    /// Mean access latency (ns) over a set of threads (e.g. one tenant's).
    #[must_use]
    pub fn mean_latency_ns_of(&self, threads: impl IntoIterator<Item = u16>) -> f64 {
        let (mut sum, mut count) = (0u64, 0u64);
        for t in threads {
            if let Ok(i) = self.thread_latency.binary_search_by_key(&t, |&(id, _)| id) {
                let (s, c) = self.thread_latency[i].1;
                sum += s;
                count += c;
            }
        }
        if count == 0 {
            return 0.0;
        }
        sum as f64 / count as f64 / 1000.0
    }
}

/// A buffered run of back-to-back same-row activations, awaiting coalesced
/// issue to the device as one [`DramSystem::activate_burst`]. While a run is
/// pending no other device call is made, so flushing it late is
/// bit-identical to having issued each ACT at buffering time.
#[derive(Debug, Clone, Copy)]
struct ActRun {
    bank: BankId,
    row: u32,
    count: u64,
}

/// Per-rank activate bookkeeping (tFAW and tRRD). The last four ACT
/// starts sit in a ring: `recent_len` of them are valid and, once all four
/// are, `recent_acts[recent_next]` is the oldest.
#[derive(Debug, Default, Clone, Copy)]
struct RankState {
    recent_acts: [u64; 4],
    recent_len: u8,
    recent_next: u8,
    last_act_ps: u64,
}

impl RankState {
    /// Start of the fourth-most-recent ACT, once four have issued: the
    /// next ACT may not start before it plus tFAW.
    #[inline]
    fn faw_anchor(&self) -> Option<u64> {
        (self.recent_len == 4).then(|| self.recent_acts[self.recent_next as usize])
    }

    /// Records an ACT starting at `act_ps`, evicting the oldest of four.
    #[inline]
    fn record_act(&mut self, act_ps: u64) {
        self.last_act_ps = act_ps;
        self.recent_acts[self.recent_next as usize] = act_ps;
        self.recent_next = (self.recent_next + 1) % 4;
        self.recent_len = (self.recent_len + 1).min(4);
    }
}

/// One thread's issue state during a replay; lives in a [`ThreadTable`].
#[derive(Debug, Clone, Copy)]
struct PerThread {
    cursor: u64,
    last_done: u64,
    outstanding: u32,
    lat_sum: u64,
    lat_count: u64,
}

/// The per-thread table of one replay: a dense `Vec` over the span of
/// thread ids the replay has seen, `lo..lo + slots.len()`.
///
/// Thread ids are semantic (mitigation sources, keys of
/// [`TraceResult::thread_latency`]) and a fleet tenant's threads start
/// anywhere in `u16`, so the table is offset by the lowest id seen
/// rather than indexed from 0: a replay costs O(threads it uses), not
/// O(largest id).
struct ThreadTable {
    lo: u16,
    slots: Vec<PerThread>,
    start_clock: u64,
}

impl ThreadTable {
    fn new(start_clock: u64) -> Self {
        Self {
            lo: 0,
            slots: Vec::new(),
            start_clock,
        }
    }

    /// Returns the slot index of `thread`, growing the span (up or down)
    /// on first sight. Growing down moves every slot up by the growth, so a
    /// caller holding slot indices re-bases them when `lo` falls.
    fn slot(&mut self, thread: u16) -> usize {
        // Wrapping: an id below `lo` lands at or past `slots.len()`
        // (the span never exceeds 65 536 ids), so one compare finds both
        // ways out of the span.
        let off = thread.wrapping_sub(self.lo) as usize;
        if off >= self.slots.len() {
            return self.grow(thread);
        }
        off
    }

    #[cold]
    fn grow(&mut self, thread: u16) -> usize {
        let fresh = PerThread {
            cursor: self.start_clock,
            last_done: self.start_clock,
            outstanding: 0,
            lat_sum: 0,
            lat_count: 0,
        };
        if self.slots.is_empty() {
            self.lo = thread;
        } else if thread < self.lo {
            let below = (self.lo - thread) as usize;
            self.slots.splice(0..0, std::iter::repeat_n(fresh, below));
            self.lo = thread;
        }
        let off = (thread - self.lo) as usize;
        if off >= self.slots.len() {
            self.slots.resize(off + 1, fresh);
        }
        off
    }

    /// `(id, (latency sum, count))` for every thread with a completed
    /// access, ascending by id.
    fn latencies(&self) -> Vec<(u16, (u64, u64))> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, t)| t.lat_count > 0)
            .map(|(i, t)| (self.lo + i as u16, (t.lat_sum, t.lat_count)))
            .collect()
    }
}

/// FR-FCFS lookahead window: how many drawn ops the scheduler may reorder
/// among, and how many times in a row it may bypass the oldest.
const WINDOW: usize = 16;

/// Ring positions of the pending window, one bit each in a `u64` mask.
const RING: usize = 64;

/// A window entry of the replay loop: issue time plus the scheduling
/// coordinates of the op's decode (performed once, at window entry —
/// `bank` is [`INVALID_BANK`] when the address failed to decode). `slot`
/// is the issuing thread's index in the replay's [`ThreadTable`], also
/// resolved at entry, so serving an op does no id arithmetic.
#[derive(Debug, Default, Clone, Copy)]
struct PendingOp {
    issue: u64,
    bank: u32,
    row: u32,
    rank_ord: u16,
    chan_ord: u16,
    slot: u16,
    write: bool,
}

/// The pending window of one replay, as fixed ring slots.
///
/// Fills are numbered in trace order; an entry keeps ring slot
/// `seq % RING` from fill to pick, so a pick moves nothing. `live` and
/// `hit` mask the ring slots that hold an entry and an entry that
/// classifies as a row hit. Every live `seq` lies in `head..tail`, where
/// `head` is the oldest live entry (`tail` when the window is empty), so
/// rotating a mask right by `head % RING` lists its entries oldest first.
///
/// `by_bank[b]` masks the live slots on flat bank `b` (the controller's
/// all-zero per-bank masks, lent for the replay), so re-classifying after
/// an access visits only the served bank's entries.
struct Ring {
    slots: [PendingOp; RING],
    live: u64,
    hit: u64,
    len: usize,
    head: usize,
    tail: usize,
    by_bank: Vec<u64>,
}

impl Ring {
    fn new(by_bank: Vec<u64>) -> Self {
        Self {
            slots: [PendingOp::default(); RING],
            live: 0,
            hit: 0,
            len: 0,
            head: 0,
            tail: 0,
            by_bank,
        }
    }

    /// Ring slot of the oldest live entry.
    #[inline]
    fn head_slot(&self) -> usize {
        self.head % RING
    }

    /// Appends `op` as the newest entry; `hit` is its classification
    /// against the current bank state.
    #[inline]
    fn push(&mut self, op: PendingOp, hit: bool) {
        if self.tail - self.head == RING {
            self.renumber();
        }
        let slot = self.tail % RING;
        let bit = 1u64 << slot;
        self.slots[slot] = op;
        self.live |= bit;
        self.hit |= u64::from(hit) << slot;
        if op.bank != INVALID_BANK {
            self.by_bank[op.bank as usize] |= bit;
        }
        self.tail += 1;
        self.len += 1;
    }

    /// Renumbers the live entries `0..len`, oldest first, when holes left
    /// by bypassing picks have stretched the span to the whole ring. Each
    /// bypass streak is capped at [`WINDOW`], but the holes behind a
    /// bypassed head accumulate over streaks.
    #[cold]
    fn renumber(&mut self) {
        let mut moved = [(PendingOp::default(), false); WINDOW];
        let n = self.len;
        for entry in &mut moved[..n] {
            let slot = self.head_slot();
            let hit = (self.hit >> slot) & 1 == 1;
            *entry = (self.take(slot), hit);
        }
        (self.head, self.tail) = (0, 0);
        for &(op, hit) in &moved[..n] {
            self.push(op, hit);
        }
        #[cfg(test)]
        tests::RING_RENUMBERS.with(|count| count.set(count.get() + 1));
    }

    /// FR-FCFS pick: the oldest row hit if any, else the oldest entry; the
    /// starvation bound forces the oldest once `bypassed` reaches
    /// [`WINDOW`]. Returns a ring slot.
    #[inline]
    fn pick(&self, bypassed: u32) -> usize {
        let h = self.head_slot();
        // With no hit the rotation's 64 trailing zeros wrap to the head.
        let oldest_hit = (h + self.hit.rotate_right(h as u32).trailing_zeros() as usize) % RING;
        if bypassed >= WINDOW as u32 {
            h
        } else {
            oldest_hit
        }
    }

    /// Removes the entry in ring slot `slot`, advancing `head` over the
    /// holes behind it when it was the oldest.
    #[inline]
    fn take(&mut self, slot: usize) -> PendingOp {
        let op = self.slots[slot];
        let bit = 1u64 << slot;
        self.live &= !bit;
        self.hit &= !bit;
        if op.bank != INVALID_BANK {
            self.by_bank[op.bank as usize] &= !bit;
        }
        self.len -= 1;
        if slot == self.head_slot() {
            // An empty window's rotation has 64 trailing zeros: the head
            // then lands on `tail`, which is at most that far.
            let next = self.head + self.live.rotate_right(slot as u32).trailing_zeros() as usize;
            self.head = next.min(self.tail);
        }
        op
    }

    /// Re-derives `hit` after an access to `bank` left `open` as its open
    /// row: only that bank's entries re-classify — unless the access
    /// crossed a refresh boundary (`refresh_crossed`), which precharged
    /// every touched bank and thus cleared every hit except those the
    /// served bank re-opened.
    #[inline]
    fn requalify(&mut self, bank: u32, open: Option<u32>, refresh_crossed: bool) {
        if refresh_crossed {
            self.hit = 0;
        }
        let mask = self.by_bank[bank as usize];
        let mut hits = 0u64;
        if let Some(open) = open {
            let mut rest = mask;
            while rest != 0 {
                let s = rest.trailing_zeros();
                hits |= u64::from(self.slots[s as usize].row == open) << s;
                rest &= rest - 1;
            }
        }
        self.hit = (self.hit & !mask) | hits;
    }

    /// Adds `shift` to every live entry's thread slot, after the replay's
    /// [`ThreadTable`] grew downward by that many ids.
    #[cold]
    fn rebase_threads(&mut self, shift: u16) {
        let mut rest = self.live;
        while rest != 0 {
            self.slots[rest.trailing_zeros() as usize].slot += shift;
            rest &= rest - 1;
        }
    }
}

/// The memory controller: address decode, FR-FCFS scheduling, DDR timing.
///
/// # Examples
///
/// ```
/// use dram::DramSystem;
/// use dram_addr::mini_decoder;
/// use memctrl::{MemOp, MemoryController};
///
/// let dec = mini_decoder();
/// let mut dram = DramSystem::new(*dec.geometry());
/// let mut ctrl = MemoryController::new(dec);
/// let ops: Vec<MemOp> = (0..1024).map(|i| MemOp::read(i * 64)).collect();
/// let result = ctrl.run_trace(&mut dram, ops);
/// assert_eq!(result.stats.accesses, 1024);
/// assert!(result.bandwidth_gib_s() > 1.0);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    tlb: DecodeTlb,
    /// Copy of the decoder's geometry, for ordinal arithmetic without
    /// borrowing through the TLB.
    geometry: Geometry,
    timings: DdrTimings,
    /// Per-bank row-buffer FSMs, indexed by flat [`BankId`].
    banks: Vec<BankFsm>,
    /// Channel bus free time, indexed by [`Geometry::channel_ordinal`].
    bus_free: Vec<u64>,
    /// Per-rank ACT bookkeeping, indexed by [`Geometry::rank_ordinal`].
    ranks: Vec<RankState>,
    next_ref_ps: u64,
    stats: CtrlStats,
    /// Accesses per bank, indexed by flat [`BankId`] (utilization
    /// accounting; §4.1's bank-level parallelism claim is auditable from
    /// this).
    bank_touches: Vec<u64>,
    /// Flat ids of banks touched so far, in first-touch order; the
    /// distributed-refresh sweep visits only these, matching the hash-map
    /// implementation where un-accessed banks accrued no refresh debt.
    touched: Vec<u32>,
    drive_physics: bool,
    /// Pending same-row activation run, coalesced into one device burst at
    /// the next run break, time sync, or end of trace (§4f).
    pending_act: Option<ActRun>,
    /// Row-buffer management policy.
    pub policy: PagePolicy,
    dram_sync_counter: u32,
    /// Per-bank pending masks of the replay window, indexed by flat
    /// [`BankId`]: all zero between replays, lent to the replay's [`Ring`].
    pending_by_bank: Vec<u64>,
    /// Pending-window occupancy at each FR-FCFS pick (single-owner local
    /// accumulator; merged into a registry at export time).
    queue_depth: telemetry::HistoSnapshot,
    /// Per-access latency distribution, nanoseconds.
    latency_ns: telemetry::HistoSnapshot,
    /// Installed per-ACT defense, if any (§4h). `None` — the common case,
    /// covering the undefended baseline *and* Siloz, whose defense is
    /// placement-time — leaves the issue loop's fast path untouched.
    mitigation: Option<Box<dyn mitigation::Mitigation>>,
}

impl MemoryController {
    /// Creates a controller with default DDR4-2933 timings.
    #[must_use]
    pub fn new(decoder: SystemAddressDecoder) -> Self {
        Self::with_timings(decoder, DdrTimings::default())
    }

    /// Creates a controller with explicit timings.
    ///
    /// # Panics
    ///
    /// Panics if `timings` are inconsistent.
    #[must_use]
    pub fn with_timings(decoder: SystemAddressDecoder, timings: DdrTimings) -> Self {
        timings.validate().expect("valid timings");
        let geometry = *decoder.geometry();
        Self {
            geometry,
            timings,
            banks: vec![BankFsm::default(); geometry.total_banks() as usize],
            bus_free: vec![0; geometry.total_channels() as usize],
            ranks: vec![RankState::default(); geometry.total_ranks() as usize],
            next_ref_ps: timings.t_refi_ps,
            stats: CtrlStats::default(),
            bank_touches: vec![0; geometry.total_banks() as usize],
            touched: Vec::new(),
            drive_physics: true,
            pending_act: None,
            policy: PagePolicy::Open,
            dram_sync_counter: 0,
            pending_by_bank: vec![0; geometry.total_banks() as usize],
            queue_depth: telemetry::HistoSnapshot::default(),
            latency_ns: telemetry::HistoSnapshot::default(),
            mitigation: None,
            tlb: DecodeTlb::new(decoder),
        }
    }

    /// Switches to a closed-page (auto-precharge) policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PagePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Disables driving the DRAM disturbance physics on activates (useful
    /// for pure performance experiments).
    #[must_use]
    pub fn without_physics(mut self) -> Self {
        self.drive_physics = false;
        self
    }

    /// Installs a per-ACT defense: `m.on_act` is consulted on every
    /// activation (row misses and conflicts, not row hits) and its
    /// returned delay is added to the op's arrival time before rank
    /// constraints apply; `m.on_refresh` fires at every tREFI crossing.
    /// Controllers without a hook skip both calls entirely.
    #[must_use]
    pub fn with_mitigation(mut self, m: Box<dyn mitigation::Mitigation>) -> Self {
        self.mitigation = Some(m);
        self
    }

    /// The installed per-ACT defense, if any.
    #[must_use]
    pub fn mitigation(&self) -> Option<&dyn mitigation::Mitigation> {
        self.mitigation.as_deref()
    }

    /// The decoder in use.
    #[must_use]
    pub fn decoder(&self) -> &SystemAddressDecoder {
        self.tlb.inner()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Current controller clock (completion time of the latest access).
    #[must_use]
    pub fn clock_ps(&self) -> u64 {
        self.stats.clock_ps
    }

    /// Number of distinct banks touched so far.
    #[must_use]
    pub fn banks_touched(&self) -> usize {
        self.touched.len()
    }

    /// Coefficient of variation of per-bank load (0 = perfectly even),
    /// over touched banks only.
    #[must_use]
    pub fn bank_load_cv(&self) -> f64 {
        if self.touched.is_empty() {
            return 0.0;
        }
        let n = self.touched.len() as f64;
        let counts = || {
            self.touched
                .iter()
                .map(|&ord| self.bank_touches[ord as usize])
        };
        let mean = counts().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts().map(|c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }

    /// Adds this controller's totals into `reg`: the [`CtrlStats`] split,
    /// queue-depth and latency distributions, per-bank utilization, and a
    /// `tlb` child with the decode cache's hit/miss/alias counts.
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        self.stats.export_telemetry(reg);
        reg.histo("queue_depth").merge_from(&self.queue_depth);
        reg.histo("latency_ns").merge_from(&self.latency_ns);
        reg.counter("banks_touched").add(self.touched.len() as u64);
        let per_bank = reg.histo("accesses_per_bank");
        for &ord in &self.touched {
            per_bank.observe(self.bank_touches[ord as usize]);
        }
        self.tlb.export_telemetry(&reg.child("tlb"));
        if let Some(m) = &self.mitigation {
            m.export_telemetry(&reg.child("mitigation"));
        }
    }

    /// Serves one access arriving at `arrival_ps`.
    pub fn access_at(
        &mut self,
        dram: &mut DramSystem,
        phys: u64,
        write: bool,
        arrival_ps: u64,
    ) -> Result<AccessResult, AddrError> {
        let (media, bank_id) = self.tlb.decode_with_bank(phys)?;
        let res = self.access_decoded(dram, media, bank_id, write, 0, arrival_ps);
        // Single-access callers observe device state between calls; don't
        // leave an activation buffered.
        self.flush_acts(dram);
        Ok(res)
    }

    /// The decode-free access path: serves an already-decoded access.
    fn access_decoded(
        &mut self,
        dram: &mut DramSystem,
        media: MediaAddress,
        bank_id: BankId,
        write: bool,
        thread: u16,
        arrival_ps: u64,
    ) -> AccessResult {
        let rank_ord =
            self.geometry
                .rank_ordinal(media.socket, media.channel, media.dimm, media.rank);
        let chan_ord = self.geometry.channel_ordinal(media.socket, media.channel);
        self.access_inner(
            dram, bank_id, media.row, rank_ord, chan_ord, write, thread, arrival_ps,
        )
    }

    /// The innermost service path: bank, row, and geometry ordinals already
    /// resolved (by [`Self::access_decoded`], or at compile time for
    /// [`Self::run_compiled`] programs). Inlined into the replay loop: as
    /// a call it cost about a tenth of a replay.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn access_inner(
        &mut self,
        dram: &mut DramSystem,
        bank_id: BankId,
        row: u32,
        rank_ord: usize,
        chan_ord: usize,
        write: bool,
        thread: u16,
        arrival_ps: u64,
    ) -> AccessResult {
        // Distributed refresh: when the clock crosses tREFI, steal tRFC from
        // every touched bank (coarse model of per-rank staggered REF).
        while arrival_ps >= self.next_ref_ps {
            let t = self.timings;
            for &ord in &self.touched {
                let fsm = &mut self.banks[ord as usize];
                fsm.precharge(self.next_ref_ps, &t);
                fsm.ready_ps += t.t_rfc_ps;
            }
            if let Some(m) = self.mitigation.as_deref_mut() {
                m.on_refresh(self.next_ref_ps);
            }
            self.next_ref_ps += t.t_refi_ps;
        }
        let ord = bank_id.0 as usize;
        // Rank-level ACT constraints apply only if an ACT will be issued.
        let kind = self.banks[ord].classify(row);
        let mut arrival = arrival_ps;
        if kind != AccessKind::RowHit {
            // Defense throttling delays the ACT before timing constraints
            // re-queue it, so rank windows apply to the *delayed* issue.
            if let Some(m) = self.mitigation.as_deref_mut() {
                arrival += m.on_act(bank_id.0, row, thread, arrival);
            }
            let rank = &self.ranks[rank_ord];
            arrival = arrival.max(rank.last_act_ps + self.timings.t_rrd_ps);
            if let Some(oldest) = rank.faw_anchor() {
                arrival = arrival.max(oldest + self.timings.t_faw_ps);
            }
        }
        let (act_start, bank_done) =
            self.banks[ord].access_classified(kind, row, arrival, &self.timings, self.policy);
        if kind != AccessKind::RowHit {
            self.ranks[rank_ord].record_act(act_start);
        }
        // Channel data bus: the burst occupies the bus; queue if busy.
        let bus = &mut self.bus_free[chan_ord];
        let data_start = (bank_done - self.timings.t_burst_ps).max(*bus);
        let done = data_start + self.timings.t_burst_ps;
        *bus = done;
        if done > bank_done {
            // Bus queueing delays this bank's next availability too.
            self.banks[ord].ready_ps = done;
        }
        let latency = done - arrival_ps;
        self.stats.record(kind, !write, latency, done);
        self.latency_ns.observe(latency / 1000);
        if self.bank_touches[ord] == 0 {
            self.touched.push(bank_id.0);
        }
        self.bank_touches[ord] += 1;
        if self.drive_physics && kind != AccessKind::RowHit {
            // Coalesce back-to-back same-row ACTs (closed-page same-row
            // streams, hammering traces) into one burst; a run breaks as
            // soon as any other row activates, keeping the device's global
            // flip-log order identical to per-ACT issue.
            match &mut self.pending_act {
                Some(run) if run.bank == bank_id && run.row == row => run.count += 1,
                run => {
                    if let Some(prev) = run.take() {
                        dram.activate_burst(prev.bank, prev.row, prev.count, 0);
                    }
                    *run = Some(ActRun {
                        bank: bank_id,
                        row,
                        count: 1,
                    });
                }
            }
            self.dram_sync_counter += 1;
            if self.dram_sync_counter >= 512 {
                self.dram_sync_counter = 0;
                self.sync_dram_time(dram);
            }
        }
        AccessResult {
            kind,
            done_ps: done,
            latency_ps: latency,
        }
    }

    /// Issues any buffered activation run to the device as one coalesced
    /// burst.
    fn flush_acts(&mut self, dram: &mut DramSystem) {
        if let Some(run) = self.pending_act.take() {
            dram.activate_burst(run.bank, run.row, run.count, 0);
        }
    }

    /// Brings the DRAM device clock up to the controller clock so
    /// distributed refresh keeps pace with simulated time. Flushes any
    /// buffered activation run first — bursts must not span the refresh
    /// boundaries `advance_ns` may cross.
    pub fn sync_dram_time(&mut self, dram: &mut DramSystem) {
        self.flush_acts(dram);
        let clock_ns = self.stats.clock_ps / 1000;
        if clock_ns > dram.now_ns() {
            dram.advance_ns(clock_ns - dram.now_ns());
        }
    }

    /// Replays a trace with FR-FCFS scheduling over a lookahead window.
    ///
    /// Each thread's ops issue in order, separated by their `gap_ps` (and
    /// by completion when `dependent`); different threads progress
    /// independently. Within the lookahead window, row-buffer hits are
    /// served first, as real controllers do. Ops are decoded once, in
    /// trace order, as the scheduler draws them; the FR-FCFS scan works on
    /// the stored decode.
    pub fn run_trace<I>(&mut self, dram: &mut DramSystem, ops: I) -> TraceResult
    where
        I: IntoIterator<Item = MemOp>,
    {
        let mut ops = ops.into_iter();
        self.schedule_ops(dram, |ctrl| {
            let op = ops.next()?;
            let decode = ctrl.tlb.decode_with_bank(op.phys);
            Some(CompiledOp::new(op, decode, &ctrl.geometry))
        })
    }

    /// Replays a pre-decoded program — the decode-free twin of
    /// [`Self::run_trace`].
    ///
    /// Both entry points feed the same scheduling loop, so results,
    /// statistics, and telemetry are bit-identical to running the source
    /// trace through [`Self::run_trace`] on an identically-configured
    /// controller. The compile-time decode counters are credited into this
    /// controller's TLB up front, which for a fresh controller reproduces
    /// the direct path's exported `tlb` metrics exactly.
    pub fn run_compiled(&mut self, dram: &mut DramSystem, prog: &CompiledTrace) -> TraceResult {
        self.tlb
            .credit(prog.tlb_hits, prog.tlb_misses, prog.tlb_aliases);
        let mut ops = prog.ops.iter();
        self.schedule_ops(dram, |_| ops.next().copied())
    }

    /// The one FR-FCFS scheduling loop behind [`Self::run_trace`] and
    /// [`Self::run_compiled`]: `draw` yields the next op in trace order,
    /// already resolved to scheduling coordinates (monomorphised per
    /// source, so the pre-decoded path pays nothing for the shared code).
    fn schedule_ops(
        &mut self,
        dram: &mut DramSystem,
        mut draw: impl FnMut(&mut Self) -> Option<CompiledOp>,
    ) -> TraceResult {
        let start_clock = self.stats.clock_ps;
        let before = self.stats;
        let mut threads = ThreadTable::new(start_clock);
        let mut first_issue: Option<u64> = None;
        let mut ring = Ring::new(std::mem::take(&mut self.pending_by_bank));
        // Picks per window occupancy, folded into `queue_depth` at the end.
        let mut depths = [0u64; WINDOW + 1];
        let mut staged: Option<CompiledOp> = None;
        let mut bypassed = 0u32;
        loop {
            // Fill the window. A dependent op whose thread still has an op
            // in flight cannot be timestamped yet; it (and everything
            // behind it) waits.
            while ring.len < WINDOW {
                let Some(op) = staged.take().or_else(|| draw(self)) else {
                    break;
                };
                let lo = threads.lo;
                let slot = threads.slot(op.thread);
                if threads.lo < lo {
                    // The span grew downward: re-base the window's slots.
                    ring.rebase_threads(lo - threads.lo);
                }
                let t = &mut threads.slots[slot];
                if op.dependent && t.outstanding > 0 {
                    staged = Some(op);
                    break;
                }
                let mut issue = t.cursor + op.gap_ps;
                if op.dependent {
                    issue = issue.max(t.last_done);
                }
                t.cursor = issue;
                t.outstanding += 1;
                first_issue.get_or_insert(issue);
                let hit = op.bank != INVALID_BANK
                    && self.banks[op.bank as usize].classify(op.row) == AccessKind::RowHit;
                ring.push(
                    PendingOp {
                        issue,
                        bank: op.bank,
                        row: op.row,
                        rank_ord: op.rank_ord,
                        chan_ord: op.chan_ord,
                        slot: slot as u16,
                        write: op.write,
                    },
                    hit,
                );
            }
            if ring.len == 0 {
                break;
            }
            depths[ring.len] += 1;
            // FR-FCFS: pick the oldest row-hit if any, else the oldest op.
            // Cap how often the oldest op may be bypassed — real
            // controllers bound reordering to prevent starvation.
            let choice = ring.pick(bypassed);
            bypassed = if choice == ring.head_slot() {
                0
            } else {
                bypassed + 1
            };
            let p = ring.take(choice);
            threads.slots[p.slot as usize].outstanding -= 1;
            if p.bank != INVALID_BANK {
                let ref_before = self.next_ref_ps;
                let res = self.access_inner(
                    dram,
                    BankId(p.bank),
                    p.row,
                    p.rank_ord as usize,
                    p.chan_ord as usize,
                    p.write,
                    threads.lo + p.slot,
                    p.issue,
                );
                let t = &mut threads.slots[p.slot as usize];
                t.last_done = t.last_done.max(res.done_ps);
                t.lat_sum += res.latency_ps;
                t.lat_count += 1;
                ring.requalify(
                    p.bank,
                    self.banks[p.bank as usize].open_row,
                    self.next_ref_ps != ref_before,
                );
            }
            // Undecoded (out-of-range) ops are dropped from the trace; the
            // workload layer is responsible for valid addressing.
        }
        self.pending_by_bank = ring.by_bank;
        for (depth, &picks) in depths.iter().enumerate() {
            if picks > 0 {
                self.queue_depth.observe_n(depth as u64, picks);
            }
        }
        self.flush_acts(dram);
        let elapsed = self
            .stats
            .clock_ps
            .saturating_sub(first_issue.unwrap_or(start_clock));
        let mut delta = self.stats;
        delta.accesses -= before.accesses;
        delta.row_hits -= before.row_hits;
        delta.row_misses -= before.row_misses;
        delta.row_conflicts -= before.row_conflicts;
        delta.reads -= before.reads;
        delta.total_latency_ps -= before.total_latency_ps;
        delta.bytes -= before.bytes;
        TraceResult {
            stats: delta,
            elapsed_ps: elapsed,
            thread_latency: threads.latencies(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_addr::{mini_decoder, mini_geometry};
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Times [`Ring::renumber`] ran on this test's thread.
        pub(super) static RING_RENUMBERS: Cell<u64> = const { Cell::new(0) };
    }

    fn setup() -> (MemoryController, DramSystem) {
        let dec = mini_decoder();
        let dram = DramSystem::new(*dec.geometry());
        (MemoryController::new(dec), dram)
    }

    #[test]
    fn sequential_stream_exploits_bank_parallelism() {
        // Sequential lines hit all banks; compare against a single-bank
        // stream of the same length: the interleaved stream must be much
        // faster (§2.4 / §4.1, the >18% bank-level-parallelism effect).
        let (mut ctrl, mut dram) = setup();
        let n = 4096u64;
        let seq: Vec<MemOp> = (0..n).map(|i| MemOp::read(i * 64)).collect();
        let seq_res = ctrl.run_trace(&mut dram, seq);

        let (mut ctrl2, mut dram2) = setup();
        // Same bank every time: line slot 0 of each row group, stride one
        // row group so every access opens a new row in the same bank.
        let rg = ctrl2.decoder().geometry().row_group_bytes();
        let single: Vec<MemOp> = (0..n).map(|i| MemOp::read(i * rg)).collect();
        let single_res = ctrl2.run_trace(&mut dram2, single);

        assert!(
            seq_res.elapsed_ps * 4 < single_res.elapsed_ps,
            "bank-parallel {} vs single-bank {}",
            seq_res.elapsed_ps,
            single_res.elapsed_ps
        );
    }

    #[test]
    fn row_hits_dominate_sequential_access() {
        let (mut ctrl, mut dram) = setup();
        // Touch 64 consecutive lines in the same row group repeatedly.
        let ops: Vec<MemOp> = (0..8192u64).map(|i| MemOp::read((i % 512) * 64)).collect();
        let res = ctrl.run_trace(&mut dram, ops);
        assert!(
            res.stats.hit_rate() > 0.8,
            "hit rate {} too low",
            res.stats.hit_rate()
        );
    }

    #[test]
    fn random_access_conflicts_more_than_sequential() {
        let (mut ctrl, mut dram) = setup();
        let seq: Vec<MemOp> = (0..4096u64).map(|i| MemOp::read(i * 64)).collect();
        let seq_res = ctrl.run_trace(&mut dram, seq);

        let (mut ctrl2, mut dram2) = setup();
        let cap = ctrl2.decoder().capacity();
        let mut x = 0x12345u64;
        let rnd: Vec<MemOp> = (0..4096)
            .map(|_| {
                x = dram::util::splitmix64(x);
                MemOp::read((x % cap) & !63)
            })
            .collect();
        let rnd_res = ctrl2.run_trace(&mut dram2, rnd);
        assert!(rnd_res.stats.hit_rate() < seq_res.stats.hit_rate());
        assert!(rnd_res.stats.mean_latency_ns() > seq_res.stats.mean_latency_ns());
    }

    #[test]
    fn dependent_ops_serialize() {
        let (mut ctrl, mut dram) = setup();
        let rg = ctrl.decoder().geometry().row_group_bytes();
        let dep: Vec<MemOp> = (0..256u64)
            .map(|i| MemOp::read((i * rg) % (1 << 28)).after_previous())
            .collect();
        let dep_res = ctrl.run_trace(&mut dram, dep);

        let (mut ctrl2, mut dram2) = setup();
        let indep: Vec<MemOp> = (0..256u64)
            .map(|i| MemOp::read((i * rg) % (1 << 28)))
            .collect();
        let ind_res = ctrl2.run_trace(&mut dram2, indep);
        assert!(
            dep_res.elapsed_ps > ind_res.elapsed_ps * 2,
            "dependent {} vs independent {}",
            dep_res.elapsed_ps,
            ind_res.elapsed_ps
        );
    }

    #[test]
    fn gaps_add_compute_time() {
        let (mut ctrl, mut dram) = setup();
        let ops: Vec<MemOp> = (0..100u64)
            .map(|i| MemOp::read(i * 64).with_gap_ps(1_000_000))
            .collect();
        let res = ctrl.run_trace(&mut dram, ops);
        assert!(res.elapsed_ps >= 99 * 1_000_000);
    }

    #[test]
    fn physics_is_driven_on_activates() {
        let (mut ctrl, mut dram) = setup();
        let rg = ctrl.decoder().geometry().row_group_bytes();
        let ops: Vec<MemOp> = (0..512u64).map(|i| MemOp::read(i * rg)).collect();
        ctrl.run_trace(&mut dram, ops);
        assert!(
            dram.stats().acts > 0,
            "activates must reach the device model"
        );

        let dec = mini_decoder();
        let mut dram2 = DramSystem::new(mini_geometry());
        let mut ctrl2 = MemoryController::new(dec).without_physics();
        let ops: Vec<MemOp> = (0..512u64).map(|i| MemOp::read(i * rg)).collect();
        ctrl2.run_trace(&mut dram2, ops);
        assert_eq!(dram2.stats().acts, 0);
    }

    #[test]
    fn refresh_steals_time() {
        // Run long enough to cross several tREFI boundaries and verify the
        // clock advances past the pure access time.
        let (mut ctrl, mut dram) = setup();
        let ops: Vec<MemOp> = (0..20_000u64)
            .map(|i| MemOp::read((i % 64) * 64).with_gap_ps(2_000))
            .collect();
        let res = ctrl.run_trace(&mut dram, ops);
        assert!(res.elapsed_ps > 20_000 * 2_000);
        assert!(res.stats.accesses == 20_000);
    }

    #[test]
    fn threads_progress_independently() {
        // Two threads of dependent pointer chases overlap each other; one
        // thread of the same total work serializes fully.
        let rg = mini_decoder().geometry().row_group_bytes();
        let chase = |thread: u16, n: u64| -> Vec<MemOp> {
            (0..n)
                .map(move |i| {
                    MemOp::read(((thread as u64 * 997 + i) * rg) % (1 << 28))
                        .after_previous()
                        .on_thread(thread)
                })
                .collect()
        };
        let (mut c1, mut d1) = setup();
        let single = c1.run_trace(&mut d1, chase(0, 512));

        let (mut c2, mut d2) = setup();
        // Interleave two 256-op chains.
        let a = chase(0, 256);
        let b = chase(1, 256);
        let interleaved: Vec<MemOp> = a.into_iter().zip(b).flat_map(|(x, y)| [x, y]).collect();
        let dual = c2.run_trace(&mut d2, interleaved);
        assert_eq!(dual.stats.accesses, 512);
        assert!(
            dual.elapsed_ps * 5 < single.elapsed_ps * 4,
            "two threads must overlap: dual {} vs single {}",
            dual.elapsed_ps,
            single.elapsed_ps
        );
    }

    #[test]
    fn per_thread_gaps_do_not_serialize_other_threads() {
        let (mut ctrl, mut dram) = setup();
        // Thread 0 computes a lot; thread 1 streams. Total time should be
        // near thread 0's compute, not the sum.
        let mut ops = Vec::new();
        for i in 0..100u64 {
            ops.push(MemOp::read(i * 64).with_gap_ps(1_000_000).on_thread(0));
            ops.push(MemOp::read((1 << 20) + i * 64).on_thread(1));
        }
        let res = ctrl.run_trace(&mut dram, ops);
        assert!(res.elapsed_ps < 110 * 1_000_000);
        assert!(res.elapsed_ps >= 99 * 1_000_000);
    }

    #[test]
    fn closed_page_policy_kills_hits_but_also_conflicts() {
        // A single hot row hammered with 20 ns spacing: open page turns
        // everything after the first access into 17 ns hits; closed page
        // re-activates every time (31 ns > arrival spacing), so its queue
        // grows and both mean latency and elapsed time blow up.
        let hot_row: Vec<MemOp> = (0..512u64)
            .map(|_| MemOp::read(0).with_gap_ps(20_000))
            .collect();
        let (mut open_ctrl, mut d1) = setup();
        let open_res = open_ctrl.run_trace(&mut d1, hot_row.clone());

        let dec = mini_decoder();
        let mut d2 = DramSystem::new(*dec.geometry());
        let mut closed_ctrl = MemoryController::new(dec)
            .without_physics()
            .with_policy(PagePolicy::Closed);
        let closed_res = closed_ctrl.run_trace(&mut d2, hot_row);
        assert_eq!(closed_res.stats.row_hits, 0, "closed page never hits");
        assert_eq!(
            closed_res.stats.row_conflicts, 0,
            "closed page never conflicts"
        );
        assert!(
            open_res.stats.hit_rate() > 0.9,
            "hit rate {}",
            open_res.stats.hit_rate()
        );
        assert!(
            open_res.stats.mean_latency_ns() < closed_res.stats.mean_latency_ns(),
            "locality favors open page: open {} vs closed {}",
            open_res.stats.mean_latency_ns(),
            closed_res.stats.mean_latency_ns()
        );
        assert!(open_res.elapsed_ps < closed_res.elapsed_ps);
    }

    /// Asserts one flat-controller entry point against the independently
    /// written hashed oracle: TraceResult, bank census, full device state
    /// (stats and the ordered flip log — the hashed baseline issues per-ACT,
    /// so coalesced bursts must preserve per-ACT flip order), and telemetry.
    /// The flat controller additionally exports a `tlb` child (the hashed
    /// one decodes uncached), so the shared top-level metrics — row
    /// hit/conflict counters, queue-depth and latency distributions,
    /// per-bank utilization — are what is compared.
    fn assert_matches_hashed(
        entry: &str,
        (flat, flat_res, flat_dram): (&MemoryController, &TraceResult, &DramSystem),
        (hashed, hashed_res, hashed_dram): (&crate::HashedController, &TraceResult, &DramSystem),
    ) {
        assert_eq!(flat_res, hashed_res, "{entry}");
        assert_eq!(flat.banks_touched(), hashed.banks_touched(), "{entry}");
        assert_eq!(flat_dram.stats(), hashed_dram.stats(), "{entry}");
        assert_eq!(
            flat_dram.flip_log().all(),
            hashed_dram.flip_log().all(),
            "{entry}"
        );
        let flat_reg = telemetry::Registry::new();
        flat.export_telemetry(&flat_reg);
        let hashed_reg = telemetry::Registry::new();
        hashed.export_telemetry(&hashed_reg);
        assert_eq!(
            flat_reg.snapshot().metrics,
            hashed_reg.snapshot().metrics,
            "{entry}: flat and hashed controllers must emit identical telemetry"
        );
    }

    #[test]
    fn flat_controller_matches_hashed_baseline() {
        // The flattened controller must be semantically identical to the
        // retained hash-map implementation: same TraceResult on a mixed
        // trace (sequential, hot-row, random, dependent, multi-threaded)
        // long enough to cross refresh intervals, and same bank census.
        // The second case mirrors the trace's threads to `65535 - t`: ids
        // at the top of `u16`, the first op on the highest, so the
        // per-thread table must grow downward from the first id it sees.
        let high: Vec<MemOp> = mixed_trace(20_000)
            .into_iter()
            .map(|op| op.on_thread(u16::MAX - op.thread))
            .collect();
        assert_eq!(high[0].thread, u16::MAX);
        for (case, ops) in [("ids 0..4", mixed_trace(20_000)), ("ids 65532..", high)] {
            let (mut flat, mut d1) = setup();
            let flat_res = flat.run_trace(&mut d1, ops.clone());

            let prog = CompiledTrace::compile(mini_decoder(), ops.clone());
            let (mut compiled, mut d3) = setup();
            let compiled_res = compiled.run_compiled(&mut d3, &prog);

            let mut d2 = DramSystem::new(mini_geometry());
            let mut hashed = crate::HashedController::new(mini_decoder());
            let hashed_res = hashed.run_trace(&mut d2, ops);
            assert_eq!(hashed_res.thread_latency.len(), 4, "{case}");

            assert_matches_hashed(
                &format!("{case}: run_trace"),
                (&flat, &flat_res, &d1),
                (&hashed, &hashed_res, &d2),
            );
            assert_matches_hashed(
                &format!("{case}: run_compiled"),
                (&compiled, &compiled_res, &d3),
                (&hashed, &hashed_res, &d2),
            );
        }
    }

    #[test]
    fn coalesced_act_runs_match_per_act_issue_on_closed_page() {
        // Closed-page policy re-activates on every access, so a same-row
        // stream forms long ACT runs — exactly what the pending-run buffer
        // coalesces into device bursts. The hashed baseline still issues
        // per-ACT, so full device state (stats, ordered flip log) must
        // match bit for bit, including across the 512-ACT time syncs and
        // the hot-row flips this siege produces.
        let dec = mini_decoder();
        let rg = dec.geometry().row_group_bytes();
        let mut ops = Vec::new();
        for i in 0..100_000u64 {
            let phys = match i % 8 {
                0..=6 => 0,                        // the siege: one long run
                _ => ((i / 8) % 64) * rg + 2 * rg, // run break to varied rows
            };
            ops.push(MemOp::read(phys));
        }
        // TRR-less devices: a single-aggressor siege is exactly what
        // deployed TRR neutralizes, and the point here is the controller's
        // run buffer, not the tracker (burst-vs-TRR equivalence is pinned
        // by the dram crate's own battery).
        let mk_dram = || {
            dram::DramSystemBuilder::new(mini_geometry())
                .trr(0, 0)
                .build()
        };
        let mut d1 = mk_dram();
        let mut flat = MemoryController::new(mini_decoder()).with_policy(PagePolicy::Closed);
        let flat_res = flat.run_trace(&mut d1, ops.clone());

        let prog = CompiledTrace::compile(mini_decoder(), ops.clone());
        let mut d3 = mk_dram();
        let mut compiled = MemoryController::new(mini_decoder()).with_policy(PagePolicy::Closed);
        let compiled_res = compiled.run_compiled(&mut d3, &prog);

        let mut d2 = mk_dram();
        let mut hashed =
            crate::HashedController::new(mini_decoder()).with_policy(PagePolicy::Closed);
        let hashed_res = hashed.run_trace(&mut d2, ops);

        assert!(d2.stats().acts >= 100_000, "closed page re-activates");
        assert!(
            !d2.flip_log().all().is_empty(),
            "an 87k-ACT siege must flip bits on the default profile"
        );
        assert_matches_hashed(
            "run_trace",
            (&flat, &flat_res, &d1),
            (&hashed, &hashed_res, &d2),
        );
        assert_matches_hashed(
            "run_compiled",
            (&compiled, &compiled_res, &d3),
            (&hashed, &hashed_res, &d2),
        );
    }

    /// The textbook FR-FCFS loop the ring window replaces: a `Vec` window
    /// in fill order, a full-window classify scan per pick and `remove` on
    /// serve, over the controller's own decode and access path. It checks
    /// the scheduler alone, so it is the oracle where [`crate::HashedController`]
    /// has no model (a mitigation hook).
    fn scan_replay(
        ctrl: &mut MemoryController,
        dram: &mut DramSystem,
        ops: &[MemOp],
    ) -> TraceResult {
        use std::collections::BTreeMap;
        type Decoded = Option<(MediaAddress, BankId)>;
        let start = ctrl.stats.clock_ps;
        let before = ctrl.stats;
        // Per thread: (cursor, last done, outstanding, latency sum, count).
        let mut threads: BTreeMap<u16, (u64, u64, u32, u64, u64)> = BTreeMap::new();
        let mut first_issue = None;
        let mut pending: Vec<(MemOp, Decoded, u64)> = Vec::new();
        let mut next = 0;
        let mut bypassed = 0;
        loop {
            while pending.len() < WINDOW && next < ops.len() {
                let op = ops[next];
                let t = threads.entry(op.thread).or_insert((start, start, 0, 0, 0));
                if op.dependent && t.2 > 0 {
                    break;
                }
                let mut issue = t.0 + op.gap_ps;
                if op.dependent {
                    issue = issue.max(t.1);
                }
                t.0 = issue;
                t.2 += 1;
                first_issue.get_or_insert(issue);
                pending.push((op, ctrl.tlb.decode_with_bank(op.phys).ok(), issue));
                next += 1;
            }
            if pending.is_empty() {
                break;
            }
            ctrl.queue_depth.observe(pending.len() as u64);
            let choice = if bypassed >= WINDOW {
                0
            } else {
                pending
                    .iter()
                    .position(|(_, d, _)| {
                        d.is_some_and(|(m, bank)| {
                            ctrl.banks[bank.0 as usize].classify(m.row) == AccessKind::RowHit
                        })
                    })
                    .unwrap_or(0)
            };
            bypassed = if choice == 0 { 0 } else { bypassed + 1 };
            let (op, decoded, issue) = pending.remove(choice);
            let t = threads.get_mut(&op.thread).expect("filled");
            t.2 -= 1;
            if let Some((media, bank)) = decoded {
                let res = ctrl.access_decoded(dram, media, bank, op.write, op.thread, issue);
                t.1 = t.1.max(res.done_ps);
                t.3 += res.latency_ps;
                t.4 += 1;
            }
        }
        ctrl.flush_acts(dram);
        let mut stats = ctrl.stats;
        stats.accesses -= before.accesses;
        stats.row_hits -= before.row_hits;
        stats.row_misses -= before.row_misses;
        stats.row_conflicts -= before.row_conflicts;
        stats.reads -= before.reads;
        stats.total_latency_ps -= before.total_latency_ps;
        stats.bytes -= before.bytes;
        TraceResult {
            stats,
            elapsed_ps: ctrl
                .stats
                .clock_ps
                .saturating_sub(first_issue.unwrap_or(start)),
            thread_latency: threads
                .into_iter()
                .filter(|(_, t)| t.4 > 0)
                .map(|(id, t)| (id, (t.3, t.4)))
                .collect(),
        }
    }

    /// One configuration of the lockstep check.
    #[derive(Debug, Clone, Copy)]
    struct Lockstep {
        closed_page: bool,
        /// Drive the device physics on a DIMM weak enough to flip within
        /// a few thousand ACTs.
        physics: bool,
        /// Install a BlockHammer hook (checked against [`scan_replay`]).
        blockhammer: bool,
    }

    impl Lockstep {
        fn controller(self) -> MemoryController {
            let mut ctrl = MemoryController::new(mini_decoder());
            if self.closed_page {
                ctrl = ctrl.with_policy(PagePolicy::Closed);
            }
            if !self.physics {
                ctrl = ctrl.without_physics();
            }
            if self.blockhammer {
                ctrl = ctrl.with_mitigation(
                    mitigation::Backend::BlockHammer
                        .controller_hook()
                        .expect("blockhammer hooks the controller"),
                );
            }
            ctrl
        }

        fn dram(self) -> DramSystem {
            if !self.physics {
                return DramSystem::new(mini_geometry());
            }
            let weak = dram::DimmProfile {
                name: "weak",
                base_threshold: 48.0,
                threshold_spread: 0.2,
                weights: dram::DisturbanceWeights::default(),
                rowpress_per_us: 0.0,
                weak_cells_per_row: 8.0,
                seed: 0x5eed,
            };
            dram::DramSystemBuilder::new(mini_geometry())
                .profiles(vec![weak])
                .trr(0, 0)
                .build()
        }

        /// Replays `ops` through `run_trace` and `run_compiled` and checks
        /// both against the oracle: `TraceResult`, device stats, the
        /// ordered flip log and telemetry. Returns the `run_trace`
        /// controller and device.
        fn check(self, ops: &[MemOp]) -> (MemoryController, DramSystem) {
            let (mut direct, mut d1) = (self.controller(), self.dram());
            let direct_res = direct.run_trace(&mut d1, ops.iter().copied());
            let prog = CompiledTrace::compile(mini_decoder(), ops.iter().copied());
            let (mut compiled, mut d3) = (self.controller(), self.dram());
            let compiled_res = compiled.run_compiled(&mut d3, &prog);
            if self.blockhammer {
                let (mut reference, mut d2) = (self.controller(), self.dram());
                let reference_res = scan_replay(&mut reference, &mut d2, ops);
                let reference_reg = telemetry::Registry::new();
                reference.export_telemetry(&reference_reg);
                for (entry, ctrl, res, dram) in [
                    ("run_trace", &direct, &direct_res, &d1),
                    ("run_compiled", &compiled, &compiled_res, &d3),
                ] {
                    assert_eq!(res, &reference_res, "{entry}");
                    assert_eq!(dram.stats(), d2.stats(), "{entry}");
                    assert_eq!(dram.flip_log().all(), d2.flip_log().all(), "{entry}");
                    let reg = telemetry::Registry::new();
                    ctrl.export_telemetry(&reg);
                    assert_eq!(reg.snapshot(), reference_reg.snapshot(), "{entry}");
                }
            } else {
                let mut hashed = crate::HashedController::new(mini_decoder());
                if self.closed_page {
                    hashed = hashed.with_policy(PagePolicy::Closed);
                }
                if !self.physics {
                    hashed = hashed.without_physics();
                }
                let mut d2 = self.dram();
                let hashed_res = hashed.run_trace(&mut d2, ops.iter().copied());
                assert_matches_hashed(
                    "run_trace",
                    (&direct, &direct_res, &d1),
                    (&hashed, &hashed_res, &d2),
                );
                assert_matches_hashed(
                    "run_compiled",
                    (&compiled, &compiled_res, &d3),
                    (&hashed, &hashed_res, &d2),
                );
            }
            (direct, d1)
        }
    }

    /// A random trace of `len` ops for the lockstep check: six banks over
    /// both channels and ranks, eight rows each, plus a hammered row pair
    /// on a seventh bank (3 ops in 8, so a 3k-op closed-page run reaches
    /// BlockHammer's blacklist); 1 in 64 ops out of range; gaps and
    /// dependent chains; `threads` thread numbers, each issued under its
    /// low id or its mirror at the top of `u16`.
    fn lockstep_trace(seed: u64, len: usize, threads: u16) -> Vec<MemOp> {
        let dec = mini_decoder();
        let cap = dec.capacity();
        let at = |bank: u64, row: u32, line: u64| {
            dec.encode(&MediaAddress {
                socket: 0,
                channel: (bank & 1) as u16,
                dimm: 0,
                rank: ((bank >> 1) & 1) as u16,
                bank_group: (bank >> 2) as u16,
                bank: 1,
                row,
                col: (line * 64) as u32,
            })
            .expect("in range")
        };
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = dram::util::splitmix64(x);
                let r = x;
                let line = (r >> 16) % 128;
                let phys = match r % 64 {
                    0 => cap + (r >> 8) % cap,
                    1..=24 => at(7, 100 + 2 * ((r >> 8) & 1) as u32, line),
                    _ => at((r >> 8) % 6, 40 + ((r >> 12) % 8) as u32, line),
                };
                let t = ((r >> 24) % u64::from(threads)) as u16;
                MemOp {
                    phys,
                    write: (r >> 32) & 1 == 1,
                    gap_ps: if (r >> 33) & 3 == 0 {
                        (r >> 40) % 50_000
                    } else {
                        0
                    },
                    dependent: (r >> 36) & 3 == 0,
                    thread: if (r >> 38) & 1 == 1 { u16::MAX - t } else { t },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring window schedules exactly as the oracles do, on random
        /// traces under every configuration: open and closed page, physics
        /// on and off, with and without a BlockHammer hook.
        #[test]
        fn ring_window_matches_oracles_in_lockstep(
            seed in any::<u64>(),
            len in 1usize..3_000,
            threads in 1u16..=24,
            closed_page in any::<bool>(),
            physics in any::<bool>(),
            blockhammer in any::<bool>(),
        ) {
            let cfg = Lockstep { closed_page, physics, blockhammer };
            cfg.check(&lockstep_trace(seed, len, threads));
        }
    }

    #[test]
    fn lockstep_traces_flip_and_throttle() {
        // The lockstep's generator must reach what it claims to cover: a
        // vulnerable-DIMM run that logs flips (so flip-log order is
        // compared), a BlockHammer run that throttles, and a window that
        // wraps the ring many times.
        let ops = lockstep_trace(11, 3_000, 8);
        let cfg = Lockstep {
            closed_page: true,
            physics: true,
            blockhammer: true,
        };
        let (ctrl, dram) = cfg.check(&ops);
        assert!(!dram.flip_log().all().is_empty(), "no flips to order");
        let reg = telemetry::Registry::new();
        ctrl.export_telemetry(&reg);
        let telemetry::MetricValue::Counter {
            value: throttled, ..
        } = reg.snapshot().children["mitigation"].metrics["acts_throttled"]
        else {
            panic!("acts_throttled must be a counter");
        };
        assert!(throttled > 0, "blockhammer never throttled");
        let (_, dram) = Lockstep {
            blockhammer: false,
            ..cfg
        }
        .check(&ops);
        assert!(!dram.flip_log().all().is_empty(), "no flips to order");
    }

    #[test]
    fn bypass_streaks_that_outgrow_the_ring_renumber_it() {
        // Bank A opens row 0, then twelve ops to distinct rows of bank A
        // sit at the front of the window behind which a stream of row hits
        // to bank B arrives. Each A op is the oldest and not a hit, so it
        // is bypassed up to the starvation cap before it is served, and
        // the next A op then leads with a fresh streak; the holes the
        // streaks leave behind stretch the window's span past the ring.
        // The pattern repeats, so the ring renumbers again and again.
        let dec = mini_decoder();
        let at = |bank: u16, row: u32| {
            dec.encode(&MediaAddress {
                socket: 0,
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: bank,
                bank: 0,
                row,
                col: 0,
            })
            .expect("in range")
        };
        let mut ops = vec![MemOp::read(at(1, 7))];
        for round in 0..4u32 {
            ops.extend((0..12).map(|i| MemOp::read(at(0, 20 * round + 1 + i))));
            ops.extend((0..200).map(|_| MemOp::read(at(1, 7))));
        }
        // Eight threads with compute gaps: serving one bank-B op in place
        // of another then moves per-thread latency, not just bus order.
        let ops: Vec<MemOp> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| op.with_gap_ps(1_000).on_thread((i % 8) as u16))
            .collect();
        for closed_page in [false, true] {
            let cfg = Lockstep {
                closed_page,
                physics: false,
                blockhammer: false,
            };
            let before = RING_RENUMBERS.with(Cell::get);
            cfg.check(&ops);
            let renumbers = RING_RENUMBERS.with(Cell::get) - before;
            if closed_page {
                // No hits, no bypasses: the span never exceeds the window.
                assert_eq!(renumbers, 0);
            } else {
                // Both entry points replay the trace.
                assert!(renumbers >= 8, "renumbered {renumbers} times");
            }
        }
    }

    /// A mixed trace exercising every scheduling feature: sequential
    /// streams, a hot row with gaps, random writes, dependent chases,
    /// invalid (dropped) addresses, several threads.
    fn mixed_trace(n: u64) -> Vec<MemOp> {
        let dec = mini_decoder();
        let cap = dec.capacity();
        let rg = dec.geometry().row_group_bytes();
        let mut x = 0xdead_beefu64;
        (0..n)
            .map(|i| match i % 5 {
                0 => MemOp::read(i * 64),
                1 => MemOp::read(0).with_gap_ps(1_000).on_thread(1),
                2 => {
                    x = dram::util::splitmix64(x);
                    MemOp::write((x % cap) & !63).on_thread(2)
                }
                3 => MemOp::read((i * rg) % cap).after_previous().on_thread(3),
                _ => MemOp::read(cap + i), // invalid: dropped by both paths
            })
            .collect()
    }

    #[test]
    fn run_compiled_matches_run_trace_exactly() {
        // The pre-decoded replay must be indistinguishable from the direct
        // path: same TraceResult, same bank census, and identical exported
        // telemetry including the TLB child (compile-time counters are
        // credited at replay).
        let ops = mixed_trace(20_000);
        let (mut direct, mut d1) = setup();
        let direct_res = direct.run_trace(&mut d1, ops.clone());

        let prog = CompiledTrace::compile(mini_decoder(), ops);
        let (mut compiled, mut d2) = setup();
        let compiled_res = compiled.run_compiled(&mut d2, &prog);

        assert_eq!(direct_res, compiled_res);
        assert_eq!(direct.banks_touched(), compiled.banks_touched());
        let direct_reg = telemetry::Registry::new();
        direct.export_telemetry(&direct_reg);
        let compiled_reg = telemetry::Registry::new();
        compiled.export_telemetry(&compiled_reg);
        assert_eq!(
            direct_reg.snapshot(),
            compiled_reg.snapshot(),
            "compiled replay must emit identical telemetry, TLB included"
        );
    }

    #[test]
    fn run_compiled_matches_run_trace_with_physics_and_closed_page() {
        // With physics driven and a closed-page policy, every access
        // re-activates: the ACT-run coalescing, 512-ACT time syncs, and
        // flip-log ordering must all match the direct path bit for bit.
        let dec = mini_decoder();
        let rg = dec.geometry().row_group_bytes();
        let mut ops = Vec::new();
        for i in 0..60_000u64 {
            let phys = match i % 8 {
                0..=6 => 0,
                _ => ((i / 8) % 64) * rg + 2 * rg,
            };
            ops.push(MemOp::read(phys));
        }
        let mk_dram = || {
            dram::DramSystemBuilder::new(mini_geometry())
                .trr(0, 0)
                .build()
        };
        let mut d1 = mk_dram();
        let mut direct = MemoryController::new(mini_decoder()).with_policy(PagePolicy::Closed);
        let direct_res = direct.run_trace(&mut d1, ops.clone());

        let prog = CompiledTrace::compile(mini_decoder(), ops);
        let mut d2 = mk_dram();
        let mut compiled = MemoryController::new(mini_decoder()).with_policy(PagePolicy::Closed);
        let compiled_res = compiled.run_compiled(&mut d2, &prog);

        assert_eq!(direct_res, compiled_res);
        assert_eq!(d1.stats(), d2.stats());
        assert_eq!(
            d1.flip_log().all(),
            d2.flip_log().all(),
            "compiled replay must preserve per-ACT flip order"
        );
    }

    #[test]
    fn run_compiled_on_warm_controller_accumulates_like_run_trace() {
        // Back-to-back programs on one controller: clock carry-over, stats
        // deltas, and per-thread state resets must match running the same
        // two traces directly.
        let first = mixed_trace(4_000);
        let second: Vec<MemOp> = (0..2_000u64)
            .map(|i| MemOp::read((i % 512) * 64).on_thread((i % 3) as u16))
            .collect();
        let (mut direct, mut d1) = setup();
        let dr1 = direct.run_trace(&mut d1, first.clone());
        let dr2 = direct.run_trace(&mut d1, second.clone());

        let prog1 = CompiledTrace::compile(mini_decoder(), first);
        let prog2 = CompiledTrace::compile(mini_decoder(), second);
        let (mut compiled, mut d2) = setup();
        let cr1 = compiled.run_compiled(&mut d2, &prog1);
        let cr2 = compiled.run_compiled(&mut d2, &prog2);

        assert_eq!(dr1, cr1);
        assert_eq!(dr2, cr2);
        assert_eq!(direct.clock_ps(), compiled.clock_ps());
    }

    #[test]
    fn empty_compiled_trace_is_a_no_op() {
        let (mut ctrl, mut dram) = setup();
        let prog = CompiledTrace::compile(mini_decoder(), std::iter::empty());
        assert!(prog.is_empty());
        let res = ctrl.run_compiled(&mut dram, &prog);
        assert_eq!(res.stats.accesses, 0);
        assert_eq!(res.elapsed_ps, 0);
    }

    #[test]
    fn empty_trace_yields_zero_rates_not_nan() {
        let (mut ctrl, mut dram) = setup();
        let res = ctrl.run_trace(&mut dram, std::iter::empty());
        assert_eq!(res.stats.accesses, 0);
        assert_eq!(res.elapsed_ps, 0);
        assert_eq!(res.stats.hit_rate(), 0.0);
        assert_eq!(res.stats.mean_latency_ns(), 0.0);
        assert_eq!(res.stats.bandwidth_gib_s(), 0.0);
        assert_eq!(res.bandwidth_gib_s(), 0.0);
        assert_eq!(res.mean_latency_ns_of([0]), 0.0);
    }

    #[test]
    fn telemetry_export_matches_stats() {
        let (mut ctrl, mut dram) = setup();
        let ops: Vec<MemOp> = (0..2048u64).map(|i| MemOp::read(i * 64)).collect();
        let res = ctrl.run_trace(&mut dram, ops);
        let reg = telemetry::Registry::new();
        ctrl.export_telemetry(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.metrics["accesses"],
            telemetry::MetricValue::Counter {
                value: res.stats.accesses,
                volatile: false
            }
        );
        assert_eq!(
            snap.metrics["row_hits"],
            telemetry::MetricValue::Counter {
                value: res.stats.row_hits,
                volatile: false
            }
        );
        // One queue-depth observation per FR-FCFS pick, one latency sample
        // per served access.
        let telemetry::MetricValue::Histo { value: qd, .. } = &snap.metrics["queue_depth"] else {
            panic!("queue_depth must be a histogram");
        };
        assert_eq!(qd.count, 2048);
        let telemetry::MetricValue::Histo { value: lat, .. } = &snap.metrics["latency_ns"] else {
            panic!("latency_ns must be a histogram");
        };
        assert_eq!(lat.count, res.stats.accesses);
        // The decode cache reports through a child registry.
        let tlb = &snap.children["tlb"];
        let telemetry::MetricValue::Counter { value: hits, .. } = tlb.metrics["hits"] else {
            panic!("tlb hits must be a counter");
        };
        let telemetry::MetricValue::Counter { value: misses, .. } = tlb.metrics["misses"] else {
            panic!("tlb misses must be a counter");
        };
        assert_eq!(hits + misses, 2048);
    }

    #[test]
    fn invalid_addresses_are_dropped_not_fatal() {
        let (mut ctrl, mut dram) = setup();
        let cap = ctrl.decoder().capacity();
        let ops = vec![MemOp::read(0), MemOp::read(cap + 4096), MemOp::read(64)];
        let res = ctrl.run_trace(&mut dram, ops);
        assert_eq!(res.stats.accesses, 2);
    }

    /// A hammering trace: two rows of one bank, strictly alternating, and
    /// dependent so FR-FCFS cannot coalesce it into row-hit runs — every
    /// access is a row conflict and an ACT, like a real flush-based
    /// hammer loop.
    fn hammer_trace(n: u64, thread: u16) -> Vec<MemOp> {
        let dec = mini_decoder();
        let phys_of_row = |row: u32| {
            dec.encode(&dram_addr::MediaAddress {
                socket: 0,
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row,
                col: 0,
            })
            .expect("row in range")
        };
        let rows = [phys_of_row(0), phys_of_row(2)];
        (0..n)
            .map(|i| {
                MemOp::read(rows[(i % 2) as usize])
                    .after_previous()
                    .on_thread(thread)
            })
            .collect()
    }

    #[test]
    fn installed_noop_backend_is_bit_identical_to_no_hook() {
        // A zero-delay hook takes the hooked branch on every ACT yet must
        // not perturb a single timestamp, stat, or device flip.
        let ops = mixed_trace(20_000);
        let (mut plain, mut d1) = setup();
        let plain_res = plain.run_trace(&mut d1, ops.clone());

        let dec = mini_decoder();
        let mut d2 = DramSystem::new(*dec.geometry());
        let mut hooked =
            MemoryController::new(dec).with_mitigation(Box::new(mitigation::NoMitigation::new()));
        let hooked_res = hooked.run_trace(&mut d2, ops);

        assert_eq!(plain_res, hooked_res);
        assert_eq!(d1.stats(), d2.stats());
        assert_eq!(d1.flip_log().all(), d2.flip_log().all());
        assert_eq!(plain.clock_ps(), hooked.clock_ps());
    }

    #[test]
    fn blockhammer_hook_throttles_a_hammering_trace() {
        let ops = hammer_trace(4_000, 0);
        let (mut plain, mut d1) = setup();
        let plain_res = plain.run_trace(&mut d1, ops.clone());

        let dec = mini_decoder();
        let mut d2 = DramSystem::new(*dec.geometry());
        let mut defended = MemoryController::new(dec)
            .with_mitigation(mitigation::Backend::BlockHammer.controller_hook().unwrap());
        let defended_res = defended.run_trace(&mut d2, ops);

        assert!(
            defended_res.elapsed_ps > plain_res.elapsed_ps * 2,
            "throttling must stretch the campaign: {} vs {}",
            defended_res.elapsed_ps,
            plain_res.elapsed_ps
        );
        let reg = telemetry::Registry::new();
        defended.export_telemetry(&reg);
        let snap = reg.snapshot();
        let child = &snap.children["mitigation"];
        let telemetry::MetricValue::Counter {
            value: throttled, ..
        } = child.metrics["acts_throttled"]
        else {
            panic!("acts_throttled must be a counter");
        };
        // Both rows blacklist after 512 estimated ACTs each.
        assert!(throttled > 2_000, "acts_throttled = {throttled}");
    }

    #[test]
    fn breakhammer_hook_throttles_the_offending_thread() {
        // Thread 9 activates at the tRC limit (~166 ACTs/tREFI), far over
        // the leak allowance, so its score blows the budget and later
        // ACTs pay.
        let ops = hammer_trace(12_000, 9);
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut defended = MemoryController::new(dec)
            .with_mitigation(mitigation::Backend::BreakHammer.controller_hook().unwrap());
        let res = defended.run_trace(&mut dram, ops);
        assert_eq!(res.stats.accesses, 12_000);
        let reg = telemetry::Registry::new();
        defended.export_telemetry(&reg);
        let snap = reg.snapshot();
        let child = &snap.children["mitigation"];
        let telemetry::MetricValue::Counter { value: sources, .. } =
            child.metrics["sources_throttled"]
        else {
            panic!("sources_throttled must be a counter");
        };
        assert!(sources >= 1, "hammering source never throttled");
    }
}
