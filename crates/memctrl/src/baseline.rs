//! The retained hash-map controller: the pre-flat-array reference
//! implementation.
//!
//! [`HashedController`] keeps per-bank, per-rank, and per-channel state in
//! `HashMap`s and re-decodes every pending op on every FR-FCFS pick —
//! exactly the structure [`crate::MemoryController`] had before its state
//! was flattened into geometry-ordinal-indexed `Vec`s and fronted by the
//! decode TLB. It is kept as the independently written reference: the
//! lockstep tests in [`crate::controller`] assert that it and the flat
//! controller (`run_trace` and `run_compiled`) produce identical
//! [`TraceResult`]s, which pins the refactor to the original semantics.

use crate::bankfsm::{AccessKind, BankFsm, PagePolicy};
use crate::controller::{AccessResult, MemOp, TraceResult};
use crate::stats::CtrlStats;
use crate::timing::DdrTimings;
use dram::DramSystem;
use dram_addr::{AddrError, BankId, SystemAddressDecoder};
use std::collections::{HashMap, VecDeque};

/// Per-rank activate bookkeeping (tFAW and tRRD).
#[derive(Debug, Default, Clone)]
struct RankState {
    recent_acts: VecDeque<u64>,
    last_act_ps: u64,
}

/// The original hash-map-backed FR-FCFS controller, retained as the
/// baseline for benchmarks and equivalence tests.
#[derive(Debug)]
pub struct HashedController {
    decoder: SystemAddressDecoder,
    timings: DdrTimings,
    banks: HashMap<BankId, BankFsm>,
    bus_free: HashMap<(u16, u16), u64>,
    ranks: HashMap<(u16, u16, u16, u16), RankState>,
    next_ref_ps: u64,
    stats: CtrlStats,
    bank_touches: HashMap<BankId, u64>,
    drive_physics: bool,
    /// Row-buffer management policy.
    pub policy: PagePolicy,
    /// FR-FCFS lookahead window for [`Self::run_trace`].
    pub window: usize,
    dram_sync_counter: u32,
    /// Pending-window occupancy at each FR-FCFS pick, observed at the same
    /// loop position as the flat controller so telemetry is comparable.
    queue_depth: telemetry::HistoSnapshot,
    /// Per-access latency distribution, nanoseconds.
    latency_ns: telemetry::HistoSnapshot,
}

impl HashedController {
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
        Self {
            decoder,
            timings,
            banks: HashMap::new(),
            bus_free: HashMap::new(),
            ranks: HashMap::new(),
            next_ref_ps: timings.t_refi_ps,
            stats: CtrlStats::default(),
            bank_touches: HashMap::new(),
            drive_physics: true,
            policy: PagePolicy::Open,
            window: 16,
            dram_sync_counter: 0,
            queue_depth: telemetry::HistoSnapshot::default(),
            latency_ns: telemetry::HistoSnapshot::default(),
        }
    }

    /// Switches to a closed-page (auto-precharge) policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PagePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Disables driving the DRAM disturbance physics on activates.
    #[must_use]
    pub fn without_physics(mut self) -> Self {
        self.drive_physics = false;
        self
    }

    /// The decoder in use.
    #[must_use]
    pub fn decoder(&self) -> &SystemAddressDecoder {
        &self.decoder
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Number of distinct banks touched so far.
    #[must_use]
    pub fn banks_touched(&self) -> usize {
        self.bank_touches.len()
    }

    /// Adds this controller's totals into `reg`. Metric-for-metric
    /// comparable with [`crate::MemoryController::export_telemetry`],
    /// except there is no `tlb` child (this implementation decodes
    /// uncached); the equivalence test compares the shared metrics.
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        self.stats.export_telemetry(reg);
        reg.histo("queue_depth").merge_from(&self.queue_depth);
        reg.histo("latency_ns").merge_from(&self.latency_ns);
        reg.counter("banks_touched")
            .add(self.bank_touches.len() as u64);
        let per_bank = reg.histo("accesses_per_bank");
        for &n in self.bank_touches.values() {
            per_bank.observe(n);
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
        let media = self.decoder.decode(phys)?;
        let bank_id = media.global_bank(self.decoder.geometry());
        // Distributed refresh: when the clock crosses tREFI, steal tRFC from
        // every bank (coarse model of per-rank staggered REF).
        while arrival_ps >= self.next_ref_ps {
            let t = self.timings;
            for fsm in self.banks.values_mut() {
                fsm.precharge(self.next_ref_ps, &t);
                fsm.ready_ps += t.t_rfc_ps;
            }
            self.next_ref_ps += t.t_refi_ps;
        }
        let fsm = self.banks.entry(bank_id).or_default();
        // Rank-level ACT constraints apply only if an ACT will be issued.
        let needs_act = fsm.classify(media.row) != AccessKind::RowHit;
        let mut arrival = arrival_ps;
        let rank_key = (media.socket, media.channel, media.dimm, media.rank);
        if needs_act {
            let rank = self.ranks.entry(rank_key).or_default();
            arrival = arrival.max(rank.last_act_ps + self.timings.t_rrd_ps);
            if rank.recent_acts.len() == 4 {
                let oldest = rank.recent_acts[0];
                arrival = arrival.max(oldest + self.timings.t_faw_ps);
            }
        }
        let (kind, act_start, bank_done) =
            fsm.access_with_policy(media.row, arrival, &self.timings, self.policy);
        if kind != AccessKind::RowHit {
            let rank = self.ranks.entry(rank_key).or_default();
            rank.last_act_ps = act_start;
            rank.recent_acts.push_back(act_start);
            while rank.recent_acts.len() > 4 {
                rank.recent_acts.pop_front();
            }
        }
        // Channel data bus: the burst occupies the bus; queue if busy.
        let bus = self
            .bus_free
            .entry((media.socket, media.channel))
            .or_insert(0);
        let data_start = (bank_done - self.timings.t_burst_ps).max(*bus);
        let done = data_start + self.timings.t_burst_ps;
        *bus = done;
        if done > bank_done {
            // Bus queueing delays this bank's next availability too.
            self.banks.get_mut(&bank_id).expect("bank exists").ready_ps = done;
        }
        let latency = done - arrival_ps;
        self.stats.record(kind, !write, latency, done);
        self.latency_ns.observe(latency / 1000);
        *self.bank_touches.entry(bank_id).or_insert(0) += 1;
        if self.drive_physics && kind != AccessKind::RowHit {
            dram.activate(&media, 0);
            self.dram_sync_counter += 1;
            if self.dram_sync_counter >= 512 {
                self.dram_sync_counter = 0;
                let clock_ns = self.stats.clock_ps / 1000;
                if clock_ns > dram.now_ns() {
                    dram.advance_ns(clock_ns - dram.now_ns());
                }
            }
        }
        Ok(AccessResult {
            kind,
            done_ps: done,
            latency_ps: latency,
        })
    }

    /// Replays a trace with FR-FCFS scheduling over a lookahead window,
    /// re-decoding pending ops on every pick as the original did.
    pub fn run_trace<I>(&mut self, dram: &mut DramSystem, ops: I) -> TraceResult
    where
        I: IntoIterator<Item = MemOp>,
    {
        let start_clock = self.stats.clock_ps;
        let before = self.stats;
        let mut thread_cursor: HashMap<u16, u64> = HashMap::new();
        let mut thread_last_done: HashMap<u16, u64> = HashMap::new();
        let mut outstanding: HashMap<u16, u32> = HashMap::new();
        let mut first_issue: Option<u64> = None;
        let mut pending: VecDeque<(MemOp, u64)> = VecDeque::new();
        let mut staged: Option<MemOp> = None;
        let mut thread_latency: HashMap<u16, (u64, u64)> = HashMap::new();
        let mut bypassed = 0u32;
        let mut iter = ops.into_iter();
        loop {
            while pending.len() < self.window.max(1) {
                let Some(op) = staged.take().or_else(|| iter.next()) else {
                    break;
                };
                if op.dependent && outstanding.get(&op.thread).copied().unwrap_or(0) > 0 {
                    staged = Some(op);
                    break;
                }
                let cursor = thread_cursor.entry(op.thread).or_insert(start_clock);
                let mut issue = *cursor + op.gap_ps;
                if op.dependent {
                    issue = issue.max(
                        thread_last_done
                            .get(&op.thread)
                            .copied()
                            .unwrap_or(start_clock),
                    );
                }
                *cursor = issue;
                first_issue.get_or_insert(issue);
                *outstanding.entry(op.thread).or_insert(0) += 1;
                pending.push_back((op, issue));
            }
            let Some(_) = pending.front() else { break };
            self.queue_depth.observe(pending.len() as u64);
            let choice = if bypassed >= self.window as u32 {
                0
            } else {
                pending
                    .iter()
                    .position(|(op, _)| {
                        self.decoder.decode(op.phys).ok().is_some_and(|m| {
                            let bank = m.global_bank(self.decoder.geometry());
                            self.banks
                                .get(&bank)
                                .is_some_and(|f| f.classify(m.row) == AccessKind::RowHit)
                        })
                    })
                    .unwrap_or(0)
            };
            bypassed = if choice == 0 { 0 } else { bypassed + 1 };
            let (op, issue) = pending.remove(choice).expect("choice is in range");
            *outstanding.get_mut(&op.thread).expect("counted") -= 1;
            if let Ok(res) = self.access_at(dram, op.phys, op.write, issue) {
                let last = thread_last_done.entry(op.thread).or_insert(start_clock);
                *last = (*last).max(res.done_ps);
                let lat = thread_latency.entry(op.thread).or_insert((0, 0));
                lat.0 += res.latency_ps;
                lat.1 += 1;
            }
        }
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
        let mut thread_latency: Vec<(u16, (u64, u64))> = thread_latency.into_iter().collect();
        thread_latency.sort_unstable_by_key(|&(t, _)| t);
        TraceResult {
            stats: delta,
            elapsed_ps: elapsed,
            thread_latency,
        }
    }
}
