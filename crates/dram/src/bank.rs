//! Per-bank disturbance and refresh state.
//!
//! Victim half-rows live in an append-only arena (`BankState::victims`).
//! Beside it sits a flat index with one `u32` per half-row of the bank,
//! allocated zeroed when the bank is first touched: slot
//! `internal_row << 1 | side` holds the arena index + 1, and 0 means the
//! half-row was never disturbed. Every victim lookup — the REF sweep, a TRR
//! serve, resolving an aggressor, an aggressor's own-row refresh — is one
//! load from it. Refresh resets an arena entry in place and nothing ever
//! removes one, so an arena index stays valid for the bank's life; that is
//! what lets a resolved [`crate::Aggressor`] handle address its victims by
//! index instead of looking them up on every burst.
//!
//! Between two calls of one cycle (`crate::DramSystem::activate_cycle`) a
//! bank may *hold* that cycle's victims lazily: their accumulators follow
//! a per-bank pass clock instead of being folded and written back on every
//! call. A one-weight victim without an own-row refresh is `seg` as of its
//! `origin` pass plus `per_pass` activations per pass since; a victim with
//! one sits at its fold's fixed point, which every later pass returns it
//! to. A REF refresh of a held victim re-arms it against the clock; every
//! other access to the bank's victims settles them all first
//! ([`BankState::settle`]). See DESIGN.md *Cycle fold*.

use crate::flip::{weak_cells, WeakCell};
use crate::profile::DimmProfile;
use crate::trr::TrrTracker;
use dram_addr::RankSide;

/// Side index helper (A = 0, B = 1) used for compact keys.
#[must_use]
pub(crate) fn side_idx(side: RankSide) -> u8 {
    match side {
        RankSide::A => 0,
        RankSide::B => 1,
    }
}

/// Accumulated disturbance of one victim half-row in *segment* form,
/// `base + w * n`: `n` activations at the current per-ACT weight `w` on top
/// of a folded `base` from earlier weight regimes (RowPress changes `w`
/// mid-window). This makes a coalesced burst of `k` activations (`n += k`)
/// produce bit-for-bit the same float as `k` sequential per-ACT updates —
/// both evaluate `base + w * n` with one multiply and one add — which is
/// what pins the burst path to the reference path in the equivalence
/// proptests. `Copy`, so a cycle fold can run it ahead on a copy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Segment {
    /// Folded disturbance from earlier weight segments (since last refresh).
    pub base: f64,
    /// Per-activation weight of the current segment.
    pub w: f64,
    /// Activation count in the current segment.
    pub n: u64,
}

impl Segment {
    /// Accumulated weighted disturbance since the last refresh.
    #[inline]
    #[must_use]
    pub(crate) fn disturb(&self) -> f64 {
        self.base + self.w * self.n as f64
    }

    /// Records `k` activations at weight `w`, folding the previous segment
    /// if the weight changed. Returns `(base, n_before)` so callers can
    /// evaluate the disturbance after any prefix `j <= k` of the burst as
    /// `base + w * (n_before + j)` — exactly the value `j` sequential
    /// per-ACT calls would have produced.
    #[inline]
    pub(crate) fn add(&mut self, w: f64, k: u64) -> (f64, u64) {
        if self.w.to_bits() != w.to_bits() {
            self.base += self.w * self.n as f64;
            self.w = w;
            self.n = 0;
        }
        let n_before = self.n;
        self.n += k;
        (self.base, n_before)
    }

    /// What a refresh does to the accumulator: `base` and `n` clear, the
    /// weight stays.
    #[inline]
    fn clear(&mut self) {
        self.base = 0.0;
        self.n = 0;
    }

    /// Bitwise equality (a cycle fold's fixed-point test).
    #[inline]
    fn same_bits(&self, other: &Self) -> bool {
        self.base.to_bits() == other.base.to_bits()
            && self.w.to_bits() == other.w.to_bits()
            && self.n == other.n
    }
}

/// One victim half-row's part of a pattern period, in run order: what a
/// cycle fold (`crate::DramSystem::activate_cycle`) replays on it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VictimOp {
    /// `count` activations of a neighbour at per-ACT weight `w`.
    Add { w: f64, count: u64 },
    /// The half-row is itself activated, which refreshes it.
    Reset,
}

/// Disturbance state of one victim half-row.
///
/// The next flip threshold is held inline (`next_threshold`), so a burst
/// that crosses nothing reads this struct and never the `cells` heap
/// allocation.
#[derive(Debug, Clone)]
pub(crate) struct VictimState {
    /// Accumulated disturbance since the last refresh.
    pub seg: Segment,
    /// `cells[next_cell].threshold`, or ∞ once every cell has flipped.
    next_threshold: f64,
    /// `cells[0].threshold` (∞ with no weak cells): what refresh re-arms
    /// `next_threshold` to.
    first_threshold: f64,
    /// This half-row's weak cells, sorted by flip threshold.
    cells: Vec<WeakCell>,
    /// Index of the next unflipped weak cell at the current disturbance.
    next_cell: u32,
    /// Index + 1 of this victim's entry in the bank's `Lazy::held`; 0 when
    /// the bank does not hold it.
    held: u32,
}

impl VictimState {
    /// An undisturbed half-row with the given weak cells (sorted by
    /// threshold).
    pub(crate) fn new(cells: Vec<WeakCell>) -> Self {
        let first_threshold = cells.first().map_or(f64::INFINITY, |c| c.threshold);
        Self {
            seg: Segment::default(),
            next_threshold: first_threshold,
            first_threshold,
            cells,
            next_cell: 0,
            held: 0,
        }
    }

    /// Refresh: clears the disturbance accumulator and re-arms the weak
    /// cells (charge restored; already-flipped data stays flipped until
    /// rewritten or scrubbed).
    #[inline]
    pub(crate) fn refresh(&mut self) {
        self.seg.clear();
        self.next_cell = 0;
        self.next_threshold = self.first_threshold;
    }

    /// Accumulated weighted disturbance since this half-row's last refresh.
    #[inline]
    #[must_use]
    pub(crate) fn disturb(&self) -> f64 {
        self.seg.disturb()
    }

    /// Records `k` activations at weight `w` (see [`Segment::add`]).
    #[inline]
    pub(crate) fn add(&mut self, w: f64, k: u64) -> (f64, u64) {
        self.seg.add(w, k)
    }

    /// The next unflipped weak cell if `disturb` has reached its threshold,
    /// advancing past it; `None` (without touching `cells`) otherwise.
    #[inline]
    pub(crate) fn pop_crossed(&mut self, disturb: f64) -> Option<WeakCell> {
        if self.next_threshold > disturb {
            return None;
        }
        let cell = self.cells[self.next_cell as usize];
        self.next_cell += 1;
        self.next_threshold = self
            .cells
            .get(self.next_cell as usize)
            .map_or(f64::INFINITY, |c| c.threshold);
        Some(cell)
    }

    /// The accumulator after `reps` passes of `ops` (whose shape is
    /// `shape`), or `None` if some `Add` on the way would reach a weak-cell
    /// threshold (a flip, which only the per-run path emits in per-ACT
    /// order). Reads only. With the accumulator comes whether the bank may
    /// hold the victim from there on (see [`BankState::hold`]).
    ///
    /// Each shape is bit-identical to replaying the ops one by one. A
    /// linear pass is a single `add(w, reps × per_pass)`, whose last value
    /// is its peak (the disturbance only grows); it can always be held.
    /// With a reset the passes are simulated until one leaves the
    /// accumulator and the threshold it checks against bitwise where it
    /// found them — a pass's output depends on its input only through the
    /// weight at its first reset, so that takes at most three passes — and
    /// the victim can be held at that fixed point once it is reached.
    /// Mixed weights without a reset replay every add and are never held.
    pub(crate) fn fold(
        &self,
        ops: &[VictimOp],
        shape: PassShape,
        reps: u64,
    ) -> Option<(Segment, bool)> {
        let mut seg = self.seg;
        let mut threshold = self.next_threshold;
        if let PassShape::Linear { w, per_pass } = shape {
            seg.add(w, reps * per_pass);
            return (seg.disturb() < threshold).then_some((seg, true));
        }
        for _ in 0..reps {
            let (before, threshold_before) = (seg, threshold);
            for op in ops {
                match *op {
                    VictimOp::Add { w, count } => {
                        seg.add(w, count);
                        if seg.disturb() >= threshold {
                            return None;
                        }
                    }
                    VictimOp::Reset => {
                        seg.clear();
                        threshold = self.first_threshold;
                    }
                }
            }
            if matches!(shape, PassShape::Reset)
                && seg.same_bits(&before)
                && threshold.to_bits() == threshold_before.to_bits()
            {
                return Some((seg, true));
            }
        }
        Some((seg, false))
    }

    /// Writes back a [`VictimState::fold`] result; `has_reset` re-arms the
    /// weak cells as the pass's own-row refresh did.
    #[inline]
    pub(crate) fn set_folded(&mut self, seg: Segment, has_reset: bool) {
        if has_reset {
            self.refresh();
        }
        self.seg = seg;
    }
}

/// What one pass of a cycle does to a victim half-row, classified once
/// when the cycle is built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PassShape {
    /// Every op is an `Add` of bitwise the same weight `w`, `per_pass`
    /// activations in all.
    Linear { w: f64, per_pass: u64 },
    /// Some op is an own-row refresh.
    Reset,
    /// Adds of more than one weight (d1 and d2, or a RowPress dwell), no
    /// reset.
    Mixed,
}

impl PassShape {
    /// The shape of one pass of `ops`.
    pub(crate) fn of(ops: &[VictimOp]) -> Self {
        if ops.iter().any(|op| matches!(op, VictimOp::Reset)) {
            return Self::Reset;
        }
        let Some(&VictimOp::Add { w, .. }) = ops.first() else {
            return Self::Mixed;
        };
        let mut per_pass = 0;
        for op in ops {
            match *op {
                VictimOp::Add { w: x, count } if x.to_bits() == w.to_bits() => per_pass += count,
                _ => return Self::Mixed,
            }
        }
        Self::Linear { w, per_pass }
    }

    /// Activations per pass of a linear shape; `None` for a reset.
    pub(crate) fn per_pass(self) -> Option<u64> {
        match self {
            Self::Linear { per_pass, .. } => Some(per_pass),
            Self::Reset | Self::Mixed => None,
        }
    }
}

/// Most passes a linear victim is held for without a look: past it the
/// deadline is early, which only costs a settle, and `n` cannot overflow.
const MAX_HELD_PASSES: u64 = 1 << 32;

/// Passes after which a victim at `seg`, gaining `per_pass` activations
/// at its weight each pass, first reaches `threshold` (at most
/// [`MAX_HELD_PASSES`]). The pass analogue of `first_crossing`: a
/// closed-form estimate fixed up against the exact float value the fold
/// compares, `base + w × (n + per_pass × p)`.
fn passes_to_cross(seg: Segment, per_pass: u64, threshold: f64) -> u64 {
    let val = |p: u64| seg.base + seg.w * ((seg.n + per_pass * p) as f64);
    let cap = ((u64::MAX - seg.n) / per_pass).clamp(1, MAX_HELD_PASSES);
    if val(cap) < threshold {
        return cap;
    }
    let est = (((threshold - seg.base) / seg.w - seg.n as f64) / per_pass as f64).ceil();
    let mut p = if est.is_finite() && est >= 1.0 {
        (est as u64).min(cap)
    } else {
        1
    };
    while p > 1 && val(p - 1) >= threshold {
        p -= 1;
    }
    while val(p) < threshold {
        p += 1;
    }
    p
}

/// How a held victim's accumulator follows the pass clock.
#[derive(Debug, Clone, Copy)]
enum Hold {
    /// One weight, no reset: the victim's `seg` as of `origin` plus
    /// `per_pass` activations per pass since. It reaches `next_threshold`
    /// at pass `deadline`, and `after_refresh` passes after a refresh
    /// (which leaves `(0, w, 0)` against the first threshold whenever it
    /// comes).
    Linear {
        per_pass: u64,
        deadline: u64,
        after_refresh: u64,
    },
    /// A reset victim at its fold's fixed point `fixed`: any pass leaves
    /// `fixed`, a REF refresh included. The victim's `seg` is `fixed`, or
    /// cleared by a refresh at `origin` with no pass since.
    Fixed { fixed: Segment },
}

/// One held victim.
#[derive(Debug, Clone, Copy)]
struct Held {
    /// Index into the bank's victim arena.
    idx: u32,
    /// Pass clock when the victim was held or last refreshed.
    origin: u64,
    hold: Hold,
}

impl Held {
    /// The pass clock at which the victim would reach its threshold.
    fn deadline(&self) -> u64 {
        match self.hold {
            Hold::Linear { deadline, .. } => deadline,
            Hold::Fixed { .. } => u64::MAX,
        }
    }

    /// The victim's accumulator at pass `clock`, given its `seg`.
    fn settled(&self, seg: Segment, clock: u64) -> Segment {
        match self.hold {
            Hold::Linear { per_pass, .. } => Segment {
                n: seg.n + per_pass * (clock - self.origin),
                ..seg
            },
            Hold::Fixed { fixed } if clock > self.origin => fixed,
            Hold::Fixed { .. } => seg,
        }
    }
}

/// The victims of one cycle a bank holds between calls, against the
/// bank's pass clock.
#[derive(Debug, Default)]
struct Lazy {
    /// Stamp of the held cycle; 0 when the bank holds nothing.
    stamp: u64,
    /// Passes the bank has applied lazily.
    clock: u64,
    /// No held victim reaches its threshold before this pass. The least
    /// deadline, or earlier: a refresh that moved the least one later
    /// leaves it until a call reaches it.
    deadline: u64,
    held: Vec<Held>,
}

impl Lazy {
    /// An empty hold, boxed: a bank that never holds a cycle pays one
    /// pointer for it.
    fn new() -> Box<Self> {
        Box::new(Self::default())
    }
}

/// Mutable state of a single DRAM bank: victim disturbance accumulators,
/// per-side TRR trackers, the auto-refresh pointer, and the cycle whose
/// victims it holds lazily.
#[derive(Debug)]
pub(crate) struct BankState {
    /// Victim half-rows in first-touch order. Append-only: an index is
    /// valid for the bank's life.
    pub(crate) victims: Vec<VictimState>,
    /// Arena index + 1 per half-row at [`BankState::slot`]; 0 = never
    /// disturbed. `2 × rows_per_bank` entries.
    victim_index: Vec<u32>,
    pub(crate) trr: [TrrTracker; 2],
    /// Next internal row the distributed auto-refresh will cover.
    pub(crate) refresh_ptr: u32,
    /// Allocated when the bank first holds a cycle.
    lazy: Option<Box<Lazy>>,
}

impl BankState {
    /// Fresh bank state for a bank of `rows_per_bank` internal rows with
    /// the given TRR configuration.
    #[must_use]
    pub(crate) fn new(rows_per_bank: u32, trr_capacity: usize, trr_served_per_ref: usize) -> Self {
        Self {
            victims: Vec::new(),
            victim_index: vec![0; 2 * rows_per_bank as usize],
            trr: [
                TrrTracker::new(trr_capacity, trr_served_per_ref),
                TrrTracker::new(trr_capacity, trr_served_per_ref),
            ],
            refresh_ptr: 0,
            lazy: None,
        }
    }

    /// `victim_index` slot of `(side, internal_row)`.
    #[inline]
    fn slot(&self, side: u8, internal_row: u32) -> usize {
        debug_assert!(
            (internal_row as usize) < self.victim_index.len() / 2,
            "internal row {internal_row} is outside the bank (a repair target past rows_per_bank?)"
        );
        (internal_row as usize) << 1 | side as usize
    }

    /// Arena index of the victim state for `(side, internal_row)`, if that
    /// half-row has ever been disturbed.
    #[inline]
    #[must_use]
    pub(crate) fn victim_idx(&self, side: u8, internal_row: u32) -> Option<u32> {
        self.victim_index[self.slot(side, internal_row)].checked_sub(1)
    }

    /// Arena index of the victim state for `(side, internal_row)`, creating
    /// it with its deterministic weak-cell population on first touch.
    #[inline]
    pub(crate) fn victim_idx_or_insert(
        &mut self,
        profile: &DimmProfile,
        bank: u32,
        side: RankSide,
        internal_row: u32,
        half_row_bytes: u32,
    ) -> u32 {
        let slot = self.slot(side_idx(side), internal_row);
        if self.victim_index[slot] == 0 {
            self.victims.push(VictimState::new(weak_cells(
                profile,
                bank,
                side,
                internal_row,
                half_row_bytes,
            )));
            self.victim_index[slot] = self.victims.len() as u32;
        }
        self.victim_index[slot] - 1
    }

    /// Returns the victim state for `(side, internal_row)`, creating it on
    /// first touch (see [`BankState::victim_idx_or_insert`]).
    #[inline]
    pub(crate) fn victim_mut(
        &mut self,
        profile: &DimmProfile,
        bank: u32,
        side: RankSide,
        internal_row: u32,
        half_row_bytes: u32,
    ) -> &mut VictimState {
        let idx = self.victim_idx_or_insert(profile, bank, side, internal_row, half_row_bytes);
        &mut self.victims[idx as usize]
    }

    /// Refreshes one half-row (see [`VictimState::refresh`]); a half-row
    /// that was never disturbed holds no state and is a no-op. A held
    /// victim stays held, re-armed at the current pass.
    #[inline]
    pub(crate) fn refresh_half_row(&mut self, side: u8, internal_row: u32) {
        if let Some(idx) = self.victim_idx(side, internal_row) {
            let v = &mut self.victims[idx as usize];
            v.refresh();
            if v.held != 0 {
                let held = v.held;
                self.rearm(held);
            }
        }
    }

    /// Restarts held victim `held` (its `VictimState::held`) at the current
    /// pass after a refresh. Out of line, so the REF sweep's loop over
    /// half-rows that are not held stays small.
    #[cold]
    #[inline(never)]
    fn rearm(&mut self, held: u32) {
        let lazy = self.lazy.as_deref_mut().expect("a held victim has a hold");
        let held = &mut lazy.held[held as usize - 1];
        held.origin = lazy.clock;
        if let Hold::Linear {
            deadline,
            after_refresh,
            ..
        } = &mut held.hold
        {
            *deadline = lazy.clock + *after_refresh;
            lazy.deadline = lazy.deadline.min(*deadline);
        }
    }

    /// Refreshes both half-rows of an internal row.
    pub(crate) fn refresh_row(&mut self, internal_row: u32) {
        self.refresh_half_row(0, internal_row);
        self.refresh_half_row(1, internal_row);
    }

    /// Holds the victims of the cycle stamped `stamp`, as a fold just left
    /// them: `(arena index, Some(per_pass))` for a linear victim, `(arena
    /// index, None)` for a reset victim at its fixed point.
    pub(crate) fn hold(&mut self, stamp: u64, victims: impl Iterator<Item = (u32, Option<u64>)>) {
        let lazy = self.lazy.get_or_insert_with(Lazy::new);
        debug_assert!(lazy.stamp == 0, "a bank holds one cycle: settle first");
        lazy.stamp = stamp;
        lazy.deadline = u64::MAX;
        for (idx, per_pass) in victims {
            let v = &mut self.victims[idx as usize];
            let hold = match per_pass {
                Some(per_pass) => Hold::Linear {
                    per_pass,
                    deadline: lazy.clock + passes_to_cross(v.seg, per_pass, v.next_threshold),
                    after_refresh: passes_to_cross(
                        Segment {
                            base: 0.0,
                            n: 0,
                            ..v.seg
                        },
                        per_pass,
                        v.first_threshold,
                    ),
                },
                None => Hold::Fixed { fixed: v.seg },
            };
            let held = Held {
                idx,
                origin: lazy.clock,
                hold,
            };
            lazy.deadline = lazy.deadline.min(held.deadline());
            lazy.held.push(held);
            v.held = lazy.held.len() as u32;
        }
    }

    /// Applies `reps` passes of the cycle stamped `stamp` by moving the
    /// clock, if the bank holds that cycle and no held victim reaches its
    /// threshold on the way; otherwise changes nothing and returns false.
    #[inline]
    pub(crate) fn advance_held(&mut self, stamp: u64, reps: u64) -> bool {
        let Some(lazy) = self.lazy.as_deref_mut() else {
            return false;
        };
        if stamp == 0 || lazy.stamp != stamp {
            return false;
        }
        let to = lazy.clock + reps;
        if to >= lazy.deadline {
            lazy.deadline = lazy
                .held
                .iter()
                .map(Held::deadline)
                .min()
                .unwrap_or(u64::MAX);
            if to >= lazy.deadline {
                return false;
            }
        }
        lazy.clock = to;
        true
    }

    /// Writes every held victim's accumulator at the current pass back into
    /// it and holds nothing more. Everything that reads or writes victims
    /// outside a held call or a REF refresh calls this first.
    #[inline]
    pub(crate) fn settle(&mut self) {
        if self.lazy.as_ref().is_some_and(|lazy| lazy.stamp != 0) {
            self.settle_held();
        }
    }

    #[cold]
    fn settle_held(&mut self) {
        let lazy = self.lazy.as_deref_mut().expect("checked by settle");
        lazy.stamp = 0;
        for held in lazy.held.drain(..) {
            let v = &mut self.victims[held.idx as usize];
            v.seg = held.settled(v.seg, lazy.clock);
            v.held = 0;
        }
    }

    /// Appends the bank's settled state to `out`: per victim in arena order
    /// its accumulator's bits and next weak cell, then each TRR side's
    /// entries, then the refresh pointer. Settles nothing.
    pub(crate) fn fingerprint(&self, out: &mut Vec<u64>) {
        for v in &self.victims {
            let seg = match &self.lazy {
                Some(lazy) if v.held != 0 => {
                    lazy.held[v.held as usize - 1].settled(v.seg, lazy.clock)
                }
                _ => v.seg,
            };
            out.extend([
                seg.base.to_bits(),
                seg.w.to_bits(),
                seg.n,
                u64::from(v.next_cell),
            ]);
        }
        for tracker in &self.trr {
            out.push(tracker.entries().len() as u64);
            out.extend(
                tracker
                    .entries()
                    .iter()
                    .flat_map(|&(row, n)| [u64::from(row), n]),
            );
        }
        out.push(u64::from(self.refresh_ptr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip::CellPolarity;

    const ROWS: u32 = 2048;

    #[test]
    fn victim_state_created_lazily_with_cells() {
        let p = DimmProfile::default_eval();
        let mut b = BankState::new(ROWS, 4, 2);
        assert!(b.victims.is_empty());
        let v = b.victim_mut(&p, 0, RankSide::A, 7, 4096);
        assert!(!v.cells.is_empty());
        assert_eq!(v.disturb(), 0.0);
        assert_eq!(b.victims.len(), 1);
        assert_eq!(b.victim_idx(0, 7), Some(0));
        assert_eq!(b.victim_idx(1, 7), None, "the other side is its own slot");
    }

    #[test]
    fn refresh_clears_disturbance_and_rearms() {
        let p = DimmProfile::default_eval();
        let mut b = BankState::new(ROWS, 4, 2);
        {
            let v = b.victim_mut(&p, 0, RankSide::A, 7, 4096);
            v.add(1.0, 123);
            v.next_cell = 2;
            assert_eq!(v.disturb(), 123.0);
        }
        b.refresh_row(7);
        let v = &b.victims[b.victim_idx(0, 7).unwrap() as usize];
        assert_eq!(v.disturb(), 0.0);
        assert_eq!(v.next_cell, 0);
        assert_eq!(v.next_threshold, v.cells[0].threshold);
    }

    fn cell(threshold: f64) -> WeakCell {
        WeakCell {
            byte_in_half: 0,
            bit: 0,
            threshold,
            polarity: CellPolarity::True,
        }
    }

    #[test]
    fn next_threshold_tracks_cells_through_flips_and_refreshes() {
        let mut v = VictimState::new(vec![cell(10.0), cell(20.0)]);
        assert_eq!(v.next_threshold, 10.0);
        // Below the first threshold: nothing pops.
        assert!(v.pop_crossed(9.9).is_none());
        // Crossing both, one at a time, in threshold order.
        assert_eq!(v.pop_crossed(25.0), Some(cell(10.0)));
        assert_eq!(v.next_threshold, 20.0);
        assert_eq!(v.pop_crossed(25.0), Some(cell(20.0)));
        // Every cell flipped: the threshold is ∞ and nothing more pops,
        // however large the disturbance.
        assert_eq!(v.next_threshold, f64::INFINITY);
        assert!(v.pop_crossed(f64::MAX).is_none());
        // Refresh re-arms from the cached first threshold, so the same
        // crossing is logged again.
        v.refresh();
        assert_eq!((v.next_cell, v.next_threshold), (0, 10.0));
        assert!(v.pop_crossed(9.9).is_none());
        assert_eq!(v.pop_crossed(10.0), Some(cell(10.0)), "a re-crossing");
        assert_eq!(v.next_threshold, 20.0);
    }

    #[test]
    fn victim_without_weak_cells_never_pops() {
        let mut v = VictimState::new(Vec::new());
        assert_eq!(v.next_threshold, f64::INFINITY);
        assert!(v.pop_crossed(f64::MAX).is_none());
        v.refresh();
        assert_eq!(v.next_threshold, f64::INFINITY);
        // An invulnerable DIMM's victims are this shape.
        let mut b = BankState::new(ROWS, 0, 0);
        let v = b.victim_mut(&DimmProfile::invulnerable(), 0, RankSide::B, 3, 4096);
        assert!(v.cells.is_empty());
        assert!(v.pop_crossed(f64::MAX).is_none());
    }

    #[test]
    fn victim_add_burst_matches_sequential_bitwise() {
        // The core FP-equivalence invariant: k sequential add(w, 1) calls
        // leave the exact same (base, w, n) as one add(w, k), across weight
        // changes (RowPress) and refreshes.
        let regimes = [(1.0f64, 7u64), (1.2, 3), (1.2, 5), (0.2, 11), (1.0, 1)];
        let mut seq = VictimState::new(Vec::new());
        let mut burst = seq.clone();
        for &(w, k) in &regimes {
            for _ in 0..k {
                seq.add(w, 1);
            }
            let (base, n_before) = burst.add(w, k);
            assert_eq!(base.to_bits(), burst.seg.base.to_bits());
            assert_eq!(burst.seg.n, n_before + k);
            assert!(seq.seg.same_bits(&burst.seg));
            assert_eq!(seq.disturb().to_bits(), burst.disturb().to_bits());
        }
    }

    #[test]
    fn passes_to_cross_is_the_first_pass_the_fold_crosses_on() {
        // Thresholds at, just below and just above the exact value of some
        // pass: with fractional weights and a folded base the closed-form
        // estimate lands one pass early or late on several of them, and
        // the walk must end on the pass a pass-by-pass check reaches first.
        for (base, w, n) in [(0.0, 1.0, 0), (3.7, 0.2, 11), (0.1, 1.3, 5), (12.5, 0.7, 0)] {
            for per_pass in [1, 3, 7] {
                let val = |p: u64| base + w * ((n + per_pass * p) as f64);
                for at in [1, 5, 37].map(val) {
                    for threshold in [at.next_down(), at, at.next_up()] {
                        let seg = Segment { base, w, n };
                        let first = (1..).find(|&p| val(p) >= threshold).unwrap();
                        assert_eq!(
                            passes_to_cross(seg, per_pass, threshold),
                            first,
                            "{seg:?} + {per_pass}/pass to {threshold}"
                        );
                    }
                }
            }
        }
        // No weak cell left: the deadline is the cap, never a wrap.
        let seg = Segment {
            base: 0.0,
            w: 1.0,
            n: 9,
        };
        assert_eq!(passes_to_cross(seg, 4, f64::INFINITY), MAX_HELD_PASSES);
    }

    #[test]
    fn refresh_of_untouched_row_is_a_noop() {
        let mut b = BankState::new(ROWS, 4, 2);
        b.refresh_row(1000);
        b.refresh_row(ROWS - 1);
        assert!(b.victims.is_empty());
    }
}
