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

/// Disturbance state of one victim half-row.
///
/// Disturbance is stored in *segment* form, `base + w * n`: `n` activations
/// at the current per-ACT weight `w` on top of a folded `base` from earlier
/// weight regimes (RowPress changes `w` mid-window). This makes a coalesced
/// burst of `k` activations (`n += k`) produce bit-for-bit the same float as
/// `k` sequential per-ACT updates — both evaluate `base + w * n` with one
/// multiply and one add — which is what pins the burst path to the reference
/// path in the equivalence proptests.
///
/// The next flip threshold is held inline (`next_threshold`), so a burst
/// that crosses nothing reads this struct and never the `cells` heap
/// allocation.
#[derive(Debug, Clone)]
pub(crate) struct VictimState {
    /// Folded disturbance from earlier weight segments (since last refresh).
    pub base: f64,
    /// Per-activation weight of the current segment.
    pub w: f64,
    /// Activation count in the current segment.
    pub n: u64,
    /// `cells[next_cell].threshold`, or ∞ once every cell has flipped.
    next_threshold: f64,
    /// `cells[0].threshold` (∞ with no weak cells): what refresh re-arms
    /// `next_threshold` to.
    first_threshold: f64,
    /// This half-row's weak cells, sorted by flip threshold.
    cells: Vec<WeakCell>,
    /// Index of the next unflipped weak cell at the current disturbance.
    next_cell: usize,
}

impl VictimState {
    /// An undisturbed half-row with the given weak cells (sorted by
    /// threshold).
    pub(crate) fn new(cells: Vec<WeakCell>) -> Self {
        let first_threshold = cells.first().map_or(f64::INFINITY, |c| c.threshold);
        Self {
            base: 0.0,
            w: 0.0,
            n: 0,
            next_threshold: first_threshold,
            first_threshold,
            cells,
            next_cell: 0,
        }
    }

    /// Refresh: clears the disturbance accumulator and re-arms the weak
    /// cells (charge restored; already-flipped data stays flipped until
    /// rewritten or scrubbed).
    #[inline]
    pub(crate) fn refresh(&mut self) {
        self.base = 0.0;
        self.n = 0;
        self.next_cell = 0;
        self.next_threshold = self.first_threshold;
    }

    /// Accumulated weighted disturbance since this half-row's last refresh.
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

    /// The next unflipped weak cell if `disturb` has reached its threshold,
    /// advancing past it; `None` (without touching `cells`) otherwise.
    #[inline]
    pub(crate) fn pop_crossed(&mut self, disturb: f64) -> Option<WeakCell> {
        if self.next_threshold > disturb {
            return None;
        }
        let cell = self.cells[self.next_cell];
        self.next_cell += 1;
        self.next_threshold = self
            .cells
            .get(self.next_cell)
            .map_or(f64::INFINITY, |c| c.threshold);
        Some(cell)
    }
}

/// Mutable state of a single DRAM bank: victim disturbance accumulators,
/// per-side TRR trackers, and the auto-refresh pointer.
#[derive(Debug)]
pub struct BankState {
    /// Victim half-rows in first-touch order. Append-only: an index is
    /// valid for the bank's life.
    pub(crate) victims: Vec<VictimState>,
    /// Arena index + 1 per half-row at [`BankState::slot`]; 0 = never
    /// disturbed. `2 × rows_per_bank` entries.
    victim_index: Vec<u32>,
    pub(crate) trr: [TrrTracker; 2],
    /// Next internal row the distributed auto-refresh will cover.
    pub(crate) refresh_ptr: u32,
    /// Total activations this bank has seen (diagnostics).
    pub acts: u64,
}

impl BankState {
    /// Fresh bank state for a bank of `rows_per_bank` internal rows with
    /// the given TRR configuration.
    #[must_use]
    pub fn new(rows_per_bank: u32, trr_capacity: usize, trr_served_per_ref: usize) -> Self {
        Self {
            victims: Vec::new(),
            victim_index: vec![0; 2 * rows_per_bank as usize],
            trr: [
                TrrTracker::new(trr_capacity, trr_served_per_ref),
                TrrTracker::new(trr_capacity, trr_served_per_ref),
            ],
            refresh_ptr: 0,
            acts: 0,
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
    /// that was never disturbed holds no state and is a no-op.
    #[inline]
    pub(crate) fn refresh_half_row(&mut self, side: u8, internal_row: u32) {
        if let Some(idx) = self.victim_idx(side, internal_row) {
            self.victims[idx as usize].refresh();
        }
    }

    /// Refreshes both half-rows of an internal row.
    pub(crate) fn refresh_row(&mut self, internal_row: u32) {
        self.refresh_half_row(0, internal_row);
        self.refresh_half_row(1, internal_row);
    }

    /// Peak accumulated disturbance across all victims (diagnostics).
    #[must_use]
    pub fn max_disturbance(&self) -> f64 {
        self.victims
            .iter()
            .map(VictimState::disturb)
            .fold(0.0, f64::max)
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
            assert_eq!(base.to_bits(), burst.base.to_bits());
            assert_eq!(burst.n, n_before + k);
            assert_eq!(seq.base.to_bits(), burst.base.to_bits());
            assert_eq!(seq.w.to_bits(), burst.w.to_bits());
            assert_eq!(seq.n, burst.n);
            assert_eq!(seq.disturb().to_bits(), burst.disturb().to_bits());
        }
    }

    #[test]
    fn refresh_of_untouched_row_is_a_noop() {
        let mut b = BankState::new(ROWS, 4, 2);
        b.refresh_row(1000);
        b.refresh_row(ROWS - 1);
        assert!(b.victims.is_empty());
    }

    #[test]
    fn max_disturbance_tracks_peak() {
        let p = DimmProfile::default_eval();
        let mut b = BankState::new(ROWS, 0, 0);
        assert_eq!(b.max_disturbance(), 0.0);
        b.victim_mut(&p, 0, RankSide::A, 1, 4096).add(1.0, 5);
        b.victim_mut(&p, 0, RankSide::B, 2, 4096).add(1.0, 9);
        assert_eq!(b.max_disturbance(), 9.0);
    }
}
