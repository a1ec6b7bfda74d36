//! In-DRAM Target Row Refresh (TRR) modeling (§2.5).
//!
//! Deployed TRR implementations track a small number of frequently-activated
//! rows per bank and refresh their neighbors ahead of schedule during REF
//! commands. Because the tracker capacity is tiny, many-sided hammering
//! patterns with decoy rows (TRRespass/Blacksmith) overwhelm it: the tracked
//! set churns and true aggressors slip through. We model exactly that
//! mechanism with a Misra-Gries-style frequent-items tracker.

/// A per-bank TRR tracker.
///
/// Tracks up to `capacity` candidate aggressor rows with activation
/// counters. On each REF, the most-activated candidates are "served":
/// their neighbors get refreshed, and their counters reset.
#[derive(Debug, Clone)]
pub struct TrrTracker {
    capacity: usize,
    served_per_ref: usize,
    entries: Vec<(u32, u64)>, // (internal row, activation count)
}

impl TrrTracker {
    /// Creates a tracker with `capacity` slots, serving `served_per_ref`
    /// aggressors per REF command. Deployed trackers are small; the default
    /// used across the workspace is capacity 4, serving 2.
    #[must_use]
    pub fn new(capacity: usize, served_per_ref: usize) -> Self {
        Self {
            capacity,
            served_per_ref,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// A disabled tracker (no TRR), for ablations.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0, 0)
    }

    /// Records an activation of `internal_row` (Misra-Gries update).
    pub fn observe(&mut self, internal_row: u32) {
        if self.capacity == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == internal_row) {
            e.1 += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((internal_row, 1));
            return;
        }
        // Tracker full: decrement all counters (Misra-Gries); replace any
        // that reach zero. This is the mechanism many-sided patterns abuse —
        // a stream of decoys keeps every counter near zero.
        for e in &mut self.entries {
            e.1 = e.1.saturating_sub(1);
        }
        if let Some(slot) = self.entries.iter_mut().find(|e| e.1 == 0) {
            *slot = (internal_row, 1);
        }
    }

    /// Records `n` consecutive activations of `internal_row`, with state
    /// identical to calling [`TrrTracker::observe`] `n` times.
    ///
    /// The closed form for the full-and-absent case: let `m` be the minimum
    /// tracked count and `r = max(m, 1)`. Sequential observes decrement every
    /// counter once per call until the `r`-th call frees a zero slot and
    /// inserts `(row, 1)`; the remaining `n - r` calls then increment that
    /// entry. If `n < r` no slot ever frees, so the burst only decrements.
    /// (`m` can be 0: `on_refresh` leaves served entries at count 0, and the
    /// very next observe replaces one — hence the `max(m, 1)`.)
    pub fn observe_n(&mut self, internal_row: u32, n: u64) {
        if self.capacity == 0 || n == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == internal_row) {
            e.1 += n;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((internal_row, n));
            return;
        }
        let m = self.entries.iter().map(|e| e.1).min().unwrap_or(0);
        let r = m.max(1);
        if n < r {
            for e in &mut self.entries {
                e.1 = e.1.saturating_sub(n);
            }
            return;
        }
        for e in &mut self.entries {
            e.1 = e.1.saturating_sub(r);
        }
        if let Some(slot) = self.entries.iter_mut().find(|e| e.1 == 0) {
            *slot = (internal_row, 1 + (n - r));
        }
    }

    /// Handles a REF command: fills `served` (cleared first) with the
    /// internal rows whose *neighbors* should be refreshed now (the suspected
    /// aggressors, most-activated first), resetting their counters. The
    /// caller owns the buffer so the per-REF path never allocates.
    pub fn on_refresh(&mut self, served: &mut Vec<u32>) {
        served.clear();
        if self.capacity == 0 || self.served_per_ref == 0 {
            return;
        }
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.1));
        for e in self.entries.iter_mut().take(self.served_per_ref) {
            if e.1 > 0 {
                served.push(e.0);
                e.1 = 0;
            }
        }
    }

    /// Currently-tracked `(row, count)` entries (diagnostics).
    #[must_use]
    pub fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One REF served into a buffer that arrives dirty, as the device's does.
    fn served_at_ref(t: &mut TrrTracker) -> Vec<u32> {
        let mut served = vec![u32::MAX];
        t.on_refresh(&mut served);
        served
    }

    #[test]
    fn tracks_heavy_hitters() {
        let mut t = TrrTracker::new(4, 2);
        for _ in 0..1000 {
            t.observe(10);
            t.observe(20);
        }
        t.observe(30);
        let served = served_at_ref(&mut t);
        assert!(served.contains(&10));
        assert!(served.contains(&20));
        assert_eq!(served.len(), 2);
    }

    #[test]
    fn served_counters_reset() {
        let mut t = TrrTracker::new(2, 2);
        for _ in 0..10 {
            t.observe(5);
        }
        assert_eq!(served_at_ref(&mut t), vec![5]);
        // Nothing re-observed since: nothing to serve.
        assert!(served_at_ref(&mut t).is_empty());
    }

    #[test]
    fn decoy_flood_evicts_true_aggressors() {
        // The TRRespass/Blacksmith weakness: more simultaneous aggressors
        // than tracker slots (plus decoys) keep all counters churning, so a
        // REF may serve decoys instead of the true aggressors.
        let mut t = TrrTracker::new(4, 2);
        // 12-sided pattern: each aggressor activated round-robin.
        for round in 0..5000 {
            for agg in 0..12u32 {
                t.observe(agg * 2);
            }
            let _ = round;
        }
        // Counters should all be tiny relative to the 5000 activations each
        // row actually received: the tracker has lost the magnitude.
        assert!(t.entries().iter().all(|&(_, c)| c < 100));
    }

    #[test]
    fn observe_n_replays_sequential_observes_exactly() {
        // Drive both trackers through a schedule that exercises every
        // observe_n branch: tracked-row increment, insert-with-room,
        // full-and-absent with n < r, n == r, n > r, and the post-refresh
        // zero-count-entry case (m == 0).
        let schedule: &[(u32, u64)] = &[
            (10, 3), // insert with room
            (20, 5), // insert with room
            (30, 2), // insert with room
            (40, 4), // insert with room (tracker now full)
            (10, 7), // tracked increment
            (50, 1), // full & absent, n < r (min count 2)
            (50, 2), // full & absent, n == r
            (60, 9), // full & absent, n > r
            (10, 1), // tracked increment after churn
        ];
        let mut seq = TrrTracker::new(4, 2);
        let mut burst = TrrTracker::new(4, 2);
        for &(row, n) in schedule {
            for _ in 0..n {
                seq.observe(row);
            }
            burst.observe_n(row, n);
            assert_eq!(seq.entries(), burst.entries(), "after ({row}, {n})");
        }
        // A REF leaves served entries at count 0; the next burst must still
        // match sequential semantics (the m == 0, r == 1 case).
        assert_eq!(served_at_ref(&mut seq), served_at_ref(&mut burst));
        for &(row, n) in &[(70u32, 1u64), (80, 6), (70, 2)] {
            for _ in 0..n {
                seq.observe(row);
            }
            burst.observe_n(row, n);
            assert_eq!(seq.entries(), burst.entries(), "post-REF ({row}, {n})");
        }
    }

    #[test]
    fn observe_n_degenerate_counts() {
        let mut t = TrrTracker::new(4, 2);
        t.observe_n(10, 0);
        assert!(t.entries().is_empty(), "n = 0 is a no-op");
        t.observe_n(10, 1);
        let mut one = TrrTracker::new(4, 2);
        one.observe(10);
        assert_eq!(t.entries(), one.entries(), "n = 1 equals observe()");
        let mut d = TrrTracker::disabled();
        d.observe_n(10, 100);
        assert!(d.entries().is_empty());
    }

    #[test]
    fn disabled_tracker_does_nothing() {
        let mut t = TrrTracker::disabled();
        t.observe(1);
        assert!(served_at_ref(&mut t).is_empty());
        assert!(t.entries().is_empty());
    }
}
