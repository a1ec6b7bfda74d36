//! In-DRAM Target Row Refresh (TRR) modeling (§2.5).
//!
//! Deployed TRR implementations track a small number of frequently-activated
//! rows per bank and refresh their neighbors ahead of schedule during REF
//! commands. Because the tracker capacity is tiny, many-sided hammering
//! patterns with decoy rows (TRRespass/Blacksmith) overwhelm it: the tracked
//! set churns and true aggressors slip through. We model exactly that
//! mechanism with a Misra-Gries-style frequent-items tracker.

/// Most tracker states a [`TrrOrbit`] holds, so an orbit holds at most
/// `ORBIT_MAX_STATES × capacity` entries. A call that needs a state past
/// the last one held replays the remaining passes one by one.
const ORBIT_MAX_STATES: usize = 64;

/// How a [`TrrOrbit`] goes on after its last held state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Tail {
    /// Not known yet: later states are computed when a call needs them.
    #[default]
    Open,
    /// The pass takes `states[mu + lam - 1]` back to `states[mu]`: from
    /// `mu` on, the orbit repeats with period `lam` (`lam = 1` is a fixed
    /// point).
    Cycle { mu: usize, lam: usize },
    /// `states[from]` tracks every row of the pass, so each later pass only
    /// adds its `n` to each of its rows.
    Linear { from: usize },
}

/// The orbit of a tracker's entries under one TRR pass, memoised across
/// [`TrrTracker::observe_cycle`] calls: `states[i]` is the entries, in
/// order, after `i` passes from `states[0]`. A cycle keeps one orbit per
/// rank side for the pass it was built with, and a rebuilt cycle starts
/// new ones, so an orbit never sees a second pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrrOrbit {
    /// Capacity of the tracker the orbit was built on: part of the key, as
    /// a pass moves the same entries differently under another capacity.
    capacity: usize,
    /// The held states back to back; state `i` ends at `ends[i]`.
    entries: Vec<(u32, u64)>,
    ends: Vec<usize>,
    tail: Tail,
}

impl TrrOrbit {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn state(&self, i: usize) -> &[(u32, u64)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.entries[start..self.ends[i]]
    }

    /// Whether the orbit starts at `tracker`'s entries, order included.
    pub(crate) fn starts_at(&self, tracker: &TrrTracker) -> bool {
        self.capacity == tracker.capacity && self.len() > 0 && self.state(0) == tracker.entries
    }

    /// Restarts the orbit at `tracker`'s entries.
    fn reset(&mut self, tracker: &TrrTracker, pass: &[(u32, u64)]) {
        self.capacity = tracker.capacity;
        self.entries.clear();
        self.ends.clear();
        self.tail = Tail::Open;
        self.push(&tracker.entries, pass);
    }

    /// Records `state`, one pass after the last held state, and finds the
    /// tail if it starts here. State `h` is compared with state `h − 1`,
    /// so a fixed point ends the orbit where a per-pass loop would stop,
    /// and with state `2^⌊log2 h⌋ − 1` (Brent's cycle test), which finds a
    /// longer cycle within a few periods of entering it: at most two
    /// comparisons per pass.
    fn push(&mut self, state: &[(u32, u64)], pass: &[(u32, u64)]) {
        let h = self.len();
        if h > 0 {
            let probes = [h - 1, (1 << h.ilog2()) - 1];
            if let Some(mu) = probes.into_iter().find(|&i| state == self.state(i)) {
                self.tail = Tail::Cycle { mu, lam: h - mu };
                return;
            }
        }
        self.entries.extend_from_slice(state);
        self.ends.push(self.entries.len());
        if tracks_all(state, pass) {
            self.tail = Tail::Linear { from: h };
        }
    }
}

/// Whether `entries` track every row of `pass`.
fn tracks_all(entries: &[(u32, u64)], pass: &[(u32, u64)]) -> bool {
    pass.iter().all(|p| entries.iter().any(|e| e.0 == p.0))
}

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

    /// Replays `reps` passes of `pass` — each `(row, n)` one
    /// [`TrrTracker::observe_n`], in order — with state identical to
    /// issuing them one by one.
    ///
    /// The passes are read from `orbit`, which must have been used with
    /// this pass only. A call that starts at the orbit's first state (the
    /// same capacity and the same entries, order included) reads its
    /// result there; any other call restarts the orbit at the current
    /// entries. An open orbit is extended only by the passes the call
    /// needs. Past its tail no pass runs at all: a cycle `(mu, lam)` gives
    /// `states[mu + (reps − mu) mod lam]`, and a linear tail adds
    /// `(reps − from) × n` per row to `states[from]`. Between two REF
    /// steps a campaign's tracker mostly starts where it started in the
    /// last interval, and Misra-Gries churn under a many-sided pattern
    /// settles into a fixed point or a short cycle within a few passes,
    /// so an interval's replay is usually one comparison and one copy.
    pub(crate) fn observe_cycle(&mut self, pass: &[(u32, u64)], reps: u64, orbit: &mut TrrOrbit) {
        if self.capacity == 0 || reps == 0 {
            return;
        }
        if !orbit.starts_at(self) {
            orbit.reset(self, pass);
        }
        let extends = |orbit: &TrrOrbit| {
            orbit.tail == Tail::Open && orbit.len() as u64 <= reps && orbit.len() < ORBIT_MAX_STATES
        };
        if extends(orbit) && orbit.len() > 1 {
            self.entries.clear();
            self.entries.extend_from_slice(orbit.state(orbit.len() - 1));
        }
        while extends(orbit) {
            self.replay(pass);
            orbit.push(&self.entries, pass);
        }
        let last = orbit.len() - 1;
        let (at, passes_left) = match orbit.tail {
            _ if reps <= last as u64 => (reps as usize, 0),
            Tail::Cycle { mu, lam } => (mu + ((reps - mu as u64) % lam as u64) as usize, 0),
            Tail::Linear { from } => (from, reps - from as u64),
            Tail::Open => (last, reps - last as u64),
        };
        self.entries.clear();
        self.entries.extend_from_slice(orbit.state(at));
        // Past a linear tail's start the first check adds every pass at
        // once; past an open orbit's last held state the passes replay.
        for left in (1..=passes_left).rev() {
            if tracks_all(&self.entries, pass) {
                self.add_passes(pass, left);
                return;
            }
            self.replay(pass);
        }
    }

    /// One pass: each `(row, n)` of `pass` one [`TrrTracker::observe_n`].
    fn replay(&mut self, pass: &[(u32, u64)]) {
        for &(row, n) in pass {
            self.observe_n(row, n);
        }
    }

    /// `passes` passes of `pass` when every row of it is tracked: each only
    /// adds `passes × n` to its row's count.
    fn add_passes(&mut self, pass: &[(u32, u64)], passes: u64) {
        for &(row, n) in pass {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == row) {
                e.1 += passes * n;
            }
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
    use proptest::prelude::*;

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

    /// One call of an orbit test: `reps` passes, then a REF, then an
    /// optional burst of one row outside the pass (a siege between two
    /// intervals, which moves the next call's start state).
    type Round = (u64, Option<(u32, u64)>);

    /// Drives `observe_cycle` on one orbit and `reps` passes of `observe_n`
    /// through the same rounds, comparing the entries, order included,
    /// after every step. Returns how many calls started at the orbit's
    /// first state and the tail after each call.
    fn cycle_matches_passes(
        (capacity, served): (usize, usize),
        pass: &[(u32, u64)],
        rounds: &[Round],
    ) -> (usize, Vec<Tail>) {
        let mut folded = TrrTracker::new(capacity, served);
        let mut passes = folded.clone();
        let mut orbit = TrrOrbit::default();
        let mut hits = 0;
        let mut tails = Vec::new();
        for &(reps, siege) in rounds {
            hits += usize::from(reps > 0 && orbit.starts_at(&folded));
            folded.observe_cycle(pass, reps, &mut orbit);
            for _ in 0..reps {
                for &(row, n) in pass {
                    passes.observe_n(row, n);
                }
            }
            assert_eq!(folded.entries(), passes.entries(), "after {reps} passes");
            tails.push(orbit.tail);
            assert_eq!(served_at_ref(&mut folded), served_at_ref(&mut passes));
            if let Some((row, n)) = siege {
                folded.observe_n(row, n);
                passes.observe_n(row, n);
            }
        }
        (hits, tails)
    }

    fn rounds_strategy() -> impl Strategy<Value = Vec<Round>> {
        let round = (0u64..=200, any::<bool>(), 64u32..72, 1u64..5);
        let round = round.prop_map(|(reps, siege, row, n)| (reps, siege.then_some((row, n))));
        prop::collection::vec(round, 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// At most `capacity` distinct rows and no siege: every row stays
        /// tracked once seen, so the orbit ends in a linear tail.
        #[test]
        fn observe_cycle_equals_passes_when_counts_grow(
            capacity in 1usize..=6,
            pass in prop::collection::vec((0u32..64, 1u64..5), 1..12),
            reps in prop::collection::vec(0u64..=200, 1..8),
        ) {
            let pass: Vec<(u32, u64)> =
                pass.iter().map(|&(row, n)| (row % capacity as u32, n)).collect();
            let rounds: Vec<Round> = reps.iter().map(|&r| (r, None)).collect();
            let (_, tails) = cycle_matches_passes((capacity, 2), &pass, &rounds);
            let linear = |t: &Tail| matches!(t, Tail::Linear { .. });
            prop_assert!(reps.iter().zip(&tails).all(|(&r, t)| r < 2 || linear(t)));
        }

        /// More distinct rows than slots: Misra-Gries churn, decrements,
        /// replacements, the post-REF zero-count slots, and sieges that
        /// give the next call a fresh start state. One orbit serves every
        /// call, so recurring start states read the orbit, with `reps` past
        /// its cycle, inside it and past the held states.
        #[test]
        fn observe_cycle_replays_one_orbit_across_refs(
            capacity in 1usize..=6,
            served in 0usize..3,
            pass in prop::collection::vec((0u32..64, 1u64..5), 2..16),
            rounds in rounds_strategy(),
        ) {
            let span = capacity as u32 + 1 + pass.len() as u32 % 4;
            let mut pass: Vec<(u32, u64)> =
                pass.iter().map(|&(row, n)| (row % span, n)).collect();
            // At least capacity + 1 distinct rows, so the tracker overflows.
            for (i, p) in pass.iter_mut().take(capacity + 1).enumerate() {
                p.0 = i as u32;
            }
            cycle_matches_passes((capacity, served), &pass, &rounds);
        }
    }

    /// Each tail, reached and read across REFs: a fixed point, cycles of
    /// period 2 and 3, a linear tail, and an orbit still open at
    /// `ORBIT_MAX_STATES` (one row outgrows the churn of the others).
    #[test]
    fn orbit_reaches_every_tail() {
        let rounds: Vec<Round> = [5, 5, 200, 1, 2, 3, 64, 65, 0, 7, 7, 199]
            .iter()
            .enumerate()
            .map(|(i, &reps)| (reps, (i == 9).then_some((70, 3))))
            .collect();
        let cases = [
            (1, vec![(1, 1), (2, 1)], Tail::Cycle { mu: 1, lam: 1 }),
            (
                1,
                vec![(6, 2), (0, 2), (4, 2)],
                Tail::Cycle { mu: 1, lam: 2 },
            ),
            (
                2,
                vec![(6, 2), (0, 2), (4, 4), (7, 2)],
                Tail::Cycle { mu: 3, lam: 3 },
            ),
            (2, vec![(1, 1), (2, 3)], Tail::Linear { from: 1 }),
            (2, vec![(1, 5), (2, 1), (3, 1)], Tail::Open),
        ];
        for (capacity, pass, tail) in cases {
            let (hits, tails) = cycle_matches_passes((capacity, 2), &pass, &rounds);
            assert!(tails.contains(&tail), "{tails:?} lacks {tail:?}: {pass:?}");
            assert!(hits > 0, "no call read the orbit: {pass:?}");
        }
        let open = [(1, 5), (2, 1), (3, 1)];
        let (_, tails) = cycle_matches_passes((2, 0), &open, &[(200, None), (150, None)]);
        assert_eq!(tails, [Tail::Open; 2]);
        let mut orbit = TrrOrbit::default();
        TrrTracker::new(2, 0).observe_cycle(&open, 200, &mut orbit);
        assert_eq!(
            orbit.len(),
            ORBIT_MAX_STATES,
            "the orbit holds at most the cap"
        );
    }

    /// The same entries under another capacity are another start state: a
    /// full tracker decrements where one with room inserts.
    #[test]
    fn orbit_is_keyed_by_capacity() {
        let pass = [(3, 1)];
        let mut orbit = TrrOrbit::default();
        let mut expected = Vec::new();
        for capacity in [4, 2, 4] {
            let mut t = TrrTracker::new(capacity, 2);
            t.observe_n(1, 5);
            t.observe_n(2, 5);
            let mut reference = t.clone();
            t.observe_cycle(&pass, 3, &mut orbit);
            for _ in 0..3 {
                reference.observe_n(3, 1);
            }
            assert_eq!(t.entries(), reference.entries(), "capacity {capacity}");
            expected.push(reference.entries().to_vec());
        }
        assert_ne!(expected[0], expected[1], "the capacities disagree");
    }

    #[test]
    fn disabled_tracker_does_nothing() {
        let mut t = TrrTracker::disabled();
        t.observe(1);
        assert!(served_at_ref(&mut t).is_empty());
        assert!(t.entries().is_empty());
    }
}
