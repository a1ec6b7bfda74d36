//! The three metric primitives: counters, gauges, log2 histograms.
//!
//! All mutation is a single `Relaxed` atomic RMW, cheap enough for the
//! memory controller's per-access path (`benchmark/`'s
//! `memctrl.replay_ns_per_op` is where a dearer one would show). Reads
//! taken after all writers have joined (the only pattern the simulator
//! uses — snapshots happen after `std::thread::scope` exits) observe exact
//! totals: relaxed atomic addition never loses increments.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically-increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An additive signed level (e.g. resident rows, pool occupancy).
///
/// Gauges merge by *summation* — like every other metric here — so that
/// per-cell exports accumulate deterministically regardless of scheduling.
/// Use them for quantities where summing across component instances is
/// meaningful; there is deliberately no `set`, which would race.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
pub const HISTO_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram.
///
/// Bucket `0` holds observations of exactly `0`; bucket `i >= 1` holds
/// observations in `[2^(i-1), 2^i)`. The scheme is value-range complete
/// (any `u64` lands in exactly one bucket) and shape-preserving for the
/// latency/occupancy distributions the simulator records, while keeping
/// merge a plain per-bucket addition.
#[derive(Debug)]
pub struct Histo {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTO_BUCKETS],
}

impl Default for Histo {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histo {
    /// The bucket index `value` falls into.
    #[must_use]
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds a pre-aggregated [`HistoSnapshot`] into this histogram — the
    /// bridge from single-owner (`&mut self`) component histograms, which
    /// record with plain arithmetic, into a shared registry at export time.
    pub fn merge_from(&self, snap: &HistoSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for (bucket, &n) in self.buckets.iter().zip(&snap.buckets) {
            if n != 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// One `count += n` RMW, exposed to [`crate::hooks`] so the model
    /// checker replays exactly the instruction [`Self::observe`] issues.
    pub(crate) fn step_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// One `sum += v` RMW (see [`Self::step_count`]).
    pub(crate) fn step_sum(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// One `buckets[i] += n` RMW (see [`Self::step_count`]).
    pub(crate) fn step_bucket(&self, i: usize, n: u64) {
        self.buckets[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Captures the current bucket contents.
    #[must_use]
    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Pure-data capture of a [`Histo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`Histo::bucket_of`]).
    pub buckets: [u64; HISTO_BUCKETS],
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HISTO_BUCKETS],
        }
    }
}

impl HistoSnapshot {
    /// Records one observation with plain (non-atomic) arithmetic. Used as
    /// a single-owner accumulator inside `&mut self` hot paths, merged into
    /// a registry [`Histo`] via [`Histo::merge_from`] at export time.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.buckets[Histo::bucket_of(value)] += 1;
    }

    /// Records `n` observations of `value` at once: the same snapshot as
    /// `n` calls of [`Self::observe`], for accumulators that count
    /// observations per value and fold them in later.
    #[inline]
    pub fn observe_n(&mut self, value: u64, n: u64) {
        self.count += n;
        self.sum += value * n;
        self.buckets[Histo::bucket_of(value)] += n;
    }

    /// Adds `other` into `self` (the commutative, associative histogram
    /// merge the registry tree is built on).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.wrapping_add(*o);
        }
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
    #[must_use]
    pub fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 1,
            64.. => u64::MAX,
            _ => 1u64 << i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_accumulate() {
        let c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::default();
        g.add(5);
        g.add(-8);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histo_buckets_partition_the_u64_range() {
        assert_eq!(Histo::bucket_of(0), 0);
        assert_eq!(Histo::bucket_of(1), 1);
        assert_eq!(Histo::bucket_of(2), 2);
        assert_eq!(Histo::bucket_of(3), 2);
        assert_eq!(Histo::bucket_of(4), 3);
        assert_eq!(Histo::bucket_of(u64::MAX), 64);
        // Every bucket's values map back into it.
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = HistoSnapshot::bucket_bound(i) - 1;
            assert_eq!(Histo::bucket_of(lo), i);
            assert_eq!(Histo::bucket_of(hi), i);
        }
    }

    #[test]
    fn histo_observe_and_mean() {
        let h = Histo::default();
        for v in [0u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 106);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[7], 1); // 100 in [64, 128)
        assert!((s.mean() - 21.2).abs() < 1e-12);
        assert_eq!(HistoSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn local_accumulator_round_trips_through_merge_from() {
        let mut local = HistoSnapshot::default();
        local.observe(0);
        local.observe(33);
        let shared = Histo::default();
        shared.observe(33);
        shared.merge_from(&local);
        let s = shared.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 66);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[6], 2);
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        let (mut folded, mut single) = (HistoSnapshot::default(), HistoSnapshot::default());
        for (value, n) in [(0u64, 3u64), (1, 1), (7, 5), (16, 2), (1 << 40, 4)] {
            folded.observe_n(value, n);
            (0..n).for_each(|_| single.observe(value));
        }
        folded.observe_n(9, 0);
        assert_eq!(folded, single);
    }

    #[test]
    fn histo_merge_adds_bucketwise() {
        let a = Histo::default();
        let b = Histo::default();
        a.observe(5);
        b.observe(5);
        b.observe(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1010);
        assert_eq!(m.buckets[3], 2);
        assert_eq!(m.buckets[10], 1);
    }
}
