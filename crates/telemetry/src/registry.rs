//! Hierarchical metric registries and their pure-data snapshots.
//!
//! A [`Registry`] is a named bag of metrics plus child registries, mirroring
//! the component tree of the simulator (`figure4` → `ctrl` → `tlb`, …).
//! Registration takes a lock; the returned `Arc` handles mutate lock-free,
//! so components register once and record on the hot path without
//! contention. [`Snapshot`] captures the tree as plain data: it merges by
//! addition (commutative + associative — the determinism battery's
//! foundation) and strips volatile metrics via
//! [`Snapshot::deterministic`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histo, HistoSnapshot};

/// A registered metric handle plus its volatility flag.
#[derive(Debug, Clone)]
enum Metric {
    Counter {
        handle: Arc<Counter>,
        volatile: bool,
    },
    Gauge {
        handle: Arc<Gauge>,
        volatile: bool,
    },
    Histo {
        handle: Arc<Histo>,
        volatile: bool,
    },
}

/// A named, nestable group of metrics.
///
/// Cheap to create (callers that do not read a run's telemetry pass a
/// throwaway) and `Sync`, so experiment cells running on any number of worker threads can
/// export into one shared registry.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    children: Mutex<BTreeMap<String, Arc<Registry>>>,
}

/// Locks a mutex, recovering the guard if a panicking test poisoned it
/// (metric state stays internally consistent under plain additions).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// Creates an empty root registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the child registry `name`, creating it on first use.
    #[must_use]
    pub fn child(&self, name: &str) -> Arc<Registry> {
        Arc::clone(
            lock(&self.children)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Registry::new())),
        )
    }

    fn register(&self, name: &str, volatile: bool, make: fn(bool) -> Metric) -> Metric {
        let mut metrics = lock(&self.metrics);
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| make(volatile));
        entry.clone()
    }

    fn counter_impl(&self, name: &str, volatile: bool) -> Arc<Counter> {
        let make: fn(bool) -> Metric = |volatile| Metric::Counter {
            handle: Arc::new(Counter::default()),
            volatile,
        };
        match self.register(name, volatile, make) {
            Metric::Counter { handle, .. } => handle,
            _ => panic!("telemetry metric {name:?} already registered with a different type"),
        }
    }

    fn gauge_impl(&self, name: &str, volatile: bool) -> Arc<Gauge> {
        let make: fn(bool) -> Metric = |volatile| Metric::Gauge {
            handle: Arc::new(Gauge::default()),
            volatile,
        };
        match self.register(name, volatile, make) {
            Metric::Gauge { handle, .. } => handle,
            _ => panic!("telemetry metric {name:?} already registered with a different type"),
        }
    }

    fn histo_impl(&self, name: &str, volatile: bool) -> Arc<Histo> {
        let make: fn(bool) -> Metric = |volatile| Metric::Histo {
            handle: Arc::new(Histo::default()),
            volatile,
        };
        match self.register(name, volatile, make) {
            Metric::Histo { handle, .. } => handle,
            _ => panic!("telemetry metric {name:?} already registered with a different type"),
        }
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_impl(name, false)
    }

    /// Like [`Registry::counter`], but marked volatile: excluded from
    /// [`Snapshot::deterministic`]. Use for thread- or wall-clock-dependent
    /// counts (e.g. work steals).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter_volatile(&self, name: &str) -> Arc<Counter> {
        self.counter_impl(name, true)
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_impl(name, false)
    }

    /// Like [`Registry::gauge`], but marked volatile (see
    /// [`Registry::counter_volatile`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge_volatile(&self, name: &str) -> Arc<Gauge> {
        self.gauge_impl(name, true)
    }

    /// Returns the histogram `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn histo(&self, name: &str) -> Arc<Histo> {
        self.histo_impl(name, false)
    }

    /// Like [`Registry::histo`], but marked volatile (see
    /// [`Registry::counter_volatile`]). Use for wall-clock distributions.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn histo_volatile(&self, name: &str) -> Arc<Histo> {
        self.histo_impl(name, true)
    }

    /// Captures the registry tree as pure data.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = lock(&self.metrics)
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter { handle, volatile } => MetricValue::Counter {
                        value: handle.get(),
                        volatile: *volatile,
                    },
                    Metric::Gauge { handle, volatile } => MetricValue::Gauge {
                        value: handle.get(),
                        volatile: *volatile,
                    },
                    Metric::Histo { handle, volatile } => MetricValue::Histo {
                        value: Box::new(handle.snapshot()),
                        volatile: *volatile,
                    },
                };
                (name.clone(), value)
            })
            .collect();
        let children = lock(&self.children)
            .iter()
            .map(|(name, child)| (name.clone(), child.snapshot()))
            .collect();
        Snapshot { metrics, children }
    }

    /// Replays a captured [`Snapshot`] into this registry, additively:
    /// every metric in the snapshot is registered here on first sight
    /// (keeping the snapshot's volatility flag) and its captured value is
    /// added on top of whatever this registry already holds. The inverse
    /// of [`Registry::snapshot`] up to addition — a cluster driver uses it
    /// to roll many per-host registries into one aggregate child.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot metric name is already registered here as a
    /// different metric type.
    pub fn absorb(&self, snap: &Snapshot) {
        for (name, value) in &snap.metrics {
            match value {
                MetricValue::Counter { value, volatile } => {
                    self.counter_impl(name, *volatile).add(*value);
                }
                MetricValue::Gauge { value, volatile } => {
                    self.gauge_impl(name, *volatile).add(*value);
                }
                MetricValue::Histo { value, volatile } => {
                    self.histo_impl(name, *volatile).merge_from(value);
                }
            }
        }
        for (name, child) in &snap.children {
            self.child(name).absorb(child);
        }
    }
}

/// A captured metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Captured [`Counter`].
    Counter {
        /// Count at capture time.
        value: u64,
        /// Excluded from [`Snapshot::deterministic`] when set.
        volatile: bool,
    },
    /// Captured [`Gauge`].
    Gauge {
        /// Level at capture time.
        value: i64,
        /// Excluded from [`Snapshot::deterministic`] when set.
        volatile: bool,
    },
    /// Captured [`Histo`]. Boxed: the fixed bucket array dwarfs the scalar
    /// variants.
    Histo {
        /// Buckets at capture time.
        value: Box<HistoSnapshot>,
        /// Excluded from [`Snapshot::deterministic`] when set.
        volatile: bool,
    },
}

impl MetricValue {
    /// Whether this metric is excluded from deterministic comparison.
    #[must_use]
    pub fn is_volatile(&self) -> bool {
        match self {
            MetricValue::Counter { volatile, .. }
            | MetricValue::Gauge { volatile, .. }
            | MetricValue::Histo { volatile, .. } => *volatile,
        }
    }

    /// Adds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two values are different metric types (a snapshot
    /// schema mismatch, which the golden fixture test prevents).
    pub fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter { value: a, .. }, MetricValue::Counter { value: b, .. }) => {
                *a = a.wrapping_add(*b);
            }
            (MetricValue::Gauge { value: a, .. }, MetricValue::Gauge { value: b, .. }) => {
                *a = a.wrapping_add(*b);
            }
            (MetricValue::Histo { value: a, .. }, MetricValue::Histo { value: b, .. }) => {
                a.merge(b);
            }
            _ => panic!("telemetry merge: metric type mismatch"),
        }
    }
}

/// A pure-data capture of a [`Registry`] tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// This level's metrics, alphabetically ordered.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Child snapshots, alphabetically ordered.
    pub children: BTreeMap<String, Snapshot>,
}

impl Snapshot {
    /// Adds `other` into `self`, metric by metric and child by child.
    /// Metrics present only in one side are kept as-is; the operation is
    /// commutative and associative over snapshot multisets.
    ///
    /// # Panics
    ///
    /// Panics if a shared metric name has different types on each side.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                Some(ours) => ours.merge(theirs),
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
            }
        }
        for (name, theirs) in &other.children {
            self.children.entry(name.clone()).or_default().merge(theirs);
        }
    }

    /// A copy with every volatile metric removed, recursively. This is the
    /// view the determinism battery compares across `SILOZ_THREADS`.
    #[must_use]
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|(_, v)| !v.is_volatile())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            children: self
                .children
                .iter()
                .map(|(k, v)| (k.clone(), v.deterministic()))
                .collect(),
        }
    }

    /// Total number of metrics in the tree (diagnostics/tests).
    #[must_use]
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
            + self
                .children
                .values()
                .map(Snapshot::metric_count)
                .sum::<usize>()
    }

    /// Stable JSON rendering (see [`crate::encode::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::encode::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        reg.counter("x").add(3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.metrics["x"],
            MetricValue::Counter {
                value: 5,
                volatile: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn children_nest_and_snapshot() {
        let root = Registry::new();
        root.child("ctrl").child("tlb").counter("hits").add(7);
        let snap = root.snapshot();
        assert_eq!(
            snap.children["ctrl"].children["tlb"].metrics["hits"],
            MetricValue::Counter {
                value: 7,
                volatile: false
            }
        );
        assert_eq!(snap.metric_count(), 1);
    }

    #[test]
    fn merge_adds_and_unions() {
        let a = Registry::new();
        a.counter("n").add(1);
        a.child("c").gauge("g").add(-2);
        let b = Registry::new();
        b.counter("n").add(10);
        b.counter("only_b").add(4);
        b.child("c").gauge("g").add(5);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(
            m.metrics["n"],
            MetricValue::Counter {
                value: 11,
                volatile: false
            }
        );
        assert_eq!(
            m.metrics["only_b"],
            MetricValue::Counter {
                value: 4,
                volatile: false
            }
        );
        assert_eq!(
            m.children["c"].metrics["g"],
            MetricValue::Gauge {
                value: 3,
                volatile: false
            }
        );
    }

    #[test]
    fn absorb_replays_a_snapshot_additively() {
        let src = Registry::new();
        src.counter("events").add(3);
        src.counter_volatile("wall_ns").add(99);
        src.child("hv").gauge("live").add(2);
        src.child("hv").histo("lat").observe(5);
        let dst = Registry::new();
        dst.counter("events").add(1);
        dst.absorb(&src.snapshot());
        dst.absorb(&src.snapshot());
        let snap = dst.snapshot();
        assert_eq!(
            snap.metrics["events"],
            MetricValue::Counter {
                value: 7,
                volatile: false
            }
        );
        assert!(snap.metrics["wall_ns"].is_volatile());
        assert_eq!(
            snap.children["hv"].metrics["live"],
            MetricValue::Gauge {
                value: 4,
                volatile: false
            }
        );
        match &snap.children["hv"].metrics["lat"] {
            MetricValue::Histo { value, .. } => {
                assert_eq!((value.count, value.sum), (2, 10));
            }
            other => panic!("lat must stay a histogram, got {other:?}"),
        }
        // Absorbing a snapshot of `dst` into a fresh registry round-trips.
        let fresh = Registry::new();
        fresh.absorb(&snap);
        assert_eq!(fresh.snapshot(), snap);
    }

    #[test]
    fn deterministic_strips_volatile_recursively() {
        let root = Registry::new();
        root.counter("keep").inc();
        root.counter_volatile("drop").inc();
        let child = root.child("engine");
        child.histo_volatile("wall_ns").observe(123);
        child.counter("cells").inc();
        let det = root.snapshot().deterministic();
        assert!(det.metrics.contains_key("keep"));
        assert!(!det.metrics.contains_key("drop"));
        assert!(det.children["engine"].metrics.contains_key("cells"));
        assert!(!det.children["engine"].metrics.contains_key("wall_ns"));
    }
}
