//! Deterministic parallel fan-out for experiment cells.
//!
//! Experiment drivers decompose their work into independent *cells* — one
//! (configuration, seed, workload) measurement each — and fan them out over
//! a scoped thread pool. Results are collected keyed by cell index and
//! returned in index order, so output is bit-identical to a serial loop
//! regardless of thread count or scheduling: each cell builds its own
//! hypervisor, workload generators, and RNG from the cell index alone and
//! shares no mutable state with its neighbors.

// lint:allow-file(atomics-confined) — the work-dispenser cursor below is a
// scheduling primitive, not a metric; all *measurements* go through
// telemetry handles.
use crate::cache::TraceCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::Registry;

/// The three axes every grid driver shares: how many workers the cells fan
/// out over, the [`TraceCache`] compiled cells memoise through, and the
/// registry the run's telemetry lands in.
///
/// `Run::default()` is a one-off regeneration. Keeping one `Run` alive
/// across calls makes regeneration incremental: ledgers, environments and
/// whole replay outcomes are reused, so a repeated grid re-simulates
/// nothing and only re-applies per-cell measurement noise. Output is
/// bit-identical for any worker count and any cache state.
pub struct Run {
    /// Worker threads (1 = the serial reference).
    pub threads: usize,
    /// Memoisation shared by every compiled cell of every grid run with
    /// this value.
    pub cache: Arc<TraceCache>,
    /// Telemetry sink.
    pub reg: Arc<Registry>,
}

impl Default for Run {
    /// [`default_threads`] workers, an empty cache, a fresh registry.
    fn default() -> Self {
        Self::with_threads(default_threads())
    }
}

impl Run {
    /// Exactly `threads` workers, an empty cache, a fresh registry.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            cache: Arc::default(),
            reg: Arc::default(),
        }
    }

    /// The same workers and cache, recording into the `name` child of this
    /// run's registry — how a driver gives each of its grids its own
    /// telemetry subtree.
    #[must_use]
    pub fn child(&self, name: &str) -> Self {
        Self {
            threads: self.threads,
            cache: self.cache.clone(),
            reg: self.reg.child(name),
        }
    }
}

/// Worker count used by the figure drivers: the `SILOZ_THREADS` environment
/// variable if set (minimum 1), else the machine's available parallelism.
///
/// # Panics
///
/// If `SILOZ_THREADS` is set to anything but a number: a typo must not
/// silently turn a fixed-worker determinism run into an every-core one.
#[must_use]
pub fn default_threads() -> usize {
    let var = std::env::var_os("SILOZ_THREADS");
    let var = var.as_deref().map(std::ffi::OsStr::to_string_lossy);
    threads_from_env(var.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// [`default_threads`] as a function of the variable's value.
fn threads_from_env(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)),
        Some(v) => v
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|e| format!("SILOZ_THREADS={v:?} is not a worker count: {e}")),
    }
}

/// Runs `cell(0..n)` across `threads` workers and returns the results in
/// index order, recording engine telemetry into `reg`.
///
/// `cell` must be a pure function of its index (plus shared immutable
/// captures) for the parallel result to equal the serial one; every driver
/// in this crate satisfies that by constructing fresh per-cell state. With
/// `threads <= 1` the cells run on the calling thread in index order, which
/// doubles as the serial reference for determinism tests.
///
/// Deterministic metrics (`cells_run`) merge by addition and are identical
/// for any thread count; scheduling-dependent metrics — per-cell wall time
/// (`cell_wall_ns`), cross-worker steals (`steals`, cells a worker claimed
/// beyond an even `n / threads` share), and `workers` — are registered
/// *volatile*, so [`telemetry::Snapshot::deterministic`] strips them and
/// the determinism battery passes regardless of machine or thread count.
pub fn run_cells<T, F>(n: usize, threads: usize, reg: &Registry, cell: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_cells_costed(n, threads, &[], reg, cell)
}

/// The dispatch permutation for per-cell cost estimates: indices in
/// descending-cost order (LPT — longest processing time first), ties broken
/// by index. Dispatching long cells first keeps one expensive straggler
/// from landing last and serializing the tail of a parallel run; cells are
/// pure functions of their index, so the permutation never changes results.
///
/// An empty `costs` (or one of the wrong length) means "no estimate":
/// callers get plain index order.
#[must_use]
pub fn lpt_order(n: usize, costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if costs.len() == n {
        order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    }
    order
}

/// [`run_cells`] with per-cell cost estimates: workers claim cells in
/// [`lpt_order`] rather than index order. Results still come back in index
/// order and are bit-identical to the serial loop — only wall-clock
/// balance depends on the estimates.
pub fn run_cells_costed<T, F>(
    n: usize,
    threads: usize,
    costs: &[u64],
    reg: &Registry,
    cell: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let cells_run = reg.counter("cells_run");
    let wall = reg.histo_volatile("cell_wall_ns");
    let steals = reg.counter_volatile("steals");
    reg.gauge_volatile("workers").add(threads as i64);
    let fair_share = n / threads;
    if threads == 1 {
        // The serial reference: index order, no dispatch permutation.
        return (0..n)
            .map(|idx| {
                let t0 = Instant::now();
                let out = cell(idx);
                wall.observe(t0.elapsed().as_nanos() as u64);
                cells_run.inc();
                out
            })
            .collect();
    }
    let order = lpt_order(n, costs);
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= n {
                        break;
                    }
                    let idx = order[slot];
                    let t0 = Instant::now();
                    local.push((idx, cell(idx)));
                    wall.observe(t0.elapsed().as_nanos() as u64);
                    cells_run.inc();
                }
                if local.len() > fair_share {
                    steals.add((local.len() - fair_share) as u64);
                }
                if !local.is_empty() {
                    collected
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                }
            });
        }
    });
    let mut cells = collected
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cells.sort_unstable_by_key(|&(idx, _)| idx);
    cells.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_siloz_threads_is_an_error_not_a_fallback() {
        assert!(threads_from_env(None).unwrap() >= 1);
        assert_eq!(threads_from_env(Some("7")), Ok(7));
        assert_eq!(threads_from_env(Some("0")), Ok(1), "documented clamp");
        for bad in ["", "four"] {
            let err = threads_from_env(Some(bad)).unwrap_err();
            assert!(
                err.contains("SILOZ_THREADS") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_cells(64, 8, &Registry::new(), |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let reg = Registry::new();
        assert_eq!(run_cells(33, 1, &reg, f), run_cells(33, 5, &reg, f));
    }

    #[test]
    fn zero_cells_is_empty() {
        assert_eq!(
            run_cells(0, 4, &Registry::new(), |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        assert_eq!(run_cells(2, 16, &Registry::new(), |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn lpt_order_sorts_descending_with_stable_ties() {
        assert_eq!(lpt_order(4, &[1, 9, 9, 3]), vec![1, 2, 3, 0]);
        // Missing or mismatched estimates fall back to index order.
        assert_eq!(lpt_order(3, &[]), vec![0, 1, 2]);
        assert_eq!(lpt_order(3, &[5, 1]), vec![0, 1, 2]);
        assert_eq!(lpt_order(0, &[]), Vec::<usize>::new());
    }

    #[test]
    fn costed_dispatch_matches_serial_results_bitwise() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let costs: Vec<u64> = (0..33).map(|i| (i * 7 % 13) as u64).collect();
        let reg = Registry::new();
        let serial = run_cells_costed(33, 1, &costs, &reg, f);
        let parallel = run_cells_costed(33, 5, &costs, &reg, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..33).map(f).collect::<Vec<_>>());
    }

    #[test]
    fn observed_runs_count_cells_and_mark_timing_volatile() {
        for threads in [1, 3] {
            let reg = Registry::new();
            let out = run_cells(10, threads, &reg, |i| i);
            assert_eq!(out.len(), 10);
            let snap = reg.snapshot();
            assert_eq!(
                snap.metrics["cells_run"],
                telemetry::MetricValue::Counter {
                    value: 10,
                    volatile: false
                }
            );
            let det = snap.deterministic();
            assert!(det.metrics.contains_key("cells_run"));
            assert!(!det.metrics.contains_key("cell_wall_ns"));
            assert!(!det.metrics.contains_key("steals"));
            assert!(!det.metrics.contains_key("workers"));
        }
    }
}
