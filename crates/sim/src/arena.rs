//! The mitigation arena (EXPERIMENTS §9): every [`Backend`] measured
//! head-to-head on the Fig. 4 workload roster against one undefended
//! baseline.
//!
//! Each backend's grid is a `compare_suite` run — reference arm always
//! `(config, Baseline, no hook)`, candidate arm the backend's demanded
//! hypervisor kind plus its controller hook — so rows are directly
//! comparable across backends: every backend's candidate cells draw the
//! *same* traces (common random numbers) and are normalized against the
//! *same* reference samples, reused through the run's one
//! [`TraceCache`](crate::TraceCache).
//!
//! Two pins fall out of this construction and are enforced by
//! `crates/sim/tests/mitigation_equivalence.rs`:
//!
//! - the `siloz` arena row is bit-identical to [`crate::figure4`] (the
//!   trait port changes nothing);
//! - the `none` arena row's candidate cells are bit-identical to its
//!   reference cells before noise (the hook slot stays empty).

use crate::engine::Run;
use crate::experiments::{compare_suite, Comparison, EXEC_TIME};
use crate::run::{Replay, SimConfig};
use mitigation::{Backend, DomainPolicy};
use siloz::{HypervisorKind, SilozConfig, SilozError};

/// One backend's arena grid: the Fig. 4 roster (plus geomean row)
/// measured under that defense, normalized against the undefended
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRow {
    /// The defense measured in this grid.
    pub backend: Backend,
    /// Per-workload comparisons; last row is the geomean.
    pub rows: Vec<Comparison>,
}

impl ArenaRow {
    /// The grid's geomean overhead vs the undefended baseline, percent.
    #[must_use]
    pub fn geomean_overhead_pct(&self) -> f64 {
        self.rows.last().map_or(0.0, Comparison::overhead_pct)
    }
}

/// The hypervisor kind a backend's placement policy demands.
#[must_use]
pub fn hypervisor_kind_for(backend: Backend) -> HypervisorKind {
    match backend.domain_policy() {
        DomainPolicy::IsolationDomains => HypervisorKind::Siloz,
        DomainPolicy::Shared => HypervisorKind::Baseline,
    }
}

/// Runs the arena over `backends`, one `compare_suite` grid each, recording
/// each grid's telemetry into the [`Backend::name`] child of `run.reg`.
///
/// Every grid goes through `run.cache`: ledgers are defense-independent and
/// the undefended reference arm recurs in every grid, so only the defended
/// candidate cells are simulated per additional backend.
///
/// # Errors
///
/// Fails if any measurement cell fails to boot or place its VM.
pub fn arena(
    config: &SilozConfig,
    sim: &SimConfig,
    backends: &[Backend],
    run: &Run,
) -> Result<Vec<ArenaRow>, SilozError> {
    let mut out = Vec::with_capacity(backends.len());
    for &backend in backends {
        let rows = compare_suite(
            EXEC_TIME,
            (config, HypervisorKind::Baseline, None),
            (config, hypervisor_kind_for(backend), Some(backend)),
            sim,
            Replay::Compiled(&run.cache),
            &run.child(backend.name()),
        )?;
        out.push(ArenaRow { backend, rows });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SilozConfig, SimConfig) {
        let config = SilozConfig::mini();
        let sim = SimConfig {
            ops: 4_000,
            repeats: 2,
            vm_memory: 128 << 20,
            vcpus: 2,
            working_set: 8 << 20,
        };
        (config, sim)
    }

    #[test]
    fn arena_measures_every_backend() {
        let (config, sim) = tiny();
        let grids = arena(&config, &sim, &Backend::ALL, &Run::with_threads(2)).unwrap();
        assert_eq!(grids.len(), 4);
        for grid in &grids {
            assert_eq!(grid.rows.len(), 10, "9 workloads + geomean");
            assert_eq!(grid.rows.last().unwrap().workload, "geomean");
            // Benign workloads under any defense stay within a sane band —
            // no backend melts down the fast path at this scale.
            assert!(
                grid.geomean_overhead_pct().abs() < 25.0,
                "{:?} geomean overhead {:.2}%",
                grid.backend,
                grid.geomean_overhead_pct()
            );
        }
    }

    #[test]
    fn arena_is_deterministic_across_thread_counts_and_cache_state() {
        let (config, sim) = tiny();
        let backends = [Backend::None, Backend::BlockHammer];
        let serial = arena(&config, &sim, &backends, &Run::with_threads(1)).unwrap();
        let parallel = arena(&config, &sim, &backends, &Run::with_threads(4)).unwrap();
        assert_eq!(serial, parallel);
    }
}
