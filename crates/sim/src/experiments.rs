//! Drivers regenerating the paper's performance figures (Figs. 4-7).
//!
//! Measurements fan out over the parallel [`engine`](crate::engine): each
//! (seed, workload, reference-or-candidate) cell is an independent
//! simulation, and results are aggregated keyed by cell index so the figure
//! output is bit-identical to the serial loop for any thread count.

use crate::engine::{run_cells_costed, Run};
use crate::run::{workload_cell, Arm, CellWorkload, Replay, RunSeeds, SimConfig};
use crate::stats::{geomean, overhead_pct_higher_better, overhead_pct_lower_better, Summary};
use siloz::{HypervisorKind, SilozConfig, SilozError};
use workloads::{
    exec_time_suite, exec_time_workload, throughput_suite, throughput_workload, Metric, WorkloadGen,
};

/// One figure row: a workload measured under a reference and a candidate
/// configuration, with the paired per-seed overhead distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload label (matches the paper's x-axis).
    pub workload: String,
    /// Metric kind.
    pub metric: Metric,
    /// Reference samples (baseline hypervisor, or Siloz-1024 for
    /// sensitivity figures).
    pub reference: Summary,
    /// Candidate samples (Siloz, or a sensitivity variant).
    pub candidate: Summary,
    /// Per-seed paired overheads, percent (positive = candidate slower).
    pub overheads_pct: Summary,
}

impl Comparison {
    /// Mean overhead percent.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        self.overheads_pct.mean
    }

    /// 95% CI half-width of the overhead, percent.
    #[must_use]
    pub fn ci95_pct(&self) -> f64 {
        self.overheads_pct.ci95
    }
}

pub(crate) type SuiteFactory = fn(u64) -> Vec<Box<dyn WorkloadGen>>;

/// Builds only the `i`-th workload of a suite. Measurement cells use this
/// instead of [`SuiteFactory`]: building the full roster is working-set-sized
/// substrate work (KV preloads, sort inputs), and each cell needs one entry.
pub(crate) type NthFactory = fn(usize, u64) -> Box<dyn WorkloadGen>;

/// The Fig. 4 execution-time roster: whole, and one entry at a time.
pub(crate) const EXEC_TIME: (SuiteFactory, NthFactory) = (exec_time_suite, exec_time_workload);
/// The Fig. 5 throughput roster.
const THROUGHPUT: (SuiteFactory, NthFactory) = (throughput_suite, throughput_workload);

/// Measures one suite under the `reference` arm vs the `candidate` arm,
/// paired per seed, plus a geomean row.
///
/// Reference and candidate cells of one seed share their *trace* seed:
/// common random numbers pair the comparison op for op, and the trace
/// compiler builds each `(workload, seed)` ledger once for both arms.
/// Their *noise* seeds differ (keyed by the candidate configuration), so
/// measurement noise stays independent per arm as real runs would be.
pub(crate) fn compare_suite(
    (suite, nth): (SuiteFactory, NthFactory),
    reference: Arm<'_>,
    candidate: Arm<'_>,
    sim: &SimConfig,
    replay: Replay<'_>,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    let roster = suite(sim.working_set);
    let names: Vec<(String, Metric)> = roster.iter().map(|w| (w.name(), w.metric())).collect();
    let hints: Vec<u64> = roster.iter().map(|w| w.cost_hint()).collect();
    let working_sets: Vec<u64> = roster.iter().map(|w| w.working_set()).collect();
    drop(roster);
    let n = names.len();
    // One cell per (seed, workload, reference-or-candidate) measurement,
    // seed-major so cell index order equals the serial loop's execution
    // order. Each cell builds a fresh instance of exactly the workload it
    // measures (generators are stateful) and shares nothing mutable, so
    // results are reproduced bit-identically for any thread count; cost
    // hints only reorder the parallel dispatch (LPT).
    let cells = sim.repeats as usize * n * 2;
    let costs: Vec<u64> = (0..cells).map(|idx| hints[(idx / 2) % n]).collect();
    let engine_reg = run.reg.child("engine");
    let results = run_cells_costed(cells, run.threads, &costs, &engine_reg, |idx| {
        let seed = (idx / (n * 2)) as u64;
        let i = (idx / 2) % n;
        let candidate_run = idx % 2 == 1;
        // Deferred build: a compiled cell whose ledger is already cached
        // never constructs (or preloads) the workload at all.
        let workload = CellWorkload::Deferred {
            name: names[i].0.clone(),
            working_set: working_sets[i],
            metric: names[i].1,
            build: Box::new(move || nth(i, sim.working_set)),
        };
        let (arm, seeds) = if candidate_run {
            (
                candidate,
                RunSeeds {
                    trace: seed,
                    // Different noise stream for the candidate run — keyed
                    // by the candidate configuration too, so distinct
                    // sensitivity variants get independent nuisance
                    // factors, as real measurements would.
                    noise: seed ^ 0x5a5a_0000 ^ (candidate.0.presumed_subarray_rows as u64) << 32,
                },
            )
        } else {
            (reference, RunSeeds::uniform(seed))
        };
        workload_cell(arm, workload, sim, seeds, replay, &run.reg)
    });
    let mut ref_samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cand_samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    // Surface errors in cell-index (= serial execution) order, so the first
    // error reported matches what the serial loop would have returned.
    for (idx, result) in results.into_iter().enumerate() {
        let i = (idx / 2) % n;
        let sample = result?;
        if idx % 2 == 1 {
            cand_samples[i].push(sample);
        } else {
            ref_samples[i].push(sample);
        }
    }
    let overhead = |metric: Metric, r: f64, c: f64| match metric {
        Metric::ExecTime => overhead_pct_lower_better(r, c),
        Metric::Throughput => overhead_pct_higher_better(r, c),
    };
    let mut out = Vec::with_capacity(n + 1);
    for i in 0..n {
        let (name, metric) = names[i].clone();
        let overheads: Vec<f64> = ref_samples[i]
            .iter()
            .zip(&cand_samples[i])
            .map(|(&r, &c)| overhead(metric, r, c))
            .collect();
        out.push(Comparison {
            workload: name,
            metric,
            reference: Summary::of(&ref_samples[i]),
            candidate: Summary::of(&cand_samples[i]),
            overheads_pct: Summary::of(&overheads),
        });
    }
    // Geomean row: per-seed geometric means across workloads.
    let metric = names[0].1;
    let per_seed_ref: Vec<f64> = (0..sim.repeats as usize)
        .map(|s| geomean(&ref_samples.iter().map(|v| v[s]).collect::<Vec<_>>()))
        .collect();
    let per_seed_cand: Vec<f64> = (0..sim.repeats as usize)
        .map(|s| geomean(&cand_samples.iter().map(|v| v[s]).collect::<Vec<_>>()))
        .collect();
    let overheads: Vec<f64> = per_seed_ref
        .iter()
        .zip(&per_seed_cand)
        .map(|(&r, &c)| overhead(metric, r, c))
        .collect();
    out.push(Comparison {
        workload: "geomean".into(),
        metric,
        reference: Summary::of(&per_seed_ref),
        candidate: Summary::of(&per_seed_cand),
        overheads_pct: Summary::of(&overheads),
    });
    Ok(out)
}

/// The Fig. 4/5 comparison: `config` under the baseline hypervisor vs under
/// Siloz, no controller defense on either arm.
fn baseline_vs_siloz(
    suite: (SuiteFactory, NthFactory),
    config: &SilozConfig,
    sim: &SimConfig,
    replay: Replay<'_>,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    compare_suite(
        suite,
        (config, HypervisorKind::Baseline, None),
        (config, HypervisorKind::Siloz, None),
        sim,
        replay,
        run,
    )
}

/// Fig. 4: baseline-normalized execution time for Siloz.
pub fn figure4(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    baseline_vs_siloz(EXEC_TIME, config, sim, Replay::Compiled(&run.cache), run)
}

/// [`figure4`] through the direct (uncompiled) replay path — the
/// equivalence oracle. Output is bit-identical to [`figure4`]; wall time
/// is not, and `run.cache` is not used.
pub fn figure4_uncompiled(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    baseline_vs_siloz(EXEC_TIME, config, sim, Replay::Direct, run)
}

/// Fig. 5: baseline-normalized throughput for Siloz.
pub fn figure5(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    baseline_vs_siloz(THROUGHPUT, config, sim, Replay::Compiled(&run.cache), run)
}

/// [`figure5`] through the direct (uncompiled) replay path — the
/// equivalence oracle. Output is bit-identical to [`figure5`].
pub fn figure5_uncompiled(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<Vec<Comparison>, SilozError> {
    baseline_vs_siloz(THROUGHPUT, config, sim, Replay::Direct, run)
}

/// A sensitivity variant label and its comparisons vs Siloz-1024.
pub type SensitivityResult = Vec<(String, Vec<Comparison>)>;

/// The Fig. 6/7 comparison: Siloz at half and at double the nominal
/// presumed subarray size, each against Siloz at the nominal size. Each
/// variant records into its own `siloz_{size}` child of `run.reg`; all share
/// `run.cache`, where the reference arm's environments and replay outcomes
/// recur in every variant's grid (ledgers are config-independent).
fn sensitivity(
    suite: (SuiteFactory, NthFactory),
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<SensitivityResult, SilozError> {
    let (small, reference, large) = sensitivity_sizes(config);
    let reference_cfg = config.clone().with_presumed_subarray_rows(reference);
    let mut out = Vec::new();
    for size in [small, large] {
        let cand_cfg = config.clone().with_presumed_subarray_rows(size);
        let rows = compare_suite(
            suite,
            (&reference_cfg, HypervisorKind::Siloz, None),
            (&cand_cfg, HypervisorKind::Siloz, None),
            sim,
            Replay::Compiled(&run.cache),
            &run.child(&format!("siloz_{size}")),
        )?;
        out.push((format!("Siloz-{size}"), rows));
    }
    Ok(out)
}

/// Fig. 6: Siloz-1024-normalized execution time for Siloz-512/2048.
pub fn figure6(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<SensitivityResult, SilozError> {
    sensitivity(EXEC_TIME, config, sim, run)
}

/// Fig. 7: Siloz-1024-normalized throughput for Siloz-512/2048.
pub fn figure7(
    config: &SilozConfig,
    sim: &SimConfig,
    run: &Run,
) -> Result<SensitivityResult, SilozError> {
    sensitivity(THROUGHPUT, config, sim, run)
}

/// The (half, nominal, double) presumed subarray sizes for a config —
/// 512/1024/2048 on the evaluation server, scaled for mini configs.
#[must_use]
pub fn sensitivity_sizes(config: &SilozConfig) -> (u32, u32, u32) {
    let nominal = config.presumed_subarray_rows;
    (nominal / 2, nominal, nominal * 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> (SilozConfig, SimConfig) {
        let config = SilozConfig::mini();
        let sim = SimConfig {
            ops: 20_000,
            repeats: 3,
            vm_memory: 256 << 20,
            vcpus: 2,
            working_set: 8 << 20,
        };
        (config, sim)
    }

    #[test]
    fn figure4_produces_all_rows_with_small_overheads() {
        let (config, sim) = quick();
        let rows = figure4(&config, &sim, &Run::default()).unwrap();
        assert_eq!(rows.len(), 10, "9 workloads + geomean");
        assert_eq!(rows.last().unwrap().workload, "geomean");
        for row in &rows {
            assert!(
                row.overhead_pct().abs() < 8.0,
                "{} overhead {:.2}% unreasonably large",
                row.workload,
                row.overhead_pct()
            );
        }
        // The headline claim at mini scale: geomean within ±2%.
        assert!(rows.last().unwrap().overhead_pct().abs() < 2.0);
    }

    #[test]
    fn parallel_figure_output_is_bit_identical_to_serial() {
        // The engine's core guarantee: fanning cells out over threads
        // reproduces the serial figure byte for byte, including noise
        // streams and summary statistics.
        let config = SilozConfig::mini();
        let sim = SimConfig::quick();
        let serial = figure4(&config, &sim, &Run::with_threads(1)).unwrap();
        let parallel = figure4(&config, &sim, &Run::with_threads(4)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn compiled_figures_match_the_uncompiled_oracle() {
        // The tentpole guarantee: the trace compiler changes wall time
        // only. Every sample, summary, and overhead of the figure output
        // must be bitwise equal to the direct-replay oracle.
        let (config, sim) = quick();
        let compiled = figure4(&config, &sim, &Run::default()).unwrap();
        let direct = figure4_uncompiled(&config, &sim, &Run::default()).unwrap();
        assert_eq!(compiled, direct);
    }

    #[test]
    fn figure6_has_two_variants() {
        let (config, sim) = quick();
        let res = figure6(&config, &sim, &Run::default()).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].0, "Siloz-128");
        assert_eq!(res[1].0, "Siloz-512");
        for (_, rows) in &res {
            assert_eq!(rows.last().unwrap().workload, "geomean");
            assert!(rows.last().unwrap().overhead_pct().abs() < 2.0);
        }
    }
}
