//! Regenerates **Figures 4-7** (§7.2-§7.4): Siloz's baseline-normalized
//! execution time (Fig. 4: redis+YCSB A-F, terasort, SPEC-2017- and
//! PARSEC-3.0-like) and throughput (Fig. 5: memcached, SysBench mySQL,
//! Intel MLC), then both normalized to Siloz-1024 as the presumed subarray
//! size varies (Figs 6-7: Siloz-512 / Siloz-2048). Expected shape: every
//! bar within ±0.5-2% of baseline and no trend across subarray sizes, which
//! affect neither DDR timings nor bank-level parallelism.

use bench::Scale;
use siloz::{SilozConfig, SilozError};
use sim::experiments::SensitivityResult;
use sim::{Comparison, Run, SimConfig};

/// A baseline-vs-Siloz figure's simulation entry point.
type Figure = fn(&SilozConfig, &SimConfig, &Run) -> Result<Vec<Comparison>, SilozError>;
/// A subarray-size sensitivity figure's simulation entry point.
type Sensitivity = fn(&SilozConfig, &SimConfig, &Run) -> Result<SensitivityResult, SilozError>;

pub fn fig4_exec_time(scale: Scale, run: &Run) {
    overhead(
        sim::figure4,
        "Figure 4: baseline-normalized execution time (lower is better)",
        "ms",
        "execution time",
        scale,
        run,
    );
}

pub fn fig5_throughput(scale: Scale, run: &Run) {
    overhead(
        sim::figure5,
        "Figure 5: baseline-normalized throughput (higher raw values are better)",
        "GiB/s",
        "throughput",
        scale,
        run,
    );
}

pub fn fig6_sensitivity_time(scale: Scale, run: &Run) {
    sensitivity(sim::figure6, "Figure 6", "ms", "execution time", scale, run);
}

pub fn fig7_sensitivity_tput(scale: Scale, run: &Run) {
    sensitivity(sim::figure7, "Figure 7", "GiB/s", "throughput", scale, run);
}

/// Figs 4 and 5: the comparison table, a bar per workload, and the
/// geomean against the paper's ±0.5% claim.
fn overhead(figure: Figure, title: &str, unit: &str, metric: &str, scale: Scale, run: &Run) {
    let rows = figure(&scale.config(), &scale.sim(), run).expect(title);
    print_comparison_table(title, unit, &rows);
    println!("\nBaseline-normalized {metric} overhead (%):");
    for row in &rows {
        println!(
            "{:<12} {:>+7.3}% {}",
            row.workload,
            row.overhead_pct(),
            bar(row.overhead_pct(), 2.5)
        );
    }
    let geomean = rows.last().expect("geomean row");
    println!(
        "\ngeomean overhead: {:+.3}% (paper: within ±0.5%) -> {}",
        geomean.overhead_pct(),
        if geomean.overhead_pct().abs() < 0.5 {
            "MATCHES the paper's claim"
        } else {
            "outside ±0.5% (check noise/scale)"
        }
    );
}

/// Figs 6 and 7: one comparison table and geomean bar per subarray-size
/// variant, normalized to the nominal size.
fn sensitivity(figure: Sensitivity, name: &str, unit: &str, metric: &str, scale: Scale, run: &Run) {
    let config = scale.config();
    let (small, nominal, large) = sim::experiments::sensitivity_sizes(&config);
    println!("Sensitivity sizes: {small} / {nominal} (reference) / {large} rows per subarray");
    let results = figure(&config, &scale.sim(), run).expect(name);
    for (variant, rows) in &results {
        print_comparison_table(
            &format!("{name}: {variant} {metric}, normalized to Siloz-{nominal}"),
            unit,
            rows,
        );
        let geomean = rows.last().expect("geomean row");
        println!(
            "{variant} geomean overhead: {:+.3}% {}",
            geomean.overhead_pct(),
            bar(geomean.overhead_pct(), 2.5)
        );
    }
    println!("\nExpected: |geomean| < 0.5% with no trend across sizes (§7.4).");
}

/// Prints a figure's comparison rows as the paper-style table.
fn print_comparison_table(title: &str, unit: &str, rows: &[Comparison]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>10}",
        "workload",
        format!("reference ({unit})"),
        format!("candidate ({unit})"),
        "overhead %",
        "±95% CI"
    );
    for row in rows {
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>+12.3} {:>10.3}",
            row.workload,
            row.reference.mean,
            row.candidate.mean,
            row.overhead_pct(),
            row.ci95_pct(),
        );
    }
}

/// Renders a crude horizontal bar for a percentage (paper-figure flavour).
fn bar(pct: f64, scale: f64) -> String {
    let chars = (pct.abs() / scale * 20.0).round() as usize;
    let body: String = std::iter::repeat_n('#', chars.min(40)).collect();
    if pct < 0.0 {
        format!("{body:>20}|")
    } else {
        format!("{:>20}|{}", "", body)
    }
}

#[cfg(test)]
mod tests {
    use super::bar;

    #[test]
    fn bar_renders_signs() {
        assert!(bar(1.0, 1.0).ends_with('#'));
        assert!(bar(-1.0, 1.0).ends_with('|'));
        assert_eq!(bar(0.0, 1.0), format!("{:>20}|", ""));
    }
}
