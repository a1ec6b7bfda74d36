//! Regenerates **Figure 4**: baseline-normalized execution time for Siloz
//! across redis+YCSB A-F, terasort, SPEC-2017-like, and PARSEC-3.0-like
//! workloads (§7.2). Expected shape: every bar within ±0.5-2% of baseline;
//! geomean well inside the per-workload confidence intervals.
//!
//! Usage: `cargo run --release -p bench --bin fig4_exec_time [--quick]`

use bench::{bar, emit_telemetry, print_comparison_table, Scale};

fn main() {
    let scale = Scale::from_args();
    let run = sim::Run::default();
    let rows = sim::figure4(&scale.config(), &scale.sim(), &run).expect("figure 4");
    print_comparison_table(
        "Figure 4: baseline-normalized execution time (lower is better)",
        "ms",
        &rows,
    );
    println!("\nBaseline-normalized execution time overhead (%):");
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
    emit_telemetry("fig4_exec_time", &run.reg);
}
