//! Regenerates **Figure 5**: baseline-normalized throughput for Siloz
//! across memcached, SysBench mySQL, and Intel MLC configurations (§7.3).
//! Expected shape: every bar within ±0.5-2% of baseline.
//!
//! Usage: `cargo run --release -p bench --bin fig5_throughput [--quick]`

use bench::{bar, emit_telemetry, print_comparison_table, Scale};

fn main() {
    let scale = Scale::from_args();
    let run = sim::Run::default();
    let rows = sim::figure5(&scale.config(), &scale.sim(), &run).expect("figure 5");
    print_comparison_table(
        "Figure 5: baseline-normalized throughput (higher raw values are better)",
        "GiB/s",
        &rows,
    );
    println!("\nBaseline-normalized throughput overhead (%):");
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
    emit_telemetry("fig5_throughput", &run.reg);
}
