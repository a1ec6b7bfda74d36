//! Regenerates **Figure 7**: Siloz-1024-normalized throughput when the
//! presumed subarray size varies (§7.4). Expected shape: no trend.
//!
//! Usage: `cargo run --release -p bench --bin fig7_sensitivity_tput [--quick]`

use bench::{bar, emit_telemetry, print_comparison_table, Scale};

fn main() {
    let scale = Scale::from_args();
    let config = scale.config();
    let (small, nominal, large) = sim::experiments::sensitivity_sizes(&config);
    println!("Sensitivity sizes: {small} / {nominal} (reference) / {large} rows per subarray");
    let run = sim::Run::default();
    let results = sim::figure7(&config, &scale.sim(), &run).expect("figure 7");
    for (variant, rows) in &results {
        print_comparison_table(
            &format!("Figure 7: {variant} throughput, normalized to Siloz-{nominal}"),
            "GiB/s",
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
    emit_telemetry("fig7_sensitivity_tput", &run.reg);
}
