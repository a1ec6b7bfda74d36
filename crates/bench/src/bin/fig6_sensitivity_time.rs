//! Regenerates **Figure 6**: Siloz-1024-normalized execution time when the
//! presumed subarray size varies (Siloz-512 / Siloz-1024 / Siloz-2048,
//! §7.4). Expected shape: no trend — subarray size affects neither DDR
//! timings nor bank-level parallelism, so differences are noise.
//!
//! Usage: `cargo run --release -p bench --bin fig6_sensitivity_time [--quick]`

use bench::{bar, emit_telemetry, print_comparison_table, Scale};

fn main() {
    let scale = Scale::from_args();
    let config = scale.config();
    let (small, nominal, large) = sim::experiments::sensitivity_sizes(&config);
    println!("Sensitivity sizes: {small} / {nominal} (reference) / {large} rows per subarray");
    let run = sim::Run::default();
    let results = sim::figure6(&config, &scale.sim(), &run).expect("figure 6");
    for (variant, rows) in &results {
        print_comparison_table(
            &format!("Figure 6: {variant} execution time, normalized to Siloz-{nominal}"),
            "ms",
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
    emit_telemetry("fig6_sensitivity_time", &run.reg);
}
