//! Regenerates the **§3 guard-row overhead analysis**: ZebRAM-style
//! whole-memory guard rows cost ≥50% of DRAM (80% at the 4 guards modern
//! DIMMs need), while Siloz's EPT-only reservation costs ≈0.024% per bank.

use bench::Scale;
use dram_addr::SystemAddressDecoder;
use siloz::defenses::{guard_row_overhead, guard_rows_needed};
use siloz::ept_guard::EptGuardPlan;
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let decoder = SystemAddressDecoder::new(config.geometry, config.decoder).expect("decoder");
    let g = decoder.geometry();

    println!("Guard-row DRAM overhead comparison (§3 vs §5.4)\n");
    println!("{:<44} {:>12}", "scheme", "DRAM cost");
    for guards in [1u32, 2, 4] {
        println!(
            "{:<44} {:>11.1}%",
            format!("ZebRAM-like, {guards} guard row(s) per normal row"),
            guard_row_overhead(guards) * 100.0
        );
    }
    let (b, o) = match config.ept_protection {
        siloz::EptProtection::GuardRows { b, o } => (b, o),
        _ => (32, 12),
    };
    let plan = EptGuardPlan::compute(&decoder, b, o, |_| 0).expect("plan");
    println!(
        "{:<44} {:>11.4}%",
        format!("Siloz EPT guard block (b={b}, o={o})"),
        plan.reserved_fraction(g) * 100.0
    );

    let bank_rows = g.rows_per_bank as u64;
    println!("\nProtecting 1 GiB of arbitrary data (one bank, {bank_rows} rows):");
    for guards in [1u32, 4] {
        println!(
            "  ZebRAM-like @ {guards}:1 -> {} extra rows ({:.0}% of the bank)",
            guard_rows_needed(bank_rows / (guards as u64 + 1), guards),
            guard_row_overhead(guards) * 100.0
        );
    }
    println!(
        "  Siloz (EPTs only)  -> {} rows per bank ({:.4}%), everything else usable",
        b,
        plan.reserved_fraction(g) * 100.0
    );
    println!(
        "\nSiloz leaves ~{:.1}%-100% of DRAM usable as normal rows (§3) — here: {:.4}% reserved.",
        98.5,
        plan.reserved_fraction(g) * 100.0
    );
    let guard = run.reg.child("ept_guard");
    guard.counter("reserved_rows_per_bank").add(u64::from(b));
    guard
        .counter("sockets_planned")
        .add(plan.sockets.len() as u64);
    guard
        .counter("guard_frames_per_socket")
        .add(plan.sockets[0].guard_frames.len() as u64);
}
