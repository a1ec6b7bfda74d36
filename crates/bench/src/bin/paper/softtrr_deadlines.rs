//! Regenerates the **§8.3 software-refresh deadline experiment**: a
//! SoftTRR-style 1 ms refresh daemon under generic Linux scheduling misses
//! deadlines — minimum period 1 ms, occasional gaps beyond 32 ms — leaving
//! EPT rows vulnerable; this is why Siloz uses guard rows instead.

use bench::Scale;
use rand::SeedableRng;
use siloz::defenses::{simulate_soft_refresh, SchedulerModel};
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let ticks = match scale {
        Scale::Quick => 200_000,
        Scale::Full => 2_000_000,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(83);

    println!("Software refresh (SoftTRR-like) under generic scheduling (§8.3)\n");
    let generic = simulate_soft_refresh(&SchedulerModel::default(), ticks, &mut rng);
    println!("generic production kernel, {} ticks:", generic.ticks);
    println!(
        "  min period:  {:.3} ms (Linux scheduling floor: >= 1 ms)",
        generic.min_period_ms
    );
    println!("  mean period: {:.3} ms", generic.mean_period_ms);
    println!(
        "  max period:  {:.3} ms (paper observed > 32 ms)",
        generic.max_period_ms
    );
    println!(
        "  missed 1 ms deadlines: {} ({:.3}%)",
        generic.missed_deadlines,
        generic.missed_deadlines as f64 / generic.ticks as f64 * 100.0
    );
    println!(
        "  gaps > 32 ms (over 32x a safe period): {}",
        generic.gross_misses
    );
    println!(
        "  => rows protected by software refresh were vulnerable: {}",
        generic.left_rows_vulnerable()
    );

    let tickless = SchedulerModel {
        tick_drop_prob: 0.005, // idle cores with the tick stopped
        ..SchedulerModel::default()
    };
    let t = simulate_soft_refresh(&tickless, ticks, &mut rng);
    println!("\nwith dynticks-idle cores (tick stopped more often):");
    println!(
        "  max period: {:.3} ms, gross misses: {}",
        t.max_period_ms, t.gross_misses
    );

    println!("\nConclusion (§8.3): software refresh cannot guarantee 1 ms periods on a");
    println!("generic production kernel; Siloz therefore protects EPTs with guard rows.");
    let soft = run.reg.child("soft_refresh");
    soft.counter("ticks_simulated").add(generic.ticks + t.ticks);
    soft.counter("missed_deadlines_generic")
        .add(generic.missed_deadlines);
    soft.counter("gross_misses_generic")
        .add(generic.gross_misses);
    soft.counter("gross_misses_dynticks").add(t.gross_misses);
}
