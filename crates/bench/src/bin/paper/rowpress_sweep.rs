//! RowPress sweep (§2.5): longer aggressor-open times amplify disturbance,
//! reducing the activation count needed to flip — the phenomenon that makes
//! subarray-boundary isolation (rather than ACT-counting mitigations) the
//! robust defense. Sweeps tAggOn and reports flips at a fixed ACT budget,
//! and fails if they ever fall as tAggOn grows. Its containment column
//! cannot read NO: `dram`'s `flips_never_escape_hammered_subarrays` holds it.

use bench::Scale;
use dram::DramSystemBuilder;
use dram_addr::BankId;
use hammer::pattern::HammerPattern;
use hammer::{Blacksmith, FuzzConfig};
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let g = config.geometry;
    let periods = match scale {
        Scale::Quick => 20_000u32,
        Scale::Full => 40_000,
    };
    println!("RowPress sweep: fixed ACT budget ({periods} periods of a double-sided pair),");
    println!("increasing row-open time tAggOn. Flips vs tAggOn:\n");
    println!(
        "{:>12} {:>10} {:>24}",
        "tAggOn (ns)", "flips", "all in same subarray?"
    );
    let sub = g.rows_per_subarray;
    // All sweep points export into the same `dram` child; totals are
    // additive over the sweep.
    let dram_reg = run.reg.child("dram");
    let mut previous = 0;
    for extra_open_ns in [0u64, 500, 1_000, 2_000, 4_000, 8_000] {
        let mut dram = DramSystemBuilder::new(g).trr(0, 0).build();
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: periods,
            extra_open_ns,
        });
        // Hammer at a subarray boundary to stress containment.
        let base = sub - 4;
        let pattern = HammerPattern::double_sided(base);
        let mut acts = 0;
        fuzzer.hammer(&mut dram, BankId(0), &pattern, &mut acts);
        let flips = dram.flip_log().len();
        let contained = dram
            .flip_log()
            .all()
            .iter()
            .all(|f| f.media_row / sub == base / sub);
        println!(
            "{:>12} {:>10} {:>24}",
            35 + extra_open_ns,
            flips,
            if contained { "yes" } else { "NO (bug!)" }
        );
        dram.export_telemetry(&dram_reg);
        assert!(flips >= previous, "flips fell as tAggOn grew");
        previous = flips;
    }
    println!(
        "\nShape: flips grow with tAggOn at constant ACT count (RowPress), and every \
         flip stays\nwithin the aggressors' subarray — which is why Siloz treats RowPress \
         identically to\nRowhammer (§2.5): subarray groups contain both."
    );
}
