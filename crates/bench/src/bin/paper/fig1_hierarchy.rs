//! Renders **Figure 1**: the DRAM module hierarchy in the context of a row
//! activation and Rowhammer — from the live device model, with a real
//! hammering run annotating aggressor/victim/unaffected rows.

use bench::Scale;
use dram::DramSystemBuilder;
use dram_addr::{mini_geometry, BankId};
use sim::Run;

pub fn run(_scale: Scale, run: &Run) {
    let g = mini_geometry();
    let mut dram = DramSystemBuilder::new(g).trr(0, 0).build();
    let bank = BankId(0);
    // Hammer row 2 of subarray 0 hard (single-sided, like Fig. 1).
    for _ in 0..400_000 {
        dram.activate_row(bank, 2, 0);
        dram.advance_ns(47);
    }
    let flipped: std::collections::HashSet<u32> =
        dram.flip_log().all().iter().map(|f| f.media_row).collect();

    println!("Figure 1: DRAM module hierarchy under a frequently-activated row\n");
    println!("DRAM Module ({} ranks)", g.ranks_per_dimm);
    println!("└─ Rank 0 ({} banks)", g.banks_per_rank());
    println!(
        "   └─ Bank 0 ({} subarrays of {} rows)",
        g.subarrays_per_bank(),
        g.rows_per_subarray
    );
    for sub in 0..2u32 {
        println!("      ├─ Subarray {sub}");
        for row in (sub * g.rows_per_subarray)..(sub * g.rows_per_subarray + 4) {
            let label = if row == 2 {
                "Aggressor (activated 400k times)"
            } else if flipped.contains(&row) {
                "Victim (BITS FLIPPED)"
            } else if sub == 0 && row <= 4 {
                "Victim (disturbed, below threshold)"
            } else {
                "Unaffected (different subarray)"
            };
            println!("      │    row {row:>4}: {label}");
        }
        println!("      │    ...");
    }
    println!();
    println!(
        "flips: {:?} — all within subarray 0; subarray 1 is electrically isolated (§2.5)",
        {
            let mut v: Vec<u32> = flipped.iter().copied().collect();
            v.sort_unstable();
            v
        }
    );
    dram.export_telemetry(&run.reg.child("dram"));
}
