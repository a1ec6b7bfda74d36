//! Regenerates **Table 1**: DDR4 address mirroring and inversion of
//! lower-order row media address bits as a function of DIMM rank and side.

use bench::Scale;
use dram_addr::transform::{internal_row, preserves_subarray_grouping};
use dram_addr::{InternalMapConfig, RankSide};
use sim::Run;

pub fn run(_scale: Scale, run: &Run) {
    let cfg = InternalMapConfig {
        mirroring: true,
        inversion: true,
        scrambling: false,
    };
    println!("Table 1: DDR4 mirroring/inversion of row media address bits [b0, b10]");
    println!("(cell shows which source bit — possibly inverted '!' — drives each output bit)\n");
    let variants: [(&str, u16, RankSide); 4] = [
        ("even rank, A side", 0, RankSide::A),
        ("even rank, B side", 0, RankSide::B),
        ("odd rank,  A side", 1, RankSide::A),
        ("odd rank,  B side", 1, RankSide::B),
    ];
    print!("{:<20}", "rank/side");
    for b in (0..=10).rev() {
        print!(" {:>4}", format!("b{b}"));
    }
    println!();
    for (label, rank, side) in variants {
        print!("{label:<20}");
        for out_bit in (0u32..=10).rev() {
            // Which input bit (and polarity) lands on `out_bit`?
            let mut cell = String::from("?");
            for in_bit in 0..=10u32 {
                let img = internal_row(1 << in_bit, rank, side, cfg);
                let base = internal_row(0, rank, side, cfg);
                // The bit of `img ^ base` set at out_bit means in_bit drives it.
                if ((img ^ base) >> out_bit) & 1 == 1 {
                    let inverted = (base >> out_bit) & 1 == 1;
                    cell = if inverted {
                        format!("!b{in_bit}")
                    } else {
                        format!("b{in_bit}")
                    };
                    break;
                }
            }
            print!(" {cell:>4}");
        }
        println!();
    }

    println!("\nIsolation consequences (§6):");
    let transforms = run.reg.child("transforms");
    for rows in [512u32, 1024, 2048, 768, 1536] {
        let ok = (0..2).all(|rank| {
            RankSide::BOTH
                .iter()
                .all(|&side| preserves_subarray_grouping(rows, rank, side, cfg, 1 << 17))
        });
        transforms
            .counter(if ok {
                "sizes_preserved"
            } else {
                "sizes_violated"
            })
            .inc();
        println!(
            "  {rows:>5}-row subarrays: grouping {}",
            if ok {
                "PRESERVED (power-of-2 in commodity range)"
            } else {
                "VIOLATED -> artificial groups + guard rows"
            }
        );
    }
    transforms.counter("variants_rendered").add(4);
}
