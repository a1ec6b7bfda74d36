//! Regenerates the **§7.1 EPT bit-flip prevention** experiment.
//!
//! Blacksmith runs against (a) a 32-row block protected according to
//! Siloz's mitigation (b = 32 reserved row groups, EPT row at o = 12,
//! guards offlined so the attacker cannot touch them) and (b) an
//! unprotected control block of 32 rows in the same subarray group. The
//! protected EPT row must show zero flips; the unprotected control rows
//! must flip.

use bench::Scale;
use dram::DramSystemBuilder;
use dram_addr::{BankId, SystemAddressDecoder};
use hammer::{Blacksmith, FuzzConfig};
use rand::SeedableRng;
use siloz::ept_guard::EptGuardPlan;
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let decoder = SystemAddressDecoder::new(config.geometry, config.decoder).expect("decoder");
    let g = *decoder.geometry();
    let (b, o) = match config.ept_protection {
        siloz::EptProtection::GuardRows { b, o } => (b, o),
        _ => (32, 12),
    };

    // Protected block at the start of the subarray; control block at the
    // same offset one subarray-half away, same subarray.
    let plan = EptGuardPlan::compute(&decoder, b, o, |_| 0).expect("plan");
    let sp = plan.socket(0).expect("socket 0");
    let protected_row = sp.ept_row;
    let control_base = (g.rows_per_subarray / 2 / b) * b;
    let control_row = control_base + o;

    let mut dram = DramSystemBuilder::new(g).trr(4, 2).build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let periods = match scale {
        Scale::Quick => 80_000,
        Scale::Full => 150_000,
    };
    let mut fuzzer = Blacksmith::new(FuzzConfig {
        patterns: 8,
        periods_per_attempt: periods,
        extra_open_ns: 0,
    });

    // The attacker owns every row of the subarray except the protected
    // block (whose guards are offlined and EPT row host-reserved). In the
    // control region, nothing is reserved: only the "EPT-like" row itself
    // is not attacker-owned.
    let attacker_rows: Vec<u32> = (0..g.rows_per_subarray)
        .filter(|r| !sp.block_rows.contains(r) && *r != control_row)
        .collect();

    let banks = match scale {
        Scale::Quick => 4u32,
        Scale::Full => 8,
    };
    for bank in 0..banks {
        let _ = fuzzer.fuzz(&mut dram, BankId(bank), &attacker_rows, &mut rng);
    }

    let mut protected_flips = 0usize;
    let mut control_flips = 0usize;
    let mut control_region_flips = 0usize;
    let mut total = 0usize;
    for f in dram.flip_log().all() {
        total += 1;
        if f.media_row == protected_row {
            protected_flips += 1;
        }
        if f.media_row == control_row {
            control_flips += 1;
        }
        if f.media_row >= control_base && f.media_row < control_base + b {
            control_region_flips += 1;
        }
    }

    println!("EPT guard-row experiment (§7.1), b = {b}, o = {o}");
    println!("  total flips induced in the subarray:         {total}");
    println!("  flips in the PROTECTED EPT row (row {protected_row:>5}):  {protected_flips}");
    println!("  flips in the unprotected control row ({control_row:>5}): {control_flips}");
    println!("  flips in the unprotected 32-row control region: {control_region_flips}");
    println!();
    if protected_flips == 0 && control_region_flips > 0 {
        println!("RESULT: guard rows prevent EPT bit flips while unprotected rows flip — matches the paper.");
    } else if total == 0 {
        println!("RESULT: inconclusive (no flips induced; increase --full scale).");
    } else {
        println!("RESULT: UNEXPECTED — protected row flipped or control stayed clean.");
    }
    dram.export_telemetry(&run.reg.child("dram"));
    let guard = run.reg.child("ept_guard");
    guard
        .counter("protected_row_flips")
        .add(protected_flips as u64);
    guard.counter("control_row_flips").add(control_flips as u64);
    guard
        .counter("control_region_flips")
        .add(control_region_flips as u64);
}
