//! §8.1 fragmentation analysis: how much DRAM does group-granular
//! provisioning waste under realistic VM-size mixes, and how much does
//! sub-NUMA clustering (smaller groups) recover?
//!
//! Provisioning rounds every VM up to whole subarray groups; the waste is
//! the gap between requested bytes and reserved bytes. The paper notes that
//! providers already sell VMs at similar granularity and that SNC halves
//! group sizes (§8.1).

use bench::Scale;
use rand::Rng;
use rand::SeedableRng;
use siloz::{apply_snc, SilozConfig};
use sim::Run;

/// A cloud-ish VM size mix (GiB, probability weight).
const MIX: [(f64, u32); 7] = [
    (0.5, 10), // micro
    (1.0, 15),
    (2.0, 20),
    (4.0, 25),
    (8.0, 15),
    (16.0, 10),
    (48.0, 5),
];

fn sample_vm_gib(rng: &mut impl Rng) -> f64 {
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(gib, w) in &MIX {
        if pick < w {
            return gib;
        }
        pick -= w;
    }
    MIX.last().unwrap().0
}

fn waste_fraction(group_bytes: u64, vms: &[f64]) -> f64 {
    let mut requested = 0f64;
    let mut reserved = 0f64;
    for &gib in vms {
        let bytes = gib * (1u64 << 30) as f64;
        let groups = (bytes / group_bytes as f64).ceil();
        requested += bytes;
        reserved += groups * group_bytes as f64;
    }
    (reserved - requested) / reserved
}

pub fn run(scale: Scale, run: &Run) {
    let n = match scale {
        Scale::Quick => 2_000usize,
        Scale::Full => 50_000,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(81);
    let vms: Vec<f64> = (0..n).map(|_| sample_vm_gib(&mut rng)).collect();
    let requested_tib: f64 = vms.iter().sum::<f64>() / 1024.0;
    println!(
        "Fragmentation under group-granular provisioning (§8.1): {n} VMs, {requested_tib:.1} TiB requested\n"
    );
    println!(
        "{:<34} {:>12} {:>14}",
        "configuration", "group size", "DRAM wasted"
    );
    let base = SilozConfig::evaluation();
    let rows = [
        ("Siloz-512", base.clone().with_presumed_subarray_rows(512)),
        ("Siloz-1024 (evaluation server)", base.clone()),
        ("Siloz-2048", base.clone().with_presumed_subarray_rows(2048)),
    ];
    for (label, cfg) in &rows {
        println!(
            "{:<34} {:>8} MiB {:>13.2}%",
            label,
            cfg.subarray_group_bytes() >> 20,
            waste_fraction(cfg.subarray_group_bytes(), &vms) * 100.0
        );
    }
    let (snc, _) = apply_snc(&base, 2).expect("SNC-2");
    println!(
        "{:<34} {:>8} MiB {:>13.2}%",
        "Siloz-1024 + SNC-2 (§8.1)",
        snc.subarray_group_bytes() >> 20,
        waste_fraction(snc.subarray_group_bytes(), &vms) * 100.0
    );
    println!(
        "\nShape: waste grows with group size and is halved-ish by SNC-2 — the §8.1\n\
         lever for finer-grained provisioning. (A 4 KiB-page baseline wastes ~0%,\n\
         but offers no isolation.)"
    );
    let frag = run.reg.child("fragmentation");
    frag.counter("vms_sampled").add(n as u64);
    frag.counter("configs_evaluated").add(rows.len() as u64 + 1);
    frag.counter("requested_bytes").add(
        vms.iter()
            .map(|&gib| (gib * (1u64 << 30) as f64) as u64)
            .sum(),
    );
}
