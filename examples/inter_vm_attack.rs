//! A malicious VM runs a Blacksmith campaign against its own memory and we
//! watch where the bit flips land — under the unmodified baseline
//! hypervisor and under Siloz (the §7.1 containment experiment in miniature).
//!
//! Run with: `cargo run --release --example inter_vm_attack`

use rand::SeedableRng;
use siloz_repro::hammer::{hammer_vm, FuzzConfig};
use siloz_repro::siloz::{Hypervisor, HypervisorKind, SilozConfig, VmSpec};

fn attack(kind: HypervisorKind) {
    println!("=== {kind:?} hypervisor ===");
    let mut hv = Hypervisor::boot(SilozConfig::mini(), kind).expect("boot");
    let attacker = hv
        .create_vm(VmSpec::new("attacker", 2, 256 << 20))
        .expect("attacker VM");
    let victim = hv
        .create_vm(VmSpec::new("victim", 2, 256 << 20))
        .expect("victim VM");

    // The victim stores data; the attacker cannot address it, only hammer.
    hv.guest_write(victim, 0x2000, b"victim secret data")
        .expect("victim write");

    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let report = hammer_vm(
        &mut hv,
        attacker,
        2,
        FuzzConfig {
            patterns: 8,
            periods_per_attempt: 80_000,
            extra_open_ns: 0,
        },
        &mut rng,
    )
    .expect("campaign");

    let escapes = report.escapes();
    println!("  activations issued:     {}", report.acts);
    println!("  flips total:            {}", report.flips.len());
    println!("  flips inside own domain:{}", report.flips_in_domain());
    println!("  flips elsewhere:        {escapes}");
    match kind {
        HypervisorKind::Siloz => {
            assert_eq!(escapes.total(), 0, "Siloz must contain flips");
            println!("  => contained: hammering cannot reach other tenants\n");
        }
        HypervisorKind::Baseline => {
            println!(
                "  => on the baseline, escaped flips are possible whenever the \
                 attacker's rows share a subarray with a neighbor\n"
            );
        }
    }
}

fn main() {
    println!("Inter-VM Rowhammer attack demo (Table 3 in miniature)\n");
    attack(HypervisorKind::Baseline);
    attack(HypervisorKind::Siloz);
    println!("For the full per-DIMM table: cargo run --release -p bench --bin paper -- table3_containment");
}
