//! Long-soak containment (§7.1's 24-hour test): a multi-tenant host with
//! automatic ECC patrol scrubbing runs Blacksmith campaigns round after
//! round through the attack driver; after every round the scrub history
//! and the owner ledger are audited for any flip outside the attacker's
//! memory.

use bench::Scale;
use dram::{DimmProfile, DramSystemBuilder};
use dram_addr::{BankId, RepairMap};
use hammer::FuzzConfig;
use rand::SeedableRng;
use siloz::{Hypervisor, HypervisorKind, VmSpec};
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let (rounds, vm_mem) = match scale {
        Scale::Quick => (4u32, 192 << 20),
        Scale::Full => (12, 3 << 30),
    };
    // Patrol scrub every simulated 100 ms (fast-forwarded "24 h" soak).
    let dram = DramSystemBuilder::new(config.geometry)
        .internal_map(config.internal_map)
        .profiles(DimmProfile::evaluation_dimms())
        .trr(4, 2)
        .patrol_scrub(100_000_000)
        .build();
    let mut hv =
        Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, RepairMap::new()).expect("boot");
    let attacker = hv.create_vm(VmSpec::new("attacker", 4, vm_mem)).unwrap();
    let victim = hv.create_vm(VmSpec::new("victim", 4, vm_mem)).unwrap();
    hv.guest_write(victim, 0x1000, b"victim canary data")
        .unwrap();

    let g = *hv.decoder().geometry();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x50_a1);
    let campaign = FuzzConfig {
        patterns: 4,
        periods_per_attempt: 100_000,
        extra_open_ns: 0,
    };

    println!("soak: {rounds} rounds of continuous hammering with patrol scrub\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "round", "sim time", "flips", "escapes", "scrub fixes", "canary"
    );
    let mut escapes = 0;
    for round in 0..rounds {
        // Rotate the attacked bank each round to spread damage.
        let bank = BankId((round * 13) % g.banks_per_socket());
        let report = hammer::hammer_vm_banks(&mut hv, attacker, &[bank], campaign, &mut rng, None)
            .expect("campaign");
        escapes += report.escapes().total();
        // Idle period: scrub catches up.
        hv.dram_mut().advance_ns(200_000_000);

        let (canary, intact) = hv.guest_read(victim, 0x1000, 18).unwrap();
        let canary_ok = intact && &canary == b"victim canary data";
        println!(
            "{:>6} {:>8.2}s {:>10} {:>10} {:>12} {:>9}",
            round,
            hv.dram().now_ns() as f64 / 1e9,
            hv.dram().flip_log().len(),
            escapes,
            hv.dram().scrub_history().corrected.len(),
            if canary_ok { "OK" } else { "CORRUPT" }
        );
        assert_eq!(escapes, 0, "containment breached in round {round}");
        assert!(canary_ok, "victim data corrupted in round {round}");
        let audit = siloz::audit(&hv).expect("audit");
        assert!(
            audit.is_healthy(),
            "invariants broken: {:?}",
            audit.violations
        );
    }
    println!(
        "\nVERDICT: {} flips induced over the soak, all inside the attacker's \
         subarray groups;\nvictim data intact; patrol scrub corrected {} single-bit \
         cells along the way.",
        hv.dram().flip_log().len(),
        hv.dram().scrub_history().corrected.len()
    );
    hv.dram().export_telemetry(&run.reg.child("dram"));
    hv.export_telemetry(&run.reg.child("hv"));
}
