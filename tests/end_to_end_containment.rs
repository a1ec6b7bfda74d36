//! Integration: the full Table 3 story across crates — fuzzer → device
//! physics → hypervisor placement → containment accounting.

use rand::SeedableRng;
use siloz_repro::dram::{DimmProfile, DramSystemBuilder};
use siloz_repro::dram_addr::RepairMap;
use siloz_repro::hammer::{hammer_vm, FuzzConfig};
use siloz_repro::siloz::{Escapes, Hypervisor, HypervisorKind, Owner, SilozConfig, VmSpec};

fn quick_cfg() -> FuzzConfig {
    FuzzConfig {
        patterns: 6,
        periods_per_attempt: 60_000,
        extra_open_ns: 0,
    }
}

#[test]
fn siloz_contains_blacksmith_across_dimm_profiles() {
    // All six Table 3 DIMM susceptibility profiles, one campaign each; no
    // flip may leave the attacker's provisioned groups.
    for profile in DimmProfile::evaluation_dimms() {
        let name = profile.name;
        let config = SilozConfig::mini();
        let dram = DramSystemBuilder::new(config.geometry)
            .profiles(vec![profile])
            .trr(4, 2)
            .build();
        let mut hv =
            Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, RepairMap::new()).unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, 256 << 20)).unwrap();
        let _victim = hv.create_vm(VmSpec::new("victim", 2, 256 << 20)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let report = hammer_vm(&mut hv, attacker, 2, quick_cfg(), &mut rng).unwrap();
        assert_eq!(
            report.escapes(),
            Escapes::default(),
            "DIMM {name}: flips escaped the attacker's memory"
        );
        // More-susceptible DIMMs (A) must actually flip in-domain; the
        // hardest (F) may or may not at this effort.
        if name == "A" {
            assert!(report.flips_in_domain() > 0, "DIMM A must flip in-domain");
        }
    }
}

#[test]
fn victim_data_survives_attack_under_siloz() {
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, 256 << 20)).unwrap();
    let victim = hv.create_vm(VmSpec::new("victim", 2, 256 << 20)).unwrap();
    let secret: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    hv.guest_write(victim, 0x40_0000, &secret).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let report = hammer_vm(&mut hv, attacker, 3, quick_cfg(), &mut rng).unwrap();
    assert!(!report.flips.is_empty(), "attack must be potent");
    assert_eq!(report.flips.count(Owner::Vm(victim)), 0);

    let (read_back, intact) = hv.guest_read(victim, 0x40_0000, secret.len()).unwrap();
    assert!(intact, "victim reads must be clean");
    assert_eq!(read_back, secret, "victim data corrupted across domains");
}

#[test]
fn attacker_cannot_flip_host_reserved_memory() {
    // Host pages (including mediated VM pages) live in host-reserved
    // groups; the attacker's campaign must not touch them.
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, 256 << 20)).unwrap();
    let host_rows: std::ops::Range<u32> = {
        // Host group = group 0 = rows [0, 256) on the mini machine.
        0..hv.config().presumed_subarray_rows
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let report = hammer_vm(&mut hv, attacker, 2, quick_cfg(), &mut rng).unwrap();
    assert!(!report.flips.is_empty(), "attack must flip bits");
    for (flip, owner) in report.flips.flips() {
        assert_eq!(*owner, Owner::Vm(attacker), "{flip:?}");
        assert!(
            !host_rows.contains(&flip.media_row),
            "flip landed in host-reserved rows: {flip:?}"
        );
    }
}

#[test]
fn repairs_and_transforms_do_not_break_containment() {
    // Worst-case DIMM internals: every transformation on, plus inter-
    // subarray repairs that Siloz offlines at boot (§6).
    use siloz_repro::dram_addr::{InternalMapConfig, RepairKind};
    let mut config = SilozConfig::mini();
    config.internal_map = InternalMapConfig::all();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let repairs = RepairMap::generate(
        &config.geometry,
        0.0001,
        RepairKind::InterSubarray,
        &mut rng,
    );
    let dram = DramSystemBuilder::new(config.geometry)
        .internal_map(config.internal_map)
        .repairs(repairs.clone())
        .trr(2, 1)
        .build();
    let mut hv = Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, repairs).unwrap();
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, 128 << 20)).unwrap();
    let report = hammer_vm(&mut hv, attacker, 2, quick_cfg(), &mut rng).unwrap();
    assert_eq!(
        report.escapes(),
        Escapes::default(),
        "escapes despite §6 mitigations"
    );
}

#[test]
fn six_sided_hammer_over_own_same_bank_rows_stays_contained() {
    // A hand-built many-sided pattern rather than a fuzzed one: the attacker
    // samples its own backing at the row-group stride, keeps the largest
    // same-bank set (bank hashing XORs row bits, so the set spans several
    // banks' worth of candidates), and hammers six of its rows round-robin —
    // more aggressors than the 4-entry TRR tracks, fast enough to beat the
    // refresh window. It flips its own bits and none outside its domain.
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, 256 << 20)).unwrap();
    let _victim = hv.create_vm(VmSpec::new("victim", 2, 256 << 20)).unwrap();

    let base = hv.vm_unmediated_backing(attacker).unwrap()[0].hpa();
    let dec = hv.decoder().clone();
    let g = *dec.geometry();
    let mut by_bank = std::collections::BTreeMap::<u32, Vec<_>>::new();
    for i in 0..48u64 {
        let media = dec.decode(base + i * g.row_group_bytes()).unwrap();
        by_bank
            .entry(media.global_bank(&g).0)
            .or_default()
            .push(media);
    }
    let biggest = by_bank.into_values().max_by_key(Vec::len).unwrap();
    assert!(biggest.len() >= 6, "need six same-bank aggressors");

    let aggressors = &biggest[..6];
    let dram = hv.dram_mut();
    for _ in 0..300_000usize {
        for m in aggressors {
            dram.activate(m, 0);
        }
        dram.advance_ns(aggressors.len() as u64 * siloz_repro::hammer::T_RC_NS);
    }
    assert!(
        !hv.dram().flip_log().is_empty(),
        "the campaign must flip bits in-domain"
    );
    let escapes = hv.flips_by_owner(0).unwrap().escapes(attacker);
    assert_eq!(escapes.total(), 0, "escaped: {escapes}");
}
