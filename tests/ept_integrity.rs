//! Integration: EPT protection end to end (§5.4, §7.1) — guard-row
//! placement, flip prevention, secure-EPT detection, and the software
//! alternatives' failure modes.

use rand::SeedableRng;
use siloz_repro::dram::DramSystemBuilder;
use siloz_repro::dram_addr::{BankId, RepairMap, SystemAddressDecoder};
use siloz_repro::hammer::{verify_ept_intact, Blacksmith, FuzzConfig};
use siloz_repro::siloz::ept_guard::EptGuardPlan;
use siloz_repro::siloz::{EptProtection, Hypervisor, HypervisorKind, SilozConfig, VmSpec};

#[test]
fn all_ept_pages_of_all_vms_fit_the_protected_row_group() {
    // §5.4's sizing argument: every VM's EPTs share the one row group.
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let plan = hv.ept_plan().unwrap().clone();
    let sp = plan.socket(0).unwrap().clone();
    let mut vms = Vec::new();
    for i in 0..4 {
        vms.push(
            hv.create_vm(VmSpec::new(&format!("vm{i}"), 1, 128 << 20))
                .unwrap(),
        );
    }
    for &vm in &vms {
        for &hpa in hv.vm_ept_pages(vm).unwrap() {
            let (_, row) = hv.decoder().row_group_of(hpa).unwrap();
            assert_eq!(row, sp.ept_row);
        }
    }
}

#[test]
fn hammering_protected_blocks_never_flips_the_ept_row() {
    // §7.1's second experiment: protected 32-row blocks vs unprotected
    // blocks in the same subarray group.
    let config = SilozConfig::mini();
    let decoder = SystemAddressDecoder::new(config.geometry, config.decoder).unwrap();
    let g = *decoder.geometry();
    let plan = EptGuardPlan::compute(&decoder, 8, 3, |_| 0).unwrap();
    let sp = plan.socket(0).unwrap();
    let control_row = 131u32; // Unprotected "EPT-like" row, same subarray.

    let mut dram = DramSystemBuilder::new(g).trr(0, 0).build();
    let attacker_rows: Vec<u32> = (0..g.rows_per_subarray)
        .filter(|r| !sp.block_rows.contains(r) && *r != control_row)
        .collect();
    let mut fuzzer = Blacksmith::new(FuzzConfig {
        patterns: 8,
        periods_per_attempt: 60_000,
        extra_open_ns: 0,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for bank in 0..4 {
        let _ = fuzzer.fuzz(&mut dram, BankId(bank), &attacker_rows, &mut rng);
    }
    assert!(!dram.flip_log().is_empty(), "campaign must flip something");
    for bank in 0..4 {
        assert_eq!(
            dram.flip_log()
                .in_row_range(BankId(bank), sp.ept_row, sp.ept_row + 1)
                .count(),
            0,
            "protected EPT row flipped in bank {bank}"
        );
    }
}

#[test]
fn vm_translations_stay_intact_after_full_campaign() {
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let vm = hv.create_vm(VmSpec::new("tenant", 2, 256 << 20)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let report = siloz_repro::hammer::hammer_vm(
        &mut hv,
        vm,
        3,
        FuzzConfig {
            patterns: 6,
            periods_per_attempt: 60_000,
            extra_open_ns: 0,
        },
        &mut rng,
    )
    .unwrap();
    assert!(!report.flips.is_empty());
    assert!(verify_ept_intact(&mut hv, vm).unwrap());
}

#[test]
fn secure_ept_detects_synthetic_corruption() {
    let mut config = SilozConfig::mini();
    config.ept_protection = EptProtection::SecureEpt;
    let mut hv = Hypervisor::boot(config, HypervisorKind::Siloz).unwrap();
    let vm = hv.create_vm(VmSpec::new("tenant", 2, 64 << 20)).unwrap();
    // Corrupt the leaf table page directly in DRAM (as a flip would): flip
    // a PFN bit of its first present entry. The page's 64 lines are spread
    // over the socket's banks, so each entry is decoded at its own address.
    let leaf_hpa = *hv.vm_ept_pages(vm).unwrap().last().unwrap();
    let mut flipped = false;
    for entry_hpa in (leaf_hpa..leaf_hpa + 4096).step_by(8) {
        let media = hv.decoder().decode(entry_hpa).unwrap();
        let bank = media.global_bank(hv.decoder().geometry());
        let (bytes, _) = hv.dram_mut().read_row(bank, media.row, media.col, 8);
        let raw = u64::from_le_bytes(bytes.try_into().unwrap());
        if raw & 0b111 != 0 {
            let bad = raw ^ (1 << 20);
            (hv.dram_mut()).write_row(bank, media.row, media.col, &bad.to_le_bytes());
            flipped = true;
            break;
        }
    }
    assert!(flipped, "leaf table had no present entries");
    // Some GPA now fails integrity on translation.
    let mut violations = 0;
    for gpa in (0..(64u64 << 20)).step_by(2 << 20) {
        if matches!(
            hv.translate(vm, gpa),
            Err(siloz_repro::siloz::SilozError::Ept(
                siloz_repro::ept::EptError::IntegrityViolation { .. }
            ))
        ) {
            violations += 1;
        }
    }
    assert!(violations > 0, "corruption went undetected by secure EPT");
}

#[test]
fn copy_on_flip_migrates_attacked_pages_but_depends_on_corrected_errors() {
    // The §3 comparison defense actually works mechanically here — while
    // demonstrating its structural limits (reactive; ECC side channel).
    use siloz_repro::siloz::defenses::copy_on_flip_respond;
    let config = SilozConfig::mini();
    let dram = DramSystemBuilder::new(config.geometry).trr(0, 0).build();
    let mut hv =
        Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, RepairMap::new()).unwrap();
    // Half a subarray group: migration needs free blocks in the VM's own
    // groups (a full group cannot migrate — a real limitation of reactive
    // migration under exclusive placement).
    let vm = hv.create_vm(VmSpec::new("tenant", 2, 64 << 20)).unwrap();
    let backing_before = hv.vm_unmediated_backing(vm).unwrap();

    // Hammer the VM's own rows until flips land in its pages.
    let rows = siloz_repro::hammer::attack::vm_rows(&hv, vm).unwrap();
    let (_, socket_rows) = &rows[0];
    let mut fuzzer = Blacksmith::new(FuzzConfig {
        patterns: 6,
        periods_per_attempt: 80_000,
        extra_open_ns: 0,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let _ = fuzzer.fuzz(hv.dram_mut(), BankId(0), socket_rows, &mut rng);
    assert!(!hv.dram().flip_log().is_empty());

    let report = copy_on_flip_respond(&mut hv, vm, 64).unwrap();
    assert!(
        report.corrected_errors > 0,
        "scrub must report corrected errors"
    );
    assert!(report.migrated_blocks > 0, "attacked blocks must migrate");

    // Migrated blocks moved; translations still work and point at the new
    // frames.
    let backing_after = hv.vm_unmediated_backing(vm).unwrap();
    assert_ne!(backing_before, backing_after);
    assert!(verify_ept_intact(&mut hv, vm).unwrap());
}

#[test]
fn soft_refresh_cannot_substitute_for_guard_rows() {
    // §8.3: under generic scheduling the refresh daemon misses deadlines;
    // combined with a realistic time-to-flip this leaves windows where an
    // EPT row could be hammered past threshold.
    use siloz_repro::siloz::defenses::{simulate_soft_refresh, SchedulerModel};
    let mut rng = rand::rngs::StdRng::seed_from_u64(83);
    let report = simulate_soft_refresh(&SchedulerModel::default(), 500_000, &mut rng);
    assert!(report.left_rows_vulnerable());
    assert!(report.max_period_ms > 32.0);
    // Time to flip at modern thresholds: ~22k ACTs at ~47 ns/ACT ≈ 1 ms;
    // any gap beyond ~1 ms is exploitable.
    let time_to_flip_ms = 22_000.0 * 47e-9 * 1e3;
    assert!(report.max_period_ms > time_to_flip_ms * 10.0);
}

#[test]
fn protected_table_pages_share_the_guarded_ept_row() {
    // §5.4: EPT-adjacent metadata drawn through the hypervisor gets the same
    // guard-row protection as the EPTs themselves — every page sits in the
    // socket's EPT row group, and no page is handed out twice or overlaps
    // a VM's own EPT pages.
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let sp = hv.ept_plan().unwrap().socket(0).unwrap().clone();
    let vms = [
        hv.create_vm(VmSpec::new("a", 1, 96 << 20)).unwrap(),
        hv.create_vm(VmSpec::new("b", 1, 96 << 20)).unwrap(),
    ];
    let mut pages = std::collections::BTreeSet::new();
    for &vm in &vms {
        for _ in 0..8 {
            let hpa = hv.alloc_protected_table_page(vm).unwrap();
            assert_eq!(hpa % 4096, 0, "table page {hpa:#x} is not page-aligned");
            let (_, row) = hv.decoder().row_group_of(hpa).unwrap();
            assert_eq!(row, sp.ept_row, "table page {hpa:#x} outside the EPT row");
            assert!(pages.insert(hpa), "table page {hpa:#x} handed out twice");
        }
    }
    for &vm in &vms {
        for hpa in hv.vm_ept_pages(vm).unwrap() {
            assert!(!pages.contains(hpa), "table page {hpa:#x} is a VM EPT page");
        }
    }
}
