//! Integration: the §8 discussion points — sub-NUMA clustering and DDR5
//! geometries — and the §9 intra-VM trade-off.

use siloz_repro::dram_addr::{ddr5_geometry, InternalMapConfig};
use siloz_repro::siloz::{apply_snc, Hypervisor, HypervisorKind, SilozConfig, VmSpec};

#[test]
fn snc2_provisions_at_half_granularity() {
    // §8.1: SNC-2 halves subarray group sizes, easing fragmentation for
    // micro-VMs.
    let base = SilozConfig::evaluation();
    let (snc, map) = apply_snc(&base, 2).unwrap();
    assert_eq!(snc.subarray_group_bytes(), 768 << 20);
    let mut hv = Hypervisor::boot(snc, HypervisorKind::Siloz).unwrap();
    // A 700 MiB micro-VM fits one 0.75 GiB group instead of wasting half of
    // a 1.5 GiB one.
    let vm = hv.create_vm(VmSpec::new("micro", 1, 700 << 20)).unwrap();
    assert_eq!(hv.vm_groups(vm).unwrap().len(), 1);
    // Cluster-to-socket mapping stays available for latency reasoning.
    assert!(map.same_socket(0, 1));
    assert!(!map.same_socket(1, 2));
}

#[test]
fn ddr5_geometry_boots_with_larger_groups_and_no_artificial_groups() {
    // §8.2: DDR5 doubles banks/rank (groups scale up) and undoes internal
    // mirroring/inversion, so identity mapping applies.
    let mut config = SilozConfig::evaluation();
    config.geometry = ddr5_geometry();
    config.internal_map = InternalMapConfig::identity();
    config.decoder.jump_bytes = 1536 << 20;
    let hv = Hypervisor::boot(config.clone(), HypervisorKind::Siloz).unwrap();
    assert_eq!(config.subarray_group_bytes(), 3 << 30, "3 GiB groups");
    assert_eq!(
        hv.guest_nodes().len(),
        2 * (128 - 1),
        "128 groups of 3 GiB per 384 GiB socket"
    );
}

#[test]
fn intra_vm_hammering_remains_possible_by_design() {
    // §9: Siloz trades intra-VM protection away — in fact subarray
    // co-location may simplify intra-VM hammering. Verify the trade-off is
    // real: a VM can flip bits in its own pages.
    use rand::SeedableRng;
    use siloz_repro::hammer::{hammer_vm, FuzzConfig};
    let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
    let vm = hv
        .create_vm(VmSpec::new("self-harm", 1, 256 << 20))
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let report = hammer_vm(
        &mut hv,
        vm,
        2,
        FuzzConfig {
            patterns: 6,
            periods_per_attempt: 60_000,
            extra_open_ns: 0,
        },
        &mut rng,
    )
    .unwrap();
    assert!(
        report.flips_in_domain() > 0,
        "intra-VM flips are not prevented"
    );
    assert_eq!(report.escapes().total(), 0, "inter-VM flips are");
}

#[test]
fn snc_and_sensitivity_compose() {
    // SNC-2 with Siloz-512: quarter-size groups, all invariants hold.
    let (snc, _) = apply_snc(&SilozConfig::evaluation(), 2).unwrap();
    let cfg = snc.with_presumed_subarray_rows(512);
    let hv = Hypervisor::boot(cfg.clone(), HypervisorKind::Siloz).unwrap();
    assert_eq!(cfg.subarray_group_bytes(), 384 << 20);
    assert_eq!(hv.topology().len(), 4 * 256, "4 clusters x 256 groups");
}
