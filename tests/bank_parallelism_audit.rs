//! Integration: the §4.1 design property, audited from controller
//! utilization — a Siloz VM's memory traffic reaches *every bank of its
//! socket*, with load as even as the baseline's, because subarray groups
//! are composed from at least one subarray of each bank.

use memctrl::{MemOp, MemoryController};
use rand::rngs::StdRng;
use rand::SeedableRng;
use siloz_repro::dram::{DimmProfile, DramSystemBuilder};
use siloz_repro::dram_addr::RepairMap;
use siloz_repro::siloz::{Hypervisor, HypervisorKind, SilozConfig, VmSpec};
use siloz_repro::workloads::mlc::{Mlc, MlcKind};
use siloz_repro::workloads::WorkloadGen;

fn run(kind: HypervisorKind) -> (usize, f64) {
    let config = SilozConfig::mini();
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(vec![DimmProfile::invulnerable()])
        .build();
    let mut hv = Hypervisor::boot_with(config, kind, dram, RepairMap::new()).unwrap();
    let vm = hv.create_vm(VmSpec::new("t", 4, 128 << 20)).unwrap();
    let blocks = hv.vm_unmediated_backing(vm).unwrap();
    let block_bytes = blocks[0].bytes();
    let ram: u64 = blocks.iter().map(|b| b.bytes()).sum();
    let mut wl = Mlc::new(MlcKind::Reads, 32 << 20);
    let ops = wl.generate(40_000, &mut StdRng::seed_from_u64(1));
    let trace: Vec<MemOp> = ops
        .iter()
        .map(|op| {
            let guest = op.offset() % ram;
            MemOp::read(blocks[(guest / block_bytes) as usize].hpa() + guest % block_bytes)
        })
        .collect();
    let mut ctrl = MemoryController::new(hv.decoder().clone()).without_physics();
    ctrl.run_trace(hv.dram_mut(), trace);
    (ctrl.banks_touched(), ctrl.bank_load_cv())
}

#[test]
fn siloz_vm_traffic_reaches_every_bank_of_the_socket() {
    let banks = SilozConfig::mini().geometry.banks_per_socket() as usize;
    let (siloz_banks, siloz_cv) = run(HypervisorKind::Siloz);
    let (base_banks, base_cv) = run(HypervisorKind::Baseline);
    assert_eq!(
        siloz_banks, banks,
        "a subarray-group-confined VM must still reach all {banks} banks (§4.1)"
    );
    assert_eq!(base_banks, banks);
    // Load balance within a whisker of the baseline's.
    assert!(
        (siloz_cv - base_cv).abs() < 0.05,
        "bank-load CV diverged: siloz {siloz_cv:.4} vs baseline {base_cv:.4}"
    );
    assert!(
        siloz_cv < 0.2,
        "streaming load must be near-even: {siloz_cv:.4}"
    );
}

#[test]
fn hypothetical_single_subarray_isolation_would_use_one_bank() {
    // The §4.1 counterfactual: isolating a VM to one subarray of one bank
    // (rather than a group) would serialize everything through that bank.
    let config = SilozConfig::mini();
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(vec![DimmProfile::invulnerable()])
        .build();
    let mut hv =
        Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, RepairMap::new()).unwrap();
    let decoder = hv.decoder().clone();
    let g = *decoder.geometry();
    // Addresses pinned to bank 5, rows 512..768 (one subarray).
    let mut media = siloz_repro::dram_addr::BankId(5).to_media(&g);
    let trace: Vec<MemOp> = (0..4096u64)
        .map(|i| {
            media.row = 512 + (i % 256) as u32;
            media.col = ((i / 256) * 64 % g.row_bytes) as u32;
            MemOp::read(decoder.encode(&media).unwrap())
        })
        .collect();
    let mut ctrl = MemoryController::new(decoder).without_physics();
    let res = ctrl.run_trace(hv.dram_mut(), trace);
    assert_eq!(ctrl.banks_touched(), 1);
    // Same volume through all banks, for comparison.
    let mut ctrl2 = MemoryController::new(hv.decoder().clone()).without_physics();
    let seq: Vec<MemOp> = (0..4096u64).map(|i| MemOp::read(i * 64)).collect();
    let res2 = ctrl2.run_trace(hv.dram_mut(), seq);
    assert!(
        res.elapsed_ps > res2.elapsed_ps * 4,
        "single-bank isolation must be dramatically slower: {} vs {}",
        res.elapsed_ps,
        res2.elapsed_ps
    );
}
