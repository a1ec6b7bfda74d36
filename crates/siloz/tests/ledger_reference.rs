//! The owner ledger against a brute-force reference. On a mini host with
//! inter-subarray repairs, under both hypervisors, a random lifecycle —
//! create, expand, `migrate_block`, destroy — runs, and after every step
//! `Hypervisor::owner_of` must name, for sampled lines, the owner a linear
//! scan of backing blocks, EPT pages, group claims, the EPT pool and the
//! offlined frames names.

use dram::DramSystemBuilder;
use dram_addr::{RepairKind, RepairMap};
use ept::PageSize;
use numa::{frame_of_hpa, hpa_of_frame, FRAME_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siloz::artificial::inter_subarray_repair_frames;
use siloz::{
    Hypervisor, HypervisorKind, MemoryRegionKind, Owner, SilozConfig, SilozError, VmHandle, VmSpec,
};
use std::collections::BTreeSet;

/// A host and the frames its boot offlined.
struct Host {
    hv: Hypervisor,
    offlined: BTreeSet<u64>,
}

impl Host {
    fn boot(kind: HypervisorKind, repairs: &RepairMap) -> Self {
        let config = SilozConfig::mini();
        let dram = DramSystemBuilder::new(config.geometry)
            .internal_map(config.internal_map)
            .repairs(repairs.clone())
            .build();
        let hv = Hypervisor::boot_with(config, kind, dram, repairs.clone()).unwrap();
        // The baseline knows nothing of guard rows or repairs.
        let mut offlined = BTreeSet::new();
        if kind == HypervisorKind::Siloz {
            offlined.extend(inter_subarray_repair_frames(hv.decoder(), repairs).unwrap());
            let plan = hv.ept_plan().unwrap();
            offlined.extend(plan.sockets.iter().flat_map(|s| s.guard_frames.iter()));
        }
        Self { hv, offlined }
    }

    /// The owner of the line at `hpa`, by linear scan, in the ledger's
    /// order of precedence.
    fn reference(&self, hpa: u64) -> Owner {
        let hv = &self.hv;
        let frame = frame_of_hpa(hpa);
        let vms = hv.vm_handles();
        for &h in &vms {
            if hv
                .vm_ept_pages(h)
                .unwrap()
                .iter()
                .any(|&p| frame_of_hpa(p) == frame)
            {
                return Owner::Ept(h);
            }
        }
        for &h in &vms {
            let regions = hv.vm_regions(h).unwrap();
            let mut blocks = regions.iter().flat_map(|r| &r.backing);
            if blocks.any(|b| b.frame <= frame && frame < b.frame + b.bytes() / FRAME_BYTES) {
                return Owner::Vm(h);
            }
        }
        if hv.kind() == HypervisorKind::Siloz {
            for &h in &vms {
                let groups = hv.vm_groups(h).unwrap();
                if groups
                    .iter()
                    .any(|&g| hv.groups().group(g).unwrap().contains_frame(frame))
                {
                    return Owner::Vm(h);
                }
            }
        }
        let pools = hv.ept_plan().map_or(&[][..], |p| &p.sockets[..]);
        if pools.iter().any(|s| s.ept_frames.contains(&frame)) {
            Owner::Host
        } else if self.offlined.contains(&frame) {
            Owner::Offlined
        } else {
            Owner::Free
        }
    }

    /// Lines worth checking: uniform ones, an offlined frame and an EPT
    /// pool frame, and each VM's block edges and the frames just outside
    /// them, its EPT pages and its claimed groups.
    fn sample_lines(&self, rng: &mut StdRng) -> Vec<u64> {
        let hv = &self.hv;
        let capacity = hv.decoder().capacity();
        let mut out: Vec<u64> = (0..8).map(|_| rng.gen_range(0..capacity)).collect();
        let offlined: Vec<u64> = self.offlined.iter().copied().collect();
        if !offlined.is_empty() {
            out.push(hpa_of_frame(offlined[rng.gen_range(0..offlined.len())]));
        }
        for pool in hv.ept_plan().iter().flat_map(|p| &p.sockets) {
            out.push(hpa_of_frame(rng.gen_range(pool.ept_frames.clone())));
        }
        for h in hv.vm_handles() {
            let blocks: Vec<_> = (hv.vm_regions(h).unwrap().iter())
                .flat_map(|r| r.backing.iter().copied())
                .collect();
            for _ in 0..3 {
                let b = blocks[rng.gen_range(0..blocks.len())];
                let last = b.frame + b.bytes() / FRAME_BYTES - 1;
                for frame in [b.frame.saturating_sub(1), b.frame, last, last + 1] {
                    out.push(hpa_of_frame(frame) + rng.gen_range(0..FRAME_BYTES));
                }
            }
            let pages = hv.vm_ept_pages(h).unwrap();
            let page = pages[rng.gen_range(0..pages.len())];
            out.push(page + rng.gen_range(0..FRAME_BYTES));
            for g in hv.vm_groups(h).unwrap() {
                let frames = &hv.groups().group(g).unwrap().frames;
                let run = &frames[rng.gen_range(0..frames.len())];
                let frame = rng.gen_range(run.clone());
                out.push(hpa_of_frame(frame) + rng.gen_range(0..FRAME_BYTES));
            }
        }
        out.retain(|&hpa| hpa < capacity);
        out
    }

    /// Checks every sampled line: decode it to media coordinates, ask the
    /// ledger, compare with the reference. Notes each class seen in `seen`.
    fn check(
        &self,
        rng: &mut StdRng,
        step: &str,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<(), TestCaseError> {
        for hpa in self.sample_lines(rng) {
            let m = self.hv.decoder().decode(hpa).unwrap();
            let bank = m.global_bank(self.hv.decoder().geometry());
            let got = self.hv.owner_of(bank, m.row, m.col).unwrap();
            let want = self.reference(hpa);
            prop_assert_eq!(
                got,
                want,
                "{:?} after {}: line at {:#x}",
                self.hv.kind(),
                step,
                hpa
            );
            seen.insert(match want {
                Owner::Vm(_) => "vm",
                Owner::Ept(_) => "ept",
                Owner::Host => "host",
                Owner::Free => "free",
                Owner::Offlined => "offlined",
            });
        }
        Ok(())
    }
}

/// A capacity refusal is an outcome; any other error is a failure.
fn allowed<T>(r: Result<T, SilozError>) -> Result<Option<T>, TestCaseError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.is_capacity() => Ok(None),
        Err(e) => Err(TestCaseError::fail(format!("unexpected: {e}"))),
    }
}

/// One lifecycle step on `host`, drawn from `rng`; returns its name.
fn step(
    host: &mut Host,
    vms: &mut Vec<VmHandle>,
    n: &mut u32,
    rng: &mut StdRng,
) -> Result<String, TestCaseError> {
    let hv = &mut host.hv;
    let pick = |rng: &mut StdRng, vms: &[VmHandle]| vms[rng.gen_range(0..vms.len())];
    let op = if vms.is_empty() {
        0
    } else {
        rng.gen_range(0..8u32)
    };
    match op {
        0..=2 => {
            let mib = rng.gen_range(4..160u64);
            let mut spec = VmSpec::new(&format!("vm{n}"), 1, mib << 20);
            *n += 1;
            if rng.gen_bool(0.25) {
                spec = spec.with_page_size(PageSize::Size4K);
            }
            if rng.gen_bool(0.5) {
                spec.extra_regions.push((MemoryRegionKind::Rom, 64 << 10));
                spec.extra_regions.push((MemoryRegionKind::Mmio, 16 << 10));
            }
            vms.extend(allowed(hv.create_vm(spec))?);
            Ok(format!("create {mib} MiB"))
        }
        3 | 4 => {
            let vm = pick(rng, vms);
            let mib = rng.gen_range(2..64u64);
            allowed(hv.expand_vm(vm, mib << 20))?;
            Ok(format!("expand {vm:?} by {mib} MiB"))
        }
        5 | 6 => {
            let vm = pick(rng, vms);
            let ram = &hv.vm_regions(vm).unwrap()[0];
            let gpa = rng.gen_range(0..ram.bytes);
            allowed(hv.migrate_block(vm, gpa))?;
            Ok(format!("migrate {vm:?} at {gpa:#x}"))
        }
        _ => {
            let vm = vms.remove(rng.gen_range(0..vms.len()));
            hv.destroy_vm(vm).unwrap();
            Ok(format!("destroy {vm:?}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `owner_of` agrees with the reference on every sampled line, after
    /// every step of a random lifecycle, under both hypervisors. Under
    /// Siloz every class of owner is among the lines checked.
    #[test]
    fn owner_of_matches_the_brute_force_reference(seed in any::<u64>(), steps in 4usize..14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = SilozConfig::mini().geometry;
        let repairs = RepairMap::generate(&g, 0.00005, RepairKind::InterSubarray, &mut rng);
        for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
            let mut host = Host::boot(kind, &repairs);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut vms, mut n, mut seen) = (Vec::new(), 0, BTreeSet::new());
            host.check(&mut rng, "boot", &mut seen)?;
            for _ in 0..steps {
                let name = step(&mut host, &mut vms, &mut n, &mut rng)?;
                host.check(&mut rng, &name, &mut seen)?;
            }
            if kind == HypervisorKind::Siloz {
                prop_assert_eq!(seen.len(), 5, "classes seen: {:?}", seen);
            }
        }
    }
}
