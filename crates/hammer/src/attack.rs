//! End-to-end attack harnesses over the hypervisor (§7.1).

use crate::fuzzer::{Blacksmith, FuzzConfig};
use crate::pattern::{AggressorSlot, HammerPattern};
use dram_addr::BankId;
use rand::Rng;
use siloz::{Escapes, FlipsByOwner, Hypervisor, Owner, SilozError, VmHandle};

/// Result of a malicious VM's hammering campaign.
#[derive(Debug, Clone)]
pub struct HammerVmReport {
    /// The hammering VM.
    pub attacker: VmHandle,
    /// Activations issued.
    pub acts: u64,
    /// The campaign's flips, each with the owner of the line it hit.
    pub flips: FlipsByOwner,
}

impl HammerVmReport {
    /// Flips in the attacker's own memory — under Siloz, its domain.
    #[must_use]
    pub fn flips_in_domain(&self) -> usize {
        self.flips.count(Owner::Vm(self.attacker))
    }

    /// Flips anywhere else, by class of owner: inter-VM and host escapes.
    /// Siloz's guarantee is that there are none (Table 3).
    #[must_use]
    pub fn escapes(&self) -> Escapes {
        self.flips.escapes(self.attacker)
    }
}

/// The media rows (per socket) a VM's unmediated memory occupies — the rows
/// it can hammer from.
pub fn vm_rows(hv: &Hypervisor, vm: VmHandle) -> Result<Vec<(u16, Vec<u32>)>, SilozError> {
    let mut per_socket: std::collections::BTreeMap<u16, Vec<u32>> = Default::default();
    for block in hv.vm_unmediated_backing(vm)? {
        let (socket, rows) = hv
            .decoder()
            .row_groups_of_range(block.hpa(), block.bytes())?;
        per_socket.entry(socket).or_default().extend(rows);
    }
    Ok(per_socket
        .into_iter()
        .map(|(s, mut rows)| {
            rows.sort_unstable();
            rows.dedup();
            (s, rows)
        })
        .collect())
}

/// The rows of `bank` a VM can actually activate: rows where at least one
/// of the VM's pages has a cache line. Equals the VM's row set in the
/// common case, but excludes rows whose pages Siloz offlined (e.g. around
/// inter-subarray repairs, §6).
pub fn vm_bank_rows(
    hv: &Hypervisor,
    vm: VmHandle,
    bank: BankId,
    candidate_rows: &[u32],
) -> Result<Vec<u32>, SilozError> {
    let mut owned: Vec<std::ops::Range<u64>> = hv
        .vm_unmediated_backing(vm)?
        .iter()
        .map(|block| block.frame..block.frame + (1u64 << block.order))
        .collect();
    owned.sort_unstable_by_key(|frames| frames.start);
    let decoder = hv.decoder();
    let mut out = Vec::with_capacity(candidate_rows.len());
    for &row in candidate_rows {
        if siloz::artificial::bank_row_touches_frames(decoder, bank, row, &owned)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Runs a Blacksmith campaign from inside a VM: the attacker hammers the
/// rows it owns, in `banks_per_socket` banks of each socket it occupies,
/// spread across the socket's channels ([`hammer_vm_banks`]).
pub fn hammer_vm<R: Rng>(
    hv: &mut Hypervisor,
    vm: VmHandle,
    banks_per_socket: u32,
    config: FuzzConfig,
    rng: &mut R,
) -> Result<HammerVmReport, SilozError> {
    let banks = spread_banks(hv, vm, banks_per_socket)?;
    hammer_vm_banks(hv, vm, &banks, config, rng, None)
}

/// [`hammer_vm`] with a controller-level [`mitigation::Mitigation`] backend
/// live during the campaign: every ACT the attacker issues passes through
/// the defense (attributed to stream `source`, conventionally the tenant
/// id), and injected throttle delays stall it in simulated time. With
/// [`mitigation::NoMitigation`] the report is bit-identical to
/// [`hammer_vm`].
pub fn hammer_vm_defended<R: Rng>(
    hv: &mut Hypervisor,
    vm: VmHandle,
    banks_per_socket: u32,
    config: FuzzConfig,
    rng: &mut R,
    defense: &mut dyn mitigation::Mitigation,
    source: u16,
) -> Result<HammerVmReport, SilozError> {
    let banks = spread_banks(hv, vm, banks_per_socket)?;
    hammer_vm_banks(hv, vm, &banks, config, rng, Some((defense, source)))
}

/// `per` banks of each socket `vm` occupies, spread across the socket's
/// channels: flat bank `7 i mod banks` for the `i`-th.
fn spread_banks(hv: &Hypervisor, vm: VmHandle, per: u32) -> Result<Vec<BankId>, SilozError> {
    let n = hv.decoder().geometry().banks_per_socket();
    let sockets = vm_rows(hv, vm)?.into_iter().map(|(s, _)| u32::from(s) * n);
    Ok(sockets
        .flat_map(|base| (0..per).map(move |i| BankId(base + (i * 7) % n)))
        .collect())
}

/// The attack driver: one Blacksmith campaign from inside `vm`, fuzzing
/// each of `banks` in turn over the rows of it the VM can activate
/// ([`vm_bank_rows`]), with `defense` — a backend and the stream id its
/// ACTs are attributed to — live on every ACT when given. The report holds
/// the flips of the campaign's window of the flip log, by owner.
pub fn hammer_vm_banks<R: Rng>(
    hv: &mut Hypervisor,
    vm: VmHandle,
    banks: &[BankId],
    config: FuzzConfig,
    rng: &mut R,
    mut defense: Option<(&mut dyn mitigation::Mitigation, u16)>,
) -> Result<HammerVmReport, SilozError> {
    let rows = vm_rows(hv, vm)?;
    let g = *hv.decoder().geometry();
    let mut fuzzer = Blacksmith::new(config);
    let mut acts = 0u64;
    let before = hv.dram().flip_log().len();
    for &bank in banks {
        let socket_rows = rows.iter().find(|(s, _)| *s == bank.socket(&g));
        let socket_rows = socket_rows.map_or(&[][..], |(_, r)| r);
        let reachable = vm_bank_rows(hv, vm, bank, socket_rows)?;
        let report = fuzzer.fuzz_with(hv.dram_mut(), bank, &reachable, rng, &mut defense);
        acts += report.acts;
    }
    Ok(HammerVmReport {
        attacker: vm,
        acts,
        flips: hv.flips_by_owner(before)?,
    })
}

/// Most aggressors of one edge-sweep pattern.
pub const EDGE_SIDES: usize = 12;

/// The rows of `bank` the edge sweep hammers from inside `vm`, ascending:
/// every other row down from the top of its [`vm_bank_rows`], at most
/// [`EDGE_SIDES`].
pub fn edge_rows(hv: &Hypervisor, vm: VmHandle, bank: BankId) -> Result<Vec<u32>, SilozError> {
    let socket = bank.socket(hv.decoder().geometry());
    let rows = vm_rows(hv, vm)?.into_iter().find(|(s, _)| *s == socket);
    let reachable = vm_bank_rows(hv, vm, bank, &rows.unwrap_or_default().1)?;
    let top = &reachable[reachable.len().saturating_sub(2 * EDGE_SIDES - 1)..];
    Ok(top.iter().rev().step_by(2).rev().copied().collect())
}

/// The edge sweep: in each of `banks`, one pattern over the VM's
/// [`edge_rows`], where on an unmodified host a neighbour's rows may share
/// the subarray (Flip-Feng-Shui-style), at every phase rotation every time:
/// the boundary aggressor's phase relative to REF decides whether TRR
/// samples it, and the attacker cannot see where its flips land. The
/// report holds the sweep's own window of the flip log, by owner.
pub fn hammer_vm_edge(
    hv: &mut Hypervisor,
    vm: VmHandle,
    banks: &[BankId],
    config: FuzzConfig,
) -> Result<HammerVmReport, SilozError> {
    let (fuzzer, mut acts) = (Blacksmith::new(config), 0);
    let before = hv.dram().flip_log().len();
    for &bank in banks {
        let rows = edge_rows(hv, vm, bank)?;
        for rot in 0..rows.len() {
            let slots = (0..rows.len()).map(|i| AggressorSlot {
                row: rows[i],
                frequency: 1,
                phase: ((i + rot) % rows.len()) as u32,
                amplitude: 1,
            });
            let pattern = HammerPattern::from_slots(slots.collect());
            fuzzer.hammer(hv.dram_mut(), bank, &pattern, &mut acts);
        }
    }
    Ok(HammerVmReport {
        attacker: vm,
        acts,
        flips: hv.flips_by_owner(before)?,
    })
}

/// Verifies a VM's EPT still translates every mapped block to its recorded
/// backing (no silent redirection, no integrity violation) — the §5.4
/// property the guard rows protect.
pub fn verify_ept_intact(hv: &mut Hypervisor, vm: VmHandle) -> Result<bool, SilozError> {
    let blocks = hv.vm_unmediated_backing(vm)?;
    for block in blocks {
        match hv.translate(vm, block.gpa) {
            Ok(t) => {
                if t.hpa != block.hpa() {
                    return Ok(false);
                }
            }
            Err(SilozError::Ept(ept::EptError::IntegrityViolation { .. })) => return Ok(false),
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use siloz::{HypervisorKind, SilozConfig, VmSpec};

    fn quick_cfg() -> FuzzConfig {
        FuzzConfig {
            patterns: 6,
            periods_per_attempt: 60_000,
            extra_open_ns: 0,
        }
    }

    #[test]
    fn siloz_contains_hammering_to_the_vm_domain() {
        // The Table 3 result, end to end: a malicious VM flips bits in its
        // own subarray groups but never outside them.
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, 256 << 20)).unwrap();
        let _victim = hv.create_vm(VmSpec::new("victim", 2, 256 << 20)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = hammer_vm(&mut hv, attacker, 2, quick_cfg(), &mut rng).unwrap();
        assert!(
            !report.flips.is_empty(),
            "attack must succeed inside the domain"
        );
        assert_eq!(
            report.escapes(),
            Escapes::default(),
            "Siloz must contain flips"
        );
        assert_eq!(report.flips_in_domain(), report.flips.len());
    }

    #[test]
    fn baseline_leaks_flips_across_domains() {
        // On the baseline, the attacker's rows share subarrays with other
        // memory: hammering the attacker's own edge rows flips the rows
        // above them. The host allocates the attacker's EPT tables right
        // after its RAM, then the victim's RAM at the next 2 MiB boundary,
        // so the nearest neighbour is the attacker's own EPT page (§5.4).
        // TRR is disabled to isolate the allocation-policy property (TRR
        // evasion is covered by the fuzzer tests).
        let cfg = SilozConfig::mini();
        let dram = dram::DramSystemBuilder::new(cfg.geometry).trr(0, 0).build();
        let mut hv = Hypervisor::boot_with(
            cfg,
            HypervisorKind::Baseline,
            dram,
            dram_addr::RepairMap::new(),
        )
        .unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, 64 << 20)).unwrap();
        let _victim = hv.create_vm(VmSpec::new("victim", 2, 64 << 20)).unwrap();
        // The attacker owns rows [0, 128), all in the 256-row subarray 0.
        // Hammer its topmost rows.
        let rows = vm_rows(&hv, attacker).unwrap();
        let top = *rows[0].1.last().unwrap();
        assert!(top < 256, "the attacker's edge shares subarray 0");
        let pattern = crate::pattern::HammerPattern::n_sided(top - 14, 8);
        assert!(pattern.rows().iter().all(|r| rows[0].1.contains(r)));
        // Hammer several banks: each bank has its own weak-cell population
        // and polarity layout, so boundary flips appear in some of them.
        let fuzzer = Blacksmith::new(quick_cfg());
        let mut acts = 0;
        let mut flipped = false;
        for bank in 0..8 {
            flipped |= fuzzer.hammer(hv.dram_mut(), dram_addr::BankId(bank), &pattern, &mut acts);
        }
        assert!(flipped, "attack must flip bits");
        let flips = hv.flips_by_owner(0).unwrap();
        let escapes = flips.escapes(attacker);
        assert!(
            escapes.ept > 0,
            "baseline co-location must leak flips into the EPT page: {escapes}"
        );
        // The escaped flips landed beyond the attacker's topmost row.
        assert!(flips.outside(attacker).all(|(f, _)| f.media_row > top));
    }

    #[test]
    fn defended_hammer_vm_with_none_matches_undefended() {
        let run = |defended: bool| {
            let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
            let vm = hv.create_vm(VmSpec::new("attacker", 2, 128 << 20)).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            if defended {
                let mut noop = mitigation::NoMitigation::new();
                hammer_vm_defended(&mut hv, vm, 2, quick_cfg(), &mut rng, &mut noop, 5).unwrap()
            } else {
                hammer_vm(&mut hv, vm, 2, quick_cfg(), &mut rng).unwrap()
            }
        };
        let plain = run(false);
        let defended = run(true);
        assert_eq!(plain.acts, defended.acts);
        assert_eq!(plain.flips, defended.flips);
    }

    #[test]
    fn blockhammer_defends_the_shared_baseline() {
        // The arena's core claim in miniature: on the *baseline* hypervisor
        // (no isolation domains), a BlockHammer hook at the controller
        // contains a campaign that otherwise escapes across VM boundaries.
        let run = |defense: Option<&mut dyn mitigation::Mitigation>| {
            let cfg = SilozConfig::mini();
            let dram = dram::DramSystemBuilder::new(cfg.geometry).trr(0, 0).build();
            let mut hv = Hypervisor::boot_with(
                cfg,
                HypervisorKind::Baseline,
                dram,
                dram_addr::RepairMap::new(),
            )
            .unwrap();
            let attacker = hv.create_vm(VmSpec::new("attacker", 2, 64 << 20)).unwrap();
            let _victim = hv.create_vm(VmSpec::new("victim", 2, 64 << 20)).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            match defense {
                Some(d) => {
                    hammer_vm_defended(&mut hv, attacker, 4, quick_cfg(), &mut rng, d, 1).unwrap()
                }
                None => hammer_vm(&mut hv, attacker, 4, quick_cfg(), &mut rng).unwrap(),
            }
        };
        let undefended = run(None);
        assert!(!undefended.flips.is_empty(), "baseline attack must flip");
        let mut bh = mitigation::BlockHammer::new();
        let defended = run(Some(&mut bh));
        assert!(
            defended.flips.len() < undefended.flips.len(),
            "BlockHammer must suppress flips: {} vs {}",
            defended.flips.len(),
            undefended.flips.len()
        );
    }

    #[test]
    fn vm_rows_cover_exactly_the_provisioned_groups() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let vm = hv.create_vm(VmSpec::new("a", 2, 256 << 20)).unwrap();
        let rows = vm_rows(&hv, vm).unwrap();
        assert_eq!(rows.len(), 1);
        let (socket, rows) = &rows[0];
        assert_eq!(*socket, 0);
        let groups = hv.vm_groups(vm).unwrap();
        let expected: usize = groups
            .iter()
            .map(|g| {
                let info = hv.groups().group(*g).unwrap();
                (info.rows.end - info.rows.start) as usize
            })
            .sum();
        assert_eq!(rows.len(), expected);
    }

    /// [`vm_bank_rows`] as it was first written: every frame the VM owns in
    /// a hash set, every candidate row's frames listed in full.
    fn vm_bank_rows_by_frame_set(
        hv: &Hypervisor,
        vm: VmHandle,
        bank: BankId,
        candidate_rows: &[u32],
    ) -> Vec<u32> {
        let mut frames = std::collections::HashSet::new();
        for block in hv.vm_unmediated_backing(vm).unwrap() {
            frames.extend(block.frame..block.frame + (block.bytes() / 4096));
        }
        candidate_rows
            .iter()
            .copied()
            .filter(|&row| {
                siloz::artificial::frames_touching_bank_row(hv.decoder(), bank, row)
                    .unwrap()
                    .iter()
                    .any(|f| frames.contains(f))
            })
            .collect()
    }

    #[test]
    fn vm_bank_rows_matches_the_frame_set_definition() {
        let same = |hv: &Hypervisor, vm: VmHandle, bank: BankId, candidates: &[u32]| {
            let reachable = vm_bank_rows(hv, vm, bank, candidates).unwrap();
            assert_eq!(
                reachable,
                vm_bank_rows_by_frame_set(hv, vm, bank, candidates),
                "{bank:?}"
            );
            reachable
        };

        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let _other = hv.create_vm(VmSpec::new("other", 2, 128 << 20)).unwrap();
        let vm = hv.create_vm(VmSpec::new("a", 2, 192 << 20)).unwrap();
        let (_, socket_rows) = &vm_rows(&hv, vm).unwrap()[0];
        for bank in [BankId(0), BankId(7), BankId(15)] {
            assert_eq!(same(&hv, vm, bank, socket_rows), *socket_rows);
        }

        // Evaluation host with one row of the first guest group repaired
        // into another subarray: the pages holding a line of that (bank,
        // row) are offlined (§6) — a third of its row group there (on the
        // mini machine it would be the whole row group) — so a 4 KiB-paged
        // guest owns the rest of the row group and the row stays a
        // candidate. It is the one candidate for which the answer is "no"
        // and every line is walked.
        let cfg = SilozConfig::evaluation();
        let g = cfg.geometry;
        let repaired_bank = BankId(7);
        let repaired_row = cfg.presumed_subarray_rows + 5;
        let mut repairs = dram_addr::RepairMap::new();
        repairs.insert(
            repaired_bank,
            repaired_row,
            3 * cfg.presumed_subarray_rows + 9,
        );
        let dram = dram::DramSystemBuilder::new(g)
            .repairs(repairs.clone())
            .build();
        let mut hv = Hypervisor::boot_with(cfg, HypervisorKind::Siloz, dram, repairs).unwrap();
        let paged = VmSpec::new("paged", 2, 64 << 20).with_page_size(ept::PageSize::Size4K);
        let vm = hv.create_vm(paged).unwrap();
        let (_, socket_rows) = &vm_rows(&hv, vm).unwrap()[0];
        assert!(socket_rows.contains(&repaired_row));
        // Bank 0's lines of that row share the offlined pages (a 4 KiB page
        // holds 64 lines cycling 64 of the socket's 192 banks).
        for (bank, owns) in [
            (0, false),
            (repaired_bank.0, false),
            (100, true),
            (191, true),
        ] {
            assert_eq!(
                same(&hv, vm, BankId(bank), socket_rows).contains(&repaired_row),
                owns,
                "bank {bank}"
            );
        }

        // A guest large enough to span groups, on whichever sockets it got.
        let vm = hv.create_vm(VmSpec::new("big", 4, 3 << 29)).unwrap();
        for (socket, socket_rows) in vm_rows(&hv, vm).unwrap() {
            for flat in [0, 7, g.banks_per_socket() - 1] {
                let bank = BankId(socket as u32 * g.banks_per_socket() + flat);
                assert!(!same(&hv, vm, bank, &socket_rows).is_empty());
            }
        }
    }

    #[test]
    fn ept_stays_intact_under_vm_hammering_with_siloz() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, 128 << 20)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let _ = hammer_vm(&mut hv, attacker, 2, quick_cfg(), &mut rng).unwrap();
        assert!(verify_ept_intact(&mut hv, attacker).unwrap());
    }
}
