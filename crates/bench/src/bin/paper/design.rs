//! The one experiment driver for the security verdicts. A [`Design`] is
//! fixed before any run and printed first, then one row per (arm, size,
//! seed) cell, then each arm's verdict, so a changed seed or size set
//! shows in the diff of the pinned output. Each cell boots its
//! own host and runs the campaign from an attacker VM beside a victim VM
//! of the same size. A predicate that fails in any cell of its arm fails
//! the artifact.

use bench::Scale;
use dram::{DimmProfile, DramSystemBuilder};
use dram_addr::{BankId, RepairMap};
use hammer::{attack::EDGE_SIDES, FuzzConfig};
use rand::SeedableRng;
use siloz::{Escapes, Hypervisor, HypervisorKind, Owner, VmSpec};
use sim::Run;

/// One arm: a hypervisor, and a predicate every one of its cells must meet.
pub struct Arm {
    pub label: &'static str,
    pub kind: HypervisorKind,
    /// The predicate, as printed.
    pub claim: &'static str,
    pub holds: fn(&Cell) -> bool,
}

/// An experiment fixed in advance.
pub struct Design {
    pub title: &'static str,
    pub arms: &'static [Arm],
    /// Attacker and victim size, each in thirds of a subarray group.
    pub thirds: &'static [u64],
    pub seeds: &'static [u64],
    /// The budget of the campaign: `hammer_vm_banks` over one bank per
    /// channel of socket 0, then the edge sweep.
    pub campaign: fn(Scale) -> FuzzConfig,
}

/// One (arm, size, seed) cell's flips: the attacker's own, and the rest
/// by owner (`other_vms` are the victim's, the only other VM).
pub struct Cell {
    pub arm: usize,
    pub thirds: u64,
    pub seed: u64,
    pub own: usize,
    pub escapes: Escapes,
}

/// A size in thirds of a group, in groups: `2/3`, `1`, `4/3`.
fn groups(thirds: u64) -> String {
    match thirds % 3 {
        0 => (thirds / 3).to_string(),
        _ => format!("{thirds}/3"),
    }
}

/// Every cell of `design`, ordered by arm, then size, then seed.
pub fn cells(design: &Design, scale: Scale, run: &Run) -> Vec<Cell> {
    let (sizes, seeds) = (design.thirds.len(), design.seeds.len());
    let n = design.arms.len() * sizes * seeds;
    sim::run_cells(n, run.threads, &run.reg.child("engine"), |idx| {
        let (arm, seed) = (idx / (sizes * seeds), design.seeds[idx % seeds]);
        let thirds = design.thirds[idx / seeds % sizes];
        let config = scale.config();
        let bytes = config.subarray_group_bytes() * thirds / 3;
        let dram = DramSystemBuilder::new(config.geometry)
            .profiles(DimmProfile::evaluation_dimms())
            .trr(4, 2)
            .build();
        let kind = design.arms[arm].kind;
        let mut hv = Hypervisor::boot_with(config, kind, dram, RepairMap::new()).unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, bytes)).unwrap();
        hv.create_vm(VmSpec::new("victim", 2, bytes)).unwrap();
        // One bank per channel of socket 0: flat bank index == channel.
        let channels = 0..hv.decoder().geometry().channels_per_socket;
        let banks: Vec<BankId> = channels.map(|c| BankId(c.into())).collect();
        let fuzz = (design.campaign)(scale);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        hammer::hammer_vm_banks(&mut hv, attacker, &banks, fuzz, &mut rng, None).unwrap();
        hammer::hammer_vm_edge(&mut hv, attacker, &banks, fuzz).unwrap();
        let reg = run.reg.child(design.arms[arm].label);
        hv.dram().export_telemetry(&reg.child("dram"));
        hv.export_telemetry(&reg.child("hv"));
        let flips = hv.flips_by_owner(0).unwrap();
        Cell {
            arm,
            thirds,
            seed,
            own: flips.count(Owner::Vm(attacker)),
            escapes: flips.escapes(attacker),
        }
    })
}

/// Each arm's cells its predicate fails, in arm order.
fn failing<'a>(design: &Design, cells: &'a [Cell]) -> Vec<Vec<&'a Cell>> {
    let fails = |i: usize, c: &Cell| c.arm == i && !(design.arms[i].holds)(c);
    let arm = |i| cells.iter().filter(|c| fails(i, c)).collect();
    (0..design.arms.len()).map(arm).collect()
}

/// Prints `design`, runs it, prints each cell and each arm's verdict.
///
/// # Panics
/// If any arm's predicate fails in any of its cells.
pub fn run(design: &Design, scale: Scale, run: &Run) {
    let (config, fuzz) = (scale.config(), (design.campaign)(scale));
    let sizes: Vec<String> = design.thirds.iter().map(|&t| groups(t)).collect();
    let seeds: Vec<String> = design.seeds.iter().map(u64::to_string).collect();
    println!("{}\n\nDesign, fixed before any run:", design.title);
    println!("  host      {}", config.geometry);
    println!("            DIMMs A-F, TRR (4, 2), no repairs");
    println!(
        "  VMs       attacker, then victim, of one size in {} MiB subarray groups: {}",
        config.subarray_group_bytes() >> 20,
        sizes.join(", ")
    );
    println!("  seeds     {}", seeds.join(", "));
    println!(
        "  campaign  hammer_vm_banks over one bank per channel of socket 0, {} patterns x \
         {} periods;\n            then the {EDGE_SIDES}-sided edge sweep at every phase rotation",
        fuzz.patterns, fuzz.periods_per_attempt
    );
    for arm in design.arms {
        println!("  {:<9} {:?} host: {}", arm.label, arm.kind, arm.claim);
    }

    let cells = cells(design, scale, run);
    let header = "arm        size  seed Vm(attacker)   Vm(victim)          Ept         Host         Free     Offlined";
    println!("\n{header}");
    for c in &cells {
        let e = &c.escapes;
        let counts = [c.own, e.other_vms, e.ept, e.host, e.free, e.offlined];
        let counts: String = counts.iter().map(|n| format!("{n:>13}")).collect();
        let label = design.arms[c.arm].label;
        println!("{label:<9} {:>5} {:>5}{counts}", groups(c.thirds), c.seed);
    }

    println!();
    let mut green = true;
    for (arm, failed) in design.arms.iter().zip(failing(design, &cells)) {
        let at: Vec<String> = (failed.iter())
            .map(|c| format!("{} seed {}", groups(c.thirds), c.seed))
            .collect();
        match at.is_empty() {
            true => println!("{} verdict: GREEN", arm.label),
            false => println!("{} verdict: RED at {}", arm.label, at.join("; ")),
        }
        green &= at.is_empty();
    }
    assert!(green, "{}: a verdict is red", design.title);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table3_containment::TABLE3;

    /// Table 3's design on the mini host at quick scale, at one seed and
    /// the two sizes either side of the contrast.
    const MINI: Design = Design {
        thirds: &[2, 3],
        seeds: &[1],
        ..TABLE3
    };

    /// Whether each arm's predicate holds in every one of its cells.
    fn verdicts(design: &Design, cells: &[Cell]) -> Vec<bool> {
        failing(design, cells).iter().map(Vec::is_empty).collect()
    }

    #[test]
    fn the_baseline_leaks_where_a_group_is_split_and_siloz_nowhere() {
        let cells = cells(&MINI, Scale::Quick, &Run::with_threads(2));
        let [split, whole, siloz_split, siloz_whole] = &cells[..] else {
            panic!("{} cells", cells.len());
        };
        assert!(split.escapes.other_vms > 0);
        assert_eq!(whole.escapes.other_vms, 0);
        assert_eq!(siloz_split.escapes.total() + siloz_whole.escapes.total(), 0);
        assert_eq!(verdicts(&MINI, &cells), [true, true]);

        // Each arm booted as the other.
        const SWAPPED: [Arm; 2] = [
            Arm {
                kind: HypervisorKind::Siloz,
                ..TABLE3.arms[0]
            },
            Arm {
                kind: HypervisorKind::Baseline,
                ..TABLE3.arms[1]
            },
        ];
        let swapped = Design {
            arms: &SWAPPED,
            ..MINI
        };
        let cells = super::cells(&swapped, Scale::Quick, &Run::with_threads(2));
        assert_eq!(verdicts(&swapped, &cells), [false, false]);
    }

    #[test]
    fn the_edge_sweep_hammers_the_vms_own_rows_and_reports_its_own_window() {
        let config = Scale::Quick.config();
        let bytes = config.subarray_group_bytes() * 2 / 3;
        let mut hv = Hypervisor::boot(config, HypervisorKind::Baseline).unwrap();
        let attacker = hv.create_vm(VmSpec::new("attacker", 2, bytes)).unwrap();
        hv.create_vm(VmSpec::new("victim", 2, bytes)).unwrap();
        let banks = [BankId(0), BankId(1)];
        let (_, rows) = &hammer::vm_rows(&hv, attacker).unwrap()[0];
        for &bank in &banks {
            let edge = hammer::edge_rows(&hv, attacker, bank).unwrap();
            let reachable = hammer::vm_bank_rows(&hv, attacker, bank, rows).unwrap();
            assert_eq!(edge.len(), EDGE_SIDES);
            assert!(edge.iter().all(|row| reachable.contains(row)), "{bank:?}");
        }

        let fuzz = (TABLE3.campaign)(Scale::Quick);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let campaign =
            hammer::hammer_vm_banks(&mut hv, attacker, &banks, fuzz, &mut rng, None).unwrap();
        let sweep = hammer::hammer_vm_edge(&mut hv, attacker, &banks, fuzz).unwrap();
        assert!(!campaign.flips.is_empty() && !sweep.flips.is_empty());
        let log = hv.dram().flip_log().all();
        let window = &log[campaign.flips.len()..];
        assert!(sweep.flips.flips().iter().map(|(f, _)| f).eq(window));
    }
}
