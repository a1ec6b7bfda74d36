//! Regenerates **Table 3**: Siloz contains bit flips to the hammering
//! domain's subarray group, across DIMMs A-F (§7.1).
//!
//! A Blacksmith campaign runs pinned to a VM's subarray groups under Siloz;
//! the owner ledger classifies each flip per DIMM as inside the attacker's
//! memory (its groups) or outside it. A baseline section then shows
//! whether the same campaign escapes without Siloz: its verdict asks
//! whether any flip hit the victim's lines.

use bench::Scale;
use dram::{DimmProfile, DramSystemBuilder};
use dram_addr::{BankId, RepairMap};
use hammer::{Blacksmith, FuzzConfig};
use rand::SeedableRng;
use siloz::{Hypervisor, HypervisorKind, Owner, SilozConfig, VmSpec};
use sim::Run;

fn fuzz_cfg(scale: Scale) -> FuzzConfig {
    match scale {
        Scale::Quick => FuzzConfig {
            patterns: 6,
            periods_per_attempt: 80_000,
            extra_open_ns: 0,
        },
        Scale::Full => FuzzConfig {
            patterns: 10,
            periods_per_attempt: 150_000,
            extra_open_ns: 0,
        },
    }
}

/// Hammers one bank per channel of socket 0 from inside the VM; returns
/// per-DIMM (inside, outside) flip counts: flips on the VM's own lines and
/// flips anywhere else.
fn campaign(
    hv: &mut Hypervisor,
    vm: siloz::VmHandle,
    scale: Scale,
    seed: u64,
) -> Vec<(String, usize, usize)> {
    let g = *hv.decoder().geometry();
    // One bank per channel: flat bank index == channel index (channel-major).
    let banks: Vec<BankId> = (0..g.channels_per_socket)
        .map(|channel| BankId(channel.into()))
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let report =
        hammer::hammer_vm_banks(hv, vm, &banks, fuzz_cfg(scale), &mut rng, None).expect("campaign");
    banks
        .iter()
        .map(|&bank| {
            let name = hv.dram().profile_for(bank).name.to_string();
            let channel = bank.to_media(&g).channel;
            let (inside, outside): (Vec<&_>, Vec<&_>) = (report.flips.flips().iter())
                .filter(|(f, _)| f.bank.socket(&g) == 0 && f.bank.to_media(&g).channel == channel)
                .partition(|(_, owner)| *owner == Owner::Vm(vm));
            (name, inside.len(), outside.len())
        })
        .collect()
}

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let vm_mem = match scale {
        Scale::Quick => 256 << 20,
        Scale::Full => 3 << 30,
    };

    println!(
        "Table 3: bit-flip containment per DIMM (Blacksmith pinned to a Siloz subarray group)"
    );
    let mut hv = boot(config.clone(), HypervisorKind::Siloz);
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, vm_mem)).unwrap();
    let _victim = hv.create_vm(VmSpec::new("victim", 2, vm_mem)).unwrap();
    let table = campaign(&mut hv, attacker, scale, 1);
    println!(
        "\n{:<26} {}",
        "",
        table
            .iter()
            .map(|(n, _, _)| format!("{n:>8}"))
            .collect::<String>()
    );
    print!("{:<26}", "Inside Subarray Group");
    for (_, inside, _) in &table {
        print!(
            "{:>8}",
            if *inside > 0 {
                format!("yes({inside})")
            } else {
                "none".into()
            }
        );
    }
    println!();
    print!("{:<26}", "Outside Subarray Group");
    let mut any_escape = false;
    for (_, _, outside) in &table {
        any_escape |= *outside > 0;
        print!(
            "{:>8}",
            if *outside > 0 {
                format!("YES({outside})")
            } else {
                "NO".into()
            }
        );
    }
    println!();
    println!(
        "\nSiloz verdict: {}",
        if any_escape {
            "ESCAPES DETECTED (unexpected!)"
        } else {
            "all flips contained to the hammering domain's subarray groups"
        }
    );
    hv.dram()
        .export_telemetry(&run.reg.child("siloz").child("dram"));
    hv.export_telemetry(&run.reg.child("siloz").child("hv"));

    println!(
        "\n-- Baseline comparison (same campaign + boundary targeting, unmodified allocation) --"
    );
    let mut hv = boot(config, HypervisorKind::Baseline);
    let attacker = hv.create_vm(VmSpec::new("attacker", 2, vm_mem)).unwrap();
    let victim = hv.create_vm(VmSpec::new("victim", 2, vm_mem)).unwrap();
    let table = campaign(&mut hv, attacker, scale, 1);
    // A realistic attacker additionally targets the edges of its own row
    // ranges (Flip-Feng-Shui-style), where victims' rows abut in the same
    // subarray — the co-location the baseline cannot prevent.
    let rows = hammer::attack::vm_rows(&hv, attacker).unwrap();
    let (_, socket_rows) = &rows[0];
    let top = *socket_rows.last().unwrap();
    let fuzzer = Blacksmith::new(fuzz_cfg(scale));
    let g = *hv.decoder().geometry();
    // Sweep aggressor phases as Blacksmith does: the phase of the boundary
    // aggressor relative to REF commands decides whether TRR samples it.
    let n = 12u32;
    for rot in 0..n {
        let slots: Vec<hammer::pattern::AggressorSlot> = (0..n)
            .map(|i| hammer::pattern::AggressorSlot {
                row: top - 2 * (n - 1 - i),
                frequency: 1,
                phase: (i + rot) % n,
                amplitude: 1,
            })
            .collect();
        let edge = hammer::pattern::HammerPattern::from_slots(slots);
        for channel in 0..g.channels_per_socket {
            let mut acts = 0u64;
            let _ = fuzzer.hammer(hv.dram_mut(), BankId(channel as u32), &edge, &mut acts);
        }
        // The fuzzer stops at the first effective pattern.
        if hv.flips_by_owner(0).unwrap().escapes(attacker).total() > 0 {
            break;
        }
    }
    let flips = hv.flips_by_owner(0).unwrap();
    let inside: usize = table.iter().map(|(_, i, _)| i).sum();
    println!(
        "baseline: {} flips inside the attacker's own rows, {} flips OUTSIDE \
         (co-located tenants are exposed)",
        inside,
        flips.escapes(attacker).total()
    );
    let mut on_victim = flips
        .flips()
        .iter()
        .filter(|(_, o)| *o == Owner::Vm(victim));
    match on_victim.next() {
        None => println!("baseline verdict: no escapes at this scale — rerun without --quick"),
        Some((f, _)) => println!(
            "baseline verdict: INTER-VM FLIPS OCCURRED (e.g. row {} of bank {:?})",
            f.media_row, f.bank
        ),
    }
    hv.dram()
        .export_telemetry(&run.reg.child("baseline").child("dram"));
    hv.export_telemetry(&run.reg.child("baseline").child("hv"));
}

fn boot(config: SilozConfig, kind: HypervisorKind) -> Hypervisor {
    let dram = DramSystemBuilder::new(config.geometry)
        .profiles(DimmProfile::evaluation_dimms())
        .trr(4, 2)
        .build();
    Hypervisor::boot_with(config, kind, dram, RepairMap::new()).expect("boot")
}
