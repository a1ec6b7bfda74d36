//! `silozctl` — an operator console for the Siloz hypervisor.
//!
//! Reads commands from the command line (`--`-separated) or stdin, one per
//! line, against a freshly-booted hypervisor:
//!
//! ```text
//! silozctl [--eval] [--baseline]          # defaults: mini machine, Siloz
//!
//! commands:
//!   topology                    list NUMA nodes
//!   groups [N]                  show the first N subarray groups per socket
//!   ept                         show the EPT guard plan
//!   vm create <name> <MiB>      create a VM
//!   vm list                     list VMs with their groups
//!   vm expand <name> <MiB>      hotplug memory
//!   vm destroy <name>           destroy a VM
//!   write <name> <gpa> <text>   write guest memory
//!   read <name> <gpa> <len>     read guest memory
//!   translate <name> <gpa>      walk the EPT
//!   attack <name>               run a Blacksmith campaign from the VM
//!   audit                       verify all isolation invariants
//!   quit                        exit
//! ```
//!
//! Example: `cargo run --bin silozctl -- vm create web 96 -- vm list -- attack web`

use siloz_repro::hammer::{hammer_vm, FuzzConfig};
use siloz_repro::siloz::{Hypervisor, HypervisorKind, SilozConfig, VmHandle, VmSpec};
use std::collections::HashMap;
use std::io::BufRead;

/// Mutable console state.
struct Console {
    hv: Hypervisor,
    vms: HashMap<String, VmHandle>,
    rng: rand::rngs::StdRng,
}

impl Console {
    fn new(eval: bool, baseline: bool) -> Self {
        let config = if eval {
            SilozConfig::evaluation()
        } else {
            SilozConfig::mini()
        };
        let kind = if baseline {
            HypervisorKind::Baseline
        } else {
            HypervisorKind::Siloz
        };
        let hv = Hypervisor::boot(config, kind).expect("boot");
        use rand::SeedableRng;
        Self {
            hv,
            vms: HashMap::new(),
            rng: rand::rngs::StdRng::seed_from_u64(0xc0_5013),
        }
    }

    /// Executes one command line; returns false on `quit`.
    fn run(&mut self, line: &str) -> bool {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => {}
            ["quit" | "exit"] => return false,
            ["help"] => println!("see silozctl --help header comment"),
            ["topology"] => self.topology(),
            ["groups"] => self.groups(4),
            ["groups", n] => self.groups(n.parse().unwrap_or(4)),
            ["ept"] => self.ept(),
            ["vm", "create", name, mib] => self.vm_create(name, mib),
            ["vm", "list"] => self.vm_list(),
            ["vm", "expand", name, mib] => self.vm_expand(name, mib),
            ["vm", "destroy", name] => self.vm_destroy(name),
            ["write", name, gpa, rest @ ..] => self.write(name, gpa, &rest.join(" ")),
            ["read", name, gpa, len] => self.read(name, gpa, len),
            ["translate", name, gpa] => self.translate(name, gpa),
            ["attack", name] => self.attack(name),
            ["audit"] => self.audit(),
            other => println!("?unknown command: {other:?} (try `help`)"),
        }
        true
    }

    fn topology(&self) {
        let topo = self.hv.topology();
        println!(
            "{} NUMA nodes ({:?} hypervisor):",
            topo.len(),
            self.hv.kind()
        );
        for info in topo.nodes() {
            let free = topo.free_frames(info.id).unwrap_or(0) * 4096;
            println!(
                "  node {:>3}: socket {} {:>11} {:>8} MiB free {:>6}",
                info.id.0,
                info.socket,
                if info.is_memory_only() {
                    "memory-only"
                } else {
                    "cpu+memory"
                },
                free >> 20,
                if self.hv.host_nodes().contains(&info.id) {
                    "[host]"
                } else {
                    ""
                },
            );
        }
    }

    fn groups(&self, n: usize) {
        for socket in 0..self.hv.config().geometry.sockets {
            println!("socket {socket}:");
            for info in self.hv.groups().groups_on_socket(socket).take(n) {
                println!(
                    "  group {:>4}: rows [{:>6}, {:>6})  {:>6} MiB  node {:?}",
                    info.id.0,
                    info.rows.start,
                    info.rows.end,
                    info.bytes() >> 20,
                    self.hv.node_of_group(info.id),
                );
            }
        }
    }

    fn ept(&self) {
        match self.hv.ept_plan() {
            Some(plan) => {
                println!("EPT guard plan: b = {}, o = {}", plan.b, plan.o);
                for sp in &plan.sockets {
                    println!(
                        "  socket {}: rows [{}, {}) reserved, EPT row {}, {} guard frames",
                        sp.socket,
                        sp.block_rows.start,
                        sp.block_rows.end,
                        sp.ept_row,
                        sp.guard_frames.len()
                    );
                }
            }
            None => println!("no guard plan (secure EPT or unprotected)"),
        }
    }

    fn vm_create(&mut self, name: &str, mib: &str) {
        let Ok(mib) = mib.parse::<u64>() else {
            println!("?bad size");
            return;
        };
        match self.hv.create_vm(VmSpec::new(name, 2, mib << 20)) {
            Ok(vm) => {
                self.vms.insert(name.to_string(), vm);
                println!(
                    "created {name} ({mib} MiB) in groups {:?}",
                    self.hv.vm_groups(vm).unwrap_or_default()
                );
            }
            Err(e) => println!("?create failed: {e}"),
        }
    }

    fn vm_list(&self) {
        for (name, &vm) in &self.vms {
            let groups = self.hv.vm_groups(vm).unwrap_or_default();
            let bytes: u64 = self
                .hv
                .vm_unmediated_backing(vm)
                .map(|b| b.iter().map(|x| x.bytes()).sum())
                .unwrap_or(0);
            println!(
                "  {name}: {} MiB across {} group(s) {:?}",
                bytes >> 20,
                groups.len(),
                groups
            );
        }
        if self.vms.is_empty() {
            println!("  (no VMs)");
        }
    }

    fn vm_expand(&mut self, name: &str, mib: &str) {
        let (Some(&vm), Ok(mib)) = (self.vms.get(name), mib.parse::<u64>()) else {
            println!("?unknown vm or bad size");
            return;
        };
        match self.hv.expand_vm(vm, mib << 20) {
            Ok(()) => println!(
                "expanded {name} by {mib} MiB; groups now {:?}",
                self.hv.vm_groups(vm).unwrap_or_default()
            ),
            Err(e) => println!("?expand failed: {e}"),
        }
    }

    fn vm_destroy(&mut self, name: &str) {
        match self.vms.remove(name) {
            Some(vm) => match self.hv.destroy_vm(vm) {
                Ok(()) => println!("destroyed {name}"),
                Err(e) => println!("?destroy failed: {e}"),
            },
            None => println!("?unknown vm {name}"),
        }
    }

    fn parse_gpa(gpa: &str) -> Option<u64> {
        let gpa = gpa.trim_start_matches("0x");
        u64::from_str_radix(gpa, 16).ok()
    }

    fn write(&mut self, name: &str, gpa: &str, text: &str) {
        let (Some(&vm), Some(gpa)) = (self.vms.get(name), Self::parse_gpa(gpa)) else {
            println!("?unknown vm or bad gpa");
            return;
        };
        match self.hv.guest_write(vm, gpa, text.as_bytes()) {
            Ok(()) => println!("wrote {} bytes at {gpa:#x}", text.len()),
            Err(e) => println!("?write failed: {e}"),
        }
    }

    fn read(&mut self, name: &str, gpa: &str, len: &str) {
        let (Some(&vm), Some(gpa), Ok(len)) = (
            self.vms.get(name),
            Self::parse_gpa(gpa),
            len.parse::<usize>(),
        ) else {
            println!("?unknown vm, bad gpa, or bad len");
            return;
        };
        match self.hv.guest_read(vm, gpa, len.min(256)) {
            Ok((bytes, intact)) => {
                println!("{:?} (intact: {intact})", String::from_utf8_lossy(&bytes))
            }
            Err(e) => println!("?read failed: {e}"),
        }
    }

    fn translate(&mut self, name: &str, gpa: &str) {
        let (Some(&vm), Some(gpa)) = (self.vms.get(name), Self::parse_gpa(gpa)) else {
            println!("?unknown vm or bad gpa");
            return;
        };
        match self.hv.translate(vm, gpa) {
            Ok(t) => {
                let group = self.hv.groups().group_of_phys(t.hpa).ok();
                println!(
                    "GPA {gpa:#x} -> HPA {:#x} ({:?} leaf, perms r{}w{}x{}, group {group:?})",
                    t.hpa,
                    t.size,
                    u8::from(t.perms.read),
                    u8::from(t.perms.write),
                    u8::from(t.perms.exec),
                );
            }
            Err(e) => println!("?translate failed: {e}"),
        }
    }

    fn audit(&self) {
        match siloz_repro::siloz::audit(&self.hv) {
            Ok(report) => {
                println!(
                    "audited {} nodes, {} VMs: {}",
                    report.nodes_checked,
                    report.vms_checked,
                    if report.is_healthy() {
                        "HEALTHY"
                    } else {
                        "VIOLATIONS FOUND"
                    }
                );
                for v in &report.violations {
                    println!("  !! {v:?}");
                }
            }
            Err(e) => println!("?audit failed: {e}"),
        }
    }

    fn attack(&mut self, name: &str) {
        let Some(&vm) = self.vms.get(name) else {
            println!("?unknown vm {name}");
            return;
        };
        println!("running Blacksmith from inside {name}...");
        match hammer_vm(
            &mut self.hv,
            vm,
            2,
            FuzzConfig {
                patterns: 6,
                periods_per_attempt: 60_000,
                extra_open_ns: 0,
            },
            &mut self.rng,
        ) {
            Ok(report) => {
                let escapes = report.escapes();
                println!(
                    "  {} activations, {} flips total, {} in-domain, {} ESCAPED",
                    report.acts,
                    report.flips.len(),
                    report.flips_in_domain(),
                    escapes.total()
                );
                println!("  escaped into: {escapes}");
                if escapes.total() == 0 {
                    println!("  containment verdict: OK (no inter-VM flips)");
                } else {
                    println!("  containment verdict: BREACHED");
                }
            }
            Err(e) => println!("?attack failed: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let eval = args.iter().any(|a| a == "--eval");
    let baseline = args.iter().any(|a| a == "--baseline");
    let mut console = Console::new(eval, baseline);
    println!(
        "silozctl: booted {:?} on {}",
        console.hv.kind(),
        console.hv.config().geometry
    );

    // Commands from argv (separated by "--") or stdin.
    let script: Vec<String> = args
        .split(|a| a == "--")
        .map(|chunk| {
            chunk
                .iter()
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .collect::<Vec<_>>()
                .join(" ")
        })
        .filter(|s| !s.is_empty())
        .collect();
    if !script.is_empty() {
        for line in script {
            println!("> {line}");
            if !console.run(&line) {
                return;
            }
        }
        return;
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if !console.run(&line) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn console_executes_a_full_session() {
        let mut c = Console::new(false, false);
        assert!(c.run("topology"));
        assert!(c.run("groups 2"));
        assert!(c.run("ept"));
        assert!(c.run("vm create web 96"));
        assert!(c.run("vm list"));
        assert!(c.run("write web 0x1000 hello"));
        assert!(c.run("read web 0x1000 5"));
        assert!(c.run("translate web 0x1000"));
        assert!(c.run("vm expand web 64"));
        assert!(c.run("vm destroy web"));
        assert!(c.run("audit"));
        assert!(c.run("nonsense command"));
        assert!(!c.run("quit"));
        assert!(c.vms.is_empty());
    }

    #[test]
    fn console_handles_errors_gracefully() {
        let mut c = Console::new(false, false);
        assert!(c.run("vm create huge 999999"));
        assert!(c.run("vm destroy nothere"));
        assert!(c.run("read nothere 0x0 4"));
        assert!(c.run("translate nothere 0x0"));
        assert!(c.run("write nothere 0x0 x"));
        assert!(c.run("vm expand nothere 1"));
        assert!(c.run("attack nothere"));
    }

    #[test]
    fn console_attack_reports_containment() {
        let mut c = Console::new(false, false);
        c.run("vm create a 256");
        c.run("attack a");
        // The attack ran against the real hypervisor: flips exist, none
        // escaped.
        let vm = c.vms["a"];
        let flips = c.hv.flips_by_owner(0).unwrap();
        assert!(!flips.is_empty());
        assert_eq!(flips.escapes(vm).total(), 0, "{}", flips.escapes(vm));
    }
}
