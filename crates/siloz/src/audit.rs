//! Whole-system invariant auditing.
//!
//! A booted hypervisor holds several safety-critical invariants that the
//! rest of the crate establishes piecewise; this module re-derives them
//! globally from live state, the way a production system self-checks:
//!
//! 1. **Node disjointness** — no page frame belongs to two logical nodes.
//! 2. **Coverage** — node frames partition exactly the machine's DRAM.
//! 3. **Group alignment** — every logical node's frames lie inside its
//!    subarray groups (Siloz only).
//! 4. **VM containment** — every VM's unmediated backing lies inside its
//!    own groups; no two VMs share a group (Siloz only).
//! 5. **EPT placement** — every VM's EPT table pages lie inside the
//!    guard-protected EPT row group (when guard rows are configured).
//! 6. **Claim consistency** — the guest nodes claimed by a VM's control
//!    group are exactly the nodes the VM holds: no VM holds an unclaimed
//!    node or one claimed by another group, and no claim outlives or
//!    exceeds its VM (Siloz only).
//!
//! [`audit`] returns every violation found rather than failing fast, so
//! operators (and the `silozctl audit` command) see the full picture.

use crate::hypervisor::{Hypervisor, HypervisorKind};
use crate::SilozError;
use std::collections::{BTreeMap, HashMap};

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A frame appears in two nodes.
    OverlappingNodes {
        /// Offending frame.
        frame: u64,
    },
    /// Node frames do not exactly cover DRAM.
    CoverageGap {
        /// Frames covered by nodes.
        covered: u64,
        /// Frames installed.
        installed: u64,
    },
    /// A node's frame lies outside its subarray groups.
    NodeOutsideGroups {
        /// Offending node.
        node: u32,
        /// Offending frame.
        frame: u64,
    },
    /// A VM backing block lies outside the VM's groups.
    BackingOutsideGroups {
        /// Offending VM.
        vm: u32,
        /// Offending host physical address.
        hpa: u64,
    },
    /// Two VMs share a subarray group.
    SharedGroup {
        /// First VM.
        a: u32,
        /// Second VM.
        b: u32,
        /// The shared group.
        group: u32,
    },
    /// An EPT table page sits outside the protected EPT row group.
    EptOutsideGuard {
        /// Offending VM.
        vm: u32,
        /// Offending table page HPA.
        hpa: u64,
    },
    /// A guest node's claim and its holder disagree: claimed by a control
    /// group whose VM does not hold it (or has no VM), or held by a VM whose
    /// control group does not claim it.
    StaleClaim {
        /// Offending node.
        node: u32,
    },
}

/// Result of a full audit.
#[derive(Debug, Default, Clone)]
pub struct AuditReport {
    /// All violations found (empty = healthy).
    pub violations: Vec<Violation>,
    /// Nodes inspected.
    pub nodes_checked: usize,
    /// VMs inspected.
    pub vms_checked: usize,
}

impl AuditReport {
    /// Whether the system passed.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full invariant audit.
pub fn audit(hv: &Hypervisor) -> Result<AuditReport, SilozError> {
    let mut report = AuditReport::default();
    let topo = hv.topology();
    let geometry = hv.config().geometry;

    // 1 + 2: disjointness and coverage, via sorted range sweep.
    let mut ranges: Vec<(u64, u64, u32)> = Vec::new();
    for info in topo.nodes() {
        report.nodes_checked += 1;
        for r in &info.frame_ranges {
            ranges.push((r.start, r.end, info.id.0));
        }
    }
    ranges.sort_unstable();
    let mut covered = 0u64;
    for w in ranges.windows(2) {
        if w[1].0 < w[0].1 {
            report
                .violations
                .push(Violation::OverlappingNodes { frame: w[1].0 });
        }
    }
    for &(start, end, _) in &ranges {
        covered += end - start;
    }
    let installed = geometry.total_bytes() / 4096;
    if covered != installed {
        report
            .violations
            .push(Violation::CoverageGap { covered, installed });
    }

    // 3: node frames inside their groups (Siloz logical nodes only).
    if hv.kind() == HypervisorKind::Siloz {
        for info in topo.nodes() {
            for r in &info.frame_ranges {
                for frame in [r.start, (r.start + r.end) / 2, r.end - 1] {
                    let group = hv.groups().group_of_frame(frame)?;
                    if hv.node_of_group(group) != Some(info.id) {
                        report.violations.push(Violation::NodeOutsideGroups {
                            node: info.id.0,
                            frame,
                        });
                    }
                }
            }
        }
    }

    // 4 + 5 + 6: per-VM checks. `claims` starts as every claimed guest node
    // with its control group; each VM takes out the nodes it holds, and
    // whatever is left is claimed but held by no VM.
    let mut claims: BTreeMap<numa::NodeId, String> = BTreeMap::new();
    for g in hv.occupancy().groups {
        if let (Some(owner), Some(node)) = (g.owner, hv.node_of_group(g.group)) {
            claims.insert(node, owner);
        }
    }
    let mut group_owner: HashMap<u32, u32> = HashMap::new();
    for vm in hv.vm_handles() {
        report.vms_checked += 1;
        let groups = hv.vm_groups(vm)?;
        if hv.kind() == HypervisorKind::Siloz {
            let nodes = hv.vm_nodes(vm)?;
            let cgroup = nodes.first().and_then(|n| claims.get(n)).cloned();
            for n in nodes {
                let claim = claims.remove(n);
                if claim.is_none() || claim != cgroup {
                    report.violations.push(Violation::StaleClaim { node: n.0 });
                }
            }
            for g in &groups {
                if let Some(&other) = group_owner.get(&g.0) {
                    report.violations.push(Violation::SharedGroup {
                        a: other,
                        b: vm.0,
                        group: g.0,
                    });
                }
                group_owner.insert(g.0, vm.0);
            }
            for block in hv.vm_unmediated_backing(vm)? {
                for probe in [block.hpa(), block.hpa() + block.bytes() - 1] {
                    let g = hv.groups().group_of_phys(probe)?;
                    if !groups.contains(&g) {
                        report.violations.push(Violation::BackingOutsideGroups {
                            vm: vm.0,
                            hpa: probe,
                        });
                    }
                }
            }
        }
        if let Some(plan) = hv.ept_plan() {
            for &hpa in hv.vm_ept_pages(vm)? {
                let (socket, row) = hv.decoder().row_group_of(hpa)?;
                let ok = plan.socket(socket).is_some_and(|sp| row == sp.ept_row);
                if !ok {
                    report
                        .violations
                        .push(Violation::EptOutsideGuard { vm: vm.0, hpa });
                }
            }
        }
    }

    for node in claims.keys() {
        report
            .violations
            .push(Violation::StaleClaim { node: node.0 });
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SilozConfig;
    use crate::vm::VmSpec;

    #[test]
    fn healthy_system_audits_clean() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let a = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let _b = hv.create_vm(VmSpec::new("b", 2, 200 << 20)).unwrap();
        hv.expand_vm(a, 64 << 20).unwrap();
        let report = audit(&hv).unwrap();
        assert!(report.is_healthy(), "violations: {:?}", report.violations);
        assert_eq!(report.vms_checked, 2);
        assert_eq!(report.nodes_checked, 8);
    }

    #[test]
    fn baseline_audits_clean_on_its_weaker_invariants() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Baseline).unwrap();
        let _ = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let report = audit(&hv).unwrap();
        assert!(report.is_healthy());
    }

    #[test]
    fn evaluation_scale_audits_clean() {
        let mut hv = Hypervisor::boot(SilozConfig::evaluation(), HypervisorKind::Siloz).unwrap();
        let _ = hv.create_vm(VmSpec::new("a", 8, 6u64 << 30)).unwrap();
        let _ = hv
            .create_vm(VmSpec::new("b", 8, 3u64 << 30).on_socket(1))
            .unwrap();
        let report = audit(&hv).unwrap();
        assert!(report.is_healthy(), "violations: {:?}", report.violations);
        assert_eq!(report.nodes_checked, 256);
    }

    #[test]
    fn audit_survives_churn() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        for round in 0..4 {
            let vm = hv
                .create_vm(VmSpec::new(&format!("r{round}"), 1, 200 << 20))
                .unwrap();
            assert!(audit(&hv).unwrap().is_healthy());
            hv.destroy_vm(vm).unwrap();
            assert!(audit(&hv).unwrap().is_healthy());
        }
    }
}
