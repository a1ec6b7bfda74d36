//! Churn-reclaim property: after any randomized create / expand / destroy
//! history, host [`shutdown`] returns the allocator and free lists to the
//! pristine post-boot state — no leaked frames, no stale group claims, no
//! lost EPT guard-pool pages.
//!
//! [`shutdown`]: siloz_repro::siloz::Hypervisor::shutdown

use proptest::prelude::*;
use siloz_repro::ept::{EptError, PageSize};
use siloz_repro::numa::NodeId;
use siloz_repro::siloz::{audit, Hypervisor, HypervisorKind, SilozConfig, SilozError, VmSpec};
use siloz_repro::telemetry::{MetricValue, Registry};
use std::cell::Cell;

/// Cases the property runs. The vendored proptest seeds from the test name,
/// so they are the same cases every run.
const CASES: u32 = 16;

thread_local! {
    /// Cases finished, and `expand_vm` calls refused with
    /// `Ept(OutOfMemory)` over all of them: the refusal whose rollback this
    /// suite pins must actually be drawn. Per thread, because the harness
    /// may run the property on several threads at once.
    static CASES_RUN: Cell<u32> = const { Cell::new(0) };
    static EPT_REFUSED_EXPANDS: Cell<u32> = const { Cell::new(0) };
}

/// Everything that must be byte-for-byte restored by a full teardown.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    /// `(node, free frames)` over every guest and host node.
    node_free: Vec<(NodeId, u64)>,
    /// EPT guard-pool pages still available (summed over sockets).
    guard_remaining: i64,
    /// Claimed / pristine group counts from the occupancy API.
    groups: (u64, u64),
}

fn fingerprint(hv: &Hypervisor) -> Fingerprint {
    let node_free = hv
        .guest_nodes()
        .iter()
        .chain(hv.host_nodes())
        .map(|&n| (n, hv.topology().free_frames(n).unwrap()))
        .collect();
    let reg = Registry::new();
    hv.export_telemetry(&reg);
    let snap = reg.snapshot();
    let guard_remaining = match snap.children["ept_guard"].metrics.get("frames_remaining") {
        Some(MetricValue::Gauge { value, .. }) => *value,
        _ => -1,
    };
    let occ = hv.occupancy();
    Fingerprint {
        node_free,
        guard_remaining,
        groups: (occ.claimed(), occ.pristine()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random lifecycle histories (creations with either backing page
    /// size, growth bursts, destructions, in any interleaving that fits —
    /// including the ones the GFP_EPT pool or the group pool refuses)
    /// never perturb what `shutdown` reclaims.
    ///
    /// The page size is drawn per created VM. Every size drawn here
    /// (< 200 MiB) maps page by page in milliseconds, and ~250 MiB of
    /// 4 KiB-backed guest memory drains the mini host's 128-page GFP_EPT
    /// pool, so the 16 cases take that refusal both on create (4 times)
    /// and on expand (3 times).
    #[test]
    fn shutdown_restores_pristine_post_boot_state(
        ops in prop::collection::vec(
            (0u8..3, 16u64..200, any::<prop::sample::Index>(), any::<bool>()),
            1..20,
        ),
    ) {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let pristine = fingerprint(&hv);
        prop_assert_eq!(pristine.groups.0, 0, "no groups claimed at boot");
        prop_assert!(pristine.guard_remaining > 0, "guard pool missing");

        let mut live = Vec::new();
        for (i, &(kind, mib, which, small_pages)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    let page_size = if small_pages {
                        PageSize::Size4K
                    } else {
                        PageSize::Size2M
                    };
                    let spec = VmSpec::new(&format!("churn{i}"), 1, mib << 20);
                    match hv.create_vm(spec.with_page_size(page_size)) {
                        Ok(vm) => live.push(vm),
                        Err(e) if e.is_capacity() => {}
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                1 if !live.is_empty() => {
                    let vm = live[which.index(live.len())];
                    match hv.expand_vm(vm, (mib / 4 + 2) << 20) {
                        Ok(()) => {}
                        Err(e) if e.is_capacity() => {
                            if e == SilozError::Ept(EptError::OutOfMemory) {
                                EPT_REFUSED_EXPANDS.set(EPT_REFUSED_EXPANDS.get() + 1);
                            }
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("expand: {e}"))),
                    }
                }
                2 if !live.is_empty() => {
                    let vm = live.remove(which.index(live.len()));
                    hv.destroy_vm(vm).unwrap();
                }
                _ => {}
            }
        }
        prop_assert!(audit(&hv).unwrap().is_healthy(), "audit failed mid-churn");

        let killed = hv.shutdown();
        prop_assert_eq!(killed, live.len());
        prop_assert!(hv.vm_handles().is_empty());
        prop_assert_eq!(&fingerprint(&hv), &pristine, "shutdown leaked state");
        prop_assert!(audit(&hv).unwrap().is_healthy(), "audit failed post-shutdown");

        // The reclaimed capacity is genuinely usable: a fresh maximal VM
        // admission must succeed exactly as it would have at boot.
        let free_bytes = hv.occupancy().free_bytes();
        prop_assert!(free_bytes > 0);
        hv.create_vm(VmSpec::new("reboot-probe", 1, 256 << 20)).unwrap();

        CASES_RUN.set(CASES_RUN.get() + 1);
        if CASES_RUN.get() == CASES {
            prop_assert!(
                EPT_REFUSED_EXPANDS.get() > 0,
                "no case drew an expand refused by the GFP_EPT pool"
            );
        }
    }
}
