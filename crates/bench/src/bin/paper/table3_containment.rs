//! Regenerates **Table 3** (§7.1) as a contrast fixed in advance. On an
//! unmodified host a co-located victim is exposed exactly when the
//! attacker's memory ends partway through a subarray: the victim's rows
//! then share it. Under Siloz every domain owns whole subarray groups, so
//! no flip leaves the attacker's memory at any size.

use crate::design::{Arm, Design};
use bench::Scale;
use hammer::FuzzConfig;
use siloz::HypervisorKind;
use sim::Run;

pub const TABLE3: Design = Design {
    title: "Table 3: bit-flip containment, baseline vs Siloz (§7.1)",
    arms: &[
        Arm {
            label: "baseline",
            kind: HypervisorKind::Baseline,
            claim: "Vm(victim) > 0 where the VMs split a group, = 0 at whole groups",
            holds: |c| (c.escapes.other_vms > 0) != c.thirds.is_multiple_of(3),
        },
        Arm {
            label: "siloz",
            kind: HypervisorKind::Siloz,
            claim: "every flip is Vm(attacker)",
            holds: |c| c.escapes.total() == 0,
        },
    ],
    thirds: &[2, 3, 4, 6, 8],
    seeds: &[1, 2, 3, 4],
    campaign: |scale| {
        let (patterns, periods_per_attempt) = match scale {
            Scale::Quick => (6, 80_000),
            Scale::Full => (10, 150_000),
        };
        FuzzConfig {
            patterns,
            periods_per_attempt,
            extra_open_ns: 0,
        }
    },
};

pub fn run(scale: Scale, run: &Run) {
    crate::design::run(&TABLE3, scale, run);
}
