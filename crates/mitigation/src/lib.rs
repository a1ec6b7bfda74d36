//! Pluggable RowHammer mitigation backends behind a single [`Mitigation`]
//! trait, after the "simulation-based evaluation framework" of arxiv
//! 2506.07190.
//!
//! Siloz (PAPER.md) prevents inter-VM RowHammer by *placement*: no two
//! VMs share a DRAM subarray group, so disturbance cannot cross a trust
//! boundary. Rival defenses from the literature instead act at the
//! memory controller, per activation: BlockHammer (arxiv 2102.05981)
//! blacklists rows whose counting-Bloom-filter estimate exceeds a
//! threshold and throttles further activates to them; BreakHammer-style
//! schemes score the *source* (hardware thread / guest stream) issuing
//! the activates and throttle the offender.
//!
//! This crate expresses all three — plus the no-op `none` baseline —
//! behind one trait with three hook families:
//!
//! - **placement hooks**: [`Mitigation::domain_policy`] (does the
//!   hypervisor carve isolation domains?) and [`Mitigation::admit`]
//!   (veto a VM before placement);
//! - **controller hooks**: [`Mitigation::on_act`] (per activation,
//!   returns an injected throttle delay in picoseconds) and
//!   [`Mitigation::on_refresh`] (per tREFI crossing, for decay);
//! - **telemetry contract**: [`Mitigation::export_telemetry`] exports
//!   deterministic counters under a `mitigation` registry child.
//!
//! The [`Backend`] enum is the cheap, `Copy` handle the rest of the
//! workspace plumbs through configs; [`Backend::build`] materializes the
//! boxed state machine. Crucially, [`Backend::controller_hook`] returns
//! `None` for both `none` and `siloz`, so the memory controller's
//! pre-trait fast path is byte-for-byte untouched when no per-ACT
//! defense is live — the equivalence gates in
//! `crates/sim/tests/mitigation_equivalence.rs` pin that bitwise.

#![forbid(unsafe_code)]

pub mod backends;

pub use backends::{BlockHammer, BreakHammer, NoMitigation, SilozMitigation};

/// How a defense wants guest memory laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainPolicy {
    /// No placement constraint: VMs may share banks, subarrays, rows.
    Shared,
    /// Siloz-style: each VM confined to exclusive subarray-group
    /// isolation domains (the hypervisor boots in `Siloz` mode and the
    /// §4.1 invariant is enforced and proved).
    IsolationDomains,
}

/// A RowHammer defense: placement policy, per-ACT/per-refresh controller
/// hooks, and a deterministic telemetry contract.
///
/// Implementations are plain deterministic state machines — no clocks,
/// no OS randomness, no interior mutability — so simulations that
/// install them stay bit-stable across runs and thread counts, and
/// finished controllers can be shared read-only between workers.
pub trait Mitigation: std::fmt::Debug + Send + Sync {
    /// Stable lowercase identifier (`"none"`, `"siloz"`, ...), used in
    /// reports and telemetry labels.
    fn name(&self) -> &'static str;

    /// Placement demanded from the hypervisor. Defaults to
    /// [`DomainPolicy::Shared`] (controller-level defenses do not
    /// constrain placement).
    fn domain_policy(&self) -> DomainPolicy {
        DomainPolicy::Shared
    }

    /// Admission veto, consulted before a VM is placed. Returning
    /// `false` rejects the request outright (counted as an admission
    /// rejection by the fleet). The default admits everything.
    fn admit(&mut self, tenant: u32, mem_bytes: u64) -> bool {
        let _ = (tenant, mem_bytes);
        true
    }

    /// Observe one row activation and return the throttle delay (in
    /// picoseconds) to inject before it issues. `source` identifies the
    /// issuing stream (hardware thread / guest). The default is a
    /// zero-delay no-op.
    fn on_act(&mut self, bank: u32, row: u32, source: u16, now_ps: u64) -> u64 {
        let _ = (bank, row, source, now_ps);
        0
    }

    /// Observe one refresh-interval (tREFI) crossing — the natural decay
    /// epoch for counting defenses. The default is a no-op.
    fn on_refresh(&mut self, now_ps: u64) {
        let _ = now_ps;
    }

    /// Export deterministic counters into `reg` (conventionally a
    /// `mitigation` child of the owning component's registry).
    fn export_telemetry(&self, reg: &telemetry::Registry);
}

/// The cheap, copyable handle for a defense; configs carry this and
/// materialize state via [`Backend::build`] where it is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// No defense at all: shared placement, no controller hooks.
    None,
    /// Siloz domain isolation (the paper's defense): placement-only.
    Siloz,
    /// BlockHammer-style counting-Bloom-filter row blacklister with ACT
    /// throttling at the memory controller.
    BlockHammer,
    /// BreakHammer-style suspect-source scorer throttling the offending
    /// guest stream.
    BreakHammer,
}

impl Backend {
    /// Every backend, in canonical arena/report order.
    pub const ALL: [Backend; 4] = [
        Backend::None,
        Backend::Siloz,
        Backend::BlockHammer,
        Backend::BreakHammer,
    ];

    /// Stable lowercase identifier matching [`Mitigation::name`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::None => "none",
            Backend::Siloz => "siloz",
            Backend::BlockHammer => "blockhammer",
            Backend::BreakHammer => "breakhammer",
        }
    }

    /// Materialize the defense's state machine.
    pub fn build(self) -> Box<dyn Mitigation> {
        match self {
            Backend::None => Box::new(NoMitigation::new()),
            Backend::Siloz => Box::new(SilozMitigation::new()),
            Backend::BlockHammer => Box::new(BlockHammer::new()),
            Backend::BreakHammer => Box::new(BreakHammer::new()),
        }
    }

    /// The state machine to install *in the memory controller*, if this
    /// backend acts there. `None` and `Siloz` return `None`: neither
    /// takes per-ACT action, and leaving the controller's hook slot
    /// empty keeps its pre-trait fast path bitwise intact (the
    /// equivalence gate depends on this).
    pub fn controller_hook(self) -> Option<Box<dyn Mitigation>> {
        match self {
            Backend::None | Backend::Siloz => None,
            Backend::BlockHammer | Backend::BreakHammer => Some(self.build()),
        }
    }

    /// Placement demanded from the hypervisor, without building state.
    pub fn domain_policy(self) -> DomainPolicy {
        match self {
            Backend::Siloz => DomainPolicy::IsolationDomains,
            _ => DomainPolicy::Shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable_and_distinct() {
        let names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["none", "siloz", "blockhammer", "breakhammer"]);
        for b in Backend::ALL {
            assert_eq!(b.build().name(), b.name(), "enum/name mismatch for {b:?}");
        }
    }

    #[test]
    fn only_rivals_install_controller_hooks() {
        assert!(Backend::None.controller_hook().is_none());
        assert!(Backend::Siloz.controller_hook().is_none());
        assert!(Backend::BlockHammer.controller_hook().is_some());
        assert!(Backend::BreakHammer.controller_hook().is_some());
    }

    #[test]
    fn only_siloz_demands_isolation_domains() {
        for b in Backend::ALL {
            let want = if b == Backend::Siloz {
                DomainPolicy::IsolationDomains
            } else {
                DomainPolicy::Shared
            };
            assert_eq!(b.domain_policy(), want);
            assert_eq!(b.build().domain_policy(), want, "boxed policy for {b:?}");
        }
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut m = NoMitigation::new();
        assert!(m.admit(7, 1 << 30));
        assert_eq!(m.on_act(0, 0, 0, 0), 0);
        m.on_refresh(7_800_000);
        let reg = telemetry::Registry::new();
        m.export_telemetry(&reg);
        let json = reg.snapshot().deterministic().to_json();
        let again = telemetry::Registry::new();
        m.export_telemetry(&again);
        assert_eq!(json, again.snapshot().deterministic().to_json());
    }
}
