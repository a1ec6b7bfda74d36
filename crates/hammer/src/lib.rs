//! Blacksmith-style Rowhammer fuzzing and attack harnesses (§7.1).
//!
//! The paper evaluates Siloz with an extended version of the Blacksmith
//! Rowhammer fuzzer: a tool that searches the space of *many-sided,
//! frequency-varied* hammering patterns for ones that defeat in-DRAM TRR
//! and flip bits. This crate rebuilds that attacker against the simulated
//! memory system:
//!
//! - [`pattern`]: non-uniform access patterns described by per-aggressor
//!   frequency, phase, and amplitude — the Blacksmith parameter space;
//! - [`fuzzer`]: the search loop, hammering candidate patterns against a
//!   [`dram::DramSystem`] and harvesting bit flips;
//! - [`attack`]: the one attack driver over the [`siloz::Hypervisor`],
//!   [`hammer_vm_banks`]: a malicious VM hammering its own memory, each
//!   flip attributed to its owner (Table 3); the edge sweep beside it,
//!   [`hammer_vm_edge`]; and EPT verification (§7.1);

#![forbid(unsafe_code)]

pub mod attack;
pub mod fuzzer;
pub mod pattern;

pub use attack::{
    edge_rows, hammer_vm, hammer_vm_banks, hammer_vm_defended, hammer_vm_edge, verify_ept_intact,
    vm_bank_rows, vm_rows, HammerVmReport,
};
pub use fuzzer::{Blacksmith, FuzzConfig, FuzzReport};
pub use pattern::HammerPattern;

/// Nominal activate-to-activate time used when replaying patterns, ns.
pub const T_RC_NS: u64 = 47;
