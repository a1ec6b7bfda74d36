//! End-to-end performance simulation (§7.2-§7.4).
//!
//! Wires the whole stack together: boot a hypervisor (baseline or Siloz),
//! create a VM, translate each workload's guest-address trace to host
//! physical addresses through the VM's actual backing, replay it through
//! the FR-FCFS memory controller, and report execution time or throughput
//! with confidence intervals over repeated seeds.
//!
//! The experiment drivers in [`experiments`] regenerate each performance
//! figure of the paper:
//!
//! - Fig. 4: baseline-normalized execution time (YCSB A-F, terasort,
//!   SPEC-like, PARSEC-like);
//! - Fig. 5: baseline-normalized throughput (memcached, mysql, MLC);
//! - Fig. 6/7: Siloz-1024-normalized sensitivity across Siloz-512 /
//!   Siloz-1024 / Siloz-2048.

#![forbid(unsafe_code)]

pub mod arena;
pub mod cache;
pub mod colocation;
pub mod compile;
pub mod engine;
pub mod experiments;
pub mod noise;
pub mod run;
pub mod stats;

pub use arena::{arena, hypervisor_kind_for, ArenaRow};
pub use cache::TraceCache;
pub use colocation::{run_colocation, run_colocation_suite, ColocationResult, SuitePlan};
pub use compile::{GuestLedger, GuestRun};
pub use engine::{default_threads, run_cells, Run};
pub use experiments::{
    figure4, figure4_uncompiled, figure5, figure5_uncompiled, figure6, figure7, Comparison,
};
pub use run::{
    run_workload, run_workload_compiled, run_workload_compiled_observed, vm_compiled, vm_trace,
    RunSeeds, SimConfig, TraceShape, NOISE_DOMAIN,
};
pub use stats::Summary;
