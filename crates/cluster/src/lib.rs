//! Datacenter-scale multi-host fleet simulation for the Siloz
//! reproduction.
//!
//! Siloz's guarantee is per-host — subarray-group isolation domains
//! proven at every event boundary (§4.1) — but its deployment target is a
//! cloud fleet. This crate scales `crates/fleet`'s single-server churn
//! soak to hundreds of hosts and millions of guest lifecycle events:
//!
//! - **Sharded engines** — every host is one [`fleet::FleetSim`] with its
//!   own seeded RNG stream, stepped in parallel between cluster barriers
//!   via [`sim::run_cells`], so 1-, 2-, and 7-worker runs are
//!   bit-identical.
//! - **Cluster scheduler** — sandboxes (Kata-style: one sandbox = one VM
//!   = one isolation-domain claim) are placed onto hosts by a pluggable
//!   [`ClusterPolicy`] (spread / bin-pack / socket-affine).
//! - **Cross-host migration** — a cluster event class that departs a
//!   guest from host A, re-admits it on host B under a fresh domain
//!   claim, and re-binds its compiled [`sim::GuestLedger`] slice through
//!   the shared [`sim::TraceCache`].
//!
//! The §4.1 invariant stays proven per-host at every event boundary
//! (incrementally, with periodic full proofs), and cluster-wide
//! consistency — every live sandbox on exactly one host, scheduler
//! accounting equal to hypervisor occupancy, no host over-commit — is
//! re-proven at sync barriers and at the end of every run. `bench`'s
//! `cluster_soak` binary drives the battery and emits
//! `CLUSTER_soak.json`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod events;
pub mod pending;
pub mod report;
pub mod sandbox;
pub mod scheduler;

pub use engine::{run_cluster, ClusterSim, ClusterStats};
pub use events::{generate_cluster_trace, ClusterEvent, ClusterEventKind, ClusterScenario};
pub use pending::PendingQueue;
pub use report::{write_cluster_reports, ClusterReport};
pub use sandbox::{SandboxRecord, SandboxState};
pub use scheduler::{AuditIssue, ClusterPolicy, ClusterScheduler};
