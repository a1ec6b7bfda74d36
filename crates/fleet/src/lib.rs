//! Multi-tenant fleet churn simulation for the Siloz reproduction (§8).
//!
//! The paper evaluates Siloz under static colocation; this crate asks the
//! operational question a cloud operator would: does the one-VM-per-group
//! invariant survive *churn* — thousands of arrivals, departures, growth
//! bursts, defragmentation migrations, and injected Rowhammer campaigns —
//! under different group-aware admission policies?
//!
//! A [`Scenario`] (seed + distributions + [`numa::PlacementStrategy`])
//! expands into a deterministic event trace; [`FleetSim`] drains it
//! against a live [`siloz::Hypervisor`], proving zero cross-VM
//! subarray-group sharing at every event boundary. [`run_fleet`]
//! instruments a run with [`telemetry`]; `bench`'s `fleet_soak` binary
//! fans scenarios across seeds and policies via [`sim::engine::run_cells`]
//! and emits `FLEET_soak.json`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod events;
pub mod policy;
pub mod queue;
pub mod report;

pub use engine::{run_fleet, FleetSim, FleetStats};
pub use events::{generate_trace, CheckMode, Event, EventKind, Scenario, HOST_TENANT};
pub use policy::{AdmissionControl, PendingVm};
pub use queue::{EventQueue, Keyed};
pub use report::{write_reports, FleetReport};
