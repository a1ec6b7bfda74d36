//! Workspace-wide telemetry: the observability substrate of the Siloz
//! reproduction.
//!
//! The paper's evaluation is only trustworthy if the simulator's *internal*
//! event streams — activations, TRR triggers, refresh windows, ECC
//! corrections, flip containment, decode-TLB behavior, FR-FCFS scheduling,
//! EPT walks, guard denials — are observable and checkable, not just the
//! final figure outputs. This crate provides that substrate:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomics for event counts and
//!   additive levels;
//! - [`Histo`] — a fixed-bucket log2 histogram (65 power-of-two buckets
//!   covering all of `u64`) for latency- and size-shaped distributions;
//! - [`Registry`] — a named, hierarchical group of metrics. Component
//!   instances export into per-component child registries; registries merge
//!   by *addition*, which is commutative and associative, so totals
//!   accumulated by concurrently running experiment cells are bit-identical
//!   for any worker-thread count;
//! - [`Snapshot`] — a pure-data capture of a registry tree with a stable,
//!   alphabetically-ordered JSON schema (see `DESIGN.md` §Telemetry).
//!
//! Metrics registered through the `*_volatile` constructors (wall-clock
//! times, work-steal counts, worker counts) are excluded from
//! [`Snapshot::deterministic`], which is what the determinism test battery
//! compares across `SILOZ_THREADS` settings.
//!
//! # Examples
//!
//! ```
//! use telemetry::Registry;
//!
//! let root = Registry::new();
//! let dram = root.child("dram");
//! dram.counter("acts").add(3);
//! dram.histo("act_gap_ns").observe(47);
//! let snap = root.snapshot();
//! assert!(snap.to_json().contains("\"acts\""));
//! assert_eq!(snap, root.snapshot());
//! ```

#![forbid(unsafe_code)]

pub mod encode;
pub mod hooks;
pub mod metrics;
pub mod registry;

pub use metrics::{Counter, Gauge, Histo, HistoSnapshot, HISTO_BUCKETS};
pub use registry::{MetricValue, Registry, Snapshot};

use std::path::PathBuf;

/// Environment variable overriding where [`artifact_path`] puts run
/// artifacts (default: the current working directory).
pub const TELEMETRY_DIR_ENV: &str = "SILOZ_TELEMETRY_DIR";

/// Where a run artifact named `file_name` (`TELEMETRY_*.json`,
/// `FLEET_*.json`, `CLUSTER_*.json`, `ARENA_*.json`) belongs: inside
/// [`TELEMETRY_DIR_ENV`], or the current directory when unset. Creates the
/// directory, so every artifact writer accepts a not-yet-existing one.
///
/// # Errors
///
/// Returns any I/O error from creating the directory.
pub fn artifact_path(file_name: &str) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os(TELEMETRY_DIR_ENV).map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(file_name))
}

/// Version tag embedded in every snapshot file; bump only with a golden
/// fixture update (the schema regression test pins it).
pub const SCHEMA_VERSION: u32 = 1;

/// Serializes `snapshot` to `TELEMETRY_{label}.json` in the current
/// directory (or [`TELEMETRY_DIR_ENV`]) and returns the path written.
///
/// The file wraps the snapshot with the schema version and suite label:
///
/// ```json
/// {"schema": 1, "suite": "<label>", "telemetry": { ... }}
/// ```
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_snapshot(label: &str, snapshot: &Snapshot) -> std::io::Result<PathBuf> {
    let path = artifact_path(&format!("TELEMETRY_{label}.json"))?;
    std::fs::write(&path, encode::snapshot_file(label, snapshot))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_snapshot_lands_in_requested_dir() {
        let dir = std::env::temp_dir().join("telemetry_write_test");
        std::fs::remove_dir_all(&dir).ok();
        std::env::set_var(TELEMETRY_DIR_ENV, &dir);
        let root = Registry::new();
        root.counter("events").inc();
        let path = write_snapshot("unit", &root.snapshot()).unwrap();
        std::env::remove_var(TELEMETRY_DIR_ENV);
        assert!(path.ends_with("TELEMETRY_unit.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"suite\": \"unit\""));
        assert!(body.contains("\"schema\": 1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
