//! Cluster run reports and their JSON artifact (`CLUSTER_{label}.json`).

use analysis::report::Json;
use std::path::PathBuf;

/// End-of-run summary of one cluster scenario: cluster-level scheduling
/// outcomes plus the fleet-wide sums of every host engine's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Cluster placement policy name (`spread` / `bin_pack` /
    /// `socket_affine`).
    pub policy: &'static str,
    /// Host-level placement strategy name.
    pub host_strategy: &'static str,
    /// Mitigation backend deployed on every host.
    pub mitigation: &'static str,
    /// Scenario master seed.
    pub seed: u64,
    /// Hosts in the fleet.
    pub hosts: u64,
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Cluster-level lifecycle events dispatched (trace + dynamic
    /// departures).
    pub cluster_events: u64,
    /// Host-level events processed across the fleet (slices, attacks,
    /// defrag sweeps).
    pub host_events: u64,
    /// Sandbox arrivals.
    pub sandboxes: u64,
    /// Successful host placements (initial + migration re-admissions).
    pub placements: u64,
    /// Placement attempts that found no host (sandbox queued pending).
    pub placement_rejects: u64,
    /// Placements landing on a host already running the sandbox's
    /// affinity class.
    pub affinity_hits: u64,
    /// Host-refused arrival admissions (rolled back and re-queued).
    pub admit_fails: u64,
    /// Sandboxes abandoned while awaiting placement.
    pub abandoned_pending: u64,
    /// Sandbox departures completed.
    pub departures: u64,
    /// Cross-host migrations completed.
    pub migrations: u64,
    /// Migrations skipped for lack of a destination.
    pub migration_skips: u64,
    /// Migrations whose destination admit failed.
    pub migration_fails: u64,
    /// Cluster events targeting sandboxes not running anywhere.
    pub orphan_events: u64,
    /// Workload slices executed across the fleet.
    pub slices: u64,
    /// Attack campaigns launched across the fleet.
    pub attacks: u64,
    /// Flips induced by attacks.
    pub attack_flips: u64,
    /// Flips escaping the aggressor's domain (0 under Siloz).
    pub attack_escapes: u64,
    /// Guest ledgers compiled fleet-wide (shared-cache misses; migrated
    /// sandboxes re-bind instead of recompiling).
    pub ledger_compiles: u64,
    /// Ledger→backing binds fleet-wide.
    pub program_binds: u64,
    /// Incremental §4.1 boundary checks across all hosts.
    pub incremental_checks: u64,
    /// Incremental checks served by the clean-tenant fast path.
    pub incremental_fast_checks: u64,
    /// Host-level full isolation proofs (periodic + sync barriers).
    pub full_proofs: u64,
    /// Cluster-wide sync proofs.
    pub sync_proofs: u64,
    /// Peak simultaneously-live sandboxes.
    pub peak_live: u64,
    /// Sandboxes still live when the run ended.
    pub final_live: u64,
    /// Guest subarray groups across the fleet.
    pub groups_total: u64,
    /// Groups claimed at the end of the run.
    pub groups_claimed: u64,
    /// Host-level isolation violations summed over the fleet (0 under
    /// Siloz).
    pub host_violations: u64,
    /// Cluster-level consistency violations (0 expected).
    pub cluster_violations: u64,
    /// First few violation messages (cluster first, then hosts).
    pub violation_samples: Vec<String>,
}

impl ClusterReport {
    /// Whether the run upheld both the per-host §4.1 invariant and
    /// cluster-level consistency throughout.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.host_violations == 0 && self.cluster_violations == 0 && self.attack_escapes == 0
    }

    /// Total guest lifecycle events the run drove: every cluster-level
    /// dispatch plus every host-level engine event.
    #[must_use]
    pub fn events_total(&self) -> u64 {
        self.cluster_events + self.host_events
    }

    /// This report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", Json::Str(self.policy.to_string())),
            ("host_strategy", Json::Str(self.host_strategy.to_string())),
            ("mitigation", Json::Str(self.mitigation.to_string())),
            ("seed", Json::Num(self.seed.into())),
            ("hosts", Json::Num(self.hosts.into())),
            ("epochs", Json::Num(self.epochs.into())),
            ("cluster_events", Json::Num(self.cluster_events.into())),
            ("host_events", Json::Num(self.host_events.into())),
            ("events_total", Json::Num(self.events_total().into())),
            ("sandboxes", Json::Num(self.sandboxes.into())),
            ("placements", Json::Num(self.placements.into())),
            (
                "placement_rejects",
                Json::Num(self.placement_rejects.into()),
            ),
            ("affinity_hits", Json::Num(self.affinity_hits.into())),
            ("admit_fails", Json::Num(self.admit_fails.into())),
            (
                "abandoned_pending",
                Json::Num(self.abandoned_pending.into()),
            ),
            ("departures", Json::Num(self.departures.into())),
            ("migrations", Json::Num(self.migrations.into())),
            ("migration_skips", Json::Num(self.migration_skips.into())),
            ("migration_fails", Json::Num(self.migration_fails.into())),
            ("orphan_events", Json::Num(self.orphan_events.into())),
            ("slices", Json::Num(self.slices.into())),
            ("attacks", Json::Num(self.attacks.into())),
            ("attack_flips", Json::Num(self.attack_flips.into())),
            ("attack_escapes", Json::Num(self.attack_escapes.into())),
            ("ledger_compiles", Json::Num(self.ledger_compiles.into())),
            ("program_binds", Json::Num(self.program_binds.into())),
            (
                "incremental_checks",
                Json::Num(self.incremental_checks.into()),
            ),
            (
                "incremental_fast_checks",
                Json::Num(self.incremental_fast_checks.into()),
            ),
            ("full_proofs", Json::Num(self.full_proofs.into())),
            ("sync_proofs", Json::Num(self.sync_proofs.into())),
            ("peak_live", Json::Num(self.peak_live.into())),
            ("final_live", Json::Num(self.final_live.into())),
            ("groups_total", Json::Num(self.groups_total.into())),
            ("groups_claimed", Json::Num(self.groups_claimed.into())),
            ("host_violations", Json::Num(self.host_violations.into())),
            (
                "cluster_violations",
                Json::Num(self.cluster_violations.into()),
            ),
            (
                "violation_samples",
                Json::Arr(
                    self.violation_samples
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("clean", Json::Bool(self.clean())),
        ])
    }
}

/// Writes `CLUSTER_{label}.json` holding every report (one object per
/// run) plus a schema version, honouring `SILOZ_TELEMETRY_DIR` like the
/// telemetry writer. Returns the path written.
pub fn write_cluster_reports(label: &str, reports: &[ClusterReport]) -> std::io::Result<PathBuf> {
    let doc = Json::obj(vec![
        ("cluster_schema", Json::Num(1u32.into())),
        ("label", Json::Str(label.to_string())),
        (
            "runs",
            Json::Arr(reports.iter().map(ClusterReport::to_json).collect()),
        ),
    ]);
    let path = telemetry::artifact_path(&format!("CLUSTER_{label}.json"))?;
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterReport {
        ClusterReport {
            policy: "spread",
            host_strategy: "first_fit",
            mitigation: "siloz",
            seed: 1,
            hosts: 4,
            epochs: 12,
            cluster_events: 400,
            host_events: 300,
            sandboxes: 100,
            placements: 105,
            placement_rejects: 3,
            affinity_hits: 10,
            admit_fails: 0,
            abandoned_pending: 1,
            departures: 99,
            migrations: 5,
            migration_skips: 1,
            migration_fails: 0,
            orphan_events: 2,
            slices: 180,
            attacks: 2,
            attack_flips: 9,
            attack_escapes: 0,
            ledger_compiles: 90,
            program_binds: 110,
            incremental_checks: 350,
            incremental_fast_checks: 200,
            full_proofs: 20,
            sync_proofs: 3,
            peak_live: 40,
            final_live: 0,
            groups_total: 28,
            groups_claimed: 0,
            host_violations: 0,
            cluster_violations: 0,
            violation_samples: Vec::new(),
        }
    }

    #[test]
    fn report_json_roundtrips_key_fields() {
        let rendered = sample().to_json().render();
        assert!(rendered.contains("\"policy\": \"spread\""));
        assert!(rendered.contains("\"migrations\": 5"));
        assert!(rendered.contains("\"events_total\": 700"));
        assert!(rendered.contains("\"clean\": true"));
    }

    #[test]
    fn any_violation_class_dirties_a_report() {
        let mut host = sample();
        host.host_violations = 1;
        assert!(!host.clean());
        let mut cluster = sample();
        cluster.cluster_violations = 1;
        assert!(!cluster.clean());
        let mut escape = sample();
        escape.attack_escapes = 1;
        assert!(!escape.clean());
    }

    #[test]
    fn write_cluster_reports_emits_the_artifact() {
        let dir = std::env::temp_dir().join("cluster_report_test");
        std::env::set_var(telemetry::TELEMETRY_DIR_ENV, &dir);
        let path = write_cluster_reports("unittest", &[sample()]).unwrap();
        std::env::remove_var(telemetry::TELEMETRY_DIR_ENV);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("CLUSTER_unittest.json"));
        assert!(body.contains("\"cluster_schema\": 1"));
        assert!(body.contains("\"runs\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
