//! Fleet run reports and their JSON artifact (`FLEET_{label}.json`).

use analysis::report::Json;
use std::path::PathBuf;

/// End-of-run summary of one fleet scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Placement strategy name (`first_fit` / `best_fit` /
    /// `socket_affine`).
    pub strategy: &'static str,
    /// Deployed mitigation backend name (`none` / `siloz` / `blockhammer`
    /// / `breakhammer`).
    pub mitigation: &'static str,
    /// Scenario master seed.
    pub seed: u64,
    /// Events dispatched (trace + dynamic departures/re-admissions).
    pub events_processed: u64,
    /// Tenant arrivals.
    pub arrivals: u64,
    /// Admissions on first try.
    pub admitted: u64,
    /// Admissions after deferral.
    pub deferred_admits: u64,
    /// Capacity rejections.
    pub rejections: u64,
    /// Deferred requests abandoned on queue overflow.
    pub abandoned: u64,
    /// VMs destroyed.
    pub departures: u64,
    /// Successful growth bursts.
    pub expansions: u64,
    /// Growth bursts denied for capacity.
    pub expand_denials: u64,
    /// Workload slices executed.
    pub slices: u64,
    /// Attack campaigns launched.
    pub attacks: u64,
    /// Flips induced by attacks.
    pub attack_flips: u64,
    /// Flips escaping the aggressor's domain (0 under Siloz).
    pub attack_escapes: u64,
    /// Blocks migrated by defragmentation.
    pub defrag_migrations: u64,
    /// Blocks migrated by Copy-on-Flip responses.
    pub cof_migrated: u64,
    /// Events whose tenant was never admitted or already gone.
    pub orphan_events: u64,
    /// Peak simultaneously-live VMs.
    pub peak_live: u64,
    /// VMs still live when the trace drained.
    pub final_live: u64,
    /// Guest subarray groups on the host.
    pub groups_total: u64,
    /// Groups claimed at the end of the run.
    pub groups_claimed: u64,
    /// Final group-pool fragmentation (percent).
    pub fragmentation_pct: u64,
    /// Arrivals vetoed by the mitigation backend before placement.
    pub admission_vetoes: u64,
    /// Incremental boundary checks performed.
    pub incremental_checks: u64,
    /// Incremental checks served by the clean-tenant fast path.
    pub incremental_fast_checks: u64,
    /// Full isolation proofs performed.
    pub full_proofs: u64,
    /// Isolation violations (0 under Siloz).
    pub violations_total: u64,
    /// First few violation messages.
    pub violation_samples: Vec<String>,
}

impl FleetReport {
    /// Whether the run upheld the isolation invariant throughout.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations_total == 0 && self.attack_escapes == 0
    }

    /// Attack flips that stayed inside the aggressors' own domains — the
    /// arena's containment quantity.
    #[must_use]
    pub fn attack_flips_contained(&self) -> u64 {
        self.attack_flips.saturating_sub(self.attack_escapes)
    }

    /// This report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("strategy", Json::Str(self.strategy.to_string())),
            ("mitigation", Json::Str(self.mitigation.to_string())),
            ("seed", Json::Num(self.seed.into())),
            ("events_processed", Json::Num(self.events_processed.into())),
            ("arrivals", Json::Num(self.arrivals.into())),
            ("admitted", Json::Num(self.admitted.into())),
            ("deferred_admits", Json::Num(self.deferred_admits.into())),
            ("rejections", Json::Num(self.rejections.into())),
            ("abandoned", Json::Num(self.abandoned.into())),
            ("departures", Json::Num(self.departures.into())),
            ("expansions", Json::Num(self.expansions.into())),
            ("expand_denials", Json::Num(self.expand_denials.into())),
            ("slices", Json::Num(self.slices.into())),
            ("attacks", Json::Num(self.attacks.into())),
            ("attack_flips", Json::Num(self.attack_flips.into())),
            ("attack_escapes", Json::Num(self.attack_escapes.into())),
            (
                "attack_flips_contained",
                Json::Num(self.attack_flips_contained().into()),
            ),
            (
                "defrag_migrations",
                Json::Num(self.defrag_migrations.into()),
            ),
            ("cof_migrated", Json::Num(self.cof_migrated.into())),
            ("orphan_events", Json::Num(self.orphan_events.into())),
            ("peak_live", Json::Num(self.peak_live.into())),
            ("final_live", Json::Num(self.final_live.into())),
            ("groups_total", Json::Num(self.groups_total.into())),
            ("groups_claimed", Json::Num(self.groups_claimed.into())),
            (
                "fragmentation_pct",
                Json::Num(self.fragmentation_pct.into()),
            ),
            ("admission_vetoes", Json::Num(self.admission_vetoes.into())),
            (
                "incremental_checks",
                Json::Num(self.incremental_checks.into()),
            ),
            (
                "incremental_fast_checks",
                Json::Num(self.incremental_fast_checks.into()),
            ),
            ("full_proofs", Json::Num(self.full_proofs.into())),
            ("violations_total", Json::Num(self.violations_total.into())),
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

/// Writes `FLEET_{label}.json` holding every report (one object per run)
/// plus a schema version, honouring `SILOZ_TELEMETRY_DIR` like the
/// telemetry writer. Returns the path written.
pub fn write_reports(label: &str, reports: &[FleetReport]) -> std::io::Result<PathBuf> {
    let doc = Json::obj(vec![
        ("fleet_schema", Json::Num(1u32.into())),
        ("label", Json::Str(label.to_string())),
        (
            "runs",
            Json::Arr(reports.iter().map(FleetReport::to_json).collect()),
        ),
    ]);
    let path = telemetry::artifact_path(&format!("FLEET_{label}.json"))?;
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetReport {
        FleetReport {
            strategy: "first_fit",
            mitigation: "siloz",
            seed: 1,
            events_processed: 10,
            arrivals: 3,
            admitted: 2,
            deferred_admits: 1,
            rejections: 1,
            abandoned: 0,
            departures: 3,
            expansions: 1,
            expand_denials: 0,
            slices: 2,
            attacks: 1,
            attack_flips: 5,
            attack_escapes: 0,
            defrag_migrations: 2,
            cof_migrated: 1,
            orphan_events: 0,
            peak_live: 2,
            final_live: 0,
            groups_total: 7,
            groups_claimed: 0,
            fragmentation_pct: 0,
            admission_vetoes: 0,
            incremental_checks: 9,
            incremental_fast_checks: 4,
            full_proofs: 1,
            violations_total: 0,
            violation_samples: Vec::new(),
        }
    }

    #[test]
    fn report_json_roundtrips_key_fields() {
        let rendered = sample().to_json().render();
        assert!(rendered.contains("\"strategy\": \"first_fit\""));
        assert!(rendered.contains("\"attack_escapes\": 0"));
        assert!(rendered.contains("\"clean\": true"));
    }

    #[test]
    fn escapes_make_a_report_dirty() {
        let mut r = sample();
        r.attack_escapes = 1;
        assert!(!r.clean());
    }

    #[test]
    fn write_reports_emits_the_artifact() {
        let dir = std::env::temp_dir().join("fleet_report_test");
        std::env::set_var(telemetry::TELEMETRY_DIR_ENV, &dir);
        let path = write_reports("unittest", &[sample()]).unwrap();
        std::env::remove_var(telemetry::TELEMETRY_DIR_ENV);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("FLEET_unittest.json"));
        assert!(body.contains("\"fleet_schema\": 1"));
        assert!(body.contains("\"runs\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
