//! The metric names this benchmark fixes — the same tables
//! `BENCHMARK.json` declares (a test keeps the two in step).

/// One declared metric: `(name, unit, better)`.
pub type Declared = (&'static str, &'static str, &'static str);

/// The workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "cluster_churn",
    "fleet_soak",
    "figure_cold",
    "figure_warm",
    "defended_fleet",
];

/// End-to-end metrics: reported by every workload's untraced run.
pub const END_TO_END: [Declared; 3] = [
    ("events_per_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics: reported by every workload's traced run. A metric
/// of a layer the workload does not drive reads 0 there.
pub const PER_LAYER: [Declared; 65] = [
    ("process.wall_s", "s", "lower"),
    ("process.user_cpu_s", "s", "lower"),
    ("process.sys_cpu_s", "s", "lower"),
    ("process.minor_faults", "count", "lower"),
    ("process.minor_faults_per_kevent", "1/kevent", "lower"),
    ("process.events_per_raw_cpu_s", "1/s", "higher"),
    ("process.machine_speed", "frac", "higher"),
    ("process.trace_overhead_frac", "frac", "lower"),
    ("process.unattributed_frac", "frac", "lower"),
    ("cluster.boot_ms", "ms", "lower"),
    ("cluster.epoch_plain_ms_p50", "ms", "lower"),
    ("cluster.epoch_sync_ms_mean", "ms", "lower"),
    ("cluster.epoch_defrag_ms_mean", "ms", "lower"),
    ("cluster.share_defrag_frac", "frac", "lower"),
    ("cluster.defrag_rss_share_frac", "frac", "lower"),
    ("cluster.sched_ns_per_event", "ns", "lower"),
    ("cluster.sync_ms_per_proof", "ms", "lower"),
    ("cluster.scheduler_place_ns", "ns", "lower"),
    ("cluster.placement_reject_frac", "frac", "lower"),
    ("cluster.migrations_per_kevent", "1/kevent", "lower"),
    ("cluster.ledger_compiles_per_sandbox", "count", "lower"),
    ("cluster.report_ms", "ms", "lower"),
    ("fleet.step_arrive_us_p50", "us", "lower"),
    ("fleet.step_depart_us_p50", "us", "lower"),
    ("fleet.step_expand_us_p50", "us", "lower"),
    ("fleet.step_slice_us_p50", "us", "lower"),
    ("fleet.step_attack_ms_mean", "ms", "lower"),
    ("fleet.step_defrag_ms_mean", "ms", "lower"),
    ("fleet.share_lifecycle_frac", "frac", "lower"),
    ("fleet.share_slice_frac", "frac", "lower"),
    ("fleet.share_attack_frac", "frac", "lower"),
    ("fleet.share_defrag_frac", "frac", "lower"),
    ("fleet.check_us_per_event", "us", "lower"),
    ("fleet.full_proof_us", "us", "lower"),
    ("fleet.admit_reject_frac", "frac", "lower"),
    ("fleet.compiles_per_slice", "count", "lower"),
    ("fleet.binds_per_slice", "count", "lower"),
    ("siloz.boot_ms", "ms", "lower"),
    ("siloz.create_vm_us_p50", "us", "lower"),
    ("siloz.destroy_vm_us_p50", "us", "lower"),
    ("siloz.expand_vm_us_p50", "us", "lower"),
    ("siloz.migrate_block_ms", "ms", "lower"),
    ("siloz.copy_phys_ns_per_kib", "ns/KiB", "lower"),
    ("numa.buddy_alloc_free_ns", "ns", "lower"),
    ("numa.claim_release_ns", "ns", "lower"),
    ("ept.translate_ns", "ns", "lower"),
    ("dram-addr.decode_tlb_ns", "ns", "lower"),
    ("workloads.draw_ns_per_op", "ns/op", "lower"),
    ("sim.compile_ns_per_op", "ns/op", "lower"),
    ("sim.bind_ns_per_op", "ns/op", "lower"),
    ("sim.cell_cold_ms_p50", "ms", "lower"),
    ("sim.cell_warm_us_p50", "us", "lower"),
    ("memctrl.replay_ns_per_op", "ns/op", "lower"),
    ("memctrl.run_trace_ns_per_op", "ns/op", "lower"),
    ("memctrl.hooked_replay_ns_per_act", "ns/act", "lower"),
    ("memctrl.row_hit_frac", "frac", "higher"),
    ("dram.burst_ns_per_act", "ns/act", "lower"),
    ("dram.row_write_ns_per_kib", "ns/KiB", "lower"),
    ("hammer.campaign_ms", "ms", "lower"),
    ("hammer.campaign_defended_ms", "ms", "lower"),
    ("hammer.acts_per_campaign", "count", "lower"),
    ("mitigation.on_act_ns", "ns", "lower"),
    ("analysis.live_proof_us", "us", "lower"),
    ("telemetry.export_ms", "ms", "lower"),
    ("telemetry.encode_us_per_metric", "us", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<n>", "unit": "<u>", "better": "<b>"` triple of the
    /// `section` array in `BENCHMARK.json`, in file order.
    fn declared_in(manifest: &str, section: &str) -> Vec<(String, String, String)> {
        let start = manifest.find(&format!("\"{section}\"")).expect("section");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn owned(table: &[Declared]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        assert_eq!(declared_in(manifest, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared_in(manifest, "per_layer"), owned(&PER_LAYER));
        for w in WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name, "_.-", 64), "name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(unit, "_/%.-", 16), "unit {unit}");
            assert!(matches!(*better, "higher" | "lower"));
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(WORKLOADS.iter().all(|w| seen.insert(*w)));
    }
}
