//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). All binaries accept `--quick`
//! (scaled-down geometry/workloads, for smoke runs) and default to the
//! evaluation-server configuration.

#![forbid(unsafe_code)]

use siloz::SilozConfig;
use sim::{Comparison, SimConfig};

/// Scale at which to run an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Mini geometry, few ops: seconds.
    Quick,
    /// Evaluation-server geometry, full rosters: 22-30 s for all 16 binaries
    /// on a 2-core x86-64 Xeon, 10-15 s for the longest (`table3_containment`).
    Full,
}

impl Scale {
    /// Parses process arguments (`--quick` selects [`Scale::Quick`]).
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The hypervisor configuration for this scale.
    #[must_use]
    pub fn config(self) -> SilozConfig {
        match self {
            Scale::Quick => SilozConfig::mini(),
            Scale::Full => SilozConfig::evaluation(),
        }
    }

    /// The simulation parameters for this scale.
    #[must_use]
    pub fn sim(self) -> SimConfig {
        match self {
            Scale::Quick => SimConfig {
                ops: 10_000,
                repeats: 3,
                vm_memory: 256 << 20,
                vcpus: 2,
                working_set: 16 << 20,
            },
            Scale::Full => SimConfig {
                ops: 120_000,
                repeats: 5,
                vm_memory: 6 << 30,
                vcpus: 40,
                working_set: 512 << 20,
            },
        }
    }
}

/// Prints a figure's comparison rows as the paper-style table.
pub fn print_comparison_table(title: &str, unit: &str, rows: &[Comparison]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>10}",
        "workload",
        format!("reference ({unit})"),
        format!("candidate ({unit})"),
        "overhead %",
        "±95% CI"
    );
    for row in rows {
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>+12.3} {:>10.3}",
            row.workload,
            row.reference.mean,
            row.candidate.mean,
            row.overhead_pct(),
            row.ci95_pct(),
        );
    }
}

/// Snapshots `reg` and writes it to `TELEMETRY_{label}.json` (in
/// `SILOZ_TELEMETRY_DIR`, or the working directory), printing the path.
///
/// Every figure/table binary calls this last, so each run leaves a
/// machine-readable record of what the stack actually did next to its
/// human-readable output. A write failure is reported but not fatal — the
/// experiment output itself is already on stdout.
pub fn emit_telemetry(label: &str, reg: &telemetry::Registry) {
    match telemetry::write_snapshot(label, &reg.snapshot()) {
        Ok(path) => println!("\ntelemetry: wrote {}", path.display()),
        Err(e) => eprintln!("\ntelemetry: could not write TELEMETRY_{label}.json: {e}"),
    }
}

/// Renders a crude horizontal bar for a percentage (paper-figure flavour).
#[must_use]
pub fn bar(pct: f64, scale: f64) -> String {
    let chars = (pct.abs() / scale * 20.0).round() as usize;
    let body: String = std::iter::repeat_n('#', chars.min(40)).collect();
    if pct < 0.0 {
        format!("{body:>20}|")
    } else {
        format!("{:>20}|{}", "", body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_configs_are_valid() {
        Scale::Quick.config().geometry.validate().unwrap();
        Scale::Full.config().geometry.validate().unwrap();
        assert!(Scale::Quick.sim().ops < Scale::Full.sim().ops);
    }

    #[test]
    fn bar_renders_signs() {
        assert!(bar(1.0, 1.0).ends_with('#'));
        assert!(bar(-1.0, 1.0).ends_with('|'));
        assert_eq!(bar(0.0, 1.0), format!("{:>20}|", ""));
    }
}
