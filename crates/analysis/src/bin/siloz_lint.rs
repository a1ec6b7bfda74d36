//! `siloz-lint`: the source gate. Parses every first-party source file
//! once and runs the token rules, the `seed-provenance` pass and the
//! `address-domain` pass over it under one waiver namespace (see
//! `analysis::gate`). Writes `ANALYSIS_lint.json` to the current
//! directory; run from the repository root (as `scripts/check.sh` does).
//! Exits non-zero on any surviving violation, on a parse-coverage hole,
//! or if the whole run blows its wall-clock budget — a gate nobody waits
//! on is a gate people delete.

use analysis::gate::{by_rule, gate_workspace, render_json};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The whole-workspace run must finish inside this budget.
const BUDGET_MS: u128 = 15_000;

fn main() -> ExitCode {
    let json_mode = std::env::args().any(|a| a == "--json");
    let root = Path::new(".");
    if !root.join("Cargo.toml").exists() {
        eprintln!("siloz-lint: run from the repository root (no ./Cargo.toml here)");
        return ExitCode::FAILURE;
    }
    let start = Instant::now();
    let report = match gate_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("siloz-lint: workspace walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = start.elapsed().as_millis();
    let json = render_json(&report, elapsed_ms);
    if json_mode {
        println!("{json}");
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        let summary: Vec<String> = by_rule(&report.violations)
            .into_iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        println!(
            "siloz-lint: {} files, {} fns, {} waivers honored, {} violation(s) in {elapsed_ms} ms [{}]",
            report.files,
            report.fns,
            report.waivers_used,
            report.violations.len(),
            summary.join(" ")
        );
    }
    if let Err(e) = std::fs::write("ANALYSIS_lint.json", &json) {
        eprintln!("siloz-lint: cannot write ANALYSIS_lint.json: {e}");
        return ExitCode::FAILURE;
    }
    if elapsed_ms > BUDGET_MS {
        eprintln!("siloz-lint: {elapsed_ms} ms exceeds the {BUDGET_MS} ms budget");
        return ExitCode::FAILURE;
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
