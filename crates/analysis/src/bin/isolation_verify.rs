//! `isolation-verify`: exhaustively proves decoder bijectivity and
//! isolation-domain containment for every supported configuration, and
//! writes `ANALYSIS_isolation.json` to the current directory. Exits
//! non-zero if any proof step fails.

use analysis::isolation::{report_json, verify_all};
use std::process::ExitCode;

fn main() -> ExitCode {
    let proofs = verify_all();
    let json = report_json(&proofs);
    if let Err(e) = std::fs::write("ANALYSIS_isolation.json", &json) {
        eprintln!("isolation-verify: cannot write ANALYSIS_isolation.json: {e}");
        return ExitCode::FAILURE;
    }
    for p in &proofs {
        let presumed: Vec<String> = p
            .presumed
            .iter()
            .map(|pp| {
                format!(
                    "{} rows -> {} domains ({} pages contained)",
                    pp.presumed_rows, pp.groups, pp.pages_2m
                )
            })
            .collect();
        match &p.failure {
            None => println!(
                "isolation-verify: {}: OK — {} stripes bijected, {} permutation ops, \
                 {} roundtrips; presumed sizes: {}",
                p.name,
                p.stripes,
                p.perm_ops,
                p.roundtrips,
                presumed.join(", ")
            ),
            Some(f) => println!("isolation-verify: {}: FAILED — {f}", p.name),
        }
    }
    println!("isolation-verify: wrote ANALYSIS_isolation.json");
    if proofs.iter().all(analysis::isolation::ConfigProof::passed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
