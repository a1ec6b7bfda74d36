//! `interleave-check`: exhaustively explores every thread interleaving of
//! the telemetry hot-path RMW sequences (bounded depth) and verifies
//! linearizable counts and the histogram-merge monoid laws. Exits non-zero
//! if any schedule violates an invariant.

use analysis::interleave::check_all;
use std::process::ExitCode;

fn main() -> ExitCode {
    let results = check_all();
    let mut ok = true;
    for r in &results {
        match &r.failure {
            None => println!(
                "interleave-check: {}: OK — {} schedules over threads {:?}",
                r.name, r.schedules, r.steps_per_thread
            ),
            Some(f) => {
                ok = false;
                println!("interleave-check: {}: FAILED — {f}", r.name);
            }
        }
    }
    let total: u128 = results.iter().map(|r| r.schedules).sum();
    println!(
        "interleave-check: {} scenario(s), {total} schedules explored exhaustively",
        results.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
