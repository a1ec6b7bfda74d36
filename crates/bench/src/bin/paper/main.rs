//! `paper <artifact> [--quick]`: regenerates one table or figure of the
//! paper per run (see `DESIGN.md` for the index), then writes
//! `TELEMETRY_<artifact>.json` into `SILOZ_TELEMETRY_DIR` or the working
//! directory. One artifact per process, so no state carries from one to
//! the next. Every artifact's full-scale output is committed as
//! `bench_results/<artifact>.txt`, less the "telemetry: wrote" line.
//!
//! Usage: `cargo run --release -p bench --bin paper -- <artifact> [--quick]`

mod colocation;
mod design;
mod ept_protection;
mod fig1_hierarchy;
mod fig2_layout;
mod figures;
mod fragmentation;
mod guard_overhead;
mod rowpress_sweep;
mod soak;
mod softtrr_deadlines;
mod table1_transforms;
mod table2_config;
mod table3_containment;

use bench::{emit_telemetry, Args, Scale};
use sim::Run;

const USAGE: &str = "paper <artifact> [--quick]";

/// Prints one artifact to stdout, recording into the run's registry.
type Artifact = fn(Scale, &Run);

/// Every paper artifact, by the name of its `bench_results/` file.
const ARTIFACTS: [(&str, Artifact); 16] = [
    ("table1_transforms", table1_transforms::run),
    ("table2_config", table2_config::run),
    ("fig1_hierarchy", fig1_hierarchy::run),
    ("fig2_layout", fig2_layout::run),
    ("table3_containment", table3_containment::run),
    ("ept_protection", ept_protection::run),
    ("fig4_exec_time", figures::fig4_exec_time),
    ("fig5_throughput", figures::fig5_throughput),
    ("fig6_sensitivity_time", figures::fig6_sensitivity_time),
    ("fig7_sensitivity_tput", figures::fig7_sensitivity_tput),
    ("guard_overhead", guard_overhead::run),
    ("softtrr_deadlines", softtrr_deadlines::run),
    ("colocation", colocation::run),
    ("rowpress_sweep", rowpress_sweep::run),
    ("fragmentation", fragmentation::run),
    ("soak", soak::run),
];

fn main() {
    let args = Args::from_env(USAGE);
    let chosen = args.name.as_deref();
    let Some(&(name, artifact)) = ARTIFACTS.iter().find(|(n, _)| Some(*n) == chosen) else {
        if let Some(unknown) = chosen {
            eprintln!("unknown artifact `{unknown}`");
        }
        eprintln!("usage: {USAGE}, where <artifact> is one of:");
        for (name, _) in ARTIFACTS {
            eprintln!("  {name}");
        }
        std::process::exit(2)
    };
    let run = Run::default();
    artifact(args.scale, &run);
    emit_telemetry(name, &run.reg);
}

#[cfg(test)]
mod tests {
    use super::ARTIFACTS;

    /// The committed outputs and the dispatch table name the same set, so
    /// a new artifact fails here until its full-scale output is pinned,
    /// and scripts can iterate over `bench_results/` instead of a list.
    #[test]
    fn every_artifact_is_pinned_and_every_pin_is_an_artifact() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        let mut pinned: Vec<String> = std::fs::read_dir(&dir)
            .expect("bench_results/")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "txt"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        pinned.sort();
        let mut names: Vec<String> = ARTIFACTS.iter().map(|(n, _)| n.to_string()).collect();
        names.sort();
        assert_eq!(pinned, names);
    }
}
