//! Acceptance tests for the token rules of the source gate: each rule
//! must fire on a seeded bad snippet and stay silent on the corresponding
//! good form through the gate's own entry point, so a check.sh gate
//! failure is demonstrably reachable for every rule.

use analysis::gate::{gate_loaded, gate_workspace, GateReport};
use analysis::lint::{
    classify, FileClass, RULE_ATOMICS, RULE_FORBID_UNSAFE, RULE_HOT_ALLOC, RULE_HOT_COLLECTIONS,
    RULE_METRIC_NAMES, RULE_NONDETERMINISM,
};
use analysis::symbols::{SourceFile, Workspace};
use analysis::waivers::Waivers;

const HOT: &str = "crates/memctrl/src/controller.rs";

fn gate(file: &str, src: &str) -> GateReport {
    gate_loaded(&Workspace::from_files(vec![SourceFile::new(
        file.to_string(),
        src,
    )]))
}

fn rules_fired(file: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = gate(file, src).violations.iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn hot_collections_fires_in_hot_modules_only() {
    let bad = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
    assert!(rules_fired(HOT, bad).contains(&RULE_HOT_COLLECTIONS));
    // Same source in a non-hot module is fine.
    assert!(!rules_fired("crates/sim/src/engine.rs", bad).contains(&RULE_HOT_COLLECTIONS));
    // Mentions in comments and strings do not count.
    let commented = "// HashMap is banned here\nconst WHY: &str = \"HashMap\";\n";
    assert!(rules_fired(HOT, commented).is_empty());
    // Test modules at the end of the file are exempt.
    let tested = "fn ok() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
    assert!(!rules_fired(HOT, tested).contains(&RULE_HOT_COLLECTIONS));
}

#[test]
fn hot_alloc_fires_outside_constructors() {
    let bad = "fn issue(&mut self) { self.pending = vec![0; 4]; }\n";
    assert!(rules_fired(HOT, bad).contains(&RULE_HOT_ALLOC));
    let boxed = "fn pick(&mut self) { let b = Box::new(7); }\n";
    assert!(rules_fired(HOT, boxed).contains(&RULE_HOT_ALLOC));
    let formatted = "fn label(&self) -> String { format!(\"bank {}\", 3) }\n";
    assert!(rules_fired(HOT, formatted).contains(&RULE_HOT_ALLOC));
    // Constructors may allocate.
    let ctor = "fn with_timings() -> Self { let v = vec![0; 4]; Self { v } }\n";
    assert!(!rules_fired(HOT, ctor).contains(&RULE_HOT_ALLOC));
    let newfn = "fn new() -> Self { Self { v: vec![0; 4] } }\n";
    assert!(!rules_fired(HOT, newfn).contains(&RULE_HOT_ALLOC));
}

#[test]
fn nondeterminism_fires_everywhere() {
    for bad in [
        "fn now() { let t = SystemTime::now(); }\n",
        "fn roll() { let mut r = rand::thread_rng(); }\n",
        "fn hash() { let s = RandomState::new(); }\n",
    ] {
        assert!(
            rules_fired("crates/sim/src/engine.rs", bad).contains(&RULE_NONDETERMINISM),
            "snippet should fire: {bad}"
        );
    }
    let seeded = "fn roll(seed: u64) { let mut r = StdRng::seed_from_u64(seed); }\n";
    assert!(!rules_fired("crates/sim/src/engine.rs", seeded).contains(&RULE_NONDETERMINISM));
}

#[test]
fn atomics_are_confined_to_telemetry() {
    let bad = "use std::sync::atomic::AtomicU64;\n";
    assert!(rules_fired("crates/sim/src/engine.rs", bad).contains(&RULE_ATOMICS));
    assert!(!rules_fired("crates/telemetry/src/metrics.rs", bad).contains(&RULE_ATOMICS));
}

#[test]
fn waivers_suppress_and_are_counted() {
    let waived =
        "// lint:allow(atomics-confined) work dispenser, not a metric\nuse std::sync::atomic::AtomicUsize;\n";
    let report = gate("crates/sim/src/engine.rs", waived);
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
    assert_eq!(report.waivers_used, 1);
    // File-scoped waiver covers any line.
    let file_waived =
        "// lint:allow-file(atomics-confined)\nfn a() {}\nfn b() { let x: AtomicU64 = d(); }\n";
    let report = gate("crates/sim/src/engine.rs", file_waived);
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
    assert_eq!(report.waivers_used, 1);
    // A waiver for one rule does not silence another.
    let wrong_rule = "// lint:allow(hot-alloc)\nuse std::sync::atomic::AtomicU64;\n";
    assert!(rules_fired("crates/sim/src/engine.rs", wrong_rule).contains(&RULE_ATOMICS));
}

#[test]
fn metric_names_must_be_snake_case() {
    let bad = "fn export(reg: &Registry) { reg.counter(\"RowHits\").inc(); }\n";
    assert!(rules_fired("crates/memctrl/src/stats.rs", bad).contains(&RULE_METRIC_NAMES));
    let dashed = "fn export(reg: &Registry) { reg.child(\"ctrl-main\"); }\n";
    assert!(rules_fired("crates/memctrl/src/stats.rs", dashed).contains(&RULE_METRIC_NAMES));
    let good =
        "fn export(reg: &Registry) { reg.counter(\"row_hits\").inc(); reg.child(\"ctrl\"); }\n";
    assert!(rules_fired("crates/memctrl/src/stats.rs", good).is_empty());
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let bare = "pub mod x;\n";
    assert!(rules_fired("crates/sim/src/lib.rs", bare).contains(&RULE_FORBID_UNSAFE));
    let guarded = "#![forbid(unsafe_code)]\npub mod x;\n";
    assert!(!rules_fired("crates/sim/src/lib.rs", guarded).contains(&RULE_FORBID_UNSAFE));
    // Non-root files are not required to carry the attribute.
    assert!(!rules_fired("crates/sim/src/engine.rs", bare).contains(&RULE_FORBID_UNSAFE));
}

#[test]
fn classify_matches_repo_layout() {
    assert!(classify("crates/memctrl/src/controller.rs").hot);
    assert!(classify("crates/memctrl/src/compiled.rs").hot);
    assert!(classify("crates/dram/src/bank.rs").hot);
    assert!(classify("crates/dram/src/device.rs").hot);
    assert!(classify("crates/dram/src/trr.rs").hot);
    assert!(classify("crates/dram-addr/src/tlb.rs").hot);
    assert!(classify("crates/fleet/src/queue.rs").hot);
    assert!(!classify("crates/cluster/src/queue.rs").hot);
    assert!(!classify("crates/cluster/src/scheduler.rs").hot);
    assert!(!classify("crates/cluster/src/pending.rs").hot);
    assert!(classify("crates/numa/src/claims.rs").hot);
    assert!(classify("crates/sim/src/compile.rs").hot);
    assert!(!classify("crates/memctrl/src/baseline.rs").hot);
    assert!(!classify("crates/fleet/src/engine.rs").hot);
    assert!(!classify("crates/sim/src/cache.rs").hot);
    assert!(classify("crates/telemetry/src/metrics.rs").telemetry);
    assert!(classify("crates/sim/src/lib.rs").crate_root);
    assert!(classify("src/lib.rs").crate_root);
    assert!(!classify("crates/sim/src/engine.rs").crate_root);
    let _ = FileClass::default();
}

/// The real workspace must pass the whole gate — the same invocation the
/// check.sh step runs, so a regression fails `cargo test` too — with
/// exactly the waivers it honours today, each of them live.
#[test]
fn workspace_lints_clean() {
    // Walk up from the crate dir to the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let report = gate_workspace(&root).unwrap();
    assert!(
        report.violations.is_empty(),
        "workspace gate violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.files, 181, "first-party .rs files walked");
    // No violations means no stale waiver, so every annotation in the tree
    // is one of the honoured ones.
    assert_eq!(report.waivers_used, 6);
    let ws = Workspace::load(&root).unwrap();
    let inventory: Vec<(&str, String)> = ws
        .files
        .iter()
        .flat_map(|f| {
            Waivers::collect(&f.parsed.comments)
                .entries()
                .iter()
                .map(|e| (f.rel.as_str(), e.rule.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        inventory,
        [
            ("crates/analysis/src/isolation.rs", "addr-domain-mix"),
            ("crates/bench/src/bin/fig2_layout.rs", "addr-raw-arith"),
            ("crates/dram/src/device.rs", "hot-alloc"),
            ("crates/ept/src/entry.rs", "addr-raw-arith"),
            ("crates/siloz/src/guest_paging.rs", "addr-raw-arith"),
            ("crates/sim/src/engine.rs", "atomics-confined"),
        ]
        .map(|(file, rule)| (file, rule.to_string()))
    );
}
