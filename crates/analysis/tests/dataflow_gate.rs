//! Seeded snippet tests for the dataflow rules and the waiver machinery
//! of the source gate (`siloz-lint`): every rule has a bad twin that must
//! fire and a good twin that must stay silent — silent on all of the
//! gate's rules, token rules included — so a regression in either
//! direction (a rule going blind, or a rule going noisy) fails
//! `cargo test` before it reaches the gate itself.

use analysis::gate::{gate_loaded, RULE_PARSE_COVERAGE};
use analysis::symbols::{SourceFile, Workspace};
use analysis::waivers::RULE_STALE_WAIVER;

/// Builds a workspace from `(rel, source)` pairs.
fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_files(
        files
            .iter()
            .map(|(rel, src)| SourceFile::new((*rel).to_string(), src))
            .collect(),
    )
}

/// Rules reported by the gate over the given snippet files.
fn fired(files: &[(&str, &str)]) -> Vec<&'static str> {
    let report = gate_loaded(&ws(files));
    report.violations.iter().map(|v| v.rule).collect()
}

/// Not a crate root, so `forbid-unsafe` stays out of the good twins.
const REL: &str = "crates/snippet/src/snippet.rs";

#[test]
fn parse_coverage_fires_on_unparsed_statements() {
    let bad = fired(&[(REL, "fn f() { @ @ @ }\n")]);
    assert!(bad.contains(&RULE_PARSE_COVERAGE), "got {bad:?}");
    assert!(fired(&[(REL, "fn f() -> u64 { 1 + 2 }\n")]).is_empty());
}

#[test]
fn unseeded_rng_fires_at_the_construction_site() {
    let bad = fired(&[(REL, "fn f() -> u64 { let r = thread_rng(); 0 }\n")]);
    assert!(bad.contains(&"seed-unseeded-rng"), "got {bad:?}");
    let bad = fired(&[(REL, "fn f() -> u64 { let x = rand::random(); x }\n")]);
    assert!(bad.contains(&"seed-unseeded-rng"), "got {bad:?}");
    // A workspace constructor named `random` that takes an explicit RNG is
    // seeded; only the bare entropy source is flagged.
    let good = "fn f(rows: u64, rng: u64) -> u64 { Pattern::random(rows, rng) }\n";
    assert!(fired(&[(REL, good)]).is_empty());
}

#[test]
fn tainted_output_fires_when_ambient_reaches_a_run_entry() {
    let bad = "pub fn run_probe() -> u64 { let t = Instant::now(); t }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"seed-tainted-output"), "got {got:?}");
    let good = "pub fn run_probe(seed: u64) -> u64 { seed * 3 }\n";
    assert!(fired(&[(REL, good)]).is_empty());
    // Figure drivers are output sinks by their own name, not through a
    // callee's.
    let bad = "pub fn figure9(run: u64) -> u64 { let t = Instant::now(); t }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"seed-tainted-output"), "got {got:?}");
    let good = "pub fn figure9(seed: u64) -> u64 { seed * 3 }\n";
    assert!(fired(&[(REL, good)]).is_empty());
}

#[test]
fn tainted_output_tracks_interprocedural_flow() {
    // The clock leaks through a helper's return value; the sink is in a
    // different function than the source.
    let bad = "fn stamp() -> u64 { let t = Instant::now(); t }\n\
               pub fn run_probe() -> u64 { stamp() }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"seed-tainted-output"), "got {got:?}");
}

#[test]
fn map_iteration_order_is_tainted_until_sorted() {
    let bad = "pub fn run_keys(m: u64) -> u64 {\n\
                   let h = HashMap::new();\n\
                   let mut v = h.keys();\n\
                   v\n\
               }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"seed-tainted-output"), "got {got:?}");
    // Sorting restores a canonical order and scrubs the taint.
    let good = "pub fn run_keys(m: u64) -> u64 {\n\
                    let h = HashMap::new();\n\
                    let mut v = h.keys();\n\
                    v.sort_unstable();\n\
                    v\n\
                }\n";
    assert!(fired(&[(REL, good)]).is_empty());
}

#[test]
fn nonvolatile_metric_fires_unless_the_handle_is_volatile() {
    let bad = "fn f(reg: u64) {\n\
                   let m = reg.counter(\"x\");\n\
                   let t = Instant::now();\n\
                   m.observe(t);\n\
               }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"seed-nonvolatile-metric"), "got {got:?}");
    let good = "fn f(reg: u64) {\n\
                    let m = reg.counter_volatile(\"x\");\n\
                    let t = Instant::now();\n\
                    m.observe(t);\n\
                }\n";
    assert!(fired(&[(REL, good)]).is_empty());
}

#[test]
fn raw_arith_fires_outside_the_whitelist_only() {
    let bad = "fn f(hpa: u64) -> u64 { hpa >> 12 }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"addr-raw-arith"), "got {got:?}");
    // Offset math on an address is every caller's business.
    assert!(fired(&[(REL, "fn f(hpa: u64) -> u64 { hpa + 4096 }\n")]).is_empty());
    // The decoder's own bit math is its job.
    let decoder = "crates/dram-addr/src/decoder.rs";
    assert!(fired(&[(decoder, bad)]).is_empty());
}

#[test]
fn domain_mix_fires_on_cross_domain_comparison() {
    let bad = "fn f(gpa: u64, hpa: u64) -> bool { gpa == hpa }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"addr-domain-mix"), "got {got:?}");
    let good = "fn f(gpa: u64, other_gpa: u64) -> bool { gpa == other_gpa }\n";
    assert!(fired(&[(REL, good)]).is_empty());
}

#[test]
fn domain_mix_tracks_interprocedural_confusion() {
    // The guest address is laundered through an innocently-named helper;
    // only the interprocedural summary can see the mix at the comparison.
    let bad = "fn launder(gpa: u64) -> u64 { gpa }\n\
               fn f(gpa: u64, hpa: u64) -> bool {\n\
                   let addr = launder(gpa);\n\
                   addr == hpa\n\
               }\n";
    let got = fired(&[(REL, bad)]);
    assert!(got.contains(&"addr-domain-mix"), "got {got:?}");
}

#[test]
fn waiver_suppresses_and_counts() {
    let src = "// a justified exception. lint:allow(addr-raw-arith)\n\
               fn f(hpa: u64) -> u64 { hpa >> 12 }\n";
    let report = gate_loaded(&ws(&[(REL, src)]));
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn stale_waiver_is_a_hard_error() {
    // The waiver names a dataflow rule but suppresses nothing: hard error.
    let src = "// lint:allow(addr-raw-arith)\n\
               fn f(hpa: u64) -> u64 { hpa + 1 }\n";
    let report = gate_loaded(&ws(&[(REL, src)]));
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec![RULE_STALE_WAIVER]);
    assert_eq!(report.waivers_used, 0);
}

#[test]
fn waiver_naming_no_rule_is_stale() {
    // A typo (`addr-raw-arithmetic` for `addr-raw-arith`) names no rule,
    // so it can suppress nothing: stale, like any other unused waiver.
    let src = "// lint:allow(addr-raw-arithmetic)\n\
               fn f(hpa: u64) -> u64 { hpa + 1 }\n";
    let report = gate_loaded(&ws(&[(REL, src)]));
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec![RULE_STALE_WAIVER]);
    assert_eq!(report.waivers_used, 0);
    // Over a real finding it leaves the finding in place.
    let src = "// lint:allow(addr-raw-arithmetic)\n\
               fn f(hpa: u64) -> u64 { hpa >> 12 }\n";
    let got = fired(&[(REL, src)]);
    assert_eq!(
        got,
        vec![RULE_STALE_WAIVER, "addr-raw-arith"],
        "got {got:?}"
    );
}

#[test]
fn parse_coverage_cannot_be_waived() {
    // Recovery is reported after the waiver filter: a waiver naming it
    // leaves the finding in place and is itself stale.
    let src = "// lint:allow(parse-coverage)\n\
               fn f() { @ @ @ }\n";
    let report = gate_loaded(&ws(&[(REL, src)]));
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&RULE_PARSE_COVERAGE), "got {rules:?}");
    assert!(rules.contains(&RULE_STALE_WAIVER), "got {rules:?}");
    assert_eq!(report.waivers_used, 0);
}

#[test]
fn test_scope_is_exempt() {
    // The same decomposition inside a test file stays silent: the gate
    // polices shipped analysis code, not fixtures.
    let bad = "fn f(hpa: u64) -> u64 { hpa >> 12 }\n";
    assert!(fired(&[("crates/snippet/tests/fixture.rs", bad)]).is_empty());
}
