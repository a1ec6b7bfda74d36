//! The source gate (`siloz-lint`): one pass over one parse of the
//! workspace. [`Workspace::load`] walks, reads and lexes each file once;
//! the token rules ([`crate::lint`]) and both dataflow passes
//! ([`crate::seedflow`], [`crate::addrflow`]) report raw findings over it;
//! each file's waivers are collected once and filtered once over the union
//! of those findings, in one namespace. Renders `ANALYSIS_lint.json`.

use crate::addrflow::{self, AddrPass};
use crate::dataflow::Engine;
use crate::lint::{self, Violation};
use crate::report::Json;
use crate::seedflow::{self, SeedPass};
use crate::symbols::Workspace;
use crate::waivers::{Waivers, RULE_STALE_WAIVER};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Rule: a statement the parser could not cover. Never waivable: it is
/// reported after the waiver filter, because the fix is always to extend
/// the parser, never to look away.
pub const RULE_PARSE_COVERAGE: &str = "parse-coverage";

/// Every rule the gate reports: the six token rules, the five dataflow
/// rules, and the two the gate itself owns.
pub const ALL_RULES: [&str; 13] = [
    lint::RULE_HOT_COLLECTIONS,
    lint::RULE_HOT_ALLOC,
    lint::RULE_NONDETERMINISM,
    lint::RULE_ATOMICS,
    lint::RULE_METRIC_NAMES,
    lint::RULE_FORBID_UNSAFE,
    seedflow::RULE_TAINTED_OUTPUT,
    seedflow::RULE_NONVOLATILE_METRIC,
    seedflow::RULE_UNSEEDED_RNG,
    addrflow::RULE_RAW_ARITH,
    addrflow::RULE_DOMAIN_MIX,
    RULE_PARSE_COVERAGE,
    RULE_STALE_WAIVER,
];

/// Result of running the gate over a workspace.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Files parsed.
    pub files: usize,
    /// Functions analyzed.
    pub fns: usize,
    /// Surviving violations (post-waiver), ordered by file, line, rule.
    pub violations: Vec<Violation>,
    /// Waiver annotations that suppressed at least one finding.
    pub waivers_used: usize,
}

/// Runs the gate over every first-party file under `root`, plus the
/// golden telemetry fixture cross-check.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn gate_workspace(root: &Path) -> std::io::Result<GateReport> {
    let ws = Workspace::load(root)?;
    let mut fixture = Vec::new();
    lint::golden_fixture_check(root, &ws.files, &mut fixture)?;
    Ok(judge(&ws, fixture))
}

/// Runs the gate over an already-loaded workspace (snippet-test hook; no
/// fixture cross-check).
#[must_use]
pub fn gate_loaded(ws: &Workspace) -> GateReport {
    judge(ws, Vec::new())
}

/// Collects every per-file finding on top of `raw`, then applies each
/// file's waivers. Findings on files outside `ws` pass through unwaived.
fn judge(ws: &Workspace, mut raw: Vec<Violation>) -> GateReport {
    for f in &ws.files {
        lint::lint_file(f, &mut raw);
    }
    let seed = SeedPass;
    let mut eng = Engine::new(ws, &seed);
    eng.solve();
    raw.extend(eng.report());
    let addr = AddrPass;
    let mut eng = Engine::new(ws, &addr);
    eng.solve();
    raw.extend(eng.report());

    let mut by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in raw {
        by_file.entry(v.file.clone()).or_default().push(v);
    }
    let mut report = GateReport {
        files: ws.files.len(),
        fns: ws.fns.len(),
        ..GateReport::default()
    };
    for f in &ws.files {
        let waivers = Waivers::collect(&f.parsed.comments);
        let mut used: BTreeSet<usize> = BTreeSet::new();
        let file_raw = by_file.remove(f.rel.as_str()).unwrap_or_default();
        report
            .violations
            .extend(waivers.filter(file_raw, |v| (v.rule, v.line), &mut used));
        for e in waivers.stale(&used) {
            report.violations.push(Violation {
                rule: RULE_STALE_WAIVER,
                file: f.rel.clone(),
                line: e.line.max(1),
                message: format!(
                    "waiver `lint:allow{}({})` suppressed nothing; remove it",
                    if e.file_scope { "-file" } else { "" },
                    e.rule
                ),
            });
        }
        // Parser coverage is the foundation every taint fact rests on: a
        // recovered region holds statements the analysis never saw.
        for &line in &f.parsed.recovered {
            report.violations.push(Violation {
                rule: RULE_PARSE_COVERAGE,
                file: f.rel.clone(),
                line,
                message: "statement not covered by the analysis parser; extend \
                          `analysis::parse` (recovery is never waivable)"
                    .into(),
            });
        }
        report.waivers_used += used.len();
    }
    for (_, mut vs) in by_file {
        report.violations.append(&mut vs);
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Violation counts per rule, for every rule in [`ALL_RULES`] order.
#[must_use]
pub fn by_rule(violations: &[Violation]) -> Vec<(&'static str, usize)> {
    ALL_RULES
        .iter()
        .map(|&r| (r, violations.iter().filter(|v| v.rule == r).count()))
        .collect()
}

/// Renders the machine-readable gate report (`ANALYSIS_lint.json`).
#[must_use]
pub fn render_json(report: &GateReport, elapsed_ms: u128) -> String {
    let violations: Vec<Json> = report
        .violations
        .iter()
        .map(|v| {
            Json::obj(vec![
                ("rule", Json::Str(v.rule.to_string())),
                ("file", Json::Str(v.file.clone())),
                ("line", Json::Num(u128::from(v.line))),
                ("message", Json::Str(v.message.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("siloz-lint-v2".into())),
        ("files", Json::Num(report.files as u128)),
        ("fns", Json::Num(report.fns as u128)),
        ("waivers_used", Json::Num(report.waivers_used as u128)),
        ("elapsed_ms", Json::Num(elapsed_ms)),
        (
            "by_rule",
            Json::Obj(
                by_rule(&report.violations)
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), Json::Num(n as u128)))
                    .collect(),
            ),
        ),
        ("violations", Json::Arr(violations)),
        ("ok", Json::Bool(report.violations.is_empty())),
    ])
    .render()
}
