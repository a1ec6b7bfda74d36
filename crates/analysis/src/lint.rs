//! The token rules of the source gate (`analysis::gate`, run as
//! `siloz-lint`).
//!
//! Each rule guards an invariant this repo's correctness argument leans on
//! (see `DESIGN.md` §4d for the full table):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hot-collections` | hot-path modules use flat, deterministic state — no `HashMap`/`BTreeMap`/`HashSet`/`BTreeSet` |
//! | `hot-alloc` | hot-path modules allocate only in constructors, never per access |
//! | `nondeterminism` | no `SystemTime`/`thread_rng`/`RandomState`/`from_entropy` anywhere — all randomness is seeded, all time is simulated or volatile |
//! | `atomics-confined` | raw atomics live only in `crates/telemetry`; everything else goes through its metric types |
//! | `metric-names` | registry name literals are snake_case, and the golden fixture's names all exist in source |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//!
//! The rules read the token stream of a file the gate has already parsed
//! ([`SourceFile::parsed`]), so a gate run lexes each file once. Waivers
//! and `stale-waiver` are the gate's, one namespace for these rules and
//! the dataflow rules alike.

use crate::lexer::{Token, TokenKind};
use crate::symbols::SourceFile;
use std::collections::BTreeSet;
use std::path::Path;

/// Rule: banned collection types in hot-path modules.
pub const RULE_HOT_COLLECTIONS: &str = "hot-collections";
/// Rule: allocation outside constructors in hot-path modules.
pub const RULE_HOT_ALLOC: &str = "hot-alloc";
/// Rule: banned nondeterminism sources.
pub const RULE_NONDETERMINISM: &str = "nondeterminism";
/// Rule: atomics outside `crates/telemetry`.
pub const RULE_ATOMICS: &str = "atomics-confined";
/// Rule: malformed or stale metric-name literals.
pub const RULE_METRIC_NAMES: &str = "metric-names";
/// Rule: crate root missing `#![forbid(unsafe_code)]`.
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";

/// Source files on the per-access paths that `benchmark/`'s per-layer
/// probes time; the `hot-*` rules apply only here. The cluster's host
/// picker and pending queue are not among them: they run once per
/// placement (1.2% of a `cluster_churn` event), not per access, and sit
/// on std ordered collections.
const HOT_MODULES: [&str; 10] = [
    "crates/memctrl/src/controller.rs",
    "crates/memctrl/src/compiled.rs",
    "crates/dram/src/bank.rs",
    "crates/dram/src/device.rs",
    "crates/dram/src/trr.rs",
    "crates/dram-addr/src/tlb.rs",
    "crates/fleet/src/queue.rs",
    "crates/numa/src/claims.rs",
    "crates/mitigation/src/backends.rs",
    "crates/sim/src/compile.rs",
];

const HOT_COLLECTION_IDENTS: [&str; 4] = ["HashMap", "BTreeMap", "HashSet", "BTreeSet"];
const NONDETERMINISM_IDENTS: [&str; 4] =
    ["SystemTime", "thread_rng", "RandomState", "from_entropy"];
/// Registry methods whose first argument is a metric/child name literal.
const REGISTRY_NAME_METHODS: [&str; 7] = [
    "counter",
    "gauge",
    "histo",
    "counter_volatile",
    "gauge_volatile",
    "histo_volatile",
    "child",
];
/// Structural keys of the snapshot JSON schema; everything else in the
/// golden fixture is a metric or child name.
const GOLDEN_STRUCTURAL_KEYS: [&str; 11] = [
    "schema",
    "suite",
    "telemetry",
    "metrics",
    "children",
    "type",
    "value",
    "count",
    "sum",
    "buckets",
    "volatile",
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file is treated by path-scoped rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Subject to the `hot-*` rules.
    pub hot: bool,
    /// Inside `crates/telemetry/` (exempt from `atomics-confined`).
    pub telemetry: bool,
    /// A crate root (`src/lib.rs`), subject to `forbid-unsafe`.
    pub crate_root: bool,
}

/// Classifies a repo-relative path (forward slashes).
#[must_use]
pub fn classify(path: &str) -> FileClass {
    FileClass {
        hot: HOT_MODULES.contains(&path),
        telemetry: path.starts_with("crates/telemetry/"),
        crate_root: path == "src/lib.rs"
            || (path.starts_with("crates/") && path.ends_with("/src/lib.rs")),
    }
}

/// Runs the token rules over one parsed file, appending its raw
/// (pre-waiver) findings to `out`. Path-scoped rules follow
/// [`classify`]`(&file.rel)`.
pub(crate) fn lint_file(file: &SourceFile, out: &mut Vec<Violation>) {
    let (rel, tokens) = (file.rel.as_str(), file.parsed.tokens.as_slice());
    let class = classify(rel);
    let test_cutoff = test_cutoff_line(tokens);
    ident_rules(rel, tokens, class, test_cutoff, out);
    if class.hot {
        hot_alloc_rule(rel, tokens, test_cutoff, out);
    }
    metric_name_rule(rel, tokens, out);
    if class.crate_root {
        forbid_unsafe_rule(rel, tokens, out);
    }
}

/// First line belonging to `#[cfg(test)]` code, or `u32::MAX`. The repo
/// convention keeps test modules at the end of each file, so a line-based
/// cutoff is exact in practice.
fn test_cutoff_line(t: &[Token]) -> u32 {
    for i in 0..t.len().saturating_sub(2) {
        if is_ident(&t[i], "cfg") && is_punct(&t[i + 1], "(") && is_ident(&t[i + 2], "test") {
            return t[i].line;
        }
    }
    u32::MAX
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

/// The single-identifier rules: banned collections (hot files), banned
/// nondeterminism sources (everywhere), atomics (outside telemetry).
fn ident_rules(
    file: &str,
    tokens: &[Token],
    class: FileClass,
    test_cutoff: u32,
    out: &mut Vec<Violation>,
) {
    for t in tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if class.hot && t.line < test_cutoff && HOT_COLLECTION_IDENTS.contains(&t.text.as_str()) {
            out.push(Violation {
                rule: RULE_HOT_COLLECTIONS,
                file: file.into(),
                line: t.line,
                message: format!(
                    "`{}` in a hot-path module; use flat geometry-ordinal arrays or \
                     `dram::rowmap::RowMap`",
                    t.text
                ),
            });
        }
        if NONDETERMINISM_IDENTS.contains(&t.text.as_str()) {
            out.push(Violation {
                rule: RULE_NONDETERMINISM,
                file: file.into(),
                line: t.line,
                message: format!(
                    "`{}` is a nondeterminism source; use seeded RNGs and simulated time",
                    t.text
                ),
            });
        }
        if !class.telemetry && t.text.starts_with("Atomic") {
            out.push(Violation {
                rule: RULE_ATOMICS,
                file: file.into(),
                line: t.line,
                message: format!(
                    "`{}` outside crates/telemetry; use telemetry::Counter/Gauge or waive \
                     with a justification",
                    t.text
                ),
            });
        }
    }
}

/// Allocation constructs in hot files, allowed only inside constructor-like
/// functions (`new`, `default`, `with_*`) and test code.
fn hot_alloc_rule(file: &str, t: &[Token], test_cutoff: u32, out: &mut Vec<Violation>) {
    let mut current_fn = String::new();
    for i in 0..t.len() {
        if is_ident(&t[i], "fn") {
            if let Some(name) = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                current_fn = name.text.clone();
            }
        }
        if t[i].line >= test_cutoff || is_constructor(&current_fn) {
            continue;
        }
        let construct = if is_ident(&t[i], "vec") && t.get(i + 1).is_some_and(|n| is_punct(n, "!"))
        {
            Some("vec!")
        } else if is_ident(&t[i], "format") && t.get(i + 1).is_some_and(|n| is_punct(n, "!")) {
            Some("format!")
        } else if is_ident(&t[i], "Box")
            && t.get(i + 1).is_some_and(|n| is_punct(n, ":"))
            && t.get(i + 3).is_some_and(|n| is_ident(n, "new"))
        {
            Some("Box::new")
        } else if t[i].kind == TokenKind::Ident
            && matches!(t[i].text.as_str(), "to_owned" | "to_string" | "to_vec")
        {
            Some("owned-copy method")
        } else {
            None
        };
        if let Some(what) = construct {
            out.push(Violation {
                rule: RULE_HOT_ALLOC,
                file: file.into(),
                line: t[i].line,
                message: format!(
                    "{what} in hot-path fn `{current_fn}`; allocate in constructors \
                     (`new`/`with_*`/`default`), not per access"
                ),
            });
        }
    }
}

fn is_constructor(name: &str) -> bool {
    name == "new" || name == "default" || name.starts_with("with_")
}

/// The name literals passed as first argument to registry constructors.
fn registry_names(t: &[Token]) -> impl Iterator<Item = &Token> {
    t.windows(3)
        .filter(|w| {
            w[0].kind == TokenKind::Ident
                && REGISTRY_NAME_METHODS.contains(&w[0].text.as_str())
                && is_punct(&w[1], "(")
                && w[2].kind == TokenKind::Str
        })
        .map(|w| &w[2])
}

/// Metric-name literals passed to registry constructors must be snake_case.
fn metric_name_rule(file: &str, t: &[Token], out: &mut Vec<Violation>) {
    for name in registry_names(t) {
        if !is_snake_case(&name.text) {
            out.push(Violation {
                rule: RULE_METRIC_NAMES,
                file: file.into(),
                line: name.line,
                message: format!(
                    "metric/child name {:?} is not snake_case ([a-z][a-z0-9_]*)",
                    name.text
                ),
            });
        }
    }
}

fn is_snake_case(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Crate roots must carry `#![forbid(unsafe_code)]`.
fn forbid_unsafe_rule(file: &str, t: &[Token], out: &mut Vec<Violation>) {
    let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = (0..t.len().saturating_sub(want.len() - 1)).any(|i| {
        want.iter().enumerate().all(|(k, w)| {
            let tok = &t[i + k];
            tok.text == *w
        })
    });
    if !found {
        out.push(Violation {
            rule: RULE_FORBID_UNSAFE,
            file: file.into(),
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]`".into(),
        });
    }
}

/// Every metric/child name in the golden fixture must still exist as a
/// literal somewhere in source — otherwise the fixture is stale and the
/// schema test is pinning names nothing produces. `files` is the whole
/// workspace; findings land on the fixture and are not waivable.
///
/// # Errors
///
/// Returns any I/O error from reading the fixture.
pub(crate) fn golden_fixture_check(
    root: &Path,
    files: &[SourceFile],
    out: &mut Vec<Violation>,
) -> std::io::Result<()> {
    let literals: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| registry_names(&f.parsed.tokens))
        .map(|t| t.text.as_str())
        .collect();
    let fixture = "tests/fixtures/telemetry_golden.json";
    let path = root.join(fixture);
    if !path.exists() {
        out.push(Violation {
            rule: RULE_METRIC_NAMES,
            file: fixture.into(),
            line: 1,
            message: "golden telemetry fixture is missing".into(),
        });
        return Ok(());
    }
    let body = std::fs::read_to_string(path)?;
    for (name, line) in json_object_keys(&body) {
        if GOLDEN_STRUCTURAL_KEYS.contains(&name.as_str()) {
            continue;
        }
        if !literals.contains(name.as_str()) {
            out.push(Violation {
                rule: RULE_METRIC_NAMES,
                file: fixture.into(),
                line,
                message: format!(
                    "fixture name {name:?} does not appear as a registry name literal \
                     anywhere in source (stale fixture?)"
                ),
            });
        }
    }
    Ok(())
}

/// Extracts `"key":` object keys (with line numbers) from a JSON document —
/// enough structure for the fixture cross-check without a JSON dependency.
fn json_object_keys(body: &str) -> Vec<(String, u32)> {
    let mut keys = Vec::new();
    let mut line = 1u32;
    let chars: Vec<char> = body.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '\n' => line += 1,
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '"' {
                    if chars[j] == '\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let text: String = chars[start..j.min(chars.len())].iter().collect();
                let mut k = j + 1;
                while k < chars.len() && chars[k].is_whitespace() && chars[k] != '\n' {
                    k += 1;
                }
                if chars.get(k) == Some(&':') {
                    keys.push((text, line));
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}
