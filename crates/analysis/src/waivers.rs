//! In-source waiver annotations for the source gate (`analysis::gate`).
//!
//! A comment holding `lint:allow` with a rule name in parentheses
//! suppresses that rule's findings on the annotation's line and the next;
//! `lint:allow-file` with a rule name suppresses them in the whole file
//! (`DESIGN.md` §4d has examples — spelling one out in a comment here
//! would make it a waiver). There is one namespace: every rule the gate
//! reports, token-level or dataflow.
//!
//! Waivers are live-use counted: an annotation that suppressed nothing —
//! because its exception is gone, or because it names no rule at all — is
//! itself a `stale-waiver` violation (a hard error, not a warning). Dead
//! waivers otherwise accumulate and silently disable future findings at
//! that site, and a typo'd one looks like a live exception.

use crate::lexer::Comment;
use std::collections::BTreeSet;

/// Rule name under which an unused waiver is reported.
pub const RULE_STALE_WAIVER: &str = "stale-waiver";

/// One waiver annotation.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    /// The rule the annotation names.
    pub rule: String,
    /// 1-based line of the annotation (0 for file-scoped).
    pub line: u32,
    /// Whether this is a `lint:allow-file` annotation.
    pub file_scope: bool,
}

/// All waiver annotations in one file, in source order.
#[derive(Debug, Default)]
pub struct Waivers {
    entries: Vec<WaiverEntry>,
}

impl Waivers {
    /// Parses waiver annotations out of a file's comments.
    #[must_use]
    pub fn collect(comments: &[Comment]) -> Self {
        let mut entries = Vec::new();
        for c in comments {
            for (marker, file_scope) in [("lint:allow-file(", true), ("lint:allow(", false)] {
                let mut rest = c.text.as_str();
                while let Some(at) = rest.find(marker) {
                    rest = &rest[at + marker.len()..];
                    if let Some(end) = rest.find(')') {
                        entries.push(WaiverEntry {
                            rule: rest[..end].trim().to_string(),
                            line: if file_scope { 0 } else { c.line },
                            file_scope,
                        });
                    }
                }
            }
        }
        Self { entries }
    }

    /// Index of the waiver covering (`rule`, `line`), if any. Line-scoped
    /// waivers cover their own line and the next; file-scoped cover all.
    #[must_use]
    pub fn covering(&self, rule: &str, line: u32) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.rule == rule && (e.file_scope || line == e.line || line == e.line + 1))
    }

    /// The annotations, in source order.
    #[must_use]
    pub fn entries(&self) -> &[WaiverEntry] {
        &self.entries
    }

    /// Drops waived violations from `raw`, recording the index of every
    /// annotation that suppressed at least one finding in `used`.
    #[must_use]
    pub fn filter<V, F>(&self, raw: Vec<V>, key: F, used: &mut BTreeSet<usize>) -> Vec<V>
    where
        F: Fn(&V) -> (&str, u32),
    {
        raw.into_iter()
            .filter(|v| {
                let (rule, line) = key(v);
                match self.covering(rule, line) {
                    Some(i) => {
                        used.insert(i);
                        false
                    }
                    None => true,
                }
            })
            .collect()
    }

    /// Annotations that suppressed nothing. Each is a hard `stale-waiver`
    /// finding.
    #[must_use]
    pub fn stale(&self, used: &BTreeSet<usize>) -> Vec<&WaiverEntry> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, e)| e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn collect_covering_and_stale() {
        let src = "// lint:allow(rule-a)\nlet x = 1;\n// lint:allow-file(rule-b)\n";
        let w = Waivers::collect(&scan(src).comments);
        assert_eq!(w.entries().len(), 2);
        assert_eq!(w.covering("rule-a", 2), Some(0));
        assert_eq!(w.covering("rule-a", 3), None);
        assert_eq!(w.covering("rule-b", 99), Some(1));

        let mut used = BTreeSet::new();
        used.insert(0usize);
        // rule-b's waiver is unused: stale.
        let stale = w.stale(&used);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "rule-b");
    }
}
