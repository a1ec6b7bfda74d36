//! Stable serialization of [`Snapshot`] as JSON (the `TELEMETRY_*.json`
//! schema, pinned by a golden fixture test).
//!
//! The JSON encoder is hand-rolled — the workspace builds offline with no
//! serde — and deliberately boring: 2-space indent, alphabetical key order
//! (inherited from the snapshot's `BTreeMap`s), histogram buckets encoded
//! sparsely as `[bucket_index, count]` pairs so 65-bucket histograms stay
//! readable, and `"volatile": true` emitted only when set.

use std::fmt::Write as _;

use crate::metrics::HistoSnapshot;
use crate::registry::{MetricValue, Snapshot};

/// Escapes `s` for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn histo_buckets_json(h: &HistoSnapshot) -> String {
    let pairs: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| format!("[{i}, {c}]"))
        .collect();
    format!("[{}]", pairs.join(", "))
}

fn metric_json(out: &mut String, value: &MetricValue, depth: usize) {
    let volatile_suffix = if value.is_volatile() {
        ", \"volatile\": true"
    } else {
        ""
    };
    match value {
        MetricValue::Counter { value, .. } => {
            let _ = write!(
                out,
                "{{\"type\": \"counter\", \"value\": {value}{volatile_suffix}}}"
            );
        }
        MetricValue::Gauge { value, .. } => {
            let _ = write!(
                out,
                "{{\"type\": \"gauge\", \"value\": {value}{volatile_suffix}}}"
            );
        }
        MetricValue::Histo {
            value: histo,
            volatile,
        } => {
            out.push_str("{\n");
            indent(out, depth + 1);
            let _ = writeln!(out, "\"type\": \"histo\",");
            indent(out, depth + 1);
            let _ = writeln!(out, "\"count\": {},", histo.count);
            indent(out, depth + 1);
            let _ = writeln!(out, "\"sum\": {},", histo.sum);
            indent(out, depth + 1);
            let _ = write!(out, "\"buckets\": {}", histo_buckets_json(histo));
            if *volatile {
                out.push_str(",\n");
                indent(out, depth + 1);
                out.push_str("\"volatile\": true");
            }
            out.push('\n');
            indent(out, depth);
            out.push('}');
        }
    }
}

fn snapshot_json(out: &mut String, snap: &Snapshot, depth: usize) {
    out.push_str("{\n");
    indent(out, depth + 1);
    out.push_str("\"metrics\": {");
    if snap.metrics.is_empty() {
        out.push('}');
    } else {
        out.push('\n');
        let last = snap.metrics.len() - 1;
        for (i, (name, value)) in snap.metrics.iter().enumerate() {
            indent(out, depth + 2);
            let _ = write!(out, "\"{}\": ", escape(name));
            metric_json(out, value, depth + 2);
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        indent(out, depth + 1);
        out.push('}');
    }
    out.push_str(",\n");
    indent(out, depth + 1);
    out.push_str("\"children\": {");
    if snap.children.is_empty() {
        out.push('}');
    } else {
        out.push('\n');
        let last = snap.children.len() - 1;
        for (i, (name, child)) in snap.children.iter().enumerate() {
            indent(out, depth + 2);
            let _ = write!(out, "\"{}\": ", escape(name));
            snapshot_json(out, child, depth + 2);
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        indent(out, depth + 1);
        out.push('}');
    }
    out.push('\n');
    indent(out, depth);
    out.push('}');
}

/// Renders `snap` as stable, 2-space-indented JSON.
#[must_use]
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    snapshot_json(&mut out, snap, 0);
    out
}

/// Renders the full `TELEMETRY_*.json` file body: the snapshot wrapped with
/// the schema version and suite label, ending in a newline.
#[must_use]
pub fn snapshot_file(label: &str, snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", crate::SCHEMA_VERSION);
    let _ = writeln!(out, "  \"suite\": \"{}\",", escape(label));
    out.push_str("  \"telemetry\": ");
    snapshot_json(&mut out, snap, 1);
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let root = Registry::new();
        root.counter("events").add(3);
        let ctrl = root.child("ctrl");
        ctrl.gauge("depth").add(-2);
        ctrl.histo("lat").observe(0);
        ctrl.histo("lat").observe(100);
        root.snapshot()
    }

    #[test]
    fn json_shape_is_stable() {
        let json = to_json(&sample());
        assert!(json.contains("\"events\": {\"type\": \"counter\", \"value\": 3}"));
        assert!(json.contains("\"depth\": {\"type\": \"gauge\", \"value\": -2}"));
        assert!(json.contains("\"buckets\": [[0, 1], [7, 1]]"));
        // Stable: re-encoding an identical registry produces identical text.
        assert_eq!(json, to_json(&sample()));
    }

    #[test]
    fn volatile_flag_only_when_set() {
        let root = Registry::new();
        root.counter("a").inc();
        root.counter_volatile("b").inc();
        let json = to_json(&root.snapshot());
        assert!(json.contains("\"a\": {\"type\": \"counter\", \"value\": 1}"));
        assert!(json.contains("\"b\": {\"type\": \"counter\", \"value\": 1, \"volatile\": true}"));
    }

    #[test]
    fn snapshot_file_wraps_with_schema_and_label() {
        let body = snapshot_file("unit", &sample());
        assert!(body.starts_with("{\n  \"schema\": 1,\n  \"suite\": \"unit\",\n"));
        assert!(body.ends_with("}\n"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
