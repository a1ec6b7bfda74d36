//! A minimal JSON value and writer for the harness's own result files.
//!
//! `analysis::report::Json` only carries unsigned integers; measurements
//! are floats, so the harness keeps its own small tree. Objects preserve
//! insertion order, which keeps result files diffable.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An exact unsigned count.
    Int(u64),
    /// A measurement. Non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as built.
    Obj(Vec<(String, Json)>),
    /// An already-rendered JSON document, spliced in verbatim.
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact one-line rendering (the machine-readable last stdout line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented rendering with a trailing newline (result files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Raw(text) => out.push_str(text.trim_end()),
            Json::Arr(items) => {
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                // Arrays of scalars (span rows, sample lists) stay on one line.
                let inner = if scalar { None } else { indent.map(|d| d + 1) };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, if scalar { None } else { indent });
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                let inner = indent.map(|d| d + 1);
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, inner);
                }
                if !entries.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render_the_same_document() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(42)),
            ("x", Json::Num(1.2034)),
            ("bad", Json::Num(f64::NAN)),
            ("none", Json::Null),
            ("s", Json::str("a \"q\"\n\u{1}")),
            ("row", Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("nested", Json::Arr(vec![Json::obj([("k", Json::Int(1))])])),
            ("empty", Json::Obj(vec![])),
            ("raw", Json::Raw("{\"pre\":[1]}\n".into())),
        ]);
        assert_eq!(
            doc.compact(),
            "{\"ok\":true,\"n\":42,\"x\":1.2034,\"bad\":null,\"none\":null,\
             \"s\":\"a \\\"q\\\"\\n\\u0001\",\"row\":[1,0.5],\
             \"nested\":[{\"k\":1}],\"empty\":{},\"raw\":{\"pre\":[1]}}"
        );
        let pretty = doc.pretty();
        assert!(pretty.contains("\n  \"row\": [1,0.5],\n"));
        assert!(pretty.contains("\"nested\": [\n    {\n      \"k\": 1\n    }\n  ]"));
        assert!(pretty.ends_with("}\n"));
        let squeezed: String = pretty
            .lines()
            .map(|l| l.trim_start().replace("\": ", "\":"))
            .collect();
        assert_eq!(squeezed, doc.compact());
    }
}
