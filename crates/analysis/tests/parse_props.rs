//! Property tests for the analysis parser: randomly generated programs
//! from the workspace's Rust subset must parse with zero recovered
//! statements, and the real workspace itself must stay fully covered.
//!
//! The generators deliberately compose the constructs the dataflow passes
//! depend on (calls, methods, fields, binary chains, let/if/while/match,
//! closures, indexing, ranges, `?`, struct literals, `if let`/`while let`,
//! `loop`/`break` values, match guards, `let ... else`) so a parser
//! regression surfaces here before it punches a hole in the gate's
//! coverage. Closures, ranges and struct literals are parenthesized, so
//! they stay valid in condition and scrutinee position.

use analysis::parse::parse_file;
use analysis::symbols::Workspace;
use proptest::prelude::*;
use proptest::{Strategy, TestRng};

/// Adapts a grammar-directed generator closure to the `Strategy` trait.
struct Gen<F>(F);

impl<F: Fn(&mut TestRng) -> String> Strategy for Gen<F> {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        (self.0)(rng)
    }
}

/// A short identifier, prefixed to dodge every keyword in the subset.
fn ident(rng: &mut TestRng) -> String {
    const POOL: [&str; 8] = ["xa", "xb", "xval", "xrow", "xacc", "xleft", "xnode", "xtmp"];
    POOL[(rng.next_u64() % POOL.len() as u64) as usize].to_string()
}

/// One expression from the subset, depth-bounded.
fn expr(rng: &mut TestRng, depth: u32) -> String {
    if depth == 0 {
        return match rng.next_u64() % 4 {
            0 => (rng.next_u64() % 1000).to_string(),
            1 => ident(rng),
            2 => "true".to_string(),
            _ => "\"s\"".to_string(),
        };
    }
    let d = depth - 1;
    match rng.next_u64() % 20 {
        0 => {
            const OPS: [&str; 14] = [
                "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=",
            ];
            let op = OPS[(rng.next_u64() % OPS.len() as u64) as usize];
            format!("({} {op} {})", expr(rng, d), expr(rng, d))
        }
        1 => {
            let n_args = rng.next_u64() % 3;
            let args: Vec<String> = (0..n_args).map(|_| expr(rng, d)).collect();
            format!("{}({})", ident(rng), args.join(", "))
        }
        2 => {
            let n_args = rng.next_u64() % 2;
            let args: Vec<String> = (0..n_args).map(|_| expr(rng, d)).collect();
            format!("{}.{}({})", expr(rng, d), ident(rng), args.join(", "))
        }
        3 => format!("{}.{}", expr(rng, d), ident(rng)),
        4 => format!("{}::{}", ident(rng), ident(rng)),
        5 => format!("-{}", expr(rng, d)),
        6 => format!("!{}", expr(rng, d)),
        7 => format!("&{}", expr(rng, d)),
        8 => format!("({} as u64)", expr(rng, d)),
        9 => {
            let n = rng.next_u64() % 3;
            let items: Vec<String> = (0..n).map(|_| expr(rng, d)).collect();
            format!("vec![{}]", items.join(", "))
        }
        10 => format!("Some({})", expr(rng, d)),
        11 => format!("(|{}| {})", ident(rng), expr(rng, d)),
        12 => format!("(move || {})", expr(rng, d)),
        13 => format!("{}[{}]", ident(rng), expr(rng, d)),
        14 => format!("({}..{})", expr(rng, d), expr(rng, d)),
        15 => format!("(..={})", expr(rng, d)),
        16 => format!("{}?", expr(rng, d)),
        17 => format!(
            "(Pt {{ {}: {}, {}, ..{} }})",
            ident(rng),
            expr(rng, d),
            ident(rng),
            expr(rng, d)
        ),
        18 => format!("loop {{ break {} }}", expr(rng, d)),
        _ => format!("({})", expr(rng, d)),
    }
}

/// One statement over the expression generator.
fn stmt(rng: &mut TestRng) -> String {
    match rng.next_u64() % 13 {
        0 => format!("let {} = {};", ident(rng), expr(rng, 2)),
        1 => format!("let mut {} = {};", ident(rng), expr(rng, 2)),
        2 => format!("{};", expr(rng, 2)),
        3 => format!("if {} {{ let y = {}; }}", expr(rng, 1), expr(rng, 2)),
        4 => format!(
            "if {} {{ {}; }} else {{ {}; }}",
            expr(rng, 1),
            expr(rng, 2),
            expr(rng, 2)
        ),
        5 => format!("while {} {{ {}; }}", expr(rng, 1), expr(rng, 2)),
        6 => format!("for i in 0..4 {{ {}; }}", expr(rng, 2)),
        7 => format!("return {};", expr(rng, 2)),
        8 => format!(
            "if let Some({}) = {} {{ {}; }}",
            ident(rng),
            expr(rng, 1),
            expr(rng, 2)
        ),
        9 => format!(
            "while let Some({}) = {} {{ {}; }}",
            ident(rng),
            expr(rng, 1),
            expr(rng, 2)
        ),
        10 => format!(
            "let Some({}) = {} else {{ return {}; }};",
            ident(rng),
            expr(rng, 2),
            expr(rng, 1)
        ),
        11 => format!(
            "match {} {{ Some(v) if v > {} => {}, _ => {}, }};",
            expr(rng, 1),
            expr(rng, 1),
            expr(rng, 2),
            expr(rng, 2)
        ),
        _ => format!(
            "match {} {{ Some(v) => {}, _ => {}, }};",
            expr(rng, 1),
            expr(rng, 2),
            expr(rng, 2)
        ),
    }
}

fn assert_full_parse(src: &str) {
    let parsed = parse_file(src);
    assert!(
        parsed.recovered.is_empty(),
        "recovery at lines {:?} in:\n{src}",
        parsed.recovered
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn generated_expressions_parse_without_recovery(e in Gen(|rng: &mut TestRng| expr(rng, 3))) {
        assert_full_parse(&format!("fn f(a: u64, b: u64) -> u64 {{ {e} }}\n"));
    }

    fn generated_statements_parse_without_recovery(
        body in Gen(|rng: &mut TestRng| {
            let n = 1 + rng.next_u64() % 5;
            (0..n).map(|_| stmt(rng)).collect::<Vec<_>>().join("\n    ")
        })
    ) {
        assert_full_parse(&format!("fn f(a: u64) {{\n    {body}\n}}\n"));
    }

    fn generated_items_parse_without_recovery(
        e in Gen(|rng: &mut TestRng| expr(rng, 3)),
        n in Gen(ident),
    ) {
        let src = format!(
            "pub struct S {{ pub field: u64 }}\n\
             impl S {{\n    pub fn {n}(&self) -> u64 {{ {e} }}\n}}\n\
             pub fn free(s: &S) -> u64 {{ s.{n}() }}\n"
        );
        assert_full_parse(&src);
    }

    fn fn_count_matches_generated_items(k in 1usize..5) {
        let src: String = (0..k).map(|i| format!("fn f{i}() -> u64 {{ 0 }}\n")).collect();
        let parsed = parse_file(&src);
        prop_assert!(parsed.recovered.is_empty());
        prop_assert_eq!(parsed.items.len(), k);
    }
}

#[test]
fn struct_literal_fields_may_carry_attributes() {
    assert_full_parse(
        "fn f(a: u64) -> S {\n    \
         let s = S { #[cfg(test)] a, b: 1 };\n    \
         S { a, #[allow(unused)] b: a + 1, ..s }\n}\n",
    );
}

#[test]
fn path_qualified_item_macros_parse() {
    let src = "proptest::proptest! {\n    fn p(x in 0u64..4) { assert!(x < 4); }\n}\n\
               std::thread_local! { static N: u64 = 0; }\n\
               fn after() -> u64 { 0 }\n";
    assert_full_parse(src);
    assert_eq!(parse_file(src).items.len(), 3);
}

/// The real workspace must parse with zero recoveries: any construct the
/// parser cannot cover is a hole in the gate's guarantees, so this fails
/// in `cargo test` with the offending file and line, not just in the gate.
#[test]
fn whole_workspace_parses_without_recovery() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let ws = Workspace::load(&root).expect("workspace walk");
    assert!(
        ws.files.len() > 100,
        "suspiciously few files: {}",
        ws.files.len()
    );
    let holes: Vec<String> = ws
        .files
        .iter()
        .flat_map(|f| f.parsed.recovered.iter().map(|l| format!("{}:{l}", f.rel)))
        .collect();
    assert!(holes.is_empty(), "parser recovery at: {holes:?}");
}
