//! Workspace symbol table and call graph over the parsed AST.
//!
//! [`Workspace::load`] parses every first-party `.rs` file under a root,
//! flattens the item trees into a table of function declarations
//! ([`FnDecl`]) with enough context to resolve calls (self type, trait,
//! crate, test scope), and builds name-based resolution indices.
//!
//! Resolution is deliberately name-based and over-approximate: the parser
//! keeps types as raw spans, so `a.insert(..)` resolves to *every*
//! workspace method named `insert`. The dataflow engine joins over all
//! candidates, which is sound for taint (may-analysis) and precise enough
//! in practice — the workspace's method names are rarely ambiguous across
//! types that matter to a pass.

use crate::parse::{parse_file, Block, Expr, ExprKind, FnItem, Item, ParsedFile, Stmt};
use std::collections::BTreeMap;
use std::path::Path;

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Owning crate name (`fleet` for `crates/fleet/src/engine.rs`;
    /// the workspace root crate is `siloz-repro`).
    pub krate: String,
    /// Whether the whole file is test/bench scope (`tests/`, `benches/`,
    /// `examples/`).
    pub test_file: bool,
    /// The parse.
    pub parsed: ParsedFile,
}

impl SourceFile {
    /// Lexes and parses `source`, deriving crate and test scope from `rel`.
    #[must_use]
    pub fn new(rel: String, source: &str) -> SourceFile {
        SourceFile {
            krate: crate_of(&rel),
            test_file: is_test_path(&rel),
            parsed: parse_file(source),
            rel,
        }
    }
}

/// One function declaration found anywhere in the workspace.
#[derive(Debug)]
pub struct FnDecl {
    /// Index into [`Workspace::files`].
    pub file: u32,
    /// Item-tree path from the file's top-level items to the `FnItem`.
    pub path: Vec<u16>,
    /// Function name.
    pub name: String,
    /// Self type when declared inside an `impl` block.
    pub self_ty: Option<String>,
    /// Trait name when declared inside a trait impl (or trait definition).
    pub trait_name: Option<String>,
    /// Whether the parameter list has a `self` receiver.
    pub has_self: bool,
    /// Whether the fn lives in test scope (`#[cfg(test)]` module or a
    /// test/bench file).
    pub in_test: bool,
    /// 1-based line of the `fn` name.
    pub line: u32,
}

/// The workspace: parsed files, the function table, and resolution indices.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Every function declaration.
    pub fns: Vec<FnDecl>,
    /// `name -> fn ids` for methods (fns with a `self` receiver).
    methods: BTreeMap<String, Vec<usize>>,
    /// `name -> fn ids` for free/associated fns (no receiver).
    frees: BTreeMap<String, Vec<usize>>,
    /// `(self_ty, name) -> fn ids` for associated-path resolution.
    typed: BTreeMap<(String, String), Vec<usize>>,
}

impl Workspace {
    /// Reads and parses every first-party `.rs` file under `root`
    /// (skipping `vendor/`, `target/`, `.git`) and builds the symbol
    /// table. This is the gate's only walk and only lex of the tree.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking or reading the tree.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut rels = Vec::new();
        collect_rs_files(root, root, &mut rels)?;
        rels.sort();
        let mut files = Vec::new();
        for rel in rels {
            let source = std::fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel, &source));
        }
        Ok(Self::from_files(files))
    }

    /// Builds the table from already-parsed files (used by snippet tests).
    #[must_use]
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        let mut ws = Workspace {
            files,
            fns: Vec::new(),
            methods: BTreeMap::new(),
            frees: BTreeMap::new(),
            typed: BTreeMap::new(),
        };
        for fi in 0..ws.files.len() {
            let file_test = ws.files[fi].test_file;
            let mut decls = Vec::new();
            collect_fns(
                &ws.files[fi].parsed.items,
                &mut Vec::new(),
                &Scope {
                    self_ty: None,
                    trait_name: None,
                    in_test: file_test,
                },
                &mut decls,
            );
            for (path, meta, f) in decls {
                ws.fns.push(FnDecl {
                    file: fi as u32,
                    path,
                    name: f.name.clone(),
                    self_ty: meta.self_ty.clone(),
                    trait_name: meta.trait_name.clone(),
                    has_self: f.has_self,
                    in_test: meta.in_test,
                    line: f.line,
                });
            }
        }
        for (id, d) in ws.fns.iter().enumerate() {
            if d.has_self {
                ws.methods.entry(d.name.clone()).or_default().push(id);
            } else {
                ws.frees.entry(d.name.clone()).or_default().push(id);
            }
            if let Some(ty) = &d.self_ty {
                ws.typed
                    .entry((ty.clone(), d.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        ws
    }

    /// The `FnItem` behind a declaration.
    #[must_use]
    pub fn fn_item(&self, id: usize) -> &FnItem {
        let d = &self.fns[id];
        let mut items = &self.files[d.file as usize].parsed.items;
        let mut path = d.path.as_slice();
        loop {
            let (&step, rest) = path.split_first().expect("fn path never empty");
            let item = &items[step as usize];
            if rest.is_empty() {
                match item {
                    Item::Fn(f) => return f,
                    _ => unreachable!("fn path must end at a fn"),
                }
            }
            items = match item {
                Item::Impl(i) => &i.items,
                Item::Trait(t) => &t.items,
                Item::Mod(m) => m.items.as_ref().expect("path through inline mod"),
                _ => unreachable!("fn path steps through containers"),
            };
            path = rest;
        }
    }

    /// Resolves a path call `segs(..)` to candidate workspace fns.
    /// `Type::name` prefers the typed index; a bare `name` resolves to
    /// free fns (same-crate candidates first, else all).
    #[must_use]
    pub fn resolve_call(&self, from_file: u32, segs: &[String]) -> Vec<usize> {
        let Some(name) = segs.last() else {
            return Vec::new();
        };
        if segs.len() >= 2 {
            let qual = &segs[segs.len() - 2];
            if qual.chars().next().is_some_and(char::is_uppercase) {
                if let Some(ids) = self.typed.get(&(qual.clone(), name.clone())) {
                    return ids.clone();
                }
                // `Type::method` on a type we know but a method we don't
                // (e.g. a derive) resolves to nothing rather than every
                // same-named free fn.
                if self.fns.iter().any(|d| d.self_ty.as_deref() == Some(qual)) {
                    return Vec::new();
                }
            }
        }
        let Some(ids) = self.frees.get(name) else {
            return Vec::new();
        };
        let krate = &self.files[from_file as usize].krate;
        let local: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&i| &self.files[self.fns[i].file as usize].krate == krate)
            .collect();
        if segs.len() == 1 && !local.is_empty() {
            local
        } else {
            ids.clone()
        }
    }

    /// Resolves a method call `recv.name(..)` to every workspace method
    /// with that name.
    #[must_use]
    pub fn resolve_method(&self, name: &str) -> &[usize] {
        self.methods.get(name).map_or(&[], Vec::as_slice)
    }

    /// The call graph: for each fn, the resolved callee ids of every call
    /// and method-call expression in its body (deduplicated, sorted).
    #[must_use]
    pub fn call_graph(&self) -> Vec<Vec<usize>> {
        (0..self.fns.len())
            .map(|id| {
                let mut out = Vec::new();
                if let Some(body) = &self.fn_item(id).body {
                    let file = self.fns[id].file;
                    walk_block(body, &mut |e| match &e.kind {
                        ExprKind::Call { callee, .. } => {
                            if let ExprKind::Path { segs } = &callee.kind {
                                out.extend(self.resolve_call(file, segs));
                            }
                        }
                        ExprKind::Method { name, .. } => {
                            out.extend_from_slice(self.resolve_method(name));
                        }
                        _ => {}
                    });
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    }
}

#[derive(Clone)]
struct Scope {
    self_ty: Option<String>,
    trait_name: Option<String>,
    in_test: bool,
}

fn collect_fns<'a>(
    items: &'a [Item],
    path: &mut Vec<u16>,
    scope: &Scope,
    out: &mut Vec<(Vec<u16>, Scope, &'a FnItem)>,
) {
    for (i, item) in items.iter().enumerate() {
        path.push(i as u16);
        match item {
            Item::Fn(f) => out.push((path.clone(), scope.clone(), f)),
            Item::Impl(imp) => {
                let inner = Scope {
                    self_ty: Some(imp.ty_name.clone()),
                    trait_name: imp.trait_name.clone(),
                    in_test: scope.in_test,
                };
                collect_fns(&imp.items, path, &inner, out);
            }
            Item::Trait(tr) => {
                let inner = Scope {
                    self_ty: None,
                    trait_name: Some(tr.name.clone()),
                    in_test: scope.in_test,
                };
                collect_fns(&tr.items, path, &inner, out);
            }
            Item::Mod(m) => {
                if let Some(sub) = &m.items {
                    let inner = Scope {
                        in_test: scope.in_test || m.cfg_test,
                        ..scope.clone()
                    };
                    collect_fns(sub, path, &inner, out);
                }
            }
            Item::Struct(_) | Item::Const(_) | Item::Raw(_) => {}
        }
        path.pop();
    }
}

/// Calls `f` on every expression in a block, recursively — including
/// closure bodies and initializers, but not nested items (those are
/// separate [`FnDecl`]s).
pub fn walk_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, f);
                }
                if let Some(b) = &l.else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(_) | Stmt::Raw(_) => {}
        }
    }
}

/// Calls `f` on `e` and every sub-expression.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Path { .. } | ExprKind::Lit | ExprKind::Continue => {}
        ExprKind::Unary { inner, .. }
        | ExprKind::Ref { inner, .. }
        | ExprKind::Cast { inner, .. }
        | ExprKind::Try { inner } => walk_expr(inner, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Assign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Method { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_expr(base, f),
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, v) in fields {
                if let Some(v) = v {
                    walk_expr(v, f);
                }
            }
            if let Some(r) = rest {
                walk_expr(r, f);
            }
        }
        ExprKind::Tuple { items, .. }
        | ExprKind::Array { items }
        | ExprKind::MacroCall { args: items, .. } => {
            for it in items {
                walk_expr(it, f);
            }
        }
        ExprKind::BlockExpr(b) => walk_block(b, f),
        ExprKind::If {
            cond, then, els, ..
        } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::Match { scrut, arms } => {
            walk_expr(scrut, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::Loop { body } => walk_block(body, f),
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                walk_expr(e, f);
            }
            if let Some(e) = hi {
                walk_expr(e, f);
            }
        }
        ExprKind::Return { value } | ExprKind::Break { value } => {
            if let Some(v) = value {
                walk_expr(v, f);
            }
        }
    }
}

fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("siloz-repro")
        .to_string()
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Collects repo-relative `.rs` paths, skipping `vendor/`, `target/`,
/// `.git`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "vendor" | "target" | ".git") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_files(vec![SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            test_file: false,
            parsed: parse_file(src),
        }])
    }

    #[test]
    fn collects_fns_with_scope() {
        let w = ws("pub fn free() {}\n\
                    struct S;\n\
                    impl S { pub fn new() -> S { S } fn go(&self) {} }\n\
                    impl Clone for S { fn clone(&self) -> S { S } }\n\
                    #[cfg(test)] mod tests { fn helper() {} }");
        let names: Vec<_> = w.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["free", "new", "go", "clone", "helper"]);
        assert_eq!(w.fns[1].self_ty.as_deref(), Some("S"));
        assert!(!w.fns[1].has_self);
        assert!(w.fns[2].has_self);
        assert_eq!(w.fns[3].trait_name.as_deref(), Some("Clone"));
        assert!(w.fns[4].in_test);
        assert!(!w.fns[0].in_test);
    }

    #[test]
    fn resolves_calls_and_builds_graph() {
        let w = ws("fn a() { b(); S::new().go(); }\n\
                    fn b() {}\n\
                    struct S;\n\
                    impl S { fn new() -> S { S } fn go(&self) {} }");
        let a = 0usize;
        let g = w.call_graph();
        // a calls b, S::new, and method go.
        assert_eq!(g[a], vec![1, 2, 3]);
        assert!(g[1].is_empty());
        // Typed resolution hits the impl, not unrelated frees.
        assert_eq!(w.resolve_call(0, &["S".into(), "new".into()]), vec![2]);
        assert_eq!(w.resolve_method("go"), &[3]);
    }
}
