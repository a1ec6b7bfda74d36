//! A forward-dataflow taint framework over the parsed workspace.
//!
//! The engine runs a [`Pass`] over every function in a
//! [`crate::symbols::Workspace`]: a flow-sensitive abstract interpretation of each
//! body (branches joined, loops iterated to a bounded fixpoint) with a
//! bitset taint lattice, plus interprocedural function summaries solved to
//! fixpoint over the call graph.
//!
//! ## Lattice
//!
//! A taint is a `u64` bitset; join is bitwise OR, bottom is `0`. The low
//! 32 bits are pass-defined (concrete sources and value-kind tags). The
//! high bits are the framework's: bit `32 + i` marks "parameter `i` flows
//! here" and bit 56 marks "the `self` receiver flows here". A function's
//! summary is its return taint over that alphabet — concrete bits are
//! taint *generated* inside, marker bits are *propagation* from arguments
//! — plus the taint written into `self.<path>` state. At a call site the
//! markers are resolved against the actual argument taints, which is what
//! makes the analysis interprocedural without cloning environments.
//!
//! ## Precision choices (documented, deliberate)
//!
//! - Variables are tracked by access path (`v`, `v.field.sub`), strong
//!   updates on exact paths, weak everywhere else.
//! - Calls resolve by name through the symbol table (may-alias style:
//!   ambiguous names join over all candidates). Unresolved calls default
//!   to "result = receiver ∪ arguments", which propagates taint through
//!   `clone`/`unwrap`/iterator chains for free.
//! - Unknown mutating methods weak-join their arguments into the
//!   receiver's taint (`map.insert(k, tainted)` taints `map`).
//! - Control-flow conditions do not taint branch results (no implicit
//!   flows); loops are iterated to an environment fixpoint (bounded).

use crate::lint::Violation;
use crate::parse::{Block, Expr, ExprKind, Stmt};
use crate::symbols::{FnDecl, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// A taint bitset. Join is `|`, bottom is `0`.
pub type Taint = u64;

/// First parameter-marker bit.
const PARAM_BASE: u32 = 32;
/// Parameters tracked per fn; beyond this, argument flow is dropped
/// (no workspace fn comes close).
const MAX_PARAMS: usize = 24;
/// Marker: the `self` receiver flows here.
const RECV_BIT: Taint = 1 << 56;
/// Mask of the pass-defined (concrete) bits.
const CONCRETE_MASK: Taint = (1u64 << PARAM_BASE) - 1;
/// Loop/summary fixpoint iteration caps (joins are monotone over a finite
/// lattice, so these bound pathological cases, not correctness).
const LOOP_CAP: usize = 8;
const SOLVE_CAP: usize = 20;
/// Depth bound on dynamically-built access paths (`a.b.c`), counted in
/// segments. Summary application concatenates receiver and state paths;
/// without a bound the paths (and with them every summary's state map)
/// grow transitively each solve round and the fixpoint explodes. Clipping
/// to a prefix is a sound weak update: field reads union the taint of
/// every prefix of their path, so a write landed on `a.b` is seen by a
/// read of `a.b.c`.
const MAX_PATH_SEGS: usize = 3;
/// Maximum same-name candidates a call may resolve to. Past this the name
/// is too generic (`new`, `insert`, `len`) for a may-join over all
/// homonyms to mean anything; the engine falls back to the unresolved
/// default (result = receiver ∪ arguments), which is the same
/// over-approximation at a fraction of the cost.
const MAX_CANDIDATES: usize = 8;

/// Clips an access path to at most `segs` segments.
fn clip_path(path: String, segs: usize) -> String {
    let mut dots = 0;
    for (i, b) in path.bytes().enumerate() {
        if b == b'.' {
            dots += 1;
            if dots == segs {
                return path[..i].to_string();
            }
        }
    }
    path
}

fn param_bit(i: usize) -> Taint {
    if i < MAX_PARAMS {
        1u64 << (PARAM_BASE as usize + i)
    } else {
        0
    }
}

/// The concrete (pass-defined) part of a taint.
#[must_use]
pub fn concrete(t: Taint) -> Taint {
    t & CONCRETE_MASK
}

/// One function's interprocedural summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    /// Return taint: concrete bits generated inside, marker bits for
    /// arguments/receiver that flow to the result.
    pub ret: Taint,
    /// Taint written into `self.<path>` state (path without the `self.`
    /// prefix), same alphabet as `ret`.
    pub state: BTreeMap<String, Taint>,
}

/// A call site as a pass sees it.
pub struct CallInfo<'a> {
    /// Path segments (`["Instant", "now"]`) for calls; `[name]` for
    /// method calls.
    pub segs: Vec<&'a str>,
    /// Whether this is a method call.
    pub is_method: bool,
    /// Receiver taint for method calls.
    pub recv: Option<Taint>,
    /// Argument taints.
    pub args: &'a [Taint],
}

/// Context handed to [`Pass::check_expr`].
pub struct CheckCx<'a> {
    /// File containing the expression.
    pub file: &'a SourceFile,
    /// Enclosing function.
    pub decl: &'a FnDecl,
    /// The expression.
    pub expr: &'a Expr,
    /// The expression's resulting taint.
    pub taint: Taint,
    /// Child taints in evaluation order: `Binary` → `[lhs, rhs]`,
    /// `Cast` → `[inner]`, `Call` → args, `Method` → receiver then args.
    pub parts: &'a [Taint],
}

/// A client analysis: sources, transfer overrides, and checks.
pub trait Pass {
    /// Pass name, used in reports.
    fn name(&self) -> &'static str;
    /// Transfer function for a call site. `default` is the engine's
    /// propagation (summary application, or receiver ∪ arguments when
    /// unresolved); passes add source bits or sanitize here.
    fn transfer_call(&self, _cx: &CallInfo<'_>, default: Taint) -> Taint {
        default
    }
    /// Extra taint from reading a field with this name.
    fn field_taint(&self, _name: &str) -> Taint {
        0
    }
    /// Extra taint carried by a binding with this name (params and lets).
    fn binding_taint(&self, _name: &str) -> Taint {
        0
    }
    /// Taint of a `for`-loop binding given the iterated value's taint
    /// (hook for "iterating an unordered collection" sources).
    fn iterate_taint(&self, iter: Taint) -> Taint {
        iter
    }
    /// Taint bits a method call scrubs from its receiver's binding after
    /// the call (hook for order-restoring operations: sorting a vector
    /// built from map iteration makes its order canonical again).
    fn recv_scrub(&self, _name: &str) -> Taint {
        0
    }
    /// Bits to *keep* when a struct literal joins its field values.
    /// Value-kind tags (this is an unordered map, this is a volatile
    /// handle) describe a value itself, not an aggregate containing it:
    /// a struct holding a `HashMap` field is not itself iterable in map
    /// order. Defaults to keeping everything.
    fn aggregate_mask(&self) -> Taint {
        !0
    }
    /// Per-expression check, reporting mode only.
    fn check_expr(&self, _cx: &CheckCx<'_>, _out: &mut Vec<Violation>) {}
    /// Per-function check of the final return taint, reporting mode only.
    fn check_fn(&self, _file: &SourceFile, _decl: &FnDecl, _ret: Taint, _out: &mut Vec<Violation>) {
    }
}

/// The dataflow engine: solves summaries, then reports.
pub struct Engine<'w> {
    ws: &'w Workspace,
    pass: &'w dyn Pass,
    summaries: Vec<Summary>,
}

impl<'w> Engine<'w> {
    /// Creates an engine over a workspace for one pass.
    #[must_use]
    pub fn new(ws: &'w Workspace, pass: &'w dyn Pass) -> Self {
        Engine {
            ws,
            pass,
            summaries: vec![Summary::default(); ws.fns.len()],
        }
    }

    /// Solves all function summaries to interprocedural fixpoint.
    pub fn solve(&mut self) {
        for _ in 0..SOLVE_CAP {
            if !self.solve_round() {
                break;
            }
        }
    }

    /// Runs one fixpoint round over every function; returns whether any
    /// summary changed. Public so callers can interleave instrumentation.
    pub fn solve_round(&mut self) -> bool {
        let mut changed = false;
        for id in 0..self.ws.fns.len() {
            let s = self.analyze(id, None);
            if s != self.summaries[id] {
                self.summaries[id] = s;
                changed = true;
            }
        }
        changed
    }

    /// Summary-state size statistics: `(total entries, max entries, fn id
    /// with the max)`. Diagnostic hook for fixpoint-cost regressions.
    #[must_use]
    pub fn state_stats(&self) -> (usize, usize, usize) {
        let mut total = 0;
        let mut max = 0;
        let mut max_id = 0;
        for (id, s) in self.summaries.iter().enumerate() {
            total += s.state.len();
            if s.state.len() > max {
                max = s.state.len();
                max_id = id;
            }
        }
        (total, max, max_id)
    }

    /// Runs the reporting pass over every non-test function. Call after
    /// [`Engine::solve`]. Results are sorted and deduplicated.
    #[must_use]
    pub fn report(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for id in 0..self.ws.fns.len() {
            let decl = &self.ws.fns[id];
            let file = &self.ws.files[decl.file as usize];
            if decl.in_test || file.test_file {
                continue;
            }
            let s = self.analyze(id, Some(&mut out));
            self.pass.check_fn(file, decl, s.ret, &mut out);
        }
        let mut seen = BTreeSet::new();
        out.retain(|v| seen.insert((v.file.clone(), v.line, v.rule, v.message.clone())));
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }

    /// The solved summary for a fn (test hook).
    #[must_use]
    pub fn summary(&self, id: usize) -> &Summary {
        &self.summaries[id]
    }

    fn analyze(&self, id: usize, report: Option<&mut Vec<Violation>>) -> Summary {
        let decl = &self.ws.fns[id];
        let item = self.ws.fn_item(id);
        let Some(body) = &item.body else {
            return Summary::default();
        };
        let mut env: BTreeMap<String, Taint> = BTreeMap::new();
        if item.has_self {
            env.insert("self".into(), RECV_BIT | self.pass.binding_taint("self"));
        }
        for (i, p) in item.params.iter().enumerate() {
            env.insert(
                p.name.clone(),
                param_bit(i) | self.pass.binding_taint(&p.name),
            );
        }
        let mut cx = EvalCx {
            eng: self,
            decl,
            file: &self.ws.files[decl.file as usize],
            ret: 0,
            state: BTreeMap::new(),
            breaks: Vec::new(),
            report,
        };
        let tail = cx.eval_block(body, &mut env);
        let ret = cx.ret | tail;
        Summary {
            ret,
            state: cx.state,
        }
    }
}

/// Per-function evaluation state.
struct EvalCx<'a, 'w> {
    eng: &'a Engine<'w>,
    decl: &'a FnDecl,
    file: &'a SourceFile,
    ret: Taint,
    state: BTreeMap<String, Taint>,
    breaks: Vec<Taint>,
    report: Option<&'a mut Vec<Violation>>,
}

type Env = BTreeMap<String, Taint>;

/// Joins `b` into `a` key-wise.
fn join_env(a: &mut Env, b: &Env) {
    for (k, v) in b {
        *a.entry(k.clone()).or_insert(0) |= v;
    }
}

/// The access path of an lvalue-ish expression (`v`, `v.f.g`, `*v`,
/// `self.f`), if it has one.
fn access_path(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path { segs } if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { base, name } => Some(format!("{}.{}", access_path(base)?, name)),
        ExprKind::Unary { op: "*", inner } => access_path(inner),
        _ => None,
    }
}

impl EvalCx<'_, '_> {
    fn eval_block(&mut self, b: &Block, env: &mut Env) -> Taint {
        let mut last = 0;
        for stmt in &b.stmts {
            last = 0;
            match stmt {
                Stmt::Let(l) => {
                    let mut t = match &l.init {
                        Some(init) => self.eval(init, env),
                        None => 0,
                    };
                    if let Some(eb) = &l.else_block {
                        self.eval_block(eb, env);
                    }
                    for name in &l.names {
                        t |= self.eng.pass.binding_taint(name);
                        env.insert(name.clone(), t);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let t = self.eval(expr, env);
                    if !semi {
                        last = t;
                    }
                }
                Stmt::Item(_) | Stmt::Raw(_) => {}
            }
        }
        last
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr, env: &mut Env) -> Taint {
        let (taint, parts): (Taint, Vec<Taint>) = match &e.kind {
            ExprKind::Lit | ExprKind::Continue => (0, Vec::new()),
            ExprKind::Path { segs } => {
                let t = if segs.len() == 1 {
                    env.get(&segs[0]).copied().unwrap_or(0)
                } else {
                    0
                };
                (t, Vec::new())
            }
            ExprKind::Unary { inner, .. } | ExprKind::Ref { inner, .. } => {
                (self.eval(inner, env), Vec::new())
            }
            ExprKind::Try { inner } => {
                let t = self.eval(inner, env);
                // `?` propagates the error operand to the caller.
                self.ret |= t;
                (t, Vec::new())
            }
            ExprKind::Cast { inner, .. } => {
                let t = self.eval(inner, env);
                (t, vec![t])
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                let lt = self.eval(lhs, env);
                let rt = self.eval(rhs, env);
                (lt | rt, vec![lt, rt])
            }
            ExprKind::Assign { op, target, value } => {
                let vt = self.eval(value, env);
                if let Some(path) = access_path(target) {
                    let strong = *op == "=" && !matches!(target.kind, ExprKind::Unary { .. });
                    let cur = env.get(&path).copied().unwrap_or(0);
                    let field = self
                        .eng
                        .pass
                        .field_taint(path.rsplit('.').next().unwrap_or(""));
                    let newt = if strong { vt | field } else { cur | vt | field };
                    env.insert(path.clone(), newt);
                    if let Some(rest) = path.strip_prefix("self.") {
                        *self.state.entry(rest.to_string()).or_insert(0) |= newt;
                    }
                } else {
                    // No trackable path (slice element, temporary): weak-join
                    // into the base variable if there is one.
                    let base = self.eval(target, env);
                    let _ = base;
                }
                (0, Vec::new())
            }
            ExprKind::Call { callee, args } => {
                let arg_ts: Vec<Taint> = args.iter().map(|a| self.eval(a, env)).collect();
                let joined: Taint = arg_ts.iter().fold(0, |a, b| a | b);
                let t = if let ExprKind::Path { segs } = &callee.kind {
                    let mut ids = self.eng.ws.resolve_call(self.decl.file, segs);
                    if ids.len() > MAX_CANDIDATES {
                        ids.clear();
                    }
                    let default = if ids.is_empty() {
                        joined
                    } else {
                        ids.iter()
                            .map(|&i| self.apply(i, None, None, &arg_ts, env))
                            .fold(0, |a, b| a | b)
                    };
                    let cx = CallInfo {
                        segs: segs.iter().map(String::as_str).collect(),
                        is_method: false,
                        recv: None,
                        args: &arg_ts,
                    };
                    self.eng.pass.transfer_call(&cx, default)
                } else {
                    // Calling a closure or fn value: its taint plus args.
                    self.eval(callee, env) | joined
                };
                (t, arg_ts)
            }
            ExprKind::Method { recv, name, args } => {
                let rt = self.eval(recv, env);
                let arg_ts: Vec<Taint> = args.iter().map(|a| self.eval(a, env)).collect();
                let joined: Taint = arg_ts.iter().fold(0, |a, b| a | b);
                let mut ids = self.eng.ws.resolve_method(name);
                if ids.len() > MAX_CANDIDATES {
                    ids = &[];
                }
                let recv_path = access_path(recv);
                let default = if ids.is_empty() {
                    // Unknown method: propagate, and model receiver
                    // mutation by weak-joining arguments into it.
                    if let Some(p) = &recv_path {
                        *env.entry(p.clone()).or_insert(0) |= concrete(joined);
                    }
                    rt | joined
                } else {
                    ids.iter()
                        .map(|&i| self.apply(i, Some(rt), recv_path.as_deref(), &arg_ts, env))
                        .fold(0, |a, b| a | b)
                };
                let cx = CallInfo {
                    segs: vec![name.as_str()],
                    is_method: true,
                    recv: Some(rt),
                    args: &arg_ts,
                };
                let t = self.eng.pass.transfer_call(&cx, default);
                let scrub = self.eng.pass.recv_scrub(name);
                if scrub != 0 {
                    if let Some(p) = &recv_path {
                        if let Some(v) = env.get_mut(p) {
                            *v &= !scrub;
                        }
                    }
                }
                let mut parts = vec![rt];
                parts.extend(arg_ts);
                (t, parts)
            }
            ExprKind::Field { base, name } => {
                let bt = self.eval(base, env);
                let path_t = access_path(e)
                    .and_then(|p| env.get(&p).copied())
                    .unwrap_or(0);
                (bt | path_t | self.eng.pass.field_taint(name), Vec::new())
            }
            ExprKind::Index { base, index } => {
                let bt = self.eval(base, env);
                let _ = self.eval(index, env);
                (bt, Vec::new())
            }
            ExprKind::StructLit { fields, rest, .. } => {
                let mut t = 0;
                for (name, v) in fields {
                    t |= match v {
                        Some(v) => self.eval(v, env),
                        // Shorthand `Foo { name }` reads the binding.
                        None => env.get(name).copied().unwrap_or(0),
                    };
                }
                if let Some(r) = rest {
                    t |= self.eval(r, env);
                }
                (t & self.eng.pass.aggregate_mask(), Vec::new())
            }
            ExprKind::Tuple { items, .. }
            | ExprKind::Array { items }
            | ExprKind::MacroCall { args: items, .. } => {
                let t = items
                    .iter()
                    .map(|i| self.eval(i, env))
                    .fold(0, |a, b| a | b);
                (t, Vec::new())
            }
            ExprKind::BlockExpr(b) => (self.eval_block(b, env), Vec::new()),
            ExprKind::If {
                names,
                cond,
                then,
                els,
                ..
            } => {
                let ct = self.eval(cond, env);
                let pre = env.clone();
                for n in names {
                    env.insert(n.clone(), ct | self.eng.pass.binding_taint(n));
                }
                let tt = self.eval_block(then, env);
                let after_then = std::mem::replace(env, pre);
                let et = match els {
                    Some(els) => self.eval(els, env),
                    None => 0,
                };
                join_env(env, &after_then);
                (tt | et, Vec::new())
            }
            ExprKind::Match { scrut, arms } => {
                let st = self.eval(scrut, env);
                let pre = env.clone();
                let mut acc = pre.clone();
                let mut t = 0;
                for arm in arms {
                    *env = pre.clone();
                    for n in &arm.names {
                        env.insert(n.clone(), st | self.eng.pass.binding_taint(n));
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g, env);
                    }
                    t |= self.eval(&arm.body, env);
                    join_env(&mut acc, env);
                }
                *env = acc;
                (t, Vec::new())
            }
            ExprKind::While {
                names, cond, body, ..
            } => {
                for _ in 0..LOOP_CAP {
                    let pre = env.clone();
                    let ct = self.eval(cond, env);
                    for n in names {
                        env.insert(n.clone(), ct | self.eng.pass.binding_taint(n));
                    }
                    self.eval_block(body, env);
                    join_env(env, &pre);
                    if *env == pre {
                        break;
                    }
                }
                (0, Vec::new())
            }
            ExprKind::For {
                names, iter, body, ..
            } => {
                for _ in 0..LOOP_CAP {
                    let pre = env.clone();
                    let it = self.eng.pass.iterate_taint(self.eval(iter, env));
                    for n in names {
                        env.insert(n.clone(), it | self.eng.pass.binding_taint(n));
                    }
                    self.eval_block(body, env);
                    join_env(env, &pre);
                    if *env == pre {
                        break;
                    }
                }
                (0, Vec::new())
            }
            ExprKind::Loop { body } => {
                self.breaks.push(0);
                for _ in 0..LOOP_CAP {
                    let pre = env.clone();
                    self.eval_block(body, env);
                    join_env(env, &pre);
                    if *env == pre {
                        break;
                    }
                }
                (self.breaks.pop().unwrap_or(0), Vec::new())
            }
            ExprKind::Closure { names, body, .. } => {
                // Evaluate the body over a scratch copy of the captured
                // environment; the closure value carries its body's taint
                // so adapter chains (`map(|x| ..)`) propagate.
                let mut inner = env.clone();
                for n in names {
                    inner.insert(n.clone(), self.eng.pass.binding_taint(n));
                }
                (self.eval(body, &mut inner), Vec::new())
            }
            ExprKind::Range { lo, hi } => {
                let mut t = 0;
                if let Some(l) = lo {
                    t |= self.eval(l, env);
                }
                if let Some(h) = hi {
                    t |= self.eval(h, env);
                }
                (t, Vec::new())
            }
            ExprKind::Return { value } => {
                if let Some(v) = value {
                    let t = self.eval(v, env);
                    self.ret |= t;
                }
                (0, Vec::new())
            }
            ExprKind::Break { value } => {
                if let Some(v) = value {
                    let t = self.eval(v, env);
                    if let Some(top) = self.breaks.last_mut() {
                        *top |= t;
                    }
                }
                (0, Vec::new())
            }
        };
        if let Some(out) = self.report.as_deref_mut() {
            let cx = CheckCx {
                file: self.file,
                decl: self.decl,
                expr: e,
                taint,
                parts: &parts,
            };
            self.eng.pass.check_expr(&cx, out);
        }
        taint
    }

    /// Applies a callee summary at a call site: resolves marker bits
    /// against actual argument/receiver taints and lands state writes on
    /// the receiver's access paths.
    fn apply(
        &mut self,
        callee: usize,
        recv: Option<Taint>,
        recv_path: Option<&str>,
        args: &[Taint],
        env: &mut Env,
    ) -> Taint {
        let eng = self.eng;
        let sum = &eng.summaries[callee];
        let resolve = |t: Taint| -> Taint {
            let mut r = concrete(t);
            for (i, &at) in args.iter().enumerate() {
                if t & param_bit(i) != 0 {
                    r |= at;
                }
            }
            if t & RECV_BIT != 0 {
                if let Some(rt) = recv {
                    r |= rt;
                }
            }
            r
        };
        if let Some(rp) = recv_path {
            for (path, t) in &sum.state {
                let resolved = resolve(*t);
                if resolved == 0 {
                    // Marker-only writes whose arguments are clean at this
                    // site contribute nothing; don't grow the environment.
                    continue;
                }
                let full = clip_path(format!("{rp}.{path}"), MAX_PATH_SEGS);
                if let Some(rest) = full.strip_prefix("self.") {
                    *self.state.entry(rest.to_string()).or_insert(0) |= resolved;
                }
                *env.entry(full).or_insert(0) |= resolved;
            }
        }
        resolve(sum.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::symbols::SourceFile;

    /// A toy pass: `source()` generates bit 0; fields named `dirty` carry
    /// bit 1; `scrub(..)` sanitizes everything.
    struct Toy;
    impl Pass for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn transfer_call(&self, cx: &CallInfo<'_>, default: Taint) -> Taint {
            match cx.segs.last().copied() {
                Some("source") => default | 1,
                Some("scrub") => 0,
                _ => default,
            }
        }
        fn field_taint(&self, name: &str) -> Taint {
            u64::from(name == "dirty") << 1
        }
        fn check_fn(&self, file: &SourceFile, decl: &FnDecl, ret: Taint, out: &mut Vec<Violation>) {
            if decl.name.starts_with("sink_") && concrete(ret) & 1 != 0 {
                out.push(Violation {
                    rule: "toy-rule",
                    file: file.rel.clone(),
                    line: decl.line,
                    message: "tainted sink".into(),
                });
            }
        }
    }

    fn engine_over(src: &str) -> (Workspace, Vec<Violation>) {
        let ws = Workspace::from_files(vec![SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            test_file: false,
            parsed: parse_file(src),
        }]);
        let toy = Toy;
        let mut eng = Engine::new(&ws, &toy);
        eng.solve();
        let report = eng.report();
        (ws, report)
    }

    #[test]
    fn interprocedural_flow_reaches_sink() {
        let (_, report) = engine_over(
            "fn mk() -> u64 { source() }\n\
             fn indirect() -> u64 { mk() }\n\
             pub fn sink_bad() -> u64 { indirect() }\n\
             pub fn sink_ok() -> u64 { scrub(indirect()) }\n",
        );
        assert_eq!(report.len(), 1);
        assert!(report[0].message.contains("tainted sink"));
        assert_eq!(report[0].line, 3);
    }

    #[test]
    fn branches_join_and_loops_converge() {
        let (_, report) = engine_over(
            "pub fn sink_branch(c: bool) -> u64 {\n\
                 let mut x = 0;\n\
                 if c { x = source(); } else { x = 2; }\n\
                 x\n\
             }\n\
             pub fn sink_loop(n: u64) -> u64 {\n\
                 let mut acc = 0;\n\
                 let mut i = 0;\n\
                 while i < n { let t = source(); acc += t; i += 1; }\n\
                 acc\n\
             }\n",
        );
        let lines: Vec<u32> = report.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 6]);
    }

    #[test]
    fn field_paths_and_state_writes() {
        let (ws, report) = engine_over(
            "struct S { a: u64, dirty: u64 }\n\
             impl S {\n\
                 fn poison(&mut self) { self.a = source(); }\n\
                 fn read_a(&self) -> u64 { self.a }\n\
             }\n\
             pub fn sink_field(s: &mut S) -> u64 { s.poison(); s.a }\n\
             pub fn sink_clean(s: &S) -> u64 { s.a }\n\
             pub fn sink_dirty(s: &S) -> u64 { s.dirty }\n",
        );
        // poison's summary records the state write.
        let poison = ws.fns.iter().position(|d| d.name == "poison").unwrap();
        let _ = poison;
        let lines: Vec<u32> = report.iter().map(|v| v.line).collect();
        // sink_field picks up the state write through the call;
        // sink_clean stays clean; sink_dirty carries field-name taint but
        // not bit 0, so it stays silent too.
        assert_eq!(lines, vec![6]);
    }

    #[test]
    fn closures_and_adapters_propagate() {
        let (_, report) = engine_over(
            "pub fn sink_map(v: Vec<u64>) -> Vec<u64> {\n\
                 v.iter().map(|x| x + source()).collect()\n\
             }\n",
        );
        assert_eq!(report.len(), 1);
    }
}
