//! `seed-provenance` dataflow pass.
//!
//! Siloz's determinism batteries (parallel-cell bit-identity, compiled
//! replay, fleet workers at 1/2/7 threads) hold only because every bit of
//! randomness is seed-derived and every wall-clock read is confined to
//! `*_volatile` telemetry. This pass proves that interprocedurally:
//!
//! **Sources** (concrete taint bits): wall-clock reads
//! (`Instant::now`/`SystemTime::now`), thread identity
//! (`std::thread::current`), unseeded RNG construction
//! (`thread_rng`/`from_entropy`/`rand::random`), and `HashMap`/`HashSet`
//! iteration order (an `UNORDERED` kind tag on constructor results turns
//! into `MAP_ORDER` taint at iteration).
//!
//! **Sinks**: the return value of any `run_*` / `figure*` / `arena`
//! experiment entry point or `deterministic`/`*_json`/`render` output fn
//! ([`RULE_TAINTED_OUTPUT`]), and non-volatile telemetry metric updates
//! ([`RULE_NONVOLATILE_METRIC`] — `inc`/`add`/`observe` with tainted
//! arguments on a handle not provably built by a `*_volatile`
//! constructor).
//!
//! **Sanitizers**: order-independent collection queries (`get`, `len`,
//! `contains_key`, ...) strip the `UNORDERED` tag; seeding constructors
//! (`seed_from_u64`, `from_seed`) are simply not sources, which is the
//! point — an RNG is clean exactly when its construction is.
//!
//! Unseeded RNG construction is additionally flagged *at the site*
//! ([`RULE_UNSEEDED_RNG`]): there is no legitimate flow for one, so the
//! pass does not wait for the value to reach a sink.

use crate::dataflow::{concrete, CallInfo, CheckCx, Pass, Taint};
use crate::lint::Violation;
use crate::parse::ExprKind;
use crate::symbols::{FnDecl, SourceFile};

/// Ambient nondeterminism reaching a deterministic output.
pub const RULE_TAINTED_OUTPUT: &str = "seed-tainted-output";
/// Ambient nondeterminism recorded in a non-volatile metric.
pub const RULE_NONVOLATILE_METRIC: &str = "seed-nonvolatile-metric";
/// An RNG constructed without an explicit seed.
pub const RULE_UNSEEDED_RNG: &str = "seed-unseeded-rng";

/// Wall-clock time (`Instant::now`, `SystemTime::now`).
pub const WALL_CLOCK: Taint = 1 << 0;
/// Thread identity (`std::thread::current`).
pub const THREAD_ID: Taint = 1 << 1;
/// A value derived from an unseeded RNG.
pub const UNSEEDED_RNG: Taint = 1 << 2;
/// A value whose order depends on `HashMap`/`HashSet` iteration.
pub const MAP_ORDER: Taint = 1 << 3;
/// Kind tag: the value is an unordered collection (not yet iterated).
const UNORDERED: Taint = 1 << 8;
/// Kind tag: a telemetry handle from a `*_volatile` constructor.
const VOLATILE_OK: Taint = 1 << 9;

/// The ambient bits the sink checks reject.
const AMBIENT: Taint = WALL_CLOCK | THREAD_ID | UNSEEDED_RNG | MAP_ORDER;

/// Iteration methods that expose element order.
const ITERATING: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];
/// Collection queries whose results do not depend on iteration order.
const ORDER_INDEPENDENT: [&str; 11] = [
    "get",
    "get_mut",
    "contains_key",
    "contains",
    "insert",
    "remove",
    "entry",
    "len",
    "is_empty",
    "clear",
    "reserve",
];
/// Metric mutators (sinks when the handle is not volatile).
const METRIC_MUTATORS: [&str; 3] = ["inc", "add", "observe"];
/// Order-restoring methods: sorting a collection built from map iteration
/// makes its order canonical, so the order taint is scrubbed.
const SORTING: [&str; 6] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
];

/// Whether a call is the std `rand::random()` entropy source, as opposed
/// to a workspace constructor that happens to be named `random` but takes
/// an explicit RNG (`HammerPattern::random(rows, rng)` is seeded).
fn is_bare_random(segs: &[&str], n_args: usize) -> bool {
    segs.last() == Some(&"random")
        && n_args == 0
        && matches!(
            segs.len().checked_sub(2).map(|i| segs[i]),
            None | Some("rand")
        )
}

/// Human-readable names for the ambient bits.
fn describe(t: Taint) -> String {
    let mut parts = Vec::new();
    for (bit, name) in [
        (WALL_CLOCK, "wall-clock"),
        (THREAD_ID, "thread-id"),
        (UNSEEDED_RNG, "unseeded-rng"),
        (MAP_ORDER, "map-iteration-order"),
    ] {
        if t & bit != 0 {
            parts.push(name);
        }
    }
    parts.join("+")
}

/// The seed-provenance pass.
pub struct SeedPass;

impl Pass for SeedPass {
    fn name(&self) -> &'static str {
        "seed-provenance"
    }

    fn transfer_call(&self, cx: &CallInfo<'_>, default: Taint) -> Taint {
        let last = cx.segs.last().copied().unwrap_or("");
        let prev = cx.segs.len().checked_sub(2).map(|i| cx.segs[i]);
        if !cx.is_method {
            // Sources by constructor path.
            if last == "now" && matches!(prev, Some("Instant" | "SystemTime")) {
                return default | WALL_CLOCK;
            }
            if last == "current" && prev == Some("thread") {
                return default | THREAD_ID;
            }
            if matches!(last, "thread_rng" | "from_entropy")
                || is_bare_random(&cx.segs, cx.args.len())
            {
                return default | UNSEEDED_RNG;
            }
            if matches!(prev, Some("HashMap" | "HashSet"))
                && matches!(last, "new" | "with_capacity" | "default" | "from")
            {
                return default | UNORDERED;
            }
            return default;
        }
        // Method transfers.
        let recv = cx.recv.unwrap_or(0);
        if recv & UNORDERED != 0 {
            if ITERATING.contains(&last) {
                return default | MAP_ORDER;
            }
            if ORDER_INDEPENDENT.contains(&last) {
                // Point queries are deterministic; the result is not an
                // unordered collection (and carries no order taint).
                return default & !(UNORDERED | MAP_ORDER);
            }
        }
        if last.ends_with("_volatile") {
            return default | VOLATILE_OK;
        }
        default
    }

    fn recv_scrub(&self, name: &str) -> Taint {
        if SORTING.contains(&name) {
            MAP_ORDER | UNORDERED
        } else {
            0
        }
    }

    fn aggregate_mask(&self) -> Taint {
        // A struct containing a map (or a volatile handle) is not itself
        // one; only the ambient bits ride through aggregation.
        !(UNORDERED | VOLATILE_OK)
    }

    fn iterate_taint(&self, iter: Taint) -> Taint {
        if iter & UNORDERED != 0 {
            (iter & !UNORDERED) | MAP_ORDER
        } else {
            iter
        }
    }

    fn check_expr(&self, cx: &CheckCx<'_>, out: &mut Vec<Violation>) {
        match &cx.expr.kind {
            ExprKind::Call { callee, args } => {
                if let ExprKind::Path { segs } = &callee.kind {
                    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
                    if let Some(last) = segs.last() {
                        if matches!(last.as_str(), "thread_rng" | "from_entropy")
                            || is_bare_random(&seg_refs, args.len())
                        {
                            out.push(Violation {
                                rule: RULE_UNSEEDED_RNG,
                                file: cx.file.rel.clone(),
                                line: cx.expr.line,
                                message: format!(
                                    "`{last}` constructs an RNG with no explicit seed; every \
                                     RNG must be traceable to a seed argument"
                                ),
                            });
                        }
                    }
                }
            }
            ExprKind::Method { name, .. } if METRIC_MUTATORS.contains(&name.as_str()) => {
                let recv = cx.parts.first().copied().unwrap_or(0);
                let args: Taint = cx.parts.iter().skip(1).fold(0, |a, b| a | b);
                if concrete(args) & AMBIENT != 0 && recv & VOLATILE_OK == 0 {
                    out.push(Violation {
                        rule: RULE_NONVOLATILE_METRIC,
                        file: cx.file.rel.clone(),
                        line: cx.expr.line,
                        message: format!(
                            "{} flows into `.{name}(..)` on a handle not provably from a \
                             `*_volatile` constructor; ambient values may only feed \
                             volatile metrics",
                            describe(concrete(args) & AMBIENT)
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    fn check_fn(&self, file: &SourceFile, decl: &FnDecl, ret: Taint, out: &mut Vec<Violation>) {
        let name = decl.name.as_str();
        let is_output = name.starts_with("run_")
            || name.starts_with("figure")
            || name == "arena"
            || name == "deterministic"
            || name == "render"
            || name.ends_with("_json");
        if !is_output {
            return;
        }
        let bad = concrete(ret) & AMBIENT;
        if bad != 0 {
            out.push(Violation {
                rule: RULE_TAINTED_OUTPUT,
                file: file.rel.clone(),
                line: decl.line,
                message: format!(
                    "{} flows into the result of `{}`; deterministic outputs must be \
                     seed-derived only",
                    describe(bad),
                    name
                ),
            });
        }
    }
}
