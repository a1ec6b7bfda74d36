//! `address-domain` dataflow pass.
//!
//! GPA/HPA confusion is the bug class that breaks inter-VM isolation
//! without failing any existing test: a guest-physical address used where
//! a host-physical one belongs silently lands a VM's pages in another
//! domain's subarray group (the paper's §4.1 containment argument), and
//! the decoder happily decodes it. This pass classifies integer values
//! into address domains and polices how they are used:
//!
//! **Classification** (concrete taint bits): bindings and struct fields
//! named `gpa`/`*_gpa` are [`GPA`]; `hpa`/`*_hpa`/`phys`/`*_phys` are
//! [`HPA`]; row ordinals ([`ROW`]) and stripe/subarray-group ordinals
//! ([`STRIPE`]) come from decoder-API provenance — the return values of
//! the `dram_addr` transform/decode entry points.
//!
//! **Checks**:
//! - [`RULE_RAW_ARITH`]: bit-level decomposition (`<< >> & | ^ / %`) of an
//!   operand *syntactically* named as an address (`gpa`, `*_hpa`, `phys`,
//!   ...) outside the whitelist of modules whose job is address
//!   transformation (`dram_addr::{decoder,transform,interleave}`,
//!   `ept::table`). Offset arithmetic (`+ - *`) is every caller's
//!   business; slicing an address into page/row/bank bits is the
//!   decoder's. The operand test is deliberately syntactic, not
//!   taint-based: name-keyed may-analysis smears address bits across
//!   homonymous helpers, and a hard gate cannot afford that noise.
//! - [`RULE_DOMAIN_MIX`]: a binary operation (arithmetic *or* comparison)
//!   whose operands carry disjoint, non-empty *taint-classified* domain
//!   sets — `gpa + hpa`, `gpa == hpa`, `row < stripe` — anywhere outside
//!   the whitelist. No correct program compares a guest address to a host
//!   address; this check is interprocedural because confusions travel
//!   through calls.

use crate::dataflow::{concrete, CheckCx, Pass, Taint};
use crate::lint::Violation;
use crate::parse::ExprKind;

/// Raw integer arithmetic on an address-classified value outside the
/// decoder whitelist.
pub const RULE_RAW_ARITH: &str = "addr-raw-arith";
/// Two different address domains mixed in one operation.
pub const RULE_DOMAIN_MIX: &str = "addr-domain-mix";

/// Guest-physical address.
pub const GPA: Taint = 1 << 4;
/// Host-physical address.
pub const HPA: Taint = 1 << 5;
/// DRAM row ordinal (decoder-derived).
pub const ROW: Taint = 1 << 6;
/// Row-stripe / subarray-group ordinal (decoder-derived).
pub const STRIPE: Taint = 1 << 7;

const DOMAINS: Taint = GPA | HPA | ROW | STRIPE;

/// Files whose *purpose* is cross-domain address transformation; raw
/// arithmetic and domain conversion are their job. `tlb.rs` is the decode
/// fast path (it re-derives the same bit math the decoder does, cached);
/// `numa/lib.rs` owns the frame granularity and the sanctioned
/// `frame_of_hpa`/`hpa_of_frame` conversions.
const WHITELIST: [&str; 6] = [
    "crates/dram-addr/src/decoder.rs",
    "crates/dram-addr/src/transform.rs",
    "crates/dram-addr/src/interleave.rs",
    "crates/dram-addr/src/tlb.rs",
    "crates/ept/src/table.rs",
    "crates/numa/src/lib.rs",
];

/// Decoder-API entry points whose results are row ordinals.
const ROW_APIS: [&str; 3] = ["internal_row", "media_row_from_internal", "row_of_phys"];
/// Decoder-API entry points whose results are stripe/group ordinals.
const STRIPE_APIS: [&str; 3] = ["row_group_of", "row_groups_of_range", "subarray_group_of"];

/// Bit-decomposition operators the raw-arith rule polices. Offset math
/// (`+ - *`) is allowed everywhere; extracting page/row/bank bits is not.
const BIT_OPS: [&str; 7] = ["<<", ">>", "&", "|", "^", "/", "%"];
/// Arithmetic operators (domain mixing).
const ARITH_OPS: [&str; 10] = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"];
/// Comparison operators (domain mixing only).
const CMP_OPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

fn domain_name(t: Taint) -> &'static str {
    match t {
        GPA => "gpa",
        HPA => "hpa",
        ROW => "row",
        STRIPE => "stripe",
        _ => "mixed",
    }
}

fn describe(t: Taint) -> String {
    let mut parts = Vec::new();
    for bit in [GPA, HPA, ROW, STRIPE] {
        if t & bit != 0 {
            parts.push(domain_name(bit));
        }
    }
    parts.join("+")
}

/// Domain classification by binding/field name. Names are the workspace's
/// convention today; newtypes tighten this over time (the decoder returns
/// typed `MediaAddress` already, `ept` grows `Gpa`/`Hpa` wrappers).
fn classify_name(name: &str) -> Taint {
    let base = name.rsplit('_').next().unwrap_or(name);
    match base {
        "gpa" => GPA,
        "hpa" | "phys" => HPA,
        _ => 0,
    }
}

/// The domain an expression names *syntactically*: a binding or field
/// whose basename classifies, looked through derefs, casts, and parens.
fn syntactic_domain(e: &crate::parse::Expr) -> Taint {
    match &e.kind {
        ExprKind::Path { segs } => segs.last().map_or(0, |s| classify_name(s)),
        // A field either classifies by its own name (`vm.gpa`) or inherits
        // from the path it projects out of (`phys_range.start`).
        ExprKind::Field { base, name } => {
            let own = classify_name(name);
            if own != 0 {
                own
            } else {
                syntactic_domain(base)
            }
        }
        ExprKind::Unary { inner, .. }
        | ExprKind::Ref { inner, .. }
        | ExprKind::Cast { inner, .. }
        | ExprKind::Try { inner } => syntactic_domain(inner),
        ExprKind::Tuple { items, paren } if *paren && items.len() == 1 => {
            syntactic_domain(&items[0])
        }
        _ => 0,
    }
}

/// The address-domain pass.
pub struct AddrPass;

impl Pass for AddrPass {
    fn name(&self) -> &'static str {
        "address-domain"
    }

    fn transfer_call(&self, cx: &crate::dataflow::CallInfo<'_>, default: Taint) -> Taint {
        let last = cx.segs.last().copied().unwrap_or("");
        if ROW_APIS.contains(&last) {
            return (default & !DOMAINS) | ROW;
        }
        if STRIPE_APIS.contains(&last) {
            return (default & !DOMAINS) | STRIPE;
        }
        // `decode`/`encode` convert between HPA and media coordinates;
        // their results are the *target* domain, not the argument's.
        if last == "encode" {
            return (default & !DOMAINS) | HPA;
        }
        if last == "decode" {
            return default & !DOMAINS;
        }
        default
    }

    fn binding_taint(&self, name: &str) -> Taint {
        classify_name(name)
    }

    fn field_taint(&self, name: &str) -> Taint {
        classify_name(name)
    }

    fn check_expr(&self, cx: &CheckCx<'_>, out: &mut Vec<Violation>) {
        let ExprKind::Binary { op, lhs, rhs } = &cx.expr.kind else {
            return;
        };
        if WHITELIST.contains(&cx.file.rel.as_str()) {
            return;
        }
        let lt = concrete(cx.parts.first().copied().unwrap_or(0)) & DOMAINS;
        let rt = concrete(cx.parts.get(1).copied().unwrap_or(0)) & DOMAINS;
        if lt != 0 && rt != 0 && lt & rt == 0 && (ARITH_OPS.contains(op) || CMP_OPS.contains(op)) {
            out.push(Violation {
                rule: RULE_DOMAIN_MIX,
                file: cx.file.rel.clone(),
                line: cx.expr.line,
                message: format!(
                    "`{op}` mixes address domains {} and {}; convert through the decoder \
                     APIs instead",
                    describe(lt),
                    describe(rt)
                ),
            });
            return;
        }
        let syn = (syntactic_domain(lhs) | syntactic_domain(rhs)) & (GPA | HPA);
        if syn != 0 && BIT_OPS.contains(op) {
            out.push(Violation {
                rule: RULE_RAW_ARITH,
                file: cx.file.rel.clone(),
                line: cx.expr.line,
                message: format!(
                    "`{op}` decomposes a {}-named address outside the decoder whitelist; \
                     use the `dram_addr`/`ept` APIs or a justified waiver",
                    describe(syn)
                ),
            });
        }
    }
}
