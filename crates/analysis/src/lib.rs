//! Static-analysis gates for the Siloz reproduction.
//!
//! Three gates, all wired into `scripts/check.sh` as hard gates (see
//! `DESIGN.md` §4d, §4i):
//!
//! 1. **`siloz-lint`** ([`gate`]) — the source gate: one walk, read and
//!    lex of the workspace into a parse ([`parse`]) with a symbol table
//!    ([`symbols`]), then one pass that runs the token
//!    rules ([`lint`]: no maps or allocation in hot paths, no
//!    nondeterminism sources, atomics confined to `crates/telemetry`,
//!    metric names consistent with the golden fixture,
//!    `forbid(unsafe_code)` in every crate root) beside a forward
//!    interprocedural may-taint fixpoint ([`dataflow`]) with two client
//!    passes, seed-provenance ([`seedflow`]) and address-domain separation
//!    ([`addrflow`]). One waiver namespace ([`waivers`]) over all of it.
//!    Writes `ANALYSIS_lint.json`.
//! 2. **`isolation-verify`** ([`isolation`]) — a static verifier that
//!    *proves*, by exhaustion over every supported geometry and presumed
//!    subarray size, that the address decoder is bijective and that Siloz's
//!    subarray-group map keeps every 2 MiB page inside a single isolation
//!    domain (the paper's §6 containment precondition). Writes
//!    `ANALYSIS_isolation.json`.
//! 3. **`interleave-check`** ([`interleave`]) — a deterministic-scheduler
//!    model checker ([`sched`]) that exhaustively explores every thread
//!    interleaving of the telemetry hot-path RMW sequences (bounded depth)
//!    and verifies that counts are linearizable and histogram merge is a
//!    commutative monoid.
//!
//! [`lexer`] is the hand-rolled scanner under [`parse`]; [`report`] is the
//! JSON writer the gates share.

#![forbid(unsafe_code)]

pub mod addrflow;
pub mod dataflow;
pub mod gate;
pub mod interleave;
pub mod isolation;
pub mod lexer;
pub mod lint;
pub mod parse;
pub mod report;
pub mod sched;
pub mod seedflow;
pub mod symbols;
pub mod waivers;
