//! Static-analysis gates for the Siloz reproduction.
//!
//! Four gates, all wired into `scripts/check.sh` as hard gates (see
//! `DESIGN.md` §4d, §4i):
//!
//! 1. **`siloz-lint`** ([`lint`]) — a source-level workspace linter built
//!    on a hand-rolled scanner ([`lexer`]); enforces the invariants the
//!    repo's determinism and performance claims rest on (no maps or
//!    allocation in hot paths, no nondeterminism sources, atomics confined
//!    to `crates/telemetry`, metric names consistent with the golden
//!    fixture, `forbid(unsafe_code)` in every crate root).
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
//! 4. **`siloz-dataflow`** ([`gate`]) — a whole-workspace parse
//!    ([`parse`]), symbol table and call graph ([`symbols`]), and a forward
//!    interprocedural may-taint fixpoint ([`dataflow`]) with two client
//!    passes: seed-provenance ([`seedflow`]) and address-domain separation
//!    ([`addrflow`]). Writes `ANALYSIS_dataflow.json`.
//!
//! [`waivers`] (in-place `lint:allow` annotations) and [`report`] (the JSON
//! writer) are shared by the gates.

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
