//! Stage 1 of trace compilation: the config-independent activation ledger.
//!
//! A [`GuestLedger`] is one `(workload, seed, ops, threads)` tuple's guest
//! trace held for replay: the drawn guest ops themselves, with the vCPU
//! count to deal them across and their guest extent. The draw does not
//! depend on the vCPU count, so [`GuestLedger::with_threads`] re-deals one
//! draw across another count, sharing its ops. The ledger is independent
//! of every configuration axis — hypervisor kind, subarray size, VM
//! backing — so one draw is shared by all cells of an experiment grid
//! that measure the same workload draw (see [`crate::TraceCache`]).
//!
//! Stage 2 (`GuestLedger::bind`) deals each logical request round-robin
//! to a vCPU stream and resolves every op against one concrete VM backing
//! and address decoder, producing a pre-decoded [`CompiledTrace`] for
//! [`memctrl::MemoryController::run_compiled`].
//! `GuestLedger::expand_mem_ops` is the un-decoded twin feeding
//! [`memctrl::MemoryController::run_trace`]; both expansions reproduce the
//! original op stream exactly, op for op, which the equivalence battery
//! pins.

use crate::run::HpaMap;
use memctrl::{CompiledTrace, MemOp};
use rand::rngs::StdRng;
use std::sync::Arc;
use workloads::{GuestOp, WorkloadGen};

/// A drawn guest trace: the ops, the vCPU streams they are dealt across
/// at bind, and their extent. The ops sit behind an `Arc`, so a clone or a
/// re-deal shares them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestLedger {
    ops: Arc<Vec<GuestOp>>,
    threads: u16,
    /// One past the largest guest offset: every op lies in `[0, extent)`.
    extent: u64,
}

impl GuestLedger {
    /// A ledger over a copy of `guest_ops`, to be dealt across `threads`
    /// vCPU streams (0 clamps to 1).
    #[must_use]
    pub fn compile(guest_ops: &[GuestOp], threads: u16) -> Self {
        Self::from_draw(Vec::from(guest_ops), threads)
    }

    /// Draws `ops` guest operations from `workload` with `rng` and keeps
    /// them as the ledger — the one-call form used by the fleet's load
    /// generators and the figure cells.
    pub fn generate(
        workload: &mut dyn WorkloadGen,
        ops: usize,
        threads: u16,
        rng: &mut StdRng,
    ) -> Self {
        Self::from_draw(workload.generate(ops, rng), threads)
    }

    /// Takes a drawn op vector as the ledger, as it is.
    fn from_draw(ops: Vec<GuestOp>, threads: u16) -> Self {
        let extent = ops
            .iter()
            .map(|op| op.offset().saturating_add(1))
            .max()
            .unwrap_or(0);
        Self {
            ops: Arc::new(ops),
            threads: threads.max(1),
            extent,
        }
    }

    /// The same draw dealt across `threads` vCPU streams (0 clamps to 1),
    /// sharing this ledger's ops: what `generate` would have drawn with
    /// `threads`, since the draw never reads the vCPU count.
    #[must_use]
    pub fn with_threads(&self, threads: u16) -> Self {
        Self {
            ops: Arc::clone(&self.ops),
            threads: threads.max(1),
            extent: self.extent,
        }
    }

    /// Whether `self` and `other` hold one draw: the same ops allocation,
    /// whatever the deal.
    #[must_use]
    pub fn shares_draw(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops)
    }

    /// Number of guest ops the ledger expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the ledger holds no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of vCPU streams the ops are dealt across.
    #[must_use]
    pub fn threads(&self) -> u16 {
        self.threads
    }

    /// One past the largest guest offset the ledger touches (0 when
    /// empty): a backing is read only over `[0, extent)`.
    #[must_use]
    pub(crate) fn extent(&self) -> u64 {
        self.extent
    }

    /// Expands the ledger through a VM backing map, reproducing the exact
    /// physical op stream the direct path built inline: each logical
    /// request (a chain starting at a non-dependent op) goes to the next
    /// of the ledger's vCPU streams, and its dependent ops follow it. The
    /// iterator reports its exact length, so a consumer that reserves its
    /// size hint (`collect`, [`CompiledTrace::compile`]) allocates once.
    fn iter_mem_ops<'a>(
        &'a self,
        hpa: &'a HpaMap,
        thread_base: u16,
    ) -> impl Iterator<Item = MemOp> + 'a {
        let threads = self.threads;
        let mut thread = 0u16;
        self.ops.iter().map(move |op| {
            if !op.is_dependent() {
                thread = if thread + 1 < threads { thread + 1 } else { 0 };
            }
            MemOp {
                phys: hpa.to_hpa(op.offset()),
                write: op.is_write(),
                gap_ps: op.gap_ps(),
                dependent: op.is_dependent(),
                thread: thread_base + thread,
            }
        })
    }

    /// The un-decoded expansion: a physical [`MemOp`] trace for
    /// [`memctrl::MemoryController::run_trace`].
    pub(crate) fn expand_mem_ops(&self, hpa: &HpaMap, thread_base: u16) -> Vec<MemOp> {
        self.iter_mem_ops(hpa, thread_base).collect()
    }

    /// Stage 2: binds the ledger to one concrete VM backing and address
    /// decoder, emitting a pre-decoded replay program.
    pub(crate) fn bind(
        &self,
        hpa: &HpaMap,
        decoder: dram_addr::SystemAddressDecoder,
        thread_base: u16,
    ) -> CompiledTrace {
        CompiledTrace::compile(decoder, self.iter_mem_ops(hpa, thread_base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use siloz::BackingBlock;

    /// The pre-ledger reference: the dealing loop as the direct path ran it
    /// inline.
    fn reference_deal(guest_ops: &[GuestOp], threads: u16, base: u16) -> Vec<(GuestOp, u16)> {
        let threads = threads.max(1);
        let mut thread = 0u16;
        guest_ops
            .iter()
            .map(|op| {
                if !op.is_dependent() {
                    thread += 1;
                    if thread == threads {
                        thread = 0;
                    }
                }
                (*op, base + thread)
            })
            .collect()
    }

    fn identity_map() -> HpaMap {
        // One huge block at HPA 0: to_hpa is the identity modulo wrap.
        HpaMap::new(vec![BackingBlock {
            gpa: 0,
            frame: 0,
            order: 18, // 1 GiB
            node: numa::NodeId(0),
        }])
        .unwrap()
    }

    fn arb_guest_op() -> impl Strategy<Value = GuestOp> {
        (0u64..8, any::<bool>(), 0u64..2, any::<bool>()).prop_map(|(off, write, gap, dependent)| {
            let op = if write {
                GuestOp::write(off * 64)
            } else {
                GuestOp::read(off * 64)
            }
            .with_gap_ps(gap * 100);
            if dependent {
                op.chained()
            } else {
                op
            }
        })
    }

    proptest! {
        #[test]
        fn the_deal_reproduces_the_reference_stream(
            ops in proptest::collection::vec(arb_guest_op(), 0..400),
            threads in 1u16..8,
            base in 0u16..32,
        ) {
            let ledger = GuestLedger::compile(&ops, threads);
            prop_assert_eq!(ledger.len(), ops.len());
            prop_assert_eq!(
                ledger.extent(),
                ops.iter().map(|op| op.offset() + 1).max().unwrap_or(0)
            );
            let map = identity_map();
            prop_assert_eq!(
                ledger.iter_mem_ops(&map, base).size_hint(),
                (ops.len(), Some(ops.len()))
            );
            let expanded = ledger.expand_mem_ops(&map, base);
            let expect: Vec<MemOp> = reference_deal(&ops, threads, base)
                .into_iter()
                .map(|(op, thread)| MemOp {
                    phys: map.to_hpa(op.offset()),
                    write: op.is_write(),
                    gap_ps: op.gap_ps(),
                    dependent: op.is_dependent(),
                    thread,
                })
                .collect();
            prop_assert_eq!(&expanded, &expect);
            // A draw held at one deal and re-dealt at `threads` shares its
            // ops and expands as if drawn at `threads`.
            let undealt = GuestLedger::compile(&ops, 1);
            let redealt = undealt.with_threads(threads);
            prop_assert!(redealt.shares_draw(&undealt));
            prop_assert_eq!(redealt.expand_mem_ops(&map, base), expect);
        }
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        let ops = [GuestOp::read(0), GuestOp::read(64)];
        let ledger = GuestLedger::compile(&ops, 0);
        assert_eq!(ledger.threads(), 1);
        let expanded = ledger.expand_mem_ops(&identity_map(), 0);
        assert!(expanded.iter().all(|op| op.thread == 0));
        assert_eq!(ledger.with_threads(0).threads(), 1);
    }
}
