//! Stage 1 of trace compilation: the config-independent activation ledger.
//!
//! A [`GuestLedger`] is one `(workload, seed, ops, threads)` tuple's guest
//! trace compiled into a replayable IR: every guest op is pre-drawn, the
//! round-robin chain dealing to vCPU streams is resolved, and runs of
//! identical consecutive ops are RLE-coalesced. The ledger is independent
//! of every configuration axis — hypervisor kind, subarray size, VM
//! backing — so one compile is shared by all cells of an experiment grid
//! that measure the same workload draw (see [`crate::TraceCache`]).
//!
//! Stage 2 (`GuestLedger::bind`) resolves the ledger against one
//! concrete VM backing and address decoder, producing a pre-decoded
//! [`CompiledTrace`] for [`memctrl::MemoryController::run_compiled`].
//! `GuestLedger::expand_mem_ops` is the un-decoded twin feeding
//! [`memctrl::MemoryController::run_trace`]; both expansions reproduce the
//! original op stream exactly, op for op, which the equivalence battery
//! pins.

use crate::run::HpaMap;
use memctrl::{CompiledTrace, MemOp};
use rand::rngs::StdRng;
use workloads::{GuestOp, WorkloadGen};

/// One RLE run of identical consecutive guest ops, with the issuing vCPU
/// stream already resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestRun {
    /// Guest byte offset of every op in the run.
    pub offset: u64,
    /// Compute time before each op, picoseconds.
    pub gap_ps: u64,
    /// Number of identical consecutive ops this run stands for.
    pub count: u32,
    /// Resolved vCPU stream (before the bind-time `thread_base` shift).
    pub thread: u16,
    /// Write (true) or read (false).
    pub write: bool,
    /// Each op waits for its stream's previous op to complete.
    pub dependent: bool,
}

/// A compiled guest trace: pre-drawn, thread-dealt, RLE-coalesced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestLedger {
    runs: Vec<GuestRun>,
    ops: usize,
    threads: u16,
    /// One past the largest guest offset: every op lies in `[0, extent)`.
    extent: u64,
}

impl GuestLedger {
    /// Compiles a guest-op stream: deals each logical request (a chain
    /// starting at a non-dependent op) round-robin across `threads` vCPU
    /// streams — the exact loop the direct path ran inline — and coalesces
    /// identical consecutive ops.
    #[must_use]
    pub fn compile(guest_ops: &[GuestOp], threads: u16) -> Self {
        let threads = threads.max(1);
        let mut runs: Vec<GuestRun> = Vec::new();
        let mut thread = 0u16;
        let mut extent = 0;
        for op in guest_ops {
            extent = extent.max(op.offset.saturating_add(1));
            if !op.dependent {
                thread += 1;
                if thread == threads {
                    thread = 0;
                }
            }
            match runs.last_mut() {
                Some(run)
                    if run.offset == op.offset
                        && run.write == op.write
                        && run.gap_ps == op.gap_ps
                        && run.dependent == op.dependent
                        && run.thread == thread
                        && run.count < u32::MAX =>
                {
                    run.count += 1;
                }
                _ => runs.push(GuestRun {
                    offset: op.offset,
                    gap_ps: op.gap_ps,
                    count: 1,
                    thread,
                    write: op.write,
                    dependent: op.dependent,
                }),
            }
        }
        Self {
            runs,
            ops: guest_ops.len(),
            threads,
            extent,
        }
    }

    /// Draws `ops` guest operations from `workload` with `rng` and compiles
    /// them — the one-call form used by the fleet's load generators.
    pub fn generate(
        workload: &mut dyn WorkloadGen,
        ops: usize,
        threads: u16,
        rng: &mut StdRng,
    ) -> Self {
        let guest_ops = workload.generate(ops, rng);
        Self::compile(&guest_ops, threads)
    }

    /// Number of guest ops the ledger expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether the ledger holds no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Number of vCPU streams the ops were dealt across.
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

    /// Number of RLE runs (≤ [`Self::len`]; the compression ratio is
    /// `len / runs`).
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Expands the ledger through a VM backing map, reproducing the exact
    /// physical op stream the direct path built inline. Guest→HPA
    /// translation runs once per run, not once per op. The iterator
    /// reports its exact length, so a consumer that reserves its size hint
    /// (`collect`, [`CompiledTrace::compile`]) allocates once.
    fn iter_mem_ops<'a>(
        &'a self,
        hpa: &'a HpaMap,
        thread_base: u16,
    ) -> impl Iterator<Item = MemOp> + 'a {
        let ops = self.runs.iter().flat_map(move |run| {
            let op = MemOp {
                phys: hpa.to_hpa(run.offset),
                write: run.write,
                gap_ps: run.gap_ps,
                dependent: run.dependent,
                thread: thread_base + run.thread,
            };
            std::iter::repeat_n(op, run.count as usize)
        });
        ExactLen {
            inner: ops,
            left: self.ops,
        }
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

/// An iterator of known length. `flat_map` reports a lower bound of 0,
/// which left a bind's program to grow by doubling.
struct ExactLen<I> {
    inner: I,
    left: usize,
}

impl<I: Iterator> Iterator for ExactLen<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    fn fold<B, F: FnMut(B, I::Item) -> B>(self, init: B, f: F) -> B {
        self.inner.fold(init, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use siloz::BackingBlock;

    /// The pre-ledger reference: the dealing loop as the direct path ran it
    /// inline, with no coalescing.
    fn reference_deal(guest_ops: &[GuestOp], threads: u16, base: u16) -> Vec<(GuestOp, u16)> {
        let threads = threads.max(1);
        let mut thread = 0u16;
        guest_ops
            .iter()
            .map(|op| {
                if !op.dependent {
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
        // Small offset/gap alphabets make coalescible repeats likely.
        (0u64..8, any::<bool>(), 0u64..2, any::<bool>()).prop_map(|(off, write, gap, dependent)| {
            GuestOp {
                offset: off * 64,
                write,
                gap_ps: gap * 100,
                dependent,
            }
        })
    }

    proptest! {
        #[test]
        fn rle_round_trip_reproduces_the_dealt_stream(
            ops in proptest::collection::vec(arb_guest_op(), 0..400),
            threads in 1u16..8,
            base in 0u16..32,
        ) {
            let ledger = GuestLedger::compile(&ops, threads);
            prop_assert_eq!(ledger.len(), ops.len());
            prop_assert_eq!(
                ledger.extent(),
                ops.iter().map(|op| op.offset + 1).max().unwrap_or(0)
            );
            prop_assert!(ledger.runs() <= ops.len().max(1));
            let map = identity_map();
            prop_assert_eq!(
                ledger.iter_mem_ops(&map, base).size_hint(),
                (ops.len(), Some(ops.len()))
            );
            let expanded = ledger.expand_mem_ops(&map, base);
            let expect: Vec<MemOp> = reference_deal(&ops, threads, base)
                .into_iter()
                .map(|(op, thread)| MemOp {
                    phys: map.to_hpa(op.offset),
                    write: op.write,
                    gap_ps: op.gap_ps,
                    dependent: op.dependent,
                    thread,
                })
                .collect();
            prop_assert_eq!(expanded, expect);
        }
    }

    #[test]
    fn identical_consecutive_ops_coalesce() {
        // One thread: a same-offset dependent chase coalesces into few runs.
        let ops: Vec<GuestOp> = (0..100)
            .map(|_| GuestOp {
                offset: 4096,
                write: false,
                gap_ps: 0,
                dependent: true,
            })
            .collect();
        let ledger = GuestLedger::compile(&ops, 1);
        assert_eq!(ledger.len(), 100);
        assert_eq!(ledger.runs(), 1, "identical chain is one run");
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        let ops = [GuestOp::read(0), GuestOp::read(64)];
        let ledger = GuestLedger::compile(&ops, 0);
        assert_eq!(ledger.threads(), 1);
        let expanded = ledger.expand_mem_ops(&identity_map(), 0);
        assert!(expanded.iter().all(|op| op.thread == 0));
    }
}
