//! Pre-decoded replay programs: the config-specific half of trace
//! compilation.
//!
//! A [`CompiledTrace`] is a guest trace resolved all the way to scheduling
//! coordinates: each op carries the flat bank, media row, and rank/channel
//! ordinals that [`MemoryController::run_trace`] would have derived from
//! its window-fill decode, so [`MemoryController::run_compiled`] replays it
//! with no per-op decode or ordinal arithmetic at all. Decode-cache
//! accounting is preserved exactly — compilation runs a [`StreamDecoder`]
//! over the trace in order and stores its counters; replay credits them
//! into the controller's TLB so exported telemetry is identical to the
//! direct path.
//!
//! [`MemoryController`]: crate::MemoryController
//! [`MemoryController::run_trace`]: crate::MemoryController::run_trace
//! [`MemoryController::run_compiled`]: crate::MemoryController::run_compiled

use crate::controller::MemOp;
use dram_addr::{AddrError, BankId, Geometry, MediaAddress, StreamDecoder, SystemAddressDecoder};

/// Flat-bank sentinel for ops whose address failed to decode. Such ops are
/// dropped at replay, exactly as [`run_trace`] drops undecoded window
/// entries — but they still occupy window and thread bookkeeping.
///
/// [`run_trace`]: crate::MemoryController::run_trace
pub(crate) const INVALID_BANK: u32 = u32::MAX;

/// One pre-decoded trace op, reduced to exactly what the scheduler and
/// timing model consume (24 bytes, so replay streams the program through
/// cache efficiently).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledOp {
    /// CPU time before issue on this thread, picoseconds.
    pub gap_ps: u64,
    /// Media row of the access (unset when invalid).
    pub row: u32,
    /// Machine-wide flat bank id, or [`INVALID_BANK`] for dropped ops.
    pub bank: u32,
    /// [`dram_addr::Geometry::rank_ordinal`] of the access.
    pub rank_ord: u16,
    /// [`dram_addr::Geometry::channel_ordinal`] of the access.
    pub chan_ord: u16,
    /// Issuing hardware thread.
    pub thread: u16,
    /// Write (true) or read (false).
    pub write: bool,
    /// Cannot issue before this thread's previous op completes.
    pub dependent: bool,
}

impl CompiledOp {
    /// Reduces `op` and its decode to scheduling coordinates. A failed
    /// decode keeps placeholder coordinates under the [`INVALID_BANK`]
    /// sentinel; replay drops the op by sentinel.
    #[inline]
    pub(crate) fn new(
        op: MemOp,
        decoded: Result<(MediaAddress, BankId), AddrError>,
        geometry: &Geometry,
    ) -> Self {
        let (row, bank, rank_ord, chan_ord) = match decoded {
            Ok((m, bank)) => (
                m.row,
                bank.0,
                geometry.rank_ordinal(m.socket, m.channel, m.dimm, m.rank) as u16,
                geometry.channel_ordinal(m.socket, m.channel) as u16,
            ),
            Err(_) => (0, INVALID_BANK, 0, 0),
        };
        Self {
            gap_ps: op.gap_ps,
            row,
            bank,
            rank_ord,
            chan_ord,
            thread: op.thread,
            write: op.write,
            dependent: op.dependent,
        }
    }
}

/// A trace compiled against one concrete address-decoder configuration,
/// ready for decode-free replay.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    pub(crate) ops: Vec<CompiledOp>,
    /// Decode-cache counters accumulated while compiling, credited into
    /// the replaying controller's TLB (`hits`, `misses`, `aliases`).
    pub(crate) tlb_hits: u64,
    pub(crate) tlb_misses: u64,
    pub(crate) tlb_aliases: u64,
}

impl CompiledTrace {
    /// Decodes `ops` in trace order against `decoder`.
    ///
    /// The decode order matters: [`run_trace`] decodes each op once as it
    /// enters the lookahead window, which is trace order, so a fresh
    /// streaming decoder walked the same way reproduces the exact TLB
    /// hit/miss/alias sequence the direct path would produce.
    ///
    /// [`run_trace`]: crate::MemoryController::run_trace
    #[must_use]
    pub fn compile<I>(decoder: SystemAddressDecoder, ops: I) -> Self
    where
        I: IntoIterator<Item = MemOp>,
    {
        let geometry = *decoder.geometry();
        let iter = ops.into_iter();
        let mut decoded = Vec::with_capacity(iter.size_hint().0);
        let mut stream = StreamDecoder::new(decoder);
        for op in iter {
            let decode = stream.decode_with_bank(op.phys);
            decoded.push(CompiledOp::new(op, decode, &geometry));
        }
        let (tlb_hits, tlb_misses, tlb_aliases) = stream.counters();
        Self {
            ops: decoded,
            tlb_hits,
            tlb_misses,
            tlb_aliases,
        }
    }

    /// Number of compiled ops (including invalid ones, which replay as
    /// drops).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Decode-cache `(hits, misses, aliases)` accumulated at compile time.
    #[must_use]
    pub fn tlb_counters(&self) -> (u64, u64, u64) {
        (self.tlb_hits, self.tlb_misses, self.tlb_aliases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_addr::mini_decoder;

    #[test]
    fn compile_marks_invalid_ops_and_keeps_order() {
        let dec = mini_decoder();
        let cap = dec.capacity();
        let ops = [
            MemOp::read(0),
            MemOp::read(cap + 64),
            MemOp::write(128).on_thread(3),
        ];
        let prog = CompiledTrace::compile(dec.clone(), ops);
        assert_eq!(prog.len(), 3);
        assert!(!prog.is_empty());
        assert_ne!(prog.ops[0].bank, INVALID_BANK);
        assert_eq!(prog.ops[1].bank, INVALID_BANK);
        assert_eq!(prog.ops[2].thread, 3);
        assert!(prog.ops[2].write);
        let g = dec.geometry();
        let expect = dec.decode(128).unwrap();
        assert_eq!(prog.ops[2].row, expect.row);
        assert_eq!(
            prog.ops[2].rank_ord as usize,
            g.rank_ordinal(expect.socket, expect.channel, expect.dimm, expect.rank)
        );
        assert_eq!(
            prog.ops[2].chan_ord as usize,
            g.channel_ordinal(expect.socket, expect.channel)
        );
        // Invalid addresses never touch the decode counters.
        let (h, m, _) = prog.tlb_counters();
        assert_eq!(h + m, 2);
    }
}
