//! A trace-emitting arena: data-structure substrates run on top of this and
//! every touched address becomes a [`GuestOp`].

use crate::GuestOp;

/// A bump-allocated guest-address arena that records accesses.
///
/// Substrates (KV store, B+-tree, sorter) allocate objects here and call
/// [`TraceArena::read`]/[`TraceArena::write`] as they operate; the arena
/// appends cache-line-granular operations to its trace. This keeps the
/// workload logic *real* (actual lookups, actual sorts) while producing the
/// address streams the simulator replays.
#[derive(Debug, Clone)]
pub struct TraceArena {
    capacity: u64,
    next: u64,
    trace: Vec<GuestOp>,
    /// Compute time to attach to the next touched line.
    pending_gap: u64,
    /// When muted, touches advance allocator/gap state but emit no ops
    /// (preload phases whose trace would be discarded anyway).
    muted: bool,
}

impl TraceArena {
    /// An arena of `capacity` bytes of guest address space.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` passes 2^62 bytes, where a [`GuestOp`]'s
    /// offset would run into its flag bits.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity <= GuestOp::OFFSET_LIMIT,
            "working set of {capacity} bytes passes 2^62"
        );
        Self {
            capacity,
            next: 0,
            trace: Vec::new(),
            pending_gap: 0,
            muted: false,
        }
    }

    /// Mutes (or unmutes) trace emission. While muted, touches still
    /// consume the pending compute gap and move the allocator exactly as an
    /// unmuted arena would — only the (discarded) trace pushes are skipped.
    /// Substrate preload phases use this: their warmup trace is thrown away,
    /// so recording it is pure overhead.
    pub fn mute(&mut self, on: bool) {
        self.muted = on;
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes allocated so far.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Allocates `bytes` (aligned to `align`); returns the guest offset.
    ///
    /// Wraps around when full (steady-state behaviour of long-running
    /// services that reuse memory).
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        let align = align.max(1);
        let mut at = self.next.div_ceil(align) * align;
        if at + bytes > self.capacity {
            at = 0; // Wrap: reuse the arena from the start.
        }
        self.next = at + bytes;
        at
    }

    /// Records a read of `[offset, offset + len)`.
    pub fn read(&mut self, offset: u64, len: u64) {
        self.touch(offset, len, false, 0, false);
    }

    /// Records a write of `[offset, offset + len)`.
    pub fn write(&mut self, offset: u64, len: u64) {
        self.touch(offset, len, true, 0, false);
    }

    /// Records a dependent read (pointer chase step).
    pub fn read_dependent(&mut self, offset: u64, len: u64) {
        self.touch(offset, len, false, 0, true);
    }

    /// Records compute time before the next operation.
    pub fn compute(&mut self, ps: u64) {
        self.pending_gap += ps;
    }

    fn touch(&mut self, offset: u64, len: u64, write: bool, gap_ps: u64, dependent: bool) {
        debug_assert!(offset + len <= self.capacity, "access beyond arena");
        if self.muted {
            // Identical end state to the unmuted path: the pending gap is
            // consumed (it would have attached to the first emitted line).
            self.pending_gap = 0;
            return;
        }
        let first_line = offset / 64;
        let last_line = (offset + len.max(1) - 1) / 64;
        let mut gap = gap_ps + std::mem::take(&mut self.pending_gap);
        let mut dep = dependent;
        for line in first_line..=last_line {
            self.trace
                .push(GuestOp::new(line * 64, write, dep).with_gap_ps(gap));
            gap = 0;
            dep = false; // Only the first line of an object access depends.
        }
    }

    /// Takes the accumulated trace, leaving the arena's allocator state.
    pub fn take_trace(&mut self) -> Vec<GuestOp> {
        std::mem::take(&mut self.trace)
    }

    /// Number of buffered trace operations.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bumps_and_wraps() {
        let mut a = TraceArena::new(1024);
        let x = a.alloc(100, 64);
        assert_eq!(x, 0);
        let y = a.alloc(100, 64);
        assert_eq!(y, 128);
        // Exhaust and wrap.
        let _ = a.alloc(700, 64);
        let w = a.alloc(512, 64);
        assert_eq!(w, 0, "wraps to start");
    }

    #[test]
    fn touch_emits_line_granular_ops() {
        let mut a = TraceArena::new(4096);
        a.read(10, 100); // Lines 0 and 1.
        a.write(64, 1);
        let t = a.take_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].offset(), 0);
        assert_eq!(t[1].offset(), 64);
        assert!(!t[0].is_write());
        assert!(t[2].is_write());
        assert!(a.take_trace().is_empty(), "trace was taken");
    }

    #[test]
    fn compute_gap_attaches_to_next_op() {
        let mut a = TraceArena::new(4096);
        a.compute(5_000);
        a.read(0, 64);
        a.read(64, 64);
        let t = a.take_trace();
        assert_eq!(t[0].gap_ps(), 5_000);
        assert_eq!(t[1].gap_ps(), 0);
    }

    #[test]
    fn muted_touches_move_state_but_emit_nothing() {
        let mut a = TraceArena::new(4096);
        let mut b = TraceArena::new(4096);
        b.mute(true);
        for arena in [&mut a, &mut b] {
            let off = arena.alloc(256, 64);
            arena.compute(7_000);
            arena.write(off, 256);
        }
        b.mute(false);
        assert!(b.take_trace().is_empty(), "muted touches emit no ops");
        assert!(!a.take_trace().is_empty());
        // Allocator and gap state are identical afterwards.
        assert_eq!(a.used(), b.used());
        a.read(0, 64);
        b.read(0, 64);
        assert_eq!(a.take_trace(), b.take_trace(), "no stale pending gap");
    }

    #[test]
    fn dependent_flag_applies_to_first_line_only() {
        let mut a = TraceArena::new(4096);
        a.read_dependent(0, 128);
        let t = a.take_trace();
        assert!(t[0].is_dependent());
        assert!(!t[1].is_dependent());
    }
}
