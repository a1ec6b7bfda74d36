//! A buddy allocator over 4 KiB page frames.
//!
//! Deterministic (lowest address first), supports arbitrary frame ranges
//! with holes, and supports offlining individual frames — the primitive
//! Siloz extends to take guard rows out of circulation (§5.4), mirroring
//! Linux's faulty-page offlining.

use crate::NumaError;
use std::collections::BTreeSet;
use std::ops::Range;

/// Maximum supported block order (2^18 frames = 1 GiB).
pub const MAX_ORDER: u8 = 18;

/// How an allocator holds one frame of its coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// On a free list.
    Free,
    /// Handed out by an allocation.
    Allocated,
    /// Taken offline, or left out as a hole at construction.
    Offlined,
}

/// A power-of-two buddy allocator over page frame numbers.
///
/// # Examples
///
/// ```
/// use numa::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(&[0..1024]);
/// let a = buddy.alloc(0).unwrap();
/// let b = buddy.alloc(0).unwrap();
/// assert_ne!(a, b);
/// buddy.free(a, 0).unwrap();
/// buddy.free(b, 0).unwrap();
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free blocks per order; each entry is the first frame of an aligned
    /// block. `BTreeSet` gives deterministic lowest-address allocation.
    free: Vec<BTreeSet<u64>>,
    /// The original coverage, used to prevent merges across holes.
    ranges: Vec<Range<u64>>,
    total_frames: u64,
    free_frames: u64,
    offlined: BTreeSet<u64>,
}

impl BuddyAllocator {
    /// Creates an allocator covering `ranges` of page frames.
    #[must_use]
    pub fn new(ranges: &[Range<u64>]) -> Self {
        Self::with_holes(ranges, &[])
    }

    /// Creates an allocator covering `ranges`, excluding `holes` (frames
    /// never made available — e.g. guard rows reserved at boot).
    #[must_use]
    pub fn with_holes(ranges: &[Range<u64>], holes: &[u64]) -> Self {
        let mut norm: Vec<Range<u64>> =
            ranges.iter().filter(|r| r.end > r.start).cloned().collect();
        norm.sort_by_key(|r| r.start);
        let hole_set: BTreeSet<u64> = holes.iter().copied().collect();
        let mut this = Self {
            free: vec![BTreeSet::new(); MAX_ORDER as usize + 1],
            ranges: norm.clone(),
            total_frames: 0,
            free_frames: 0,
            offlined: hole_set.clone(),
        };
        for range in &norm {
            // Insert maximal aligned blocks between holes.
            let mut start = range.start;
            let holes_in: Vec<u64> = hole_set.range(range.start..range.end).copied().collect();
            let mut segments = Vec::new();
            for h in holes_in {
                if h > start {
                    segments.push(start..h);
                }
                start = h + 1;
            }
            if range.end > start {
                segments.push(start..range.end);
            }
            for seg in segments {
                this.seed_segment(seg);
            }
            this.total_frames += range.end - range.start;
        }
        this
    }

    /// Seeds free lists with maximal aligned blocks covering `seg`.
    fn seed_segment(&mut self, seg: Range<u64>) {
        let mut start = seg.start;
        while start < seg.end {
            let order = max_block(start, seg.end);
            self.free[order as usize].insert(start);
            self.free_frames += 1u64 << order;
            start += 1u64 << order;
        }
    }

    /// Total frames covered (including allocated and offlined).
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Currently-free frames.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Frames taken offline.
    #[must_use]
    pub fn offlined_frames(&self) -> u64 {
        self.offlined.len() as u64
    }

    /// How the allocator holds `frame`; `None` outside its coverage.
    #[must_use]
    pub fn frame_state(&self, frame: u64) -> Option<FrameState> {
        if self.offlined.contains(&frame) {
            Some(FrameState::Offlined)
        } else if !self.in_coverage(frame, frame + 1) {
            None
        } else if self.is_free_or_overlapping(frame, 0) {
            Some(FrameState::Free)
        } else {
            Some(FrameState::Allocated)
        }
    }

    /// Allocates a block of `2^order` frames; returns its first frame.
    ///
    /// Splits larger blocks as needed; picks the lowest available address.
    pub fn alloc(&mut self, order: u8) -> Result<u64, NumaError> {
        if order > MAX_ORDER {
            return Err(NumaError::OutOfMemory { order });
        }
        // Find the smallest order with a free block.
        let mut o = order;
        while o <= MAX_ORDER && self.free[o as usize].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return Err(NumaError::OutOfMemory { order });
        }
        let frame = *self.free[o as usize].iter().next().expect("nonempty");
        self.free[o as usize].remove(&frame);
        // Split down to the requested order, keeping the upper halves free.
        while o > order {
            o -= 1;
            self.free[o as usize].insert(frame + (1u64 << o));
        }
        self.free_frames -= 1u64 << order;
        Ok(frame)
    }

    /// Allocates `n` blocks of `2^order` frames, appending their first
    /// frames to `out`: exactly the frames, in order, that `n` calls of
    /// [`Self::alloc`] return, leaving exactly the free lists they leave.
    ///
    /// Each pick takes the lowest block of the smallest non-empty order
    /// `O ≥ order`. Orders `order..O` are empty then, so the sequential
    /// splits hand out the picked block from its low end, and what they
    /// leave of it is its remaining maximal aligned blocks: this carves
    /// `min(left, 2^(O − order))` blocks and re-inserts that remainder.
    /// Out of memory part-way, the blocks already taken stay in `out`, as
    /// they would in the loop.
    pub fn alloc_run(&mut self, order: u8, n: u64, out: &mut Vec<u64>) -> Result<(), NumaError> {
        let mut left = n;
        while left > 0 {
            let Some(o) = (order..=MAX_ORDER).find(|&o| !self.free[o as usize].is_empty()) else {
                return Err(NumaError::OutOfMemory { order });
            };
            let block = self.free[o as usize].pop_first().expect("nonempty");
            let take = left.min(1u64 << (o - order));
            out.extend((0..take).map(|i| block + (i << order)));
            left -= take;
            self.free_frames -= 1u64 << o;
            self.seed_segment(block + (take << order)..block + (1u64 << o));
        }
        Ok(())
    }

    /// Frees a block previously returned by [`Self::alloc`].
    ///
    /// Coalesces with free buddies, but never across coverage holes.
    pub fn free(&mut self, frame: u64, order: u8) -> Result<(), NumaError> {
        if order > MAX_ORDER
            || !frame.is_multiple_of(1u64 << order)
            || !self.in_coverage(frame, frame + (1u64 << order))
        {
            return Err(NumaError::BadFree { frame, order });
        }
        if self.is_free_or_overlapping(frame, order) {
            return Err(NumaError::BadFree { frame, order });
        }
        // Merged buddies are already counted free; only the newly-freed
        // block adds to the free count.
        self.free_frames += 1u64 << order;
        self.merge_in(frame, order);
        Ok(())
    }

    /// Frees `n` contiguous blocks of `2^order` frames starting at `frame`:
    /// the same result (the first error, if any) and the same free lists
    /// as `n` calls of [`Self::free`] in address order.
    ///
    /// The free lists are a function of the free set alone — every block
    /// is maximal, merged as far as coverage allows — so freeing the run's
    /// maximal aligned blocks through the merge loop lands where the single
    /// frees do. That needs every single free to succeed, which the run's
    /// checks establish at run granularity: aligned, inside one coverage
    /// range, no offlined frame, no free block overlapping it. If any check
    /// fails, the run is freed block by block, so errors and state are the
    /// single frees' own.
    pub fn free_run(&mut self, frame: u64, order: u8, n: u64) -> Result<(), NumaError> {
        if n == 0 {
            return Ok(());
        }
        if order > MAX_ORDER {
            return Err(NumaError::BadFree { frame, order });
        }
        let end = frame + (n << order);
        if !frame.is_multiple_of(1u64 << order)
            || !self.in_coverage(frame, end)
            || self.overlaps_free(frame, end)
        {
            let mut first = Ok(());
            for i in 0..n {
                let freed = self.free(frame + (i << order), order);
                first = first.and(freed);
            }
            return first;
        }
        self.free_frames += n << order;
        let mut start = frame;
        while start < end {
            let o = max_block(start, end);
            self.merge_in(start, o);
            start += 1u64 << o;
        }
        Ok(())
    }

    /// Puts the block at `frame` on the free lists, coalescing it with
    /// free buddies as far as coverage allows.
    fn merge_in(&mut self, mut frame: u64, mut order: u8) {
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            let merged = frame.min(buddy);
            if self.free[order as usize].contains(&buddy)
                && self.in_coverage(merged, merged + (2u64 << order))
            {
                self.free[order as usize].remove(&buddy);
                frame = merged;
                order += 1;
            } else {
                break;
            }
        }
        self.free[order as usize].insert(frame);
    }

    /// Whether `[start, end)` lies entirely inside one original coverage
    /// range with no offlined frames.
    fn in_coverage(&self, start: u64, end: u64) -> bool {
        let inside = self.ranges.iter().any(|r| start >= r.start && end <= r.end);
        inside && self.offlined.range(start..end).next().is_none()
    }

    /// Whether any free block overlaps `[start, end)`: one starting inside
    /// it, or the aligned block containing `start` — at most two queries
    /// per non-empty order.
    fn overlaps_free(&self, start: u64, end: u64) -> bool {
        self.free.iter().enumerate().any(|(o, set)| {
            !set.is_empty()
                && (set.range(start..end).next().is_some()
                    || set.contains(&(start & !((1u64 << o) - 1))))
        })
    }

    /// Whether any part of the `order`-aligned block at `frame` is already
    /// on a free list. Free blocks are aligned to their own order, so a
    /// smaller one overlaps the block only by starting inside it, and a
    /// block of order ≥ `order` only by being the one aligned block that
    /// contains `frame`: one query per non-empty order.
    fn is_free_or_overlapping(&self, frame: u64, order: u8) -> bool {
        let end = frame + (1u64 << order);
        self.free.iter().enumerate().any(|(o, set)| {
            !set.is_empty()
                && if o < usize::from(order) {
                    set.range(frame..end).next().is_some()
                } else {
                    set.contains(&(frame & !((1u64 << o) - 1)))
                }
        })
    }

    /// Takes a single *free* frame offline, splitting any containing free
    /// block. Returns `false` if the frame is allocated, already offline, or
    /// out of coverage (callers migrate data first, as Linux does).
    pub fn offline_frame(&mut self, frame: u64) -> bool {
        if self.offlined.contains(&frame) || !self.in_coverage(frame, frame + 1) {
            return false;
        }
        // Find the free block containing this frame.
        let mut found: Option<(u8, u64)> = None;
        for o in 0..=MAX_ORDER {
            let size = 1u64 << o;
            let block = frame & !(size - 1);
            if self.free[o as usize].contains(&block) {
                found = Some((o, block));
                break;
            }
        }
        let Some((o, block)) = found else {
            return false; // Allocated frames cannot be offlined here.
        };
        self.free[o as usize].remove(&block);
        // Re-seed the block minus the offlined frame.
        self.offlined.insert(frame);
        self.free_frames -= 1u64 << o;
        if frame > block {
            self.seed_segment(block..frame);
        }
        if frame + 1 < block + (1u64 << o) {
            self.seed_segment(frame + 1..block + (1u64 << o));
        }
        true
    }

    /// Offlines many frames; returns how many were actually taken offline.
    pub fn offline_frames(&mut self, frames: impl IntoIterator<Item = u64>) -> u64 {
        frames
            .into_iter()
            .filter(|&f| self.offline_frame(f))
            .count() as u64
    }
}

/// Order of the largest aligned block starting at `start` that ends by
/// `end` (`start < end`), capped at [`MAX_ORDER`].
fn max_block(start: u64, end: u64) -> u8 {
    let mut order = start.trailing_zeros().min(u32::from(MAX_ORDER)) as u8;
    while order > 0 && start + (1u64 << order) > end {
        order -= 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_roundtrip_restores_all_frames() {
        let mut b = BuddyAllocator::new(&[0..4096]);
        assert_eq!(b.free_frames(), 4096);
        let mut blocks = Vec::new();
        for order in [0u8, 3, 9, 0, 5] {
            blocks.push((b.alloc(order).unwrap(), order));
        }
        for &(f, o) in &blocks {
            b.free(f, o).unwrap();
        }
        assert_eq!(b.free_frames(), 4096);
        // Everything coalesced back: a maximal allocation succeeds.
        let f = b.alloc(12).unwrap();
        assert_eq!(f % (1 << 12), 0);
    }

    #[test]
    fn frame_state_tracks_alloc_free_and_offline() {
        let mut b = BuddyAllocator::with_holes(&[0..64], &[5]);
        let a = b.alloc(3).unwrap();
        assert!(b.offline_frame(40));
        assert_eq!(b.frame_state(a + 7), Some(FrameState::Allocated));
        assert_eq!(b.frame_state(5), Some(FrameState::Offlined));
        assert_eq!(b.frame_state(40), Some(FrameState::Offlined));
        assert_eq!(b.frame_state(41), Some(FrameState::Free));
        assert_eq!(b.frame_state(64), None);
        b.free(a, 3).unwrap();
        assert_eq!(b.frame_state(a + 7), Some(FrameState::Free));
    }

    #[test]
    fn allocations_are_lowest_address_first() {
        let mut b = BuddyAllocator::new(&[100..2148]);
        // 100 is not order-9-aligned; first order-0 alloc is frame 100.
        assert_eq!(b.alloc(0).unwrap(), 100);
        assert_eq!(b.alloc(0).unwrap(), 101);
    }

    #[test]
    fn split_and_merge_are_exact() {
        let mut b = BuddyAllocator::new(&[0..1024]);
        let x = b.alloc(0).unwrap();
        assert_eq!(x, 0);
        assert_eq!(b.free_frames(), 1023);
        b.free(x, 0).unwrap();
        assert_eq!(b.free_frames(), 1024);
        // After merging, a 1024-frame (order-10) block is available again.
        assert_eq!(b.alloc(10).unwrap(), 0);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut b = BuddyAllocator::new(&[0..16]);
        assert!(matches!(
            b.alloc(5),
            Err(NumaError::OutOfMemory { order: 5 })
        ));
        for _ in 0..16 {
            b.alloc(0).unwrap();
        }
        assert!(b.alloc(0).is_err());
    }

    #[test]
    fn double_free_is_rejected() {
        let mut b = BuddyAllocator::new(&[0..64]);
        let f = b.alloc(2).unwrap();
        b.free(f, 2).unwrap();
        assert!(matches!(b.free(f, 2), Err(NumaError::BadFree { .. })));
    }

    #[test]
    fn misaligned_or_uncovered_free_is_rejected() {
        let mut b = BuddyAllocator::new(&[0..64]);
        assert!(b.free(1, 1).is_err(), "misaligned");
        assert!(b.free(128, 0).is_err(), "outside coverage");
    }

    #[test]
    fn holes_are_never_allocated() {
        let holes: Vec<u64> = (10..20).collect();
        let mut b = BuddyAllocator::with_holes(&[0..64], &holes);
        assert_eq!(b.free_frames(), 54);
        let mut seen = BTreeSet::new();
        while let Ok(f) = b.alloc(0) {
            assert!(!(10..20).contains(&f), "allocated hole frame {f}");
            seen.insert(f);
        }
        assert_eq!(seen.len(), 54);
    }

    #[test]
    fn merge_never_crosses_holes() {
        let mut b = BuddyAllocator::with_holes(&[0..64], &[32]);
        // Allocate and free everything; blocks must not merge across 32.
        let mut blocks = Vec::new();
        while let Ok(f) = b.alloc(0) {
            blocks.push(f);
        }
        for f in blocks {
            b.free(f, 0).unwrap();
        }
        // An order-6 (64-frame) alloc must fail: the hole splits coverage.
        assert!(b.alloc(6).is_err());
        // But order-5 (32 frames) in the lower half works.
        assert_eq!(b.alloc(5).unwrap(), 0);
    }

    #[test]
    fn offline_free_frame_splits_block() {
        let mut b = BuddyAllocator::new(&[0..64]);
        assert!(b.offline_frame(17));
        assert_eq!(b.free_frames(), 63);
        assert_eq!(b.offlined_frames(), 1);
        let mut got = Vec::new();
        while let Ok(f) = b.alloc(0) {
            got.push(f);
        }
        assert!(!got.contains(&17));
        assert_eq!(got.len(), 63);
    }

    #[test]
    fn offline_allocated_frame_fails() {
        let mut b = BuddyAllocator::new(&[0..64]);
        let f = b.alloc(0).unwrap();
        assert!(!b.offline_frame(f));
        assert!(!b.offline_frame(9999), "out of coverage");
        assert!(b.offline_frame(5));
        assert!(!b.offline_frame(5), "already offline");
    }

    #[test]
    fn multiple_ranges_work_independently() {
        let mut b = BuddyAllocator::new(&[0..32, 1024..1056]);
        assert_eq!(b.total_frames(), 64);
        let mut frames = Vec::new();
        while let Ok(f) = b.alloc(0) {
            frames.push(f);
        }
        assert_eq!(frames.len(), 64);
        assert!(frames.iter().all(|&f| f < 32 || (1024..1056).contains(&f)));
    }

    #[test]
    fn huge_page_orders_supported() {
        use crate::{ORDER_1G, ORDER_2M};
        // 2 GiB of frames: two 1 GiB blocks.
        let mut b = BuddyAllocator::new(&[0..(2 << 18)]);
        let g1 = b.alloc(ORDER_1G).unwrap();
        let g2 = b.alloc(ORDER_1G).unwrap();
        assert!(b.alloc(ORDER_2M).is_err());
        b.free(g1, ORDER_1G).unwrap();
        assert!(b.alloc(ORDER_2M).is_ok());
        let _ = g2;
    }

    /// The reference overlap check: on every order, any free block
    /// starting inside the region or containing its first frame.
    fn overlap_reference(b: &BuddyAllocator, frame: u64, order: u8) -> bool {
        let end = frame + (1u64 << order);
        for (o, set) in b.free.iter().enumerate() {
            let size = 1u64 << o;
            if set.range(frame..end).next().is_some() {
                return true;
            }
            let align_start = frame & !(size - 1);
            if let Some(&blk) = set.range(align_start..=align_start).next() {
                if blk < end && blk + size > frame {
                    return true;
                }
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random alloc / free / offline sequences, with double,
        /// overlapping and partial frees mixed in: the one-query-per-order
        /// check answers exactly what the reference answers, at every
        /// probe, and the allocator stays conserving.
        #[test]
        fn overlap_check_matches_the_reference(
            steps in prop::collection::vec((0u8..6, 0u8..10, 0u64..6144), 1..160),
        ) {
            let mut b = BuddyAllocator::new(&[0..4096, 5120..6144]);
            let mut live: Vec<(u64, u8)> = Vec::new();
            let mut freed: Vec<(u64, u8)> = Vec::new();
            for (kind, order, raw) in steps {
                // An arbitrary aligned block, possibly overlapping free and
                // allocated blocks alike.
                let arbitrary = (raw & !((1u64 << order) - 1), order);
                let (frame, o, free_it) = match kind {
                    0 => {
                        if let Ok(f) = b.alloc(order) {
                            live.push((f, order));
                        }
                        (arbitrary.0, arbitrary.1, false)
                    }
                    // A legitimate free.
                    1 if !live.is_empty() => {
                        let (f, o) = live.swap_remove(raw as usize % live.len());
                        freed.push((f, o));
                        (f, o, true)
                    }
                    // A double free of a block freed earlier.
                    2 if !freed.is_empty() => {
                        let (f, o) = freed[raw as usize % freed.len()];
                        (f, o, true)
                    }
                    // A partial free: one half of a live block.
                    3 if live.iter().any(|&(_, o)| o > 0) => {
                        let &(f, o) = live.iter().find(|&&(_, o)| o > 0).expect("found");
                        (f + (raw & 1) * (1u64 << (o - 1)), o - 1, true)
                    }
                    4 => {
                        b.offline_frame(raw);
                        (arbitrary.0, arbitrary.1, false)
                    }
                    _ => (arbitrary.0, arbitrary.1, true),
                };
                let reference = overlap_reference(&b, frame, o);
                prop_assert_eq!(
                    b.is_free_or_overlapping(frame, o),
                    reference,
                    "probe ({}, {})", frame, o
                );
                prop_assert_eq!(b.overlaps_free(frame, frame + (1u64 << o)), reference);
                if !free_it {
                    continue;
                }
                let before = b.free_frames();
                match b.free(frame, o) {
                    Ok(()) => {
                        prop_assert_eq!(b.free_frames(), before + (1u64 << o));
                        live.retain(|&(lf, lo)| {
                            lf + (1u64 << lo) <= frame || frame + (1u64 << o) <= lf
                        });
                    }
                    Err(_) => prop_assert_eq!(b.free_frames(), before),
                }
            }
        }

        /// `alloc_run`/`free_run` against single `alloc`/`free` calls on a
        /// clone, over holes and three coverage ranges (two of them
        /// adjacent), with runs that run out of memory part-way and frees
        /// that double-free, overlap free blocks, cross ranges or leave
        /// coverage: the same frames, results, free lists and free count
        /// after every step.
        #[test]
        fn runs_match_single_calls_in_lockstep(
            holes in prop::collection::vec(0u64..6144, 0..6),
            steps in prop::collection::vec((0u8..4, 0u8..5, 1u64..64, 0u64..6144), 1..120),
        ) {
            let mut run = BuddyAllocator::with_holes(&[0..3072, 3072..4096, 5120..6144], &holes);
            let mut single = run.clone();
            let mut live: Vec<(u64, u8)> = Vec::new();
            for (kind, order, n, raw) in steps {
                match kind {
                    0 => {
                        let mut got = Vec::new();
                        let result = run.alloc_run(order, n, &mut got);
                        let mut want = Vec::new();
                        let mut expected = Ok(());
                        for _ in 0..n {
                            match single.alloc(order) {
                                Ok(f) => want.push(f),
                                Err(e) => {
                                    expected = Err(e);
                                    break;
                                }
                            }
                        }
                        prop_assert_eq!(result, expected);
                        prop_assert_eq!(&got, &want);
                        live.extend(got.iter().map(|&f| (f, order)));
                    }
                    // A run of live blocks that are contiguous and of one
                    // order, starting at a random live block — or, once
                    // freed, a double free of it.
                    1 | 2 if !live.is_empty() => {
                        live.sort_unstable();
                        let at = raw as usize % live.len();
                        let (frame, o) = live[at];
                        let len = (live[at..].iter().enumerate())
                            .take_while(|&(i, &(f, lo))| lo == o && f == frame + ((i as u64) << o))
                            .count()
                            .min(n as usize);
                        prop_assert_eq!(
                            run.free_run(frame, o, len as u64),
                            free_each(&mut single, frame, o, len as u64)
                        );
                        if kind == 1 {
                            live.drain(at..at + len);
                        }
                    }
                    // An arbitrary aligned run: overlapping free and live
                    // blocks, holes, range ends and uncovered frames alike.
                    3 => {
                        let frame = raw & !((1u64 << order) - 1);
                        prop_assert_eq!(
                            run.free_run(frame, order, n),
                            free_each(&mut single, frame, order, n)
                        );
                    }
                    _ => prop_assert_eq!(run.offline_frame(raw), single.offline_frame(raw)),
                }
                prop_assert_eq!(&run.free, &single.free);
                prop_assert_eq!(run.free_frames(), single.free_frames());
            }
        }
    }

    /// `n` single frees in address order, each attempted: the first error.
    fn free_each(b: &mut BuddyAllocator, frame: u64, order: u8, n: u64) -> Result<(), NumaError> {
        let mut first = Ok(());
        for i in 0..n {
            first = first.and(b.free(frame + (i << order), order));
        }
        first
    }

    #[test]
    fn alloc_run_keeps_what_it_took_when_memory_runs_out() {
        let mut b = BuddyAllocator::with_holes(&[0..64], &[17]);
        let mut got = Vec::new();
        assert_eq!(
            b.alloc_run(2, 20, &mut got),
            Err(NumaError::OutOfMemory { order: 2 })
        );
        // Every 4-frame block but the one holding the hole, smallest free
        // block first, as single allocations take them.
        assert_eq!(
            got,
            [20, 24, 28, 0, 4, 8, 12, 32, 36, 40, 44, 48, 52, 56, 60]
        );
        assert_eq!(b.free_frames(), 3);
        assert_eq!(b.free_run(0, 2, 4), Ok(()));
        assert_eq!(b.alloc(4), Ok(0), "the freed run merged back");
    }
}
