//! Decode TLB: row-granularity memoization of the hot decode path.
//!
//! [`SystemAddressDecoder::decode`] spends most of its time on two division
//! chains: deriving the media *row* from the socket-local offset (the A/B
//! range and block arithmetic of §4.2), and unpacking the flat bank index
//! into structured channel/DIMM/rank/bank coordinates. Both are memoizable:
//!
//! - Each row group occupies one contiguous, `row_group_bytes`-aligned
//!   physical stripe (every term of the inverse mapping is a multiple of
//!   `row_group_bytes`, and socket capacity is a multiple of it too), so the
//!   map `stripe = phys / row_group_bytes → (socket, row)` is a pure
//!   function and a direct-mapped cache over stripes is *exact* — no false
//!   hits are possible because the full stripe index is the tag.
//! - The flat-bank → [`MediaAddress`] unpacking depends only on the flat
//!   index, so a dense table of `banks_per_socket` entries replaces the
//!   division chain entirely. The decoder builds it (and the bank-hash
//!   table) once; every TLB over a clone of that decoder shares it.
//!
//! On a hit, the remaining work is the same tail the uncached path runs:
//! line slot and column from `phys % row_group_bytes`, the bank-hash
//! permutation, and a table lookup. The crate's property tests assert
//! cached and uncached decode agree exactly across the address space.

use crate::{AddrError, BankId, MediaAddress, SystemAddressDecoder, CACHE_LINE_BYTES};
use std::sync::Arc;

/// Tag value marking an empty TLB slot (no stripe hashes to it yet —
/// `u64::MAX / row_group_bytes` exceeds any in-range stripe index).
const EMPTY: u64 = u64::MAX;

/// A direct-mapped, row-group-granularity memoization cache in front of
/// [`SystemAddressDecoder::decode`].
///
/// # Examples
///
/// ```
/// use dram_addr::{mini_decoder, DecodeTlb};
///
/// let mut tlb = DecodeTlb::new(mini_decoder());
/// let cached = tlb.decode(0x1234_5678).unwrap();
/// let uncached = tlb.inner().decode(0x1234_5678).unwrap();
/// assert_eq!(cached, uncached);
/// assert!(tlb.hits() + tlb.misses() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DecodeTlb {
    inner: SystemAddressDecoder,
    /// Stripe tags, `EMPTY` when the slot holds nothing.
    tags: Vec<u64>,
    /// Cached media row for the tagged stripe.
    rows: Vec<u32>,
    /// `tags.len() - 1`; length is a power of two.
    mask: u64,
    /// The decoder's structured bank coordinates by flat bank index
    /// within a socket (socket/row/col zeroed), replacing
    /// `BankId::to_media`'s division chain on every decode.
    bank_media: Arc<[MediaAddress]>,
    hits: u64,
    misses: u64,
    /// Misses that evicted a live (different-stripe) entry, as opposed to
    /// filling an empty slot: the direct-mapped conflict rate.
    aliases: u64,
    // Copies of the inner decoder's derived constants for the hot path.
    row_group_bytes: u64,
    banks_per_socket: u64,
    socket_bytes: u64,
    capacity: u64,
    /// `(mask, shift)` replacing `% / banks_per_socket` when the bank count
    /// is a power of two (every line of the tail then runs division-free).
    bank_pow2: Option<(u64, u32)>,
    /// The decoder's tabulated bank-hash permutation: the flat bank index
    /// is `hash_table[(row & hash_row_mask) * banks_per_socket + slot]`.
    hash_row_mask: u32,
    hash_table: Arc<[u32]>,
}

impl DecodeTlb {
    /// Default number of stripe slots; covers 1.5 GiB of working set at the
    /// evaluation geometry's 1.5 MiB row groups.
    pub const DEFAULT_SLOTS: usize = 1024;

    /// Wraps `decoder` with a [`Self::DEFAULT_SLOTS`]-entry cache.
    #[must_use]
    pub fn new(decoder: SystemAddressDecoder) -> Self {
        Self::with_slots(decoder, Self::DEFAULT_SLOTS)
    }

    /// Wraps `decoder` with at least `slots` cache entries (rounded up to a
    /// power of two, minimum 1).
    #[must_use]
    pub fn with_slots(decoder: SystemAddressDecoder, slots: usize) -> Self {
        let slots = slots.max(1).next_power_of_two();
        let g = decoder.geometry();
        let banks = g.banks_per_socket() as u64;
        let bank_pow2 = banks
            .is_power_of_two()
            .then(|| (banks - 1, banks.trailing_zeros()));
        Self {
            tags: vec![EMPTY; slots],
            rows: vec![0; slots],
            mask: slots as u64 - 1,
            bank_media: Arc::clone(&decoder.bank_media),
            hits: 0,
            misses: 0,
            aliases: 0,
            row_group_bytes: g.row_group_bytes(),
            banks_per_socket: banks,
            socket_bytes: decoder.socket_bytes(),
            capacity: decoder.capacity(),
            bank_pow2,
            hash_row_mask: decoder.hash_row_mask,
            hash_table: Arc::clone(&decoder.hash_table),
            inner: decoder,
        }
    }

    /// Splits a line index within a row group into `(bank slot, column
    /// line)` — mask/shift when the bank count is a power of two.
    #[inline]
    fn split_line(&self, line: u64) -> (u64, u64) {
        match self.bank_pow2 {
            Some((mask, shift)) => (line & mask, line >> shift),
            None => (line % self.banks_per_socket, line / self.banks_per_socket),
        }
    }

    /// The bank-hash permutation via the precomputed table.
    #[inline]
    fn flat_bank(&self, slot: u64, row: u32) -> u32 {
        let base = (row & self.hash_row_mask) as usize * self.banks_per_socket as usize;
        self.hash_table[base + slot as usize]
    }

    /// The wrapped decoder.
    #[must_use]
    pub fn inner(&self) -> &SystemAddressDecoder {
        &self.inner
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses that displaced a live entry (direct-mapped slot conflicts).
    #[must_use]
    pub fn aliases(&self) -> u64 {
        self.aliases
    }

    /// Adds this TLB's counters into `reg` (`hits`/`misses`/`aliases`).
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        reg.counter("hits").add(self.hits);
        reg.counter("misses").add(self.misses);
        reg.counter("aliases").add(self.aliases);
    }

    /// Empties the cache (counters are kept).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Credits externally-performed decodes into this TLB's counters.
    ///
    /// Trace compilation decodes a whole trace up front through its own
    /// [`StreamDecoder`]; replaying the compiled program then credits those
    /// counts here so a controller's exported `tlb` telemetry is identical
    /// to having decoded each op at replay time.
    pub fn credit(&mut self, hits: u64, misses: u64, aliases: u64) {
        self.hits += hits;
        self.misses += misses;
        self.aliases += aliases;
    }

    /// Memoized [`SystemAddressDecoder::decode`]; exact for all addresses.
    #[inline]
    pub fn decode(&mut self, phys: u64) -> Result<MediaAddress, AddrError> {
        self.decode_with_bank(phys).map(|(media, _)| media)
    }

    /// Memoized decode that also returns the machine-wide flat bank id,
    /// which the hot caller (the memory controller) would otherwise
    /// recompute from the media address.
    #[inline]
    pub fn decode_with_bank(&mut self, phys: u64) -> Result<(MediaAddress, BankId), AddrError> {
        let (socket, row) = self.lookup(phys)?;
        let line = phys % self.row_group_bytes / CACHE_LINE_BYTES;
        Ok(self.tail(line, phys % CACHE_LINE_BYTES, socket, row))
    }

    /// Decodes the `n` lines `phys + i·64`, `i < n`, in order, handing each
    /// to `f`: exactly what `n` [`Self::decode_with_bank`] calls return, hit
    /// and miss counts included, with one cache lookup per row-group
    /// stripe. Later lines of a stripe are the hits they would have been:
    /// the first one's lookup left its slot live.
    ///
    /// # Errors
    ///
    /// Fails on the first line beyond the machine's capacity, after `f`
    /// has seen the lines before it.
    pub fn decode_lines(
        &mut self,
        phys: u64,
        n: usize,
        mut f: impl FnMut(MediaAddress, BankId),
    ) -> Result<(), AddrError> {
        let end = phys.saturating_add(n as u64 * CACHE_LINE_BYTES);
        let mut line = phys;
        while line < end {
            let (socket, row) = self.lookup(line)?;
            let line_off = line % self.row_group_bytes;
            let stripe_end = (line - line_off + self.row_group_bytes).min(end);
            let lines = (stripe_end - line).div_ceil(CACHE_LINE_BYTES);
            self.hits += lines - 1;
            let first = line_off / CACHE_LINE_BYTES;
            for l in first..first + lines {
                let (media, bank) = self.tail(l, phys % CACHE_LINE_BYTES, socket, row);
                f(media, bank);
            }
            line += lines * CACHE_LINE_BYTES;
        }
        Ok(())
    }

    /// The cached half of a decode: range check, then the stripe's
    /// `(socket, row)` from its slot, counting the hit or the miss (and
    /// filling the slot on a miss).
    #[inline]
    fn lookup(&mut self, phys: u64) -> Result<(u16, u32), AddrError> {
        if phys >= self.capacity {
            return Err(AddrError::PhysOutOfRange {
                phys,
                capacity: self.capacity,
            });
        }
        let stripe = phys / self.row_group_bytes;
        let slot_idx = (stripe & self.mask) as usize;
        let row = if self.tags[slot_idx] == stripe {
            self.hits += 1;
            self.rows[slot_idx]
        } else {
            self.misses += 1;
            if self.tags[slot_idx] != EMPTY {
                self.aliases += 1;
            }
            // `row_group_of` runs the same row derivation `decode` does.
            let (_, row) = self.inner.row_group_of(phys)?;
            self.tags[slot_idx] = stripe;
            self.rows[slot_idx] = row;
            row
        };
        Ok(((phys / self.socket_bytes) as u16, row))
    }

    /// The rest of a decode, identical to the uncached one's: bank slot
    /// and column line from `line`, the line's index in its row-group
    /// stripe, then the bank-hash permutation and the coordinate table, for
    /// a stripe at `(socket, row)`; `byte` is the offset in the line.
    #[inline]
    fn tail(&self, line: u64, byte: u64, socket: u16, row: u32) -> (MediaAddress, BankId) {
        let (bank_slot, col_line) = self.split_line(line);
        let flat = self.flat_bank(bank_slot, row);
        let mut media = self.bank_media[flat as usize];
        media.socket = socket;
        media.row = row;
        media.col = (col_line * CACHE_LINE_BYTES + byte) as u32;
        let bank = BankId(u32::from(socket) * self.banks_per_socket as u32 + flat);
        (media, bank)
    }
}

/// A streaming decoder for trace compilation: a [`DecodeTlb`] plus a
/// one-entry stripe shortcut exploiting the run structure of real traces.
///
/// Consecutive ops of a trace very often land in the same row-group stripe
/// (sequential line streams, value reads following a bucket probe). Within
/// one stripe the expensive part of the decode — stripe index, media row,
/// socket — is constant, and the wrapped TLB's slot for that stripe is
/// *guaranteed* live (this decoder owns the TLB, and the previous decode
/// installed it), so the shortcut counts a hit exactly where
/// [`DecodeTlb::decode_with_bank`] would and computes only the line tail:
/// no division at all on the fast path.
///
/// The crate's tests pin `decode_with_bank` bit-identical (result *and*
/// counters) to a plain [`DecodeTlb`] fed the same stream.
#[derive(Debug, Clone)]
pub struct StreamDecoder {
    tlb: DecodeTlb,
    /// First byte of the current stripe.
    stripe_base: u64,
    /// Bytes of the current stripe: 0 before any decode, so no address is
    /// within it, and the TLB's stripe size after.
    stripe_len: u64,
    /// Cached `(row, socket)` of the current stripe.
    row: u32,
    socket: u16,
}

impl StreamDecoder {
    /// Wraps `decoder` with a fresh default-capacity TLB.
    #[must_use]
    pub fn new(decoder: SystemAddressDecoder) -> Self {
        Self {
            tlb: DecodeTlb::new(decoder),
            stripe_base: 0,
            stripe_len: 0,
            row: 0,
            socket: 0,
        }
    }

    /// `(hits, misses, aliases)` counted so far — fast-path decodes are
    /// credited as the TLB hits they would have been.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.tlb.hits, self.tlb.misses, self.tlb.aliases)
    }

    /// Memoized decode; exact for all addresses, identical in result and
    /// counter accounting to [`DecodeTlb::decode_with_bank`].
    ///
    /// # Errors
    ///
    /// Fails for addresses beyond the machine's capacity, like the inner
    /// decoder (rejections touch no counters).
    #[inline]
    pub fn decode_with_bank(&mut self, phys: u64) -> Result<(MediaAddress, BankId), AddrError> {
        // Same stripe as the previous decode? Stripes are aligned, so a
        // subtraction replaces the division; the in-range check is implied
        // (the previous decode validated this stripe).
        let line_off = phys.wrapping_sub(self.stripe_base);
        if line_off < self.stripe_len {
            // The TLB slot for this stripe is live, so it would have hit.
            self.tlb.hits += 1;
            let line = line_off / CACHE_LINE_BYTES;
            let tail = self
                .tlb
                .tail(line, phys % CACHE_LINE_BYTES, self.socket, self.row);
            return Ok(tail);
        }
        let (media, bank) = self.tlb.decode_with_bank(phys)?;
        self.stripe_base = phys - phys % self.tlb.row_group_bytes;
        self.stripe_len = self.tlb.row_group_bytes;
        self.row = media.row;
        self.socket = media.socket;
        Ok((media, bank))
    }
}

/// How one physical range decodes as another: the row shift and the
/// default-size TLB slot shift between corresponding bytes, as
/// [`SystemAddressDecoder::row_translate`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTranslate {
    /// Each byte of the second range decodes as the matching byte of the
    /// first, with the row plus this.
    pub rows: i64,
    /// The stripe shift modulo [`DecodeTlb::DEFAULT_SLOTS`]: how far the
    /// second range's stripes sit from the first's in a default-size TLB.
    pub slots: u64,
}

impl SystemAddressDecoder {
    /// The translate carrying `[from, from + len)` onto `[to, to + len)`,
    /// or `None` when the two ranges do not decode alike bar the row.
    ///
    /// `Some` needs `to − from` to be a whole number of row-group stripes
    /// (so a byte keeps its line, column and bank slot), every stripe of the
    /// pair on one socket, one row shift across all of them, and that shift
    /// a multiple of the bank-hash row period (so the hash picks the same
    /// bank). A set of range pairs that all return one equal `RowTranslate`
    /// is exact for a [`StreamDecoder`]: the stripe map `(socket, row) →
    /// (socket, row + rows)` is injective and moves every TLB slot by the
    /// same `slots`, so a stream over the second ranges sees the hit, miss
    /// and alias sequence of the matching stream over the first, and equal
    /// decodes but for the row.
    #[must_use]
    pub fn row_translate(&self, from: u64, to: u64, len: u64) -> Option<RowTranslate> {
        let stripe = self.geometry().row_group_bytes();
        let shift = i64::try_from(to).ok()? - i64::try_from(from).ok()?;
        if len == 0 || shift % stripe as i64 != 0 {
            return None;
        }
        let stripes = shift / stripe as i64;
        let first = from / stripe;
        let last = from.checked_add(len - 1)? / stripe;
        let mut rows = None;
        for s in first..=last {
            let (socket, row) = self.row_group_of(s * stripe).ok()?;
            let moved = u64::try_from(s as i64 + stripes).ok()?;
            let (moved_socket, moved_row) = self.row_group_of(moved * stripe).ok()?;
            let delta = i64::from(moved_row) - i64::from(row);
            if moved_socket != socket || *rows.get_or_insert(delta) != delta {
                return None;
            }
        }
        let rows = rows?;
        let period = (u64::from(self.hash_row_mask) + 1).next_power_of_two() as i64;
        (rows % period == 0).then(|| RowTranslate {
            rows,
            slots: stripes.rem_euclid(DecodeTlb::DEFAULT_SLOTS as i64) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake::{mini_decoder, skylake_decoder};

    #[test]
    fn cached_decode_matches_uncached_on_dense_scan() {
        let mut tlb = DecodeTlb::with_slots(mini_decoder(), 64);
        let dec = mini_decoder();
        // Dense scan plus large strides to force evictions and re-fills.
        for phys in (0..(4u64 << 20)).step_by(4096) {
            assert_eq!(tlb.decode(phys).unwrap(), dec.decode(phys).unwrap());
        }
        for phys in (0..dec.capacity()).step_by((97 << 20) + 64) {
            assert_eq!(tlb.decode(phys).unwrap(), dec.decode(phys).unwrap());
        }
        assert!(tlb.hits() > 0, "dense scan must hit");
        assert!(tlb.misses() > 0);
        assert!(tlb.aliases() > 0, "large strides must evict live slots");
        assert!(tlb.aliases() < tlb.misses(), "cold fills are not aliases");
    }

    #[test]
    fn decode_with_bank_matches_global_bank() {
        let mut tlb = DecodeTlb::new(skylake_decoder());
        let dec = skylake_decoder();
        for phys in (0..dec.capacity()).step_by((1 << 30) + 4096 + 64) {
            let (media, bank) = tlb.decode_with_bank(phys).unwrap();
            let expect = dec.decode(phys).unwrap();
            assert_eq!(media, expect);
            assert_eq!(bank, expect.global_bank(dec.geometry()));
        }
    }

    #[test]
    fn out_of_range_is_rejected_like_inner() {
        let mut tlb = DecodeTlb::new(mini_decoder());
        let cap = tlb.inner().capacity();
        assert!(matches!(
            tlb.decode(cap),
            Err(AddrError::PhysOutOfRange { .. })
        ));
        assert!(tlb.decode(cap - 64).is_ok());
    }

    #[test]
    fn flush_empties_but_keeps_correctness() {
        let mut tlb = DecodeTlb::new(mini_decoder());
        let a = tlb.decode(1 << 20).unwrap();
        tlb.flush();
        assert_eq!(tlb.decode(1 << 20).unwrap(), a);
        assert!(tlb.misses() >= 2, "flush forces a refill");
    }

    #[test]
    fn capacity_boundary_is_exact() {
        // Every address in the last cache line decodes; the first address
        // past capacity does not — and the error carries both values.
        let mut tlb = DecodeTlb::new(mini_decoder());
        let cap = tlb.inner().capacity();
        let dec = mini_decoder();
        for phys in [cap - 64, cap - 2, cap - 1] {
            assert_eq!(tlb.decode(phys).unwrap(), dec.decode(phys).unwrap());
        }
        for phys in [cap, cap + 1, u64::MAX] {
            match tlb.decode(phys) {
                Err(AddrError::PhysOutOfRange { phys: p, capacity }) => {
                    assert_eq!(p, phys);
                    assert_eq!(capacity, cap);
                }
                other => panic!("expected out-of-range for {phys:#x}, got {other:?}"),
            }
        }
        // Rejections never touch the cache counters' hit/miss split.
        let (h, m) = (tlb.hits(), tlb.misses());
        let _ = tlb.decode(cap);
        assert_eq!((tlb.hits(), tlb.misses()), (h, m));
    }

    #[test]
    fn stripe_crossing_addresses_split_correctly() {
        // Adjacent bytes on either side of a row-group stripe boundary hit
        // different cache slots but must both match the uncached decode —
        // the memoized row changes exactly at the boundary.
        let mut tlb = DecodeTlb::new(mini_decoder());
        let dec = mini_decoder();
        let stripe = dec.geometry().row_group_bytes();
        for boundary in (1..8).map(|k| k * stripe) {
            let before = tlb.decode(boundary - 1).unwrap();
            let after = tlb.decode(boundary).unwrap();
            assert_eq!(before, dec.decode(boundary - 1).unwrap());
            assert_eq!(after, dec.decode(boundary).unwrap());
            assert_ne!(
                (before.socket, before.row),
                (after.socket, after.row),
                "stripe boundary at {boundary:#x} must change the media row"
            );
        }
        // A socket boundary is also a stripe boundary on multi-socket
        // geometries; cover it with the skylake preset.
        let mut tlb = DecodeTlb::new(skylake_decoder());
        let dec = skylake_decoder();
        let socket_bytes = dec.socket_bytes();
        let (a, b) = (socket_bytes - 64, socket_bytes);
        assert_eq!(tlb.decode(a).unwrap(), dec.decode(a).unwrap());
        assert_eq!(tlb.decode(b).unwrap(), dec.decode(b).unwrap());
        assert_eq!(
            tlb.decode(a).unwrap().socket + 1,
            tlb.decode(b).unwrap().socket
        );
    }

    #[test]
    fn single_slot_tlb_aliases_every_new_stripe_but_stays_exact() {
        // The degenerate 1-slot cache makes every distinct stripe a
        // conflict eviction; correctness must not depend on capacity.
        let mut tlb = DecodeTlb::with_slots(mini_decoder(), 1);
        let dec = mini_decoder();
        let stripe = dec.geometry().row_group_bytes();
        for k in 0..16 {
            let phys = k * stripe + 128;
            assert_eq!(tlb.decode(phys).unwrap(), dec.decode(phys).unwrap());
        }
        assert_eq!(tlb.misses(), 16);
        assert_eq!(tlb.aliases(), 15, "all but the cold fill are evictions");
        // Ping-pong between two stripes: every access misses.
        for _ in 0..4 {
            let _ = tlb.decode(0);
            let _ = tlb.decode(stripe);
        }
        assert_eq!(tlb.hits(), 0);
    }

    #[test]
    fn flush_is_the_invalidation_point_for_repair_changes() {
        // Row repairs ([`crate::RepairMap`]) remap *internal* row addresses
        // inside the DIMM; the system-level decode this TLB memoizes is
        // deliberately upstream of them, so its output must be identical
        // under any repair map — callers that swap repairs only need
        // `flush()` to drop stale working-set state, never a rebuild.
        let dec = mini_decoder();
        let mut tlb = DecodeTlb::new(dec.clone());
        let probe: Vec<u64> = (0..dec.capacity()).step_by((3 << 20) + 64).collect();
        let before: Vec<_> = probe.iter().map(|&p| tlb.decode(p).unwrap()).collect();
        let mut repairs = crate::RepairMap::new();
        repairs.insert(BankId(0), 7, 9);
        assert_eq!(repairs.resolve(BankId(0), 7), 9);
        tlb.flush();
        let after: Vec<_> = probe.iter().map(|&p| tlb.decode(p).unwrap()).collect();
        assert_eq!(before, after, "decode is independent of repair state");
        assert!(tlb.misses() >= 2 * probe.len() as u64 - tlb.aliases());
    }

    #[test]
    fn stream_decoder_matches_tlb_exactly_with_counters() {
        // The stream decoder's same-stripe shortcut must be invisible:
        // identical results *and* identical hit/miss/alias accounting to a
        // plain TLB fed the same address sequence. Exercise dense runs
        // (fast path), stripe boundaries, returns to a prior stripe after
        // visiting another (slot still live ⇒ still a hit), and a
        // pseudo-random mix.
        for dec in [mini_decoder(), skylake_decoder()] {
            let mut stream = StreamDecoder::new(dec.clone());
            let mut tlb = DecodeTlb::new(dec.clone());
            let stripe = dec.geometry().row_group_bytes();
            // The first decode lies in stripe 0, at a line's last byte.
            let mut seq = vec![63];
            // Dense run inside one stripe, crossing into the next.
            for k in 0..64u64 {
                seq.push(stripe - 32 * 64 + k * 64);
            }
            // Revisit the first stripe (alias-free return), then ping-pong.
            seq.push(100);
            seq.push(stripe + 100);
            seq.push(164);
            // Deterministic pseudo-random walk over the whole machine.
            let mut x = 0x1234_5678_9abc_def0u64;
            for _ in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                seq.push(x % dec.capacity());
            }
            for &phys in &seq {
                assert_eq!(
                    stream.decode_with_bank(phys).unwrap(),
                    tlb.decode_with_bank(phys).unwrap(),
                    "stream vs tlb decode diverged at {phys:#x}"
                );
            }
            assert_eq!(
                stream.counters(),
                (tlb.hits(), tlb.misses(), tlb.aliases()),
                "counter accounting diverged"
            );
            assert!(stream.counters().0 > 0 && stream.counters().1 > 0);
        }
    }

    #[test]
    fn stream_decoder_rejects_out_of_range_without_counting() {
        let dec = mini_decoder();
        let cap = dec.capacity();
        let mut stream = StreamDecoder::new(dec.clone());
        assert!(matches!(
            stream.decode_with_bank(cap),
            Err(AddrError::PhysOutOfRange { .. })
        ));
        assert_eq!(stream.counters(), (0, 0, 0));
        // After a valid decode, an out-of-range address in a *later* stripe
        // still fails (it can never satisfy the same-stripe shortcut, since
        // capacity is stripe-aligned and the cached stripe is in range).
        let last = cap - 64;
        let expect = dec.decode(last).unwrap();
        assert_eq!(stream.decode_with_bank(last).unwrap().0, expect);
        let counters = stream.counters();
        assert!(matches!(
            stream.decode_with_bank(cap),
            Err(AddrError::PhysOutOfRange { .. })
        ));
        assert_eq!(stream.counters(), counters);
    }

    #[test]
    fn decode_lines_matches_per_line_decodes_with_counters() {
        // Runs inside one stripe, across one and several stripe boundaries
        // (unaligned starts too), into a slot another stripe holds, and up
        // to the capacity: the same decodes and the same hit, miss and
        // alias counts as one `decode_with_bank` per line.
        for (dec, slots) in [(mini_decoder(), 4), (skylake_decoder(), 1024)] {
            let stripe = dec.geometry().row_group_bytes();
            let cap = dec.capacity();
            let runs = [
                (0, 64),
                (stripe - 4 * 64, 8),
                (3 * stripe - 64 + 5, 3),
                (stripe - 64, (2 * stripe / 64) as usize + 2),
                (4 * slots as u64 * stripe + 128, 70),
                (cap - 2 * 64, 2),
                (0, 0),
            ];
            let (mut lines, mut single) = (
                DecodeTlb::with_slots(dec.clone(), slots),
                DecodeTlb::with_slots(dec.clone(), slots),
            );
            for (phys, n) in runs {
                let mut got = Vec::new();
                lines
                    .decode_lines(phys, n, |m, b| got.push((m, b)))
                    .unwrap();
                let want: Vec<_> = (0..n as u64)
                    .map(|i| single.decode_with_bank(phys + i * 64).unwrap())
                    .collect();
                assert_eq!(got, want, "run {phys:#x} x{n}");
                let counters = |t: &DecodeTlb| (t.hits(), t.misses(), t.aliases());
                assert_eq!(counters(&lines), counters(&single), "run {phys:#x} x{n}");
            }
            assert!(lines.aliases() > 0 && lines.hits() > lines.misses());
            // A run past the capacity decodes the lines before it, then fails.
            let mut seen = 0;
            let past = lines.decode_lines(cap - 64, 2, |_, _| seen += 1);
            assert!(matches!(past, Err(AddrError::PhysOutOfRange { phys, .. }) if phys == cap));
            assert_eq!(seen, 1);
        }
    }

    #[test]
    fn repeated_rows_hit() {
        let mut tlb = DecodeTlb::new(mini_decoder());
        let _ = tlb.decode(0);
        for l in 1..64u64 {
            let _ = tlb.decode(l * 64);
        }
        assert_eq!(tlb.misses(), 1, "one stripe, one miss");
        assert_eq!(tlb.hits(), 63);
    }

    /// The mini geometry with one mapping super-region per socket: 2048
    /// stripes under one A/B alternation. On the presets a super-region
    /// (512 or 128 stripes) divides [`DecodeTlb::DEFAULT_SLOTS`], so an
    /// equal row shift alone keeps TLB aliasing; here stripes `s` and
    /// `s + 1024` share a slot but sit 4 rows apart, so it does not.
    fn one_jump_decoder() -> SystemAddressDecoder {
        let config = crate::decoder::DecoderConfig {
            row_groups_per_block: 4,
            jump_bytes: 1 << 30,
            bank_hash: crate::BankHash::XorRow,
        };
        SystemAddressDecoder::new(crate::mini_geometry(), config).unwrap()
    }

    /// Feeds `n` pseudo-random accesses over `pairs` to two stream
    /// decoders, `from + off` to the first and `to + off` to the second,
    /// asserting equal decodes but for the row, which moves by `rows`;
    /// returns both decoders' counters.
    fn replay_pairs(
        dec: &SystemAddressDecoder,
        pairs: &[(u64, u64)],
        len: u64,
        rows: i64,
        x: &mut u64,
    ) -> ((u64, u64, u64), (u64, u64, u64)) {
        let (mut a, mut b) = (
            StreamDecoder::new(dec.clone()),
            StreamDecoder::new(dec.clone()),
        );
        for _ in 0..300 {
            let (from, to) = pairs[(xorshift(x) % pairs.len() as u64) as usize];
            let off = xorshift(x) % len;
            let (ma, ba) = a.decode_with_bank(from + off).unwrap();
            let (mb, bb) = b.decode_with_bank(to + off).unwrap();
            assert_eq!(
                i64::from(mb.row),
                i64::from(ma.row) + rows,
                "{from:#x}+{off:#x}"
            );
            assert_eq!(MediaAddress { row: ma.row, ..mb }, ma, "{from:#x}+{off:#x}");
            assert_eq!(ba, bb, "{from:#x}+{off:#x}");
        }
        (a.counters(), b.counters())
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn equal_row_translates_replay_streams_exactly() {
        // Brute force: random ranges moved by random row shifts (some onto
        // the other socket, some nudged off the stripe grid, some a whole
        // TLB span from another range). Wherever every pair returns one
        // equal translate, two stream decoders fed matching addresses must
        // agree but for the row, counters included.
        for dec in [mini_decoder(), skylake_decoder(), one_jump_decoder()] {
            let stripe = dec.geometry().row_group_bytes();
            let span = DecodeTlb::DEFAULT_SLOTS as u64 * stripe;
            let cap = dec.capacity();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let (mut accepted, mut rejected) = (0, 0);
            for _ in 0..600 {
                let len = [64, stripe / 2, stripe, 2 << 20, 3 * stripe + 192]
                    [(xorshift(&mut x) % 5) as usize];
                let rows =
                    [0i64, 1, 2, 4, 8, -4, 32, 1024, -1024, 3][(xorshift(&mut x) % 10) as usize];
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                for _ in 0..1 + xorshift(&mut x) % 4 {
                    let mut from = (xorshift(&mut x) % (cap - len)) & !63;
                    if let Some(&(prev, _)) = pairs.last() {
                        if xorshift(&mut x).is_multiple_of(2) {
                            from = (prev + span) % (cap - len);
                        }
                    }
                    let (mut socket, row) = dec.row_group_of(from).unwrap();
                    if xorshift(&mut x).is_multiple_of(8) {
                        socket = (socket + 1) % dec.geometry().sockets;
                    }
                    let Ok(row) = u32::try_from(i64::from(row) + rows) else {
                        continue;
                    };
                    let Ok(moved) = dec.phys_range_of_row_group(socket, row) else {
                        continue;
                    };
                    let mut to = moved.start + from % stripe;
                    if xorshift(&mut x).is_multiple_of(8) {
                        to += 64 * (1 + xorshift(&mut x) % 4);
                    }
                    if to + len <= cap {
                        pairs.push((from, to));
                    }
                }
                let Some(&(from, to)) = pairs.first() else {
                    continue;
                };
                let first = dec.row_translate(from, to, len);
                match first {
                    Some(t)
                        if pairs
                            .iter()
                            .all(|&(f, t2)| dec.row_translate(f, t2, len) == first) =>
                    {
                        accepted += 1;
                        let (a, b) = replay_pairs(&dec, &pairs, len, t.rows, &mut x);
                        assert_eq!(a, b, "counters diverged under {t:?} for {pairs:x?}");
                    }
                    _ => rejected += 1,
                }
            }
            assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
        }
    }

    #[test]
    fn a_translate_needs_the_bank_hash_period_and_one_slot_shift() {
        let dec = skylake_decoder();
        let stripe = dec.geometry().row_group_bytes();
        // One stripe down a block is one row: the XOR hash then moves
        // every line to another bank, so no translate.
        assert_eq!(dec.row_translate(0, stripe, stripe), None);
        let t = dec.row_translate(0, 4 * stripe, stripe).unwrap();
        assert_eq!((t.rows, t.slots), (4, 4));
        // Siloz's shift by one 1,024-row subarray group: 1.5 GiB.
        let t = dec.row_translate(0, 1024 * stripe, 128 << 21).unwrap();
        assert_eq!((t.rows, t.slots), (1024, 0));
        assert_eq!(dec.row_translate(0, 1024 * stripe + 64, 64), None);
        assert_eq!(dec.row_translate(0, 0, 0), None);
        // The other socket's row 0 is no translate of this one's.
        assert_eq!(dec.row_translate(0, dec.socket_bytes(), stripe), None);

        // Four rows up: A's block at stripe 0 lands a TLB span on, in B;
        // B's block at stripe 1024 lands at stripe 4. One row shift, two
        // slot shifts — and a stream over both sees different aliasing.
        let dec = one_jump_decoder();
        let (span, block) = (1024 * (512 << 10), 2u64 << 20);
        let low = dec.row_translate(0, span, block).unwrap();
        let high = dec.row_translate(span, block, block).unwrap();
        assert_eq!((low.rows, high.rows), (4, 4));
        assert_ne!(low.slots, high.slots);
        let mut x = 7;
        let (a, b) = replay_pairs(&dec, &[(0, span), (span, block)], block, 4, &mut x);
        assert_ne!(a, b, "the slot shift is what keeps the counters equal");
    }
}
