//! The system address decoder: host physical address ⇄ media address.
//!
//! Reproduces the structure of Intel Skylake server physical-to-media
//! mappings as characterized in §4.2 of the paper:
//!
//! - **Bank interleave.** Sequential cache lines round-robin across every
//!   bank of a socket (optionally XOR-hashed), so any sequential access
//!   pattern enjoys full bank-level parallelism.
//! - **Row groups.** One same-indexed row from every bank of a socket forms
//!   a *row group* (1.5 MiB on the evaluation server); a filled row group is
//!   followed by the next row group.
//! - **A/B range alternation.** Every `n = 16` row groups (one *block*,
//!   24 MiB) are populated in alternating ascending fashion by two
//!   individually-contiguous physical ranges A and B.
//! - **768 MiB jumps.** The A/B pattern restarts with fresh ranges at each
//!   768 MiB-aligned *super-region*.
//!
//! The mapping is a bijection over each socket's address space; this module's
//! tests and the crate's property tests verify `encode(decode(p)) == p` and
//! the §4.2 page-alignment consequences (2 MiB pages never straddle a block
//! pair in different subarray groups; 3 GiB sets capture 1 GiB pages).

use crate::{BankHash, BankId, Geometry, MediaAddress, CACHE_LINE_BYTES, MAPPING_JUMP_BYTES};
use core::fmt;
use std::sync::Arc;

/// Errors produced by address translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrError {
    /// The physical address lies beyond the installed DRAM.
    PhysOutOfRange {
        /// Offending physical address.
        phys: u64,
        /// Installed capacity in bytes.
        capacity: u64,
    },
    /// A media address component exceeds the geometry.
    MediaOutOfRange {
        /// Human-readable description of the offending component.
        what: &'static str,
    },
    /// The decoder configuration is inconsistent with the geometry.
    BadConfig(String),
}

impl fmt::Display for AddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrError::PhysOutOfRange { phys, capacity } => {
                write!(
                    f,
                    "physical address {phys:#x} beyond capacity {capacity:#x}"
                )
            }
            AddrError::MediaOutOfRange { what } => write!(f, "media address out of range: {what}"),
            AddrError::BadConfig(msg) => write!(f, "bad decoder config: {msg}"),
        }
    }
}

impl std::error::Error for AddrError {}

/// Tunables of the physical-to-media mapping, fixed at boot via BIOS
/// settings on real servers (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Row groups per block (`n` in §4.2); 16 on the evaluation server.
    pub row_groups_per_block: u32,
    /// Size of a mapping super-region; 768 MiB on the evaluation server.
    pub jump_bytes: u64,
    /// Bank hashing policy layered over round-robin interleave.
    pub bank_hash: BankHash,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            row_groups_per_block: 16,
            jump_bytes: MAPPING_JUMP_BYTES,
            bank_hash: BankHash::XorRow,
        }
    }
}

/// Translates host physical addresses to media addresses and back.
///
/// # Examples
///
/// ```
/// use dram_addr::{skylake_decoder, MediaAddress};
///
/// let dec = skylake_decoder();
/// let media = dec.decode(0x4000_0000).unwrap();
/// assert_eq!(dec.encode(&media).unwrap(), 0x4000_0000);
/// ```
#[derive(Debug, Clone)]
pub struct SystemAddressDecoder {
    geometry: Geometry,
    config: DecoderConfig,
    // Derived constants, cached for the hot decode path.
    row_group_bytes: u64,
    block_bytes: u64,
    half_bytes: u64,
    row_groups_per_super: u64,
    banks_per_socket: u64,
    socket_bytes: u64,
    /// Structured bank coordinates by flat bank index within a socket
    /// (socket/row/col zeroed): `BankId::to_media`'s division chain,
    /// tabulated once. Shared, not rebuilt, by every [`crate::DecodeTlb`]
    /// over a clone of this decoder.
    pub(crate) bank_media: Arc<[MediaAddress]>,
    /// The bank-hash permutation, fully tabulated:
    /// `hash_table[(row & hash_row_mask) * banks_per_socket + slot]` is the
    /// flat bank index. [`BankHash::None`] tabulates as one identity row
    /// with a zero mask, so a table lookup has no policy branch.
    pub(crate) hash_row_mask: u32,
    pub(crate) hash_table: Arc<[u32]>,
}

impl SystemAddressDecoder {
    /// Builds a decoder for `geometry` under `config`.
    ///
    /// Fails if the super-region size does not evenly tile the socket and the
    /// A/B alternation (i.e. `jump_bytes` must be a multiple of two blocks,
    /// and the socket capacity a multiple of `jump_bytes`).
    pub fn new(geometry: Geometry, config: DecoderConfig) -> Result<Self, AddrError> {
        geometry.validate().map_err(AddrError::BadConfig)?;
        let row_group_bytes = geometry.row_group_bytes();
        let block_bytes = config.row_groups_per_block as u64 * row_group_bytes;
        if config.row_groups_per_block == 0 {
            return Err(AddrError::BadConfig(
                "row_groups_per_block must be > 0".into(),
            ));
        }
        if !config.jump_bytes.is_multiple_of(2 * block_bytes) {
            return Err(AddrError::BadConfig(format!(
                "jump {} is not a multiple of two {}-byte blocks",
                config.jump_bytes, block_bytes
            )));
        }
        let socket_bytes = geometry.socket_bytes();
        if !socket_bytes.is_multiple_of(config.jump_bytes) {
            return Err(AddrError::BadConfig(format!(
                "socket capacity {} is not a multiple of the {} jump",
                socket_bytes, config.jump_bytes
            )));
        }
        let banks = geometry.banks_per_socket();
        let bank_media = (0..banks)
            .map(|flat| BankId(flat).to_media(&geometry))
            .collect();
        let hash_row_mask = match config.bank_hash {
            BankHash::None => 0,
            BankHash::XorRow => u32::from(geometry.bank_groups) - 1,
        };
        let hash_table = (0..=hash_row_mask)
            .flat_map(|row| (0..u64::from(banks)).map(move |slot| (slot, row)))
            .map(|(slot, row)| config.bank_hash.bank_of_line(slot, row, &geometry))
            .collect();
        Ok(Self {
            row_group_bytes,
            block_bytes,
            half_bytes: config.jump_bytes / 2,
            row_groups_per_super: config.jump_bytes / row_group_bytes,
            banks_per_socket: u64::from(banks),
            socket_bytes,
            bank_media,
            hash_row_mask,
            hash_table,
            geometry,
            config,
        })
    }

    /// The geometry this decoder was built for.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The decoder configuration.
    #[must_use]
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Bytes covered by one block (`n` row groups); 24 MiB on the evaluation
    /// server.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Total installed DRAM in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.geometry.total_bytes()
    }

    /// Translates a host physical address to its media address.
    pub fn decode(&self, phys: u64) -> Result<MediaAddress, AddrError> {
        if phys >= self.capacity() {
            return Err(AddrError::PhysOutOfRange {
                phys,
                capacity: self.capacity(),
            });
        }
        let socket = phys / self.socket_bytes;
        let local = phys % self.socket_bytes;
        let (row, line_slot, col_line) = self.local_to_row_line(local);
        let flat_bank = self
            .config
            .bank_hash
            .bank_of_line(line_slot, row, &self.geometry);
        let mut media = BankId(flat_bank).to_media(&self.geometry);
        media.socket = socket as u16;
        media.row = row;
        media.col = (col_line * CACHE_LINE_BYTES + phys % CACHE_LINE_BYTES) as u32;
        Ok(media)
    }

    /// Translates a media address back to the host physical address.
    pub fn encode(&self, media: &MediaAddress) -> Result<u64, AddrError> {
        let g = &self.geometry;
        if media.socket >= g.sockets {
            return Err(AddrError::MediaOutOfRange { what: "socket" });
        }
        if media.channel >= g.channels_per_socket {
            return Err(AddrError::MediaOutOfRange { what: "channel" });
        }
        if media.dimm >= g.dimms_per_channel {
            return Err(AddrError::MediaOutOfRange { what: "dimm" });
        }
        if media.rank >= g.ranks_per_dimm {
            return Err(AddrError::MediaOutOfRange { what: "rank" });
        }
        if media.bank_group >= g.bank_groups {
            return Err(AddrError::MediaOutOfRange { what: "bank_group" });
        }
        if media.bank >= g.banks_per_group {
            return Err(AddrError::MediaOutOfRange { what: "bank" });
        }
        if media.row >= g.rows_per_bank {
            return Err(AddrError::MediaOutOfRange { what: "row" });
        }
        if media.col as u64 >= g.row_bytes {
            return Err(AddrError::MediaOutOfRange { what: "col" });
        }
        let flat_bank = media.flat_bank_in_socket(g);
        let slot = self
            .config
            .bank_hash
            .line_slot_of_bank(flat_bank, media.row, g) as u64;
        let col_line = media.col as u64 / CACHE_LINE_BYTES;
        let line = col_line * self.banks_per_socket + slot;
        let local = self.row_line_to_local(media.row, line);
        Ok(media.socket as u64 * self.socket_bytes + local + media.col as u64 % CACHE_LINE_BYTES)
    }

    /// Maps a socket-local byte offset to `(row, line_slot, col_line)` where
    /// `line_slot` selects the bank within the row group and `col_line` the
    /// cache-line column within that bank's row.
    fn local_to_row_line(&self, local: u64) -> (u32, u64, u64) {
        let super_idx = local / self.config.jump_bytes;
        let off = local % self.config.jump_bytes;
        // Which of the two contiguous physical ranges (A = 0, B = 1) this
        // offset belongs to, and the offset within that range.
        let range = off / self.half_bytes;
        let roff = off % self.half_bytes;
        let chunk = roff / self.block_bytes;
        let coff = roff % self.block_bytes;
        // A's chunk `j` fills even block `2j`; B's fills odd block `2j + 1`.
        let block = 2 * chunk + range;
        let rg_in_super =
            block * self.config.row_groups_per_block as u64 + coff / self.row_group_bytes;
        let row = super_idx * self.row_groups_per_super + rg_in_super;
        let line_off = coff % self.row_group_bytes;
        let line = line_off / CACHE_LINE_BYTES;
        let slot = line % self.banks_per_socket;
        let col_line = line / self.banks_per_socket;
        (row as u32, slot, col_line)
    }

    /// Inverse of [`Self::local_to_row_line`]: maps `(row, line)` (line being
    /// `col_line * banks + slot`) to a socket-local byte offset.
    fn row_line_to_local(&self, row: u32, line: u64) -> u64 {
        let row = row as u64;
        let super_idx = row / self.row_groups_per_super;
        let rg_in_super = row % self.row_groups_per_super;
        let block = rg_in_super / self.config.row_groups_per_block as u64;
        let rg_in_block = rg_in_super % self.config.row_groups_per_block as u64;
        let range = block % 2;
        let chunk = block / 2;
        let coff = rg_in_block * self.row_group_bytes + line * CACHE_LINE_BYTES;
        let roff = chunk * self.block_bytes + coff;
        let off = range * self.half_bytes + roff;
        super_idx * self.config.jump_bytes + off
    }

    /// The socket and row-group index a physical address maps to.
    ///
    /// Every byte of a physical address maps to exactly one row group (one
    /// row index shared by all banks of the socket); this is the basis of
    /// Siloz's subarray-group computation.
    pub fn row_group_of(&self, phys: u64) -> Result<(u16, u32), AddrError> {
        if phys >= self.capacity() {
            return Err(AddrError::PhysOutOfRange {
                phys,
                capacity: self.capacity(),
            });
        }
        let socket = (phys / self.socket_bytes) as u16;
        let (row, _, _) = self.local_to_row_line(phys % self.socket_bytes);
        Ok((socket, row))
    }

    /// The set of row-group indices a physical range `[phys, phys + len)`
    /// touches, as an ascending, deduplicated list, along with the socket.
    ///
    /// Returns an error if the range is empty, exceeds capacity, or spans a
    /// socket boundary (callers partition per-socket first).
    pub fn row_groups_of_range(&self, phys: u64, len: u64) -> Result<(u16, Vec<u32>), AddrError> {
        if len == 0 {
            return Err(AddrError::BadConfig("empty range".into()));
        }
        let end = phys
            .checked_add(len)
            .ok_or(AddrError::BadConfig("range overflow".into()))?;
        if end > self.capacity() {
            return Err(AddrError::PhysOutOfRange {
                phys: end - 1,
                capacity: self.capacity(),
            });
        }
        let socket = (phys / self.socket_bytes) as u16;
        if (end - 1) / self.socket_bytes != socket as u64 {
            return Err(AddrError::BadConfig("range spans a socket boundary".into()));
        }
        let mut rows = Vec::new();
        // The mapping is row-group-contiguous within each row-group-sized
        // stripe, so stepping by row_group_bytes (plus the final byte) covers
        // every touched row group.
        let mut p = phys;
        while p < end {
            let (_, row) = self.row_group_of(p)?;
            rows.push(row);
            p = p.saturating_add(self.row_group_bytes - p % self.row_group_bytes);
        }
        let (_, last) = self.row_group_of(end - 1)?;
        rows.push(last);
        rows.sort_unstable();
        rows.dedup();
        Ok((socket, rows))
    }

    /// The contiguous physical byte range occupied by one row group.
    ///
    /// Within the mapping's structure, each row group (one row across all of
    /// a socket's banks) is populated by one contiguous physical stripe of
    /// [`Geometry::row_group_bytes`] bytes; this returns that stripe.
    pub fn phys_range_of_row_group(
        &self,
        socket: u16,
        row: u32,
    ) -> Result<std::ops::Range<u64>, AddrError> {
        if socket >= self.geometry.sockets {
            return Err(AddrError::MediaOutOfRange { what: "socket" });
        }
        if row >= self.geometry.rows_per_bank {
            return Err(AddrError::MediaOutOfRange { what: "row" });
        }
        let start = socket as u64 * self.socket_bytes + self.row_line_to_local(row, 0);
        Ok(start..start + self.row_group_bytes)
    }

    /// The physical address at which a given socket's address space begins.
    #[must_use]
    pub fn socket_base(&self, socket: u16) -> u64 {
        socket as u64 * self.socket_bytes
    }

    /// Bytes of DRAM attached to each socket.
    #[must_use]
    pub fn socket_bytes(&self) -> u64 {
        self.socket_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake::{skylake_decoder, skylake_geometry};
    use crate::{PAGE_2M, PAGE_4K};

    #[test]
    fn decode_encode_roundtrip_spot_addresses() {
        let dec = skylake_decoder();
        for &phys in &[
            0u64,
            63,
            64,
            4095,
            4096,
            (1 << 20) + 7,
            (24 << 20) - 1,
            24 << 20,
            (384 << 20) - 1,
            384 << 20, // first byte of range B
            (768 << 20) - 1,
            768 << 20, // first super-region jump
            (192u64 << 30) - 1,
            192u64 << 30, // first byte of socket 1
            (384u64 << 30) - 1,
        ] {
            let media = dec.decode(phys).unwrap();
            assert_eq!(dec.encode(&media).unwrap(), phys, "roundtrip @ {phys:#x}");
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let dec = skylake_decoder();
        let cap = dec.capacity();
        assert!(matches!(
            dec.decode(cap),
            Err(AddrError::PhysOutOfRange { .. })
        ));
        assert!(dec.decode(cap - 1).is_ok());
    }

    #[test]
    fn encode_rejects_bad_media_components() {
        let dec = skylake_decoder();
        let mut media = dec.decode(0).unwrap();
        media.row = dec.geometry().rows_per_bank;
        assert!(matches!(
            dec.encode(&media),
            Err(AddrError::MediaOutOfRange { what: "row" })
        ));
        let mut media = dec.decode(0).unwrap();
        media.col = dec.geometry().row_bytes as u32;
        assert!(dec.encode(&media).is_err());
    }

    #[test]
    fn sequential_lines_alternate_channels_and_banks() {
        // §2.4: commodity mappings interleave sequential cache lines across a
        // socket's banks for bank-level parallelism.
        let dec = skylake_decoder();
        let g = dec.geometry();
        let banks = g.banks_per_socket() as u64;
        let mut seen = std::collections::HashSet::new();
        for l in 0..banks {
            let media = dec.decode(l * 64).unwrap();
            assert_eq!(media.channel as u64, l % g.channels_per_socket as u64);
            seen.insert(media.global_bank(g));
        }
        assert_eq!(
            seen.len() as u64,
            banks,
            "first {banks} lines touch every bank once"
        );
    }

    #[test]
    fn ascending_pages_fill_ascending_row_groups_within_a_block() {
        // Fig. 2 / §4.2: ascending physical pages map to ascending row
        // groups. Within one 24 MiB block each 1.5 MiB stripe is one row
        // group.
        let dec = skylake_decoder();
        let rg = dec.geometry().row_group_bytes();
        for i in 0..16u64 {
            let (_, row) = dec.row_group_of(i * rg).unwrap();
            assert_eq!(row as u64, i);
        }
    }

    #[test]
    fn blocks_alternate_between_ranges_a_and_b() {
        // §4.2: row groups [0, n) come from range A's first chunk, [n, 2n)
        // from range B's first chunk, [2n, 3n) from A's second chunk, ...
        let dec = skylake_decoder();
        let block = dec.block_bytes(); // 24 MiB
        let half = 384u64 << 20;
        let n = 16u64;

        // A chunk 0 -> rows [0, 16).
        assert_eq!(dec.row_group_of(0).unwrap().1 as u64, 0);
        // B chunk 0 (phys 384 MiB) -> rows [16, 32).
        assert_eq!(dec.row_group_of(half).unwrap().1 as u64, n);
        // A chunk 1 (phys 24 MiB) -> rows [32, 48).
        assert_eq!(dec.row_group_of(block).unwrap().1 as u64, 2 * n);
        // B chunk 1 (phys 384 MiB + 24 MiB) -> rows [48, 64).
        assert_eq!(dec.row_group_of(half + block).unwrap().1 as u64, 3 * n);
    }

    #[test]
    fn jump_restarts_pattern_at_768_mib() {
        let dec = skylake_decoder();
        let jump = 768u64 << 20;
        let rows_per_super = jump / dec.geometry().row_group_bytes();
        assert_eq!(rows_per_super, 512);
        assert_eq!(dec.row_group_of(jump).unwrap().1 as u64, rows_per_super);
    }

    #[test]
    fn small_pages_map_to_single_subarray_group() {
        // §4.2: 2 MiB and 4 KiB pages always land in one subarray group.
        let dec = skylake_decoder();
        let g = dec.geometry();
        let mut checked = 0u32;
        for base in (0..(3u64 << 30)).step_by((PAGE_2M * 7) as usize) {
            let page = base & !(PAGE_2M - 1);
            let (_, rows) = dec.row_groups_of_range(page, PAGE_2M).unwrap();
            let groups: std::collections::HashSet<u32> =
                rows.iter().map(|&r| g.subarray_of_row(r)).collect();
            assert_eq!(
                groups.len(),
                1,
                "2 MiB page @ {page:#x} split across groups"
            );
            let (_, rows4k) = dec.row_groups_of_range(page, PAGE_4K).unwrap();
            assert_eq!(rows4k.len(), 1, "a 4 KiB page fits one row group");
            checked += 1;
        }
        assert!(checked > 100);
    }

    #[test]
    fn one_gib_pages_fit_three_gib_sets() {
        // §4.2: sets of consecutive subarray groups totaling 3 GiB capture
        // 1 GiB physical ranges.
        let dec = skylake_decoder();
        let g = dec.geometry();
        let set_rows = (3u64 << 30) / g.row_group_bytes(); // 2048 rows per 3 GiB set
        for i in 0..12u64 {
            let page = i << 30;
            let (_, rows) = dec.row_groups_of_range(page, 1 << 30).unwrap();
            let sets: std::collections::HashSet<u64> =
                rows.iter().map(|&r| r as u64 / set_rows).collect();
            assert_eq!(sets.len(), 1, "1 GiB page {i} spans multiple 3 GiB sets");
        }
    }

    #[test]
    fn row_groups_of_range_rejects_cross_socket_and_empty() {
        let dec = skylake_decoder();
        let sb = dec.socket_bytes();
        assert!(dec.row_groups_of_range(sb - 4096, 8192).is_err());
        assert!(dec.row_groups_of_range(0, 0).is_err());
        assert!(dec.row_groups_of_range(dec.capacity() - 1, 2).is_err());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let g = skylake_geometry();
        let bad_jump = DecoderConfig {
            jump_bytes: (768 << 20) + 4096,
            ..DecoderConfig::default()
        };
        assert!(SystemAddressDecoder::new(g, bad_jump).is_err());
        let zero_block = DecoderConfig {
            row_groups_per_block: 0,
            ..DecoderConfig::default()
        };
        assert!(SystemAddressDecoder::new(g, zero_block).is_err());
    }

    #[test]
    fn phys_range_of_row_group_inverts_row_group_of() {
        let dec = skylake_decoder();
        for &row in &[0u32, 1, 15, 16, 511, 512, 1023, 1024, 131_071] {
            for socket in 0..2 {
                let range = dec.phys_range_of_row_group(socket, row).unwrap();
                assert_eq!(range.end - range.start, dec.geometry().row_group_bytes());
                for p in [range.start, range.start + 4096, range.end - 1] {
                    assert_eq!(dec.row_group_of(p).unwrap(), (socket, row));
                }
            }
        }
        assert!(dec.phys_range_of_row_group(2, 0).is_err());
        assert!(dec.phys_range_of_row_group(0, 1 << 30).is_err());
    }

    #[test]
    fn full_socket_range_covers_every_row_group_exactly() {
        // Walking a whole super-region must touch each of its 512 row groups.
        let dec = skylake_decoder();
        let (_, rows) = dec.row_groups_of_range(0, 768 << 20).unwrap();
        assert_eq!(rows.len(), 512);
        assert_eq!(rows[0], 0);
        assert_eq!(*rows.last().unwrap(), 511);
    }
}
