//! DIMM-internal row address transformations (§6, Table 1).
//!
//! The memory controller addresses DRAM with *media* row addresses, but
//! server DIMMs may transform those addresses internally:
//!
//! - **Address mirroring** (DDR4 RCD, for easier signal routing): bit pairs
//!   `<b3,b4>`, `<b5,b6>`, `<b7,b8>` are swapped on *odd ranks*.
//! - **Address inversion** (DDR4 RCD, for signal integrity): bits `[b3, b9]`
//!   are inverted on *B-side* half-rows.
//! - **Vendor scrambling**: bits `b1` and `b2` are each XOR-ed with `b3`
//!   (affects internal ordering within 8-row blocks, never their contiguity).
//!
//! What matters for Siloz is whether these transforms *mix* subarrays: for
//! power-of-2 subarray sizes in the commodity 512-2048 range they map every
//! media subarray onto exactly one internal subarray, preserving isolation;
//! for other sizes they can split a media subarray across internal subarray
//! boundaries, which Siloz handles with artificial subarray groups (§6).

use crate::RankSide;

/// Which internal transformations a DIMM applies to row media addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalMapConfig {
    /// DDR4 address mirroring on odd ranks (Table 1, red/orange columns).
    pub mirroring: bool,
    /// DDR4 address inversion on B-side half-rows (Table 1, yellow/orange).
    pub inversion: bool,
    /// Vendor-specific scrambling of `b1`/`b2` with `b3`.
    pub scrambling: bool,
}

impl Default for InternalMapConfig {
    /// The evaluation server's DIMMs: mirroring and inversion per the DDR4
    /// RCD standard, no vendor scrambling observed.
    fn default() -> Self {
        Self {
            mirroring: true,
            inversion: true,
            scrambling: false,
        }
    }
}

impl InternalMapConfig {
    /// A DIMM applying no internal transformation at all (also the DDR5
    /// behaviour, where mirroring/inversion must be undone per §8.2).
    #[must_use]
    pub const fn identity() -> Self {
        Self {
            mirroring: false,
            inversion: false,
            scrambling: false,
        }
    }

    /// A worst-case DIMM applying every known transformation.
    #[must_use]
    pub const fn all() -> Self {
        Self {
            mirroring: true,
            inversion: true,
            scrambling: true,
        }
    }
}

/// Swaps bit positions `i` and `j` of `row`.
const fn swap_bits(row: u32, i: u32, j: u32) -> u32 {
    let bi = (row >> i) & 1;
    let bj = (row >> j) & 1;
    // XOR both positions with (bi ^ bj): a no-op when equal, a swap when not.
    let x = bi ^ bj;
    row ^ (x << i) ^ (x << j)
}

/// DDR4 address mirroring: swap `<b3,b4>`, `<b5,b6>`, `<b7,b8>` (Table 1).
///
/// Applied on odd ranks only; exposed directly for tests and analyses.
#[must_use]
pub const fn mirror(row: u32) -> u32 {
    let row = swap_bits(row, 3, 4);
    let row = swap_bits(row, 5, 6);
    swap_bits(row, 7, 8)
}

/// DDR4 address inversion: invert bits `[b3, b9]` (Table 1).
///
/// Applied on B-side half-rows only; exposed directly for tests/analyses.
#[must_use]
pub const fn invert(row: u32) -> u32 {
    row ^ 0b11_1111_1000
}

/// Vendor scrambling: `b1 ^= b3`, `b2 ^= b3` (§6).
#[must_use]
pub const fn scramble(row: u32) -> u32 {
    let b3 = (row >> 3) & 1;
    row ^ (b3 << 1) ^ (b3 << 2)
}

/// Computes the internal row address for a media row address, given the rank
/// it lives on and the half-row side being considered.
///
/// Transform order: RCD-level mirroring (odd ranks), then RCD-level inversion
/// (B side), then device-level vendor scrambling. Each stage is an involution
/// on the row-address space, so the composite is a bijection.
///
/// # Examples
///
/// ```
/// use dram_addr::{internal_row, InternalMapConfig, RankSide};
///
/// let cfg = InternalMapConfig::default();
/// // Even rank, A side: identity.
/// assert_eq!(internal_row(0b10000, 0, RankSide::A, cfg), 0b10000);
/// // Odd rank mirrors <b3,b4>: 0b10000 -> 0b01000 (the paper's example).
/// assert_eq!(internal_row(0b10000, 1, RankSide::A, cfg), 0b01000);
/// ```
#[must_use]
pub fn internal_row(row: u32, rank: u16, side: RankSide, cfg: InternalMapConfig) -> u32 {
    let mut r = row;
    if cfg.mirroring && rank % 2 == 1 {
        r = mirror(r);
    }
    if cfg.inversion && side == RankSide::B {
        r = invert(r);
    }
    if cfg.scrambling {
        r = scramble(r);
    }
    r
}

/// Inverse of [`internal_row`]: the media row whose cells live at internal
/// row `internal` on `(rank, side)` under `cfg`.
///
/// Each transformation stage is an involution, so the inverse applies the
/// stages in reverse order.
#[must_use]
pub fn media_row_from_internal(
    internal: u32,
    rank: u16,
    side: RankSide,
    cfg: InternalMapConfig,
) -> u32 {
    let mut r = internal;
    if cfg.scrambling {
        r = scramble(r);
    }
    if cfg.inversion && side == RankSide::B {
        r = invert(r);
    }
    if cfg.mirroring && rank % 2 == 1 {
        r = mirror(r);
    }
    r
}

/// Whether the internal map for `(rank, side)` under `cfg` maps every
/// `subarray_rows`-aligned media range onto exactly one internal
/// `subarray_rows`-aligned range (i.e. preserves subarray grouping, §6).
#[must_use]
pub fn preserves_subarray_grouping(
    subarray_rows: u32,
    rank: u16,
    side: RankSide,
    cfg: InternalMapConfig,
    rows_per_bank: u32,
) -> bool {
    let mut sub = 0;
    while sub * subarray_rows < rows_per_bank {
        let base = sub * subarray_rows;
        let end = (base + subarray_rows).min(rows_per_bank);
        let target = internal_row(base, rank, side, cfg) / subarray_rows;
        for row in base..end {
            if internal_row(row, rank, side, cfg) / subarray_rows != target {
                return false;
            }
        }
        sub += 1;
    }
    true
}

/// Rows at each media subarray boundary whose internal images can cross into
/// a neighboring subarray under `cfg`, for a given `(rank, side)`.
///
/// Siloz removes the pages mapping to these rows from allocatable memory when
/// a DIMM's subarray size does not neutralize the transformations (§6).
#[must_use]
pub fn isolation_violating_rows(
    subarray_rows: u32,
    rank: u16,
    side: RankSide,
    cfg: InternalMapConfig,
    rows_per_bank: u32,
) -> Vec<u32> {
    let mut out = Vec::new();
    for row in 0..rows_per_bank {
        let media_sub = row / subarray_rows;
        let base = media_sub * subarray_rows;
        let internal_base_sub = internal_row(base, rank, side, cfg) / subarray_rows;
        if internal_row(row, rank, side, cfg) / subarray_rows != internal_base_sub {
            out.push(row);
        }
    }
    out
}

/// The byte offset of a physical address within its cache line.
///
/// The one sanctioned way to split an address at line granularity outside
/// the decoder; callers must not open-code the modulus (`siloz-lint`'s
/// address-domain dataflow pass enforces this).
#[must_use]
pub const fn line_offset(phys: u64) -> u64 {
    phys % crate::CACHE_LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: u32 = 131_072;

    #[test]
    fn mirror_swaps_the_documented_pairs() {
        // Table 1: <b3,b4>, <b5,b6>, <b7,b8> swapped on odd ranks.
        assert_eq!(mirror(1 << 3), 1 << 4);
        assert_eq!(mirror(1 << 4), 1 << 3);
        assert_eq!(mirror(1 << 5), 1 << 6);
        assert_eq!(mirror(1 << 6), 1 << 5);
        assert_eq!(mirror(1 << 7), 1 << 8);
        assert_eq!(mirror(1 << 8), 1 << 7);
        // Untouched bits pass through.
        assert_eq!(mirror(0b111), 0b111);
        assert_eq!(mirror(1 << 9), 1 << 9);
        assert_eq!(mirror(1 << 16), 1 << 16);
    }

    #[test]
    fn paper_mirroring_example() {
        // §6: "0b10000 (b4 = 1, b3 = 0) becomes 0b01000".
        assert_eq!(mirror(0b10000), 0b01000);
    }

    #[test]
    fn invert_flips_b3_through_b9_only() {
        assert_eq!(invert(0), 0b11_1111_1000);
        assert_eq!(invert(0b11_1111_1000), 0);
        assert_eq!(invert(0b111), 0b11_1111_1111);
        assert_eq!(invert(1 << 10), (1 << 10) | 0b11_1111_1000);
    }

    #[test]
    fn scramble_xors_b1_b2_with_b3() {
        assert_eq!(scramble(0b1000), 0b1110);
        assert_eq!(scramble(0b1110), 0b1000);
        assert_eq!(scramble(0b0110), 0b0110); // b3 = 0: no-op
        assert_eq!(scramble(0b0001), 0b0001); // b0 untouched
    }

    #[test]
    fn each_transform_is_an_involution() {
        for row in (0..ROWS).step_by(97) {
            assert_eq!(mirror(mirror(row)), row);
            assert_eq!(invert(invert(row)), row);
            assert_eq!(scramble(scramble(row)), row);
        }
    }

    #[test]
    fn composite_map_is_a_bijection() {
        let cfg = InternalMapConfig::all();
        let mut seen = vec![false; 2048];
        for row in 0..2048u32 {
            let i = internal_row(row, 1, RankSide::B, cfg) as usize;
            assert!(i < 2048, "transforms only touch bits below b11");
            assert!(!seen[i], "collision at internal row {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn power_of_two_subarray_sizes_preserve_grouping() {
        // §6: sizes 512/1024/2048 are unaffected, for every rank/side combo.
        let cfg = InternalMapConfig::all();
        for &rows in &[512u32, 1024, 2048] {
            for rank in 0..2 {
                for side in RankSide::BOTH {
                    assert!(
                        preserves_subarray_grouping(rows, rank, side, cfg, ROWS),
                        "{rows}-row subarrays must be preserved (rank {rank}, {side:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn scrambling_preserves_any_multiple_of_8_subarray_size() {
        // §6: "for any DIMM whose subarray size is a multiple of 8 rows,
        // there is no impact" from scrambling.
        let cfg = InternalMapConfig {
            mirroring: false,
            inversion: false,
            scrambling: true,
        };
        for &rows in &[8u32, 24, 520, 768, 1000, 1024] {
            for rank in 0..2 {
                for side in RankSide::BOTH {
                    assert!(preserves_subarray_grouping(
                        rows,
                        rank,
                        side,
                        cfg,
                        131_072 / 8 * 8
                    ));
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_sizes_violate_grouping() {
        // A 768-row subarray straddles the inverted bit range, so inversion
        // splits media subarrays across internal ones.
        let cfg = InternalMapConfig::default();
        assert!(!preserves_subarray_grouping(
            768,
            0,
            RankSide::B,
            cfg,
            768 * 64
        ));
        let violations = isolation_violating_rows(768, 0, RankSide::B, cfg, 768 * 4);
        assert!(!violations.is_empty());
    }

    #[test]
    fn sub_commodity_sizes_violate_under_mirroring() {
        // §6's guarantees cover the commodity 512-2048 range. Below it
        // (e.g. 256-row subarrays), mirroring's <b7,b8> swap crosses the
        // subarray boundary and splits media subarrays across internal
        // ones — such DIMMs need artificial groups or mirroring-free parts.
        let mirror_only = InternalMapConfig {
            mirroring: true,
            inversion: false,
            scrambling: false,
        };
        assert!(!preserves_subarray_grouping(
            256,
            1,
            RankSide::A,
            mirror_only,
            2048
        ));
        assert!(!isolation_violating_rows(256, 1, RankSide::A, mirror_only, 2048).is_empty());
        // Inversion alone XORs a constant mask, which is always block-wise:
        // any power-of-two size is preserved, even sub-commodity ones.
        let invert_only = InternalMapConfig {
            mirroring: false,
            inversion: true,
            scrambling: false,
        };
        for rows in [64u32, 128, 256, 512] {
            assert!(preserves_subarray_grouping(
                rows,
                1,
                RankSide::B,
                invert_only,
                2048
            ));
        }
    }

    #[test]
    fn identity_config_never_violates() {
        let cfg = InternalMapConfig::identity();
        for &rows in &[512u32, 768, 1000, 1024] {
            assert!(preserves_subarray_grouping(
                rows,
                1,
                RankSide::B,
                cfg,
                rows * 16
            ));
        }
    }

    #[test]
    fn media_row_from_internal_inverts_internal_row() {
        for cfg in [
            InternalMapConfig::identity(),
            InternalMapConfig::default(),
            InternalMapConfig::all(),
        ] {
            for rank in 0..2 {
                for side in RankSide::BOTH {
                    for row in (0..ROWS).step_by(997) {
                        let i = internal_row(row, rank, side, cfg);
                        assert_eq!(media_row_from_internal(i, rank, side, cfg), row);
                    }
                }
            }
        }
    }

    #[test]
    fn even_rank_a_side_is_identity_under_default() {
        let cfg = InternalMapConfig::default();
        for row in (0..ROWS).step_by(101) {
            assert_eq!(internal_row(row, 0, RankSide::A, cfg), row);
        }
    }
}
