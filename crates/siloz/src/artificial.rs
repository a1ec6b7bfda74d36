//! Handling media-to-internal mapping hazards (§6).
//!
//! Three hazards can make a DIMM's *internal* row layout disagree with the
//! media-address layout Siloz computes groups from: vendor row scrambling,
//! DDR4 mirroring/inversion with non-power-of-2 subarray sizes, and
//! inter-subarray row repairs. For each, Siloz removes the small set of
//! pages that could violate isolation from allocatable memory — the same
//! mechanism Linux uses for failing pages — or forms *artificial* subarray
//! groups padded with guard rows.

use crate::SilozError;
use dram_addr::transform::media_row_from_internal;
use dram_addr::{BankId, InternalMapConfig, RankSide, RepairMap, SystemAddressDecoder};
use numa::frame_of_hpa;
use std::ops::Range;

/// Rows reserved at each subarray boundary when vendor scrambling is active
/// and the subarray size is not a multiple of 8 (§6).
///
/// Scrambling permutes rows within aligned 8-row blocks; when a subarray
/// boundary falls inside such a block, the whole block is reserved.
#[must_use]
pub fn scrambling_reserved_rows(subarray_rows: u32, rows_per_bank: u32) -> Vec<u32> {
    if subarray_rows == 0 || subarray_rows.is_multiple_of(8) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut boundary = subarray_rows;
    while boundary < rows_per_bank {
        let block = boundary & !7;
        for r in block..(block + 8).min(rows_per_bank) {
            out.push(r);
        }
        boundary += subarray_rows;
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A plan for *artificial* subarray groups: non-power-of-2 subarray sizes
/// rounded up to the next power of two, with `guard_rows` reserved at each
/// artificial boundary across all rank/side mapping variants (§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtificialGroupPlan {
    /// The DIMM's true subarray size.
    pub true_rows: u32,
    /// The artificial (power-of-2) subarray size Siloz manages.
    pub artificial_rows: u32,
    /// Guard rows inserted after each artificial boundary (n = 4 protects
    /// against the blast radius observed on modern server DIMMs).
    pub guard_rows: u32,
    /// Media rows reserved per bank (union over rank parities and sides).
    pub reserved_rows: Vec<u32>,
    /// Total rows per bank, for fraction accounting.
    pub rows_per_bank: u32,
}

impl ArtificialGroupPlan {
    /// Builds the plan for a DIMM with `true_rows`-row subarrays under the
    /// given internal transformations.
    ///
    /// For power-of-2 sizes no reservation is needed and
    /// `reserved_rows` is empty (the artificial size equals the true size).
    #[must_use]
    pub fn new(
        true_rows: u32,
        guard_rows: u32,
        cfg: InternalMapConfig,
        rows_per_bank: u32,
    ) -> Self {
        let artificial_rows = true_rows.next_power_of_two();
        let mut reserved = Vec::new();
        if !true_rows.is_power_of_two() {
            // Reserve `guard_rows` internal rows at each artificial
            // boundary; a hazard on any rank/side variant reserves the
            // media rows mapping there under that variant.
            let mut boundary = 0u32;
            while boundary < rows_per_bank {
                for g in 0..guard_rows {
                    let internal = boundary + g;
                    if internal >= rows_per_bank {
                        break;
                    }
                    for rank in 0..2u16 {
                        for side in RankSide::BOTH {
                            let media = media_row_from_internal(internal, rank, side, cfg);
                            if media < rows_per_bank {
                                reserved.push(media);
                            }
                        }
                    }
                }
                boundary += artificial_rows;
            }
            reserved.sort_unstable();
            reserved.dedup();
        }
        Self {
            true_rows,
            artificial_rows,
            guard_rows,
            reserved_rows: reserved,
            rows_per_bank,
        }
    }

    /// Fraction of DRAM reserved by the plan.
    #[must_use]
    pub fn reserved_fraction(&self) -> f64 {
        self.reserved_rows.len() as f64 / self.rows_per_bank as f64
    }

    /// Whether any reservation is needed at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.reserved_rows.is_empty() && self.artificial_rows == self.true_rows
    }
}

/// The page frame of each cache line of `(bank, row)`, in column order.
fn line_frames_of_bank_row(
    decoder: &SystemAddressDecoder,
    bank: BankId,
    row: u32,
) -> impl Iterator<Item = Result<u64, SilozError>> + '_ {
    let g = decoder.geometry();
    let mut media = bank.to_media(g);
    media.row = row;
    (0..g.lines_per_row()).map(move |line| {
        media.col = (line * dram_addr::CACHE_LINE_BYTES) as u32;
        Ok(frame_of_hpa(decoder.encode(&media)?))
    })
}

/// Page frames whose data has any cache line in `(bank, row)` — the pages
/// that must be offlined if that row is repaired into another subarray (§6).
pub fn frames_touching_bank_row(
    decoder: &SystemAddressDecoder,
    bank: BankId,
    row: u32,
) -> Result<Vec<u64>, SilozError> {
    let mut frames = line_frames_of_bank_row(decoder, bank, row).collect::<Result<Vec<_>, _>>()?;
    frames.sort_unstable();
    frames.dedup();
    Ok(frames)
}

/// Whether any cache line of `(bank, row)` lies in one of `owned`, a list of
/// disjoint frame ranges sorted by start: the question
/// [`frames_touching_bank_row`] answers by listing, asked so that it stops
/// at the first line that says yes. Only a row with no owned line (its pages
/// offlined, or another tenant's) costs a walk of the whole row.
pub fn bank_row_touches_frames(
    decoder: &SystemAddressDecoder,
    bank: BankId,
    row: u32,
    owned: &[Range<u64>],
) -> Result<bool, SilozError> {
    for frame in line_frames_of_bank_row(decoder, bank, row) {
        let frame = frame?;
        let after = owned.partition_point(|r| r.start <= frame);
        if after > 0 && frame < owned[after - 1].end {
            return Ok(true);
        }
    }
    Ok(false)
}

/// All frames to offline because of inter-subarray repairs in `repairs`.
pub fn inter_subarray_repair_frames(
    decoder: &SystemAddressDecoder,
    repairs: &RepairMap,
) -> Result<Vec<u64>, SilozError> {
    let g = decoder.geometry();
    let mut out = Vec::new();
    for (bank, row) in repairs.inter_subarray_repairs(g) {
        out.extend(frames_touching_bank_row(decoder, bank, row)?);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_addr::{skylake_decoder, RepairKind};
    use rand::SeedableRng;

    #[test]
    fn multiple_of_8_sizes_need_no_scrambling_reservation() {
        for rows in [512u32, 1024, 2048, 520, 768] {
            assert!(
                scrambling_reserved_rows(rows, 131_072).is_empty(),
                "{rows} is a multiple of 8"
            );
        }
    }

    #[test]
    fn non_multiple_of_8_sizes_reserve_8_row_blocks() {
        // A 1021-row subarray: boundaries at 1021, 2042, ... each inside an
        // 8-row block that must be reserved.
        let reserved = scrambling_reserved_rows(1021, 8168);
        assert!(!reserved.is_empty());
        assert_eq!(reserved.len() % 8, 0);
        // Fraction is small: ~8 rows per subarray.
        let frac = reserved.len() as f64 / 8168.0;
        assert!(frac < 0.01, "fraction {frac}");
    }

    #[test]
    fn artificial_plan_is_noop_for_power_of_two() {
        let plan = ArtificialGroupPlan::new(1024, 4, InternalMapConfig::default(), 131_072);
        assert!(plan.is_noop());
        assert_eq!(plan.artificial_rows, 1024);
        assert_eq!(plan.reserved_fraction(), 0.0);
    }

    #[test]
    fn artificial_plan_fraction_matches_paper_envelope() {
        // §6: reservations between ~1.56% (512-ish sizes) and ~0.39%
        // (2048-ish sizes), linearly decreasing with subarray size.
        let cfg = InternalMapConfig::default();
        let rows_per_bank = 131_072;
        let small = ArtificialGroupPlan::new(513, 4, cfg, rows_per_bank);
        // Artificial size 1024; 4 guard rows x up to 4 variants per
        // boundary = at most 16 rows per 1024 = 1.56%.
        assert!(
            small.reserved_fraction() <= 0.0157,
            "{}",
            small.reserved_fraction()
        );
        assert!(
            small.reserved_fraction() >= 0.0039,
            "{}",
            small.reserved_fraction()
        );
        let large = ArtificialGroupPlan::new(1025, 4, cfg, rows_per_bank);
        // Artificial size 2048: fraction halves.
        assert!(large.reserved_fraction() <= small.reserved_fraction());
        assert!(large.reserved_fraction() >= 0.0019);
    }

    #[test]
    fn artificial_plan_covers_all_rank_side_variants() {
        let cfg = InternalMapConfig::default();
        let plan = ArtificialGroupPlan::new(513, 4, cfg, 8192);
        // Every internal guard row's media image under every variant must be
        // reserved.
        for boundary in (0..8192u32).step_by(1024) {
            for g in 0..4 {
                for rank in 0..2u16 {
                    for side in RankSide::BOTH {
                        let media = media_row_from_internal(boundary + g, rank, side, cfg);
                        if media < 8192 {
                            assert!(
                                plan.reserved_rows.contains(&media),
                                "variant (rank {rank}, {side:?}) row {media} missing"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frames_touching_bank_row_is_one_third_of_row_group() {
        // A 4 KiB page holds 64 lines that cycle 64 of 192 banks; so a
        // given (bank, row) appears in 1/3 of the row group's 384 pages.
        let dec = skylake_decoder();
        let frames = frames_touching_bank_row(&dec, BankId(0), 0).unwrap();
        assert_eq!(frames.len(), 128);
        // All inside the row group's 1.5 MiB extent.
        let rg = dec.phys_range_of_row_group(0, 0).unwrap();
        for f in &frames {
            let p = f * 4096;
            assert!(p >= rg.start && p < rg.end);
        }
    }

    #[test]
    fn repair_frames_cover_only_crossing_repairs() {
        let dec = skylake_decoder();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let intra = RepairMap::generate(
            dec.geometry(),
            0.000001,
            RepairKind::IntraSubarray,
            &mut rng,
        );
        assert!(inter_subarray_repair_frames(&dec, &intra)
            .unwrap()
            .is_empty());
        let inter = RepairMap::generate(
            dec.geometry(),
            0.000001,
            RepairKind::InterSubarray,
            &mut rng,
        );
        let frames = inter_subarray_repair_frames(&dec, &inter).unwrap();
        assert_eq!(frames.len(), inter.len() * 128);
    }
}
