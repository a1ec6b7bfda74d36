//! Bit-flip records and weak-cell placement.

use crate::profile::DimmProfile;
use crate::util::{mix, unit_float};
use dram_addr::{BankId, RankSide};

/// One observed Rowhammer/RowPress bit flip, in media coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// Bank the flip occurred in.
    pub bank: BankId,
    /// Media row address of the victim row.
    pub media_row: u32,
    /// Half-row side holding the flipped cell (§2.3).
    pub side: RankSide,
    /// Byte offset within the full 8 KiB media row.
    pub byte: u32,
    /// Bit index within the byte.
    pub bit: u8,
}

/// Log of all flips a DRAM system has suffered since construction.
///
/// The log is the ground truth for security experiments. It records media
/// coordinates only; the hypervisor's owner ledger
/// (`siloz::Hypervisor::flips_by_owner`) maps each flip's 64-byte line back
/// to whose memory it hit, which is what Table 3 and the fleet's attack
/// step count. The EPT experiment checks protected row ranges.
#[derive(Debug, Default, Clone)]
pub struct FlipLog {
    flips: Vec<BitFlip>,
}

impl FlipLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a flip (idempotent per exact cell: re-flipping the same cell
    /// is not logged twice).
    pub fn record(&mut self, flip: BitFlip) {
        if !self.flips.contains(&flip) {
            self.flips.push(flip);
        }
    }

    /// All recorded flips, in occurrence order.
    #[must_use]
    pub fn all(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Number of recorded flips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flips.len()
    }

    /// Whether no flips have occurred.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// Flips affecting a given bank.
    pub fn in_bank(&self, bank: BankId) -> impl Iterator<Item = &BitFlip> {
        self.flips.iter().filter(move |f| f.bank == bank)
    }

    /// Flips whose victim media row lies within `[lo, hi)` in `bank`.
    pub fn in_row_range(
        &self,
        bank: BankId,
        lo: u32,
        hi: u32,
    ) -> impl Iterator<Item = &BitFlip> + '_ {
        self.flips
            .iter()
            .filter(move |f| f.bank == bank && f.media_row >= lo && f.media_row < hi)
    }
}

/// Charge orientation of a DRAM cell (§2.5 background).
///
/// A *true cell* stores logical 1 as charged: disturbance leaks charge, so
/// it can only flip 1 → 0. An *anti cell* stores logical 0 as charged and
/// flips 0 → 1. Flips are therefore data-pattern dependent — the basis of
/// RAMBleed-style inference and of Blacksmith's striped victim patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellPolarity {
    /// Charged = 1; flips 1 → 0 under disturbance.
    True,
    /// Charged = 0; flips 0 → 1 under disturbance.
    Anti,
}

impl CellPolarity {
    /// The stored bit value that is vulnerable (charged) for this polarity.
    #[must_use]
    pub fn vulnerable_bit(self) -> u8 {
        match self {
            CellPolarity::True => 1,
            CellPolarity::Anti => 0,
        }
    }
}

/// A weak cell of a particular victim half-row: the position that flips once
/// the row's accumulated disturbance exceeds `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    /// Byte offset within the half-row (0..row_bytes/2).
    pub byte_in_half: u32,
    /// Bit index within the byte.
    pub bit: u8,
    /// Disturbance level at which this cell flips. The weakest cell flips at
    /// the row threshold; stronger cells require progressively more.
    pub threshold: f64,
    /// True/anti cell orientation: only the charged state can flip.
    pub polarity: CellPolarity,
}

/// Deterministically enumerates the weak cells of a victim half-row.
///
/// Cell positions and strength multipliers depend only on
/// `(profile seed, bank, side, internal row)`, so repeated experiments see
/// the same flippable population — as with a physical DIMM.
#[must_use]
pub fn weak_cells(
    profile: &DimmProfile,
    bank: u32,
    side: RankSide,
    internal_row: u32,
    half_row_bytes: u32,
) -> Vec<WeakCell> {
    let side_idx = match side {
        RankSide::A => 0u8,
        RankSide::B => 1,
    };
    let count = profile.weak_cell_count(bank, side_idx, internal_row);
    let row_threshold = profile.row_threshold(bank, side_idx, internal_row);
    if count == 0 || !row_threshold.is_finite() {
        return Vec::new();
    }
    let mut cells = Vec::with_capacity(count as usize);
    for i in 0..count {
        let h = mix(&[
            profile.seed ^ 0x5eed_ce11,
            bank as u64,
            side_idx as u64,
            internal_row as u64,
            i as u64,
        ]);
        let byte_in_half = (h % half_row_bytes as u64) as u32;
        let bit = ((h >> 32) % 8) as u8;
        // Cell `i` flips at threshold * (1 + i * step); later cells need more
        // hammering, so flip counts grow with disturbance as on real DIMMs.
        let step = 0.35 * unit_float(h.rotate_left(17)) + 0.15;
        let threshold = row_threshold * (1.0 + i as f64 * step);
        // True/anti layout is a manufacturing property; roughly half each.
        let polarity = if (h >> 40) & 1 == 0 {
            CellPolarity::True
        } else {
            CellPolarity::Anti
        };
        cells.push(WeakCell {
            byte_in_half,
            bit,
            threshold,
            polarity,
        });
    }
    cells.sort_by(|a, b| a.threshold.total_cmp(&b.threshold));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(bank: u32, row: u32) -> BitFlip {
        BitFlip {
            bank: BankId(bank),
            media_row: row,
            side: RankSide::A,
            byte: 1,
            bit: 2,
        }
    }

    #[test]
    fn log_records_and_dedups() {
        let mut log = FlipLog::new();
        log.record(flip(0, 5));
        log.record(flip(0, 5));
        log.record(flip(1, 5));
        assert_eq!(log.len(), 2);
        assert_eq!(log.in_bank(BankId(0)).count(), 1);
    }

    #[test]
    fn row_range_filter() {
        let mut log = FlipLog::new();
        for r in [0u32, 10, 20, 30] {
            log.record(flip(0, r));
        }
        assert_eq!(log.in_row_range(BankId(0), 5, 25).count(), 2);
        assert_eq!(log.in_row_range(BankId(1), 0, 100).count(), 0);
    }

    #[test]
    fn weak_cells_deterministic_and_sorted() {
        let p = DimmProfile::default_eval();
        let a = weak_cells(&p, 0, RankSide::A, 42, 4096);
        let b = weak_cells(&p, 0, RankSide::A, 42, 4096);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        for w in a.windows(2) {
            assert!(w[0].threshold <= w[1].threshold);
        }
        for c in &a {
            assert!(c.byte_in_half < 4096);
            assert!(c.bit < 8);
        }
    }

    #[test]
    fn weakest_cell_flips_at_row_threshold() {
        let p = DimmProfile::default_eval();
        let cells = weak_cells(&p, 7, RankSide::B, 9, 4096);
        let row_thr = p.row_threshold(7, 1, 9);
        assert!((cells[0].threshold - row_thr).abs() < 1e-9);
    }

    #[test]
    fn invulnerable_profile_has_no_weak_cells() {
        let p = DimmProfile::invulnerable();
        assert!(weak_cells(&p, 0, RankSide::A, 0, 4096).is_empty());
    }
}
