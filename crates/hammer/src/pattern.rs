//! Blacksmith-style hammering patterns.
//!
//! Blacksmith's key idea is that TRR trackers are defeated not by sheer
//! activation count but by *pattern shape*: many aggressors activated with
//! different frequencies, phases, and amplitudes inside each refresh
//! interval, so the tracker's few counters churn while the true aggressors
//! keep hammering. A pattern here is a flattened per-period schedule of row
//! activations.

use rand::Rng;

/// One aggressor's schedule parameters within a pattern period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggressorSlot {
    /// Media row of the aggressor (within one bank).
    pub row: u32,
    /// How many times per period the aggressor fires.
    pub frequency: u32,
    /// Offset (in schedule slots) of its first activation.
    pub phase: u32,
    /// Back-to-back activations per firing.
    pub amplitude: u32,
}

/// A many-sided hammering pattern: a repeating schedule of activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammerPattern {
    /// Scheduled aggressors.
    pub slots: Vec<AggressorSlot>,
    /// Flattened one-period schedule of row activations.
    pub schedule: Vec<u32>,
}

impl HammerPattern {
    /// Classic double-sided pattern around `victim`: aggressors at
    /// `victim - 1` and `victim + 1`.
    #[must_use]
    pub fn double_sided(victim: u32) -> Self {
        Self::from_slots(vec![
            AggressorSlot {
                row: victim - 1,
                frequency: 1,
                phase: 0,
                amplitude: 1,
            },
            AggressorSlot {
                row: victim + 1,
                frequency: 1,
                phase: 1,
                amplitude: 1,
            },
        ])
    }

    /// A uniform `n`-sided pattern over rows `base, base+2, ...`
    /// (aggressors with one-row gaps, the TRRespass shape).
    #[must_use]
    pub fn n_sided(base: u32, n: u32) -> Self {
        Self::from_slots(
            (0..n)
                .map(|i| AggressorSlot {
                    row: base + 2 * i,
                    frequency: 1,
                    phase: i,
                    amplitude: 1,
                })
                .collect(),
        )
    }

    /// Builds the flattened schedule from slots.
    #[must_use]
    pub fn from_slots(slots: Vec<AggressorSlot>) -> Self {
        // Period length: enough slots for the densest frequency.
        let period: u32 = slots
            .iter()
            .map(|s| s.frequency * s.amplitude)
            .sum::<u32>()
            .max(1);
        let mut schedule = Vec::with_capacity(period as usize);
        // Greedy interleave honoring frequency/phase/amplitude: walk phase
        // order, emitting each aggressor's bursts spread over the period.
        let mut emitted: Vec<u32> = vec![0; slots.len()];
        let mut cursor = 0u32;
        while (schedule.len() as u32) < period {
            let mut progressed = false;
            for (i, s) in slots.iter().enumerate() {
                if emitted[i] >= s.frequency {
                    continue;
                }
                let due = s.phase + emitted[i] * (period / s.frequency.max(1));
                if cursor >= due {
                    for _ in 0..s.amplitude {
                        schedule.push(s.row);
                    }
                    emitted[i] += 1;
                    progressed = true;
                }
            }
            cursor += 1;
            if !progressed && emitted.iter().zip(&slots).all(|(&e, s)| e >= s.frequency) {
                break;
            }
        }
        if schedule.is_empty() {
            schedule.extend(slots.iter().map(|s| s.row));
        }
        Self { slots, schedule }
    }

    /// Randomly samples a Blacksmith-style pattern from `allowed_rows`
    /// (ascending candidate rows within one bank and subarray).
    ///
    /// # Panics
    ///
    /// Panics if `allowed_rows` is empty.
    pub fn random<R: Rng>(allowed_rows: &[u32], rng: &mut R) -> Self {
        let n = rng
            .gen_range(2..=16usize)
            .min(allowed_rows.len().max(2) / 2);
        let mut slots = Vec::with_capacity(n);
        // Pick aggressor rows spaced by 2 where possible (sandwiching
        // victims), from a random starting index.
        let start = rng.gen_range(0..allowed_rows.len().max(1));
        for i in 0..n {
            let idx = (start + i * 2) % allowed_rows.len();
            slots.push(AggressorSlot {
                row: allowed_rows[idx],
                frequency: rng.gen_range(1..=4),
                phase: rng.gen_range(0..8),
                amplitude: rng.gen_range(1..=3),
            });
        }
        Self::from_slots(slots)
    }

    /// Distinct aggressor rows.
    #[must_use]
    pub fn rows(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.slots.iter().map(|s| s.row).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Activations per period.
    #[must_use]
    pub fn acts_per_period(&self) -> usize {
        self.schedule.len()
    }

    /// The schedule as run-length-encoded `(row, count)` activation runs.
    ///
    /// Amplitude > 1 slots emit back-to-back same-row activations; this is
    /// the form `dram::DramSystem::activate_burst` consumes, with the run
    /// order (and hence device state) identical to walking `schedule`
    /// element by element.
    #[must_use]
    pub fn coalesced_schedule(&self) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &row in &self.schedule {
            match runs.last_mut() {
                Some((r, n)) if *r == row => *n += 1,
                _ => runs.push((row, 1)),
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn double_sided_sandwiches_victim() {
        let p = HammerPattern::double_sided(10);
        assert_eq!(p.rows(), vec![9, 11]);
        assert_eq!(p.acts_per_period(), 2);
    }

    #[test]
    fn n_sided_spaces_aggressors_by_two() {
        let p = HammerPattern::n_sided(100, 12);
        let rows = p.rows();
        assert_eq!(rows.len(), 12);
        for w in rows.windows(2) {
            assert_eq!(w[1] - w[0], 2);
        }
    }

    #[test]
    fn schedule_respects_frequency_and_amplitude() {
        let p = HammerPattern::from_slots(vec![
            AggressorSlot {
                row: 5,
                frequency: 3,
                phase: 0,
                amplitude: 2,
            },
            AggressorSlot {
                row: 9,
                frequency: 1,
                phase: 1,
                amplitude: 1,
            },
        ]);
        let count5 = p.schedule.iter().filter(|&&r| r == 5).count();
        let count9 = p.schedule.iter().filter(|&&r| r == 9).count();
        assert_eq!(count5, 6, "3 firings x amplitude 2");
        assert_eq!(count9, 1);
    }

    #[test]
    fn coalesced_schedule_is_exact_rle_of_schedule() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let allowed: Vec<u32> = (100..200).collect();
        for _ in 0..50 {
            let p = HammerPattern::random(&allowed, &mut rng);
            let runs = p.coalesced_schedule();
            // Expanding the runs reproduces the schedule exactly.
            let expanded: Vec<u32> = runs
                .iter()
                .flat_map(|&(row, n)| std::iter::repeat_n(row, n as usize))
                .collect();
            assert_eq!(expanded, p.schedule);
            // Maximal runs: no two adjacent runs share a row.
            for w in runs.windows(2) {
                assert_ne!(w[0].0, w[1].0);
            }
        }
    }

    #[test]
    fn random_patterns_use_allowed_rows_only() {
        let allowed: Vec<u32> = (200..300).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let p = HammerPattern::random(&allowed, &mut rng);
            assert!(p.rows().iter().all(|r| allowed.contains(r)));
            assert!(!p.schedule.is_empty());
            assert!(p.rows().len() >= 2);
        }
    }
}
