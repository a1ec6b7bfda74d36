//! The Blacksmith fuzzing loop.

use crate::pattern::HammerPattern;
use crate::T_RC_NS;
use dram::flip::BitFlip;
use dram::{Aggressor, DramSystem};
use dram_addr::BankId;
use mitigation::Mitigation;
use rand::Rng;

/// tREFI in nanoseconds, mirroring the device's distributed-REF cadence —
/// the granularity at which defended campaigns feed decay ticks to a
/// [`Mitigation`] backend.
const TREFI_NS: u64 = dram::REFRESH_WINDOW_NS / dram::REFS_PER_WINDOW as u64;

/// The live defense of a campaign, if any: the backend every ACT is
/// offered to and the stream id the ACTs are attributed to.
pub(crate) type Defense<'a> = Option<(&'a mut dyn Mitigation, u16)>;

/// Delivers one `on_refresh` tick per tREFI boundary crossed up to
/// `now_ns`, advancing the `next_decay_ns` cursor past it.
fn drain_decay_ticks(defense: &mut Defense<'_>, now_ns: u64, next_decay_ns: &mut u64) {
    let Some((defense, _)) = defense else { return };
    while now_ns >= *next_decay_ns {
        defense.on_refresh(*next_decay_ns * 1000);
        *next_decay_ns += TREFI_NS;
    }
}

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Patterns to sample and try.
    pub patterns: u32,
    /// Pattern-period repetitions per attempt (hammering duration).
    pub periods_per_attempt: u32,
    /// Extra row-open time per activation, ns (RowPress knob; 0 = classic
    /// Rowhammer).
    pub extra_open_ns: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            patterns: 12,
            periods_per_attempt: 120_000,
            extra_open_ns: 0,
        }
    }
}

impl FuzzConfig {
    /// A short campaign for fleet scenarios: a churn simulator injects many
    /// attacks over thousands of lifecycle events, so each one samples few
    /// patterns but hammers them long enough to cross realistic Rowhammer
    /// thresholds.
    #[must_use]
    pub const fn fleet_campaign() -> Self {
        Self {
            patterns: 3,
            periods_per_attempt: 120_000,
            extra_open_ns: 0,
        }
    }
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Patterns attempted.
    pub patterns_tried: u32,
    /// Total activations issued.
    pub acts: u64,
    /// Flips discovered (media coordinates), in discovery order.
    pub flips: Vec<BitFlip>,
    /// The first successful pattern, if any.
    pub effective_pattern: Option<HammerPattern>,
}

impl FuzzReport {
    /// Whether any bit flipped.
    #[must_use]
    pub fn any_flips(&self) -> bool {
        !self.flips.is_empty()
    }
}

/// The Blacksmith-style fuzzer: samples many-sided frequency-varied
/// patterns and hammers them until bits flip (§7.1).
///
/// # Examples
///
/// ```
/// use dram::DramSystemBuilder;
/// use dram_addr::{mini_geometry, BankId};
/// use hammer::{Blacksmith, FuzzConfig};
/// use rand::SeedableRng;
///
/// let mut dram = DramSystemBuilder::new(mini_geometry()).build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut fuzzer = Blacksmith::new(FuzzConfig::default());
/// let rows: Vec<u32> = (0..256).collect();
/// let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
/// assert!(report.any_flips(), "Blacksmith defeats the default TRR");
/// ```
#[derive(Debug)]
pub struct Blacksmith {
    config: FuzzConfig,
}

impl Blacksmith {
    /// Creates a fuzzer.
    #[must_use]
    pub fn new(config: FuzzConfig) -> Self {
        Self { config }
    }

    /// Runs the campaign against one bank, restricted to `allowed_rows`
    /// (the rows the attacker actually owns — e.g. a VM's provisioned
    /// rows). Returns all flips produced anywhere in the DRAM system during
    /// the campaign (escapes included — that is the point of the
    /// containment experiments).
    pub fn fuzz<R: Rng>(
        &mut self,
        dram: &mut DramSystem,
        bank: BankId,
        allowed_rows: &[u32],
        rng: &mut R,
    ) -> FuzzReport {
        self.fuzz_with(dram, bank, allowed_rows, rng, &mut None)
    }

    /// [`Blacksmith::fuzz`] with a live [`Mitigation`] backend in the loop:
    /// every activation is reported to `defense` (attributed to stream
    /// `source`), and any throttle delay it injects stalls the attacker in
    /// simulated time — giving refresh and TRR a chance to reset victims
    /// before their thresholds are crossed.
    ///
    /// With [`mitigation::NoMitigation`] this is bit-identical to the
    /// undefended [`Blacksmith::fuzz`] (same flips, acts, and clock).
    pub fn fuzz_defended<R: Rng>(
        &mut self,
        dram: &mut DramSystem,
        bank: BankId,
        allowed_rows: &[u32],
        rng: &mut R,
        defense: &mut dyn Mitigation,
        source: u16,
    ) -> FuzzReport {
        self.fuzz_with(dram, bank, allowed_rows, rng, &mut Some((defense, source)))
    }

    /// The one campaign loop behind [`Blacksmith::fuzz`] and
    /// [`Blacksmith::fuzz_defended`].
    pub(crate) fn fuzz_with<R: Rng>(
        &mut self,
        dram: &mut DramSystem,
        bank: BankId,
        allowed_rows: &[u32],
        rng: &mut R,
        defense: &mut Defense<'_>,
    ) -> FuzzReport {
        let before = dram.flip_log().len();
        let mut acts = 0u64;
        let mut effective = None;
        let mut tried = 0u32;
        for _ in 0..self.config.patterns {
            tried += 1;
            let pattern = HammerPattern::random(allowed_rows, rng);
            let found = self.hammer_with(dram, bank, &pattern, &mut acts, defense);
            if found && effective.is_none() {
                effective = Some(pattern);
                break;
            }
        }
        let flips = dram.flip_log().all()[before..].to_vec();
        FuzzReport {
            patterns_tried: tried,
            acts,
            flips,
            effective_pattern: effective,
        }
    }

    /// Hammers one explicit pattern; returns whether new flips appeared.
    ///
    /// The per-period schedule is issued as run-length-coalesced activation
    /// bursts (amplitude > 1 slots produce back-to-back same-row ACTs), with
    /// device state identical to per-ACT issue. Time advances only between
    /// periods, so no burst ever spans a refresh boundary.
    pub fn hammer(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
    ) -> bool {
        self.hammer_with(dram, bank, pattern, acts, &mut None)
    }

    /// [`Blacksmith::hammer`] against a live [`Mitigation`] backend.
    ///
    /// Every ACT of each coalesced run is offered to `defense.on_act`
    /// first; the summed throttle delay advances simulated time *before*
    /// the burst issues, so distributed refresh catches up while the
    /// attacker stalls — that time dilation is exactly how controller-level
    /// defenses contain flips here. Decay ticks ([`Mitigation::on_refresh`])
    /// are delivered once per tREFI of simulated attack time.
    pub fn hammer_defended(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
        defense: &mut dyn Mitigation,
        source: u16,
    ) -> bool {
        self.hammer_with(dram, bank, pattern, acts, &mut Some((defense, source)))
    }

    /// The one hammering loop behind [`Blacksmith::hammer`] and
    /// [`Blacksmith::hammer_defended`].
    ///
    /// Each run of the schedule resolves its aggressor once and bursts the
    /// handle every period after. The resolve happens at the run's first
    /// issue, not before the loop: it is the bank's first touch, and a
    /// throttle stall ahead of the very first burst may cross a REF step
    /// the bank must not yet take part in.
    fn hammer_with(
        &self,
        dram: &mut DramSystem,
        bank: BankId,
        pattern: &HammerPattern,
        acts: &mut u64,
        defense: &mut Defense<'_>,
    ) -> bool {
        let before = dram.flip_log().len();
        let rows_per_bank = dram.geometry().rows_per_bank;
        let runs = pattern.coalesced_schedule();
        let mut aggressors: Vec<Option<Aggressor>> = vec![None; runs.len()];
        let mut next_decay_ns = (dram.now_ns() / TREFI_NS + 1) * TREFI_NS;
        for _ in 0..self.config.periods_per_attempt {
            for (&(row, count), aggressor) in runs.iter().zip(&mut aggressors) {
                if row >= rows_per_bank {
                    continue;
                }
                if let Some((defense, source)) = defense {
                    let mut delay_ps = 0u64;
                    for _ in 0..count {
                        let now_ps = dram.now_ns() * 1000 + delay_ps;
                        delay_ps += defense.on_act(bank.0, row, *source, now_ps);
                    }
                    if delay_ps > 0 {
                        // Stall before the burst: bursts model back-to-back
                        // ACT runs and must not internally span a refresh,
                        // so the injected delay lands between runs.
                        dram.advance_ns(delay_ps.div_ceil(1000));
                    }
                }
                let aggressor = aggressor.get_or_insert_with(|| {
                    dram.resolve_aggressor(bank, row, self.config.extra_open_ns)
                });
                dram.activate_resolved(aggressor, count as u64);
                *acts += count as u64;
                drain_decay_ticks(defense, dram.now_ns(), &mut next_decay_ns);
            }
            dram.advance_ns(pattern.schedule.len() as u64 * T_RC_NS);
            drain_decay_ticks(defense, dram.now_ns(), &mut next_decay_ns);
        }
        dram.flip_log().len() > before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{DimmProfile, DramSystemBuilder};
    use dram_addr::mini_geometry;
    use rand::SeedableRng;

    #[test]
    fn fuzzer_finds_flips_despite_trr() {
        // The §7.1 premise: Blacksmith defeats deployed TRR.
        let mut dram = DramSystemBuilder::new(mini_geometry()).trr(4, 2).build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut fuzzer = Blacksmith::new(FuzzConfig::default());
        let rows: Vec<u32> = (0..256).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
        assert!(report.any_flips());
        assert!(report.effective_pattern.is_some());
        assert!(report.acts > 0);
    }

    #[test]
    fn flips_stay_in_the_hammered_subarray() {
        let mut dram = DramSystemBuilder::new(mini_geometry()).build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut fuzzer = Blacksmith::new(FuzzConfig::default());
        // Restrict the attacker to subarray 1 (rows 256..512 in mini).
        let rows: Vec<u32> = (256..512).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(3), &rows, &mut rng);
        assert!(report.any_flips());
        for f in &report.flips {
            assert_eq!(f.media_row / 256, 1, "flip escaped the subarray");
        }
    }

    #[test]
    fn invulnerable_dimm_survives_fuzzing() {
        let mut dram = DramSystemBuilder::new(mini_geometry())
            .profiles(vec![DimmProfile::invulnerable()])
            .build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 3,
            ..FuzzConfig::default()
        });
        let rows: Vec<u32> = (0..256).collect();
        let report = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
        assert!(!report.any_flips());
        assert_eq!(report.patterns_tried, 3);
    }

    #[test]
    fn defended_hammer_with_none_backend_is_bit_identical() {
        // The trait-port pin at the attack layer: a NoMitigation hook in
        // the loop must not perturb flips, acts, or the simulated clock.
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        let plain_found = fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts);

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut noop = mitigation::NoMitigation::new();
        let mut defended_acts = 0u64;
        let defended_found = fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut noop,
            3,
        );
        assert_eq!(plain_found, defended_found);
        assert_eq!(plain_acts, defended_acts);
        assert_eq!(plain.now_ns(), defended.now_ns());
        assert_eq!(plain.stats(), defended.stats());
        assert_eq!(plain.flip_log().all(), defended.flip_log().all());
        assert!(plain_found, "the undefended attack must actually flip bits");
    }

    #[test]
    fn blockhammer_throttling_contains_the_flips() {
        // Same pattern, same DIMM: undefended hammering flips bits, but a
        // BlockHammer hook blacklists the aggressor rows and the injected
        // per-ACT stalls let refresh reset victims before they cross
        // threshold.
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        assert!(fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts));

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut bh = mitigation::BlockHammer::new();
        let mut defended_acts = 0u64;
        let found = fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut bh,
            3,
        );
        assert!(!found, "BlockHammer must contain this campaign");
        assert_eq!(defended.flip_log().len(), 0);
        assert_eq!(defended_acts, plain_acts, "throttling delays, not drops");
        assert!(
            defended.now_ns() > 4 * plain.now_ns(),
            "throttle stalls must dilate attack time: {} vs {}",
            defended.now_ns(),
            plain.now_ns()
        );
        let reg = telemetry::Registry::new();
        bh.export_telemetry(&reg);
        let snap = reg.snapshot();
        match snap.metrics["rows_blacklisted"] {
            telemetry::MetricValue::Counter { value, .. } => {
                assert!(value >= 8, "all aggressor rows blacklisted, got {value}");
            }
            ref other => panic!("unexpected metric {other:?}"),
        }
    }

    #[test]
    fn defended_hammer_matches_per_act_issue_when_the_first_stall_crosses_a_ref() {
        // The first row of the pattern is already blacklisted, the bank has
        // never been touched, and the clock sits 1 µs before a tREFI
        // boundary: the 1.5 µs stall ahead of the campaign's first burst
        // crosses a REF step the bank must sit out, because its refresh
        // sweep starts at its first ACT. A campaign that touched the bank
        // any earlier (resolving its handles before the loop) would run the
        // sweep one step ahead from there on.
        let pattern = HammerPattern::n_sided(40, 8);
        let runs = pattern.coalesced_schedule();
        let config = FuzzConfig {
            patterns: 1,
            periods_per_attempt: 4_000,
            extra_open_ns: 0,
        };
        let (bank, source) = (BankId(0), 3);
        // Cells weak enough to flip under the throttle, re-logged at every
        // re-crossing, so the flip log is sensitive to the sweep's phase.
        let build = || {
            let mut dram = DramSystemBuilder::new(mini_geometry())
                .profiles(vec![DimmProfile {
                    base_threshold: 600.0,
                    weak_cells_per_row: 16.0,
                    ..DimmProfile::default_eval()
                }])
                .pattern_dependent(false)
                .build();
            dram.advance_ns(3 * TREFI_NS - 1_000);
            let mut bh = mitigation::BlockHammer::new();
            while bh.on_act(bank.0, runs[0].0, source, dram.now_ns() * 1000) == 0 {}
            (dram, bh)
        };

        let (mut dram, mut bh) = build();
        let mut acts = 0u64;
        let found = Blacksmith::new(config)
            .hammer_defended(&mut dram, bank, &pattern, &mut acts, &mut bh, source);

        // The same schedule, one ACT at a time.
        let (mut reference, mut reference_bh) = build();
        let mut defense: Defense<'_> = Some((&mut reference_bh, source));
        let mut next_decay_ns = (reference.now_ns() / TREFI_NS + 1) * TREFI_NS;
        for _ in 0..config.periods_per_attempt {
            for &(row, count) in &runs {
                let mut delay_ps = 0u64;
                for _ in 0..count {
                    let now_ps = reference.now_ns() * 1000 + delay_ps;
                    let (backend, source) = defense.as_mut().expect("defended");
                    delay_ps += backend.on_act(bank.0, row, *source, now_ps);
                }
                reference.advance_ns(delay_ps.div_ceil(1000));
                for _ in 0..count {
                    reference.activate_row(bank, row, config.extra_open_ns);
                }
                drain_decay_ticks(&mut defense, reference.now_ns(), &mut next_decay_ns);
            }
            reference.advance_ns(pattern.schedule.len() as u64 * T_RC_NS);
            drain_decay_ticks(&mut defense, reference.now_ns(), &mut next_decay_ns);
        }

        assert!(found, "the weak DIMM flips under the throttle");
        assert_eq!(dram.flip_log().all(), reference.flip_log().all());
        assert_eq!(dram.stats(), reference.stats());
        assert_eq!(dram.now_ns(), reference.now_ns());
        let telemetry = |backend: &mitigation::BlockHammer| {
            let reg = telemetry::Registry::new();
            backend.export_telemetry(&reg);
            reg.snapshot().deterministic().to_json()
        };
        assert_eq!(telemetry(&bh), telemetry(&reference_bh));
    }

    #[test]
    fn breakhammer_throttles_the_hammering_source() {
        let pattern = HammerPattern::n_sided(40, 8);
        let fuzzer = Blacksmith::new(FuzzConfig {
            patterns: 1,
            periods_per_attempt: 30_000,
            extra_open_ns: 0,
        });
        let mut plain = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut plain_acts = 0u64;
        fuzzer.hammer(&mut plain, BankId(0), &pattern, &mut plain_acts);

        let mut defended = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
        let mut bh = mitigation::BreakHammer::new();
        let mut defended_acts = 0u64;
        fuzzer.hammer_defended(
            &mut defended,
            BankId(0),
            &pattern,
            &mut defended_acts,
            &mut bh,
            9,
        );
        assert!(
            defended.flip_log().len() <= plain.flip_log().len(),
            "source throttling cannot make the attack stronger"
        );
        assert!(
            defended.now_ns() > 2 * plain.now_ns(),
            "stream throttling must slow the attacker: {} vs {}",
            defended.now_ns(),
            plain.now_ns()
        );
        let reg = telemetry::Registry::new();
        bh.export_telemetry(&reg);
        let snap = reg.snapshot();
        match snap.metrics["sources_throttled"] {
            telemetry::MetricValue::Counter { value, .. } => assert!(value >= 1),
            ref other => panic!("unexpected metric {other:?}"),
        }
    }

    #[test]
    fn rowpress_mode_flips_with_fewer_acts() {
        let rows: Vec<u32> = (0..64).collect();
        let run = |extra: u64| {
            let mut dram = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let mut fuzzer = Blacksmith::new(FuzzConfig {
                patterns: 1,
                periods_per_attempt: 30_000,
                extra_open_ns: extra,
            });
            let r = fuzzer.fuzz(&mut dram, BankId(0), &rows, &mut rng);
            r.flips.len()
        };
        assert!(run(3_000) >= run(0), "RowPress cannot be weaker");
    }
}
