//! Scenario model: seeded stochastic generation of multi-tenant lifecycle
//! traces (§8 churn experiments).
//!
//! A [`Scenario`] fixes the host configuration, the admission
//! [`PlacementStrategy`], and the distributions; [`generate_trace`] expands
//! it into a deterministic event list. Departures are *not* pre-generated:
//! the engine schedules each one at admission time (`admitted_at +
//! lifetime`), so deferred admissions still get their full lifetime.

use numa::PlacementStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siloz::SilozConfig;

/// 2 MiB — the huge-page granularity VM sizes are rounded to.
pub const HUGE_PAGE_BYTES: u64 = 2 << 20;

/// How thoroughly the engine re-proves isolation at event boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Maintain a dense group→tenant ownership map and re-check only the
    /// groups/blocks the event touched (full proofs still run every
    /// [`Scenario::proof_period`] events and at the end).
    #[default]
    Incremental,
    /// Run the full [`analysis::isolation::verify_live_placements`] proof
    /// after *every* event. Quadratic-ish and slow; the reference the
    /// incremental mode's history is tested against.
    FullProof,
}

/// What happens at an event boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A tenant requests a VM.
    Arrive {
        /// Requested guest RAM in bytes (2 MiB-aligned).
        mem_bytes: u64,
        /// Requested vCPUs.
        vcpus: u32,
        /// Lifetime in ticks from admission to departure.
        lifetime: u64,
    },
    /// The tenant's VM is destroyed (scheduled dynamically at admission).
    Depart,
    /// The tenant's VM grows by `extra_bytes` (a growth burst).
    Expand {
        /// Extra guest RAM in bytes (2 MiB-aligned).
        extra_bytes: u64,
    },
    /// The tenant runs a workload slice through the memory controller.
    Slice {
        /// Memory operations in the slice.
        ops: u32,
    },
    /// The tenant turns aggressor: a Blacksmith campaign from inside its VM.
    Attack,
    /// Host-initiated defragmentation sweep (`migrate_block` rotation).
    Defrag,
}

/// One discrete event. Ordered by `(at, seq)`; `seq` is the global
/// generation order, which breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time (ticks).
    pub at: u64,
    /// Tie-breaking sequence number (unique).
    pub seq: u64,
    /// Owning tenant id (`u32::MAX` for host events such as `Defrag`).
    pub tenant: u32,
    /// Payload.
    pub kind: EventKind,
}

impl crate::queue::Keyed for Event {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Tenant id used for host-initiated events.
pub const HOST_TENANT: u32 = u32::MAX;

/// A full churn scenario: host config + distributions + checking policy.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Hypervisor boot configuration.
    pub config: SilozConfig,
    /// Admission placement strategy.
    pub strategy: PlacementStrategy,
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Events to pre-generate (departures come on top, at runtime).
    pub target_events: u32,
    /// Mean inter-arrival gap in ticks (exponential).
    pub mean_interarrival: f64,
    /// Mean VM lifetime in ticks (exponential).
    pub mean_lifetime: f64,
    /// Smallest VM RAM request, bytes.
    pub vm_bytes_min: u64,
    /// Largest VM RAM request, bytes (log-uniform between min and max).
    pub vm_bytes_max: u64,
    /// vCPUs drawn uniformly from `1..=max_vcpus`.
    pub max_vcpus: u32,
    /// Probability an arriving VM schedules a growth burst.
    pub expand_prob: f64,
    /// Growth burst size as a fraction of the original request.
    pub expand_frac: f64,
    /// Workload slices scheduled per VM.
    pub slices_per_vm: u32,
    /// Memory operations per slice.
    pub slice_ops: u32,
    /// Working-set bytes a slice touches (must be ≤ `vm_bytes_min`).
    pub slice_working_set: u64,
    /// Ticks between defragmentation sweeps (0 disables them).
    pub defrag_period: u64,
    /// Blocks migrated per defragmentation sweep.
    pub defrag_per_sweep: u32,
    /// Probability an arriving VM turns aggressor mid-life.
    pub attack_prob: f64,
    /// Extra nanoseconds attack campaigns hold aggressor rows open beyond
    /// the nominal tRAS (RowPress dwell, §2.5). 0 is classic Rowhammer;
    /// large values amplify per-ACT disturbance so rows can flip *below*
    /// ACT-counting blacklist thresholds — the arena uses this to probe
    /// throttling defenses' blind spot.
    pub attack_open_ns: u64,
    /// Whether the host answers attacks with a Copy-on-Flip pass for a
    /// colocated victim (§3).
    pub copy_on_flip: bool,
    /// Cap on blocks migrated per Copy-on-Flip response.
    pub cof_max_migrations: usize,
    /// Deferred-admission queue capacity (oldest request is abandoned when
    /// it overflows).
    pub defer_cap: usize,
    /// Boundary-checking policy.
    pub check: CheckMode,
    /// Events between full isolation proofs in incremental mode.
    pub proof_period: u32,
    /// The RowHammer defense the host deploys. [`mitigation::Backend::Siloz`]
    /// (the default) boots the Siloz hypervisor and proves domain isolation;
    /// `None` and the controller-level rivals boot the shared baseline, with
    /// rivals installing their per-ACT hook into attack campaigns.
    pub mitigation: mitigation::Backend,
}

impl Scenario {
    /// A small scenario on the mini machine (1 GiB, 7 guest groups): ~2k
    /// pre-generated events with enough memory pressure to exercise
    /// rejection, deferral, and defragmentation. The `scripts/check.sh`
    /// hard gate.
    #[must_use]
    pub fn quick(seed: u64, strategy: PlacementStrategy) -> Self {
        Self {
            config: SilozConfig::mini(),
            strategy,
            seed,
            target_events: 2_000,
            mean_interarrival: 40.0,
            mean_lifetime: 300.0,
            vm_bytes_min: 32 << 20,
            vm_bytes_max: 160 << 20,
            max_vcpus: 4,
            expand_prob: 0.25,
            expand_frac: 0.5,
            slices_per_vm: 2,
            slice_ops: 1_500,
            slice_working_set: 4 << 20,
            defrag_period: 300,
            defrag_per_sweep: 4,
            attack_prob: 0.03,
            attack_open_ns: 0,
            copy_on_flip: true,
            cof_max_migrations: 4,
            defer_cap: 16,
            check: CheckMode::Incremental,
            proof_period: 250,
            mitigation: mitigation::Backend::Siloz,
        }
    }

    /// The full soak scenario on the evaluation machine (Table 2): ≥5k
    /// pre-generated events, 768 MiB–3 GiB VMs across two sockets.
    #[must_use]
    pub fn soak(seed: u64, strategy: PlacementStrategy) -> Self {
        Self {
            config: SilozConfig::evaluation(),
            strategy,
            seed,
            target_events: 5_000,
            mean_interarrival: 30.0,
            mean_lifetime: 600.0,
            vm_bytes_min: 768 << 20,
            vm_bytes_max: 3 << 30,
            max_vcpus: 8,
            expand_prob: 0.2,
            expand_frac: 0.5,
            slices_per_vm: 2,
            slice_ops: 2_000,
            slice_working_set: 8 << 20,
            defrag_period: 400,
            defrag_per_sweep: 4,
            attack_prob: 0.008,
            attack_open_ns: 0,
            copy_on_flip: true,
            cof_max_migrations: 4,
            defer_cap: 32,
            check: CheckMode::Incremental,
            proof_period: 500,
            mitigation: mitigation::Backend::Siloz,
        }
    }
}

/// Samples an exponential with the given mean via inversion.
pub fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// Samples a log-uniform VM size in `[min, max]`, rounded up to 2 MiB.
pub fn vm_size<R: Rng>(rng: &mut R, min: u64, max: u64) -> u64 {
    let r: f64 = rng.gen();
    let ratio = max as f64 / min as f64;
    let raw = (min as f64 * ratio.powf(r)) as u64;
    let rounded = raw.div_ceil(HUGE_PAGE_BYTES) * HUGE_PAGE_BYTES;
    rounded.clamp(min, max)
}

/// Expands a scenario into its pre-generated event list, sorted by
/// `(at, seq)`. Returns the events and the next free sequence number (the
/// engine keeps numbering from there for dynamically scheduled events).
///
/// Arrivals form a Poisson process (exponential inter-arrival gaps); each
/// arrival may carry follow-on events (growth burst, workload slices, an
/// attack) placed at fractions of its nominal lifetime. Host
/// defragmentation sweeps tick at a fixed period across the horizon.
#[must_use]
pub fn generate_trace(s: &Scenario) -> (Vec<Event>, u64) {
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut events: Vec<Event> = Vec::new();
    let mut seq = 0u64;
    let mut clock = 0.0f64;
    let mut tenant = 0u32;
    while events.len() < s.target_events as usize {
        clock += exp_sample(&mut rng, s.mean_interarrival);
        let at = clock as u64;
        let mem_bytes = vm_size(&mut rng, s.vm_bytes_min, s.vm_bytes_max);
        let vcpus = rng.gen_range(1..=s.max_vcpus);
        let lifetime = exp_sample(&mut rng, s.mean_lifetime) as u64 + 1;
        events.push(Event {
            at,
            seq,
            tenant,
            kind: EventKind::Arrive {
                mem_bytes,
                vcpus,
                lifetime,
            },
        });
        seq += 1;
        if rng.gen_bool(s.expand_prob) {
            let frac: f64 = rng.gen_range(0.3..0.8);
            let raw = (mem_bytes as f64 * s.expand_frac) as u64;
            let extra_bytes = raw.div_ceil(HUGE_PAGE_BYTES).max(1) * HUGE_PAGE_BYTES;
            events.push(Event {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                tenant,
                kind: EventKind::Expand { extra_bytes },
            });
            seq += 1;
        }
        for _ in 0..s.slices_per_vm {
            let frac: f64 = rng.gen_range(0.05..0.95);
            events.push(Event {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                tenant,
                kind: EventKind::Slice { ops: s.slice_ops },
            });
            seq += 1;
        }
        if rng.gen_bool(s.attack_prob) {
            let frac: f64 = rng.gen_range(0.2..0.9);
            events.push(Event {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                tenant,
                kind: EventKind::Attack,
            });
            seq += 1;
        }
        tenant += 1;
    }
    if s.defrag_period > 0 {
        let horizon = events.iter().map(|e| e.at).max().unwrap_or(0);
        let mut at = s.defrag_period;
        while at <= horizon {
            events.push(Event {
                at,
                seq,
                tenant: HOST_TENANT,
                kind: EventKind::Defrag,
            });
            seq += 1;
            at += s.defrag_period;
        }
    }
    events.sort_by_key(|e| (e.at, e.seq));
    (events, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_generation_is_deterministic() {
        let s = Scenario::quick(7, PlacementStrategy::FirstFit);
        let (a, na) = generate_trace(&s);
        let (b, nb) = generate_trace(&s);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        assert!(a.len() >= s.target_events as usize);
    }

    #[test]
    fn trace_is_sorted_with_unique_seqs() {
        let (events, next) = generate_trace(&Scenario::quick(3, PlacementStrategy::BestFit));
        let mut seen = std::collections::BTreeSet::new();
        for w in events.windows(2) {
            assert!((w[0].at, w[0].seq) < (w[1].at, w[1].seq));
        }
        for e in &events {
            assert!(e.seq < next);
            assert!(seen.insert(e.seq), "duplicate seq {}", e.seq);
        }
    }

    #[test]
    fn vm_sizes_are_huge_page_aligned_and_bounded() {
        let s = Scenario::quick(11, PlacementStrategy::FirstFit);
        let (events, _) = generate_trace(&s);
        let mut arrivals = 0;
        for e in &events {
            if let EventKind::Arrive { mem_bytes, .. } = e.kind {
                arrivals += 1;
                assert_eq!(mem_bytes % HUGE_PAGE_BYTES, 0);
                assert!(mem_bytes >= s.vm_bytes_min && mem_bytes <= s.vm_bytes_max);
            }
        }
        assert!(arrivals > 100, "quick scenario must churn many tenants");
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = generate_trace(&Scenario::quick(1, PlacementStrategy::FirstFit)).0;
        let b = generate_trace(&Scenario::quick(2, PlacementStrategy::FirstFit)).0;
        assert_ne!(a, b);
    }
}
