//! Cluster scenario model: seeded stochastic generation of
//! datacenter-scale sandbox lifecycle traces.
//!
//! A [`ClusterScenario`] fixes the fleet size, the per-host
//! configuration, the [`ClusterPolicy`], and the distributions;
//! [`generate_cluster_trace`] expands it into a deterministic
//! cluster-level event list. Sandbox departures are *not* pre-generated:
//! the engine schedules each one at placement time (`placed_at +
//! lifetime`), so a sandbox parked in the pending queue still gets its
//! full lifetime once capacity frees up — and a migrated sandbox keeps
//! its original departure tick, because migration moves the claim, not
//! the lease.

use crate::scheduler::ClusterPolicy;
use fleet::events::{exp_sample, vm_size};
use fleet::{CheckMode, Scenario};
use numa::PlacementStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siloz::SilozConfig;

/// Sandboxes per affinity class (`sandbox id % AFFINITY_CLASSES`): the
/// co-location key the socket-affine cluster policy groups by.
pub const AFFINITY_CLASSES: u32 = 16;

/// What happens at a cluster event boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterEventKind {
    /// A sandbox requests placement somewhere in the fleet.
    Arrive {
        /// Requested guest RAM in bytes (2 MiB-aligned).
        mem_bytes: u64,
        /// Requested vCPUs.
        vcpus: u32,
        /// Lease in ticks: the departure fires this long after the first
        /// placement the scheduler attempts, wherever the sandbox is then.
        lifetime: u64,
    },
    /// The sandbox's VM is destroyed on its current host (scheduled
    /// dynamically at placement).
    Depart,
    /// The scheduler moves the sandbox to another host: depart from the
    /// current host, re-admit on the destination under a fresh domain
    /// claim, re-bind its compiled trace there.
    Migrate,
    /// The sandbox runs a workload slice on its current host.
    Slice {
        /// Memory operations in the slice.
        ops: u32,
    },
    /// The sandbox turns aggressor on its current host.
    Attack,
}

/// One cluster-level event. Ordered by `(at, seq)`; `seq` is global
/// generation order, which breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEvent {
    /// Virtual time (ticks, shared by every host).
    pub at: u64,
    /// Tie-breaking sequence number (unique).
    pub seq: u64,
    /// The sandbox this event concerns. Sandbox ids double as fleet
    /// tenant ids on whichever host the sandbox currently occupies.
    pub sandbox: u32,
    /// Payload.
    pub kind: ClusterEventKind,
}

impl fleet::queue::Keyed for ClusterEvent {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// A full cluster scenario: fleet shape + distributions + checking
/// policy.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Simulated hosts in the fleet.
    pub hosts: u32,
    /// Boot configuration of every host.
    pub host_config: SilozConfig,
    /// Cluster-level placement policy.
    pub policy: ClusterPolicy,
    /// Host-level admission placement strategy.
    pub host_strategy: PlacementStrategy,
    /// Master seed. Shared by every host engine so guest traces are
    /// host-independent (a migrated sandbox replays the same ledger);
    /// each host additionally derives its own private RNG stream from it
    /// for host-local decisions.
    pub seed: u64,
    /// Sandboxes to pre-generate arrivals for.
    pub target_sandboxes: u32,
    /// Mean inter-arrival gap in ticks, cluster-wide (exponential).
    pub mean_interarrival: f64,
    /// Mean sandbox lifetime in ticks (exponential).
    pub mean_lifetime: f64,
    /// Smallest sandbox RAM request, bytes.
    pub vm_bytes_min: u64,
    /// Largest sandbox RAM request, bytes (log-uniform between min and
    /// max).
    pub vm_bytes_max: u64,
    /// vCPUs drawn uniformly from `1..=max_vcpus`.
    pub max_vcpus: u32,
    /// Workload slices scheduled per sandbox.
    pub slices_per_sandbox: u32,
    /// Memory operations per slice.
    pub slice_ops: u32,
    /// Working-set bytes a slice touches (must be ≤ `vm_bytes_min`).
    pub slice_working_set: u64,
    /// Probability a sandbox migrates to another host mid-life.
    pub migrate_prob: f64,
    /// Probability a sandbox turns aggressor mid-life.
    pub attack_prob: f64,
    /// Ticks per cluster barrier epoch: hosts run independently inside an
    /// epoch and merge deterministically at its end.
    pub epoch_ticks: u64,
    /// Epochs between cluster-wide sync proofs (per-host §4.1 full proof
    /// on every touched host + scheduler-vs-hypervisor consistency).
    /// 0 disables mid-run sync proofs (the final one always runs).
    pub sync_period: u32,
    /// Epochs between host defragmentation sweeps, jittered per host from
    /// its private RNG stream (0 disables them).
    pub defrag_period_epochs: u32,
    /// Blocks migrated per defragmentation sweep.
    pub defrag_per_sweep: u32,
    /// Whether the scheduler answers picks from its sublinear indexes
    /// (`true`, the default) or from the retained linear-scan oracle
    /// (`false`; the equivalence battery flips this — outcomes are
    /// bit-identical either way, only speed differs).
    pub indexed_scheduler: bool,
    /// Per-host boundary-checking policy.
    pub check: CheckMode,
    /// Host events between host-internal full proofs (incremental mode).
    pub proof_period: u32,
    /// The RowHammer defense every host deploys.
    pub mitigation: mitigation::Backend,
}

impl ClusterScenario {
    /// A small fleet on mini hosts (16 × 1 GiB, 7 guest groups each) with
    /// enough churn, pressure, and migration to exercise every scheduler
    /// path in seconds. The `scripts/check.sh` hard gate.
    #[must_use]
    pub fn quick(seed: u64, policy: ClusterPolicy) -> Self {
        Self {
            hosts: 16,
            host_config: SilozConfig::mini(),
            policy,
            host_strategy: PlacementStrategy::FirstFit,
            seed,
            target_sandboxes: 1_200,
            mean_interarrival: 1.0,
            mean_lifetime: 48.0,
            vm_bytes_min: 32 << 20,
            vm_bytes_max: 256 << 20,
            max_vcpus: 4,
            slices_per_sandbox: 2,
            slice_ops: 128,
            slice_working_set: 1 << 20,
            migrate_prob: 0.2,
            attack_prob: 0.01,
            epoch_ticks: 64,
            sync_period: 4,
            defrag_period_epochs: 8,
            defrag_per_sweep: 2,
            indexed_scheduler: true,
            check: CheckMode::Incremental,
            proof_period: 200,
            mitigation: mitigation::Backend::Siloz,
        }
    }

    /// The full datacenter soak: 256 mini hosts, 168k sandboxes, ≥1M
    /// guest lifecycle events, one in five sandboxes migrating mid-life.
    #[must_use]
    pub fn soak(seed: u64, policy: ClusterPolicy) -> Self {
        Self {
            hosts: 256,
            host_config: SilozConfig::mini(),
            policy,
            host_strategy: PlacementStrategy::FirstFit,
            seed,
            target_sandboxes: 168_000,
            mean_interarrival: 1.0,
            mean_lifetime: 700.0,
            vm_bytes_min: 32 << 20,
            vm_bytes_max: 384 << 20,
            max_vcpus: 4,
            slices_per_sandbox: 2,
            slice_ops: 192,
            slice_working_set: 1 << 20,
            migrate_prob: 0.2,
            attack_prob: 0.002,
            epoch_ticks: 256,
            sync_period: 64,
            defrag_period_epochs: 32,
            defrag_per_sweep: 2,
            indexed_scheduler: true,
            check: CheckMode::Incremental,
            proof_period: 400,
            mitigation: mitigation::Backend::Siloz,
        }
    }

    /// The thousands-of-hosts tier: the soak's per-host pressure on a
    /// fleet of `hosts` mini hosts.
    /// Arrivals accelerate linearly with fleet size so cluster-wide
    /// utilization — and the head-of-line churn the scheduler indexes
    /// must absorb — matches the 256-host soak. Per-sandbox guest work
    /// is slimmed (32 sandboxes per host, one short slice each, a
    /// handful of attack campaigns per run regardless of fleet size):
    /// DRAM-level behaviour is already proven by the quick/full tiers,
    /// and at 4096 hosts the tier exists to stress scheduling, not row
    /// buffers. `cluster_soak --scale N` drives it.
    #[must_use]
    pub fn scale(seed: u64, policy: ClusterPolicy, hosts: u32) -> Self {
        let hosts = hosts.max(1);
        let mut s = Self::soak(seed, policy);
        s.hosts = hosts;
        s.target_sandboxes = hosts.saturating_mul(32);
        // Soak steady state: ~700 live sandboxes across 256 hosts. Keep
        // the per-host density by shrinking the inter-arrival gap as the
        // fleet grows.
        s.mean_interarrival = 256.0 / f64::from(hosts);
        s.epoch_ticks = 128;
        s.sync_period = 16;
        s.slices_per_sandbox = 1;
        s.slice_ops = 48;
        s.attack_prob = 3.0 / f64::from(s.target_sandboxes);
        s
    }

    /// The per-host engine scenario this cluster scenario induces: the
    /// shared master seed (so guest traces are host-independent and the
    /// shared [`sim::TraceCache`] deduplicates ledgers across hosts), an
    /// empty pre-generated trace (the cluster drives every lifecycle
    /// event), and the cluster's slice/check knobs.
    #[must_use]
    pub fn host_scenario(&self) -> Scenario {
        let mut s = Scenario::quick(self.seed, self.host_strategy);
        s.config = self.host_config.clone();
        s.target_events = 0;
        s.defrag_period = 0;
        s.defrag_per_sweep = self.defrag_per_sweep;
        s.slice_ops = self.slice_ops;
        s.slice_working_set = self.slice_working_set;
        s.attack_prob = 0.0;
        s.attack_open_ns = 0;
        s.copy_on_flip = false;
        s.check = self.check;
        s.proof_period = self.proof_period;
        s.mitigation = self.mitigation;
        s
    }
}

/// Expands a cluster scenario into its pre-generated event list, sorted
/// by `(at, seq)`. Returns the events and the next free sequence number
/// (the engine numbers dynamically scheduled departures from there).
///
/// Arrivals form a cluster-wide Poisson process; each sandbox may carry
/// follow-on events — workload slices, at most one migration, at most
/// one attack — placed at fractions of its nominal lifetime.
#[must_use]
pub fn generate_cluster_trace(s: &ClusterScenario) -> (Vec<ClusterEvent>, u64) {
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut events: Vec<ClusterEvent> = Vec::new();
    let mut seq = 0u64;
    let mut clock = 0.0f64;
    for sandbox in 0..s.target_sandboxes {
        clock += exp_sample(&mut rng, s.mean_interarrival);
        let at = clock as u64;
        let mem_bytes = vm_size(&mut rng, s.vm_bytes_min, s.vm_bytes_max);
        let vcpus = rng.gen_range(1..=s.max_vcpus);
        let lifetime = exp_sample(&mut rng, s.mean_lifetime) as u64 + 1;
        events.push(ClusterEvent {
            at,
            seq,
            sandbox,
            kind: ClusterEventKind::Arrive {
                mem_bytes,
                vcpus,
                lifetime,
            },
        });
        seq += 1;
        for _ in 0..s.slices_per_sandbox {
            let frac: f64 = rng.gen_range(0.05..0.95);
            events.push(ClusterEvent {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                sandbox,
                kind: ClusterEventKind::Slice { ops: s.slice_ops },
            });
            seq += 1;
        }
        if rng.gen_bool(s.migrate_prob) {
            let frac: f64 = rng.gen_range(0.2..0.8);
            events.push(ClusterEvent {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                sandbox,
                kind: ClusterEventKind::Migrate,
            });
            seq += 1;
        }
        if rng.gen_bool(s.attack_prob) {
            let frac: f64 = rng.gen_range(0.2..0.9);
            events.push(ClusterEvent {
                at: at + (lifetime as f64 * frac) as u64,
                seq,
                sandbox,
                kind: ClusterEventKind::Attack,
            });
            seq += 1;
        }
    }
    events.sort_by_key(|e| (e.at, e.seq));
    (events, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_trace_generation_is_deterministic() {
        let s = ClusterScenario::quick(7, ClusterPolicy::Spread);
        let (a, na) = generate_cluster_trace(&s);
        let (b, nb) = generate_cluster_trace(&s);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        let arrivals = a
            .iter()
            .filter(|e| matches!(e.kind, ClusterEventKind::Arrive { .. }))
            .count();
        assert_eq!(arrivals, s.target_sandboxes as usize);
    }

    #[test]
    fn cluster_trace_is_sorted_with_unique_seqs() {
        let (events, next) =
            generate_cluster_trace(&ClusterScenario::quick(3, ClusterPolicy::BinPack));
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
    fn cluster_events_order_by_at_then_seq_in_the_shared_queue() {
        let ev = |at, seq| ClusterEvent {
            at,
            seq,
            sandbox: 0,
            kind: ClusterEventKind::Migrate,
        };
        let mut q = fleet::EventQueue::new(vec![ev(10, 0), ev(3, 1)], 2);
        q.push(|seq| ev(3, seq));
        assert_eq!(q.peek().map(|e| (e.at, e.seq)), Some((3, 1)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at, e.seq))
            .collect();
        assert_eq!(order, [(3, 1), (3, 2), (10, 0)]);
    }

    #[test]
    fn migrations_ride_a_fifth_of_sandboxes() {
        let s = ClusterScenario::quick(11, ClusterPolicy::Spread);
        let (events, _) = generate_cluster_trace(&s);
        let migrates = events
            .iter()
            .filter(|e| e.kind == ClusterEventKind::Migrate)
            .count();
        let lo = (s.target_sandboxes as f64 * s.migrate_prob * 0.5) as usize;
        let hi = (s.target_sandboxes as f64 * s.migrate_prob * 1.5) as usize;
        assert!(
            (lo..=hi).contains(&migrates),
            "migrate events {migrates} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn host_scenario_is_externally_driven() {
        let s = ClusterScenario::quick(5, ClusterPolicy::SocketAffine);
        let hs = s.host_scenario();
        assert_eq!(hs.target_events, 0, "the cluster owns every event");
        assert_eq!(hs.defrag_period, 0, "defrag is cluster-jittered");
        assert_eq!(hs.seed, s.seed, "hosts share the master seed");
        let (events, next) = fleet::generate_trace(&hs);
        assert!(events.is_empty());
        assert_eq!(next, 0);
    }

    #[test]
    fn different_seeds_give_different_cluster_traces() {
        let a = generate_cluster_trace(&ClusterScenario::quick(1, ClusterPolicy::Spread)).0;
        let b = generate_cluster_trace(&ClusterScenario::quick(2, ClusterPolicy::Spread)).0;
        assert_ne!(a, b);
    }
}
