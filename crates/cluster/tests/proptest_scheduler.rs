//! Property test (indexed/oracle scheduler equivalence): the indexed
//! scheduler — one ordered set of hosts by free groups plus one by
//! affinity-class occupancy — must be *bit-identical* to the retained
//! linear-scan oracle, not merely "a valid pick". For arbitrary
//! interleavings of place / release / migrate / audit, under every policy:
//!
//! - both schedulers return the same host (or both reject) at every
//!   placement, including migrations that exclude the current host,
//! - their per-host free-group and live-sandbox estimates never diverge,
//! - their counters (placements, rejects, affinity hits) march in
//!   lockstep,
//! - both audits agree with an independently tracked occupancy model
//!   (and with each other) after every step,
//! - `can_fit` answers identically — the pending-queue short-circuit
//!   can never skip a retry the oracle would have attempted.

use cluster::{ClusterPolicy, ClusterScheduler};
use proptest::prelude::*;

const GROUP_BYTES: u64 = 128 << 20;

/// One randomized scheduler operation, in a replayable form.
#[derive(Debug, Clone)]
enum Op {
    /// Place a sandbox: affinity class, size in groups.
    Place { affinity: u32, groups: u64 },
    /// Release the n-th oldest live sandbox (modulo live count).
    Release { nth: usize },
    /// Migrate the n-th oldest live sandbox off its current host.
    Migrate { nth: usize },
    /// Audit every host against the tracked occupancy model.
    Audit,
}

/// Weighted op mix (4:2:1:1 place:release:migrate:audit), encoded as a
/// tuple draw — the vendored proptest has no `prop_oneof`.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..8, 0u32..6, 1u64..6, 0usize..64).prop_map(|(kind, affinity, groups, nth)| match kind {
        0..=3 => Op::Place { affinity, groups },
        4 | 5 => Op::Release { nth },
        6 => Op::Migrate { nth },
        _ => Op::Audit,
    })
}

/// A placed sandbox the test remembers so it can release or migrate it.
#[derive(Debug, Clone, Copy)]
struct Live {
    host: usize,
    affinity: u32,
    bytes: u64,
}

/// Independently tracked per-host occupancy: the ground truth both
/// audits are checked against.
#[derive(Debug, Clone, Copy)]
struct Truth {
    free: i64,
    live: u32,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_and_oracle_schedulers_stay_in_lockstep(
        host_caps in prop::collection::vec(1i64..12, 2..10),
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        for policy in ClusterPolicy::ALL {
            let mut indexed = ClusterScheduler::new(policy, GROUP_BYTES, &host_caps);
            let mut oracle = ClusterScheduler::new_oracle(policy, GROUP_BYTES, &host_caps);
            prop_assert!(indexed.is_indexed());
            prop_assert!(!oracle.is_indexed());

            let mut truth: Vec<Truth> = host_caps
                .iter()
                .map(|&free| Truth { free, live: 0 })
                .collect();
            let mut live: Vec<Live> = Vec::new();

            for op in &ops {
                match *op {
                    Op::Place { affinity, groups } => {
                        let bytes = groups * GROUP_BYTES;
                        let need = groups as i64;
                        prop_assert_eq!(
                            indexed.can_fit(need),
                            oracle.can_fit(need),
                            "{policy:?} can_fit({need}) diverged"
                        );
                        let a = indexed.place(affinity, bytes, None);
                        let b = oracle.place(affinity, bytes, None);
                        prop_assert_eq!(a, b, "{policy:?} place diverged");
                        if let Some(host) = a {
                            truth[host].free -= need;
                            truth[host].live += 1;
                            live.push(Live { host, affinity, bytes });
                        }
                    }
                    Op::Release { nth } => {
                        if live.is_empty() {
                            continue;
                        }
                        let victim = live.remove(nth % live.len());
                        indexed.release(victim.host, victim.affinity, victim.bytes);
                        oracle.release(victim.host, victim.affinity, victim.bytes);
                        let need = indexed.groups_needed(victim.bytes);
                        truth[victim.host].free += need;
                        truth[victim.host].live -= 1;
                    }
                    Op::Migrate { nth } => {
                        if live.is_empty() {
                            continue;
                        }
                        let slot = nth % live.len();
                        let src = live[slot];
                        let a = indexed.place(src.affinity, src.bytes, Some(src.host));
                        let b = oracle.place(src.affinity, src.bytes, Some(src.host));
                        prop_assert_eq!(a, b, "{policy:?} migrate pick diverged");
                        if let Some(dst) = a {
                            // Admitted on the target: tear down the source
                            // claim, exactly as the cluster engine does.
                            indexed.release(src.host, src.affinity, src.bytes);
                            oracle.release(src.host, src.affinity, src.bytes);
                            let need = indexed.groups_needed(src.bytes);
                            truth[dst].free -= need;
                            truth[dst].live += 1;
                            truth[src.host].free += need;
                            truth[src.host].live -= 1;
                            live[slot].host = dst;
                        }
                    }
                    Op::Audit => {
                        for (host, t) in truth.iter().enumerate() {
                            let a = indexed.audit(host, t.free, t.live);
                            let b = oracle.audit(host, t.free, t.live);
                            prop_assert_eq!(&a, &b, "{policy:?} audit diverged");
                            prop_assert!(
                                a.is_empty(),
                                "{policy:?} host {host} drifted from truth: {a:?}"
                            );
                        }
                    }
                }
                // Estimates and counters must match after *every* step,
                // not just at audit points.
                for host in 0..truth.len() {
                    prop_assert_eq!(
                        indexed.est_free_groups(host),
                        oracle.est_free_groups(host)
                    );
                    prop_assert_eq!(indexed.est_live(host), oracle.est_live(host));
                }
                prop_assert_eq!(indexed.placements, oracle.placements);
                prop_assert_eq!(indexed.placement_rejects, oracle.placement_rejects);
                prop_assert_eq!(indexed.affinity_hits, oracle.affinity_hits);
            }

            // Drain everything and confirm both schedulers return to the
            // boot-time free map — and still agree with the truth model.
            for victim in live.drain(..) {
                indexed.release(victim.host, victim.affinity, victim.bytes);
                oracle.release(victim.host, victim.affinity, victim.bytes);
            }
            for (host, &cap) in host_caps.iter().enumerate() {
                prop_assert_eq!(indexed.est_free_groups(host), cap);
                prop_assert_eq!(oracle.est_free_groups(host), cap);
                prop_assert_eq!(indexed.est_live(host), 0);
                prop_assert!(indexed.audit(host, cap, 0).is_empty());
                prop_assert!(oracle.audit(host, cap, 0).is_empty());
            }
        }
    }
}
