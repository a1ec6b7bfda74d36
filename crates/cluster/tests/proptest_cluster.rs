//! Property test (cluster scheduling invariants): for *arbitrary*
//! cluster scenarios — fleet shape, churn, sandbox sizes, migration and
//! sync cadence all randomized — under *every* cluster policy:
//!
//! - the scheduler never over-commits a host (its capacity estimates
//!   stay non-negative and equal to hypervisor occupancy),
//! - every live sandbox runs on exactly one host (the cluster's
//!   placement records match each host's live tenant set),
//! - the per-host §4.1 proof passes mid-run — while sandboxes are live
//!   and migrating — and again after the trace drains,
//! - the drained fleet holds zero domain claims.
//!
//! The suite runs in the debug profile, so the conservation
//! `debug_assert!`s inside `ClusterSim::transition` execute on every
//! lifecycle step of every drawn scenario.

use cluster::{ClusterPolicy, ClusterScenario, ClusterSim};
use proptest::prelude::*;
use siloz::SilozConfig;

/// A randomized small cluster: no attacks (hammer campaigns cost ~0.5 s
/// each and prove nothing about scheduling), short lifetimes so
/// departures and pending-queue churn actually happen. Two host shapes:
/// many mini hosts under MiB-sized sandboxes, or (`big_hosts`) two
/// two-socket evaluation hosts under GiB-sized ones — there the scheduler
/// counts a host's free groups across both sockets while the hypervisor
/// wants one socket per VM, so hosts refuse admits the scheduler placed
/// and the Running → Pending rollback is drawn too.
#[allow(clippy::too_many_arguments)]
fn scenario(
    seed: u64,
    policy: ClusterPolicy,
    hosts: u32,
    sandboxes: u32,
    lifetime: f64,
    vm_max_mib: u64,
    migrate_prob: f64,
    epoch_ticks: u64,
    sync_period: u32,
    big_hosts: bool,
) -> ClusterScenario {
    let mut s = ClusterScenario::quick(seed, policy);
    s.hosts = hosts;
    s.target_sandboxes = sandboxes;
    s.mean_lifetime = lifetime;
    s.vm_bytes_min = 16 << 20;
    s.vm_bytes_max = vm_max_mib << 20;
    if big_hosts {
        s.host_config = SilozConfig::evaluation();
        s.hosts = 2;
        s.target_sandboxes = sandboxes / 2;
        s.mean_lifetime = lifetime * 4.0;
        s.vm_bytes_min = 8 << 30;
        s.vm_bytes_max = (vm_max_mib / 3) << 30;
    }
    s.slices_per_sandbox = 1;
    s.slice_ops = 32;
    s.migrate_prob = migrate_prob;
    s.attack_prob = 0.0;
    s.epoch_ticks = epoch_ticks;
    s.sync_period = sync_period;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_scenarios_stay_consistent_under_every_policy(
        seed in 0u64..1_000,
        hosts in 3u32..8,
        sandboxes in 30u32..120,
        lifetime_ticks in 8u64..120,
        vm_max_mib in 32u64..320,
        migrate_pct in 0u32..50,
        epoch_ticks in 16u64..128,
        sync_period in 0u32..6,
        threads in 1u32..3,
        big_hosts in any::<bool>(),
    ) {
        let lifetime = lifetime_ticks as f64;
        let migrate_prob = f64::from(migrate_pct) / 100.0;
        let threads = threads as usize;
        for policy in ClusterPolicy::ALL {
            let s = scenario(
                seed, policy, hosts, sandboxes, lifetime, vm_max_mib,
                migrate_prob, epoch_ticks, sync_period, big_hosts,
            );
            let mut sim = ClusterSim::new(s, threads).expect("boot");

            // Mid-run: drive a prefix of the trace, then prove and audit
            // while sandboxes are live.
            let mut epochs = 0;
            while !sim.is_done() && epochs < 6 {
                sim.step_epoch().expect("epoch");
                epochs += 1;
            }
            sim.prove_hosts();
            let issues = sim.verify_cluster();
            prop_assert!(issues.is_empty(), "{policy:?} mid-run: {issues:?}");
            prop_assert_eq!(sim.stats().cluster_violations, 0);
            for host in 0..sim.scheduler().hosts() {
                prop_assert!(
                    sim.scheduler().est_free_groups(host) >= 0,
                    "{policy:?}: host {host} over-committed"
                );
            }

            // End: drain, re-prove, and check the fleet emptied cleanly.
            let report = sim.run_to_completion().expect("drain");
            prop_assert!(
                report.clean(),
                "{policy:?}: {:?}",
                report.violation_samples
            );
            prop_assert_eq!(report.final_live, 0);
            prop_assert_eq!(report.groups_claimed, 0, "claims must drain");
            prop_assert_eq!(
                report.sandboxes,
                report.departures + report.abandoned_pending,
                "every sandbox departed or was abandoned"
            );
            prop_assert!(
                report.placements >= u64::from(report.sandboxes as u32)
                    - report.abandoned_pending,
                "every non-abandoned sandbox was placed"
            );
            let end_issues = sim.verify_cluster();
            prop_assert!(end_issues.is_empty(), "{policy:?} end: {end_issues:?}");
        }
    }
}
