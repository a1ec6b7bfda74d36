//! Externally-driven migration and the incremental §4.1 prover.
//!
//! A cluster scheduler migrates a sandbox by calling
//! [`FleetSim::depart_external`] on the source host and
//! [`FleetSim::admit_external`] on the destination. These tests pin the
//! regression the cluster engine depends on: the external hooks must
//! maintain the incremental checker's state — ownership map and the
//! tenant's cached claims — exactly like the internal arrival/departure events
//! do, so a migration costs boundary checks, never a forced full proof,
//! and a shared [`sim::TraceCache`] lets the destination re-bind the
//! guest's compiled ledger instead of recompiling it.

use fleet::{CheckMode, EventKind, FleetSim, PendingVm, Scenario};
use numa::PlacementStrategy;
use std::sync::Arc;

/// An externally-driven host: empty internal trace, incremental
/// checking, no periodic full proofs (so any full proof in the test is
/// one the test asked for), no host-local noise.
fn host_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed, PlacementStrategy::FirstFit);
    s.target_events = 0;
    s.defrag_period = 0;
    s.attack_prob = 0.0;
    s.copy_on_flip = false;
    s.slice_ops = 96;
    s.slice_working_set = 1 << 20;
    s.check = CheckMode::Incremental;
    s.proof_period = 1_000_000;
    s
}

fn vm(tenant: u32) -> PendingVm {
    PendingVm {
        tenant,
        mem_bytes: 64 << 20,
        vcpus: 2,
        lifetime: 1_000,
    }
}

#[test]
fn migration_is_depart_plus_admit_and_stays_incremental() {
    let cache = Arc::new(sim::TraceCache::new());
    let mut src = FleetSim::new(host_scenario(41)).unwrap();
    let mut dst = FleetSim::new(host_scenario(41)).unwrap();
    src.set_trace_cache(Arc::clone(&cache));
    dst.set_trace_cache(Arc::clone(&cache));

    let tenant = 7u32;
    src.admit_external(vm(tenant)).unwrap().expect("admitted");
    src.inject(10, tenant, EventKind::Slice { ops: 96 });
    src.step_until(10).unwrap();
    assert_eq!(src.stats().slices, 1);
    assert_eq!(src.stats().ledger_compiles, 1, "first slice compiles");

    let checks_before = (
        src.stats().incremental_checks,
        dst.stats().incremental_checks,
    );
    let proofs_before = (src.stats().full_proofs, dst.stats().full_proofs);

    // The migration itself: depart on the source, re-admit on the
    // destination under a fresh domain claim.
    assert!(src.depart_external(tenant).unwrap(), "tenant was live");
    assert!(!src.is_live(tenant));
    dst.admit_external(vm(tenant))
        .unwrap()
        .expect("re-admitted");
    assert!(dst.is_live(tenant));
    assert_eq!(dst.live_tenants(), vec![tenant]);

    // Incremental: the re-admission ran a boundary check on the
    // destination; neither host was forced into a full proof.
    assert_eq!(
        (src.stats().full_proofs, dst.stats().full_proofs),
        proofs_before,
        "migration must not force a full proof"
    );
    assert_eq!(src.stats().incremental_checks, checks_before.0);
    assert!(
        dst.stats().incremental_checks > checks_before.1,
        "re-admission must run the boundary check"
    );

    // The destination re-binds the compiled ledger from the shared
    // cache: one compile fleet-wide, two binds.
    dst.inject(20, tenant, EventKind::Slice { ops: 96 });
    dst.step_until(20).unwrap();
    assert_eq!(dst.stats().slices, 1);
    assert_eq!(
        src.stats().ledger_compiles + dst.stats().ledger_compiles,
        1,
        "migrated guest must re-bind, not recompile"
    );
    assert_eq!(dst.stats().program_binds, 1);

    // A second slice on an unchanged destination tenant rides the
    // clean-tenant fast path.
    let fast_before = dst.stats().incremental_fast_checks;
    dst.inject(30, tenant, EventKind::Slice { ops: 96 });
    dst.step_until(30).unwrap();
    assert!(
        dst.stats().incremental_fast_checks > fast_before,
        "second slice after migration must hit the fast path"
    );

    // And the §4.1 invariant holds on both ends.
    src.full_proof_now();
    dst.full_proof_now();
    assert_eq!(src.stats().violations_total, 0);
    assert_eq!(dst.stats().violations_total, 0);
}

#[test]
fn external_depart_releases_incremental_state_like_internal() {
    // Same single-host history driven twice: once with the internal
    // Arrive/Depart events, once with the external hooks. The
    // incremental prover must end in the same state — same check
    // counts, same claims — and the groups freed by an external depart
    // must be re-claimable without tripping the checker.
    let run = |external: bool| {
        let mut sim = FleetSim::new(host_scenario(43)).unwrap();
        let a = 1u32;
        let b = 2u32;
        if external {
            sim.admit_external(vm(a)).unwrap().expect("admitted");
            sim.depart_external(a).unwrap();
            sim.admit_external(vm(b)).unwrap().expect("admitted");
        } else {
            sim.inject(
                0,
                a,
                EventKind::Arrive {
                    mem_bytes: 64 << 20,
                    vcpus: 2,
                    lifetime: 5,
                },
            );
            sim.inject(
                10,
                b,
                EventKind::Arrive {
                    mem_bytes: 64 << 20,
                    vcpus: 2,
                    lifetime: 1_000,
                },
            );
            sim.step_until(10).unwrap();
        }
        assert!(!sim.is_live(a));
        assert!(sim.is_live(b));
        sim.full_proof_now();
        let s = sim.stats();
        (
            s.incremental_checks,
            s.incremental_fast_checks,
            s.full_proofs,
            s.violations_total,
            s.departures,
        )
    };
    let internal = run(false);
    let external = run(true);
    assert_eq!(
        internal, external,
        "external lifecycle must leave the incremental prover in the internal path's state"
    );
    assert_eq!(internal.3, 0, "no violations either way");
}

#[test]
fn defrag_sweep_over_never_written_tenants_materialises_no_row() {
    // Memory as a count: a defrag sweep copies whole backing blocks, and
    // these guests never stored a byte, so the device must hold exactly the
    // rows it held before (the EPT tables) — blank blocks move as nothing.
    // `copy_phys`'s blank-stripe skip and `write_row`'s zero elision each
    // hold this alone; without both the 64 rows become 3136.
    let mut sim = FleetSim::new(host_scenario(47)).unwrap();
    for tenant in 0..4 {
        sim.admit_external(vm(tenant)).unwrap().expect("admitted");
    }
    let rows_before = sim.hypervisor().dram().rows_written();
    assert!(rows_before > 0, "EPT tables are written rows");
    for sweep in 0..3 {
        sim.inject(10 + sweep, 0, EventKind::Defrag);
    }
    sim.step_until(20).unwrap();
    assert_eq!(sim.stats().defrag_sweeps, 3);
    assert_eq!(sim.stats().defrag_migrations, 12, "4 tenants x 3 sweeps");
    assert_eq!(sim.hypervisor().dram().rows_written(), rows_before);
    sim.full_proof_now();
    assert_eq!(sim.stats().violations_total, 0);
}
