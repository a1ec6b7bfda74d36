//! Performance suite quantifying the hot-path optimizations:
//!
//! 1. **Decode TLB** — memoized [`DecodeTlb`] vs the raw
//!    [`SystemAddressDecoder`] division chains, on a row-local scan.
//! 2. **Flat controller** — geometry-ordinal `Vec` state + decode-once
//!    window ([`MemoryController`]) vs the retained hash-map baseline
//!    ([`HashedController`]) on a mixed trace, with the results asserted
//!    identical.
//! 3. **Activation ledger** — coalesced `activate_burst` vs the per-ACT
//!    device reference path on a ~1M-ACT hammer loop, with device state
//!    asserted bit-identical.
//! 4. **Trace compiler** — `figure4` regenerated through the compiled
//!    ledger/replay pipeline, cold (`figure4_compiled` row, fresh
//!    [`TraceCache`] per run) and steady-state (`figure4_quick` row, one
//!    persistent cache across runs), vs the uncompiled per-cell
//!    generate-and-simulate reference — all three outputs asserted
//!    bit-identical.
//! 5. **Fleet incremental isolation check** — plus the TLB-memoized,
//!    allocation-free migration copy path underneath the event loop. The
//!    dirty-set fast path is gated: incremental checking must cost at
//!    most half the full-proof ns/event on the quick soak.
//! 6. **Mitigation overhead** — per-backend ns/ACT of the controller
//!    hook (`blockhammer`, `breakhammer`) vs the unhooked `none` fast
//!    path, on the same mixed trace the controller bench replays.
//! 7. **Cluster soak** — the sharded multi-host engine stepped at 1, 2,
//!    and 7 workers (events/sec per worker count, reports asserted
//!    bit-identical), plus the amortized cost of a cluster-wide sync
//!    proof vs a per-host boundary check, both read from the engines'
//!    volatile wall-clock counters.
//! 8. **Indexed scheduler** — the free-bucket/affinity-class scheduler
//!    index vs the retained linear-scan oracle: a 4096-host place/release
//!    churn script (pick sequences asserted identical, ≥5× speedup
//!    asserted) and the scheduling-phase wall clock of a 1024-host
//!    soak-shape run (full reports asserted bit-identical).
//!
//! Writes the measurements to `BENCH_perfsuite.json` in the working
//! directory (overwritten each run) and prints a summary table. Each row
//! records the worker-thread count it ran at so the numbers can be read
//! against the machine that produced them.
//!
//! [`TraceCache`]: sim::TraceCache
//!
//! Usage: `cargo run --release -p bench --bin perfsuite`
//!
//! [`DecodeTlb`]: dram_addr::DecodeTlb
//! [`SystemAddressDecoder`]: dram_addr::SystemAddressDecoder

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bench::emit_telemetry;
use dram::DramSystem;
use dram_addr::{mini_decoder, skylake_decoder, DecodeTlb};
use memctrl::{HashedController, MemOp, MemoryController};
use siloz::SilozConfig;
use sim::{Run, SimConfig};
use telemetry::Registry;

/// One head-to-head measurement.
struct Measure {
    name: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    baseline_ns: f64,
    optimized_ns: f64,
    /// Worker threads the measured code ran at (1 for single-threaded
    /// microbenches).
    threads: usize,
}

impl Measure {
    fn speedup(&self) -> f64 {
        if self.optimized_ns == 0.0 {
            return 0.0;
        }
        self.baseline_ns / self.optimized_ns
    }
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Decode throughput: a 4 KiB-stride scan over 256 MiB, repeated so the
/// TLB's stripe slots stay hot — the access pattern every trace replay has.
fn bench_decode(reg: &Registry) -> Measure {
    let dec = skylake_decoder();
    let mut tlb = DecodeTlb::new(skylake_decoder());
    let span = 256u64 << 20;
    let iters = 8u64;
    let ops = (span / 4096) * iters;
    let uncached = best_of(5, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            for phys in (0..span).step_by(4096) {
                acc ^= dec.decode(phys).expect("in range").row as u64;
            }
        }
        acc
    });
    let cached = best_of(5, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            for phys in (0..span).step_by(4096) {
                acc ^= tlb.decode(phys).expect("in range").row as u64;
            }
        }
        acc
    });
    tlb.export_telemetry(&reg.child("decode_tlb"));
    Measure {
        name: "decode_4k_stride",
        baseline: "SystemAddressDecoder::decode",
        optimized: "DecodeTlb::decode",
        baseline_ns: uncached / ops as f64,
        optimized_ns: cached / ops as f64,
        threads: 1,
    }
}

/// A mixed trace exercising every scheduler path: sequential streams,
/// hot-row hits, random conflicts, dependent chases, several threads.
fn mixed_trace(n: u64) -> Vec<MemOp> {
    let dec = mini_decoder();
    let cap = dec.capacity();
    let rg = dec.geometry().row_group_bytes();
    let mut x = 0x5eedu64;
    (0..n)
        .map(|i| match i % 5 {
            0 => MemOp::read(i * 64),
            1 => MemOp::read((i % 512) * 64).on_thread(1),
            2 => {
                x = dram::util::splitmix64(x);
                MemOp::write((x % cap) & !63).on_thread(2)
            }
            3 => MemOp::read((i * rg) % cap).after_previous().on_thread(3),
            _ => MemOp::read(i * 64).with_gap_ps(1_000).on_thread(4),
        })
        .collect()
}

/// Trace replay: flat-array controller vs the retained hash-map baseline,
/// asserting both produce the identical `TraceResult`.
fn bench_controller(reg: &Registry) -> Measure {
    let n = 200_000u64;
    let ops = mixed_trace(n);
    let flat_res = {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        let res = ctrl.run_trace(&mut dram, ops.clone());
        ctrl.export_telemetry(&reg.child("ctrl_flat"));
        res
    };
    let hashed_res = {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = HashedController::new(dec).without_physics();
        let res = ctrl.run_trace(&mut dram, ops.clone());
        ctrl.export_telemetry(&reg.child("ctrl_hashed"));
        res
    };
    assert_eq!(flat_res, hashed_res, "flat and hashed controllers diverged");

    let hashed = best_of(3, || {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = HashedController::new(dec).without_physics();
        ctrl.run_trace(&mut dram, ops.clone())
    });
    let flat = best_of(3, || {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        ctrl.run_trace(&mut dram, ops.clone())
    });
    Measure {
        name: "run_trace_200k_mixed",
        baseline: "HashedController (hash maps, re-decode per pick)",
        optimized: "MemoryController (flat arrays, decode-once + TLB)",
        baseline_ns: hashed / n as f64,
        optimized_ns: flat / n as f64,
        threads: 1,
    }
}

/// Device hammer loop: ~1M activations of a 16-sided pattern issued per-ACT
/// (the reference path) vs as 64-ACT coalesced bursts (the activation
/// ledger), with the resulting device state asserted bit-identical.
fn bench_device_hammer(reg: &Registry) -> Measure {
    use dram_addr::{mini_geometry, BankId};
    let total = 1_000_000u64;
    let rows: Vec<u32> = (100..132).step_by(2).map(|r| r as u32).collect();
    let burst_len = 64u64;
    // Advance past one tREFI per pattern period so refresh, TRR serves, and
    // threshold crossings all participate — bursts split around the advance.
    let period_ns = 8_000u64;
    let run = |coalesced: bool| {
        let mut d = dram::DramSystemBuilder::new(mini_geometry()).build();
        let mut acts = 0u64;
        while acts < total {
            for &r in &rows {
                if coalesced {
                    d.activate_burst(BankId(0), r, burst_len, 0);
                } else {
                    for _ in 0..burst_len {
                        d.activate_row(BankId(0), r, 0);
                    }
                }
                acts += burst_len;
            }
            d.advance_ns(period_ns);
        }
        (d, acts)
    };
    let (ref_dev, acts) = run(false);
    let (burst_dev, _) = run(true);
    assert_eq!(
        ref_dev.stats(),
        burst_dev.stats(),
        "burst path diverged from per-ACT stats"
    );
    assert_eq!(
        ref_dev.flip_log().all(),
        burst_dev.flip_log().all(),
        "burst path diverged from per-ACT flips"
    );
    assert!(
        !ref_dev.flip_log().all().is_empty(),
        "the hammer loop must actually flip bits"
    );
    reg.child("device_hammer")
        .counter("acts")
        .add(ref_dev.stats().acts);

    let per_act = best_of(3, || run(false));
    let burst = best_of(3, || run(true));
    Measure {
        name: "device_hammer_1m_acts",
        baseline: "per-ACT activate_row reference path",
        optimized: "coalesced activate_burst ledger",
        baseline_ns: per_act / acts as f64,
        optimized_ns: burst / acts as f64,
        threads: 1,
    }
}

/// Figure-4 regeneration through the trace compiler, measured two ways
/// against the uncompiled per-cell generate-and-simulate reference:
///
/// - `figure4_compiled` — cold pipeline cost: a fresh [`sim::TraceCache`]
///   per run, so every ledger is compiled, bound, and replayed once;
/// - `figure4_quick` — steady-state regeneration cost: one persistent
///   cache across runs (how the report tooling holds it), so re-emitting
///   the figure reuses memoized replay outcomes and only re-applies
///   per-cell noise and aggregation.
///
/// All paths (uncompiled serial/parallel, compiled, cached) are asserted
/// bit-identical before timing. Per-run wall times are reported.
fn bench_figure4(threads: usize, reg: &Registry) -> [Measure; 2] {
    let config = SilozConfig::mini();
    let sim = SimConfig::quick();
    let serial = Run {
        reg: reg.child("figure4"),
        ..Run::with_threads(1)
    };
    let serial_rows = sim::figure4(&config, &sim, &serial).expect("serial figure 4");
    let parallel_rows =
        sim::figure4(&config, &sim, &Run::with_threads(threads)).expect("parallel figure 4");
    assert_eq!(
        serial_rows, parallel_rows,
        "parallel figure 4 diverged from serial"
    );
    let uncompiled_rows = sim::figure4_uncompiled(&config, &sim, &Run::with_threads(threads))
        .expect("uncompiled figure 4");
    assert_eq!(
        uncompiled_rows, serial_rows,
        "compiled replay diverged from the uncompiled reference"
    );
    let kept = Run::with_threads(threads);
    let cached_rows = sim::figure4(&config, &sim, &kept).expect("cached figure 4");
    assert_eq!(
        cached_rows, serial_rows,
        "warm-cache regeneration diverged from the cold run"
    );

    let uncompiled = best_of(2, || {
        sim::figure4_uncompiled(&config, &sim, &Run::with_threads(threads))
            .expect("uncompiled figure 4")
    });
    let cold = best_of(2, || {
        sim::figure4(&config, &sim, &Run::with_threads(threads)).expect("compiled figure 4")
    });
    let warm = best_of(3, || {
        sim::figure4(&config, &sim, &kept).expect("cached figure 4")
    });
    [
        Measure {
            name: "figure4_quick",
            baseline: "uncompiled per-cell generate+simulate",
            optimized: "compiled replay, persistent TraceCache (steady state)",
            baseline_ns: uncompiled,
            optimized_ns: warm,
            threads,
        },
        Measure {
            name: "figure4_compiled",
            baseline: "uncompiled per-cell generate+simulate",
            optimized: "compiled ledger/replay pipeline, cold cache",
            baseline_ns: uncompiled,
            optimized_ns: cold,
            threads,
        },
    ]
}

/// Fleet event loop: full isolation re-proof after every event (the
/// obviously-correct baseline) vs the incremental ownership-map boundary
/// check with periodic full proofs, asserting the fleet history itself is
/// unchanged by the checking mode.
fn bench_fleet(reg: &Registry) -> Measure {
    use fleet::{CheckMode, Scenario};
    use numa::PlacementStrategy;
    let scenario = |check: CheckMode| {
        let mut s = Scenario::quick(17, PlacementStrategy::FirstFit);
        s.target_events = 400;
        s.attack_prob = 0.0;
        // Keep the tenant workloads nominal so the event loop is dominated
        // by admission/bookkeeping and the isolation check under test.
        s.slice_ops = 64;
        s.slice_working_set = 1 << 20;
        s.check = check;
        s
    };
    let full =
        fleet::run_fleet(scenario(CheckMode::FullProof), &Registry::new()).expect("full-proof run");
    let incr = fleet::run_fleet(scenario(CheckMode::Incremental), &reg.child("fleet"))
        .expect("incremental run");
    assert!(full.clean() && incr.clean(), "fleet run violated isolation");
    assert_eq!(
        (full.events_processed, full.admitted, full.departures),
        (incr.events_processed, incr.admitted, incr.departures),
        "checking mode changed the fleet history"
    );

    let events = incr.events_processed;
    let full_ns = best_of(2, || {
        fleet::run_fleet(scenario(CheckMode::FullProof), &Registry::new()).expect("full-proof run")
    });
    let incr_ns = best_of(2, || {
        fleet::run_fleet(scenario(CheckMode::Incremental), &Registry::new())
            .expect("incremental run")
    });
    // The dirty-set regression gate. Whole-soak wall time is dominated by
    // the event loop itself (admissions, slices, defrag), so the checking
    // cost is read from the engine's own `check_wall_ns` volatile counter:
    // with clean tenants verified by a cached-claims lookup, incremental
    // checking must stay at no more than half the full-proof cost per
    // event (measured: under 10%).
    let check_ns = |check: CheckMode| {
        use telemetry::MetricValue;
        let mut best = u64::MAX;
        for _ in 0..3 {
            let r = Registry::new();
            fleet::run_fleet(scenario(check), &r).expect("check-cost run");
            let MetricValue::Counter { value, .. } =
                r.snapshot().children["fleet"].metrics["check_wall_ns"]
            else {
                panic!("check_wall_ns missing from the fleet export");
            };
            best = best.min(value);
        }
        best as f64 / events as f64
    };
    let full_check = check_ns(CheckMode::FullProof);
    let incr_check = check_ns(CheckMode::Incremental);
    assert!(
        incr_check <= full_check * 0.5,
        "incremental check regressed: {incr_check:.0} ns/event vs full proof {full_check:.0} ns/event"
    );
    println!(
        "  fleet check cost: full proof {full_check:.0} ns/event, incremental {incr_check:.0} ns/event"
    );
    Measure {
        name: "fleet_soak",
        baseline: "full isolation proof per event",
        optimized: "incremental ownership-map boundary check",
        baseline_ns: full_ns / events as f64,
        optimized_ns: incr_ns / events as f64,
        threads: 1,
    }
}

/// Controller-hook overhead per activation for each rival backend: the
/// mixed trace replayed with the backend's `on_act`/`on_refresh` hooks
/// installed vs the unhooked `none` fast path. `optimized_ns_per_op`
/// here is the *hooked* cost — the row quantifies overhead, so its
/// "speedup" reads below 1 by design.
fn bench_mitigation(reg: &Registry) -> Vec<Measure> {
    use mitigation::Backend;
    let n = 200_000u64;
    let ops = mixed_trace(n);
    let acts = {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        let res = ctrl.run_trace(&mut dram, ops.clone());
        res.stats.row_misses + res.stats.row_conflicts
    };
    let bare = best_of(3, || {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        ctrl.run_trace(&mut dram, ops.clone())
    });
    [Backend::BlockHammer, Backend::BreakHammer]
        .into_iter()
        .map(|backend| {
            let hooked = best_of(3, || {
                let dec = mini_decoder();
                let mut dram = DramSystem::new(*dec.geometry());
                let mut ctrl = MemoryController::new(dec)
                    .without_physics()
                    .with_mitigation(backend.controller_hook().expect("rival backend"));
                let res = ctrl.run_trace(&mut dram, ops.clone());
                ctrl.export_telemetry(&reg.child(backend.name()));
                res
            });
            Measure {
                name: match backend {
                    Backend::BlockHammer => "mitigation_blockhammer",
                    _ => "mitigation_breakhammer",
                },
                baseline: "unhooked controller fast path (none)",
                optimized: "per-ACT mitigation hook installed",
                baseline_ns: bare / acts as f64,
                optimized_ns: hooked / acts as f64,
                threads: 1,
            }
        })
        .collect()
}

/// Cluster engine throughput and proof costs on a trimmed quick
/// scenario (attacks off so hammer campaigns don't swamp the scheduler
/// and checker costs under test).
///
/// - `cluster_soak` — wall ns per lifecycle event, serial vs sharded at
///   7 workers, with the per-worker-count reports asserted bit-identical
///   and events/sec printed for 1, 2, and 7 workers.
/// - `cluster_proof_cost` — amortized ns per proof point: a cluster-wide
///   sync proof (full §4.1 proof on every host + scheduler-vs-hypervisor
///   audit, `cluster.sync_wall_ns`) vs a per-host boundary check
///   (incremental + periodic full proofs, the absorbed hosts'
///   `check_wall_ns`).
fn bench_cluster(reg: &Registry) -> Vec<Measure> {
    use cluster::{run_cluster, ClusterPolicy, ClusterScenario};
    use telemetry::MetricValue;
    let scenario = || {
        let mut s = ClusterScenario::quick(17, ClusterPolicy::Spread);
        s.target_sandboxes = 400;
        s.attack_prob = 0.0;
        s
    };

    let counter = |snap: &telemetry::Snapshot, path: &[&str], metric: &str| -> u64 {
        let mut node = snap.children.get(path[0]).expect("child exists").clone();
        for seg in &path[1..] {
            node = node.children.get(*seg).expect("child exists").clone();
        }
        match node.metrics.get(metric) {
            Some(MetricValue::Counter { value, .. }) => *value,
            other => panic!("{metric} missing from {}: {other:?}", path.join(".")),
        }
    };

    let mut reference: Option<cluster::ClusterReport> = None;
    let mut wall_ns = [0f64; 3];
    let mut proof_reg = Registry::new();
    for (slot, threads) in [1usize, 2, 7].into_iter().enumerate() {
        let r = Registry::new();
        wall_ns[slot] = best_of(2, || {
            let fresh = Registry::new();
            let report = run_cluster(scenario(), threads, &fresh).expect("cluster bench run");
            match &reference {
                None => reference = Some(report),
                Some(reference) => assert_eq!(
                    reference, &report,
                    "cluster reports diverged at {threads} workers"
                ),
            }
            fresh
        });
        let report = run_cluster(scenario(), threads, &r).expect("cluster bench run");
        let rate = report.events_total() as f64 * 1e9 / wall_ns[slot];
        println!(
            "  cluster soak: {threads} worker(s), {} events, {rate:.0} events/sec",
            report.events_total()
        );
        if threads == 1 {
            proof_reg = r;
        }
    }
    let report = reference.expect("at least one cluster run");
    let events = report.events_total();

    // Proof costs from the serial run's volatile wall clocks: the cluster
    // barrier's sync proofs and the absorbed per-host checking time.
    let snap = proof_reg.snapshot();
    let sync_wall = counter(&snap, &["cluster"], "sync_wall_ns");
    let host_check_wall = counter(&snap, &["cluster", "hosts", "fleet"], "check_wall_ns");
    let host_checks = report.incremental_checks + report.full_proofs;
    assert!(report.sync_proofs > 0 && host_checks > 0);
    let mut measures = vec![Measure {
        name: "cluster_soak",
        baseline: "serial cluster step (1 worker)",
        optimized: "sharded per-host engines (7 workers)",
        baseline_ns: wall_ns[0] / events as f64,
        optimized_ns: wall_ns[2] / events as f64,
        threads: 7,
    }];
    measures.push(Measure {
        name: "cluster_proof_cost",
        baseline: "cluster-wide sync proof (every host + scheduler audit)",
        optimized: "per-host boundary check (incremental + periodic full)",
        baseline_ns: sync_wall as f64 / report.sync_proofs as f64,
        optimized_ns: host_check_wall as f64 / host_checks as f64,
        threads: 1,
    });
    reg.child("cluster_bench").counter("events").add(events * 3);
    measures
}

/// Indexed scheduler vs the retained linear-scan oracle.
///
/// - `scheduler_place_4k_hosts` — ns per scheduler operation on a
///   deterministic place/release churn script over a 4096-host fleet,
///   run through both schedulers under every policy with the pick
///   sequences asserted identical. The indexed side must beat the
///   O(hosts) oracle scan by at least 5× — that floor is asserted, not
///   just reported.
/// - `cluster_soak_sched_phase` — amortized scheduling-phase ns per
///   lifecycle event (`cluster.sched_wall_ns`) of a 1024-host soak-shape
///   run, oracle vs indexed, with the full cluster reports asserted
///   bit-identical (same picks, same rejects, same migrations — only the
///   phase-1 wall clock may differ).
fn bench_scheduler(reg: &Registry) -> Vec<Measure> {
    use cluster::{ClusterPolicy, ClusterScenario, ClusterScheduler, ClusterSim};

    const HOSTS: usize = 4096;
    const GROUPS_PER_HOST: i64 = 7;
    const GROUP_BYTES: u64 = 128 << 20;
    const OPS: usize = 60_000;

    // Deterministic churn: place until a reject, then drain a prefix of
    // the live set, under a cycling affinity/size pattern. Returns the
    // pick sequence so the two modes can be diffed.
    let run_script = |sched: &mut ClusterScheduler| -> Vec<Option<usize>> {
        let mut picks = Vec::with_capacity(OPS);
        let mut live: Vec<(usize, u32, u64)> = Vec::new();
        let mut drain = 0usize;
        for i in 0..OPS {
            let affinity = (i % 16) as u32;
            let groups = 1 + (i % 5) as u64;
            let bytes = groups * GROUP_BYTES;
            if let Some(host) = sched.place(affinity, bytes, None) {
                picks.push(Some(host));
                live.push((host, affinity, bytes));
            } else {
                picks.push(None);
                // Free the oldest third of the fleet's tenants so churn
                // keeps hitting both full and empty buckets.
                drain = drain.max(live.len() / 3);
            }
            if drain > 0 {
                if let Some((host, aff, bytes)) = live.pop() {
                    sched.release(host, aff, bytes);
                }
                drain -= 1;
            }
        }
        picks
    };

    let caps = vec![GROUPS_PER_HOST; HOSTS];
    let mut oracle_ns = 0f64;
    let mut indexed_ns = 0f64;
    for policy in ClusterPolicy::ALL {
        let mut oracle_picks = Vec::new();
        oracle_ns += best_of(2, || {
            let mut sched = ClusterScheduler::new_oracle(policy, GROUP_BYTES, &caps);
            oracle_picks = run_script(&mut sched);
        });
        let mut indexed_picks = Vec::new();
        indexed_ns += best_of(2, || {
            let mut sched = ClusterScheduler::new(policy, GROUP_BYTES, &caps);
            indexed_picks = run_script(&mut sched);
        });
        assert_eq!(
            oracle_picks, indexed_picks,
            "{policy:?}: indexed picks diverged from the oracle at 4096 hosts"
        );
    }
    let total_ops = (OPS * ClusterPolicy::ALL.len()) as f64;
    let place_row = Measure {
        name: "scheduler_place_4k_hosts",
        baseline: "linear host scan per pick (oracle)",
        optimized: "free-bucket + affinity-class index",
        baseline_ns: oracle_ns / total_ops,
        optimized_ns: indexed_ns / total_ops,
        threads: 1,
    };
    assert!(
        place_row.speedup() >= 5.0,
        "indexed scheduler must beat the oracle by >=5x at 4096 hosts, got {:.2}x",
        place_row.speedup()
    );

    // Soak-shape fleet, scheduling phase only: identical event streams,
    // identical picks — the only degree of freedom is phase-1 wall time.
    let scenario = |indexed: bool| {
        let mut s = ClusterScenario::scale(17, ClusterPolicy::Spread, 1024);
        s.attack_prob = 0.0;
        s.indexed_scheduler = indexed;
        s
    };
    let run_phase = |indexed: bool| -> (u64, cluster::ClusterReport) {
        let mut best = u64::MAX;
        let mut report = None;
        for _ in 0..2 {
            let mut sim = ClusterSim::new(scenario(indexed), 7).expect("cluster bench boot");
            let r = sim.run_to_completion().expect("cluster bench run");
            best = best.min(sim.stats().sched_wall_ns);
            report = Some(r);
        }
        (best, report.expect("two runs"))
    };
    let (oracle_sched_ns, oracle_report) = run_phase(false);
    let (indexed_sched_ns, indexed_report) = run_phase(true);
    assert_eq!(
        oracle_report, indexed_report,
        "oracle and indexed cluster runs must be bit-identical"
    );
    let events = oracle_report.events_total() as f64;
    println!(
        "  sched phase: 1024 hosts, {} events, oracle {:.0} ms vs indexed {:.0} ms",
        oracle_report.events_total(),
        oracle_sched_ns as f64 / 1e6,
        indexed_sched_ns as f64 / 1e6,
    );
    reg.child("sched_bench")
        .counter("script_ops")
        .add(total_ops as u64);
    vec![
        place_row,
        Measure {
            name: "cluster_soak_sched_phase",
            baseline: "oracle scheduling phase (linear scans)",
            optimized: "indexed scheduling phase (bucket heaps)",
            baseline_ns: oracle_sched_ns as f64 / events,
            optimized_ns: indexed_sched_ns as f64 / events,
            threads: 7,
        },
    ]
}

/// Extracts `"optimized_ns_per_op": <f64>` for the result named `name`
/// from a `BENCH_perfsuite.json` document, without a JSON parser.
fn baseline_ns_per_op(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"optimized_ns_per_op\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}'])?;
    v[..end].trim().parse().ok()
}

/// Compares fresh measurements against a prior `BENCH_perfsuite.json`
/// (path in `SILOZ_BENCH_BASELINE`); regressions beyond
/// `SILOZ_BENCH_TOLERANCE` percent (default 5) fail the run. Speedups and
/// missing baseline entries pass. Returns the number of regressions.
fn gate_against_baseline(measures: &[Measure]) -> usize {
    let Ok(path) = std::env::var("SILOZ_BENCH_BASELINE") else {
        return 0;
    };
    let Ok(json) = std::fs::read_to_string(&path) else {
        eprintln!("gate: baseline {path} unreadable, skipping");
        return 0;
    };
    let tolerance_pct: f64 = std::env::var("SILOZ_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    println!("\ngate: comparing against {path} (tolerance {tolerance_pct}%)");
    let mut regressions = 0;
    for m in measures {
        let Some(old) = baseline_ns_per_op(&json, m.name) else {
            println!("  {:<22} no baseline entry, skipped", m.name);
            continue;
        };
        let delta_pct = (m.optimized_ns / old - 1.0) * 100.0;
        let verdict = if delta_pct > tolerance_pct {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {:<22} {:>12.1} -> {:>12.1} ns/op ({:+.1}%) {}",
            m.name, old, m.optimized_ns, delta_pct, verdict
        );
    }
    regressions
}

fn main() {
    let threads = sim::default_threads();
    println!("perfsuite: {threads} worker thread(s) available\n");

    let reg = Registry::new();
    let mut measures = vec![
        bench_decode(&reg),
        bench_controller(&reg),
        bench_device_hammer(&reg),
    ];
    measures.extend(bench_figure4(threads, &reg));
    measures.push(bench_fleet(&reg));
    measures.extend(bench_mitigation(&reg));
    measures.extend(bench_cluster(&reg));
    measures.extend(bench_scheduler(&reg));

    println!(
        "{:<22} {:>16} {:>16} {:>9} {:>8}",
        "benchmark", "baseline ns/op", "optimized ns/op", "speedup", "threads"
    );
    for m in &measures {
        println!(
            "{:<22} {:>16.1} {:>16.1} {:>8.2}x {:>8}",
            m.name,
            m.baseline_ns,
            m.optimized_ns,
            m.speedup(),
            m.threads,
        );
    }

    let mut json = String::from("{\n  \"suite\": \"perfsuite\",\n");
    let _ = writeln!(json, "  \"threads_available\": {threads},");
    json.push_str("  \"results\": [\n");
    for (i, m) in measures.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \
             \"baseline_ns_per_op\": {:.2}, \"optimized_ns_per_op\": {:.2}, \
             \"speedup\": {:.3}, \"threads\": {}}}",
            m.name,
            m.baseline,
            m.optimized,
            m.baseline_ns,
            m.optimized_ns,
            m.speedup(),
            m.threads
        );
        json.push_str(if i + 1 < measures.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_perfsuite.json", &json).expect("write BENCH_perfsuite.json");
    println!("\nwrote BENCH_perfsuite.json");

    let regressions = gate_against_baseline(&measures);
    reg.child("gate")
        .counter("regressions")
        .add(regressions as u64);
    emit_telemetry("perfsuite", &reg);
    if regressions > 0 {
        eprintln!("perfsuite: {regressions} benchmark(s) regressed beyond tolerance");
        std::process::exit(1);
    }
}
