//! Integration: the performance claims (Figs. 4-7) hold in miniature —
//! Siloz within a small margin of baseline, no subarray-size trend, and
//! bank-level parallelism preserved.

use siloz_repro::siloz::SilozConfig;
use siloz_repro::sim::{figure4, figure5, figure6, figure7, Run, SimConfig};

fn quick_sim() -> SimConfig {
    SimConfig {
        ops: 8_000,
        repeats: 3,
        vm_memory: 256 << 20,
        vcpus: 2,
        working_set: 8 << 20,
    }
}

#[test]
fn figure4_exec_time_parity() {
    let rows = figure4(&SilozConfig::mini(), &quick_sim(), &Run::default()).unwrap();
    assert_eq!(rows.len(), 10);
    let geomean = rows.last().unwrap();
    assert_eq!(geomean.workload, "geomean");
    assert!(
        geomean.overhead_pct().abs() < 2.0,
        "geomean exec-time overhead {:.3}% too large",
        geomean.overhead_pct()
    );
    // Every workload's CI must be sane (finite, not absurd).
    for row in &rows {
        assert!(row.ci95_pct().is_finite());
        assert!(row.reference.mean > 0.0 && row.candidate.mean > 0.0);
    }
}

#[test]
fn figure5_throughput_parity() {
    let rows = figure5(&SilozConfig::mini(), &quick_sim(), &Run::default()).unwrap();
    assert_eq!(rows.len(), 8, "7 throughput workloads + geomean");
    let geomean = rows.last().unwrap();
    assert!(
        geomean.overhead_pct().abs() < 2.0,
        "geomean throughput overhead {:.3}% too large",
        geomean.overhead_pct()
    );
    // MLC rows report bandwidth; streaming must beat the KV workloads.
    let mlc_reads = rows.iter().find(|r| r.workload == "mlc-reads").unwrap();
    let memcached = rows.iter().find(|r| r.workload == "memcached").unwrap();
    assert!(mlc_reads.reference.mean > memcached.reference.mean);
}

#[test]
fn figures6_and_7_show_no_subarray_size_trend() {
    let config = SilozConfig::mini();
    let sim = quick_sim();
    for results in [
        figure6(&config, &sim, &Run::default()).unwrap(),
        figure7(&config, &sim, &Run::default()).unwrap(),
    ] {
        assert_eq!(results.len(), 2, "half-size and double-size variants");
        let mut geomeans = Vec::new();
        for (variant, rows) in &results {
            let geomean = rows.last().unwrap();
            assert!(
                geomean.overhead_pct().abs() < 2.0,
                "{variant} geomean {:.3}% too large",
                geomean.overhead_pct()
            );
            geomeans.push(geomean.overhead_pct());
        }
        // No trend: the two variants' geomeans must not be on the same side
        // by a wide margin (both near zero).
        assert!(geomeans.iter().all(|g| g.abs() < 2.0));
    }
}

#[test]
fn pooled_ycsb_substrate_matches_the_direct_path_for_every_mix() {
    // Fig. 4's compiled path pools the YCSB load phase: all six mixes adopt
    // one copy-on-write snapshot of the same KV table, in turn. Each mix's
    // sample must still equal its cold direct-path sample bit for bit, so
    // no mix may see another's writes or lose its own.
    use siloz_repro::siloz::HypervisorKind;
    use siloz_repro::sim::{run_workload, run_workload_compiled, TraceCache};
    use siloz_repro::telemetry::Registry;
    use siloz_repro::workloads::ycsb::{Ycsb, YcsbKind};

    let config = SilozConfig::mini();
    let sim = quick_sim();
    let cache = TraceCache::new();
    let reg = Registry::new();
    for kind in YcsbKind::ALL {
        let mut cold = Ycsb::new(kind, sim.working_set);
        let direct =
            run_workload(&config, HypervisorKind::Siloz, &mut cold, &sim, 5, &reg).unwrap();
        let mut warm = Ycsb::new(kind, sim.working_set);
        let pooled =
            run_workload_compiled(&config, HypervisorKind::Siloz, &mut warm, &sim, 5, &cache)
                .unwrap();
        assert_eq!(direct.to_bits(), pooled.to_bits(), "{kind:?}");
    }
}

#[test]
fn single_bank_placement_would_destroy_bank_parallelism() {
    // The §4.1 motivation for subarray *groups*: an isolation design that
    // confined a VM to one bank would forfeit bank-level parallelism. The
    // controller shows a multi-x slowdown for the same access volume.
    use siloz_repro::dram::DramSystem;
    use siloz_repro::dram_addr::mini_decoder;
    use siloz_repro::memctrl::{MemOp, MemoryController};

    let run = |single_bank: bool| {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        let rg = ctrl.decoder().geometry().row_group_bytes();
        let ops: Vec<MemOp> = (0..4096u64)
            .map(|i| MemOp::read(if single_bank { i * rg } else { i * 64 }))
            .collect();
        ctrl.run_trace(&mut dram, ops).elapsed_ps
    };
    let grouped = run(false);
    let single = run(true);
    assert!(
        single > grouped * 5,
        "single-bank {single} ps vs grouped {grouped} ps: parallelism loss must be dramatic"
    );
}
