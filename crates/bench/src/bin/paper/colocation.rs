//! Colocation (noisy-neighbor) analysis, complementing §8.4.
//!
//! Siloz isolates Rowhammer *disturbance*, not memory-controller bandwidth:
//! subarray groups span every bank by design, so colocated tenants contend
//! exactly as on the baseline. This artifact quantifies the victim's latency
//! inflation next to a bandwidth hog under both hypervisors — showing that
//! Siloz adds no interference of its own, and motivating the §8.4
//! discussion of bank/channel isolation domains as future work.

use bench::Scale;
use siloz::HypervisorKind;
use sim::{run_colocation_suite, Run, SuitePlan};
use workloads::mlc::{Mlc, MlcKind};
use workloads::ycsb::{Ycsb, YcsbKind};

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let sim_cfg = scale.sim();

    println!("Noisy-neighbor experiment: redis-C victim vs mlc-reads bandwidth hog\n");
    println!(
        "{:<10} {:>16} {:>18} {:>10}",
        "kernel", "solo latency", "colocated latency", "slowdown"
    );
    // Both hypervisor kinds run concurrently; each cell builds its own
    // fresh workload generators, so output matches the old serial loop.
    let plan = SuitePlan {
        config: &config,
        kinds: &[HypervisorKind::Baseline, HypervisorKind::Siloz],
        sim: &sim_cfg,
        seed: 7,
        threads: run.threads,
    };
    let results = run_colocation_suite(
        &plan,
        || Box::new(Ycsb::new(YcsbKind::C, sim_cfg.working_set)) as Box<dyn workloads::WorkloadGen>,
        || {
            Box::new(Mlc::new(MlcKind::Reads, sim_cfg.working_set))
                as Box<dyn workloads::WorkloadGen>
        },
        &run.reg,
    )
    .expect("colocation run");
    for (kind, r) in results {
        println!(
            "{:<10} {:>13.1} ns {:>15.1} ns {:>9.2}x",
            format!("{kind:?}"),
            r.solo_latency_ns,
            r.colocated_latency_ns,
            r.slowdown()
        );
    }
    println!(
        "\nBoth hypervisors see similar interference: subarray groups deliberately \
         preserve\nbank sharing for performance (§4.1). Extending logical nodes to \
         bank/rank/channel\nisolation domains (§8.4) would trade bandwidth for \
         performance isolation."
    );
}
