//! Regenerates **Table 2**: the baseline system configuration.

use bench::Scale;
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    println!("{}", config.render_table2());
    println!();
    println!(
        "Derived: subarray group size = {:.2} GiB ({} groups/socket, {} logical NUMA nodes total)",
        config.subarray_group_bytes() as f64 / (1u64 << 30) as f64,
        config.groups_per_socket(),
        config.groups_per_socket() as u64 * config.geometry.sockets as u64,
    );
    let cfg = run.reg.child("config");
    cfg.gauge("groups_per_socket")
        .add(i64::from(config.groups_per_socket()));
    cfg.gauge("logical_nodes")
        .add(i64::from(config.groups_per_socket()) * i64::from(config.geometry.sockets));
    cfg.gauge("subarray_group_bytes")
        .add(config.subarray_group_bytes() as i64);
}
