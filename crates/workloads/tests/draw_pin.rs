//! Every roster entry's draw, pinned by digest.
//!
//! The benchmark's digests see only the Fig. 4 cells at their figure size;
//! memcached, OLTP, MLC, GUPS and the fleet's YCSB sizes reach no pinned
//! output through it. This test draws every exec-time, throughput and fleet
//! roster entry at 1 MiB and 8 MiB (and the exec-time roster at Fig. 4's
//! 256 MiB too) and pins an FNV-1a digest of each entry's
//! `(offset, write, gap_ps, dependent)` stream, so a change to how ops are
//! stored or emitted cannot move a draw unseen.

use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{GuestOp, WorkloadGen};

const SEED: u64 = 11;
const OPS: usize = 20_000;

fn fnv1a(ops: &[GuestOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops {
        let (offset, write, gap_ps, dependent) =
            (op.offset(), op.is_write(), op.gap_ps(), op.is_dependent());
        let bytes = offset
            .to_le_bytes()
            .into_iter()
            .chain([u8::from(write)])
            .chain(gap_ps.to_le_bytes())
            .chain([u8::from(dependent)]);
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digests(entries: impl Iterator<Item = Box<dyn WorkloadGen>>) -> Vec<u64> {
    entries
        .map(|mut wl| {
            let ops = wl.generate(OPS, &mut StdRng::seed_from_u64(SEED));
            assert_eq!(ops.len(), OPS, "{}", wl.name());
            fnv1a(&ops)
        })
        .collect()
}

fn exec_time(ws: u64) -> Vec<u64> {
    digests((0..workloads::EXEC_TIME_SUITE_LEN).map(|i| workloads::exec_time_workload(i, ws)))
}

fn throughput(ws: u64) -> Vec<u64> {
    digests((0..workloads::THROUGHPUT_SUITE_LEN).map(|i| workloads::throughput_workload(i, ws)))
}

fn fleet(ws: u64) -> Vec<u64> {
    digests((0..workloads::FLEET_ROSTER_LEN).map(|t| workloads::fleet_tenant_workload(t, ws)))
}

/// Seed-11 digests per roster entry, in roster order.
const EXEC_TIME_1M: [u64; 9] = [
    0x589426a6d9c19942,
    0x2d4586fca89ab0bf,
    0xa33557a13d08ae17,
    0xa4bc113a70d22f9d,
    0x71d7602c8d7c3934,
    0xbd9fccd543b21691,
    0x6c0e2ade50cd0c8d,
    0x3b2b5a3b87483b45,
    0x268a5bffd1dca4b8,
];
const EXEC_TIME_8M: [u64; 9] = [
    0x7cc238638c92dcdf,
    0x90fe7304ed734537,
    0x65eed5b543586d57,
    0x05ae0f58279f4447,
    0x99baac4f070831f2,
    0xd89257957fe41b72,
    0x5e523fe9683f24c2,
    0x58ff0a9fc75eb44d,
    0x2b78e05c90ffe638,
];
/// Fig. 4's working set.
const EXEC_TIME_256M: [u64; 9] = [
    0x3dfb344ed2e07daa,
    0x87c7c8c8d71e8776,
    0x9d6408428cc4056a,
    0x18589faf9f44892c,
    0x50f9f9bb5592acab,
    0xb5c0fd8033625e10,
    0x2cdc82bf42703569,
    0x9723429610d1a25e,
    0x82ea2c14990cd7ed,
];
const THROUGHPUT_1M: [u64; 7] = [
    0xe1c70b65533c671a,
    0x2403ba867b6e883a,
    0x31adba6998854645,
    0x78b212fde13854b5,
    0xc509c6f5dcddba61,
    0x0d3e2cb6bdbb7305,
    0xaaf4177cf0dce7eb,
];
const THROUGHPUT_8M: [u64; 7] = [
    0xf5fde420f57b3fdd,
    0x319431851fa7c502,
    0x6a0af7e04936a365,
    0x0d9dcc1102b69035,
    0x2836e70343c2bf81,
    0x173b4783204a0585,
    0x3c984395b6c0e291,
];
const FLEET_1M: [u64; 8] = [
    0x589426a6d9c19942,
    0x2d4586fca89ab0bf,
    0xa33557a13d08ae17,
    0xe1c70b65533c671a,
    0x2403ba867b6e883a,
    0x31adba6998854645,
    0xbd9fccd543b21691,
    0x754340dc16ee0d79,
];
const FLEET_8M: [u64; 8] = [
    0x7cc238638c92dcdf,
    0x90fe7304ed734537,
    0x65eed5b543586d57,
    0xf5fde420f57b3fdd,
    0x319431851fa7c502,
    0x6a0af7e04936a365,
    0xd89257957fe41b72,
    0x887e42e8c9e17739,
];

#[test]
fn exec_time_roster_draws_are_pinned() {
    assert_eq!(exec_time(1 << 20), EXEC_TIME_1M);
    assert_eq!(exec_time(8 << 20), EXEC_TIME_8M);
    assert_eq!(exec_time(256 << 20), EXEC_TIME_256M);
}

#[test]
fn throughput_roster_draws_are_pinned() {
    assert_eq!(throughput(1 << 20), THROUGHPUT_1M);
    assert_eq!(throughput(8 << 20), THROUGHPUT_8M);
}

#[test]
fn fleet_roster_draws_are_pinned() {
    assert_eq!(fleet(1 << 20), FLEET_1M);
    assert_eq!(fleet(8 << 20), FLEET_8M);
}
