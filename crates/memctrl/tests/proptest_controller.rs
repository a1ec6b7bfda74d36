//! Property tests for the memory controller: stats consistency, clock
//! monotonicity, and scheduling invariants under random traces.

use dram::DramSystem;
use dram_addr::mini_decoder;
use memctrl::{MemOp, MemoryController};
use proptest::prelude::*;

fn arb_op(cap: u64) -> impl Strategy<Value = MemOp> {
    (
        0..cap / 64,
        any::<bool>(),
        0u64..50_000,
        any::<bool>(),
        0u16..4,
        any::<bool>(),
    )
        .prop_map(|(line, write, gap, dep, thread, high)| MemOp {
            phys: line * 64,
            write,
            gap_ps: gap,
            dependent: dep,
            // Thread ids from both ends of `u16`, in any order.
            thread: if high { u16::MAX - thread } else { thread },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every op is served exactly once; hit/miss/conflict counts partition
    /// accesses; total latency and elapsed time are coherent.
    #[test]
    fn stats_are_consistent(ops in prop::collection::vec(arb_op(1 << 28), 1..300)) {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        let n = ops.len() as u64;
        let mut ids: Vec<u16> = ops.iter().map(|op| op.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        let res = ctrl.run_trace(&mut dram, ops);
        prop_assert_eq!(res.stats.accesses, n);
        prop_assert_eq!(
            res.stats.row_hits + res.stats.row_misses + res.stats.row_conflicts,
            n
        );
        prop_assert_eq!(res.stats.bytes, n * 64);
        prop_assert!(res.stats.total_latency_ps > 0);
        prop_assert!(res.elapsed_ps > 0);
        // Per-thread latency sums match the global sum.
        let per_thread: u64 = res.thread_latency.iter().map(|&(_, (s, _))| s).sum();
        prop_assert_eq!(per_thread, res.stats.total_latency_ps);
        let per_thread_n: u64 = res.thread_latency.iter().map(|&(_, (_, c))| c).sum();
        prop_assert_eq!(per_thread_n, n);
        // One entry per issuing thread, strictly ascending by id: none
        // dropped, none aliased onto another.
        let seen: Vec<u16> = res.thread_latency.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(seen, ids);
    }

    /// The controller clock never goes backwards across traces.
    #[test]
    fn clock_is_monotonic(
        a in prop::collection::vec(arb_op(1 << 28), 1..100),
        b in prop::collection::vec(arb_op(1 << 28), 1..100),
    ) {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        ctrl.run_trace(&mut dram, a);
        let t1 = ctrl.clock_ps();
        ctrl.run_trace(&mut dram, b);
        prop_assert!(ctrl.clock_ps() >= t1);
    }

    /// Mean latency is bounded below by the hit latency and the trace's
    /// completions never precede their arrivals.
    #[test]
    fn latency_floor_holds(ops in prop::collection::vec(arb_op(1 << 24), 1..200)) {
        let dec = mini_decoder();
        let mut dram = DramSystem::new(*dec.geometry());
        let mut ctrl = MemoryController::new(dec).without_physics();
        let res = ctrl.run_trace(&mut dram, ops);
        let hit_floor_ns = 17.0;
        prop_assert!(
            res.stats.mean_latency_ns() >= hit_floor_ns,
            "mean {} below physical floor",
            res.stats.mean_latency_ns()
        );
    }
}
