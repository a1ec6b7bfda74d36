//! Hadoop-terasort-like external merge sort (§7.2).
//!
//! Terasort sorts 100-byte records by a 10-byte key. The substrate here is
//! a real multi-run merge sort executed over a [`TraceArena`]: the
//! generation phase writes records sequentially, the sort phase reads runs,
//! sorts them (compute), writes sorted runs, and the merge phase streams
//! all runs into the output region — producing terasort's signature mix of
//! streaming reads/writes over a large working set.

use crate::arena::TraceArena;
use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

const RECORD_BYTES: u64 = 100;

/// Phases of the sort pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Generate,
    SortRuns(u64),
    Merge(u64),
}

/// The terasort workload.
#[derive(Debug)]
pub struct Terasort {
    arena: TraceArena,
    records: u64,
    run_records: u64,
    input_off: u64,
    output_off: u64,
    phase: Phase,
}

impl Terasort {
    /// A sorter whose input + output fit in `working_set`.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        let mut arena = TraceArena::new(working_set);
        // Input and output halves.
        let records = (working_set / 2 / RECORD_BYTES).max(1024);
        let input_off = arena.alloc(records * RECORD_BYTES, 4096);
        let output_off = arena.alloc(records * RECORD_BYTES, 4096);
        let run_records = (records / 64).max(256);
        Self {
            arena,
            records,
            run_records,
            input_off,
            output_off,
            phase: Phase::Generate,
        }
    }

    fn step(&mut self, rng: &mut StdRng) {
        match self.phase {
            Phase::Generate => {
                // Write a chunk of random records sequentially.
                let chunk = self.run_records.min(self.records);
                for r in 0..chunk {
                    let off = self.input_off + r * RECORD_BYTES;
                    self.arena.compute(2_000); // key generation
                    self.arena.write(off, RECORD_BYTES);
                    let _ = rng.gen::<u64>();
                }
                self.phase = Phase::SortRuns(0);
            }
            Phase::SortRuns(run) => {
                let base = self.input_off + run * self.run_records * RECORD_BYTES;
                if run * self.run_records >= self.records {
                    self.phase = Phase::Merge(0);
                    return;
                }
                let n = self.run_records.min(self.records - run * self.run_records);
                // Read the run, sort (n log n compute), write back.
                self.arena.read(base, n * RECORD_BYTES);
                let cmp_cost = (n as f64 * (n as f64).log2()) as u64 * 800;
                self.arena.compute(cmp_cost);
                self.arena.write(base, n * RECORD_BYTES);
                self.phase = Phase::SortRuns(run + 1);
            }
            Phase::Merge(pos) => {
                if pos >= self.records {
                    self.phase = Phase::Generate; // Next job iteration.
                    return;
                }
                let n = self.run_records.min(self.records - pos);
                // k-way merge: read record from the head of a (pseudo)
                // random run, write sequentially to output.
                let runs = (self.records / self.run_records).max(1);
                for i in 0..n {
                    let run = rng.gen_range(0..runs);
                    let head = self.input_off
                        + (run * self.run_records + (pos + i) % self.run_records) * RECORD_BYTES;
                    self.arena.read(head, RECORD_BYTES);
                    self.arena.compute(1_500); // heap sift
                    self.arena
                        .write(self.output_off + (pos + i) * RECORD_BYTES, RECORD_BYTES);
                }
                self.phase = Phase::Merge(pos + n);
            }
        }
    }
}

impl WorkloadGen for Terasort {
    fn name(&self) -> String {
        "terasort".into()
    }

    fn working_set(&self) -> u64 {
        self.arena.capacity()
    }

    fn metric(&self) -> Metric {
        Metric::ExecTime
    }

    fn cost_hint(&self) -> u64 {
        2
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let mut out: Vec<GuestOp> = Vec::with_capacity(count + 1024);
        while out.len() < count {
            self.step(rng);
            out.extend(self.arena.take_trace());
        }
        out.truncate(count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn covers_all_phases() {
        let mut t = Terasort::new(8 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        // Enough ops to cycle generate -> sort -> merge.
        let ops = t.generate(400_000, &mut rng);
        assert_eq!(ops.len(), 400_000);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        let reads = ops.len() - writes;
        assert!(writes > 0 && reads > 0);
        // Streaming job: mostly sequential, no dependent chains.
        assert!(ops.iter().all(|o| !o.is_dependent()));
    }

    #[test]
    fn output_region_receives_writes_during_merge() {
        let mut t = Terasort::new(4 << 20);
        let out_off = t.output_off;
        let mut rng = StdRng::seed_from_u64(2);
        let ops = t.generate(600_000, &mut rng);
        assert!(
            ops.iter().any(|o| o.is_write() && o.offset() >= out_off),
            "merge must write the output half"
        );
    }
}
