//! Additional memory-intensive kernels beyond the paper's roster: GUPS
//! (random updates, the classic bank-conflict stressor) and a PageRank-like
//! push-style graph traversal. Useful for widening the performance sweeps
//! and the colocation experiments.

use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

/// GUPS (giga-updates-per-second): read-modify-write to random 64-bit words
/// over the whole working set — minimal locality, maximal bank pressure.
#[derive(Debug)]
pub struct Gups {
    working_set: u64,
}

impl Gups {
    /// A GUPS kernel over `working_set` bytes.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        Self { working_set }
    }
}

impl WorkloadGen for Gups {
    fn name(&self) -> String {
        "gups".into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::Throughput
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let lines = self.working_set / 64;
        let mut out = Vec::with_capacity(count);
        while out.len() + 2 <= count {
            let at = rng.gen_range(0..lines) * 64;
            // Read-modify-write: the write depends on the read.
            out.push(GuestOp::read(at).with_gap_ps(500));
            out.push(GuestOp::write(at).chained());
        }
        while out.len() < count {
            out.push(GuestOp::read(rng.gen_range(0..lines) * 64));
        }
        out
    }
}

/// A push-style PageRank-like traversal over a synthetic power-law graph:
/// sequential scan of the vertex array, random pushes to out-neighbors.
#[derive(Debug)]
pub struct PageRank {
    working_set: u64,
    vertex: u64,
    zipf: crate::zipf::Zipfian,
}

impl PageRank {
    /// A graph whose vertex + edge arrays fill `working_set`.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        let vertices = (working_set / 2 / 64).max(16);
        Self {
            working_set,
            vertex: 0,
            zipf: crate::zipf::Zipfian::new(vertices, 0.7, true),
        }
    }

    /// Number of vertices (64 B of state each, in the lower half).
    #[must_use]
    pub fn vertices(&self) -> u64 {
        self.working_set / 2 / 64
    }
}

impl WorkloadGen for PageRank {
    fn name(&self) -> String {
        "pagerank".into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::ExecTime
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let vertices = self.vertices();
        let half = vertices * 64;
        let mut out = Vec::with_capacity(count + 8);
        while out.len() < count {
            // Sequential source-vertex scan (rank + out-degree).
            out.push(GuestOp::read(self.vertex * 64).with_gap_ps(1_200));
            // Push contributions to a power-law-distributed set of
            // neighbors (writes into the upper half's rank-accumulators).
            let degree = 1 + rng.gen_range(0..6);
            for _ in 0..degree {
                let dst = self.zipf.sample(rng);
                out.push(GuestOp::write(half + dst * 64));
            }
            self.vertex = (self.vertex + 1) % vertices;
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
    fn gups_is_rmw_heavy_and_random() {
        let mut wl = Gups::new(8 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = wl.generate(10_000, &mut rng);
        assert_eq!(ops.len(), 10_000);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        assert!((writes as f64 / ops.len() as f64 - 0.5).abs() < 0.01);
        // Writes depend on their reads.
        assert!(ops
            .iter()
            .filter(|o| o.is_write())
            .all(|o| o.is_dependent()));
        assert!(ops.iter().all(|o| o.offset() < 8 << 20));
    }

    #[test]
    fn pagerank_scans_sources_and_pushes_to_hubs() {
        let mut wl = PageRank::new(8 << 20);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = wl.generate(20_000, &mut rng);
        let half = wl.vertices() * 64;
        // Reads in lower half (vertex scan), writes in upper half (pushes).
        for op in &ops {
            if op.is_write() {
                assert!(op.offset() >= half);
            } else {
                assert!(op.offset() < half);
            }
        }
        // Power-law pushes: the hottest accumulator sees far more traffic
        // than the median.
        use std::collections::HashMap;
        let mut hist: HashMap<u64, u32> = HashMap::new();
        for op in ops.iter().filter(|o| o.is_write()) {
            *hist.entry(op.offset()).or_default() += 1;
        }
        let max = hist.values().max().copied().unwrap_or(0);
        assert!(max >= 8, "hub vertex must be hot: max {max}");
    }

    #[test]
    fn extras_are_deterministic() {
        let gen = |seed| {
            let mut wl = Gups::new(1 << 20);
            wl.generate(100, &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
