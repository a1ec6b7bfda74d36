//! PARSEC 3.0-like parallel-workload kernels (§7.2).
//!
//! PARSEC's suite spans financial math (blackscholes: streaming
//! read-compute), simulated annealing (canneal: random pointer chasing over
//! a huge netlist), streaming clustering (streamcluster: scan + hot
//! centroids), and particle simulation (fluidanimate: neighborhood grids).
//! Reported as one geometric-mean entry, matching the paper's "PARSEC-3.0"
//! bar.

use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    BlackScholes,
    Canneal,
    StreamCluster,
    FluidAnimate,
}

const KERNELS: [Kernel; 4] = [
    Kernel::BlackScholes,
    Kernel::Canneal,
    Kernel::StreamCluster,
    Kernel::FluidAnimate,
];

/// The PARSEC-like suite.
#[derive(Debug)]
pub struct ParsecSuite {
    working_set: u64,
    kernel_idx: usize,
    stream_pos: u64,
}

impl ParsecSuite {
    /// A suite over `working_set` bytes.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        Self {
            working_set,
            kernel_idx: 0,
            stream_pos: 0,
        }
    }

    fn gen_kernel(&mut self, kernel: Kernel, out: &mut Vec<GuestOp>, n: usize, rng: &mut StdRng) {
        let ws = self.working_set;
        match kernel {
            Kernel::BlackScholes => {
                // Stream option records (64 B), compute-heavy per record.
                for _ in 0..n {
                    out.push(GuestOp::read(self.stream_pos).with_gap_ps(6_000));
                    self.stream_pos = (self.stream_pos + 64) % ws;
                }
            }
            Kernel::Canneal => {
                // Random dependent hops over the netlist + occasional swap
                // writes.
                for i in 0..n {
                    let at = rng.gen_range(0..ws / 64) * 64;
                    if i % 8 == 7 {
                        out.push(GuestOp::write(at));
                    } else {
                        out.push(GuestOp::read(at).chained().with_gap_ps(1_200));
                    }
                }
            }
            Kernel::StreamCluster => {
                // Scan points sequentially; compare against hot centroids.
                let centroids = 64u64;
                for i in 0..n {
                    if i % 4 == 3 {
                        let c = rng.gen_range(0..centroids);
                        out.push(GuestOp::read(c * 64).with_gap_ps(2_000));
                    } else {
                        out.push(GuestOp::read(self.stream_pos));
                        self.stream_pos = (self.stream_pos + 64) % ws;
                    }
                }
            }
            Kernel::FluidAnimate => {
                // 3D grid neighborhoods: base cell + 3 neighbors, write
                // back.
                let cells = ws / 64;
                let dim = (cells as f64).cbrt() as u64;
                let plane = dim * dim;
                for _ in 0..n / 5 {
                    let cell = rng.gen_range(0..cells);
                    let at = |c: u64| (c % cells) * 64;
                    out.push(GuestOp::read(at(cell)));
                    out.push(GuestOp::read(at(cell + 1)));
                    out.push(GuestOp::read(at(cell + dim)));
                    out.push(GuestOp::read(at(cell + plane)));
                    out.push(GuestOp::write(at(cell)).with_gap_ps(1_500));
                }
            }
        }
    }
}

impl WorkloadGen for ParsecSuite {
    fn name(&self) -> String {
        "PARSEC-3.0".into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::ExecTime
    }

    fn cost_hint(&self) -> u64 {
        3
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let mut out = Vec::with_capacity(count + 64);
        let share = (count / KERNELS.len()).max(5);
        while out.len() < count {
            let kernel = KERNELS[self.kernel_idx % KERNELS.len()];
            self.kernel_idx += 1;
            let remaining = count - out.len();
            self.gen_kernel(kernel, &mut out, share.min(remaining).max(5), rng);
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
    fn suite_generates_mixed_behaviour() {
        let mut wl = ParsecSuite::new(16 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = wl.generate(40_000, &mut rng);
        assert_eq!(ops.len(), 40_000);
        assert!(
            ops.iter().any(|o| o.is_dependent()),
            "canneal chases pointers"
        );
        assert!(
            ops.iter().any(|o| o.is_write()),
            "fluidanimate/canneal write"
        );
        assert!(ops.iter().all(|o| o.offset() < 16 << 20));
    }

    #[test]
    fn blackscholes_share_is_sequential() {
        let mut wl = ParsecSuite::new(1 << 20);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = wl.generate(100, &mut rng);
        // First share comes from blackscholes: strictly ascending stream.
        let first: Vec<u64> = ops.iter().take(20).map(|o| o.offset()).collect();
        for w in first.windows(2) {
            assert_eq!(w[1], (w[0] + 64) % (1 << 20));
        }
    }
}
