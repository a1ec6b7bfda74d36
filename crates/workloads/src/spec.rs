//! SPEC CPU 2017-like memory kernels (§7.2).
//!
//! The paper reports a SPECspeed geometric mean. We model the suite as a
//! rotation of kernels matching the memory-behaviour archetypes of the
//! benchmarks: pointer chasing over sparse graphs (mcf-like), structured
//! stencil sweeps (lbm/cactuBSSN-like), compute-dense tree search with
//! modest footprints (deepsjeng/leela-like), and mixed instruction-heavy
//! streaming (gcc/perlbench-like).

use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

/// Memory-behaviour archetypes rotated through the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// mcf-like: dependent pointer chase over a large sparse structure.
    PointerChase,
    /// lbm-like: streaming stencil, reads neighbors + writes center.
    Stencil,
    /// deepsjeng-like: compute-heavy with small hot working set.
    TreeSearch,
    /// gcc-like: mixed sequential bursts with irregular jumps.
    Mixed,
}

const KERNELS: [Kernel; 4] = [
    Kernel::PointerChase,
    Kernel::Stencil,
    Kernel::TreeSearch,
    Kernel::Mixed,
];

/// The SPEC-like suite: rotates through all kernels, reported as one
/// geometric-mean execution-time entry (matching the paper's "SPEC-2017"
/// bar).
#[derive(Debug)]
pub struct SpecSuite {
    working_set: u64,
    kernel_idx: usize,
    /// Pseudo pointer-chain state.
    chase_at: u64,
    stencil_row: u64,
}

impl SpecSuite {
    /// A suite over `working_set` bytes.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        Self {
            working_set,
            kernel_idx: 0,
            chase_at: 0,
            stencil_row: 0,
        }
    }

    fn gen_kernel(&mut self, kernel: Kernel, out: &mut Vec<GuestOp>, n: usize, rng: &mut StdRng) {
        let ws = self.working_set;
        match kernel {
            Kernel::PointerChase => {
                // Dependent loads with data-determined (random) strides.
                for _ in 0..n {
                    let next = (self.chase_at ^ (self.chase_at >> 7).wrapping_mul(0x9e37_79b9))
                        .wrapping_add(rng.gen_range(0..4096));
                    self.chase_at = (next * 64) % ws;
                    out.push(GuestOp::read(self.chase_at).chained().with_gap_ps(600));
                }
            }
            Kernel::Stencil => {
                // 2D 5-point stencil over a row-major grid of 64 B cells.
                let row_cells = 256u64;
                let rows = ws / (row_cells * 64);
                for i in 0..n as u64 {
                    let r = (self.stencil_row + i / row_cells) % rows.max(3);
                    let c = i % row_cells;
                    let at = |rr: u64, cc: u64| ((rr % rows) * row_cells + cc % row_cells) * 64;
                    out.push(GuestOp::read(at(r, c)));
                    out.push(GuestOp::read(at(r + 1, c)));
                    out.push(GuestOp::read(at(r.wrapping_sub(1), c)));
                    out.push(GuestOp::write(at(r, c)).with_gap_ps(900));
                }
                self.stencil_row = (self.stencil_row + (n as u64 / row_cells).max(1)) % rows.max(3);
            }
            Kernel::TreeSearch => {
                // Small hot set, high compute per access.
                let hot = (ws / 64).min(4096);
                for _ in 0..n {
                    let slot = rng.gen_range(0..hot);
                    out.push(GuestOp::read(slot * 64).with_gap_ps(4_000));
                }
            }
            Kernel::Mixed => {
                // Sequential bursts with irregular jumps.
                let mut at = rng.gen_range(0..ws / 64) * 64;
                let mut emitted = 0usize;
                while emitted < n {
                    let burst = rng.gen_range(4..32usize);
                    for _ in 0..burst.min(n - emitted) {
                        out.push(GuestOp::read(at).with_gap_ps(800));
                        at = (at + 64) % ws;
                        emitted += 1;
                    }
                    if rng.gen_bool(0.2) && emitted < n {
                        at = rng.gen_range(0..ws / 64) * 64;
                        out.push(GuestOp::write(at));
                        emitted += 1;
                    }
                }
            }
        }
    }
}

impl WorkloadGen for SpecSuite {
    fn name(&self) -> String {
        "SPEC-2017".into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::ExecTime
    }

    fn cost_hint(&self) -> u64 {
        2
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let mut out = Vec::with_capacity(count + 64);
        // Rotate kernels in equal shares.
        let share = (count / KERNELS.len()).max(1);
        while out.len() < count {
            let kernel = KERNELS[self.kernel_idx % KERNELS.len()];
            self.kernel_idx += 1;
            let remaining = count - out.len();
            self.gen_kernel(kernel, &mut out, share.min(remaining), rng);
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
    fn suite_mixes_dependent_and_streaming_behaviour() {
        let mut wl = SpecSuite::new(32 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = wl.generate(40_000, &mut rng);
        assert_eq!(ops.len(), 40_000);
        let dependent = ops.iter().filter(|o| o.is_dependent()).count();
        assert!(
            dependent > 1_000,
            "pointer-chase share present: {dependent}"
        );
        let writes = ops.iter().filter(|o| o.is_write()).count();
        assert!(writes > 1_000, "stencil/mixed writes present: {writes}");
        assert!(ops.iter().all(|o| o.offset() < 32 << 20));
    }

    #[test]
    fn kernels_rotate() {
        let mut wl = SpecSuite::new(8 << 20);
        let mut rng = StdRng::seed_from_u64(2);
        let _ = wl.generate(1_000, &mut rng);
        let idx = wl.kernel_idx;
        let _ = wl.generate(1_000, &mut rng);
        assert!(wl.kernel_idx > idx);
    }
}
