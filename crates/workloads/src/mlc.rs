//! Intel Memory Latency Checker (MLC)-like bandwidth kernels (§7.3).
//!
//! MLC measures peak throughput under controlled read:write ratios plus a
//! STREAM-triad-like kernel. These are pure streaming loops — the workloads
//! that maximally exercise bank-level parallelism, and therefore the most
//! sensitive to any allocation policy that would sacrifice it.

use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;

/// The five MLC configurations used in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlcKind {
    /// All reads.
    Reads,
    /// 3 reads : 1 write.
    R3W1,
    /// 2 reads : 1 write.
    R2W1,
    /// 1 read : 1 write.
    R1W1,
    /// STREAM-triad-like: `a[i] = b[i] + s * c[i]`.
    Stream,
}

impl MlcKind {
    /// All five, in figure order.
    pub const ALL: [MlcKind; 5] = [
        MlcKind::Reads,
        MlcKind::R3W1,
        MlcKind::R2W1,
        MlcKind::R1W1,
        MlcKind::Stream,
    ];

    /// Figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MlcKind::Reads => "mlc-reads",
            MlcKind::R3W1 => "mlc-3:1",
            MlcKind::R2W1 => "mlc-2:1",
            MlcKind::R1W1 => "mlc-1:1",
            MlcKind::Stream => "mlc-stream",
        }
    }
}

/// An MLC bandwidth kernel.
#[derive(Debug)]
pub struct Mlc {
    kind: MlcKind,
    working_set: u64,
    cursor: u64,
}

impl Mlc {
    /// A kernel streaming over `working_set` bytes.
    #[must_use]
    pub fn new(kind: MlcKind, working_set: u64) -> Self {
        Self {
            kind,
            working_set,
            cursor: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        let at = self.cursor;
        self.cursor = (self.cursor + 64) % self.working_set;
        at
    }
}

impl WorkloadGen for Mlc {
    fn name(&self) -> String {
        self.kind.label().into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::Throughput
    }

    fn cost_hint(&self) -> u64 {
        // Pure arithmetic address streams: the cheapest cells.
        2
    }

    fn generate(&mut self, count: usize, _rng: &mut StdRng) -> Vec<GuestOp> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            match self.kind {
                MlcKind::Reads => out.push(GuestOp::read(self.bump())),
                MlcKind::R3W1 => {
                    for _ in 0..3 {
                        out.push(GuestOp::read(self.bump()));
                    }
                    out.push(GuestOp::write(self.bump()));
                }
                MlcKind::R2W1 => {
                    for _ in 0..2 {
                        out.push(GuestOp::read(self.bump()));
                    }
                    out.push(GuestOp::write(self.bump()));
                }
                MlcKind::R1W1 => {
                    out.push(GuestOp::read(self.bump()));
                    out.push(GuestOp::write(self.bump()));
                }
                MlcKind::Stream => {
                    // a[i] = b[i] + s * c[i]: thirds of the working set.
                    let third = self.working_set / 3 / 64 * 64;
                    let i = self.cursor % third;
                    self.cursor = (self.cursor + 64) % third;
                    out.push(GuestOp::read(third + i)); // b[i]
                    out.push(GuestOp::read(2 * third + i)); // c[i]
                    out.push(GuestOp::write(i)); // a[i]
                }
            }
        }
        out.truncate(count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ratio(kind: MlcKind) -> f64 {
        let mut wl = Mlc::new(kind, 1 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = wl.generate(12_000, &mut rng);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        writes as f64 / ops.len() as f64
    }

    #[test]
    fn ratios_match_labels() {
        assert_eq!(ratio(MlcKind::Reads), 0.0);
        assert!((ratio(MlcKind::R3W1) - 0.25).abs() < 0.01);
        assert!((ratio(MlcKind::R2W1) - 1.0 / 3.0).abs() < 0.01);
        assert!((ratio(MlcKind::R1W1) - 0.5).abs() < 0.01);
        assert!((ratio(MlcKind::Stream) - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn streaming_is_sequential() {
        let mut wl = Mlc::new(MlcKind::Reads, 1 << 20);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = wl.generate(100, &mut rng);
        for w in ops.windows(2) {
            assert_eq!(w[1].offset(), (w[0].offset() + 64) % (1 << 20));
        }
    }

    #[test]
    fn stream_triad_touches_three_arrays() {
        let ws = 3 << 20;
        let mut wl = Mlc::new(MlcKind::Stream, ws);
        let mut rng = StdRng::seed_from_u64(3);
        let ops = wl.generate(9, &mut rng);
        let third = ws / 3 / 64 * 64;
        assert!(ops[0].offset() >= third && ops[0].offset() < 2 * third);
        assert!(ops[1].offset() >= 2 * third);
        assert!(ops[2].offset() < third);
        assert!(ops[2].is_write());
    }
}
