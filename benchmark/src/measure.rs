//! Process accounting (`/proc/self/stat`, `/proc/self/status`), the
//! machine-speed probe, and the order statistics every metric is reported
//! with.
//!
//! The gated timing is user-mode CPU, not wall clock: first-touch page
//! faults in a sandbox are charged to system time and swing several-fold
//! from run to run, while user time and the fault *count* repeat. Wall and
//! system time are still captured (under the `process` layer) so the
//! spread is visible.
//!
//! User time itself is not steady on a shared host either: identical work
//! costs 15–30% more CPU for seconds at a time while a neighbour occupies
//! the sibling hyperthread or the last-level cache. [`SpeedProbe`] times
//! a fixed kernel around every pass so that CPU seconds can be rescaled
//! to one reference machine speed.

use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// has reported `USER_HZ = 100` to userspace on every architecture since
/// 2.6, independent of the kernel's internal `HZ`.
const TICKS_PER_S: f64 = 100.0;

/// The slice of `/proc/self/stat` the harness reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStat {
    /// Minor faults so far (field 10).
    pub minor_faults: u64,
    /// User-mode ticks so far (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode ticks so far (field 15).
    pub stime_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_proc_stat(line: &str) -> Option<ProcStat> {
    let tail = &line[line.rfind(')')? + 1..];
    // `tail` starts at field 3 (state).
    let mut fields = tail.split_ascii_whitespace();
    let minor_faults = fields.nth(7)?.parse().ok()?; // field 10
    let utime_ticks = fields.nth(3)?.parse().ok()?; // field 14
    let stime_ticks = fields.next()?.parse().ok()?; // field 15
    Some(ProcStat {
        minor_faults,
        utime_ticks,
        stime_ticks,
    })
}

/// Parses the `VmHWM:` line (peak resident set, KiB) out of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's counters right now.
pub fn proc_stat_now() -> ProcStat {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// This process's peak resident set so far, MiB.
pub fn peak_rss_mb_now() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .expect("/proc/self/status carries VmHWM on Linux");
    kib as f64 / 1024.0
}

/// What one timed region cost the process.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionCost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User-mode CPU seconds (tick-quantised).
    pub user_s: f64,
    /// Kernel-mode CPU seconds (tick-quantised).
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl RegionCost {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &RegionCost) {
        self.wall_s += other.wall_s;
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.minor_faults += other.minor_faults;
    }
}

/// An open timed region; [`RegionTimer::stop`] closes it.
pub struct RegionTimer {
    wall: Instant,
    stat: ProcStat,
}

impl RegionTimer {
    /// Opens a region now.
    pub fn start() -> Self {
        Self {
            stat: proc_stat_now(),
            wall: Instant::now(),
        }
    }

    /// Closes the region and returns what it cost.
    pub fn stop(self) -> RegionCost {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let now = proc_stat_now();
        RegionCost {
            wall_s,
            user_s: (now.utime_ticks - self.stat.utime_ticks) as f64 / TICKS_PER_S,
            sys_s: (now.stime_ticks - self.stat.stime_ticks) as f64 / TICKS_PER_S,
            minor_faults: now.minor_faults - self.stat.minor_faults,
        }
    }
}

/// Seconds one [`SpeedProbe`] sample takes on the development sandbox
/// when nothing contends for the core: the reference machine speed.
const PROBE_NOMINAL_S: f64 = 0.034;

/// A fixed kernel — an arithmetic loop, random read-modify-writes over a
/// 16 MiB buffer (far beyond the core's private caches), and ordered-map
/// churn — whose
/// running time tracks how fast this machine executes simulator-like code
/// *right now*. The three phases slow down under different neighbours
/// (hyperthread sibling, memory bandwidth, cache occupancy), as the
/// simulator's own mix of loops, replay buffers and `BTreeMap`s does.
pub struct SpeedProbe {
    buf: Vec<u64>,
}

impl SpeedProbe {
    /// Allocates and touches the probe's buffer, so samples take no faults.
    pub fn new() -> Self {
        let mut probe = Self {
            buf: vec![1; 2 << 20],
        };
        probe.sample();
        probe
    }

    /// Runs the kernel once and returns the machine's current speed
    /// relative to the reference: below 1 while something slows it down.
    pub fn sample(&mut self) -> f64 {
        const LCG_MUL: u64 = 6_364_136_223_846_793_005;
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0u64;
        for _ in 0..6_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.rotate_left((x & 31) as u32));
        }
        let slots = self.buf.len() as u64;
        for _ in 0..1_000_000 {
            x = x.wrapping_mul(LCG_MUL).wrapping_add(1);
            let slot = ((x >> 20) % slots) as usize;
            acc = acc.wrapping_add(self.buf[slot]);
            self.buf[slot] = acc;
        }
        let mut map = std::collections::BTreeMap::new();
        for i in 0..100_000u64 {
            x = x.wrapping_mul(LCG_MUL).wrapping_add(1);
            map.insert(x >> 40, i);
            if map.len() > 50_000 {
                map.pop_first();
            }
        }
        std::hint::black_box((acc, map.len()));
        PROBE_NOMINAL_S / t.elapsed().as_secs_f64()
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest reportable percentile of an `n`-sample distribution: the
/// largest of p90 / p99 / p99.9 / p99.99 that still has at least ten
/// samples beyond it, or `None` when even p90 does not (n < 100).
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In basis points, so "ten samples beyond" is exact integer arithmetic.
    [9_999u64, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|bp| n as u64 * (10_000 - bp) >= 10 * 10_000)
        .map(|bp| bp as f64 / 10_000.0)
}

/// A timing distribution as the guide wants it reported: the median, the
/// highest percentile with at least ten samples beyond it, and the sample
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Distribution {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// `(q, value)` of the tail percentile, when the sample supports one.
    pub tail: Option<(f64, f64)>,
}

impl Distribution {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            mean: mean(&v),
            tail: highest_percentile(v.len()).map(|q| (q, quantile_sorted(&v, q))),
        }
    }
}

/// FNV-1a over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]). The digest of a workload's rendered reports: exact at
/// a fixed seed, so two commits can be compared for "every simulated
/// statistic identical".
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_parses_past_a_hostile_command_name() {
        let line = "9081 (a b) c)) R 9077 9081 9077 0 -1 4194304 84 0 0 0 \
                    7 3 0 0 20 0 1 0 397669 2703360 321";
        let s = parse_proc_stat(line).unwrap();
        assert_eq!(
            s,
            ProcStat {
                minor_faults: 84,
                utime_ticks: 7,
                stime_ticks: 3
            }
        );
        assert_eq!(parse_proc_stat("no parenthesis here"), None);
        assert_eq!(parse_proc_stat("1 (x) R 1 2 3"), None, "truncated line");
    }

    #[test]
    fn live_proc_stat_is_monotone() {
        let a = proc_stat_now();
        let mut sink = 0u64;
        for i in 0..5_000_000u64 {
            sink = sink.wrapping_add(std::hint::black_box(i) * 3);
        }
        std::hint::black_box(sink);
        let b = proc_stat_now();
        assert!(b.utime_ticks >= a.utime_ticks);
        assert!(b.minor_faults >= a.minor_faults);
        assert!(peak_rss_mb_now() > 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1780 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1780));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
        assert_eq!(highest_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn distribution_reports_median_and_supported_tail() {
        let small = Distribution::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.n, small.p50, small.tail), (3, 2.0, None));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let d = Distribution::of(&values);
        assert_eq!(d.n, 200);
        assert!((d.p50 - 100.5).abs() < 1e-9);
        let (q, v) = d.tail.unwrap();
        assert_eq!(q, 0.9);
        assert!((v - 180.1).abs() < 1e-9, "p90 of 1..=200 is {v}");
        assert_eq!(Distribution::of(&[]).p50, 0.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        let split = fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar");
        assert_eq!(split, fnv1a(FNV_OFFSET, b"foobar"), "digests chain");
    }
}
