//! YCSB core workloads A-F over the redis-like KV store (§7.2).

use crate::kv::KvStore;
use crate::zipf::{Latest, Zipfian};
use crate::{GuestOp, Metric, SubstrateSnapshot, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

/// The six YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbKind {
    /// 50% read / 50% update, zipfian.
    A,
    /// 95% read / 5% update, zipfian.
    B,
    /// 100% read, zipfian.
    C,
    /// 95% read-latest / 5% insert.
    D,
    /// 95% short scans / 5% insert, zipfian start keys.
    E,
    /// 50% read / 50% read-modify-write, zipfian.
    F,
}

impl YcsbKind {
    /// All six, in order.
    pub const ALL: [YcsbKind; 6] = [
        YcsbKind::A,
        YcsbKind::B,
        YcsbKind::C,
        YcsbKind::D,
        YcsbKind::E,
        YcsbKind::F,
    ];

    /// Paper-style label (`redis-A` ... `redis-F`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            YcsbKind::A => "redis-A",
            YcsbKind::B => "redis-B",
            YcsbKind::C => "redis-C",
            YcsbKind::D => "redis-D",
            YcsbKind::E => "redis-E",
            YcsbKind::F => "redis-F",
        }
    }
}

/// A YCSB client bound to a KV store.
#[derive(Debug)]
pub struct Ycsb {
    kind: YcsbKind,
    store: KvStore,
    zipf: Zipfian,
    latest: Latest,
    keys: u64,
    next_insert: u64,
    loaded: bool,
}

impl Ycsb {
    /// A YCSB workload over a store sized to `working_set`.
    #[must_use]
    pub fn new(kind: YcsbKind, working_set: u64) -> Self {
        let keys = (working_set / 2048).max(64); // ~1 KiB records + table
        Self {
            kind,
            store: KvStore::new(working_set, keys * 2),
            zipf: Zipfian::ycsb(keys),
            latest: Latest::new(keys.min(1000)),
            keys,
            next_insert: keys,
            loaded: false,
        }
    }

    fn ensure_loaded(&mut self, rng: &mut StdRng) {
        if self.loaded {
            return;
        }
        // The load phase is warmup, not measured traffic: emit no ops. The
        // load is identical for every [`YcsbKind`] over the same store size
        // and seed, which is what makes the substrate poolable.
        self.store.mute_trace(true);
        self.store
            .set_all((0..self.keys).map(|k| (k, rng.gen_range(800..=1200))));
        self.store.mute_trace(false);
        self.loaded = true;
    }

    fn one_op(&mut self, rng: &mut StdRng) {
        let key = self.zipf.sample(rng);
        match self.kind {
            YcsbKind::A => {
                if rng.gen_bool(0.5) {
                    self.store.get(key);
                } else {
                    self.store.set(key, rng.gen_range(800..=1200));
                }
            }
            YcsbKind::B => {
                if rng.gen_bool(0.95) {
                    self.store.get(key);
                } else {
                    self.store.set(key, rng.gen_range(800..=1200));
                }
            }
            YcsbKind::C => {
                self.store.get(key);
            }
            YcsbKind::D => {
                if rng.gen_bool(0.95) {
                    let k = self.latest.sample(self.next_insert - 1, rng);
                    self.store.get(k);
                } else {
                    let k = self.next_insert;
                    self.next_insert += 1;
                    self.store.set(k, rng.gen_range(800..=1200));
                }
            }
            YcsbKind::E => {
                if rng.gen_bool(0.95) {
                    self.store.scan(key, rng.gen_range(1..=100));
                } else {
                    let k = self.next_insert;
                    self.next_insert += 1;
                    self.store.set(k, rng.gen_range(800..=1200));
                }
            }
            YcsbKind::F => {
                if rng.gen_bool(0.5) {
                    self.store.get(key);
                } else {
                    // Read-modify-write.
                    self.store.get(key);
                    self.store.set(key, rng.gen_range(800..=1200));
                }
            }
        }
    }
}

impl WorkloadGen for Ycsb {
    fn name(&self) -> String {
        self.kind.label().into()
    }

    fn working_set(&self) -> u64 {
        self.store.working_set()
    }

    fn metric(&self) -> Metric {
        Metric::ExecTime
    }

    fn cost_hint(&self) -> u64 {
        // KV-substrate cells dominate a figure run; write-heavy mixes (A, F
        // rewrites, B updates) churn the store hardest.
        match self.kind {
            YcsbKind::A => 15,
            YcsbKind::B => 13,
            YcsbKind::C | YcsbKind::D => 9,
            YcsbKind::E | YcsbKind::F => 8,
        }
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        self.ensure_loaded(rng);
        // Accumulate in the arena and take once at the end — same ops in
        // the same order as taking after every request, minus the copies.
        while self.store.trace_len() < count {
            self.one_op(rng);
        }
        let mut out = self.store.take_trace();
        out.truncate(count);
        out
    }

    fn substrate_key(&self) -> Option<String> {
        // All six mixes share one preload over the same store size.
        Some(format!("ycsb-kv/{}", self.store.working_set()))
    }

    fn preload(&mut self, rng: &mut StdRng) {
        self.ensure_loaded(rng);
    }

    fn export_substrate(&self) -> Option<SubstrateSnapshot> {
        self.loaded
            .then(|| SubstrateSnapshot::Kv(self.store.clone()))
    }

    fn adopt_substrate(&mut self, snap: &SubstrateSnapshot) {
        let SubstrateSnapshot::Kv(store) = snap;
        self.store = store.clone();
        self.loaded = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mix(kind: YcsbKind) -> (usize, usize) {
        let mut wl = Ycsb::new(kind, 8 << 20);
        let mut rng = StdRng::seed_from_u64(11);
        let ops = wl.generate(20_000, &mut rng);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        (writes, ops.len())
    }

    #[test]
    fn workload_c_is_read_only() {
        let (writes, _) = mix(YcsbKind::C);
        assert_eq!(writes, 0);
    }

    #[test]
    fn workload_a_writes_more_than_b() {
        let (wa, _) = mix(YcsbKind::A);
        let (wb, _) = mix(YcsbKind::B);
        assert!(
            wa > wb * 3,
            "A ({wa}) must be far more write-heavy than B ({wb})"
        );
    }

    #[test]
    fn workload_d_inserts_advance_keyspace() {
        let mut wl = Ycsb::new(YcsbKind::D, 8 << 20);
        let before = wl.next_insert;
        let mut rng = StdRng::seed_from_u64(3);
        let _ = wl.generate(20_000, &mut rng);
        assert!(wl.next_insert > before, "inserts happened");
    }

    #[test]
    fn workload_e_scans_are_sequential_ish() {
        let mut wl = Ycsb::new(YcsbKind::E, 8 << 20);
        let mut rng = StdRng::seed_from_u64(4);
        let ops = wl.generate(20_000, &mut rng);
        // Scans produce long runs of reads; verify read dominance.
        let reads = ops.iter().filter(|o| !o.is_write()).count();
        assert!(reads as f64 / ops.len() as f64 > 0.9);
    }

    #[test]
    fn all_kinds_have_labels_and_generate() {
        let mut rng = StdRng::seed_from_u64(5);
        for kind in YcsbKind::ALL {
            let mut wl = Ycsb::new(kind, 4 << 20);
            assert!(wl.name().starts_with("redis-"));
            let ops = wl.generate(1_000, &mut rng);
            assert_eq!(ops.len(), 1_000);
        }
    }
}
