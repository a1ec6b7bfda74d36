//! An in-memory key-value store substrate (redis/memcached-like).
//!
//! A real open-addressed hash table over a [`TraceArena`]: keys hash to
//! bucket slots; values live in arena extents. Every probe, value read, and
//! value write is emitted to the trace — so YCSB mixes (§7.2) and
//! memcached-style throughput loads (§7.3) exercise the memory system the
//! way a KV service does: a dependent pointer chase into the bucket array
//! followed by value-sized sequential access.

use crate::arena::TraceArena;
use crate::{GuestOp, Metric, SubstrateSnapshot, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

const BUCKET_BYTES: u64 = 64;

/// One bucket: key id + value location (modeled, sized one cache line).
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    key: u64,
    value_off: u64,
    value_len: u32,
    used: bool,
}

/// The KV store substrate.
///
/// The bucket table is copy-on-write and allocated by the first write: a
/// store nobody writes costs no table, and a clone (a pooled
/// [`SubstrateSnapshot`] and every store adopting it) shares the table
/// rather than copying it. A write made while the table is shared lands in
/// a small per-store overlay that shadows the table slot.
#[derive(Debug, Clone)]
pub struct KvStore {
    arena: TraceArena,
    /// `slots` buckets, allocated by the first write.
    table: Option<Arc<Vec<Bucket>>>,
    /// Slots this store wrote while `table` was shared with a clone.
    overlay: BTreeMap<usize, Bucket>,
    slots: usize,
    buckets_off: u64,
    items: u64,
    /// CPU cost modeled per operation (hashing, dispatch), ps.
    op_compute_ps: u64,
}

impl KvStore {
    /// A store whose table and values fit in `arena_bytes`, sized for
    /// `expected_items` entries.
    #[must_use]
    pub fn new(arena_bytes: u64, expected_items: u64) -> Self {
        let mut arena = TraceArena::new(arena_bytes);
        let slots = (expected_items * 2).next_power_of_two();
        let buckets_off = arena.alloc(slots * BUCKET_BYTES, 4096);
        Self {
            arena,
            table: None,
            overlay: BTreeMap::new(),
            slots: slots as usize,
            buckets_off,
            items: 0,
            op_compute_ps: 120_000, // ~120 ns of CPU per request
        }
    }

    fn slot_of(&self, key: u64) -> usize {
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        (h as usize) & (self.slots - 1)
    }

    /// The bucket at `slot` as a store sees it: its overlay entry, else the
    /// table's (an unallocated table reads as empty).
    fn bucket(overlay: &BTreeMap<usize, Bucket>, table: &[Bucket], slot: usize) -> Bucket {
        if !overlay.is_empty() {
            if let Some(b) = overlay.get(&slot) {
                return *b;
            }
        }
        table.get(slot).copied().unwrap_or_default()
    }

    /// Number of live items.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Inserts/overwrites a key with a `value_len`-byte value.
    pub fn set(&mut self, key: u64, value_len: u32) {
        self.set_all([(key, value_len)]);
    }

    /// [`KvStore::set`] for each `(key, value_len)` in turn. Whether the
    /// table is shared is settled once per call (an atomic
    /// read-modify-write), so a preload pays it once, not once per key.
    pub(crate) fn set_all(&mut self, entries: impl IntoIterator<Item = (u64, u32)>) {
        let slots = self.slots;
        let mut table = self
            .table
            .take()
            .unwrap_or_else(|| Arc::new(vec![Bucket::default(); slots]));
        match Arc::get_mut(&mut table) {
            Some(own) => {
                for (key, value_len) in entries {
                    if let Some((slot, b)) = self.place(own, key, value_len) {
                        own[slot] = b;
                        // Sharers dropped since the overlay took this slot:
                        // the stale entry would shadow the write just made.
                        if !self.overlay.is_empty() {
                            self.overlay.remove(&slot);
                        }
                    }
                }
            }
            None => {
                for (key, value_len) in entries {
                    if let Some((slot, b)) = self.place(&table, key, value_len) {
                        self.overlay.insert(slot, b);
                    }
                }
            }
        }
        self.table = Some(table);
    }

    /// Probes `table` for `key`'s slot and emits the write's trace; returns
    /// the slot and the bucket to store there (`None` if the table is full).
    /// Inlined into `set_all`'s loops: as a call it costs a preload ~20%.
    #[inline(always)]
    fn place(&mut self, table: &[Bucket], key: u64, value_len: u32) -> Option<(usize, Bucket)> {
        self.arena.compute(self.op_compute_ps);
        let mut slot = self.slot_of(key);
        // Linear probing; every probe is a dependent bucket read.
        for _ in 0..self.slots {
            let off = self.buckets_off + slot as u64 * BUCKET_BYTES;
            self.arena.read_dependent(off, BUCKET_BYTES);
            let b = Self::bucket(&self.overlay, table, slot);
            if !b.used || b.key == key {
                let value_off = if b.used && b.value_len >= value_len {
                    b.value_off // Reuse in place.
                } else {
                    self.arena.alloc(value_len as u64, 64)
                };
                if !b.used {
                    self.items += 1;
                }
                self.arena.write(off, BUCKET_BYTES);
                self.arena.write(value_off, value_len as u64);
                let placed = Bucket {
                    key,
                    value_off,
                    value_len,
                    used: true,
                };
                return Some((slot, placed));
            }
            slot = (slot + 1) & (self.slots - 1);
        }
        None
    }

    /// Reads a key's value; returns whether it existed.
    pub fn get(&mut self, key: u64) -> bool {
        self.arena.compute(self.op_compute_ps);
        let table = self.table.as_deref().map_or(&[][..], Vec::as_slice);
        let mut slot = self.slot_of(key);
        for _ in 0..self.slots {
            let off = self.buckets_off + slot as u64 * BUCKET_BYTES;
            self.arena.read_dependent(off, BUCKET_BYTES);
            let b = Self::bucket(&self.overlay, table, slot);
            if !b.used {
                return false;
            }
            if b.key == key {
                self.arena.read(b.value_off, b.value_len as u64);
                return true;
            }
            slot = (slot + 1) & (self.slots - 1);
        }
        false
    }

    /// Scans `count` consecutive keys starting at `key` (YCSB-E).
    pub fn scan(&mut self, key: u64, count: u32) {
        for k in key..key + count as u64 {
            if !self.get(k) {
                break;
            }
        }
    }

    /// Takes the trace accumulated by operations so far.
    pub fn take_trace(&mut self) -> Vec<GuestOp> {
        self.arena.take_trace()
    }

    /// Number of buffered trace operations.
    #[must_use]
    pub fn trace_len(&self) -> usize {
        self.arena.trace_len()
    }

    /// Mutes (or unmutes) trace emission — see [`TraceArena::mute`].
    pub fn mute_trace(&mut self, on: bool) {
        self.arena.mute(on);
    }

    /// Arena capacity (the workload's working set).
    #[must_use]
    pub fn working_set(&self) -> u64 {
        self.arena.capacity()
    }
}

/// memcached-style throughput workload: 90% GET / 10% SET over a scrambled
/// Zipfian keyspace with small values.
#[derive(Debug)]
pub struct Memcached {
    store: KvStore,
    zipf: crate::zipf::Zipfian,
    keys: u64,
    loaded: bool,
}

impl Memcached {
    /// A memcached instance filling most of `working_set`.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        // ~256 B objects; keep table + values within the working set.
        let keys = (working_set / 512).max(64);
        Self {
            store: KvStore::new(working_set, keys),
            zipf: crate::zipf::Zipfian::ycsb(keys),
            keys,
            loaded: false,
        }
    }

    fn ensure_loaded(&mut self, rng: &mut StdRng) {
        if self.loaded {
            return;
        }
        // The load phase is warmup, not measured traffic: emit no ops.
        self.store.mute_trace(true);
        self.store
            .set_all((0..self.keys).map(|k| (k, rng.gen_range(64..=400))));
        self.store.mute_trace(false);
        self.loaded = true;
    }
}

impl WorkloadGen for Memcached {
    fn name(&self) -> String {
        "memcached".into()
    }

    fn working_set(&self) -> u64 {
        self.store.working_set()
    }

    fn metric(&self) -> Metric {
        Metric::Throughput
    }

    fn cost_hint(&self) -> u64 {
        // The heaviest cell of either roster: full KV preload plus a
        // get-dominated trace over the whole store.
        21
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        self.ensure_loaded(rng);
        while self.store.arena.trace_len() < count {
            let key = self.zipf.sample(rng);
            if rng.gen_bool(0.9) {
                self.store.get(key);
            } else {
                self.store.set(key, rng.gen_range(64..=400));
            }
        }
        let mut t = self.store.take_trace();
        t.truncate(count);
        t
    }

    fn substrate_key(&self) -> Option<String> {
        Some(format!("memcached/{}", self.store.working_set()))
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

    #[test]
    fn set_get_roundtrip_with_probing() {
        let mut kv = KvStore::new(1 << 20, 100);
        for k in 0..100 {
            kv.set(k, 128);
        }
        assert_eq!(kv.items(), 100);
        for k in 0..100 {
            assert!(kv.get(k), "key {k} lost");
        }
        assert!(!kv.get(1000));
        let trace = kv.take_trace();
        assert!(!trace.is_empty());
        // Bucket probes are dependent reads.
        assert!(trace.iter().any(|op| op.dependent));
        // Value writes exist.
        assert!(trace.iter().any(|op| op.write));
    }

    #[test]
    fn overwrite_reuses_value_space() {
        let mut kv = KvStore::new(1 << 20, 10);
        kv.set(1, 256);
        let used = kv.arena.used();
        kv.set(1, 128); // Smaller: reuse in place.
        assert_eq!(kv.arena.used(), used);
        assert_eq!(kv.items(), 1);
    }

    #[test]
    fn scan_touches_consecutive_keys() {
        let mut kv = KvStore::new(1 << 20, 64);
        for k in 0..64 {
            kv.set(k, 64);
        }
        let _ = kv.take_trace();
        kv.scan(10, 5);
        let t = kv.take_trace();
        assert!(t.len() >= 10, "5 gets with probes and value reads");
    }

    #[test]
    fn unwritten_store_allocates_no_table_and_clones_share_it() {
        let mut kv = KvStore::new(1 << 20, 10);
        assert!(!kv.get(1));
        assert!(kv.table.is_none(), "a read allocates nothing");
        kv.set(1, 256);
        let mut clone = kv.clone();
        let (Some(a), Some(b)) = (&kv.table, &clone.table) else {
            panic!("a written store has a table");
        };
        assert!(Arc::ptr_eq(a, b), "a clone shares the table");
        clone.set(2, 64);
        assert!(!kv.get(2), "a write to a shared table stays in its writer");
        assert!(clone.get(2) && clone.get(1));
    }

    #[test]
    fn write_after_sharers_drop_is_not_shadowed_by_the_overlay() {
        // The value `get` reads is a trace of `len / 64` lines after the
        // one bucket probe, so the trace names the bucket `get` saw.
        let lines_read = |kv: &mut KvStore| {
            let _ = kv.take_trace();
            assert!(kv.get(1));
            kv.take_trace().len() - 1
        };
        let mut kv = KvStore::new(1 << 20, 10);
        kv.set(1, 256);
        let sharer = kv.clone();
        kv.set(1, 128); // Shared: into the overlay.
        assert_eq!(lines_read(&mut kv), 2);
        drop(sharer);
        kv.set(1, 512); // Sole owner again: into the table.
        assert_eq!(
            lines_read(&mut kv),
            8,
            "the latest value, not the overlay's"
        );
    }

    #[test]
    fn memcached_generates_bounded_ops() {
        let mut m = Memcached::new(4 << 20);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = m.generate(5_000, &mut rng);
        assert_eq!(ops.len(), 5_000);
        assert!(ops.iter().all(|o| o.offset < m.working_set()));
        let writes = ops.iter().filter(|o| o.write).count();
        assert!(writes > 0 && writes < ops.len() / 3, "GET-heavy mix");
    }
}
