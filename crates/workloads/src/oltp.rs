//! SysBench-mySQL-like OLTP over a real B+-tree substrate (§7.3).
//!
//! SysBench's OLTP mix is point selects, range scans, and index updates
//! against InnoDB B+-trees. The substrate here is an actual fixed-fanout
//! B+-tree built over a [`TraceArena`]: lookups descend node by node
//! (dependent reads — the classic index walk), scans follow leaf links, and
//! updates write rows.

use crate::arena::TraceArena;
use crate::{GuestOp, Metric, WorkloadGen};
use rand::rngs::StdRng;
use rand::Rng;

const NODE_BYTES: u64 = 4096; // InnoDB-like page size
const FANOUT: usize = 128;
const ROW_BYTES: u64 = 256;

#[derive(Debug, Clone)]
struct Node {
    offset: u64,
    keys: Vec<u64>,
    /// Children node indices (internal) — empty for leaves.
    children: Vec<usize>,
    /// Row arena offsets (leaves).
    rows: Vec<u64>,
    next_leaf: Option<usize>,
}

/// A fixed-fanout B+-tree over an arena.
#[derive(Debug)]
pub struct BplusTree {
    arena: TraceArena,
    nodes: Vec<Node>,
    root: usize,
    height: u32,
    items: u64,
}

impl BplusTree {
    /// Builds a tree of `items` sequential keys, bulk-loaded bottom-up.
    #[must_use]
    pub fn bulk_load(arena_bytes: u64, items: u64) -> Self {
        let mut arena = TraceArena::new(arena_bytes);
        let mut nodes = Vec::new();
        // Leaves.
        let mut level: Vec<usize> = Vec::new();
        let leaf_cap = FANOUT as u64;
        let mut k = 0u64;
        while k < items {
            let n = leaf_cap.min(items - k);
            let offset = arena.alloc(NODE_BYTES, NODE_BYTES);
            let mut keys = Vec::with_capacity(n as usize);
            let mut rows = Vec::with_capacity(n as usize);
            for i in 0..n {
                keys.push(k + i);
                rows.push(arena.alloc(ROW_BYTES, 64));
            }
            let idx = nodes.len();
            nodes.push(Node {
                offset,
                keys,
                children: Vec::new(),
                rows,
                next_leaf: None,
            });
            if let Some(&prev) = level.last() {
                nodes[prev].next_leaf = Some(idx);
            }
            level.push(idx);
            k += n;
        }
        let mut height = 1u32;
        // Internal levels.
        while level.len() > 1 {
            let mut upper = Vec::new();
            for chunk in level.chunks(FANOUT) {
                let offset = arena.alloc(NODE_BYTES, NODE_BYTES);
                let keys = chunk.iter().map(|&c| nodes[c].keys[0]).collect();
                let idx = nodes.len();
                nodes.push(Node {
                    offset,
                    keys,
                    children: chunk.to_vec(),
                    rows: Vec::new(),
                    next_leaf: None,
                });
                upper.push(idx);
            }
            level = upper;
            height += 1;
        }
        let root = level.first().copied().unwrap_or(0);
        // Bulk load is warmup, not traffic.
        let _ = arena.take_trace();
        Self {
            arena,
            nodes,
            root,
            height,
            items,
        }
    }

    /// Tree height (root to leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of rows.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items
    }

    fn descend(&mut self, key: u64) -> usize {
        let mut idx = self.root;
        loop {
            let node = &self.nodes[idx];
            self.arena.read_dependent(node.offset, 512); // touched key area
            if node.children.is_empty() {
                return idx;
            }
            // Branch: find child by key separator.
            let pos = match node.keys.binary_search(&key) {
                Ok(p) => p,
                Err(p) => p.saturating_sub(1),
            };
            idx = node.children[pos.min(node.children.len() - 1)];
        }
    }

    /// Point select.
    pub fn select(&mut self, key: u64) -> bool {
        self.arena.compute(150_000); // SQL parse/plan/latch cost
        let leaf = self.descend(key);
        let node = &self.nodes[leaf];
        if let Ok(pos) = node.keys.binary_search(&key) {
            let row = node.rows[pos];
            self.arena.read(row, ROW_BYTES);
            true
        } else {
            false
        }
    }

    /// Range scan of `count` rows from `key` via leaf links.
    pub fn scan(&mut self, key: u64, count: usize) -> usize {
        self.arena.compute(200_000);
        let mut leaf = self.descend(key);
        let mut seen = 0usize;
        loop {
            let (rows, next, offset) = {
                let n = &self.nodes[leaf];
                (n.rows.clone(), n.next_leaf, n.offset)
            };
            self.arena.read(offset, NODE_BYTES);
            for row in rows {
                if seen >= count {
                    return seen;
                }
                self.arena.read(row, ROW_BYTES);
                seen += 1;
            }
            match next {
                Some(n) => leaf = n,
                None => return seen,
            }
        }
    }

    /// Index update: descend, rewrite the row and the leaf.
    pub fn update(&mut self, key: u64) -> bool {
        self.arena.compute(250_000);
        let leaf = self.descend(key);
        let node = &self.nodes[leaf];
        if let Ok(pos) = node.keys.binary_search(&key) {
            let row = node.rows[pos];
            let off = node.offset;
            self.arena.write(row, ROW_BYTES);
            self.arena.write(off, 128); // leaf metadata/undo
            true
        } else {
            false
        }
    }

    fn take_trace(&mut self) -> Vec<GuestOp> {
        self.arena.take_trace()
    }
}

/// The SysBench-like OLTP mix: 70% point selects, 20% updates, 10% scans.
#[derive(Debug)]
pub struct SysbenchOltp {
    tree: BplusTree,
    zipf: crate::zipf::Zipfian,
    working_set: u64,
}

impl SysbenchOltp {
    /// An OLTP instance sized to `working_set`.
    #[must_use]
    pub fn new(working_set: u64) -> Self {
        // Rows + nodes ≈ 256 B + overhead per item.
        let items = (working_set / 512).max(256);
        Self {
            tree: BplusTree::bulk_load(working_set, items),
            zipf: crate::zipf::Zipfian::ycsb(items),
            working_set,
        }
    }
}

impl WorkloadGen for SysbenchOltp {
    fn name(&self) -> String {
        "mysql".into()
    }

    fn working_set(&self) -> u64 {
        self.working_set
    }

    fn metric(&self) -> Metric {
        Metric::Throughput
    }

    fn cost_hint(&self) -> u64 {
        3
    }

    fn generate(&mut self, count: usize, rng: &mut StdRng) -> Vec<GuestOp> {
        let mut out: Vec<GuestOp> = Vec::with_capacity(count + 512);
        while out.len() < count {
            let key = self.zipf.sample(rng);
            let dice: f64 = rng.gen();
            if dice < 0.7 {
                self.tree.select(key);
            } else if dice < 0.9 {
                self.tree.update(key);
            } else {
                self.tree.scan(key, rng.gen_range(10..=100));
            }
            out.extend(self.tree.take_trace());
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
    fn bulk_load_builds_a_multilevel_tree() {
        let t = BplusTree::bulk_load(64 << 20, 100_000);
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.items(), 100_000);
    }

    #[test]
    fn select_hits_and_misses() {
        let mut t = BplusTree::bulk_load(16 << 20, 10_000);
        assert!(t.select(5_000));
        assert!(!t.select(999_999));
        let trace = t.take_trace();
        // Each descend emits height dependent node reads.
        assert!(trace.iter().filter(|o| o.is_dependent()).count() >= 2);
    }

    #[test]
    fn scan_follows_leaf_links() {
        let mut t = BplusTree::bulk_load(16 << 20, 10_000);
        let _ = t.take_trace();
        let got = t.scan(100, 500);
        assert_eq!(got, 500);
        let trace = t.take_trace();
        assert!(trace.len() > 500, "row reads + node reads");
    }

    #[test]
    fn update_writes_row_and_leaf() {
        let mut t = BplusTree::bulk_load(8 << 20, 1_000);
        let _ = t.take_trace();
        assert!(t.update(42));
        let trace = t.take_trace();
        assert!(trace.iter().any(|o| o.is_write()));
    }

    #[test]
    fn oltp_mix_generates() {
        let mut wl = SysbenchOltp::new(16 << 20);
        let mut rng = StdRng::seed_from_u64(6);
        let ops = wl.generate(10_000, &mut rng);
        assert_eq!(ops.len(), 10_000);
        let writes = ops.iter().filter(|o| o.is_write()).count();
        assert!(writes > 0);
        assert!(writes < ops.len() / 2, "select-dominated");
    }
}
