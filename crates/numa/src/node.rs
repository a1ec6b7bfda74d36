//! NUMA nodes and the machine topology.

use crate::buddy::{BuddyAllocator, FrameState};
use crate::NumaError;
use parking_lot::Mutex;
use std::ops::{DerefMut, Range};

/// Identifier of a NUMA node (physical or logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Static description of one node.
///
/// A node is a memory pool (page-frame ranges) plus optional CPUs. A
/// *logical* node (§5.2) is a subset of a physical node's memory —
/// typically one subarray group — and records which physical node (socket)
/// it belongs to so physical NUMA locality optimizations keep working.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// This node's id.
    pub id: NodeId,
    /// The socket (physical node index) whose DRAM backs this node.
    pub socket: u16,
    /// Whether this is a Siloz logical node (vs a conventional node).
    pub is_logical: bool,
    /// CPUs directly associated with the node (memory-only nodes: empty).
    pub cpus: Vec<u32>,
    /// Page-frame ranges owned by the node.
    pub frame_ranges: Vec<Range<u64>>,
}

impl NodeInfo {
    /// Total frames across the node's ranges.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.frame_ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// Whether the node has no associated compute resources (§2.2).
    #[must_use]
    pub fn is_memory_only(&self) -> bool {
        self.cpus.is_empty()
    }
}

struct Node {
    info: NodeInfo,
    alloc: Mutex<BuddyAllocator>,
}

/// The machine's NUMA topology: all nodes with their allocators.
///
/// Thread-safe: per-node allocators are individually locked, mirroring
/// per-node zone locks in the kernel.
pub struct Topology {
    nodes: Vec<Node>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// An empty topology; nodes are added during boot-time parsing.
    #[must_use]
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Adds a node whose allocator covers `info.frame_ranges` minus `holes`.
    ///
    /// Returns the node's id (assigned densely in creation order; the `id`
    /// field of `info` is overwritten).
    pub fn add_node(&mut self, mut info: NodeInfo, holes: &[u64]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        info.id = id;
        let alloc = BuddyAllocator::with_holes(&info.frame_ranges, holes);
        self.nodes.push(Node {
            info,
            alloc: Mutex::new(alloc),
        });
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node's static description.
    pub fn node(&self, id: NodeId) -> Result<&NodeInfo, NumaError> {
        self.nodes
            .get(id.0 as usize)
            .map(|n| &n.info)
            .ok_or(NumaError::BadNode(id))
    }

    /// Iterates over all node descriptions.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter().map(|n| &n.info)
    }

    /// All nodes whose memory lives on `socket`.
    pub fn nodes_of_socket(&self, socket: u16) -> impl Iterator<Item = &NodeInfo> {
        self.nodes
            .iter()
            .map(|n| &n.info)
            .filter(move |i| i.socket == socket)
    }

    /// `node`'s allocator, locked.
    fn buddy(
        &self,
        node: NodeId,
    ) -> Result<impl DerefMut<Target = BuddyAllocator> + '_, NumaError> {
        let n = (self.nodes.get(node.0 as usize)).ok_or(NumaError::BadNode(node))?;
        Ok(n.alloc.lock())
    }

    /// Allocates a `2^order`-frame block from `node`.
    pub fn alloc(&self, node: NodeId, order: u8) -> Result<u64, NumaError> {
        self.buddy(node)?.alloc(order)
    }

    /// Frees a block back to `node`.
    pub fn free(&self, node: NodeId, frame: u64, order: u8) -> Result<(), NumaError> {
        self.buddy(node)?.free(frame, order)
    }

    /// Allocates `n` blocks of `2^order` frames from `node` under one lock,
    /// appending their first frames to `out` (see
    /// [`BuddyAllocator::alloc_run`]).
    pub fn alloc_run(
        &self,
        node: NodeId,
        order: u8,
        n: u64,
        out: &mut Vec<u64>,
    ) -> Result<(), NumaError> {
        self.buddy(node)?.alloc_run(order, n, out)
    }

    /// Frees `n` contiguous blocks back to `node` under one lock (see
    /// [`BuddyAllocator::free_run`]).
    pub fn free_run(&self, node: NodeId, frame: u64, order: u8, n: u64) -> Result<(), NumaError> {
        self.buddy(node)?.free_run(frame, order, n)
    }

    /// Free frames on `node`.
    pub fn free_frames(&self, node: NodeId) -> Result<u64, NumaError> {
        Ok(self.buddy(node)?.free_frames())
    }

    /// Offlines frames on `node`; returns how many went offline.
    pub fn offline(
        &self,
        node: NodeId,
        frames: impl IntoIterator<Item = u64>,
    ) -> Result<u64, NumaError> {
        Ok(self.buddy(node)?.offline_frames(frames))
    }

    /// Snapshots free-memory statistics for a set of nodes (the periodic
    /// `vmstat`-style refresh). Returns `(node, free_frames)` pairs and the
    /// number of nodes iterated — Siloz avoids iterating guest-reserved
    /// nodes whose statistics cannot change while a VM runs (§5.3).
    pub fn snapshot_stats(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Result<Vec<(NodeId, u64)>, NumaError> {
        let mut out = Vec::new();
        for id in nodes {
            out.push((id, self.free_frames(id)?));
        }
        Ok(out)
    }

    /// How the node owning `frame` holds it; `None` for a frame no node
    /// covers.
    #[must_use]
    pub fn frame_state(&self, frame: u64) -> Option<FrameState> {
        let node = self.node_of_frame(frame)?;
        self.buddy(node).ok()?.frame_state(frame)
    }

    /// The node owning `frame`, if any (frames belong to at most one node).
    #[must_use]
    pub fn node_of_frame(&self, frame: u64) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| {
                n.info
                    .frame_ranges
                    .iter()
                    .any(|r| frame >= r.start && frame < r.end)
            })
            .map(|n| n.info.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(socket: u16, logical: bool, cpus: Vec<u32>, ranges: Vec<Range<u64>>) -> NodeInfo {
        NodeInfo {
            id: NodeId(u32::MAX),
            socket,
            is_logical: logical,
            cpus,
            frame_ranges: ranges,
        }
    }

    #[test]
    fn add_and_query_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(info(0, false, vec![0, 1], vec![0..1024]), &[]);
        let b = t.add_node(info(0, true, vec![], vec![1024..2048]), &[]);
        let c = t.add_node(info(1, true, vec![], vec![4096..8192]), &[]);
        assert_eq!(t.len(), 3);
        assert_eq!(a, NodeId(0));
        assert!(t.node(b).unwrap().is_memory_only());
        assert!(!t.node(a).unwrap().is_memory_only());
        assert_eq!(t.nodes_of_socket(0).count(), 2);
        assert_eq!(t.nodes_of_socket(1).count(), 1);
        assert_eq!(t.node(c).unwrap().total_frames(), 4096);
        assert!(t.node(NodeId(9)).is_err());
    }

    #[test]
    fn per_node_allocation_is_isolated() {
        let mut t = Topology::new();
        let a = t.add_node(info(0, true, vec![], vec![0..64]), &[]);
        let b = t.add_node(info(0, true, vec![], vec![64..128]), &[]);
        let fa = t.alloc(a, 0).unwrap();
        let fb = t.alloc(b, 0).unwrap();
        assert!(fa < 64);
        assert!((64..128).contains(&fb));
        t.free(a, fa, 0).unwrap();
        assert_eq!(t.free_frames(a).unwrap(), 64);
        assert_eq!(t.free_frames(b).unwrap(), 63);
    }

    #[test]
    fn holes_apply_at_node_creation() {
        let mut t = Topology::new();
        let a = t.add_node(info(0, true, vec![], vec![0..64]), &[10, 11]);
        assert_eq!(t.free_frames(a).unwrap(), 62);
    }

    #[test]
    fn offline_via_topology() {
        let mut t = Topology::new();
        let a = t.add_node(info(0, true, vec![], vec![0..64]), &[]);
        assert_eq!(t.offline(a, [1, 2, 3]).unwrap(), 3);
        assert_eq!(t.free_frames(a).unwrap(), 61);
    }

    #[test]
    fn node_of_frame_finds_owner() {
        let mut t = Topology::new();
        let a = t.add_node(info(0, true, vec![], vec![0..64]), &[]);
        let b = t.add_node(info(0, true, vec![], vec![64..128]), &[]);
        assert_eq!(t.node_of_frame(10), Some(a));
        assert_eq!(t.node_of_frame(100), Some(b));
        assert_eq!(t.node_of_frame(500), None);
    }
}
