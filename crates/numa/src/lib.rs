//! Kernel NUMA substrate: nodes, buddy allocation, control groups.
//!
//! Siloz deliberately rides on *existing and robust kernel NUMA primitives*
//! (§5.2) instead of inventing a bespoke allocator: each subarray group
//! becomes a logical NUMA node, managed by the same machinery as a physical
//! node. This crate is that machinery, reimplemented from scratch:
//!
//! - [`Topology`]: physical and logical nodes, each a memory pool (page
//!   frame ranges) with optional CPUs and a per-node buddy allocator;
//! - [`BuddyAllocator`]: power-of-two page-block allocation with
//!   deterministic lowest-address-first behaviour, hole support, and page
//!   offlining (the mechanism Siloz extends for guard rows, §5.4); runs of
//!   blocks allocate and free in one call, exactly as block-by-block calls
//!   would;
//! - [`ControlGroup`]/[`CgroupRegistry`]: cpuset-style restriction of
//!   memory allocations and scheduling to specific nodes (§5.2), with
//!   exclusive node claims;
//! - [`PlacementStrategy`]: the order in which a hypervisor considers
//!   candidate sockets and nodes when placing a VM;
//! - [`ClaimMap`]: a persistent interval map of group→tenant claims —
//!   O(1) point lookup and census, O(touched) tenant release — backing
//!   the fleet engine's incremental §4.1 checker.

#![forbid(unsafe_code)]

pub mod buddy;
pub mod claims;
pub mod cpuset;
pub mod node;
pub mod policy;

pub use buddy::{BuddyAllocator, FrameState};
pub use claims::ClaimMap;
pub use cpuset::{CgroupRegistry, ControlGroup};
pub use node::{NodeId, NodeInfo, Topology};
pub use policy::PlacementStrategy;

/// Base page size (4 KiB) — one page frame.
pub const FRAME_BYTES: u64 = 4096;

/// The page-frame number containing a host-physical address.
///
/// The one sanctioned way to turn an `hpa` into the frame ordinal the
/// allocator and EPT pool speak; callers must not open-code the division
/// (`siloz-lint`'s address-domain dataflow pass enforces this).
#[must_use]
pub const fn frame_of_hpa(hpa: u64) -> u64 {
    hpa / FRAME_BYTES
}

/// The base host-physical address of a page frame (inverse of
/// [`frame_of_hpa`] for frame-aligned addresses).
#[must_use]
pub const fn hpa_of_frame(frame: u64) -> u64 {
    frame * FRAME_BYTES
}

/// Whether a host-physical address sits on a page-frame boundary.
#[must_use]
pub const fn is_frame_aligned(hpa: u64) -> bool {
    hpa.is_multiple_of(FRAME_BYTES)
}

/// Order of a 2 MiB huge page in 4 KiB frames.
pub const ORDER_2M: u8 = 9;

/// Order of a 1 GiB huge page in 4 KiB frames.
pub const ORDER_1G: u8 = 18;

/// Errors returned by NUMA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumaError {
    /// No free block of the requested order on any permitted node.
    OutOfMemory {
        /// Requested block order.
        order: u8,
    },
    /// Referenced node does not exist.
    BadNode(NodeId),
    /// The control group does not permit the requested node.
    NotAllowed(NodeId),
    /// A node was already exclusively claimed by another group.
    AlreadyClaimed(NodeId),
    /// Attempted to free a block that is not allocated.
    BadFree {
        /// First frame of the offending block.
        frame: u64,
        /// Block order.
        order: u8,
    },
}

impl core::fmt::Display for NumaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NumaError::OutOfMemory { order } => write!(f, "no free order-{order} block"),
            NumaError::BadNode(id) => write!(f, "no such node {id:?}"),
            NumaError::NotAllowed(id) => write!(f, "cgroup does not allow node {id:?}"),
            NumaError::AlreadyClaimed(id) => write!(f, "node {id:?} already claimed"),
            NumaError::BadFree { frame, order } => {
                write!(f, "bad free of order-{order} block at frame {frame:#x}")
            }
        }
    }
}

impl std::error::Error for NumaError {}
