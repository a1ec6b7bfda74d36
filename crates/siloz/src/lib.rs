//! Siloz: a hypervisor using subarray groups as DRAM isolation domains.
//!
//! This crate is the paper's primary contribution, reimplemented over the
//! workspace's simulated substrate. It prevents *inter-VM Rowhammer* by
//! placing each VM's — and the host's — unmediated data into private
//! *subarray groups* (§4): collections of at least one subarray from every
//! bank of a socket, so VMs keep full bank-level parallelism while being
//! electrically isolated from one another's hammering.
//!
//! The pieces, mirroring §5 of the paper:
//!
//! - [`group`]: boot-time computation of which physical pages map to which
//!   subarray group (§5.3), via the system address decoder;
//! - [`artificial`]: artificial subarray groups and reserved-page accounting
//!   for DIMM-internal transformations and repairs (§6);
//! - [`provision`]: subarray groups abstracted as logical NUMA nodes, with
//!   host-reserved and guest-reserved nodes (§5.2);
//! - [`ept_guard`]: guard-row protection for extended page tables —
//!   `b = 32` consecutive row groups with the EPT row group at offset
//!   `o = 12` (§5.4) — reserving ≈0.024% of each bank;
//! - [`vm`]: VM lifecycle — QEMU-style memory-region mediation
//!   classification, the `UNMEDIATED` mmap flag, huge-page backing (§5.1,
//!   §5.3);
//! - [`hypervisor`]: the Siloz hypervisor and the unmodified-Linux/KVM-style
//!   baseline it is evaluated against (§7);
//! - [`defenses`]: the competing software defenses of §3/§8.3 (guard-row
//!   schemes, SoftTRR-style refresh, Copy-on-Flip-style migration), used by
//!   the comparison experiments.

#![forbid(unsafe_code)]

pub mod artificial;
pub mod audit;
pub mod boot_cache;
pub mod config;
pub mod defenses;
pub mod ept_guard;
pub mod group;
pub mod guest_paging;
pub mod hypervisor;
pub mod iommu;
pub mod provision;
pub mod snc;
pub mod virtio;
pub mod vm;

pub use audit::{audit, AuditReport, Violation};
pub use boot_cache::{from_cache, to_cache};
pub use config::{EptProtection, SilozConfig};
pub use ept_guard::EptGuardPlan;
pub use group::{GroupId, GroupInfo, GroupOccupancy, OccupancyReport, SubarrayGroupMap};
pub use guest_paging::GuestPageTables;
pub use hypervisor::{Hypervisor, HypervisorKind};
pub use iommu::IommuDomain;
pub use provision::ProvisionedTopology;
pub use snc::{apply_snc, SncMap};
pub use virtio::{DmaRateLimiter, VirtQueue, VirtioBlk};
pub use vm::{BackingBlock, MemoryRegionKind, VmHandle, VmSpec};

/// Errors produced by the hypervisor and its boot-time computations.
#[derive(Debug, Clone, PartialEq)]
pub enum SilozError {
    /// Address translation failed.
    Addr(dram_addr::AddrError),
    /// NUMA/buddy failure.
    Numa(numa::NumaError),
    /// EPT failure.
    Ept(ept::EptError),
    /// Configuration inconsistent with the geometry/decoder.
    BadConfig(String),
    /// Not enough free guest-reserved nodes/capacity for a VM.
    InsufficientCapacity {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// Unknown VM handle.
    NoSuchVm(u32),
    /// The requesting process lacks the required privileges (§5.3: only
    /// KVM-privileged processes in the right control group may allocate
    /// from guest-reserved nodes).
    NotPermitted(String),
}

impl SilozError {
    /// Whether this is a refusal for lack of capacity: no unclaimed groups
    /// (`InsufficientCapacity`, Siloz), no free block on the permitted
    /// nodes (the baseline's raw allocator error, or a node that cannot
    /// spare a migration target), or no table page left in the EPT pool.
    /// `create_vm` and `expand_vm` leave the host exactly as it was on any
    /// of these, so callers may count the refusal and carry on; every other
    /// error is a fault and should propagate.
    #[must_use]
    pub fn is_capacity(&self) -> bool {
        matches!(
            self,
            SilozError::InsufficientCapacity { .. }
                | SilozError::Numa(numa::NumaError::OutOfMemory { .. })
                | SilozError::Ept(ept::EptError::OutOfMemory)
        )
    }
}

impl core::fmt::Display for SilozError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SilozError::Addr(e) => write!(f, "address translation: {e}"),
            SilozError::Numa(e) => write!(f, "numa: {e}"),
            SilozError::Ept(e) => write!(f, "ept: {e}"),
            SilozError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            SilozError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "insufficient capacity: requested {requested}, available {available}"
            ),
            SilozError::NoSuchVm(id) => write!(f, "no such VM {id}"),
            SilozError::NotPermitted(what) => write!(f, "not permitted: {what}"),
        }
    }
}

impl std::error::Error for SilozError {}

impl From<dram_addr::AddrError> for SilozError {
    fn from(e: dram_addr::AddrError) -> Self {
        SilozError::Addr(e)
    }
}

impl From<numa::NumaError> for SilozError {
    fn from(e: numa::NumaError) -> Self {
        SilozError::Numa(e)
    }
}

impl From<ept::EptError> for SilozError {
    fn from(e: ept::EptError) -> Self {
        SilozError::Ept(e)
    }
}
