//! VM specifications, memory-region mediation, and VM state (§5.1).

use ept::PageSize;
use numa::NodeId;

/// QEMU-style memory-region classification (§5.1).
///
/// Siloz decides placement by whether a VM can access a page *unmediated*
/// (without a VM exit): unmediated pages go to the VM's private
/// guest-reserved subarray groups; everything else stays host-reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryRegionKind {
    /// Guest RAM: fully unmediated.
    Ram,
    /// Guest ROM: unmediated reads (writes discarded).
    Rom,
    /// ROM device: unmediated reads, mediated writes.
    RomDevice,
    /// Emulated MMIO: every access exits to the hypervisor.
    Mmio,
    /// Paravirtual (virtio) queue memory: DMAs are mediated by the
    /// hypervisor, but the queue pages themselves are guest-visible RAM.
    VirtioQueue,
}

impl MemoryRegionKind {
    /// Whether a VM can reach this region without a VM exit for some access
    /// type — the §5.1 placement criterion.
    #[must_use]
    pub fn is_unmediated(self) -> bool {
        match self {
            MemoryRegionKind::Ram
            | MemoryRegionKind::Rom
            | MemoryRegionKind::RomDevice
            | MemoryRegionKind::VirtioQueue => true,
            MemoryRegionKind::Mmio => false,
        }
    }
}

/// Specification of a VM to create.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// VM name (also its control-group name).
    pub name: String,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Guest RAM size in bytes.
    pub memory_bytes: u64,
    /// Preferred socket for NUMA locality (§5.2); falls back to any socket
    /// with capacity.
    pub preferred_socket: Option<u16>,
    /// Backing page size (the deployment default is 2 MiB huge pages).
    pub page_size: PageSize,
    /// Extra non-RAM regions: `(kind, bytes)` appended after RAM in GPA
    /// space.
    pub extra_regions: Vec<(MemoryRegionKind, u64)>,
    /// Whether the requesting process holds KVM privileges (§5.3: required
    /// to allocate from guest-reserved nodes).
    pub kvm_privileged: bool,
}

impl VmSpec {
    /// A standard VM: `memory_bytes` of RAM backed by 2 MiB pages.
    #[must_use]
    pub fn new(name: &str, vcpus: u32, memory_bytes: u64) -> Self {
        Self {
            name: name.to_string(),
            vcpus,
            memory_bytes,
            preferred_socket: None,
            page_size: PageSize::Size2M,
            extra_regions: Vec::new(),
            kvm_privileged: true,
        }
    }

    /// Pins the VM's memory to a socket.
    #[must_use]
    pub fn on_socket(mut self, socket: u16) -> Self {
        self.preferred_socket = Some(socket);
        self
    }

    /// Changes the backing page size.
    #[must_use]
    pub fn with_page_size(mut self, size: PageSize) -> Self {
        self.page_size = size;
        self
    }

    /// Adds an extra region.
    #[must_use]
    pub fn with_region(mut self, kind: MemoryRegionKind, bytes: u64) -> Self {
        self.extra_regions.push((kind, bytes));
        self
    }

    /// Drops KVM privileges (for §5.3 permission tests).
    #[must_use]
    pub fn unprivileged(mut self) -> Self {
        self.kvm_privileged = false;
        self
    }
}

/// Opaque handle to a created VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmHandle(pub u32);

/// One backing block of a VM region: `2^order` frames on `node`, mapped at
/// `gpa`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackingBlock {
    /// Guest physical address of the block.
    pub gpa: u64,
    /// First host frame.
    pub frame: u64,
    /// Buddy order (9 for 2 MiB, 18 for 1 GiB, 0 for 4 KiB).
    pub order: u8,
    /// Node the frames came from.
    pub node: NodeId,
}

impl BackingBlock {
    /// Host physical address of the block.
    #[must_use]
    pub fn hpa(&self) -> u64 {
        self.frame * 4096
    }

    /// Bytes covered.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        4096u64 << self.order
    }

    /// The page size the block is mapped at: one block is one EPT leaf.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        match self.order {
            0 => PageSize::Size4K,
            numa::ORDER_2M => PageSize::Size2M,
            _ => PageSize::Size1G,
        }
    }
}

/// A mapped region of a VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmRegion {
    /// Region classification.
    pub kind: MemoryRegionKind,
    /// Base guest physical address.
    pub gpa: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// Backing blocks, ascending by GPA.
    pub backing: Vec<BackingBlock>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mediation_classification_follows_section_5_1() {
        assert!(MemoryRegionKind::Ram.is_unmediated());
        assert!(MemoryRegionKind::Rom.is_unmediated());
        assert!(MemoryRegionKind::RomDevice.is_unmediated());
        assert!(MemoryRegionKind::VirtioQueue.is_unmediated());
        assert!(!MemoryRegionKind::Mmio.is_unmediated());
    }

    #[test]
    fn spec_builder_chains() {
        let spec = VmSpec::new("vm0", 4, 1 << 30)
            .on_socket(1)
            .with_page_size(PageSize::Size4K)
            .with_region(MemoryRegionKind::Mmio, 4096)
            .unprivileged();
        assert_eq!(spec.preferred_socket, Some(1));
        assert_eq!(spec.page_size, PageSize::Size4K);
        assert_eq!(spec.extra_regions.len(), 1);
        assert!(!spec.kvm_privileged);
    }

    #[test]
    fn backing_block_math() {
        let b = BackingBlock {
            gpa: 0,
            frame: 512,
            order: 9,
            node: NodeId(3),
        };
        assert_eq!(b.hpa(), 512 * 4096);
        assert_eq!(b.bytes(), 2 << 20);
        assert_eq!(b.page_size(), PageSize::Size2M);
    }
}
