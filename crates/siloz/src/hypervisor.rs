//! The Siloz hypervisor and its Linux/KVM-style baseline (§5, §7).
//!
//! Both hypervisors share the same substrate (decoder, DRAM device model,
//! NUMA machinery) and differ exactly where the paper says they do:
//!
//! - **Baseline**: one conventional NUMA node per socket; VM memory is
//!   allocated wherever the buddy allocator finds room, so different VMs'
//!   rows freely co-locate within subarrays; EPT pages are ordinary host
//!   allocations.
//! - **Siloz**: one logical node per subarray group; each VM gets exclusive
//!   guest-reserved nodes via a control group; unmediated pages are placed
//!   only there (the `UNMEDIATED` mmap flag, §5.3); mediated and host pages
//!   stay in host-reserved groups; EPT pages are placed by the GFP_EPT path
//!   into the guard-protected EPT row group (§5.4).
//!
//! EPT table pages live in the *simulated DRAM*: translations walk actual
//! simulated rows, so Rowhammer flips in EPT pages corrupt translations
//! end-to-end, exactly the §5.4 threat.

use crate::config::{EptProtection, SilozConfig};
use crate::ept_guard::EptFrameAlloc;
use crate::group::{GroupId, SubarrayGroupMap};
use crate::provision::ProvisionedTopology;
use crate::vm::{BackingBlock, MemoryRegionKind, VmHandle, VmRegion, VmSpec};
use crate::SilozError;
use dram::flip::BitFlip;
use dram::{DramSystem, DramSystemBuilder};
use dram_addr::{DecodeTlb, RepairMap, SystemAddressDecoder, CACHE_LINE_BYTES};
use ept::{
    Ept, EptAllocator, EptError, EptPerms, IntegrityMode, PageSize, PhysMem, Translation,
    TABLE_BYTES,
};
use numa::{
    frame_of_hpa, hpa_of_frame, CgroupRegistry, MemPolicy, NodeId, NodeInfo, PlacementStrategy,
    PolicyAlloc, Topology, FRAME_BYTES, ORDER_1G, ORDER_2M,
};
use std::collections::HashMap;

/// Which hypervisor variant is booted (§7's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HypervisorKind {
    /// Unmodified Linux/KVM-style allocation (no subarray awareness).
    Baseline,
    /// Siloz: subarray groups as logical NUMA nodes.
    Siloz,
}

/// Lifecycle event totals, exported via [`Hypervisor::export_telemetry`].
///
/// EPT counters of destroyed VMs are folded into the `*_retired` fields so
/// the exported `ept` child reflects all work ever done, not just live VMs.
#[derive(Debug, Default, Clone, Copy)]
struct HvEvents {
    vms_created: u64,
    create_denials: u64,
    vms_destroyed: u64,
    expansions: u64,
    migrations: u64,
    ept_walks_retired: u64,
    ept_denials_retired: u64,
    ept_table_pages_retired: u64,
    ept_leaves_retired: u64,
    /// Capacity rejections per [`PlacementStrategy`] (indexed by
    /// [`PlacementStrategy::index`]) — the admission-control accounting the
    /// fleet simulator compares policies by.
    policy_rejections: [u64; 3],
}

/// A created VM's state.
struct Vm {
    spec: VmSpec,
    socket: u16,
    nodes: Vec<NodeId>,
    regions: Vec<VmRegion>,
    ept: Ept,
}

/// [`PhysMem`] adapter storing EPT tables in the simulated DRAM. Decodes go
/// through the hypervisor's decode TLB and reads land in its scratch
/// buffer, so a table access neither re-derives a row nor allocates.
struct DramPhysMem<'a> {
    dram: &'a mut DramSystem,
    tlb: &'a mut DecodeTlb,
    scratch: &'a mut Vec<u8>,
}

impl PhysMem for DramPhysMem<'_> {
    fn read_u64(&mut self, phys: u64) -> u64 {
        let (m, bank) = self.tlb.decode_with_bank(phys).expect("EPT page in DRAM");
        let _ = self.dram.read_row_into(bank, m.row, m.col, 8, self.scratch);
        u64::from_le_bytes(self.scratch[..].try_into().expect("8 bytes"))
    }

    fn write_u64(&mut self, phys: u64, value: u64) {
        let (m, bank) = self.tlb.decode_with_bank(phys).expect("EPT page in DRAM");
        self.dram
            .write_row(bank, m.row, m.col, &value.to_le_bytes());
    }

    /// One decode and one 64 B zero write per line. A line is contiguous
    /// in one row, so this zeroes the same bytes and clears the same flips
    /// as the line's 8 word writes and, like them, materialises no row.
    fn zero_table(&mut self, table: u64) {
        const LINE: u64 = CACHE_LINE_BYTES;
        for line in (table..table + TABLE_BYTES).step_by(LINE as usize) {
            let (m, bank) = self.tlb.decode_with_bank(line).expect("EPT page in DRAM");
            self.dram.write_row(bank, m.row, m.col, &[0; LINE as usize]);
        }
    }
}

/// A host node's ordinary 4 KiB pages as an EPT pool (the baseline's EPT
/// path and Siloz's fallback when guard rows are disabled).
struct NodeEptAlloc<'a> {
    topo: &'a Topology,
    node: NodeId,
}

/// Where one socket's EPT table pages come from and go back to (§5.4): the
/// guard-protected row group when the socket has one (GFP_EPT), ordinary
/// host-reserved pages otherwise. Built only by [`Hypervisor::ept_backend`],
/// so "which pool?" is decided in one place and allocation and release
/// cannot disagree about the answer.
enum EptPool<'a> {
    Guard(&'a mut EptFrameAlloc),
    HostNode(NodeEptAlloc<'a>),
}

impl EptAllocator for EptPool<'_> {
    fn alloc_table_page(&mut self) -> Result<u64, EptError> {
        match self {
            EptPool::Guard(guard) => guard.alloc_table_page(),
            EptPool::HostNode(n) => match n.topo.alloc(n.node, 0) {
                Ok(frame) => Ok(hpa_of_frame(frame)),
                Err(_) => Err(EptError::OutOfMemory),
            },
        }
    }
}

impl EptPool<'_> {
    /// Returns every table page of `ept` to the pool, root first (the guard
    /// pool is LIFO, so this order decides which frame the next VM gets).
    fn release_all(&mut self, ept: &Ept) {
        for &hpa in ept.table_pages() {
            match self {
                EptPool::Guard(guard) => guard.release(hpa),
                EptPool::HostNode(n) => {
                    let _ = n.topo.free(n.node, frame_of_hpa(hpa), 0);
                }
            }
        }
    }
}

/// The map step: installs `blocks` of a `kind` region in `ept` — perms from
/// the region kind, page size from each block. Emulated MMIO is never
/// mapped; that is what makes it mediated. On failure the leaves this call
/// installed are unmapped again; table pages it drew stay part of `ept`
/// (they are linked into the tree) and go back when the EPT does.
fn map_blocks(
    ept: &mut Ept,
    mem: &mut DramPhysMem<'_>,
    pool: &mut EptPool<'_>,
    kind: MemoryRegionKind,
    blocks: &[BackingBlock],
) -> Result<(), SilozError> {
    let perms = match kind {
        MemoryRegionKind::Mmio => return Ok(()),
        MemoryRegionKind::Rom | MemoryRegionKind::RomDevice => EptPerms::RO,
        _ => EptPerms::RWX,
    };
    for (i, b) in blocks.iter().enumerate() {
        if let Err(e) = ept.map(mem, pool, b.gpa, b.hpa(), b.page_size(), perms) {
            for done in &blocks[..i] {
                let _ = ept.unmap(mem, done.gpa);
            }
            return Err(e.into());
        }
    }
    Ok(())
}

/// The hypervisor.
///
/// # Examples
///
/// ```
/// use siloz::{Hypervisor, HypervisorKind, SilozConfig, VmSpec};
///
/// let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
/// let vm = hv.create_vm(VmSpec::new("tenant0", 2, 192 << 20)).unwrap();
/// // The VM's memory lives in exclusive subarray groups:
/// assert!(!hv.vm_groups(vm).unwrap().is_empty());
/// hv.destroy_vm(vm).unwrap();
/// ```
pub struct Hypervisor {
    kind: HypervisorKind,
    config: SilozConfig,
    decoder: SystemAddressDecoder,
    /// Decode memoization for every physical access the hypervisor makes —
    /// EPT words and table zeroing, guest I/O, `copy_phys`: a clone of
    /// `decoder` behind a row-group-granular cache, so a stripe is derived
    /// once rather than per word or 64 B line. Decode is pure address-map
    /// config, so the two decoders always agree (`tlb_decode_is_exact`).
    phys_tlb: DecodeTlb,
    /// Reused read buffer for those accesses (allocation-free reads).
    phys_scratch: Vec<u8>,
    dram: DramSystem,
    topo: Topology,
    groups: SubarrayGroupMap,
    host_nodes: Vec<NodeId>,
    guest_nodes: Vec<NodeId>,
    node_of_group: HashMap<GroupId, NodeId>,
    groups_of_node: HashMap<NodeId, Vec<GroupId>>,
    ept_plan: Option<crate::ept_guard::EptGuardPlan>,
    ept_allocs: HashMap<u16, EptFrameAlloc>,
    cgroups: CgroupRegistry,
    vms: HashMap<u32, Vm>,
    next_vm: u32,
    ept_salt: u64,
    events: HvEvents,
    strategy: PlacementStrategy,
}

impl Hypervisor {
    /// Boots a hypervisor with a default (defect-free) DRAM system whose
    /// internal transforms match the configuration.
    pub fn boot(config: SilozConfig, kind: HypervisorKind) -> Result<Self, SilozError> {
        let dram = DramSystemBuilder::new(config.geometry)
            .internal_map(config.internal_map)
            .build();
        Self::boot_with(config, kind, dram, RepairMap::new())
    }

    /// Boots with an explicit DRAM system (custom DIMM profiles, TRR, ECC)
    /// and repair table.
    ///
    /// The repair table must match the one installed in `dram` for the §6
    /// offlining to be meaningful.
    pub fn boot_with(
        config: SilozConfig,
        kind: HypervisorKind,
        dram: DramSystem,
        repairs: RepairMap,
    ) -> Result<Self, SilozError> {
        config.geometry.validate().map_err(SilozError::BadConfig)?;
        let decoder = SystemAddressDecoder::new(config.geometry, config.decoder)?;
        let prov = match kind {
            HypervisorKind::Siloz => ProvisionedTopology::provision(&config, &decoder, &repairs)?,
            HypervisorKind::Baseline => {
                // One conventional node per socket; groups are still
                // computed for *measurement* (the baseline kernel has no
                // idea they exist).
                let groups = SubarrayGroupMap::compute(&decoder, config.presumed_subarray_rows)?;
                let mut topo = Topology::new();
                let mut host_nodes = Vec::new();
                let g = decoder.geometry();
                for socket in 0..g.sockets {
                    let base = frame_of_hpa(decoder.socket_base(socket));
                    let frames = base..base + decoder.socket_bytes() / FRAME_BYTES;
                    let cpus: Vec<u32> = (0..config.cores_per_socket)
                        .map(|c| socket as u32 * config.cores_per_socket + c)
                        .collect();
                    let id = topo.add_node(
                        NodeInfo {
                            id: NodeId(0),
                            socket,
                            is_logical: false,
                            cpus,
                            frame_ranges: vec![frames],
                        },
                        &[],
                    );
                    host_nodes.push(id);
                }
                ProvisionedTopology {
                    topo,
                    groups,
                    host_nodes,
                    guest_nodes: Vec::new(),
                    node_of_group: HashMap::new(),
                    groups_of_node: HashMap::new(),
                    ept_plan: None,
                    offlined_frames: 0,
                }
            }
        };
        let ept_allocs = (prov.ept_plan.iter())
            .flat_map(|plan| &plan.sockets)
            .map(|sp| (sp.socket, EptFrameAlloc::new(sp)))
            .collect();
        Ok(Self {
            kind,
            config,
            phys_tlb: DecodeTlb::new(decoder.clone()),
            phys_scratch: Vec::new(),
            decoder,
            dram,
            topo: prov.topo,
            groups: prov.groups,
            host_nodes: prov.host_nodes,
            guest_nodes: prov.guest_nodes,
            node_of_group: prov.node_of_group,
            groups_of_node: prov.groups_of_node,
            ept_plan: prov.ept_plan,
            ept_allocs,
            cgroups: CgroupRegistry::new(),
            vms: HashMap::new(),
            next_vm: 0,
            ept_salt: 0x5110_2bad_c0de,
            events: HvEvents::default(),
            strategy: PlacementStrategy::default(),
        })
    }

    /// The placement strategy admission control currently runs under.
    #[must_use]
    pub fn placement_strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Switches the placement strategy used by [`Self::create_vm`] for all
    /// subsequent admissions. Existing placements are untouched: strategies
    /// only reorder candidate nodes and sockets, never what is claimable,
    /// so the exclusivity invariant is strategy-independent.
    pub fn set_placement_strategy(&mut self, strategy: PlacementStrategy) {
        self.strategy = strategy;
    }

    /// The hypervisor variant.
    #[must_use]
    pub fn kind(&self) -> HypervisorKind {
        self.kind
    }

    /// The boot configuration.
    #[must_use]
    pub fn config(&self) -> &SilozConfig {
        &self.config
    }

    /// The address decoder.
    #[must_use]
    pub fn decoder(&self) -> &SystemAddressDecoder {
        &self.decoder
    }

    /// The subarray group map (ground truth for containment measurements).
    #[must_use]
    pub fn groups(&self) -> &SubarrayGroupMap {
        &self.groups
    }

    /// The NUMA topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Host-reserved nodes (one per socket).
    #[must_use]
    pub fn host_nodes(&self) -> &[NodeId] {
        &self.host_nodes
    }

    /// Guest-reserved nodes (Siloz only; empty on the baseline).
    #[must_use]
    pub fn guest_nodes(&self) -> &[NodeId] {
        &self.guest_nodes
    }

    /// The logical node backing a subarray group (Siloz only).
    #[must_use]
    pub fn node_of_group(&self, group: GroupId) -> Option<NodeId> {
        self.node_of_group.get(&group).copied()
    }

    /// The EPT guard plan, when guard-row protection is active.
    #[must_use]
    pub fn ept_plan(&self) -> Option<&crate::ept_guard::EptGuardPlan> {
        self.ept_plan.as_ref()
    }

    /// Mutable access to the DRAM device model (attack harnesses drive it).
    pub fn dram_mut(&mut self) -> &mut DramSystem {
        &mut self.dram
    }

    /// Shared access to the DRAM device model.
    #[must_use]
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// Live VM handles, ascending.
    #[must_use]
    pub fn vm_handles(&self) -> Vec<VmHandle> {
        let mut v: Vec<VmHandle> = self.vms.keys().map(|&k| VmHandle(k)).collect();
        v.sort_unstable();
        v
    }

    fn vm(&self, handle: VmHandle) -> Result<&Vm, SilozError> {
        self.vms
            .get(&handle.0)
            .ok_or(SilozError::NoSuchVm(handle.0))
    }

    /// Splits out what an update of an EPT on `socket` touches besides the
    /// EPT itself: the simulated DRAM its tables live in, the socket's
    /// table-page pool, and the live VMs (so a caller can borrow one VM's
    /// EPT alongside). The one place the pool is chosen; the baseline boots
    /// with no guard pools, so no kind check is needed.
    fn ept_backend(
        &mut self,
        socket: u16,
    ) -> (DramPhysMem<'_>, EptPool<'_>, &mut HashMap<u32, Vm>) {
        let mem = DramPhysMem {
            dram: &mut self.dram,
            tlb: &mut self.phys_tlb,
            scratch: &mut self.phys_scratch,
        };
        let pool = match self.ept_allocs.get_mut(&socket) {
            Some(guard) => EptPool::Guard(guard),
            None => EptPool::HostNode(NodeEptAlloc {
                topo: &self.topo,
                node: self.host_nodes[socket as usize],
            }),
        };
        (mem, pool, &mut self.vms)
    }

    /// Creates a VM per `spec` (§5.3's lifecycle: control group, UNMEDIATED
    /// allocations from guest-reserved nodes, EPT construction). A refusal
    /// leaves the host as it was. Where each page comes from and what a
    /// failure undoes, for this and the other lifecycle operations, is one
    /// table: DESIGN.md §4, "Backing and mapping guest memory".
    pub fn create_vm(&mut self, spec: VmSpec) -> Result<VmHandle, SilozError> {
        let result = self.conserving(|hv| hv.create_vm_inner(spec));
        match &result {
            Ok(_) => self.events.vms_created += 1,
            Err(e) => {
                self.events.create_denials += 1;
                if matches!(e, SilozError::InsufficientCapacity { .. }) {
                    self.events.policy_rejections[self.strategy.index()] += 1;
                }
            }
        }
        result
    }

    /// Runs a lifecycle operation under the conservation law every refusal
    /// obeys: on `Err`, no frame, table page or node claim has changed
    /// hands. Checked in debug builds only (O(nodes + VMs) per call), so
    /// every test and debug-profile soak that takes a refusal exercises it.
    fn conserving<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, SilozError>,
    ) -> Result<T, SilozError> {
        let before = cfg!(debug_assertions).then(|| self.holdings());
        let result = op(self);
        if let (Some(before), Err(e)) = (before, &result) {
            assert_eq!(
                self.holdings(),
                before,
                "refusal `{e}` moved frames or claims"
            );
        }
        result
    }

    /// What [`Self::conserving`] compares: frames nobody holds (free in any
    /// node or in a GFP_EPT pool) plus the table pages live EPTs hold — a
    /// refused `expand_vm` legitimately moves pages from the former to the
    /// latter until `destroy_vm` — and the number of claimed guest nodes.
    fn holdings(&self) -> (u64, usize) {
        let free_in_nodes: u64 = (self.topo.nodes())
            .map(|i| self.topo.free_frames(i.id).unwrap_or(0))
            .sum();
        let free_in_pools: u64 = self.ept_allocs.values().map(EptFrameAlloc::remaining).sum();
        let in_epts: usize = self.vms.values().map(|vm| vm.ept.table_pages().len()).sum();
        let claimed = (self.guest_nodes.iter())
            .filter(|&&n| self.cgroups.owner_of(n).is_some())
            .count();
        (free_in_nodes + free_in_pools + in_epts as u64, claimed)
    }

    fn create_vm_inner(&mut self, spec: VmSpec) -> Result<VmHandle, SilozError> {
        if !spec.kvm_privileged {
            return Err(SilozError::NotPermitted(format!(
                "process for '{}' lacks KVM privileges (§5.3)",
                spec.name
            )));
        }
        let unmediated_bytes: u64 = spec.memory_bytes
            + spec
                .extra_regions
                .iter()
                .filter(|(k, _)| k.is_unmediated())
                .map(|(_, b)| *b)
                .sum::<u64>();

        let (socket, nodes) = self.pick_nodes(&spec, unmediated_bytes)?;
        let cpus: Vec<u32> = (0..spec.vcpus)
            .map(|c| {
                socket as u32 * self.config.cores_per_socket + c % self.config.cores_per_socket
            })
            .collect();
        match self.kind {
            // Siloz: exclusive node reservations enforce one-VM-per-group.
            HypervisorKind::Siloz => {
                self.cgroups
                    .create_exclusive(&spec.name, nodes.iter().copied(), cpus)?;
            }
            // Baseline: conventional shared cpuset over the socket node.
            HypervisorKind::Baseline => {
                self.cgroups
                    .create_shared(&spec.name, nodes.iter().copied(), cpus);
            }
        }

        let result = self.build_vm(&spec, socket, &nodes);
        match result {
            Ok(vm) => {
                let handle = VmHandle(self.next_vm);
                self.next_vm += 1;
                self.vms.insert(handle.0, vm);
                Ok(handle)
            }
            Err(e) => {
                self.cgroups.destroy(&spec.name);
                Err(e)
            }
        }
    }

    /// Guest-reserved nodes on `socket` that are (`claimed`) or are not
    /// claimed by a control group, in `guest_nodes` (zonelist) order.
    fn socket_guest_nodes(&self, socket: u16, claimed: bool) -> impl Iterator<Item = NodeId> + '_ {
        self.guest_nodes.iter().copied().filter(move |&n| {
            self.topo.node(n).map(|i| i.socket) == Ok(socket)
                && self.cgroups.owner_of(n).is_some() == claimed
        })
    }

    /// Selects the socket and guest nodes for a VM.
    fn pick_nodes(
        &self,
        spec: &VmSpec,
        unmediated_bytes: u64,
    ) -> Result<(u16, Vec<NodeId>), SilozError> {
        match self.kind {
            HypervisorKind::Baseline => {
                // The baseline just picks a socket; its single node serves
                // everything.
                let socket = spec.preferred_socket.unwrap_or(0);
                let node = *self
                    .host_nodes
                    .get(socket as usize)
                    .ok_or_else(|| SilozError::BadConfig(format!("no socket {socket}")))?;
                Ok((socket, vec![node]))
            }
            HypervisorKind::Siloz => {
                // Candidate sockets in the strategy's preference order; an
                // explicit preference always goes first regardless.
                let all_sockets = 0..self.config.geometry.sockets;
                let mut ranked: Vec<(u16, u32)> = all_sockets
                    .clone()
                    .map(|socket| (socket, self.socket_guest_nodes(socket, true).count() as u32))
                    .collect();
                self.strategy.order_sockets(&mut ranked);
                let mut sockets: Vec<u16> = Vec::with_capacity(ranked.len());
                if let Some(s) = spec.preferred_socket {
                    sockets.push(s);
                }
                sockets.extend(
                    ranked
                        .iter()
                        .map(|&(s, _)| s)
                        .filter(|&s| Some(s) != spec.preferred_socket),
                );
                // Prefer a single socket for physical NUMA locality (§5.2);
                // accumulate unclaimed nodes — in the strategy's node
                // order — until their actual free capacity (offlined pages
                // excluded) covers the request.
                for &socket in &sockets {
                    let mut candidates: Vec<(NodeId, u64)> = Vec::new();
                    for n in self.socket_guest_nodes(socket, false) {
                        candidates.push((n, self.topo.free_frames(n)?));
                    }
                    self.strategy.order_nodes(&mut candidates);
                    let mut chosen = Vec::new();
                    let mut bytes = 0u64;
                    for (n, free) in candidates {
                        chosen.push(n);
                        bytes += free * FRAME_BYTES;
                        if bytes >= unmediated_bytes {
                            return Ok((socket, chosen));
                        }
                    }
                }
                let available: u64 = all_sockets
                    .flat_map(|socket| self.socket_guest_nodes(socket, false))
                    .map(|n| self.topo.free_frames(n).unwrap_or(0) * FRAME_BYTES)
                    .sum();
                Err(SilozError::InsufficientCapacity {
                    requested: unmediated_bytes,
                    available,
                })
            }
        }
    }

    /// The back step: allocates the blocks of one `bytes`-long `kind`
    /// region of `spec`'s VM at `gpa`, and frees them again itself if any
    /// allocation fails.
    ///
    /// Unmediated pages use the VM's backing page size and come from
    /// `nodes`, checked against its control group — the UNMEDIATED mmap
    /// flag (§5.3). Under Siloz those are the VM's exclusive guest-reserved
    /// nodes; on the baseline `pick_nodes` chose the socket's one
    /// conventional node and the shared cpuset allows it. Mediated pages
    /// are plain 4 KiB pages from the socket's host-reserved node.
    fn back(
        &self,
        spec: &VmSpec,
        socket: u16,
        nodes: &[NodeId],
        kind: MemoryRegionKind,
        gpa: u64,
        bytes: u64,
    ) -> Result<VmRegion, SilozError> {
        let (from, cgroup, page_size) = if kind.is_unmediated() {
            let cgroup = self.cgroups.get(&spec.name).expect("control group exists");
            (nodes.to_vec(), Some(cgroup), spec.page_size)
        } else {
            let host_node = self.host_nodes[socket as usize];
            (vec![host_node], None, PageSize::Size4K)
        };
        let order = page_order(page_size);
        let mut policy = PolicyAlloc::new(MemPolicy::Bind(from));
        let mut region = VmRegion {
            kind,
            gpa,
            bytes,
            backing: Vec::new(),
        };
        let mut off = 0u64;
        while off < bytes {
            match policy.alloc(&self.topo, order, cgroup) {
                Ok((node, frame)) => region.backing.push(BackingBlock {
                    gpa: gpa + off,
                    frame,
                    order,
                    node,
                }),
                Err(e) => {
                    self.free_region(&region);
                    return Err(e.into());
                }
            }
            off += page_size.bytes();
        }
        Ok(region)
    }

    /// Backs every region, builds the EPT, maps every region — in that
    /// order, which is a contract: each HPA a VM gets, and through it every
    /// pinned report, is a function of the sequence of allocator calls.
    /// Backing memory is allocated before any EPT table page — as with
    /// boot-time hugepage reservation, guest RAM occupies the front of its
    /// pool, row-group aligned, under both hypervisors. A failure anywhere
    /// gives back everything allocated so far.
    fn build_vm(&mut self, spec: &VmSpec, socket: u16, nodes: &[NodeId]) -> Result<Vm, SilozError> {
        let ram_bytes = round_up(spec.memory_bytes, spec.page_size.bytes());
        let extra = (spec.extra_regions.iter())
            .map(|&(kind, bytes)| (kind, round_up(bytes.max(1), FRAME_BYTES)));
        let mut regions: Vec<VmRegion> = Vec::new();
        let mut gpa = 0u64;
        for (kind, bytes) in std::iter::once((MemoryRegionKind::Ram, ram_bytes)).chain(extra) {
            gpa = round_up(gpa, spec.page_size.bytes());
            match self.back(spec, socket, nodes, kind, gpa, bytes) {
                Ok(region) => regions.push(region),
                Err(e) => {
                    regions.iter().for_each(|r| self.free_region(r));
                    return Err(e);
                }
            }
            gpa += bytes;
        }

        let integrity = match self.config.ept_protection {
            EptProtection::SecureEpt => IntegrityMode::Checked,
            _ => IntegrityMode::None,
        };
        let salt = self.ept_salt;
        let (mut mem, mut pool, _) = self.ept_backend(socket);
        let built = Ept::new(&mut mem, &mut pool, integrity, salt)
            .map_err(SilozError::from)
            .and_then(|mut ept| {
                for r in &regions {
                    if let Err(e) = map_blocks(&mut ept, &mut mem, &mut pool, r.kind, &r.backing) {
                        pool.release_all(&ept);
                        return Err(e);
                    }
                }
                Ok(ept)
            });
        let ept = match built {
            Ok(ept) => ept,
            Err(e) => {
                regions.iter().for_each(|r| self.free_region(r));
                return Err(e);
            }
        };

        // 1 GiB backing must respect 3 GiB sets (4.2).
        if spec.page_size == PageSize::Size1G && self.kind == HypervisorKind::Siloz {
            for region in &regions {
                if !region.kind.is_unmediated() {
                    continue;
                }
                for b in &region.backing {
                    let first = self.groups.group_of_phys(b.hpa())?;
                    let last = self.groups.group_of_phys(b.hpa() + b.bytes() - 1)?;
                    debug_assert_eq!(
                        self.groups.gig_set_of(first),
                        self.groups.gig_set_of(last),
                        "1 GiB page crosses a 3 GiB set"
                    );
                }
            }
        }

        Ok(Vm {
            spec: spec.clone(),
            socket,
            nodes: nodes.to_vec(),
            regions,
            ept,
        })
    }

    fn free_region(&self, region: &VmRegion) {
        for b in &region.backing {
            let _ = self.topo.free(b.node, b.frame, b.order);
        }
    }

    /// Grows a VM by `extra_bytes` of unmediated RAM mapped at the top of
    /// its GPA space (memory hotplug under subarray-group isolation). A
    /// refusal leaves the host and the VM as they were (DESIGN.md §4 table).
    pub fn expand_vm(&mut self, handle: VmHandle, extra_bytes: u64) -> Result<(), SilozError> {
        self.conserving(|hv| hv.expand_vm_inner(handle, extra_bytes))
    }

    fn expand_vm_inner(&mut self, handle: VmHandle, extra_bytes: u64) -> Result<(), SilozError> {
        let vm = self.vm(handle)?;
        let (spec, socket, held) = (vm.spec.clone(), vm.socket, vm.nodes.clone());
        let end = vm.regions.iter().map(|r| r.gpa + r.bytes).max();
        let gpa = round_up(end.unwrap_or(0), spec.page_size.bytes());
        let extra = round_up(extra_bytes.max(1), spec.page_size.bytes());

        // Siloz: claim more nodes if the held ones cannot take the growth.
        let mut nodes = held.clone();
        if self.kind == HypervisorKind::Siloz {
            let free_now: u64 = held
                .iter()
                .map(|&n| self.topo.free_frames(n).unwrap_or(0) * FRAME_BYTES)
                .sum();
            let mut need = extra.saturating_sub(free_now);
            // Candidates are taken in `guest_nodes` order, *not* in
            // `strategy.order_nodes` order as `pick_nodes` takes them. The
            // difference is pinned by every committed report: keep it.
            let mut spare = self.socket_guest_nodes(socket, false);
            while need > 0 {
                let Some(n) = spare.next() else {
                    return Err(SilozError::InsufficientCapacity {
                        requested: extra,
                        available: free_now,
                    });
                };
                nodes.push(n);
                need = need.saturating_sub(self.topo.free_frames(n)? * FRAME_BYTES);
            }
        }
        let claims_more = nodes.len() > held.len();
        let mut cpus: Vec<u32> = Vec::new();
        if claims_more {
            let group = self.cgroups.get(&spec.name);
            cpus.extend(group.into_iter().flat_map(|g| &g.cpus_allowed));
            self.cgroups.create_exclusive(
                &spec.name,
                nodes.iter().copied(),
                cpus.iter().copied(),
            )?;
        }

        // Back, then map, the growth as a fresh RAM region.
        let grown = self
            .back(&spec, socket, &nodes, MemoryRegionKind::Ram, gpa, extra)
            .and_then(|region| {
                let (mut mem, mut pool, vms) = self.ept_backend(socket);
                let ept = &mut vms.get_mut(&handle.0).expect("vm exists").ept;
                match map_blocks(ept, &mut mem, &mut pool, region.kind, &region.backing) {
                    Ok(()) => Ok(region),
                    Err(e) => {
                        self.free_region(&region);
                        Err(e)
                    }
                }
            });
        match grown {
            Ok(region) => {
                let vm = self.vms.get_mut(&handle.0).expect("vm exists");
                vm.nodes = nodes;
                vm.regions.push(region);
                self.events.expansions += 1;
                Ok(())
            }
            Err(e) => {
                // Put the control group back to the nodes the VM held:
                // `create_exclusive` only ever adds claims, so drop the
                // group and re-create it.
                if claims_more {
                    self.cgroups.destroy(&spec.name);
                    self.cgroups
                        .create_exclusive(&spec.name, held, cpus)
                        .expect("re-claiming nodes just released");
                }
                Err(e)
            }
        }
    }

    /// Host shutdown (§5.3): the privileged shutdown routine kills every VM
    /// and its resources, ignoring active subarray-group constraints.
    pub fn shutdown(&mut self) -> usize {
        let handles = self.vm_handles();
        let n = handles.len();
        for h in handles {
            let _ = self.destroy_vm(h);
        }
        n
    }

    /// Shuts a VM down: backing memory returns to its logical nodes' free
    /// pools and table pages to their EPT pool; the node reservation
    /// persists until the control group is destroyed (§5.3) — which this
    /// convenience method also does.
    pub fn destroy_vm(&mut self, handle: VmHandle) -> Result<(), SilozError> {
        let vm = self
            .vms
            .remove(&handle.0)
            .ok_or(SilozError::NoSuchVm(handle.0))?;
        for region in &vm.regions {
            self.free_region(region);
        }
        let (_, mut pool, _) = self.ept_backend(vm.socket);
        pool.release_all(&vm.ept);
        self.cgroups.destroy(&vm.spec.name);
        self.events.vms_destroyed += 1;
        self.events.ept_walks_retired += vm.ept.walks();
        self.events.ept_denials_retired += vm.ept.integrity_denials();
        self.events.ept_table_pages_retired += vm.ept.table_pages().len() as u64;
        self.events.ept_leaves_retired += vm.ept.mapped_leaves();
        Ok(())
    }

    /// The logical nodes provisioned to a VM.
    pub fn vm_nodes(&self, handle: VmHandle) -> Result<&[NodeId], SilozError> {
        Ok(&self.vm(handle)?.nodes)
    }

    /// The subarray groups provisioned to a VM (Siloz; empty on baseline).
    pub fn vm_groups(&self, handle: VmHandle) -> Result<Vec<GroupId>, SilozError> {
        let vm = self.vm(handle)?;
        let mut out = Vec::new();
        for n in &vm.nodes {
            if let Some(gs) = self.groups_of_node.get(n) {
                out.extend(gs.iter().copied());
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// A VM's mapped regions.
    pub fn vm_regions(&self, handle: VmHandle) -> Result<&[VmRegion], SilozError> {
        Ok(&self.vm(handle)?.regions)
    }

    /// All of a VM's unmediated backing blocks (the memory it can hammer).
    pub fn vm_unmediated_backing(&self, handle: VmHandle) -> Result<Vec<BackingBlock>, SilozError> {
        let vm = self.vm(handle)?;
        Ok(vm
            .regions
            .iter()
            .filter(|r| r.kind.is_unmediated())
            .flat_map(|r| r.backing.iter().copied())
            .collect())
    }

    /// HPAs of a VM's EPT table pages.
    pub fn vm_ept_pages(&self, handle: VmHandle) -> Result<&[u64], SilozError> {
        Ok(self.vm(handle)?.ept.table_pages())
    }

    /// Occupancy and fragmentation of the guest-reserved group pool: one
    /// entry per guest group with its claiming VM's control group (if any)
    /// and current node-level free frames. Empty on the baseline, which
    /// provisions no guest groups. This is the introspection surface
    /// admission-control policies and the fleet simulator steer by (§8).
    #[must_use]
    pub fn occupancy(&self) -> crate::group::OccupancyReport {
        self.groups.occupancy(|info| {
            let node = *self.node_of_group.get(&info.id)?;
            // A mapped group's node is either a guest node or its socket's
            // host node (provisioning), so testing the short host list is
            // exact.
            if self.host_nodes.contains(&node) {
                return None;
            }
            let owner = self.cgroups.owner_of(node).map(str::to_string);
            Some((owner, self.topo.free_frames(node).unwrap_or(0)))
        })
    }

    /// Adds this hypervisor's lifecycle totals into `reg`, with two child
    /// registries: `ept` (walks, integrity denials, table-page footprint,
    /// leaves — summed over live VMs plus everything already destroyed) and
    /// `ept_guard` (GFP_EPT pool allocations/denials/occupancy, summed over
    /// sockets). The DRAM device is exported separately by callers holding
    /// the experiment's registry, to keep device and hypervisor totals in
    /// distinct subtrees.
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        reg.counter("vms_created").add(self.events.vms_created);
        reg.counter("vm_create_denials")
            .add(self.events.create_denials);
        reg.counter("vms_destroyed").add(self.events.vms_destroyed);
        reg.counter("vm_expansions").add(self.events.expansions);
        reg.counter("block_migrations").add(self.events.migrations);
        reg.gauge("vms_live").add(self.vms.len() as i64);

        let mut walks = self.events.ept_walks_retired;
        let mut denials = self.events.ept_denials_retired;
        let mut table_pages = self.events.ept_table_pages_retired;
        let mut leaves = self.events.ept_leaves_retired;
        for vm in self.vms.values() {
            walks += vm.ept.walks();
            denials += vm.ept.integrity_denials();
            table_pages += vm.ept.table_pages().len() as u64;
            leaves += vm.ept.mapped_leaves();
        }
        let ept_reg = reg.child("ept");
        ept_reg.counter("walks").add(walks);
        ept_reg.counter("integrity_denials").add(denials);
        ept_reg.counter("table_pages").add(table_pages);
        ept_reg.counter("mapped_leaves").add(leaves);

        let guard = reg.child("ept_guard");
        for alloc in self.ept_allocs.values() {
            alloc.export_telemetry(&guard);
        }

        // Admission control: capacity rejections per placement strategy
        // plus a point-in-time view of group-pool fragmentation.
        let admission = reg.child("admission");
        admission
            .counter("rejections_first_fit")
            .add(self.events.policy_rejections[0]);
        admission
            .counter("rejections_best_fit")
            .add(self.events.policy_rejections[1]);
        admission
            .counter("rejections_socket_affine")
            .add(self.events.policy_rejections[2]);
        let occ = self.occupancy();
        admission.gauge("groups_total").add(occ.total() as i64);
        admission.gauge("groups_claimed").add(occ.claimed() as i64);
        admission
            .gauge("groups_pristine")
            .add(occ.pristine() as i64);
        admission.gauge("groups_partial").add(occ.partial() as i64);
        admission
            .gauge("fragmentation_pct")
            .add(occ.fragmentation_pct() as i64);
    }

    /// Translates a guest physical address through the VM's EPT, walking the
    /// tables in simulated DRAM (bit flips in EPT rows corrupt this walk).
    pub fn translate(&mut self, handle: VmHandle, gpa: u64) -> Result<Translation, SilozError> {
        let vm = self
            .vms
            .get(&handle.0)
            .ok_or(SilozError::NoSuchVm(handle.0))?;
        let mut mem = DramPhysMem {
            dram: &mut self.dram,
            tlb: &mut self.phys_tlb,
            scratch: &mut self.phys_scratch,
        };
        vm.ept.translate(&mut mem, gpa).map_err(Into::into)
    }

    /// Writes guest memory through the EPT.
    ///
    /// Chunks at cache-line granularity: only bytes within one 64 B line
    /// are physically contiguous in a row (§2.4's interleaving).
    pub fn guest_write(
        &mut self,
        handle: VmHandle,
        gpa: u64,
        bytes: &[u8],
    ) -> Result<(), SilozError> {
        let line = dram_addr::CACHE_LINE_BYTES;
        let mut off = 0usize;
        while off < bytes.len() {
            let t = self.translate(handle, gpa + off as u64)?;
            if !t.perms.write {
                // Guest writes to read-only mappings (ROM) fault; from the
                // device-model side they are simply discarded after the
                // permission error is surfaced.
                return Err(SilozError::NotPermitted(format!(
                    "write to read-only GPA {gpa:#x}"
                )));
            }
            let (m, bank) = self.phys_tlb.decode_with_bank(t.hpa)?;
            let chunk = ((line - dram_addr::line_offset(t.hpa)) as usize).min(bytes.len() - off);
            self.dram
                .write_row(bank, m.row, m.col, &bytes[off..off + chunk]);
            off += chunk;
        }
        Ok(())
    }

    /// Reads guest memory through the EPT; returns the bytes and whether all
    /// chunks read back clean/corrected.
    ///
    /// Chunks at cache-line granularity, like [`Self::guest_write`].
    pub fn guest_read(
        &mut self,
        handle: VmHandle,
        gpa: u64,
        len: usize,
    ) -> Result<(Vec<u8>, bool), SilozError> {
        let line = dram_addr::CACHE_LINE_BYTES;
        let mut out = Vec::with_capacity(len);
        let mut intact = true;
        while out.len() < len {
            let off = out.len() as u64;
            let t = self.translate(handle, gpa + off)?;
            let (m, bank) = self.phys_tlb.decode_with_bank(t.hpa)?;
            let chunk = ((line - dram_addr::line_offset(t.hpa)) as usize).min(len - out.len());
            let integrity =
                self.dram
                    .read_row_into(bank, m.row, m.col, chunk as u32, &mut self.phys_scratch);
            intact &= integrity.data_is_correct();
            out.extend_from_slice(&self.phys_scratch);
        }
        Ok((out, intact))
    }

    /// Flips recorded so far that fall *outside* a VM's provisioned subarray
    /// groups — inter-VM escapes if that VM was the hammering domain (§7.1).
    ///
    /// On the baseline (no provisioned groups), every flip outside the VM's
    /// actually-backing rows counts as an escape.
    pub fn flips_outside_vm(&self, handle: VmHandle) -> Result<Vec<BitFlip>, SilozError> {
        self.flips_outside_vm_since(handle, 0)
    }

    /// [`Self::flips_outside_vm`] restricted to flips recorded at or after
    /// flip-log index `skip`.
    ///
    /// Long-running scenarios with several attack campaigns need this
    /// window: a previous aggressor's (contained) flips live in *its*
    /// groups, which are outside every other VM's groups, so an unwindowed
    /// scan would misattribute them as fresh escapes.
    pub fn flips_outside_vm_since(
        &self,
        handle: VmHandle,
        skip: usize,
    ) -> Result<Vec<BitFlip>, SilozError> {
        let vm = self.vm(handle)?;
        let g = self.decoder.geometry();
        let mut escaped = Vec::new();
        match self.kind {
            HypervisorKind::Siloz => {
                let groups = self.vm_groups(handle)?;
                let spans: Vec<(u16, std::ops::Range<u32>)> = groups
                    .iter()
                    .filter_map(|gid| self.groups.group(*gid))
                    .map(|info| (info.socket, info.rows.clone()))
                    .collect();
                for flip in self.dram.flip_log().all().iter().skip(skip) {
                    let socket = flip.bank.socket(g);
                    let inside = spans
                        .iter()
                        .any(|(s, rows)| *s == socket && rows.contains(&flip.media_row));
                    if !inside {
                        escaped.push(*flip);
                    }
                }
            }
            HypervisorKind::Baseline => {
                // Rows actually backing the VM.
                let mut vm_rows: std::collections::HashSet<(u16, u32)> =
                    std::collections::HashSet::new();
                for b in vm.regions.iter().flat_map(|r| r.backing.iter()) {
                    let mut p = b.hpa();
                    let end = b.hpa() + b.bytes();
                    while p < end {
                        let (socket, row) = self.decoder.row_group_of(p)?;
                        vm_rows.insert((socket, row));
                        p += g.row_group_bytes() - p % g.row_group_bytes();
                    }
                }
                for flip in self.dram.flip_log().all().iter().skip(skip) {
                    let socket = flip.bank.socket(g);
                    if !vm_rows.contains(&(socket, flip.media_row)) {
                        escaped.push(*flip);
                    }
                }
            }
        }
        Ok(escaped)
    }

    /// Periodic free-memory statistics refresh, with the §5.3 optimization:
    /// guest-reserved nodes' free counts cannot change while their VM runs,
    /// so Siloz skips them entirely; the baseline iterates every node.
    /// Returns the snapshot and how many nodes were iterated.
    pub fn refresh_node_stats(&self) -> Result<(Vec<(NodeId, u64)>, usize), SilozError> {
        let nodes: Vec<NodeId> = match self.kind {
            // Host-reserved nodes only: everything guest-reserved is
            // either idle (stats frozen at group capacity) or reserved by a
            // running VM (stats frozen after VM boot, §5.3).
            HypervisorKind::Siloz => self.host_nodes.clone(),
            HypervisorKind::Baseline => self.topo.nodes().map(|i| i.id).collect(),
        };
        let iterated = nodes.len();
        let snapshot = self.topo.snapshot_stats(nodes)?;
        Ok((snapshot, iterated))
    }

    /// Allocates one 4 KiB table page from the EPT pool of the VM's socket,
    /// for EPT-adjacent metadata that needs the same integrity protection
    /// (e.g. IOMMU tables, §5.1). The caller owns the page.
    pub fn alloc_protected_table_page(&mut self, handle: VmHandle) -> Result<u64, SilozError> {
        let socket = self.vm(handle)?.socket;
        let (_, mut pool, _) = self.ept_backend(socket);
        Ok(pool.alloc_table_page()?)
    }

    /// Copies `len` bytes between physical ranges (used by migration-based
    /// defenses), without moving zeros.
    ///
    /// The range is walked in segments that stay inside one source and one
    /// destination row-group stripe ([`dram_addr::Geometry::row_group_bytes`]):
    /// inside a stripe consecutive lines rotate over every bank of the
    /// socket at one media row. When that row is blank
    /// ([`DramSystem::row_is_blank`]) in every bank at the source and
    /// likewise at the destination, copying the segment would read clean
    /// zeros and write them into absent rows — a no-op — so it is skipped.
    /// Any other segment is copied line by line: decodes go through the
    /// hypervisor's decode TLB (one real decode per stripe rather than per
    /// 64 B line) and reads land in a reused scratch buffer, so the loop is
    /// allocation-free.
    pub fn copy_phys(&mut self, src: u64, dst: u64, len: u64) -> Result<(), SilozError> {
        let (line, stripe) = (CACHE_LINE_BYTES, self.decoder.geometry().row_group_bytes());
        let mut off = 0u64;
        while off < len {
            let (s, d) = (src + off, dst + off);
            let to_stripe_end = (stripe - s % stripe).min(stripe - d % stripe);
            let seg_end = off + to_stripe_end.min(len - off);
            let (sm, dm) = (self.phys_tlb.decode(s)?, self.phys_tlb.decode(d)?);
            if self.stripe_is_blank(&sm) && self.stripe_is_blank(&dm) {
                off = seg_end;
                continue;
            }
            while off < seg_end {
                let (s, d) = (src + off, dst + off);
                // A chunk stays inside one source line and one destination
                // line: past either, the next bytes belong to another bank.
                let chunk = (line - s % line).min(line - d % line).min(seg_end - off);
                let (sm, sbank) = self.phys_tlb.decode_with_bank(s)?;
                let _ = self.dram.read_row_into(
                    sbank,
                    sm.row,
                    sm.col,
                    chunk as u32,
                    &mut self.phys_scratch,
                );
                let (dm, dbank) = self.phys_tlb.decode_with_bank(d)?;
                self.dram
                    .write_row(dbank, dm.row, dm.col, &self.phys_scratch);
                off += chunk;
            }
        }
        Ok(())
    }

    /// Whether the row-group stripe holding `m` is blank in every bank of
    /// its socket.
    fn stripe_is_blank(&self, m: &dram_addr::MediaAddress) -> bool {
        let banks = self.decoder.geometry().banks_per_socket();
        let first = u32::from(m.socket) * banks;
        (first..first + banks).all(|b| self.dram.row_is_blank(dram_addr::BankId(b), m.row))
    }

    /// Migrates the backing block containing `gpa` to a fresh block on the
    /// same node — allocate, copy, unmap, map, free the old block — (the
    /// Copy-on-Flip response to corrected errors, §3). Fails, changing
    /// nothing, for unmapped GPAs or when the node is full.
    pub fn migrate_block(&mut self, handle: VmHandle, gpa: u64) -> Result<(), SilozError> {
        let vm = self.vm(handle)?;
        let socket = vm.socket;
        let mut found = None;
        for (ri, r) in vm.regions.iter().enumerate() {
            for (bi, b) in r.backing.iter().enumerate() {
                if gpa >= b.gpa && gpa < b.gpa + b.bytes() {
                    found = Some((ri, bi, *b));
                }
            }
        }
        let (region_idx, block_idx, old) =
            found.ok_or(SilozError::Ept(EptError::NotMapped { gpa }))?;
        let new = BackingBlock {
            frame: self.topo.alloc(old.node, old.order)?,
            ..old
        };
        // No exit below undoes that allocation, because none is reachable
        // short of a corrupted EPT: `copy_phys` fails only on an HPA the
        // decoder rejects (never one the allocator handed out), and
        // re-mapping a GPA just unmapped at the same size needs no new
        // table page.
        self.copy_phys(old.hpa(), new.hpa(), old.bytes())?;
        let (mut mem, mut pool, vms) = self.ept_backend(socket);
        let vm = vms.get_mut(&handle.0).expect("vm exists");
        let region = &mut vm.regions[region_idx];
        vm.ept.unmap(&mut mem, old.gpa)?;
        map_blocks(&mut vm.ept, &mut mem, &mut pool, region.kind, &[new])?;
        region.backing[block_idx] = new;
        self.topo.free(old.node, old.frame, old.order)?;
        self.events.migrations += 1;
        Ok(())
    }

    /// Allocates host memory (order-`order` block) from a socket's
    /// host-reserved node.
    pub fn host_alloc(&mut self, socket: u16, order: u8) -> Result<u64, SilozError> {
        let node = *self
            .host_nodes
            .get(socket as usize)
            .ok_or_else(|| SilozError::BadConfig(format!("no socket {socket}")))?;
        Ok(self.topo.alloc(node, order)?)
    }

    /// Frees host memory.
    pub fn host_free(&mut self, socket: u16, frame: u64, order: u8) -> Result<(), SilozError> {
        let node = self.host_nodes[socket as usize];
        self.topo.free(node, frame, order)?;
        Ok(())
    }
}

fn round_up(x: u64, to: u64) -> u64 {
    x.div_ceil(to) * to
}

/// Buddy order of one backing page (inverse of [`BackingBlock::page_size`]).
fn page_order(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => ORDER_2M,
        PageSize::Size1G => ORDER_1G,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;

    fn mini_siloz() -> Hypervisor {
        Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap()
    }

    fn mini_baseline() -> Hypervisor {
        Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Baseline).unwrap()
    }

    #[test]
    fn siloz_vm_gets_exclusive_groups() {
        let mut hv = mini_siloz();
        let a = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let b = hv.create_vm(VmSpec::new("b", 2, 96 << 20)).unwrap();
        let ga = hv.vm_groups(a).unwrap();
        let gb = hv.vm_groups(b).unwrap();
        assert!(!ga.is_empty() && !gb.is_empty());
        assert!(
            ga.iter().all(|g| !gb.contains(g)),
            "groups must be disjoint"
        );
        // The pool is the guest groups: the host-reserved one is not in it.
        let occ = hv.occupancy();
        assert_eq!(occ.total(), hv.guest_nodes().len() as u64);
        assert_eq!(occ.claimed(), (ga.len() + gb.len()) as u64);
    }

    #[test]
    fn vm_backing_lands_only_in_its_groups() {
        let mut hv = mini_siloz();
        let vm = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let groups = hv.vm_groups(vm).unwrap();
        for block in hv.vm_unmediated_backing(vm).unwrap() {
            for off in (0..block.bytes()).step_by(1 << 20) {
                let gid = hv.groups().group_of_phys(block.hpa() + off).unwrap();
                assert!(groups.contains(&gid), "backing outside provisioned groups");
            }
        }
    }

    #[test]
    fn mediated_regions_go_to_host_reserved_memory() {
        let mut hv = mini_siloz();
        let vm = hv
            .create_vm(VmSpec::new("a", 2, 96 << 20).with_region(MemoryRegionKind::Mmio, 16 << 10))
            .unwrap();
        let host_node = hv.host_nodes()[0];
        let regions = hv.vm_regions(vm).unwrap();
        let mmio = regions
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Mmio)
            .unwrap();
        for b in &mmio.backing {
            assert_eq!(b.node, host_node, "mediated pages must be host-reserved");
        }
        let ram = regions
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Ram)
            .unwrap();
        for b in &ram.backing {
            assert_ne!(
                b.node, host_node,
                "unmediated pages must not be host-reserved"
            );
        }
    }

    #[test]
    fn translation_works_end_to_end_through_dram() {
        let mut hv = mini_siloz();
        let vm = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let t = hv.translate(vm, 0x123456).unwrap();
        // GPA-contiguous RAM from block 0.
        let backing = hv.vm_unmediated_backing(vm).unwrap();
        assert_eq!(t.hpa, backing[0].hpa() + 0x123456 % backing[0].bytes());
        assert!(t.perms.write);
    }

    #[test]
    fn guest_read_write_roundtrip() {
        let mut hv = mini_siloz();
        let vm = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        hv.guest_write(vm, 0x1000, &data).unwrap();
        let (back, intact) = hv.guest_read(vm, 0x1000, data.len()).unwrap();
        assert!(intact);
        assert_eq!(back, data);
    }

    #[test]
    fn siloz_ept_pages_live_in_the_guard_protected_row_group() {
        let mut hv = mini_siloz();
        let vm = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        let plan = hv.ept_plan().unwrap().clone();
        let sp = plan.socket(0).unwrap();
        let pages = hv.vm_ept_pages(vm).unwrap().to_vec();
        assert!(!pages.is_empty());
        for hpa in pages {
            let (_, row) = hv.decoder().row_group_of(hpa).unwrap();
            assert_eq!(row, sp.ept_row, "EPT page outside the EPT row group");
        }
    }

    #[test]
    fn baseline_ept_pages_are_ordinary_allocations() {
        let mut hv = mini_baseline();
        let vm = hv.create_vm(VmSpec::new("a", 2, 96 << 20)).unwrap();
        assert!(hv.ept_plan().is_none());
        assert!(!hv.vm_ept_pages(vm).unwrap().is_empty());
    }

    #[test]
    fn unprivileged_processes_cannot_create_vms() {
        let mut hv = mini_siloz();
        let err = hv
            .create_vm(VmSpec::new("evil", 1, 1 << 20).unprivileged())
            .unwrap_err();
        assert!(matches!(err, SilozError::NotPermitted(_)));
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut hv = mini_siloz();
        // Mini has 7 guest groups of 128 MiB each.
        let _a = hv.create_vm(VmSpec::new("a", 1, 512 << 20)).unwrap();
        let err = hv.create_vm(VmSpec::new("b", 1, 512 << 20)).unwrap_err();
        assert!(matches!(err, SilozError::InsufficientCapacity { .. }));
    }

    #[test]
    fn destroy_vm_releases_groups_for_reuse() {
        let mut hv = mini_siloz();
        let a = hv.create_vm(VmSpec::new("a", 1, 512 << 20)).unwrap();
        hv.destroy_vm(a).unwrap();
        assert!(hv.create_vm(VmSpec::new("b", 1, 512 << 20)).is_ok());
        assert!(matches!(hv.destroy_vm(a), Err(SilozError::NoSuchVm(_))));
    }

    #[test]
    fn destroy_restores_free_frames() {
        let mut hv = mini_siloz();
        let free_before: u64 = hv
            .guest_nodes()
            .to_vec()
            .iter()
            .map(|&n| hv.topology().free_frames(n).unwrap())
            .sum();
        let a = hv.create_vm(VmSpec::new("a", 1, 256 << 20)).unwrap();
        hv.destroy_vm(a).unwrap();
        let free_after: u64 = hv
            .guest_nodes()
            .to_vec()
            .iter()
            .map(|&n| hv.topology().free_frames(n).unwrap())
            .sum();
        assert_eq!(free_before, free_after);
    }

    #[test]
    fn baseline_vms_share_subarray_groups() {
        // The vulnerability Siloz closes: on the baseline, two VMs' pages
        // co-locate in the same subarray groups.
        let mut hv = mini_baseline();
        let a = hv.create_vm(VmSpec::new("a", 1, 96 << 20)).unwrap();
        let b = hv.create_vm(VmSpec::new("b", 1, 96 << 20)).unwrap();
        let group_of = |hv: &Hypervisor, h| -> std::collections::BTreeSet<u32> {
            hv.vm_unmediated_backing(h)
                .unwrap()
                .iter()
                .map(|blk| hv.groups().group_of_phys(blk.hpa()).unwrap().0)
                .collect()
        };
        let ga = group_of(&hv, a);
        let gb = group_of(&hv, b);
        assert!(
            ga.intersection(&gb).next().is_some(),
            "baseline VMs should share groups: {ga:?} vs {gb:?}"
        );
    }

    #[test]
    fn preferred_socket_is_honored_with_fallback() {
        let config = SilozConfig::evaluation();
        let mut hv = Hypervisor::boot(config, HypervisorKind::Siloz).unwrap();
        let vm = hv
            .create_vm(VmSpec::new("a", 4, 3 << 30).on_socket(1))
            .unwrap();
        for n in hv.vm_nodes(vm).unwrap() {
            assert_eq!(hv.topology().node(*n).unwrap().socket, 1);
        }
    }

    #[test]
    fn ept_integrity_mode_follows_protection_config() {
        let mut config = SilozConfig::mini();
        config.ept_protection = EptProtection::SecureEpt;
        let mut hv = Hypervisor::boot(config, HypervisorKind::Siloz).unwrap();
        let vm = hv.create_vm(VmSpec::new("a", 1, 64 << 20)).unwrap();
        // Secure EPT still translates fine when uncorrupted.
        assert!(hv.translate(vm, 0).is_ok());
    }

    #[test]
    fn rom_regions_are_read_only_in_the_ept() {
        let mut hv = mini_siloz();
        let vm = hv
            .create_vm(VmSpec::new("a", 1, 64 << 20).with_region(MemoryRegionKind::Rom, 2 << 20))
            .unwrap();
        let regions = hv.vm_regions(vm).unwrap();
        let rom_gpa = regions
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Rom)
            .unwrap()
            .gpa;
        let t = hv.translate(vm, rom_gpa).unwrap();
        assert!(t.perms.read && !t.perms.write);
    }

    #[test]
    fn stat_refresh_skips_guest_nodes_under_siloz() {
        // §5.3: guest-reserved node statistics need no periodic updates;
        // Siloz iterates only host nodes regardless of how many logical
        // nodes exist — the mechanism behind the §7.4 "node count does not
        // matter" result.
        let mut hv = mini_siloz();
        let _ = hv.create_vm(VmSpec::new("a", 1, 96 << 20)).unwrap();
        let (snap, iterated) = hv.refresh_node_stats().unwrap();
        assert_eq!(iterated, 1, "one host node per socket");
        assert_eq!(snap.len(), 1);

        let mut base = mini_baseline();
        let _ = base.create_vm(VmSpec::new("a", 1, 96 << 20)).unwrap();
        let (_, iterated) = base.refresh_node_stats().unwrap();
        assert_eq!(iterated, 1, "baseline has one node per socket anyway");

        // At evaluation scale the asymmetry is 2 vs 256.
        let hv = Hypervisor::boot(SilozConfig::evaluation(), HypervisorKind::Siloz).unwrap();
        let (_, iterated) = hv.refresh_node_stats().unwrap();
        assert_eq!(iterated, 2);
    }

    #[test]
    fn guest_writes_to_rom_are_rejected() {
        let mut hv = mini_siloz();
        let vm = hv
            .create_vm(VmSpec::new("a", 1, 64 << 20).with_region(MemoryRegionKind::Rom, 2 << 20))
            .unwrap();
        let rom_gpa = hv
            .vm_regions(vm)
            .unwrap()
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Rom)
            .unwrap()
            .gpa;
        assert!(matches!(
            hv.guest_write(vm, rom_gpa, b"overwrite"),
            Err(SilozError::NotPermitted(_))
        ));
        // Reads still work.
        assert!(hv.guest_read(vm, rom_gpa, 8).is_ok());
    }

    #[test]
    fn gfp_ept_pool_exhaustion_is_a_clean_error() {
        // §5.4 sizes one row group of EPT pages per socket; 4 KiB-backed
        // VMs are page-table hungry and eventually drain the pool.
        use ept::PageSize;
        let mut hv = mini_siloz();
        let mut created = 0;
        let err = loop {
            let r = hv.create_vm(
                VmSpec::new(&format!("tiny{created}"), 1, 16 << 20)
                    .with_page_size(PageSize::Size4K),
            );
            match r {
                Ok(_) => created += 1,
                Err(e) => break e,
            }
            assert!(created < 64, "pool never exhausted?");
        };
        assert!(created > 0, "some VMs fit");
        assert!(
            matches!(err, SilozError::Ept(EptError::OutOfMemory))
                || matches!(err, SilozError::InsufficientCapacity { .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn refused_expand_leaves_the_host_as_it_was() {
        /// What a refused call must not move (the regions are compared
        /// apart: 60k blocks make an unreadable assertion message).
        #[derive(Debug, PartialEq)]
        struct Host {
            node_free: Vec<u64>,
            claimed: u64,
            vm_nodes: Vec<NodeId>,
            vm_groups: Vec<GroupId>,
            last_gpa: Translation,
            /// Table pages in the pool plus those the VM's EPT holds: what
            /// a refused call draws stays owned by the VM (and goes back
            /// with it) rather than being lost between the two.
            table_pages: u64,
        }
        fn node_free(hv: &Hypervisor) -> Vec<u64> {
            let topo = hv.topology();
            topo.nodes()
                .map(|i| topo.free_frames(i.id).unwrap())
                .collect()
        }
        fn observe(hv: &mut Hypervisor, vm: VmHandle) -> (Host, Vec<VmRegion>) {
            let regions = hv.vm_regions(vm).unwrap().to_vec();
            let last = regions.last().unwrap();
            let host = Host {
                node_free: node_free(hv),
                claimed: hv.occupancy().claimed(),
                vm_nodes: hv.vm_nodes(vm).unwrap().to_vec(),
                vm_groups: hv.vm_groups(vm).unwrap(),
                last_gpa: hv
                    .translate(vm, last.gpa + last.bytes - FRAME_BYTES)
                    .unwrap(),
                table_pages: hv.vm_ept_pages(vm).unwrap().len() as u64
                    + hv.ept_allocs[&0].remaining(),
            };
            (host, regions)
        }

        // One 16 MiB 4 KiB-backed VM grown in fixed steps until the GFP_EPT
        // pool refuses a table page mid-map. At 8 and 40 MiB steps the
        // refused call fits the nodes the VM already holds (it only
        // allocated backing); at 100 and 130 MiB it does not (it claimed
        // another node first).
        for (mib, claims_first) in [(8u64, false), (40, false), (100, true), (130, true)] {
            let step = mib << 20;
            let mut hv = mini_siloz();
            let boot = (node_free(&hv), hv.ept_allocs[&0].remaining());
            let spec = VmSpec::new("grower", 1, 16 << 20).with_page_size(PageSize::Size4K);
            let vm = hv.create_vm(spec).unwrap();
            let (before, err) = loop {
                let before = observe(&mut hv, vm);
                if let Err(e) = hv.expand_vm(vm, step) {
                    break (before, e);
                }
            };
            assert_eq!(err, SilozError::Ept(EptError::OutOfMemory), "{mib} MiB");
            let held: u64 = (before.0.vm_nodes.iter())
                .map(|n| before.0.node_free[n.0 as usize])
                .sum();
            assert_eq!(
                held * FRAME_BYTES < step,
                claims_first,
                "{mib} MiB: the recipe no longer takes the path it names"
            );

            let after = observe(&mut hv, vm);
            assert_eq!(after.0, before.0, "{mib} MiB");
            assert!(after.1 == before.1, "{mib} MiB: vm_regions changed");
            assert!(crate::audit(&hv).unwrap().is_healthy(), "{mib} MiB");

            assert_eq!(hv.shutdown(), 1);
            assert_eq!(
                (node_free(&hv), hv.ept_allocs[&0].remaining()),
                boot,
                "{mib} MiB: shutdown did not restore the boot state"
            );
            assert_eq!(hv.occupancy().claimed(), 0);
        }
    }

    #[test]
    fn audit_flags_claims_that_disagree_with_their_vm() {
        use crate::audit::{audit, Violation};
        let mut hv = mini_siloz();
        let vm = hv.create_vm(VmSpec::new("a", 1, 96 << 20)).unwrap();
        assert!(audit(&hv).unwrap().is_healthy());
        // A claim its VM does not hold — what a refused `expand_vm` that had
        // claimed a node first used to leave behind.
        let held = hv.vm_nodes(vm).unwrap().to_vec();
        let spare = hv.socket_guest_nodes(0, false).next().unwrap();
        hv.cgroups
            .create_exclusive("a", held.iter().copied().chain([spare]), [])
            .unwrap();
        let stale = |n: &NodeId| Violation::StaleClaim { node: n.0 };
        assert_eq!(audit(&hv).unwrap().violations, vec![stale(&spare)]);
        // And the converse: held nodes that no control group claims.
        hv.cgroups.destroy("a");
        let unclaimed: Vec<Violation> = held.iter().map(stale).collect();
        assert_eq!(audit(&hv).unwrap().violations, unclaimed);
    }

    #[test]
    fn zero_table_matches_512_word_writes() {
        use dram::{DimmProfile, EccMode};
        use dram_addr::BankId;
        const LINE: usize = CACHE_LINE_BYTES as usize;

        let config = SilozConfig::mini();
        let decoder = SystemAddressDecoder::new(config.geometry, config.decoder).unwrap();
        let g = *decoder.geometry();
        let stripe = 16 * g.row_group_bytes();
        let row = decoder.decode(stripe).unwrap().row;
        let aggressors = [row - 1, row + 1];
        assert!(aggressors
            .iter()
            .all(|&r| g.subarray_of_row(r) == g.subarray_of_row(row)));
        // A payload in every even line of one row-group stripe (the odd
        // lines' rows stay absent), then the stripe's row hammered from
        // both sides in every bank of the socket, hard enough to flip cells.
        let seeded = || {
            let mut dram = DramSystemBuilder::new(g)
                .internal_map(config.internal_map)
                .profiles(vec![DimmProfile::evaluation_dimms().remove(0)])
                .ecc(EccMode::None)
                .trr(0, 0)
                .build();
            let mut tlb = DecodeTlb::new(decoder.clone());
            for line in (stripe..stripe + g.row_group_bytes()).step_by(2 * LINE) {
                let (m, bank) = tlb.decode_with_bank(line).unwrap();
                dram.write_row(bank, m.row, m.col, &[0xa5; LINE]);
            }
            for bank in (0..g.banks_per_socket()).map(BankId) {
                for _ in 0..60 {
                    for a in aggressors {
                        dram.activate_burst(bank, a, 2_000, 0);
                    }
                    dram.advance_ns(47 * 4_000);
                }
            }
            (dram, tlb)
        };
        let (mut fast, mut tlb) = seeded();
        let (mut slow, _) = seeded();

        // The table page whose lines hold the first cell flipped in the row.
        let flip = *(fast.flip_log().all().iter())
            .find(|f| f.media_row == row)
            .expect("hammering flips a cell");
        let lines_of = |table: u64| (table..table + TABLE_BYTES).step_by(LINE);
        let line_no = |byte: u32| byte / LINE as u32;
        let table = (stripe..stripe + g.row_group_bytes())
            .step_by(TABLE_BYTES as usize)
            .find(|&t| {
                lines_of(t).any(|l| {
                    let (m, bank) = tlb.decode_with_bank(l).unwrap();
                    (bank, m.row, line_no(m.col)) == (flip.bank, flip.media_row, line_no(flip.byte))
                })
            })
            .expect("the flipped row lies in the stripe");
        let written = fast.rows_written();

        let mut scratch = Vec::new();
        DramPhysMem {
            dram: &mut fast,
            tlb: &mut tlb,
            scratch: &mut scratch,
        }
        .zero_table(table);
        let mut words = DramPhysMem {
            dram: &mut slow,
            tlb: &mut tlb,
            scratch: &mut scratch,
        };
        for i in 0..TABLE_BYTES / 8 {
            words.write_u64(table + i * 8, 0);
        }

        // Without ECC a flipped cell reads back non-zero until overwritten:
        // the word writes reached it, so it lies in the table.
        let cell = slow.read_row(flip.bank, flip.media_row, flip.byte, 1).0;
        assert_eq!(cell, [0], "the flipped cell was zeroed with the table");
        assert_eq!(fast.rows_written(), slow.rows_written());
        assert_eq!(fast.rows_written(), written, "zeroing materialised a row");
        for l in lines_of(table) {
            let (m, bank) = tlb.decode_with_bank(l).unwrap();
            let (f, s) = (
                fast.read_row(bank, m.row, 0, g.row_bytes as u32),
                slow.read_row(bank, m.row, 0, g.row_bytes as u32),
            );
            assert!(f == s, "bytes of bank {} row {}", bank.0, m.row);
            assert_eq!(
                fast.active_flip_count(bank, m.row),
                slow.active_flip_count(bank, m.row),
                "bank {} row {}",
                bank.0,
                m.row
            );
        }
    }

    #[test]
    fn reused_table_pages_carry_no_stale_mappings() {
        // The GFP_EPT pool is LIFO: B's EPT is built from the table pages
        // A's held last — PT pages full of 4 KiB leaves.
        let mut hv = mini_siloz();
        let spec = VmSpec::new("a", 1, 4 << 20)
            .with_page_size(PageSize::Size4K)
            .with_region(MemoryRegionKind::Rom, 64 << 10);
        let a = hv.create_vm(spec).unwrap();
        let a_pages = hv.vm_ept_pages(a).unwrap().to_vec();
        let a_gpas: Vec<u64> = (hv.vm_regions(a).unwrap().iter())
            .flat_map(|r| r.backing.iter().map(|b| b.gpa))
            .collect();
        assert_eq!(a_pages.len(), 6, "root, PDPT, PD and three PTs");
        hv.destroy_vm(a).unwrap();

        let b = (hv.create_vm(VmSpec::new("b", 1, 2 << 20)))
            .expect("B's tables are built over A's recycled pages");
        let b_pages = hv.vm_ept_pages(b).unwrap();
        assert!(
            b_pages.iter().any(|p| a_pages.contains(p)),
            "no page reused"
        );
        let b_end = (hv.vm_regions(b).unwrap().iter())
            .map(|r| r.gpa + r.bytes)
            .max()
            .unwrap();
        for gpa in a_gpas.into_iter().filter(|&gpa| gpa >= b_end) {
            assert_eq!(
                hv.translate(b, gpa),
                Err(SilozError::Ept(EptError::NotMapped { gpa })),
                "GPA {gpa:#x}"
            );
        }
    }

    #[test]
    fn mmio_regions_are_not_mapped() {
        let mut hv = mini_siloz();
        let vm = hv
            .create_vm(VmSpec::new("a", 1, 64 << 20).with_region(MemoryRegionKind::Mmio, 4096))
            .unwrap();
        let regions = hv.vm_regions(vm).unwrap();
        let mmio_gpa = regions
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Mmio)
            .unwrap()
            .gpa;
        assert!(matches!(
            hv.translate(vm, mmio_gpa),
            Err(SilozError::Ept(EptError::NotMapped { .. }))
        ));
    }
}
