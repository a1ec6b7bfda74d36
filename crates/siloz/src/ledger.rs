//! The owner ledger: whose memory each 64-byte DRAM line is, and so whose
//! memory each logged bit flip hit (§4.1, §7.1).
//!
//! The flip log speaks media coordinates (bank, media row, byte). The
//! decoder's exact inverse turns a flip's line back into a host physical
//! address, and the ledger names the holder of that address's frame:
//!
//! 1. a frame of one of `h`'s EPT table pages is `Ept(h)`;
//! 2. a frame of one of `h`'s backing blocks, any region, is `Vm(h)`;
//! 3. under Siloz, every other frame of a subarray group `h`'s domain
//!    claims is `Vm(h)` too, whether or not it backs guest memory: the
//!    group belongs to the domain (§4.1). The baseline claims no groups;
//! 4. a frame of a socket's GFP_EPT pool that no live EPT holds is
//!    `Host`;
//! 5. otherwise the allocator that covers the frame decides: `Offlined`
//!    (guard rows, §5.4; inter-subarray repair hazards, §6), `Free`, or
//!    `Host` for a frame it handed out to no VM.
//!
//! A query snapshots the live VMs once, in handle order, into frame runs
//! sorted by address; each line is then one encode and two binary
//! searches.

use crate::hypervisor::{Hypervisor, HypervisorKind};
use crate::vm::VmHandle;
use crate::SilozError;
use dram::flip::BitFlip;
use dram_addr::{BankId, CACHE_LINE_BYTES};
use numa::{frame_of_hpa, FrameState};
use std::fmt;
use std::ops::Range;

/// Whose memory a DRAM line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A VM's memory: its backing and, under Siloz, every line of the
    /// subarray groups its domain claims.
    Vm(VmHandle),
    /// One of a VM's EPT table pages.
    Ept(VmHandle),
    /// Host memory that is no VM's: unused GFP_EPT pool pages and frames
    /// the host allocated for itself.
    Host,
    /// A free frame.
    Free,
    /// A frame taken out of circulation: guard rows and repair hazards.
    Offlined,
}

/// The flips of one window of the flip log, in log order, each with the
/// owner of the line it hit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlipsByOwner {
    flips: Vec<(BitFlip, Owner)>,
}

impl FlipsByOwner {
    /// Every flip with its owner, in log order.
    #[must_use]
    pub fn flips(&self) -> &[(BitFlip, Owner)] {
        &self.flips
    }

    /// Number of flips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flips.len()
    }

    /// Whether the window holds no flip.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// Flips that hit `owner`'s lines.
    #[must_use]
    pub fn count(&self, owner: Owner) -> usize {
        self.flips.iter().filter(|(_, o)| *o == owner).count()
    }

    /// Flips that hit anything but `vm`'s own memory, in log order: the
    /// escapes of a campaign `vm` ran.
    pub fn outside(&self, vm: VmHandle) -> impl Iterator<Item = &(BitFlip, Owner)> {
        self.flips.iter().filter(move |(_, o)| *o != Owner::Vm(vm))
    }

    /// [`Self::outside`] counted by class of owner.
    #[must_use]
    pub fn escapes(&self, vm: VmHandle) -> Escapes {
        let mut e = Escapes::default();
        for (_, owner) in self.outside(vm) {
            *match owner {
                Owner::Vm(_) => &mut e.other_vms,
                Owner::Ept(_) => &mut e.ept,
                Owner::Host => &mut e.host,
                Owner::Free => &mut e.free,
                Owner::Offlined => &mut e.offlined,
            } += 1;
        }
        e
    }
}

/// Flips outside one VM's memory, by class of owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Escapes {
    /// Lines of other VMs.
    pub other_vms: usize,
    /// Lines of EPT table pages, the VM's own included.
    pub ept: usize,
    /// Host lines.
    pub host: usize,
    /// Lines of free frames.
    pub free: usize,
    /// Lines of offlined frames.
    pub offlined: usize,
}

impl Escapes {
    /// All classes together.
    #[must_use]
    pub fn total(&self) -> usize {
        self.other_vms + self.ept + self.host + self.free + self.offlined
    }
}

impl fmt::Display for Escapes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "other VMs {}, EPT {}, host {}, free {}, offlined {}",
            self.other_vms, self.ept, self.host, self.free, self.offlined
        )
    }
}

/// Frame runs with their owner, sorted by start and disjoint.
type Runs = Vec<(Range<u64>, Owner)>;

/// The owner of `frame` among `runs`, if a run holds it.
fn find(runs: &Runs, frame: u64) -> Option<Owner> {
    let i = runs.partition_point(|(r, _)| r.start <= frame);
    let (r, owner) = runs.get(i.checked_sub(1)?)?;
    r.contains(&frame).then_some(*owner)
}

/// Sorts `runs` and checks they are disjoint.
fn sorted(mut runs: Runs) -> Runs {
    runs.sort_unstable_by_key(|(r, _)| r.start);
    debug_assert!(
        runs.windows(2).all(|w| w[0].0.end <= w[1].0.start),
        "overlapping frame runs"
    );
    runs
}

/// One query's snapshot of who holds which frame.
struct Ledger<'a> {
    hv: &'a Hypervisor,
    /// EPT table pages and backing blocks of every live VM.
    held: Runs,
    /// Siloz: the frames of every claimed subarray group.
    claimed: Runs,
}

impl<'a> Ledger<'a> {
    fn new(hv: &'a Hypervisor) -> Result<Self, SilozError> {
        let (mut held, mut claimed) = (Runs::new(), Runs::new());
        for h in hv.vm_handles() {
            for &page in hv.vm_ept_pages(h)? {
                let frame = frame_of_hpa(page);
                held.push((frame..frame + 1, Owner::Ept(h)));
            }
            for block in hv.vm_regions(h)?.iter().flat_map(|r| &r.backing) {
                let frames = block.frame..block.frame + (1u64 << block.order);
                match held.last_mut() {
                    Some((run, Owner::Vm(o))) if *o == h && run.end == frames.start => {
                        run.end = frames.end;
                    }
                    _ => held.push((frames, Owner::Vm(h))),
                }
            }
            if hv.kind() == HypervisorKind::Siloz {
                let groups = hv.vm_groups(h)?;
                let infos = groups.iter().filter_map(|&g| hv.groups().group(g));
                claimed.extend(
                    infos.flat_map(|info| info.frames.iter().map(|r| (r.clone(), Owner::Vm(h)))),
                );
            }
        }
        Ok(Self {
            hv,
            held: sorted(held),
            claimed: sorted(claimed),
        })
    }

    fn owner_of(&self, bank: BankId, media_row: u32, byte: u32) -> Result<Owner, SilozError> {
        let decoder = self.hv.decoder();
        let mut line = bank.to_media(decoder.geometry());
        line.row = media_row;
        line.col = byte - byte % CACHE_LINE_BYTES as u32;
        let frame = frame_of_hpa(decoder.encode(&line)?);
        if let Some(owner) = find(&self.held, frame).or_else(|| find(&self.claimed, frame)) {
            return Ok(owner);
        }
        let mut pools = self.hv.ept_plan().into_iter().flat_map(|p| &p.sockets);
        if pools.any(|sp| sp.ept_frames.contains(&frame)) {
            return Ok(Owner::Host);
        }
        Ok(match self.hv.topology().frame_state(frame) {
            Some(FrameState::Free) => Owner::Free,
            Some(FrameState::Offlined) => Owner::Offlined,
            Some(FrameState::Allocated) | None => Owner::Host,
        })
    }
}

impl Hypervisor {
    /// Whose memory the 64-byte line holding `byte` of `media_row` in
    /// `bank` is — the rules are the module docs'. Fails for coordinates
    /// outside the geometry.
    pub fn owner_of(&self, bank: BankId, media_row: u32, byte: u32) -> Result<Owner, SilozError> {
        Ledger::new(self)?.owner_of(bank, media_row, byte)
    }

    /// The flips recorded at or after flip-log index `since`, each with the
    /// owner of the line it hit. A campaign passes the log's length before
    /// it started, so earlier campaigns' flips stay out of its window.
    pub fn flips_by_owner(&self, since: usize) -> Result<FlipsByOwner, SilozError> {
        let window = self.dram().flip_log().all().get(since..).unwrap_or(&[]);
        if window.is_empty() {
            return Ok(FlipsByOwner::default());
        }
        let ledger = Ledger::new(self)?;
        let flips = window
            .iter()
            .map(|f| Ok((*f, ledger.owner_of(f.bank, f.media_row, f.byte)?)))
            .collect::<Result<_, SilozError>>()?;
        Ok(FlipsByOwner { flips })
    }
}
