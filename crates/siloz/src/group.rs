//! Boot-time subarray group computation (§4, §5.3).
//!
//! During early boot, Siloz calculates which physical pages map to which
//! subarray groups using its port of the platform's address-translation
//! drivers. A *subarray group* is at least one subarray from every bank of a
//! socket (§4.1): with the evaluation geometry, rows `[s*1024, (s+1)*1024)`
//! of all 192 banks, which the Skylake mapping makes a contiguous 1.5 GiB
//! physical range. Because the physical-to-media mapping is fixed by BIOS
//! settings, the computed ranges can be cached across boots (§5.3).

use crate::SilozError;
use dram_addr::SystemAddressDecoder;
use numa::{frame_of_hpa, hpa_of_frame, is_frame_aligned, FRAME_BYTES};
use std::ops::Range;

/// Page frame size used throughout (4 KiB).
/// Identifier of a subarray group, dense across the machine:
/// `socket * groups_per_socket + index_within_socket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// One subarray group's extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// Group id.
    pub id: GroupId,
    /// Socket whose banks the group spans.
    pub socket: u16,
    /// Media row range occupied in *every* bank of the socket.
    pub rows: Range<u32>,
    /// Physical page frames backing the group (merged, ascending).
    pub frames: Vec<Range<u64>>,
}

impl GroupInfo {
    /// Total bytes in the group.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.frames
            .iter()
            .map(|r| (r.end - r.start) * FRAME_BYTES)
            .sum()
    }

    /// Whether `frame` belongs to this group.
    #[must_use]
    pub fn contains_frame(&self, frame: u64) -> bool {
        self.frames
            .iter()
            .any(|r| frame >= r.start && frame < r.end)
    }
}

/// The machine-wide map from physical pages to subarray groups.
#[derive(Debug, Clone)]
pub struct SubarrayGroupMap {
    groups: Vec<GroupInfo>,
    groups_per_socket: u32,
    presumed_rows: u32,
    decoder: SystemAddressDecoder,
}

impl SubarrayGroupMap {
    /// Computes the full map for `presumed_rows`-row subarrays (§5.3's boot
    /// parameter).
    ///
    /// Fails if the presumed size does not align with the decoder's block
    /// structure (a block of `n` row groups must not straddle group
    /// boundaries, or pages would split across groups and 2 MiB isolation
    /// would be impossible, §4.2).
    pub fn compute(decoder: &SystemAddressDecoder, presumed_rows: u32) -> Result<Self, SilozError> {
        let g = decoder.geometry();
        if presumed_rows == 0 || presumed_rows > g.rows_per_bank {
            return Err(SilozError::BadConfig(format!(
                "presumed subarray rows {presumed_rows} out of range"
            )));
        }
        let n = decoder.config().row_groups_per_block;
        if !presumed_rows.is_multiple_of(n) {
            return Err(SilozError::BadConfig(format!(
                "presumed subarray rows {presumed_rows} not a multiple of the \
                 {n}-row-group mapping block; pages would straddle groups"
            )));
        }
        if !g.rows_per_bank.is_multiple_of(presumed_rows) {
            return Err(SilozError::BadConfig(format!(
                "rows per bank {} not divisible by presumed subarray rows {presumed_rows}",
                g.rows_per_bank
            )));
        }
        let groups_per_socket = g.rows_per_bank / presumed_rows;
        // A mapping block's `n` row groups are physically contiguous, and the
        // decoder keeps a block inside one super-region; a group holds whole
        // blocks. So one decode per block, widened to the block, yields the
        // frames a decode per row would.
        let block_bytes = u64::from(n) * g.row_group_bytes();
        let mut groups = Vec::with_capacity((g.sockets as u32 * groups_per_socket) as usize);
        for socket in 0..g.sockets {
            for s in 0..groups_per_socket {
                let rows = s * presumed_rows..(s + 1) * presumed_rows;
                let mut frames: Vec<Range<u64>> = Vec::new();
                for row in rows.clone().step_by(n as usize) {
                    let start = decoder.phys_range_of_row_group(socket, row)?.start;
                    debug_assert!(is_frame_aligned(start));
                    let fr = frame_of_hpa(start)..frame_of_hpa(start + block_bytes);
                    match frames.last_mut() {
                        Some(last) if last.end == fr.start => last.end = fr.end,
                        _ => frames.push(fr),
                    }
                }
                frames.sort_by_key(|r| r.start);
                // Merge again after sorting (rows are not phys-ascending
                // across A/B blocks).
                let mut merged: Vec<Range<u64>> = Vec::new();
                for fr in frames {
                    match merged.last_mut() {
                        Some(last) if last.end == fr.start => last.end = fr.end,
                        _ => merged.push(fr),
                    }
                }
                groups.push(GroupInfo {
                    id: GroupId(socket as u32 * groups_per_socket + s),
                    socket,
                    rows,
                    frames: merged,
                });
            }
        }
        Ok(Self {
            groups,
            groups_per_socket,
            presumed_rows,
            decoder: decoder.clone(),
        })
    }

    /// All groups, ascending by id.
    #[must_use]
    pub fn groups(&self) -> &[GroupInfo] {
        &self.groups
    }

    /// Looks up one group.
    #[must_use]
    pub fn group(&self, id: GroupId) -> Option<&GroupInfo> {
        self.groups.get(id.0 as usize)
    }

    /// Groups per socket.
    #[must_use]
    pub fn groups_per_socket(&self) -> u32 {
        self.groups_per_socket
    }

    /// Groups on one socket, ascending.
    pub fn groups_on_socket(&self, socket: u16) -> impl Iterator<Item = &GroupInfo> {
        self.groups.iter().filter(move |g| g.socket == socket)
    }

    /// The group a physical address belongs to.
    pub fn group_of_phys(&self, phys: u64) -> Result<GroupId, SilozError> {
        let (socket, row) = self.decoder.row_group_of(phys)?;
        Ok(GroupId(
            socket as u32 * self.groups_per_socket + row / self.presumed_rows,
        ))
    }

    /// The group a page frame belongs to.
    pub fn group_of_frame(&self, frame: u64) -> Result<GroupId, SilozError> {
        self.group_of_phys(hpa_of_frame(frame))
    }

    /// The 3 GiB *set* of consecutive groups a group belongs to (§4.2):
    /// 1 GiB pages are only isolated within whole sets.
    #[must_use]
    pub fn gig_set_of(&self, id: GroupId) -> u32 {
        let set_bytes: u64 = 3 << 30;
        let group_bytes = self.presumed_rows as u64 * self.decoder.geometry().row_group_bytes();
        let groups_per_set = (set_bytes / group_bytes).max(1) as u32;
        id.0 / groups_per_set
    }

    /// The decoder used for the computation.
    #[must_use]
    pub fn decoder(&self) -> &SystemAddressDecoder {
        &self.decoder
    }

    /// Builds a fleet-facing occupancy report by probing each group.
    ///
    /// `probe` receives every group in id order and returns `None` for
    /// groups outside the caller's scope (host-reserved, EPT guard) or
    /// `Some((owner, free_frames))` for guest-visible groups, where `owner`
    /// is the claiming control group (if any) and `free_frames` the group's
    /// node-level free count. The map contributes each group's total frame
    /// capacity; the report aggregates claim/fragmentation statistics.
    pub fn occupancy<F>(&self, mut probe: F) -> OccupancyReport
    where
        F: FnMut(&GroupInfo) -> Option<(Option<String>, u64)>,
    {
        let mut out = Vec::new();
        for info in &self.groups {
            if let Some((owner, free_frames)) = probe(info) {
                out.push(GroupOccupancy {
                    group: info.id,
                    socket: info.socket,
                    owner,
                    free_frames,
                    total_frames: info.bytes() / FRAME_BYTES,
                });
            }
        }
        OccupancyReport { groups: out }
    }
}

/// Occupancy of one guest-visible subarray group (one logical NUMA node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupOccupancy {
    /// The group.
    pub group: GroupId,
    /// Socket the group lives on.
    pub socket: u16,
    /// Name of the control group holding the node's exclusive claim, if any.
    pub owner: Option<String>,
    /// Free frames on the group's node right now.
    pub free_frames: u64,
    /// Total frames the group spans (offlined pages included).
    pub total_frames: u64,
}

impl GroupOccupancy {
    /// Whether a VM currently holds this group.
    #[must_use]
    pub fn is_claimed(&self) -> bool {
        self.owner.is_some()
    }

    /// Whether the group is unclaimed with its full capacity free (no
    /// offlined pages, no leaked allocations).
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        self.owner.is_none() && self.free_frames == self.total_frames
    }
}

/// Fleet-wide occupancy and fragmentation statistics over the guest group
/// pool — the introspection admission-control policies steer by (§8's group
/// exhaustion discussion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyReport {
    /// Per-group occupancy in group-id order.
    pub groups: Vec<GroupOccupancy>,
}

impl OccupancyReport {
    /// Number of groups covered by the report.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.groups.len() as u64
    }

    /// Groups currently claimed by a VM.
    #[must_use]
    pub fn claimed(&self) -> u64 {
        self.groups.iter().filter(|g| g.is_claimed()).count() as u64
    }

    /// Unclaimed groups whose full capacity is free.
    #[must_use]
    pub fn pristine(&self) -> u64 {
        self.groups.iter().filter(|g| g.is_pristine()).count() as u64
    }

    /// Unclaimed groups with *less* than their full capacity free
    /// (degraded by offlining or leaked pages) — the leftovers best-fit
    /// placement tries to burn first.
    #[must_use]
    pub fn partial(&self) -> u64 {
        self.groups
            .iter()
            .filter(|g| !g.is_claimed() && g.free_frames < g.total_frames)
            .count() as u64
    }

    /// Total free bytes across unclaimed groups (claimable capacity).
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.unclaimed_free_frames() * FRAME_BYTES
    }

    /// Free frames per socket across unclaimed groups, socket-ascending.
    #[must_use]
    pub fn socket_free_frames(&self) -> Vec<(u16, u64)> {
        let mut out: Vec<(u16, u64)> = Vec::new();
        for g in &self.groups {
            if g.is_claimed() {
                continue;
            }
            match out.iter_mut().find(|(s, _)| *s == g.socket) {
                Some((_, free)) => *free += g.free_frames,
                None => out.push((g.socket, g.free_frames)),
            }
        }
        out.sort_unstable_by_key(|&(s, _)| s);
        out
    }

    /// Admission-relevant external fragmentation, in whole percent.
    ///
    /// VMs are placed on a single socket when possible, so the claimable
    /// capacity that matters for a large request is the *best single
    /// socket's*, not the machine total. This returns
    /// `100 * (1 - best_socket_free / total_free)`, i.e. the share of free
    /// capacity stranded outside the best socket — `0` when everything
    /// claimable sits on one socket (or nothing is free at all).
    #[must_use]
    pub fn fragmentation_pct(&self) -> u64 {
        let total = self.unclaimed_free_frames();
        if total == 0 {
            return 0;
        }
        let best = self
            .socket_free_frames()
            .into_iter()
            .map(|(_, free)| free)
            .max()
            .unwrap_or(0);
        (total - best) * 100 / total
    }

    fn unclaimed_free_frames(&self) -> u64 {
        self.groups
            .iter()
            .filter(|g| !g.is_claimed())
            .map(|g| g.free_frames)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_addr::{mini_decoder, skylake_decoder};

    #[test]
    fn evaluation_groups_are_contiguous_1_5_gib() {
        let map = SubarrayGroupMap::compute(&skylake_decoder(), 1024).unwrap();
        assert_eq!(map.groups().len(), 256, "128 groups x 2 sockets");
        for g in map.groups() {
            assert_eq!(g.bytes(), 3 << 29, "1.5 GiB per group");
            assert_eq!(
                g.frames.len(),
                1,
                "the Skylake mapping keeps each group physically contiguous \
                 (exploited for EPT minimization, §5.4)"
            );
        }
        // Group 0 on socket 0 starts at phys 0.
        assert_eq!(map.groups()[0].frames[0].start, 0);
    }

    #[test]
    fn group_of_phys_is_consistent_with_extents() {
        let map = SubarrayGroupMap::compute(&skylake_decoder(), 1024).unwrap();
        for g in map.groups().iter().step_by(37) {
            for r in &g.frames {
                for frame in [r.start, (r.start + r.end) / 2, r.end - 1] {
                    assert_eq!(map.group_of_frame(frame).unwrap(), g.id);
                    assert!(g.contains_frame(frame));
                }
            }
        }
    }

    #[test]
    fn sensitivity_sizes_scale_group_counts() {
        let dec = skylake_decoder();
        let m512 = SubarrayGroupMap::compute(&dec, 512).unwrap();
        let m2048 = SubarrayGroupMap::compute(&dec, 2048).unwrap();
        assert_eq!(m512.groups().len(), 512);
        assert_eq!(m2048.groups().len(), 128);
        assert_eq!(m512.groups()[0].bytes(), 3 << 28);
        assert_eq!(m2048.groups()[0].bytes(), 3 << 30);
    }

    /// The frames of every group as one decode per row derives them.
    fn per_row_frames(dec: &SystemAddressDecoder, presumed_rows: u32) -> Vec<Vec<Range<u64>>> {
        let g = dec.geometry();
        let mut out = Vec::new();
        for socket in 0..g.sockets {
            for s in 0..g.rows_per_bank / presumed_rows {
                let mut frames: Vec<Range<u64>> = (s * presumed_rows..(s + 1) * presumed_rows)
                    .map(|row| {
                        let phys = dec.phys_range_of_row_group(socket, row).unwrap();
                        frame_of_hpa(phys.start)..frame_of_hpa(phys.end)
                    })
                    .collect();
                frames.sort_by_key(|r| r.start);
                let mut merged: Vec<Range<u64>> = Vec::new();
                for fr in frames {
                    match merged.last_mut() {
                        Some(last) if last.end == fr.start => last.end = fr.end,
                        _ => merged.push(fr),
                    }
                }
                out.push(merged);
            }
        }
        out
    }

    #[test]
    fn block_decode_matches_the_per_row_derivation() {
        let custom = SystemAddressDecoder::new(
            dram_addr::mini_geometry(),
            dram_addr::decoder::DecoderConfig {
                row_groups_per_block: 8,
                jump_bytes: 32 << 20,
                ..dram_addr::decoder::DecoderConfig::default()
            },
        )
        .unwrap();
        for (dec, presumed_rows) in [
            (skylake_decoder(), 1024),
            (skylake_decoder(), 512),
            (skylake_decoder(), 2048),
            (mini_decoder(), 256),
            (custom.clone(), 256),
            (custom, 64),
        ] {
            let map = SubarrayGroupMap::compute(&dec, presumed_rows).unwrap();
            let frames: Vec<Vec<Range<u64>>> =
                map.groups().iter().map(|g| g.frames.clone()).collect();
            assert_eq!(
                frames,
                per_row_frames(&dec, presumed_rows),
                "{:?} at {presumed_rows} rows",
                dec.config()
            );
        }
    }

    #[test]
    fn misaligned_presumed_size_rejected() {
        let dec = skylake_decoder();
        // Not a multiple of the 16-row-group block.
        assert!(matches!(
            SubarrayGroupMap::compute(&dec, 1000),
            Err(SilozError::BadConfig(_))
        ));
        assert!(SubarrayGroupMap::compute(&dec, 0).is_err());
        assert!(SubarrayGroupMap::compute(&dec, 1 << 30).is_err());
    }

    #[test]
    fn rows_partition_exactly() {
        let map = SubarrayGroupMap::compute(&mini_decoder(), 256).unwrap();
        let g = map.decoder().geometry();
        let mut covered = vec![false; g.rows_per_bank as usize];
        for info in map.groups_on_socket(0) {
            for r in info.rows.clone() {
                assert!(!covered[r as usize], "row {r} in two groups");
                covered[r as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every row is in some group");
    }

    #[test]
    fn frames_partition_exactly() {
        let map = SubarrayGroupMap::compute(&mini_decoder(), 256).unwrap();
        let total: u64 = map.groups().iter().map(GroupInfo::bytes).sum();
        assert_eq!(total, map.decoder().capacity());
    }

    #[test]
    fn gig_sets_group_consecutive_groups() {
        let map = SubarrayGroupMap::compute(&skylake_decoder(), 1024).unwrap();
        // 1.5 GiB groups: 2 per 3 GiB set.
        assert_eq!(map.gig_set_of(GroupId(0)), 0);
        assert_eq!(map.gig_set_of(GroupId(1)), 0);
        assert_eq!(map.gig_set_of(GroupId(2)), 1);
        let m2048 = SubarrayGroupMap::compute(&skylake_decoder(), 2048).unwrap();
        // 3 GiB groups: one per set.
        assert_eq!(m2048.gig_set_of(GroupId(0)), 0);
        assert_eq!(m2048.gig_set_of(GroupId(1)), 1);
    }

    #[test]
    fn occupancy_report_aggregates_claims_and_fragmentation() {
        let map = SubarrayGroupMap::compute(&skylake_decoder(), 1024).unwrap();
        // Pretend: group 0 claimed, group 1 degraded, group 2 pristine on
        // socket 0; one pristine group on socket 1; everything else skipped.
        let report = map.occupancy(|info| match info.id.0 {
            0 => Some((Some("vm0".to_string()), 1000)),
            1 => Some((None, 100)),
            2 => Some((None, info.bytes() / 4096)),
            n if info.socket == 1 && n == map.groups_per_socket() => {
                Some((None, info.bytes() / 4096))
            }
            _ => None,
        });
        assert_eq!(report.total(), 4);
        assert_eq!(report.claimed(), 1);
        assert_eq!(report.pristine(), 2);
        assert_eq!(report.partial(), 1);
        let per_socket = report.socket_free_frames();
        assert_eq!(per_socket.len(), 2);
        assert!(per_socket[0].1 > per_socket[1].1);
        // Socket 1's pristine group strands a minority of free capacity.
        let pct = report.fragmentation_pct();
        assert!(pct > 0 && pct < 50, "pct = {pct}");
        // Claimed-only pool: no free capacity → 0% by convention.
        let empty = map.occupancy(|info| (info.id.0 == 0).then(|| (Some("vm0".to_string()), 0)));
        assert_eq!(empty.fragmentation_pct(), 0);
        assert_eq!(empty.free_bytes(), 0);
    }

    #[test]
    fn every_2m_page_is_within_one_group() {
        // The core §4.2 guarantee, checked end-to-end against the map.
        let map = SubarrayGroupMap::compute(&skylake_decoder(), 1024).unwrap();
        let two_m = 2u64 << 20;
        for page in (0..(6u64 << 30) / two_m).step_by(5) {
            let start = page * two_m;
            let a = map.group_of_phys(start).unwrap();
            let b = map.group_of_phys(start + two_m - 1).unwrap();
            assert_eq!(a, b, "2 MiB page at {start:#x} straddles groups");
        }
    }
}
