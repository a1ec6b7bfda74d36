//! The cluster-level placement scheduler.
//!
//! Placement is two-level, mirroring a Kata-style cloud stack: this
//! scheduler picks the *host* for each sandbox from its capacity
//! estimates, and the chosen host's own [`numa::PlacementStrategy`] then
//! picks the subarray groups. Estimates are kept exact — hosts admit
//! whole groups exclusively (one VM per group, §4.1), so `ceil(mem /
//! group bytes)` is the precise claim size and the estimate must equal
//! the hypervisor's occupancy at every sync barrier; any drift is counted
//! as a cluster violation.
//!
//! # Sublinear host selection
//!
//! The scheduler answers every pick from policy-specific indexes instead
//! of scanning all hosts:
//!
//! * **Free-group bucket index** — one bucket per possible `free_groups`
//!   value (0..=max total groups per host), each bucket a lazy-deletion
//!   min-heap of host ids. A Spread pick walks buckets from the
//!   fullest down, a BinPack pick from `need` up, and the heap top of the
//!   first non-empty bucket *is* the oracle's answer: same free count,
//!   lowest host id — the exact `(free_groups, Reverse(i))` /
//!   `(free_groups, i)` tie-breaks of the linear scan. Picks cost
//!   O(buckets ≤ groups-per-host + stale pops); place/release cost one
//!   amortized O(1) heap push (stale entries are invalidated by bumping a
//!   per-host stamp, and heaps compact when stale entries outnumber live
//!   ones).
//! * **Per-affinity-class occupancy index** (SocketAffine only) — for
//!   each class, a (live count × free groups) grid of the same lazy
//!   heaps. Scanning count levels from the highest down, and free buckets
//!   from the fullest down within each level, reproduces the oracle's
//!   `(count, free_groups, Reverse(i))` ordering exactly; when no host
//!   already runs the class (or none that does fits), every candidate has
//!   count 0 and the global spread walk is literally the oracle's
//!   fallback ordering.
//!
//! The pre-index linear scan is retained as an **oracle** behind a
//! constructor flag ([`ClusterScheduler::new_oracle`]); the equivalence
//! battery and the lockstep proptest drive both implementations through
//! identical operation sequences and assert bit-identical picks,
//! counters, and audits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pluggable host-selection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPolicy {
    /// Most free groups wins (ties: lowest host id): spreads load so an
    /// aggressor's blast radius — and any single host's churn — stays
    /// minimal.
    Spread,
    /// Fewest free groups that still fit wins (ties: lowest host id):
    /// packs sandboxes tightly, maximizing whole-host headroom.
    BinPack,
    /// Prefer the host already running the most sandboxes of the same
    /// affinity class, then fall back to spread. The cluster-level
    /// analogue of the fleet's socket-affine strategy: related sandboxes
    /// co-locate on one host, where the host-level strategy keeps them
    /// socket-local.
    SocketAffine,
}

impl ClusterPolicy {
    /// All policies, in presentation order.
    pub const ALL: [ClusterPolicy; 3] = [
        ClusterPolicy::Spread,
        ClusterPolicy::BinPack,
        ClusterPolicy::SocketAffine,
    ];

    /// Stable snake_case name (report/JSON key).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ClusterPolicy::Spread => "spread",
            ClusterPolicy::BinPack => "bin_pack",
            ClusterPolicy::SocketAffine => "socket_affine",
        }
    }
}

/// One host's capacity estimate.
#[derive(Debug, Clone, Copy)]
struct HostSlot {
    /// Estimated free (unclaimed) guest groups.
    free_groups: i64,
    /// Total guest groups on the host.
    total_groups: i64,
    /// Sandboxes currently scheduled here.
    live: u32,
}

/// One estimate-vs-truth inconsistency found by [`ClusterScheduler::audit`].
///
/// Typed rather than pre-formatted so the hot scheduler never allocates
/// message strings; the engine renders these into its violation log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditIssue {
    /// The scheduler's free-group estimate disagrees with the hypervisor.
    FreeDrift {
        /// Audited host.
        host: usize,
        /// Scheduler-side estimate.
        estimated: i64,
        /// Hypervisor-reported truth.
        actual: i64,
    },
    /// The scheduler's live-sandbox count disagrees with the host.
    LiveDrift {
        /// Audited host.
        host: usize,
        /// Scheduler-side count.
        tracked: u32,
        /// Host-reported truth.
        actual: u32,
    },
    /// The estimate itself is incoherent (negative or above capacity).
    OverCommit {
        /// Audited host.
        host: usize,
        /// Estimated free groups.
        free: i64,
        /// Total groups on the host.
        total: i64,
    },
}

/// A lazy-deletion min-heap of `(host, stamp)` entries, lowest host id
/// on top. An entry is live iff its stamp equals the host's current
/// stamp; every host mutation bumps the stamp, logically deleting all of
/// the host's old entries everywhere at once. Stale entries are popped
/// when they surface at the top and swept wholesale when they outnumber
/// live entries. `(host, stamp)` keys are unique, so which host a pick
/// returns depends only on the key set, never on the heap's layout.
#[derive(Debug, Default, Clone)]
struct LazyHeap {
    entries: BinaryHeap<Reverse<(u32, u64)>>,
    /// Exact count of live entries (maintained by the index, not by lazy
    /// pops — a stale entry's live-count was already transferred to the
    /// host's new bucket when its stamp was bumped).
    live: u32,
}

impl LazyHeap {
    /// Inserts a live entry, dropping every stale one first if they
    /// dominate.
    fn push(&mut self, host: u32, stamp: u64, stamps: &[u64]) {
        if self.entries.len() >= 2 * (self.live as usize) + 8 {
            self.entries
                .retain(|&Reverse((h, s))| stamps[h as usize] == s);
        }
        self.entries.push(Reverse((host, stamp)));
        self.live += 1;
    }

    /// Lowest live host id in this heap, skipping `exclude`. Stale
    /// entries surfacing at the top are discarded; a live excluded entry
    /// is set aside and restored before returning. Every entry looked at
    /// adds one to `probes`.
    fn pick_min(
        &mut self,
        stamps: &[u64],
        exclude: Option<usize>,
        probes: &mut u64,
    ) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mut stash = None;
        let found = loop {
            let Some(&Reverse((h, s))) = self.entries.peek() else {
                break None;
            };
            *probes += 1;
            if stamps[h as usize] != s {
                self.entries.pop();
            } else if Some(h as usize) == exclude {
                stash = self.entries.pop();
            } else {
                break Some(h as usize);
            }
        };
        if let Some(entry) = stash {
            self.entries.push(entry);
        }
        found
    }
}

/// SocketAffine's per-class sub-index: `levels[k]` holds the hosts whose
/// live count of the class is `k + 1`, bucketed by current free groups.
#[derive(Debug, Default)]
struct ClassCells {
    levels: Vec<Vec<LazyHeap>>,
    /// Live hosts per count level (skips empty levels during picks).
    level_live: Vec<u32>,
}

impl ClassCells {
    fn ensure_level(&mut self, k: u32, buckets: usize) {
        while self.levels.len() < k as usize {
            let mut row = Vec::new();
            row.resize_with(buckets, LazyHeap::default);
            self.levels.push(row);
            self.level_live.push(0);
        }
    }
}

/// Exact group-level capacity accounting plus the placement policies.
#[derive(Debug)]
pub struct ClusterScheduler {
    policy: ClusterPolicy,
    /// Bytes per guest subarray group (uniform across the fleet's
    /// homogeneous hosts; the smallest group is used, conservatively).
    group_bytes: u64,
    slots: Vec<HostSlot>,
    /// Per-host live count of each affinity class, as a sorted
    /// `(class, count)` list (socket-affine's preference signal).
    affinity: Vec<Vec<(u32, u32)>>,
    /// `false` selects the retained linear-scan oracle.
    indexed: bool,
    /// Per-host invalidation stamps for the lazy heaps.
    stamps: Vec<u64>,
    /// Free-group bucket index: `free_buckets[f]` holds the hosts with
    /// exactly `f` free groups.
    free_buckets: Vec<LazyHeap>,
    /// Per-affinity-class occupancy index, sorted by class id
    /// (SocketAffine only).
    class_idx: Vec<(u32, ClassCells)>,
    /// Largest `total_groups` across hosts (bucket-index bound).
    max_total: i64,
    /// Successful placements (initial + migration re-admissions).
    pub placements: u64,
    /// Placement attempts that found no host with capacity.
    pub placement_rejects: u64,
    /// Placements that landed on a host already running the sandbox's
    /// affinity class (only the socket-affine policy creates these on
    /// purpose).
    pub affinity_hits: u64,
    /// Index maintenance operations: one per heap entry pushed when a
    /// host moves between buckets/cells. The telemetry window into index
    /// churn; stays 0 in oracle mode.
    pub bucket_moves: u64,
    /// Candidates examined by picks: heap entries looked at (indexed) or
    /// host slots scanned (oracle). With `bucket_moves`, the scheduler's
    /// whole per-operation work — what the sublinearity test counts.
    /// Not part of the telemetry export.
    pub pick_probes: u64,
}

/// Sorted-list lookup of a class's live count on one host.
fn aff_count(list: &[(u32, u32)], class: u32) -> u32 {
    match list.binary_search_by_key(&class, |e| e.0) {
        Ok(i) => list[i].1,
        Err(_) => 0,
    }
}

impl ClusterScheduler {
    /// A scheduler over hosts with the given per-host free-group counts,
    /// answering picks from the sublinear indexes.
    #[must_use]
    pub fn new(policy: ClusterPolicy, group_bytes: u64, host_free_groups: &[i64]) -> Self {
        Self::build(policy, group_bytes, host_free_groups, true)
    }

    /// The retained pre-index oracle: identical semantics, O(hosts)
    /// linear-scan picks. Kept as the reference of the equivalence battery
    /// and of the sublinearity test below.
    #[must_use]
    pub fn new_oracle(policy: ClusterPolicy, group_bytes: u64, host_free_groups: &[i64]) -> Self {
        Self::build(policy, group_bytes, host_free_groups, false)
    }

    fn build(
        policy: ClusterPolicy,
        group_bytes: u64,
        host_free_groups: &[i64],
        indexed: bool,
    ) -> Self {
        let max_total = host_free_groups.iter().copied().max().unwrap_or(0).max(0);
        let mut s = Self {
            policy,
            group_bytes,
            slots: host_free_groups
                .iter()
                .map(|&free| HostSlot {
                    free_groups: free,
                    total_groups: free,
                    live: 0,
                })
                .collect(),
            affinity: host_free_groups.iter().map(|_| Vec::new()).collect(),
            indexed,
            stamps: Vec::new(),
            free_buckets: Vec::new(),
            class_idx: Vec::new(),
            max_total,
            placements: 0,
            placement_rejects: 0,
            affinity_hits: 0,
            bucket_moves: 0,
            pick_probes: 0,
        };
        if indexed {
            s.stamps.resize(s.slots.len(), 0);
            s.free_buckets
                .resize_with(max_total as usize + 1, LazyHeap::default);
            for (i, slot) in s.slots.iter().enumerate() {
                let b = bucket_of(slot.free_groups, max_total);
                s.free_buckets[b].push(i as u32, 0, &s.stamps);
            }
        }
        s
    }

    /// Whether picks come from the indexes (`false`: linear-scan oracle).
    #[must_use]
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Hosts under management.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.slots.len()
    }

    /// Whole groups a request claims: hosts admit groups exclusively, so
    /// this is exact, not an estimate.
    #[must_use]
    pub fn groups_needed(&self, mem_bytes: u64) -> i64 {
        mem_bytes.div_ceil(self.group_bytes.max(1)) as i64
    }

    /// Estimated free groups on `host`.
    #[must_use]
    pub fn est_free_groups(&self, host: usize) -> i64 {
        self.slots[host].free_groups
    }

    /// Sandboxes currently scheduled on `host`.
    #[must_use]
    pub fn est_live(&self, host: usize) -> u32 {
        self.slots[host].live
    }

    /// Whether any host could satisfy a `need`-group request right now.
    /// Exactly `place(..).is_some()` would-be semantics (with no
    /// exclusion), but read-only: O(buckets) indexed, O(hosts) oracle.
    #[must_use]
    pub fn can_fit(&self, need: i64) -> bool {
        if !self.indexed {
            return self.slots.iter().any(|s| s.free_groups >= need);
        }
        if need > self.max_total {
            return false;
        }
        let lo = bucket_of(need, self.max_total);
        self.free_buckets[lo..].iter().any(|b| b.live > 0)
    }

    /// Counts a placement reject without running a pick — the sharded
    /// pending queue's fast path, which must tally exactly what the
    /// failed `place` it replaces would have.
    pub fn count_reject(&mut self) {
        self.placement_rejects += 1;
    }

    /// Picks a host for a sandbox and reserves its groups, or returns
    /// `None` (and counts a reject) if no host fits. `exclude` bars the
    /// sandbox's current host during migration. Selection is a pure
    /// function of the scheduler state, so placement order alone
    /// determines the outcome — never worker count.
    pub fn place(
        &mut self,
        affinity: u32,
        mem_bytes: u64,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let need = self.groups_needed(mem_bytes);
        let pick = if self.indexed {
            match self.policy {
                ClusterPolicy::Spread => self.spread_pick(need, exclude),
                ClusterPolicy::BinPack => self.binpack_pick(need, exclude),
                ClusterPolicy::SocketAffine => self.affine_pick(affinity, need, exclude),
            }
        } else {
            self.linear_pick(affinity, need, exclude)
        };
        let Some(host) = pick else {
            self.placement_rejects += 1;
            return None;
        };
        if aff_count(&self.affinity[host], affinity) > 0 {
            self.affinity_hits += 1;
        }
        self.mutate(host, affinity, -need, true);
        self.placements += 1;
        Some(host)
    }

    /// Releases a sandbox's reservation on `host` (departure, migration
    /// source, or a rolled-back failed admission).
    pub fn release(&mut self, host: usize, affinity: u32, mem_bytes: u64) {
        let need = self.groups_needed(mem_bytes);
        self.mutate(host, affinity, need, false);
    }

    /// The pre-index linear scan (oracle mode).
    fn linear_pick(&mut self, affinity: u32, need: i64, exclude: Option<usize>) -> Option<usize> {
        self.pick_probes += self.slots.len() as u64;
        let fits = |i: &usize| self.slots[*i].free_groups >= need && Some(*i) != exclude;
        let candidates = (0..self.slots.len()).filter(fits);
        match self.policy {
            ClusterPolicy::Spread => {
                candidates.max_by_key(|&i| (self.slots[i].free_groups, std::cmp::Reverse(i)))
            }
            ClusterPolicy::BinPack => candidates.min_by_key(|&i| (self.slots[i].free_groups, i)),
            ClusterPolicy::SocketAffine => candidates.max_by_key(|&i| {
                (
                    aff_count(&self.affinity[i], affinity),
                    self.slots[i].free_groups,
                    std::cmp::Reverse(i),
                )
            }),
        }
    }

    /// Max `(free_groups, Reverse(id))` over hosts with `free >= need`:
    /// the fullest non-empty bucket's minimum id.
    fn spread_pick(&mut self, need: i64, exclude: Option<usize>) -> Option<usize> {
        if need > self.max_total {
            return None;
        }
        let lo = bucket_of(need, self.max_total);
        self.free_buckets[lo..]
            .iter_mut()
            .rev()
            .find_map(|b| b.pick_min(&self.stamps, exclude, &mut self.pick_probes))
    }

    /// Min `(free_groups, id)` over hosts with `free >= need`: the
    /// emptiest-that-fits bucket's minimum id.
    fn binpack_pick(&mut self, need: i64, exclude: Option<usize>) -> Option<usize> {
        if need > self.max_total {
            return None;
        }
        let lo = bucket_of(need, self.max_total);
        self.free_buckets[lo..]
            .iter_mut()
            .find_map(|b| b.pick_min(&self.stamps, exclude, &mut self.pick_probes))
    }

    /// Max `(class count, free_groups, Reverse(id))`: walk the class's
    /// count levels from the highest down (free buckets fullest-first
    /// within each level); if no host running the class fits, every
    /// remaining candidate has count 0 and the spread walk *is* the
    /// oracle's ordering.
    fn affine_pick(&mut self, class: u32, need: i64, exclude: Option<usize>) -> Option<usize> {
        if need > self.max_total {
            return None;
        }
        if let Ok(ci) = self.class_idx.binary_search_by_key(&class, |e| e.0) {
            let lo = bucket_of(need, self.max_total);
            let cells = &mut self.class_idx[ci].1;
            for k in (0..cells.levels.len()).rev() {
                if cells.level_live[k] == 0 {
                    continue;
                }
                let pick = cells.levels[k][lo..]
                    .iter_mut()
                    .rev()
                    .find_map(|b| b.pick_min(&self.stamps, exclude, &mut self.pick_probes));
                if pick.is_some() {
                    return pick;
                }
            }
        }
        self.spread_pick(need, exclude)
    }

    /// Applies a placement (`placing`, `delta = -need`) or release
    /// (`delta = +need`) to one host's slot, affinity list, and — in
    /// indexed mode — every index the host appears in: one stamp bump
    /// logically deletes all old entries, then the host is re-pushed into
    /// its new free bucket and (SocketAffine) one cell per class it still
    /// runs.
    fn mutate(&mut self, host: usize, class: u32, delta: i64, placing: bool) {
        let free_old = self.slots[host].free_groups;
        let free_new = free_old + delta;
        self.slots[host].free_groups = free_new;
        if placing {
            self.slots[host].live += 1;
        } else {
            self.slots[host].live = self.slots[host].live.saturating_sub(1);
        }
        let list = &mut self.affinity[host];
        let k_old;
        match list.binary_search_by_key(&class, |e| e.0) {
            Ok(i) => {
                k_old = list[i].1;
                if placing {
                    list[i].1 += 1;
                } else {
                    list[i].1 = list[i].1.saturating_sub(1);
                    if list[i].1 == 0 {
                        list.remove(i);
                    }
                }
            }
            Err(i) => {
                k_old = 0;
                if placing {
                    list.insert(i, (class, 1));
                }
            }
        }
        if !self.indexed {
            return;
        }
        self.stamps[host] += 1;
        let stamp = self.stamps[host];
        let bo = bucket_of(free_old, self.max_total);
        let bn = bucket_of(free_new, self.max_total);
        self.free_buckets[bo].live -= 1;
        self.free_buckets[bn].push(host as u32, stamp, &self.stamps);
        self.bucket_moves += 1;
        if self.policy != ClusterPolicy::SocketAffine {
            return;
        }
        // Retire the host's old cell entries: for the mutated class the
        // old count was `k_old`; every other class it runs kept its count
        // but moved free buckets.
        if k_old > 0 {
            self.cell_dec(class, k_old, free_old);
        }
        let n = self.affinity[host].len();
        for idx in 0..n {
            let (c, k) = self.affinity[host][idx];
            if c != class && k > 0 {
                self.cell_dec(c, k, free_old);
            }
            self.cell_add(c, k, free_new, host, stamp);
        }
    }

    /// Removes one live host from a class cell's accounting (the entry
    /// itself was already invalidated by the stamp bump).
    fn cell_dec(&mut self, class: u32, k: u32, free: i64) {
        let ci = match self.class_idx.binary_search_by_key(&class, |e| e.0) {
            Ok(i) => i,
            Err(_) => return,
        };
        let cells = &mut self.class_idx[ci].1;
        let level = (k - 1) as usize;
        if level >= cells.levels.len() {
            return;
        }
        let b = bucket_of(free, self.max_total);
        cells.levels[level][b].live -= 1;
        cells.level_live[level] -= 1;
    }

    /// Inserts a live host into a class cell.
    fn cell_add(&mut self, class: u32, k: u32, free: i64, host: usize, stamp: u64) {
        debug_assert!(k > 0);
        let ci = match self.class_idx.binary_search_by_key(&class, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.class_idx.insert(i, (class, ClassCells::default()));
                i
            }
        };
        let buckets = self.free_buckets.len();
        let cells = &mut self.class_idx[ci].1;
        cells.ensure_level(k, buckets);
        let level = (k - 1) as usize;
        let b = bucket_of(free, self.max_total);
        cells.levels[level][b].push(host as u32, stamp, &self.stamps);
        cells.level_live[level] += 1;
        self.bucket_moves += 1;
    }

    /// Checks one host's estimate against hypervisor truth. Returns the
    /// inconsistencies (empty when consistent): estimate drift or
    /// over-commit, both of which would mean the scheduler and the §4.1
    /// prover disagree about who owns what.
    #[must_use]
    pub fn audit(&self, host: usize, true_free_groups: i64, true_live: u32) -> Vec<AuditIssue> {
        let mut issues = Vec::new();
        let slot = &self.slots[host];
        if slot.free_groups != true_free_groups {
            issues.push(AuditIssue::FreeDrift {
                host,
                estimated: slot.free_groups,
                actual: true_free_groups,
            });
        }
        if slot.live != true_live {
            issues.push(AuditIssue::LiveDrift {
                host,
                tracked: slot.live,
                actual: true_live,
            });
        }
        if slot.free_groups < 0 || slot.free_groups > slot.total_groups {
            issues.push(AuditIssue::OverCommit {
                host,
                free: slot.free_groups,
                total: slot.total_groups,
            });
        }
        issues
    }
}

/// Clamps a free-group count into the bucket range. Legal accounting
/// keeps `0 <= free <= max_total`; the clamp only defends the index
/// against an audit-visible over-commit upstream.
fn bucket_of(free: i64, max_total: i64) -> usize {
    free.clamp(0, max_total) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: ClusterPolicy) -> ClusterScheduler {
        // Three hosts × 7 groups of 128 MiB.
        ClusterScheduler::new(policy, 128 << 20, &[7, 7, 7])
    }

    #[test]
    fn spread_balances_and_bin_pack_concentrates() {
        let mut spread = sched(ClusterPolicy::Spread);
        let hosts: Vec<_> = (0..3)
            .map(|i| spread.place(i, 128 << 20, None).unwrap())
            .collect();
        assert_eq!(hosts, [0, 1, 2], "spread rotates across equal hosts");
        let mut pack = sched(ClusterPolicy::BinPack);
        let hosts: Vec<_> = (0..3)
            .map(|i| pack.place(i, 128 << 20, None).unwrap())
            .collect();
        assert_eq!(hosts, [0, 0, 0], "bin-pack stays on the fullest fit");
    }

    #[test]
    fn socket_affine_colocates_classes() {
        let mut s = sched(ClusterPolicy::SocketAffine);
        let first = s.place(5, 128 << 20, None).unwrap();
        // A different class spreads away; the same class follows.
        let other = s.place(6, 128 << 20, None).unwrap();
        assert_ne!(first, other);
        let again = s.place(5, 128 << 20, None).unwrap();
        assert_eq!(first, again, "same class co-locates");
        assert_eq!(s.affinity_hits, 1);
    }

    #[test]
    fn capacity_is_exact_and_releases_restore_it() {
        let mut s = sched(ClusterPolicy::BinPack);
        // 896 MiB = 7 groups: fills one host exactly.
        let h = s.place(0, 896 << 20, None).unwrap();
        assert_eq!(s.est_free_groups(h), 0);
        assert!(s.audit(h, 0, 1).is_empty());
        // Nothing fits on it now; the next 7-group request takes another.
        let h2 = s.place(1, 896 << 20, None).unwrap();
        assert_ne!(h, h2);
        // A third fills the last host; a fourth has nowhere to go.
        let _ = s.place(2, 896 << 20, None).unwrap();
        assert_eq!(s.place(3, 128 << 20, None), None);
        assert_eq!(s.placement_rejects, 1);
        s.release(h, 0, 896 << 20);
        assert_eq!(s.est_free_groups(h), 7);
        assert_eq!(s.place(3, 128 << 20, None), Some(h));
    }

    #[test]
    fn exclude_bars_the_migration_source() {
        let mut s = ClusterScheduler::new(ClusterPolicy::Spread, 128 << 20, &[7, 7]);
        let a = s.place(0, 128 << 20, None).unwrap();
        let b = s.place(0, 128 << 20, Some(a)).unwrap();
        assert_ne!(a, b);
        // With every other host excluded and full, migration has no dest.
        let mut lone = ClusterScheduler::new(ClusterPolicy::Spread, 128 << 20, &[7]);
        let only = lone.place(0, 128 << 20, None).unwrap();
        assert_eq!(lone.place(0, 128 << 20, Some(only)), None);
    }

    #[test]
    fn audit_flags_drift() {
        let mut s = sched(ClusterPolicy::Spread);
        let h = s.place(0, 256 << 20, None).unwrap();
        assert!(s.audit(h, 5, 1).is_empty());
        assert_eq!(s.audit(h, 7, 1).len(), 1, "free-group drift");
        assert_eq!(s.audit(h, 5, 0).len(), 1, "live drift");
    }

    /// Drives the indexed scheduler and the oracle through one
    /// deterministic place/release/exclude script in lockstep, asserting
    /// identical picks, estimates and `can_fit` at every step.
    fn churn(
        policy: ClusterPolicy,
        free: &[i64],
        steps: u64,
    ) -> (ClusterScheduler, ClusterScheduler) {
        let mut idx = ClusterScheduler::new(policy, 128 << 20, free);
        let mut ora = ClusterScheduler::new_oracle(policy, 128 << 20, free);
        assert!(idx.is_indexed() && !ora.is_indexed());
        let mut placed = Vec::new();
        for step in 0..steps {
            let class = (step % 5) as u32;
            let mem = ((step % 4) + 1) * (128 << 20);
            let exclude = if step % 7 == 3 { Some(0) } else { None };
            let a = idx.place(class, mem, exclude);
            let b = ora.place(class, mem, exclude);
            assert_eq!(a, b, "{policy:?} pick diverged at step {step}");
            if let Some(h) = a {
                placed.push((h, class, mem));
            }
            if step % 3 == 2 {
                if let Some((h, c, m)) = placed.pop() {
                    idx.release(h, c, m);
                    ora.release(h, c, m);
                }
            }
            for h in 0..idx.hosts() {
                assert_eq!(idx.est_free_groups(h), ora.est_free_groups(h));
                assert_eq!(idx.est_live(h), ora.est_live(h));
                assert_eq!(idx.audit(h, ora.est_free_groups(h), ora.est_live(h)), []);
            }
            for need in 0..9 {
                assert_eq!(idx.can_fit(need), ora.can_fit(need), "can_fit({need})");
            }
        }
        (idx, ora)
    }

    #[test]
    fn oracle_mode_matches_indexed_on_a_churn_script() {
        // Identical picks, counters, and estimates at each step, across
        // every policy. (The randomized lockstep battery lives in
        // tests/proptest_scheduler.rs.)
        for policy in ClusterPolicy::ALL {
            let (idx, ora) = churn(policy, &[7, 5, 7, 3], 64);
            assert_eq!(idx.placements, ora.placements);
            assert_eq!(idx.placement_rejects, ora.placement_rejects);
            assert_eq!(idx.affinity_hits, ora.affinity_hits);
            assert!(idx.bucket_moves > 0 && ora.bucket_moves == 0);
        }
    }

    #[test]
    fn indexed_work_per_place_does_not_grow_with_hosts() {
        // The same script on a 64-host and a 4096-host fleet: the oracle
        // scans every host on every pick, the indexes must not. Counted
        // from the scheduler's own work counters, so the claim holds on
        // any machine.
        const STEPS: u64 = 512;
        let work = |s: &ClusterScheduler| s.bucket_moves + s.pick_probes;
        for policy in ClusterPolicy::ALL {
            let (small, small_ora) = churn(policy, &[7; 64], STEPS);
            let (large, large_ora) = churn(policy, &[7; 4096], STEPS);
            assert!(
                work(&large) <= 2 * work(&small),
                "{policy:?}: {} index operations at 4096 hosts vs {} at 64",
                work(&large),
                work(&small),
            );
            assert_eq!(small_ora.pick_probes, STEPS * 64);
            assert_eq!(large_ora.pick_probes, STEPS * 4096);
        }
    }

    #[test]
    fn count_reject_mirrors_a_failed_place() {
        let mut a = sched(ClusterPolicy::Spread);
        let mut b = sched(ClusterPolicy::Spread);
        // 8 groups never fit a 7-group host.
        assert!(!a.can_fit(a.groups_needed(1024 << 20)));
        a.count_reject();
        assert_eq!(b.place(0, 1024 << 20, None), None);
        assert_eq!(a.placement_rejects, b.placement_rejects);
    }
}
