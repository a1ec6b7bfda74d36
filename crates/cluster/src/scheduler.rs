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
//! "Which host" is one sorted key per policy, held in std ordered sets:
//!
//! * **`by_free`** — every host once, keyed `(free_groups, tie)`. Spread
//!   takes the greatest key, so `tie` is `-host` and the lowest id wins
//!   among equally free hosts; BinPack takes the least key at or above
//!   `(need, MIN)`, so `tie` is `host`. Those are the linear scan's
//!   `(free_groups, Reverse(i))` / `(free_groups, i)` orderings, read
//!   from one end of a range.
//! * **`by_class`** (SocketAffine only) — one key
//!   `(class, live count of class, free_groups, -host)` per class a host
//!   runs. A pick walks its class's keys from the greatest down and jumps
//!   over the rest of a count level as soon as that level's fullest host
//!   is too small: the scan's `(count, free_groups, Reverse(i))` ordering.
//!   When no host running the class fits, every candidate has count 0 and
//!   the Spread walk *is* the scan's fallback ordering.
//!
//! A migration's `exclude`d source costs a walk at most one extra step.
//! Place/release remove a host's old keys and insert its new ones, so a
//! pick is O(log hosts) (× count levels for SocketAffine) and does not
//! depend on groups-per-host.
//!
//! The linear scan is retained as an **oracle** behind a constructor flag
//! ([`ClusterScheduler::new_oracle`]); the equivalence battery and the
//! lockstep proptest drive both implementations through identical
//! operation sequences and assert bit-identical picks, counters, and
//! audits.

use std::collections::BTreeSet;

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
    /// Every host, keyed `(free_groups, tie)`: `tie` is `host` under
    /// BinPack and `-host` otherwise (see the module docs). Empty in
    /// oracle mode.
    by_free: BTreeSet<(i64, i64)>,
    /// `(class, live count of class, free_groups, -host)` for every class
    /// every host runs (SocketAffine only).
    by_class: BTreeSet<(u32, u32, i64, i64)>,
    /// Successful placements (initial + migration re-admissions).
    pub placements: u64,
    /// Placement attempts that found no host with capacity.
    pub placement_rejects: u64,
    /// Placements that landed on a host already running the sandbox's
    /// affinity class (only the socket-affine policy creates these on
    /// purpose).
    pub affinity_hits: u64,
    /// Index maintenance operations: one per key inserted when a host
    /// is re-keyed (its `by_free` key, plus one `by_class` key per class it
    /// runs). The telemetry window into index churn; stays 0 in oracle
    /// mode.
    pub bucket_moves: u64,
    /// Candidates examined by picks: set entries visited (indexed; the
    /// O(log hosts) descent to the first of them is std's and is not
    /// counted) or host slots scanned (oracle). With `bucket_moves`, the
    /// scheduler's whole per-operation work — what the sublinearity test
    /// counts. Not part of the telemetry export.
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

    /// The retained linear-scan oracle: identical semantics, O(hosts)
    /// picks. Kept as the reference of the equivalence battery
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
            by_free: BTreeSet::new(),
            by_class: BTreeSet::new(),
            placements: 0,
            placement_rejects: 0,
            affinity_hits: 0,
            bucket_moves: 0,
            pick_probes: 0,
        };
        if indexed {
            s.by_free = (0..s.slots.len()).map(|host| s.free_key(host)).collect();
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
    /// exclusion), but read-only: the greatest `by_free` key indexed,
    /// O(hosts) oracle.
    #[must_use]
    pub fn can_fit(&self, need: i64) -> bool {
        if !self.indexed {
            return self.slots.iter().any(|s| s.free_groups >= need);
        }
        self.by_free.last().is_some_and(|&(free, _)| free >= need)
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
                ClusterPolicy::SocketAffine => self.affine_pick(affinity, need, exclude),
                ClusterPolicy::Spread | ClusterPolicy::BinPack => self.free_pick(need, exclude),
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

    /// The linear scan (oracle mode).
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

    /// `host`'s `by_free` key: BinPack reads the set from the bottom, so
    /// its tie-break is `host`; Spread and SocketAffine read from the top,
    /// so theirs is `-host`. Either way the host is `tie.unsigned_abs()`.
    fn free_key(&self, host: usize) -> (i64, i64) {
        let tie = match self.policy {
            ClusterPolicy::BinPack => host as i64,
            ClusterPolicy::Spread | ClusterPolicy::SocketAffine => -(host as i64),
        };
        (self.slots[host].free_groups, tie)
    }

    /// Walks `by_free`'s `free >= need` range from the end the policy
    /// reads: BinPack's min `(free_groups, id)` is the least key, the
    /// others' max `(free_groups, Reverse(id))` the greatest.
    fn free_pick(&mut self, need: i64, exclude: Option<usize>) -> Option<usize> {
        let mut fits = self.by_free.range((need, i64::MIN)..);
        loop {
            let &(_, tie) = match self.policy {
                ClusterPolicy::BinPack => fits.next(),
                ClusterPolicy::Spread | ClusterPolicy::SocketAffine => fits.next_back(),
            }?;
            self.pick_probes += 1;
            let host = tie.unsigned_abs() as usize;
            if Some(host) != exclude {
                return Some(host);
            }
        }
    }

    /// Max `(class count, free_groups, Reverse(id))`: walk the class's
    /// keys from the greatest down; a host too small ends its count level
    /// (the rest of the level is smaller still), so the walk resumes below
    /// `(class, count, MIN, MIN)`. If no host running the class fits, every
    /// remaining candidate has count 0 and the spread walk *is* the
    /// oracle's ordering.
    fn affine_pick(&mut self, class: u32, need: i64, exclude: Option<usize>) -> Option<usize> {
        let lo = (class, 0, i64::MIN, i64::MIN);
        let mut hi = (class, u32::MAX, i64::MAX, i64::MAX);
        'level: loop {
            for &(_, count, free, tie) in self.by_class.range(lo..=hi).rev() {
                self.pick_probes += 1;
                if free < need {
                    hi = (class, count, i64::MIN, i64::MIN);
                    continue 'level;
                }
                let host = tie.unsigned_abs() as usize;
                if Some(host) != exclude {
                    return Some(host);
                }
            }
            return self.free_pick(need, exclude);
        }
    }

    /// Applies a placement (`placing`, `delta = -need`) or release
    /// (`delta = +need`) to one host's slot and affinity list; in indexed
    /// mode the host's keys are taken out before and put back after.
    fn mutate(&mut self, host: usize, class: u32, delta: i64, placing: bool) {
        if self.indexed {
            self.unindex(host);
        }
        let slot = &mut self.slots[host];
        slot.free_groups += delta;
        if placing {
            slot.live += 1;
        } else {
            slot.live = slot.live.saturating_sub(1);
        }
        let list = &mut self.affinity[host];
        match list.binary_search_by_key(&class, |e| e.0) {
            Ok(i) if placing => list[i].1 += 1,
            Ok(i) => {
                list[i].1 = list[i].1.saturating_sub(1);
                if list[i].1 == 0 {
                    list.remove(i);
                }
            }
            Err(i) if placing => list.insert(i, (class, 1)),
            Err(_) => {}
        }
        if self.indexed {
            self.index(host);
        }
    }

    /// Takes every key `host` has out of the indexes: its `by_free` key
    /// and, under SocketAffine, one `by_class` key per class it runs. A
    /// key that is not there means index and slots have drifted apart.
    fn unindex(&mut self, host: usize) {
        let (free, tie) = self.free_key(host);
        let mut found = self.by_free.remove(&(free, tie));
        if self.policy == ClusterPolicy::SocketAffine {
            for &(class, count) in &self.affinity[host] {
                found &= self.by_class.remove(&(class, count, free, tie));
            }
        }
        debug_assert!(found, "host {host}: an old key was not indexed");
    }

    /// Puts `host`'s keys back for its current slot, counting one
    /// `bucket_moves` per key. A key already there is the same drift.
    fn index(&mut self, host: usize) {
        let (free, tie) = self.free_key(host);
        let mut fresh = self.by_free.insert((free, tie));
        self.bucket_moves += 1;
        if self.policy == ClusterPolicy::SocketAffine {
            for &(class, count) in &self.affinity[host] {
                fresh &= self.by_class.insert((class, count, free, tie));
                self.bucket_moves += 1;
            }
        }
        debug_assert!(fresh, "host {host}: a new key was already indexed");
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

    /// The indexed scheduler and the oracle, fed the same calls: `place`
    /// asserts they pick the same host before returning it.
    struct Pair(ClusterScheduler, ClusterScheduler);

    impl Pair {
        fn new(policy: ClusterPolicy, free: &[i64]) -> Self {
            Self(
                ClusterScheduler::new(policy, 128 << 20, free),
                ClusterScheduler::new_oracle(policy, 128 << 20, free),
            )
        }

        fn place(&mut self, class: u32, groups: u64, exclude: Option<usize>) -> Option<usize> {
            let mem = groups * (128 << 20);
            let pick = self.0.place(class, mem, exclude);
            assert_eq!(pick, self.1.place(class, mem, exclude), "oracle");
            pick
        }
    }

    #[test]
    fn socket_affine_skips_a_count_level_too_full_to_fit() {
        let mut s = Pair::new(ClusterPolicy::SocketAffine, &[7, 7, 7]);
        assert_eq!(s.place(5, 3, None), Some(0));
        assert_eq!(s.place(5, 3, None), Some(0), "co-locates while it fits");
        // Host 0 (two of class 5) has 1 group left: nobody running the
        // class fits, so the pick is Spread's.
        assert_eq!(s.place(5, 3, None), Some(1), "spread fallback");
        // Count level 2 is too full, level 1 (host 1, 4 free) is not — and
        // it beats the emptier host 2, which runs none of the class.
        assert_eq!(s.place(5, 3, None), Some(1), "next count level wins");
        // Both class-5 hosts are down to 1 group.
        assert_eq!(s.place(5, 2, None), Some(2), "spread fallback again");
        assert_eq!(s.0.affinity_hits, 2);
    }

    #[test]
    fn socket_affine_steps_past_an_excluded_host_inside_its_count_level() {
        let mut s = Pair::new(ClusterPolicy::SocketAffine, &[7, 7, 7, 7]);
        assert_eq!(s.place(5, 1, None), Some(0));
        assert_eq!(s.place(5, 1, Some(0)), Some(1), "nobody else runs class 5");
        // Hosts 0 and 1 now share count level 1 with 6 free each. Migrating
        // off host 0 (the level's top key) must land on host 1, its
        // neighbour in the level — not on the emptier hosts 2 and 3.
        assert_eq!(s.place(5, 1, Some(0)), Some(1));
        // And migrating off host 1 (count 2) drops to level 1: host 0.
        assert_eq!(s.place(5, 1, Some(1)), Some(0));
    }

    #[test]
    fn an_excluded_best_key_yields_the_next_best() {
        let mut pack = Pair::new(ClusterPolicy::BinPack, &[3, 5, 5, 7]);
        assert_eq!(pack.place(0, 2, Some(0)), Some(1), "next-tightest");
        assert_eq!(pack.place(0, 2, None), Some(0));
        let mut spread = Pair::new(ClusterPolicy::Spread, &[9, 5, 5, 3]);
        assert_eq!(spread.place(0, 2, Some(0)), Some(1), "next-emptiest");
        assert_eq!(spread.place(0, 2, None), Some(0));
        // The excluded host is the only one that fits.
        assert_eq!(pack.place(0, 6, Some(3)), None);
        assert_eq!(spread.place(0, 6, Some(0)), None);
        assert_eq!(pack.0.placement_rejects, pack.1.placement_rejects);
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
        // from the scheduler's own work counters — keys inserted plus set
        // entries a pick visited; the O(log hosts) descent to the first
        // entry is std's and is not counted — so the claim holds on any
        // machine.
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
