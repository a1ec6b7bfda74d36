//! The sharded cluster engine: per-host discrete-event engines stepped in
//! parallel between deterministic barriers.
//!
//! Time is divided into fixed *epochs*. Each epoch runs three phases:
//!
//! 1. **Schedule (serial)** — retry the pending queue, then dispatch every
//!    cluster event due this epoch through the [`ClusterScheduler`],
//!    recording the resulting per-host commands (admit / depart / slice /
//!    attack) without touching any host.
//! 2. **Step (parallel)** — every *active* host applies its command list
//!    and drains its own event queue up to the epoch horizon via
//!    [`sim::run_cells`]. Hosts share no mutable state (the
//!    [`sim::TraceCache`] is internally synchronized and first-writer-wins
//!    on identical values), so 1-, 2-, and 7-worker runs are
//!    bit-identical.
//! 3. **Reconcile (serial)** — fold host admission results back into the
//!    cluster records (a refused admission re-enters the pending queue),
//!    and at sync barriers re-prove the world: a §4.1 full proof on every
//!    live host plus the cluster-level consistency check
//!    ([`ClusterSim::verify_cluster`]).
//!
//! Cross-host migration is phase-1 work: the scheduler picks a
//! destination (source excluded), the source host receives a depart
//! command and the destination an admit command for the same virtual
//! tick, and the sandbox's next slice on the destination re-binds its
//! compiled [`sim::GuestLedger`] from the shared cache instead of
//! recompiling it.

use crate::events::{ClusterEvent, ClusterEventKind, ClusterScenario};
use crate::pending::PendingQueue;
use crate::report::ClusterReport;
use crate::sandbox::{SandboxRecord, SandboxState};
use crate::scheduler::{AuditIssue, ClusterScheduler};
use fleet::{EventKind, EventQueue, FleetSim, PendingVm, HOST_TENANT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siloz::SilozError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Max violation messages retained verbatim (the total is always counted).
const VIOLATION_SAMPLES: usize = 16;

/// Per-host RNG stream splitter (the 64-bit golden-ratio constant).
const STREAM_SPLIT: u64 = 0x9e37_79b9_7f4a_7c15;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a typed scheduler audit finding into the violation log's
/// message format (the hot scheduler itself never allocates strings).
fn render_audit_issue(issue: &AuditIssue) -> String {
    match *issue {
        AuditIssue::FreeDrift {
            host,
            estimated,
            actual,
        } => format!(
            "host {host}: scheduler estimates {estimated} free groups but the hypervisor reports {actual}"
        ),
        AuditIssue::LiveDrift {
            host,
            tracked,
            actual,
        } => format!(
            "host {host}: scheduler tracks {tracked} live sandboxes but the host runs {actual}"
        ),
        AuditIssue::OverCommit { host, free, total } => {
            format!("host {host}: over-commit — {free} of {total} groups free")
        }
    }
}

/// One command the schedule phase queues for a host to apply in the step
/// phase. Commands carry their virtual tick and are recorded in cluster
/// dispatch order, so `at` is nondecreasing within an epoch's list.
#[derive(Debug, Clone)]
enum HostCmd {
    /// Admit a sandbox's VM (`migration` marks a cross-host re-admission).
    Admit {
        at: u64,
        vm: PendingVm,
        migration: bool,
    },
    /// Destroy a sandbox's VM.
    Depart { at: u64, tenant: u32 },
    /// Inject a workload slice into the host's own queue.
    Slice { at: u64, tenant: u32, ops: u32 },
    /// Inject an attack campaign into the host's own queue.
    Attack { at: u64, tenant: u32 },
}

/// What a host reports back from one epoch: the outcome of every admit it
/// was asked to perform, in command order.
struct HostDelta {
    /// `(sandbox, admitted, was_migration)` per admit command.
    admits: Vec<(u32, bool, bool)>,
}

/// One host: a fleet engine plus its private RNG stream and the command
/// list the schedule phase accumulates for it.
struct HostShard {
    sim: FleetSim,
    /// Host-local stream (defrag jitter), split off the master seed per
    /// host index. Draws happen on a worker-independent schedule so the
    /// stream stays identical for any worker count.
    rng: StdRng,
    cmds: Vec<HostCmd>,
}

impl HostShard {
    /// Applies this epoch's commands in order, drains the host queue up to
    /// the epoch horizon, and (at sync barriers) runs a §4.1 full proof.
    ///
    /// Horizon choices keep same-tick semantics: a depart at tick `t`
    /// first steps *through* `t` (so the departing tenant's queued slices
    /// at `t` run before destruction), while an admit at `t` steps only to
    /// `t - 1` (so the new tenant's same-tick slices run after admission).
    fn apply_epoch(
        &mut self,
        epoch_start: u64,
        epoch_end: u64,
        defrag_due: bool,
        sync: bool,
    ) -> Result<HostDelta, SilozError> {
        if defrag_due {
            // Draw the jitter unconditionally: the host's RNG stream must
            // not depend on whether the host happened to be occupied.
            let jitter = self
                .rng
                .gen_range(0..epoch_end.saturating_sub(epoch_start).max(1));
            if self.sim.live_vms() > 0 {
                self.sim
                    .inject(epoch_start + jitter, HOST_TENANT, EventKind::Defrag);
            }
        }
        let mut admits = Vec::new();
        for cmd in std::mem::take(&mut self.cmds) {
            match cmd {
                HostCmd::Slice { at, tenant, ops } => {
                    self.sim.inject(at, tenant, EventKind::Slice { ops });
                }
                HostCmd::Attack { at, tenant } => {
                    self.sim.inject(at, tenant, EventKind::Attack);
                }
                HostCmd::Admit { at, vm, migration } => {
                    self.sim.step_until(at.saturating_sub(1))?;
                    let sandbox = vm.tenant;
                    let ok = self.sim.admit_external(vm)?.is_some();
                    admits.push((sandbox, ok, migration));
                }
                HostCmd::Depart { at, tenant } => {
                    self.sim.step_until(at)?;
                    self.sim.depart_external(tenant)?;
                }
            }
        }
        self.sim.step_until(epoch_end.saturating_sub(1))?;
        if sync {
            self.sim.full_proof_now();
        }
        Ok(HostDelta { admits })
    }

    /// Free (unclaimed) guest groups by hypervisor truth.
    fn free_groups(&self) -> i64 {
        let occ = self.sim.hypervisor().occupancy();
        (occ.total() - occ.claimed()) as i64
    }
}

/// Cluster-level counters accumulated over a run (host counters live in
/// each shard's [`fleet::FleetStats`] and are summed into the report).
#[derive(Debug, Default, Clone)]
pub struct ClusterStats {
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Cluster-level events dispatched (trace + dynamic departures).
    pub cluster_events: u64,
    /// Sandbox arrivals dispatched.
    pub sandboxes: u64,
    /// Sandbox departures completed (VM destroyed on its host).
    pub departures: u64,
    /// Cross-host migrations completed.
    pub migrations: u64,
    /// Migrations skipped because no other host had capacity.
    pub migration_skips: u64,
    /// Migrations whose destination admit failed (sandbox re-queued).
    pub migration_fails: u64,
    /// Arrival admissions refused by the chosen host (re-queued).
    pub admit_fails: u64,
    /// Sandboxes whose departure fired while still awaiting placement, or
    /// that were unplaceable when the trace drained.
    pub abandoned_pending: u64,
    /// Slice/attack events whose sandbox was not running anywhere.
    pub orphan_events: u64,
    /// Pending-queue retries short-circuited because the head's size
    /// class fit nowhere (the scheduler's bucket index answered in
    /// O(buckets) instead of a doomed full placement; each one still
    /// tallies the placement reject the skipped scan would have).
    pub shard_retries_skipped: u64,
    /// Cluster-wide sync proofs completed.
    pub sync_proofs: u64,
    /// Cluster-level consistency violations (scheduler vs hypervisor
    /// drift, misplaced or unknown tenants; must stay 0).
    pub cluster_violations: u64,
    /// Live sandboxes right now.
    pub live_now: u64,
    /// Peak simultaneously-live sandboxes.
    pub peak_live: u64,
    /// Wall-clock nanoseconds inside cluster sync checks. Volatile:
    /// exported as a volatile counter, never part of [`ClusterReport`].
    pub sync_wall_ns: u64,
    /// Wall-clock nanoseconds inside the serial schedule phase (pending
    /// retries + event dispatch — the code the scheduler indexes speed
    /// up). Volatile, like `sync_wall_ns`.
    pub sched_wall_ns: u64,
    /// First few cluster violation messages, verbatim.
    pub violation_samples: Vec<String>,
}

/// The cluster simulator: N host shards, the cluster queue, the
/// scheduler, and the sandbox records, advanced one barrier epoch at a
/// time.
pub struct ClusterSim {
    scenario: ClusterScenario,
    hosts: Vec<Mutex<HostShard>>,
    queue: EventQueue<ClusterEvent>,
    scheduler: ClusterScheduler,
    sandboxes: BTreeMap<u32, SandboxRecord>,
    /// Sandboxes awaiting placement: FIFO with O(1) membership removal,
    /// sharded by claim-size class.
    pending: PendingQueue,
    /// Next epoch index to execute.
    epoch: u64,
    threads: usize,
    stats: ClusterStats,
    /// Shared cross-host ledger pool (also installed into every shard).
    cache: Arc<sim::TraceCache>,
}

impl ClusterSim {
    /// Boots every host shard (in parallel across `threads` workers) and
    /// loads the pre-generated cluster trace.
    pub fn new(scenario: ClusterScenario, threads: usize) -> Result<Self, SilozError> {
        let cache = Arc::new(sim::TraceCache::new());
        let host_scenario = scenario.host_scenario();
        let seed = scenario.seed;
        let engine_reg = telemetry::Registry::new();
        let booted = sim::run_cells(scenario.hosts as usize, threads, &engine_reg, |i| {
            FleetSim::new(host_scenario.clone()).map(|mut fleet_sim| {
                fleet_sim.set_trace_cache(cache.clone());
                HostShard {
                    sim: fleet_sim,
                    rng: StdRng::seed_from_u64(seed ^ STREAM_SPLIT.wrapping_mul(i as u64 + 1)),
                    cmds: Vec::new(),
                }
            })
        });
        let mut hosts = Vec::with_capacity(booted.len());
        for shard in booted {
            hosts.push(Mutex::new(shard?));
        }
        // Capacity model from hypervisor truth: the fleet is homogeneous,
        // but derive per-host free groups and the (conservative, smallest)
        // group size from each host's own occupancy anyway.
        let mut frees = Vec::with_capacity(hosts.len());
        let mut group_bytes = u64::MAX;
        for host in &mut hosts {
            let shard = host.get_mut().unwrap_or_else(PoisonError::into_inner);
            let occ = shard.sim.hypervisor().occupancy();
            for g in &occ.groups {
                group_bytes = group_bytes.min(g.total_frames * numa::FRAME_BYTES);
            }
            frees.push((occ.total() - occ.claimed()) as i64);
        }
        if hosts.is_empty() || group_bytes == 0 || group_bytes == u64::MAX {
            return Err(SilozError::BadConfig(
                "cluster needs at least one host with guest groups".to_string(),
            ));
        }
        let scheduler = if scenario.indexed_scheduler {
            ClusterScheduler::new(scenario.policy, group_bytes, &frees)
        } else {
            ClusterScheduler::new_oracle(scenario.policy, group_bytes, &frees)
        };
        let (events, next_seq) = crate::events::generate_cluster_trace(&scenario);
        Ok(Self {
            scenario,
            hosts,
            queue: EventQueue::new(events, next_seq),
            scheduler,
            sandboxes: BTreeMap::new(),
            pending: PendingQueue::new(),
            epoch: 0,
            threads,
            stats: ClusterStats::default(),
            cache,
        })
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cluster-level scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &ClusterScheduler {
        &self.scheduler
    }

    /// The shared cross-host ledger pool.
    #[must_use]
    pub fn trace_cache(&self) -> &Arc<sim::TraceCache> {
        &self.cache
    }

    /// Whether all work is done: trace drained and no sandbox waiting.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.queue.is_empty() && self.pending.is_empty()
    }

    fn cluster_violation(&mut self, msg: String) {
        self.stats.cluster_violations += 1;
        if self.stats.violation_samples.len() < VIOLATION_SAMPLES {
            self.stats.violation_samples.push(msg);
        }
    }

    /// Records a successful placement: command the host, bump live
    /// accounting, and (first placement only) schedule the sandbox's
    /// departure `lifetime` ticks out — a sandbox parked pending keeps its
    /// full lifetime from actual placement, and a migrated sandbox keeps
    /// its original lease.
    fn commit_placement(&mut self, id: u32, host: usize, at: u64, migration: bool) {
        let rec = self.sandboxes.get_mut(&id).expect("placed sandbox exists");
        rec.state = SandboxState::Running(host);
        let vm = PendingVm {
            tenant: id,
            mem_bytes: rec.mem_bytes,
            vcpus: rec.vcpus,
            lifetime: rec.lifetime,
        };
        let lifetime = rec.lifetime;
        let schedule_depart = !rec.depart_scheduled;
        rec.depart_scheduled = true;
        self.host_mut(host)
            .cmds
            .push(HostCmd::Admit { at, vm, migration });
        if !migration {
            self.stats.live_now += 1;
            self.stats.peak_live = self.stats.peak_live.max(self.stats.live_now);
        }
        if schedule_depart {
            self.queue.push(|seq| ClusterEvent {
                at: at + lifetime,
                seq,
                sandbox: id,
                kind: ClusterEventKind::Depart,
            });
        }
    }

    fn host_mut(&mut self, host: usize) -> &mut HostShard {
        self.hosts[host]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Retries the pending queue FIFO at an epoch boundary, stopping at
    /// the first sandbox that still fits nowhere (head-of-line order keeps
    /// retries deterministic and starvation-free).
    fn retry_pending(&mut self, at: u64) {
        while let Some((id, need)) = self.pending.front() {
            if !self.scheduler.can_fit(need) {
                // The head's size class fits nowhere, so head-of-line
                // order stops the retry here regardless. Tally the one
                // reject the doomed placement scan would have counted and
                // skip it — O(buckets) against the free index instead of
                // a full candidate walk.
                self.scheduler.count_reject();
                self.stats.shard_retries_skipped += 1;
                break;
            }
            let rec = self.sandboxes[&id];
            let host = self
                .scheduler
                .place(rec.affinity, rec.mem_bytes, None)
                .expect("can_fit admitted the head's class");
            self.pending.pop_front();
            self.commit_placement(id, host, at, false);
        }
    }

    /// Dispatches one cluster event (schedule phase).
    fn dispatch(&mut self, at: u64, sandbox: u32, kind: ClusterEventKind) {
        self.stats.cluster_events += 1;
        match kind {
            ClusterEventKind::Arrive {
                mem_bytes,
                vcpus,
                lifetime,
            } => {
                self.stats.sandboxes += 1;
                let rec = SandboxRecord::new(sandbox, mem_bytes, vcpus, lifetime);
                self.sandboxes.insert(sandbox, rec);
                match self.scheduler.place(rec.affinity, mem_bytes, None) {
                    Some(host) => self.commit_placement(sandbox, host, at, false),
                    None => {
                        let need = self.scheduler.groups_needed(mem_bytes);
                        self.pending.push_back(sandbox, need);
                    }
                }
            }
            ClusterEventKind::Depart => {
                let Some(rec) = self.sandboxes.get_mut(&sandbox) else {
                    self.stats.orphan_events += 1;
                    return;
                };
                match rec.state {
                    SandboxState::Running(host) => {
                        rec.state = SandboxState::Departed;
                        let (affinity, mem) = (rec.affinity, rec.mem_bytes);
                        self.host_mut(host).cmds.push(HostCmd::Depart {
                            at,
                            tenant: sandbox,
                        });
                        self.scheduler.release(host, affinity, mem);
                        self.stats.departures += 1;
                        self.stats.live_now -= 1;
                    }
                    SandboxState::Pending => {
                        rec.state = SandboxState::Abandoned;
                        self.pending.remove(sandbox);
                        self.stats.abandoned_pending += 1;
                    }
                    _ => self.stats.orphan_events += 1,
                }
            }
            ClusterEventKind::Migrate => {
                let Some(rec) = self.sandboxes.get(&sandbox).copied() else {
                    self.stats.orphan_events += 1;
                    return;
                };
                match rec.state {
                    SandboxState::Running(src) => {
                        match self.scheduler.place(rec.affinity, rec.mem_bytes, Some(src)) {
                            Some(dst) => {
                                self.host_mut(src).cmds.push(HostCmd::Depart {
                                    at,
                                    tenant: sandbox,
                                });
                                self.scheduler.release(src, rec.affinity, rec.mem_bytes);
                                self.commit_placement(sandbox, dst, at, true);
                                let rec = self.sandboxes.get_mut(&sandbox).expect("live");
                                rec.migrations += 1;
                                self.stats.migrations += 1;
                            }
                            None => self.stats.migration_skips += 1,
                        }
                    }
                    SandboxState::Pending => self.stats.migration_skips += 1,
                    _ => self.stats.orphan_events += 1,
                }
            }
            ClusterEventKind::Slice { ops } => {
                match self.sandboxes.get(&sandbox).map(|r| r.state) {
                    Some(SandboxState::Running(host)) => {
                        self.host_mut(host).cmds.push(HostCmd::Slice {
                            at,
                            tenant: sandbox,
                            ops,
                        });
                    }
                    _ => self.stats.orphan_events += 1,
                }
            }
            ClusterEventKind::Attack => match self.sandboxes.get(&sandbox).map(|r| r.state) {
                Some(SandboxState::Running(host)) => {
                    self.host_mut(host).cmds.push(HostCmd::Attack {
                        at,
                        tenant: sandbox,
                    });
                }
                _ => self.stats.orphan_events += 1,
            },
        }
    }

    /// Runs one barrier epoch: schedule (serial) → step every active host
    /// (parallel) → reconcile (serial). Empty stretches of virtual time
    /// are skipped by fast-forwarding to the epoch of the next due event.
    pub fn step_epoch(&mut self) -> Result<(), SilozError> {
        let ticks = self.scenario.epoch_ticks.max(1);
        if self.pending.is_empty() {
            if let Some(next_at) = self.queue.peek().map(|e| e.at) {
                if next_at >= (self.epoch + 1) * ticks {
                    self.epoch = next_at / ticks;
                }
            }
        }
        let epoch_start = self.epoch * ticks;
        let epoch_end = epoch_start + ticks;
        let epoch_index = self.epoch;
        self.epoch += 1;
        self.stats.epochs += 1;

        // Phase 1: schedule.
        let sched_t = std::time::Instant::now();
        self.retry_pending(epoch_start);
        while self.queue.peek().is_some_and(|e| e.at < epoch_end) {
            let ev = self.queue.pop().expect("peeked");
            self.dispatch(ev.at, ev.sandbox, ev.kind);
        }
        self.stats.sched_wall_ns += sched_t.elapsed().as_nanos() as u64;

        // Phase 2: step the active hosts in parallel.
        let sync = self.scenario.sync_period > 0
            && (epoch_index + 1).is_multiple_of(u64::from(self.scenario.sync_period));
        let defrag_due = self.scenario.defrag_period_epochs > 0
            && (epoch_index + 1).is_multiple_of(u64::from(self.scenario.defrag_period_epochs));
        let active: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| {
                let shard = self.hosts[i]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                !shard.cmds.is_empty() || ((defrag_due || sync) && shard.sim.live_vms() > 0)
            })
            .collect();
        let hosts = &self.hosts;
        // The fan-out's scheduling metrics are not part of the cluster's
        // telemetry tree (`export_telemetry` builds that from the shards).
        let engine_reg = telemetry::Registry::new();
        let deltas = sim::run_cells(active.len(), self.threads, &engine_reg, |k| {
            lock(&hosts[active[k]]).apply_epoch(epoch_start, epoch_end, defrag_due, sync)
        });

        // Phase 3: reconcile, in active-host order.
        for (k, delta) in deltas.into_iter().enumerate() {
            let host = active[k];
            for (sandbox, ok, migration) in delta?.admits {
                if ok {
                    continue;
                }
                if migration {
                    self.stats.migration_fails += 1;
                } else {
                    self.stats.admit_fails += 1;
                }
                let rec = self.sandboxes.get_mut(&sandbox).expect("admitted sandbox");
                // Roll back only if the sandbox still thinks it runs here:
                // a same-epoch departure or onward migration already moved
                // the claim, and the host-side admit failure is then moot.
                if rec.state == SandboxState::Running(host) {
                    rec.state = SandboxState::Pending;
                    let (affinity, mem) = (rec.affinity, rec.mem_bytes);
                    self.scheduler.release(host, affinity, mem);
                    let need = self.scheduler.groups_needed(mem);
                    self.pending.push_back(sandbox, need);
                    self.stats.live_now -= 1;
                }
            }
        }
        if sync {
            self.stats.sync_proofs += 1;
            let t = std::time::Instant::now();
            let issues = self.verify_cluster();
            self.stats.sync_wall_ns += t.elapsed().as_nanos() as u64;
            for issue in issues {
                self.cluster_violation(issue);
            }
        }
        Ok(())
    }

    /// Runs a §4.1 full proof on every occupied host right now (property
    /// tests call this mid-run; violations land in the hosts' own
    /// counters).
    pub fn prove_hosts(&mut self) {
        for host in &mut self.hosts {
            let shard = host.get_mut().unwrap_or_else(PoisonError::into_inner);
            if shard.sim.live_vms() > 0 {
                shard.sim.full_proof_now();
            }
        }
    }

    /// Cluster-level consistency check: every host's live tenant set must
    /// equal the cluster's placement records for it, and the scheduler's
    /// capacity estimates must equal hypervisor occupancy. Returns the
    /// violation messages (empty when consistent).
    pub fn verify_cluster(&mut self) -> Vec<String> {
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); self.hosts.len()];
        for (&id, rec) in &self.sandboxes {
            if let SandboxState::Running(host) = rec.state {
                expected[host].push(id);
            }
        }
        let mut issues = Vec::new();
        for (i, want) in expected.iter().enumerate() {
            let shard = self.hosts[i]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            let got = shard.sim.live_tenants();
            if &got != want {
                issues.push(format!(
                    "host {i}: runs {} tenants but the cluster places {} there",
                    got.len(),
                    want.len()
                ));
            }
            let free = shard.free_groups();
            let live = got.len() as u32;
            for issue in self.scheduler.audit(i, free, live) {
                issues.push(render_audit_issue(&issue));
            }
        }
        issues
    }

    /// Runs every epoch until the trace drains and no sandbox is pending,
    /// then final-proves every occupied host, verifies cluster
    /// consistency one last time, and builds the report.
    ///
    /// If an epoch makes no progress while only unplaceable sandboxes
    /// remain (nothing queued, nothing placed), those sandboxes are
    /// abandoned rather than spinning forever.
    pub fn run_to_completion(&mut self) -> Result<ClusterReport, SilozError> {
        while !self.is_done() {
            let before = (
                self.queue.total_popped(),
                self.scheduler.placements,
                self.pending.len(),
            );
            self.step_epoch()?;
            let after = (
                self.queue.total_popped(),
                self.scheduler.placements,
                self.pending.len(),
            );
            if self.queue.is_empty() && !self.pending.is_empty() && before == after {
                while let Some(id) = self.pending.pop_front() {
                    if let Some(rec) = self.sandboxes.get_mut(&id) {
                        rec.state = SandboxState::Abandoned;
                    }
                    self.stats.abandoned_pending += 1;
                }
            }
        }
        self.prove_hosts();
        let t = std::time::Instant::now();
        let issues = self.verify_cluster();
        self.stats.sync_wall_ns += t.elapsed().as_nanos() as u64;
        for issue in issues {
            self.cluster_violation(issue);
        }
        Ok(self.report())
    }

    /// Snapshots the run into a [`ClusterReport`], summing host engine
    /// counters across the fleet.
    #[must_use]
    pub fn report(&self) -> ClusterReport {
        let mut r = ClusterReport {
            policy: self.scenario.policy.name(),
            host_strategy: self.scenario.host_strategy.name(),
            mitigation: self.scenario.mitigation.name(),
            seed: self.scenario.seed,
            hosts: self.hosts.len() as u64,
            epochs: self.stats.epochs,
            cluster_events: self.stats.cluster_events,
            host_events: 0,
            sandboxes: self.stats.sandboxes,
            placements: self.scheduler.placements,
            placement_rejects: self.scheduler.placement_rejects,
            affinity_hits: self.scheduler.affinity_hits,
            admit_fails: self.stats.admit_fails,
            abandoned_pending: self.stats.abandoned_pending,
            departures: self.stats.departures,
            migrations: self.stats.migrations,
            migration_skips: self.stats.migration_skips,
            migration_fails: self.stats.migration_fails,
            orphan_events: self.stats.orphan_events,
            slices: 0,
            attacks: 0,
            attack_flips: 0,
            attack_escapes: 0,
            ledger_compiles: 0,
            program_binds: 0,
            incremental_checks: 0,
            incremental_fast_checks: 0,
            full_proofs: 0,
            sync_proofs: self.stats.sync_proofs,
            peak_live: self.stats.peak_live,
            final_live: self.stats.live_now,
            groups_total: 0,
            groups_claimed: 0,
            host_violations: 0,
            cluster_violations: self.stats.cluster_violations,
            violation_samples: self.stats.violation_samples.clone(),
        };
        for host in &self.hosts {
            let shard = lock(host);
            let stats = shard.sim.stats();
            r.host_events += stats.events_processed;
            r.slices += stats.slices;
            r.attacks += stats.attacks;
            r.attack_flips += stats.attack_flips;
            r.attack_escapes += stats.attack_escapes;
            r.ledger_compiles += stats.ledger_compiles;
            r.program_binds += stats.program_binds;
            r.incremental_checks += stats.incremental_checks;
            r.incremental_fast_checks += stats.incremental_fast_checks;
            r.full_proofs += stats.full_proofs;
            r.host_violations += stats.violations_total;
            for sample in &stats.violation_samples {
                if r.violation_samples.len() < VIOLATION_SAMPLES {
                    r.violation_samples.push(sample.clone());
                }
            }
            let occ = shard.sim.hypervisor().occupancy();
            r.groups_total += occ.total();
            r.groups_claimed += occ.claimed();
        }
        r
    }

    /// Exports cluster telemetry under `cluster`: scheduler counters
    /// (`cluster.scheduler`), a fleet-wide aggregate of every host's
    /// engine telemetry (`cluster.hosts`, merged via
    /// [`telemetry::Registry::absorb`]), and a small per-host rollup
    /// (`cluster.host<N>`).
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        let cluster = reg.child("cluster");
        cluster.counter("epochs").add(self.stats.epochs);
        cluster
            .counter("cluster_events")
            .add(self.stats.cluster_events);
        cluster.counter("sandboxes").add(self.stats.sandboxes);
        cluster.counter("departures").add(self.stats.departures);
        cluster.counter("migrations").add(self.stats.migrations);
        cluster
            .counter("migration_skips")
            .add(self.stats.migration_skips);
        cluster
            .counter("migration_fails")
            .add(self.stats.migration_fails);
        cluster.counter("admit_fails").add(self.stats.admit_fails);
        cluster
            .counter("abandoned_pending")
            .add(self.stats.abandoned_pending);
        cluster
            .counter("orphan_events")
            .add(self.stats.orphan_events);
        cluster.counter("sync_proofs").add(self.stats.sync_proofs);
        cluster
            .counter("shard_retries_skipped")
            .add(self.stats.shard_retries_skipped);
        cluster
            .counter("cluster_violations")
            .add(self.stats.cluster_violations);
        cluster
            .counter_volatile("sync_wall_ns")
            .add(self.stats.sync_wall_ns);
        cluster
            .counter_volatile("sched_wall_ns")
            .add(self.stats.sched_wall_ns);
        cluster.gauge("hosts").add(self.hosts.len() as i64);
        cluster
            .gauge("live_sandboxes")
            .add(self.stats.live_now as i64);
        cluster
            .gauge("peak_live_sandboxes")
            .add(self.stats.peak_live as i64);
        cluster
            .gauge("pending_sandboxes")
            .add(self.pending.len() as i64);
        cluster
            .gauge("pending_shards")
            .add(self.pending.busy_shards() as i64);
        let sched = cluster.child("scheduler");
        sched.counter("placements").add(self.scheduler.placements);
        sched
            .counter("placement_rejects")
            .add(self.scheduler.placement_rejects);
        sched
            .counter("affinity_hits")
            .add(self.scheduler.affinity_hits);
        sched
            .counter("bucket_moves")
            .add(self.scheduler.bucket_moves);
        let aggregate = cluster.child("hosts");
        for (i, host) in self.hosts.iter().enumerate() {
            let shard = lock(host);
            let scratch = telemetry::Registry::new();
            shard.sim.export_telemetry(&scratch);
            aggregate.absorb(&scratch.snapshot());
            // Per-host rollup: enough to spot a sick host without the full
            // tree. `ledger_compiles` is deliberately absent — its
            // per-host attribution depends on which worker won a shared
            // cache insert (the cluster-wide sum stays deterministic).
            let rollup = cluster.child(&format!("host{i}"));
            let stats = shard.sim.stats();
            rollup
                .counter("events_processed")
                .add(stats.events_processed);
            rollup.counter("slices").add(stats.slices);
            rollup
                .counter("isolation_violations")
                .add(stats.violations_total);
            rollup.counter("attack_escapes").add(stats.attack_escapes);
            rollup.gauge("live_vms").add(shard.sim.live_vms() as i64);
            rollup
                .gauge("groups_claimed")
                .add(shard.sim.hypervisor().occupancy().claimed() as i64);
        }
    }
}

/// Runs a cluster scenario end to end across `threads` workers, exports run
/// telemetry into `reg` (children: `cluster`, `cluster.scheduler`,
/// `cluster.hosts`, `cluster.host<N>`) and returns its report. Results are
/// bit-identical for any `threads`.
pub fn run_cluster(
    scenario: ClusterScenario,
    threads: usize,
    reg: &telemetry::Registry,
) -> Result<ClusterReport, SilozError> {
    let mut cluster_sim = ClusterSim::new(scenario, threads)?;
    let report = cluster_sim.run_to_completion()?;
    cluster_sim.export_telemetry(reg);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ClusterPolicy;
    use telemetry::Registry;

    fn tiny(policy: ClusterPolicy) -> ClusterScenario {
        let mut s = ClusterScenario::quick(9, policy);
        s.target_sandboxes = 120;
        s
    }

    #[test]
    fn tiny_cluster_run_is_clean_under_every_policy() {
        for policy in ClusterPolicy::ALL {
            let report = run_cluster(tiny(policy), 1, &Registry::new()).unwrap();
            assert_eq!(report.cluster_violations, 0, "{report:?}");
            assert_eq!(report.host_violations, 0, "{report:?}");
            assert_eq!(report.attack_escapes, 0, "{report:?}");
            assert!(report.clean());
            assert_eq!(report.sandboxes, 120);
            assert!(
                report.placements >= report.sandboxes - report.abandoned_pending,
                "every non-abandoned sandbox placed: {report:?}"
            );
            assert!(report.migrations + report.migration_skips + report.migration_fails > 0);
            assert_eq!(report.final_live, 0, "trace drains every sandbox");
            assert!(report.full_proofs > 0, "sync barriers prove hosts");
        }
    }

    #[test]
    fn cluster_runs_are_bit_identical_across_worker_counts() {
        let serial = run_cluster(tiny(ClusterPolicy::Spread), 1, &Registry::new()).unwrap();
        for threads in [2, 7] {
            let parallel =
                run_cluster(tiny(ClusterPolicy::Spread), threads, &Registry::new()).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn migration_moves_the_claim_between_hosts() {
        let mut s = tiny(ClusterPolicy::Spread);
        s.migrate_prob = 1.0;
        s.target_sandboxes = 40;
        let report = run_cluster(s, 1, &Registry::new()).unwrap();
        assert!(report.migrations > 0);
        assert!(report.clean());
        // Each migration re-admits on a new host: placements exceed
        // sandboxes by exactly the completed migrations (minus re-queued
        // failures that were re-placed, which also count placements).
        assert!(report.placements >= report.sandboxes + report.migrations);
    }

    #[test]
    fn sync_proofs_and_epochs_advance() {
        let mut sim = ClusterSim::new(tiny(ClusterPolicy::BinPack), 1).unwrap();
        while !sim.is_done() && sim.stats().epochs < 6 {
            sim.step_epoch().unwrap();
        }
        assert!(sim.stats().epochs >= 6 || sim.is_done());
        assert!(sim.verify_cluster().is_empty(), "mid-run consistency");
        sim.prove_hosts();
        let report = sim.report();
        assert_eq!(report.host_violations, 0);
    }

    #[test]
    fn departure_while_pending_abandons_without_a_queue_scan() {
        // A lone full host parks later arrivals; one parked sandbox's
        // lease then expires. The O(1) membership index must drop exactly
        // that entry, leave FIFO order intact, and count the abandonment.
        let mut s = tiny(ClusterPolicy::Spread);
        s.hosts = 1;
        s.target_sandboxes = 0;
        let mut sim = ClusterSim::new(s, 1).unwrap();
        let arrive = |mem_bytes: u64| ClusterEventKind::Arrive {
            mem_bytes,
            vcpus: 1,
            lifetime: 1_000,
        };
        // 896 MiB = all 7 groups of the mini host.
        sim.dispatch(0, 0, arrive(896 << 20));
        sim.dispatch(0, 1, arrive(128 << 20));
        sim.dispatch(0, 2, arrive(128 << 20));
        assert_eq!(sim.pending.len(), 2);
        assert!(sim.pending.contains(1) && sim.pending.contains(2));
        sim.dispatch(5, 1, ClusterEventKind::Depart);
        assert_eq!(sim.stats.abandoned_pending, 1);
        assert!(!sim.pending.contains(1));
        assert_eq!(sim.sandboxes[&1].state, SandboxState::Abandoned);
        assert_eq!(sim.pending.front(), Some((2, 1)), "FIFO head preserved");
        // With the host still full, a retry must short-circuit on the
        // bucket index — one skip, one reject, exactly what the oracle's
        // failed placement would have tallied.
        let rejects_before = sim.scheduler.placement_rejects;
        sim.retry_pending(6);
        assert_eq!(sim.stats.shard_retries_skipped, 1);
        assert_eq!(sim.scheduler.placement_rejects, rejects_before + 1);
        assert!(sim.pending.contains(2), "stuck head stays parked");
        // Capacity frees: the parked survivor places on the next retry.
        sim.dispatch(7, 0, ClusterEventKind::Depart);
        sim.retry_pending(8);
        assert!(sim.pending.is_empty());
        assert_eq!(sim.sandboxes[&2].state, SandboxState::Running(0));
    }

    #[test]
    fn oracle_scheduler_runs_are_bit_identical_to_indexed() {
        // The engine-level equivalence battery: the same scenario under
        // the indexed scheduler and the linear-scan oracle must produce
        // byte-equal reports for every policy (the report carries every
        // placement outcome, reject tally, and violation count).
        for policy in ClusterPolicy::ALL {
            let indexed = run_cluster(tiny(policy), 1, &Registry::new()).unwrap();
            let mut s = tiny(policy);
            s.indexed_scheduler = false;
            let oracle = run_cluster(s, 1, &Registry::new()).unwrap();
            assert_eq!(indexed, oracle, "{policy:?}");
        }
    }

    #[test]
    fn scheduler_policy_changes_placement_shape() {
        let spread = run_cluster(tiny(ClusterPolicy::Spread), 1, &Registry::new()).unwrap();
        let affine = run_cluster(tiny(ClusterPolicy::SocketAffine), 1, &Registry::new()).unwrap();
        assert!(affine.affinity_hits > spread.affinity_hits);
    }
}
