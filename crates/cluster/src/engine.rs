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
use crate::sandbox::{Lifecycle, SandboxRecord};
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

/// Serial-phase access to a shard: between barriers no worker holds it.
pub(crate) fn shard_mut(m: &mut Mutex<HostShard>) -> &mut HostShard {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
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
pub(crate) enum HostCmd {
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

/// One host: a fleet engine plus its private RNG stream and the command
/// list the schedule phase accumulates for it.
pub(crate) struct HostShard {
    sim: FleetSim,
    /// Host-local stream (defrag jitter), split off the master seed per
    /// host index. Draws happen on a worker-independent schedule so the
    /// stream stays identical for any worker count.
    rng: StdRng,
    pub(crate) cmds: Vec<HostCmd>,
}

impl HostShard {
    /// Applies this epoch's commands in order, drains the host queue up to
    /// the epoch horizon, and (at sync barriers) runs a §4.1 full proof.
    /// Returns `(sandbox, admitted, was_migration)` per admit command, in
    /// command order.
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
    ) -> Result<Vec<(u32, bool, bool)>, SilozError> {
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
        Ok(admits)
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
    /// Cross-host migrations completed (the destination admitted).
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
    /// class fit nowhere (the scheduler's emptiest host answered
    /// instead of a doomed full placement; each one still tallies the
    /// placement reject the skipped pick would have).
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
    pub(crate) hosts: Vec<Mutex<HostShard>>,
    pub(crate) queue: EventQueue<ClusterEvent>,
    pub(crate) scheduler: ClusterScheduler,
    pub(crate) sandboxes: BTreeMap<u32, SandboxRecord>,
    /// Sandboxes awaiting placement: FIFO with removal by sandbox id,
    /// sharded by claim-size class.
    pub(crate) pending: PendingQueue,
    /// Next epoch index to execute.
    epoch: u64,
    threads: usize,
    pub(crate) stats: ClusterStats,
}

impl ClusterSim {
    /// Boots every host shard (in parallel across `threads` workers) and
    /// loads the pre-generated cluster trace.
    pub fn new(scenario: ClusterScenario, threads: usize) -> Result<Self, SilozError> {
        // One ledger pool for the fleet: the shards hold the only handles.
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
            let shard = shard_mut(host);
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

    /// Queues a guest-work command (slice, attack) for whichever host runs
    /// `sandbox`; work for a sandbox that runs nowhere is an orphan.
    fn forward(&mut self, sandbox: u32, cmd: HostCmd) {
        match self.sandboxes.get(&sandbox).and_then(SandboxRecord::host) {
            Some(host) => shard_mut(&mut self.hosts[host]).cmds.push(cmd),
            None => self.stats.orphan_events += 1,
        }
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
                // skip it — one look at the emptiest host instead of a
                // full pick.
                self.scheduler.count_reject();
                self.stats.shard_retries_skipped += 1;
                break;
            }
            self.transition(id, Lifecycle::Place { at });
            assert!(
                !self.pending.contains(id),
                "can_fit admitted the head's class"
            );
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
                let vm = PendingVm {
                    tenant: sandbox,
                    mem_bytes,
                    vcpus,
                    lifetime,
                };
                self.sandboxes.insert(sandbox, SandboxRecord::new(vm));
                self.transition(sandbox, Lifecycle::Place { at });
            }
            ClusterEventKind::Depart => self.transition(sandbox, Lifecycle::Depart { at }),
            ClusterEventKind::Migrate => self.transition(sandbox, Lifecycle::Migrate { at }),
            ClusterEventKind::Slice { ops } => {
                let tenant = sandbox;
                self.forward(sandbox, HostCmd::Slice { at, tenant, ops });
            }
            ClusterEventKind::Attack => {
                let tenant = sandbox;
                self.forward(sandbox, HostCmd::Attack { at, tenant });
            }
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
                let shard = shard_mut(&mut self.hosts[i]);
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
            for (sandbox, ok, migration) in delta? {
                if !ok {
                    self.transition(sandbox, Lifecycle::Refused { host, migration });
                } else if migration {
                    self.transition(sandbox, Lifecycle::Migrated);
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
            let shard = shard_mut(host);
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
            if let Some(host) = rec.host() {
                expected[host].push(id);
            }
        }
        let mut issues = Vec::new();
        for (i, want) in expected.iter().enumerate() {
            let shard = shard_mut(&mut self.hosts[i]);
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
                while let Some((id, _)) = self.pending.front() {
                    self.transition(id, Lifecycle::Drain);
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
    use crate::sandbox::SandboxState;
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
    fn shared_draw_classes_compile_once_per_key_at_any_worker_count() {
        // Ten sandboxes per draw class: hosts stepping in parallel race to
        // build one class ledger inside an epoch, and only the winning
        // insert counts, so the fleet-wide compile count is the number of
        // distinct ledger keys whatever the worker count.
        let mut s = tiny(ClusterPolicy::Spread);
        s.target_sandboxes = 640;
        let mut serial = None;
        for threads in [1, 2, 7] {
            let mut sim = ClusterSim::new(s.clone(), threads).unwrap();
            let report = sim.run_to_completion().unwrap();
            let keys = lock(&sim.hosts[0]).sim.trace_cache().ledger_count();
            assert_eq!(report.ledger_compiles, keys as u64, "threads={threads}");
            assert!(keys <= 64, "one key per draw class: {keys}");
            assert!(report.slices > 2 * report.ledger_compiles, "{report:?}");
            assert!(report.clean());
            match &serial {
                None => serial = Some(report),
                Some(first) => assert_eq!(first, &report, "threads={threads}"),
            }
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
        // lease then expires. The id → ticket index must drop exactly
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
        sim.transition(1, Lifecycle::Depart { at: 5 });
        assert_eq!(sim.stats.abandoned_pending, 1);
        assert!(!sim.pending.contains(1));
        assert_eq!(sim.sandboxes[&1].state(), SandboxState::Abandoned);
        assert_eq!(sim.pending.front(), Some((2, 1)), "FIFO head preserved");
        // With the host still full, a retry must short-circuit on
        // `can_fit` — one skip, one reject, exactly what the oracle's
        // failed placement would have tallied.
        let rejects_before = sim.scheduler.placement_rejects;
        sim.retry_pending(6);
        assert_eq!(sim.stats.shard_retries_skipped, 1);
        assert_eq!(sim.scheduler.placement_rejects, rejects_before + 1);
        assert!(sim.pending.contains(2), "stuck head stays parked");
        // Capacity frees: the parked survivor places on the next retry.
        sim.transition(0, Lifecycle::Depart { at: 7 });
        sim.retry_pending(8);
        assert!(sim.pending.is_empty());
        assert_eq!(sim.sandboxes[&2].state(), SandboxState::Running(0));
        assert_eq!((sim.stats.live_now, sim.scheduler.est_live(0)), (1, 1));
        // The host refuses the admit: the claim goes back and the sandbox
        // is parked again; a second, stale refusal then moves nothing.
        let refused = Lifecycle::Refused {
            host: 0,
            migration: false,
        };
        sim.transition(2, refused);
        assert_eq!(sim.sandboxes[&2].state(), SandboxState::Pending);
        assert_eq!(sim.pending.front(), Some((2, 1)));
        assert_eq!((sim.stats.live_now, sim.scheduler.est_live(0)), (0, 0));
        assert_eq!(sim.scheduler.est_free_groups(0), 7, "claim released");
        sim.transition(2, refused);
        assert_eq!((sim.stats.admit_fails, sim.pending.len()), (2, 1));
        assert_eq!(sim.scheduler.est_free_groups(0), 7, "released once");
        // An event the state does not expect is an orphan.
        sim.transition(1, Lifecycle::Migrate { at: 9 });
        assert_eq!(sim.stats.orphan_events, 1);
        sim.transition(2, Lifecycle::Drain);
        assert_eq!(sim.sandboxes[&2].state(), SandboxState::Abandoned);
        assert_eq!(sim.stats.abandoned_pending, 2);
        assert!(sim.pending.is_empty());
    }

    #[test]
    fn host_refusals_roll_back_and_conserve_every_sandbox() {
        // Two two-socket evaluation hosts under GiB-sized sandboxes: the
        // scheduler counts a host's free groups across both sockets while
        // the hypervisor wants one socket per VM, so hosts refuse admits
        // the scheduler placed — the Running → Pending rollback no soak
        // reaches.
        let contended = || {
            let mut s = ClusterScenario::quick(9, ClusterPolicy::BinPack);
            s.hosts = 2;
            s.host_config = siloz::SilozConfig::evaluation();
            s.target_sandboxes = 60;
            s.vm_bytes_min = 8 << 30;
            s.vm_bytes_max = 96 << 30;
            s.mean_lifetime = 400.0;
            s.attack_prob = 0.0;
            s
        };
        let mut sim = ClusterSim::new(contended(), 1).unwrap();
        let report = sim.run_to_completion().unwrap();
        assert!(report.admit_fails > 0, "{report:?}");
        assert!(report.migration_fails > 0, "{report:?}");
        assert!(report.clean(), "{report:?}");
        assert!(sim.verify_cluster().is_empty());
        assert_eq!(report.final_live, 0);
        assert_eq!(report.groups_claimed, 0, "every claim drained");
        assert_eq!(
            report.sandboxes,
            report.departures + report.final_live + report.abandoned_pending
        );
        // A Migrate fires before 0.8 of the lease and so always finds its
        // sandbox running or pending: each one is completed, refused by
        // the destination, or skipped — never two of those.
        let (trace, _) = crate::events::generate_cluster_trace(&contended());
        let migrates = trace
            .iter()
            .filter(|e| e.kind == ClusterEventKind::Migrate)
            .count() as u64;
        assert_eq!(
            report.migrations + report.migration_fails + report.migration_skips,
            migrates
        );
        let moved: u64 = sim
            .sandboxes
            .values()
            .map(|r| u64::from(r.migrations))
            .sum();
        assert_eq!(moved, report.migrations, "per-record and cluster tallies");
        assert_eq!(
            run_cluster(contended(), 2, &Registry::new()).unwrap(),
            report,
            "2 workers"
        );
        let mut oracle = contended();
        oracle.indexed_scheduler = false;
        assert_eq!(
            run_cluster(oracle, 1, &Registry::new()).unwrap(),
            report,
            "linear-scan oracle"
        );
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
