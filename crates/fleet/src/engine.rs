//! The discrete-event fleet engine.
//!
//! [`FleetSim`] drains an [`EventQueue`] against a live [`Hypervisor`],
//! maintaining the central §4.1 invariant — *no two live VMs share a
//! subarray group* — at **every** event boundary. In
//! [`CheckMode::Incremental`] the engine keeps a dense group→tenant
//! ownership map and re-checks only what an event touched (with periodic
//! full proofs); in [`CheckMode::FullProof`] it re-proves the whole host
//! after each event via [`analysis::isolation::verify_live_placements`].

use crate::events::{CheckMode, Event, EventKind, Scenario};
use crate::policy::{AdmissionControl, PendingVm};
use crate::queue::EventQueue;
use crate::report::FleetReport;
use analysis::isolation::verify_live_placements;
use dram::{DimmProfile, DramSystemBuilder};
use dram_addr::RepairMap;
use hammer::FuzzConfig;
use memctrl::{CompiledTrace, MemoryController};
use mitigation::DomainPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use siloz::{GroupId, Hypervisor, HypervisorKind, SilozError, VmHandle};
use sim::GuestLedger;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Max violation messages retained verbatim (the total is always counted).
const VIOLATION_SAMPLES: usize = 16;

/// Everything the engine knows about one live tenant. Inserted when its VM
/// goes live and removed whole at departure, so nothing tenant-keyed can
/// outlive the VM.
struct Tenant {
    handle: VmHandle,
    vcpus: u32,
    /// Rotation cursor for defragmentation sweeps.
    defrag_cursor: u32,
    /// The group claims the last slow boundary check derived from the
    /// hypervisor. `None` marks the tenant dirty — its backing may have
    /// changed since — which forces the next check down the slow path.
    groups: Option<Vec<GroupId>>,
    /// Compiled load-generator ledgers by slice length (the thread count
    /// follows from `vcpus`). Backing-independent: fetched from the trace
    /// cache once per tenant life, so a readmitted or migrated tenant
    /// re-binds what an earlier life compiled.
    ledgers: BTreeMap<u32, Arc<GuestLedger>>,
    /// Ledgers bound to the tenant's *current* backing, same key. Cleared
    /// whenever an event moves the tenant's memory.
    programs: BTreeMap<u32, CompiledTrace>,
}

/// Counters accumulated over a run.
#[derive(Debug, Default, Clone)]
pub struct FleetStats {
    /// Events dequeued and dispatched.
    pub events_processed: u64,
    /// Tenant arrival events.
    pub arrivals: u64,
    /// VMs destroyed.
    pub departures: u64,
    /// Successful growth bursts.
    pub expansions: u64,
    /// Growth bursts denied for capacity.
    pub expand_denials: u64,
    /// Workload slices executed.
    pub slices: u64,
    /// Total memory operations across slices.
    pub slice_ops: u64,
    /// Tenant ledgers compiled (config-independent; reused across respawns).
    pub ledger_compiles: u64,
    /// Ledger→backing binds (re-done only when a tenant's backing changes).
    pub program_binds: u64,
    /// Attack campaigns launched.
    pub attacks: u64,
    /// Flips induced by attacks (anywhere).
    pub attack_flips: u64,
    /// Flips that escaped the aggressor's domain (must stay 0 under Siloz).
    pub attack_escapes: u64,
    /// Defragmentation sweeps run.
    pub defrag_sweeps: u64,
    /// Blocks migrated by defragmentation.
    pub defrag_migrations: u64,
    /// Defrag migrations skipped because the node had no spare block.
    pub defrag_oom: u64,
    /// Copy-on-Flip response passes run.
    pub cof_runs: u64,
    /// Blocks migrated by Copy-on-Flip.
    pub cof_migrated: u64,
    /// Corrected errors observed by Copy-on-Flip scrubs.
    pub cof_corrected: u64,
    /// Copy-on-Flip passes aborted because migration found no spare block.
    pub cof_oom: u64,
    /// Events targeting tenants that were never admitted or already left.
    pub orphan_events: u64,
    /// Peak simultaneously-live VMs.
    pub peak_live: u64,
    /// Arrivals vetoed outright by the mitigation backend.
    pub admission_vetoes: u64,
    /// Incremental boundary checks performed.
    pub incremental_checks: u64,
    /// Incremental checks satisfied from the clean-tenant fast path (pure
    /// ownership-map lookups, no hypervisor re-derivation).
    pub incremental_fast_checks: u64,
    /// Full isolation proofs performed.
    pub full_proofs: u64,
    /// Isolation violations detected (must stay 0 under Siloz).
    pub violations_total: u64,
    /// Wall-clock nanoseconds spent inside isolation checks and proofs.
    /// Volatile (scheduling-dependent): exported as a volatile counter,
    /// never part of [`FleetReport`] — `benchmark/` reads it as
    /// `fleet.check_us_per_event` and `fleet.full_proof_us`.
    pub check_wall_ns: u64,
    /// First few violation messages, verbatim.
    pub violation_samples: Vec<String>,
}

/// [`AdmissionControl::admit_now`] or [`AdmissionControl::admit_or_defer`].
type Place =
    fn(&mut AdmissionControl, &mut Hypervisor, PendingVm) -> Result<Option<VmHandle>, SilozError>;

impl FleetStats {
    fn violation(&mut self, msg: String) {
        self.violations_total += 1;
        if self.violation_samples.len() < VIOLATION_SAMPLES {
            self.violation_samples.push(msg);
        }
    }
}

/// The simulator: a hypervisor, a memory controller, an event queue, and
/// the admission controller, advanced one event at a time.
pub struct FleetSim {
    scenario: Scenario,
    hv: Hypervisor,
    ctrl: MemoryController,
    queue: EventQueue,
    admission: AdmissionControl,
    tenants: BTreeMap<u32, Tenant>,
    /// Persistent interval map of group→tenant claims, indexed by
    /// `GroupId.0`: O(1) point lookup, O(touched) tenant release,
    /// O(1) claim census for the full proof.
    claims: numa::ClaimMap,
    /// The deployed defense's controller-side state (rivals only; `None`
    /// for the `none` and `siloz` backends, whose fast path stays intact).
    defense: Option<Box<dyn mitigation::Mitigation>>,
    /// Ledger memoization: private to this host until
    /// [`FleetSim::set_trace_cache`] installs a cluster-wide one, through
    /// which a tenant migrated across hosts re-binds its existing compiled
    /// trace instead of regenerating it.
    cache: Arc<sim::TraceCache>,
    stats: FleetStats,
    events_since_proof: u32,
}

impl FleetSim {
    /// Boots the host described by the scenario and loads its
    /// pre-generated trace. The DRAM is built vulnerable (evaluation DIMM
    /// profiles, deployed TRR) so injected attacks actually flip bits.
    ///
    /// The scenario's [`mitigation::Backend`] decides the hypervisor kind:
    /// `Siloz` boots with isolation domains (and the engine proves the
    /// §4.1 invariant at every boundary); every other backend boots the
    /// shared baseline, so flips may escape and the per-backend report
    /// records how many its controller hook contained.
    pub fn new(scenario: Scenario) -> Result<Self, SilozError> {
        let dram = DramSystemBuilder::new(scenario.config.geometry)
            .internal_map(scenario.config.internal_map)
            .profiles(DimmProfile::evaluation_dimms())
            .trr(4, 2)
            .build();
        let kind = match scenario.mitigation.domain_policy() {
            DomainPolicy::IsolationDomains => HypervisorKind::Siloz,
            DomainPolicy::Shared => HypervisorKind::Baseline,
        };
        let defense = scenario.mitigation.controller_hook();
        let mut hv = Hypervisor::boot_with(scenario.config.clone(), kind, dram, RepairMap::new())?;
        hv.set_placement_strategy(scenario.strategy);
        let ctrl = MemoryController::new(hv.decoder().clone()).without_physics();
        let (events, next_seq) = crate::events::generate_trace(&scenario);
        let queue = EventQueue::new(events, next_seq);
        let admission = AdmissionControl::new(scenario.defer_cap);
        let claims = numa::ClaimMap::new(hv.groups().groups().len());
        Ok(Self {
            scenario,
            hv,
            ctrl,
            queue,
            admission,
            tenants: BTreeMap::new(),
            claims,
            defense,
            cache: Arc::new(sim::TraceCache::new()),
            stats: FleetStats::default(),
            events_since_proof: 0,
        })
    }

    /// The hypervisor under simulation.
    #[must_use]
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// Stats so far.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The admission controller's accounting.
    #[must_use]
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Live VM count.
    #[must_use]
    pub fn live_vms(&self) -> usize {
        self.tenants.len()
    }

    /// Schedules one dynamic event (internal departures; property tests
    /// use it to drive arbitrary traces through the engine).
    pub fn inject(&mut self, at: u64, tenant: u32, kind: EventKind) {
        self.queue.push(|seq| Event {
            at,
            seq,
            tenant,
            kind,
        });
    }

    /// Replaces the live defense state (tests and experiments that need a
    /// custom [`mitigation::Mitigation`], e.g. an admission-vetoing one).
    pub fn set_defense(&mut self, defense: Box<dyn mitigation::Mitigation>) {
        self.defense = Some(defense);
    }

    /// Whether the isolation prover applies: only the Siloz backend makes
    /// the §4.1 claim. The prover stays Siloz-only-aware — on a shared
    /// baseline there is no group-exclusivity invariant to check, and
    /// escaped flips are a measured outcome, not a violation.
    fn proves_isolation(&self) -> bool {
        self.scenario.mitigation.domain_policy() == DomainPolicy::IsolationDomains
    }

    /// Incremental boundary check for one tenant: its claimed groups must
    /// be exclusively its own in the ownership map (`allow_claims` lets an
    /// admission/expansion record new claims), and both endpoints of every
    /// unmediated backing block must decode into one of those groups.
    ///
    /// A tenant whose backing has not changed since its last slow check
    /// (its cached claim list is present) is verified from that list with
    /// pure ownership-map lookups — no hypervisor re-derivation. Events
    /// that move memory drop the list (via
    /// [`FleetSim::invalidate_programs`]), forcing the slow path, which
    /// re-derives the claims and caches them again.
    fn check_tenant(&mut self, tenant: u32, allow_claims: bool) -> Result<(), SilozError> {
        if !self.proves_isolation() {
            return Ok(());
        }
        let t = std::time::Instant::now();
        let out = self.check_tenant_inner(tenant, allow_claims);
        self.stats.check_wall_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn check_tenant_inner(&mut self, tenant: u32, allow_claims: bool) -> Result<(), SilozError> {
        let Some(t) = self.tenants.get_mut(&tenant) else {
            return Ok(());
        };
        self.stats.incremental_checks += 1;
        if let (false, Some(cached)) = (allow_claims, &t.groups) {
            self.stats.incremental_fast_checks += 1;
            for gid in cached {
                match self.claims.owner_of(gid.0) {
                    Some(owner) if owner == tenant => {}
                    other => self.stats.violation(format!(
                        "cached group {} of tenant {tenant} is owned by {other:?}",
                        gid.0
                    )),
                }
            }
            return Ok(());
        }
        let groups = self.hv.vm_groups(t.handle)?;
        for gid in &groups {
            match self.claims.owner_of(gid.0) {
                None if allow_claims => {
                    self.claims.claim(tenant, gid.0);
                }
                None => self.stats.violation(format!(
                    "tenant {tenant} holds unclaimed group {} after a non-claiming event",
                    gid.0
                )),
                Some(owner) if owner == tenant => {}
                Some(owner) => self.stats.violation(format!(
                    "group {} owned by tenant {owner} but claimed by tenant {tenant}",
                    gid.0
                )),
            }
        }
        let blocks = self.hv.vm_unmediated_backing(t.handle)?;
        for block in &blocks {
            for phys in [block.hpa(), block.hpa() + block.bytes() - 1] {
                match self.hv.groups().group_of_phys(phys) {
                    Ok(g) if groups.contains(&g) => {}
                    got => self.stats.violation(format!(
                        "tenant {tenant} block at {phys:#x} resolves to {got:?}, outside its groups"
                    )),
                }
            }
        }
        t.groups = Some(groups);
        Ok(())
    }

    /// Full proof: re-derives every live VM's claims and backing from the
    /// hypervisor and cross-checks the incremental ownership map against
    /// it.
    fn full_proof(&mut self) {
        if !self.proves_isolation() {
            return;
        }
        let t = std::time::Instant::now();
        self.stats.full_proofs += 1;
        let proof = verify_live_placements(&self.hv);
        for v in proof.violations {
            self.stats.violation(format!("full proof: {v}"));
        }
        let mapped = self.claims.claimed_total();
        if mapped != proof.group_claims {
            self.stats.violation(format!(
                "ownership map tracks {mapped} claims but the hypervisor proves {}",
                proof.group_claims
            ));
        }
        self.stats.check_wall_ns += t.elapsed().as_nanos() as u64;
    }

    /// The one way a request becomes a live tenant: the defence may veto
    /// it, `place` (the admission controller's deferring or non-deferring
    /// primitive) asks the hypervisor for a VM, and a placed VM goes live.
    /// `None` means vetoed or refused for capacity.
    fn admit_via(&mut self, vm: PendingVm, place: Place) -> Result<Option<VmHandle>, SilozError> {
        if let Some(d) = self.defense.as_deref_mut() {
            if !d.admit(vm.tenant, vm.mem_bytes) {
                self.stats.admission_vetoes += 1;
                self.admission.rejections += 1;
                return Ok(None);
            }
        }
        let Some(handle) = place(&mut self.admission, &mut self.hv, vm)? else {
            return Ok(None);
        };
        self.go_live(vm, handle)?;
        Ok(Some(handle))
    }

    fn admit(&mut self, now: u64, vm: PendingVm) -> Result<(), SilozError> {
        let placed = self.admit_via(vm, AdmissionControl::admit_or_defer)?;
        if placed.is_some() {
            self.inject(now + vm.lifetime, vm.tenant, EventKind::Depart);
        }
        Ok(())
    }

    /// Records a freshly placed VM as live — a new record starts dirty, with
    /// nothing bound — and runs the claiming admission-boundary check.
    /// Shared by arrivals and deferred re-admissions, so both leave the
    /// incremental prover's state identical.
    fn go_live(&mut self, vm: PendingVm, handle: VmHandle) -> Result<(), SilozError> {
        self.tenants.insert(
            vm.tenant,
            Tenant {
                handle,
                vcpus: vm.vcpus,
                defrag_cursor: 0,
                groups: None,
                ledgers: BTreeMap::new(),
                programs: BTreeMap::new(),
            },
        );
        self.stats.peak_live = self.stats.peak_live.max(self.tenants.len() as u64);
        self.check_tenant(vm.tenant, true)
    }

    fn depart(&mut self, now: u64, tenant: u32) -> Result<(), SilozError> {
        if !self.depart_external(tenant)? {
            return Ok(());
        }
        // Freed capacity: retry the deferred queue in arrival order.
        let readmitted = self.admission.retry_deferred(&mut self.hv)?;
        for (pending, handle) in readmitted {
            self.inject(now + pending.lifetime, pending.tenant, EventKind::Depart);
            self.go_live(pending, handle)?;
        }
        Ok(())
    }

    fn expand(&mut self, tenant: u32, extra_bytes: u64) -> Result<(), SilozError> {
        let Some(handle) = self.tenants.get(&tenant).map(|t| t.handle) else {
            self.stats.orphan_events += 1;
            return Ok(());
        };
        match self.hv.expand_vm(handle, extra_bytes) {
            Ok(()) => {
                self.stats.expansions += 1;
                self.invalidate_programs(tenant);
                self.check_tenant(tenant, true)?;
            }
            // Refused for capacity: `expand_vm` left the host as it was.
            Err(e) if e.is_capacity() => {
                self.stats.expand_denials += 1;
                self.check_tenant(tenant, false)?;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Drops a tenant's bound replay programs and marks it dirty for the
    /// incremental checker. Called whenever an event moves a live tenant's
    /// backing (expansion, defrag or Copy-on-Flip migration); the next
    /// slice re-binds the tenant's ledger against the new backing, and the
    /// next boundary check re-derives its claims from the hypervisor.
    /// Ledgers themselves are backing-independent and never invalidated.
    fn invalidate_programs(&mut self, tenant: u32) {
        if let Some(t) = self.tenants.get_mut(&tenant) {
            t.programs.clear();
            t.groups = None;
        }
    }

    /// Replays one load-generator slice for `tenant`. The tenant's guest
    /// trace is a fixed draw — seeded by `(scenario seed, tenant)` — so it
    /// compiles to a [`GuestLedger`] exactly once and each slice replays
    /// the pre-bound program through the controller; only a backing change
    /// forces a re-bind.
    fn slice(&mut self, tenant: u32, ops: u32) -> Result<(), SilozError> {
        let Some(t) = self.tenants.get_mut(&tenant) else {
            self.stats.orphan_events += 1;
            return Ok(());
        };
        let threads = t.vcpus.clamp(1, 4) as u16;
        let ledger = match t.ledgers.entry(ops) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(slot) => {
                let working_set = self.scenario.slice_working_set;
                let seed = self.scenario.seed ^ (u64::from(tenant) << 17);
                let mut workload = workloads::fleet_tenant_workload(tenant, working_set);
                let name = workload.name();
                // When two hosts of one cluster race to compile the same
                // migrated tenant's ledger inside a barrier epoch, only the
                // host whose build won the cache insert counts the compile:
                // the cluster-wide total stays 1 for any worker count.
                let mut mine: Option<Arc<GuestLedger>> = None;
                let build = || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let ledger =
                        GuestLedger::generate(workload.as_mut(), ops as usize, threads, &mut rng);
                    mine.insert(Arc::new(ledger)).clone()
                };
                let got =
                    self.cache
                        .guest_ledger(&name, working_set, ops as usize, threads, seed, build);
                if mine.is_some_and(|m| Arc::ptr_eq(&m, &got)) {
                    self.stats.ledger_compiles += 1;
                }
                slot.insert(got)
            }
        };
        if !t.programs.contains_key(&ops) {
            let thread_base = ((u64::from(tenant) * 16) % 65536) as u16;
            let program = sim::vm_compiled(&self.hv, t.handle, ledger, thread_base)?;
            t.programs.insert(ops, program);
            self.stats.program_binds += 1;
        }
        let _ = self
            .ctrl
            .run_compiled(self.hv.dram_mut(), &t.programs[&ops]);
        self.ctrl.sync_dram_time(self.hv.dram_mut());
        self.stats.slices += 1;
        self.stats.slice_ops += u64::from(ops);
        self.check_tenant(tenant, false)?;
        Ok(())
    }

    fn attack(&mut self, tenant: u32, ev: &Event) -> Result<(), SilozError> {
        let Some(handle) = self.tenants.get(&tenant).map(|t| t.handle) else {
            self.stats.orphan_events += 1;
            return Ok(());
        };
        let mut rng = StdRng::seed_from_u64(
            self.scenario.seed ^ 0xa77a_c000 ^ (u64::from(tenant) << 20) ^ ev.seq,
        );
        let mut campaign = FuzzConfig::fleet_campaign();
        campaign.extra_open_ns = self.scenario.attack_open_ns;
        let report = match self.defense.as_deref_mut() {
            Some(d) => hammer::hammer_vm_defended(
                &mut self.hv,
                handle,
                1,
                campaign,
                &mut rng,
                d,
                (tenant % u64::from(u16::MAX) as u32) as u16,
            )?,
            None => hammer::hammer_vm(&mut self.hv, handle, 1, campaign, &mut rng)?,
        };
        self.stats.attacks += 1;
        self.stats.attack_flips += report.flips_total as u64;
        self.stats.attack_escapes += report.escapes.len() as u64;
        if self.proves_isolation() && !report.escapes.is_empty() {
            self.stats.violation(format!(
                "attack by tenant {tenant} escaped its domain: {} flips outside",
                report.escapes.len()
            ));
        }
        if self.scenario.copy_on_flip {
            // The host's §3-style response: one colocated victim (the
            // lowest live tenant id that is not the aggressor) runs a
            // Copy-on-Flip pass over the scrub results.
            let victim = self
                .tenants
                .iter()
                .find(|(&t, _)| t != tenant)
                .map(|(&t, v)| (t, v.handle));
            if let Some((vt, vh)) = victim {
                let max = self.scenario.cof_max_migrations;
                match siloz::defenses::copy_on_flip_respond(&mut self.hv, vh, max) {
                    Ok(r) => {
                        self.stats.cof_runs += 1;
                        self.stats.cof_migrated += r.migrated_blocks as u64;
                        self.stats.cof_corrected += r.corrected_errors as u64;
                        if r.migrated_blocks > 0 {
                            self.invalidate_programs(vt);
                        }
                        self.check_tenant(vt, false)?;
                    }
                    // A fully-packed node has no spare block to copy into;
                    // the defense simply cannot act (§3's availability
                    // caveat).
                    Err(e) if e.is_capacity() => self.stats.cof_oom += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        self.check_tenant(tenant, false)?;
        Ok(())
    }

    fn defrag(&mut self) -> Result<(), SilozError> {
        self.stats.defrag_sweeps += 1;
        let mut budget = self.scenario.defrag_per_sweep;
        let tenants: Vec<u32> = self.tenants.keys().copied().collect();
        for tenant in tenants {
            if budget == 0 {
                break;
            }
            let Some(t) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            let handle = t.handle;
            let blocks = self.hv.vm_unmediated_backing(handle)?;
            if blocks.is_empty() {
                continue;
            }
            let gpa = blocks[t.defrag_cursor as usize % blocks.len()].gpa;
            t.defrag_cursor = t.defrag_cursor.wrapping_add(1);
            match self.hv.migrate_block(handle, gpa) {
                Ok(()) => {
                    self.stats.defrag_migrations += 1;
                    self.invalidate_programs(tenant);
                    budget -= 1;
                }
                // The VM exactly fills its groups: nothing to compact.
                Err(e) if e.is_capacity() => self.stats.defrag_oom += 1,
                Err(e) => return Err(e),
            }
            self.check_tenant(tenant, false)?;
        }
        Ok(())
    }

    /// Dispatches one event and re-establishes the isolation invariant at
    /// its boundary. Returns `false` once the queue is drained.
    pub fn step(&mut self) -> Result<bool, SilozError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(false);
        };
        self.stats.events_processed += 1;
        match ev.kind {
            EventKind::Arrive {
                mem_bytes,
                vcpus,
                lifetime,
            } => {
                self.stats.arrivals += 1;
                self.admit(
                    ev.at,
                    PendingVm {
                        tenant: ev.tenant,
                        mem_bytes,
                        vcpus,
                        lifetime,
                    },
                )?;
            }
            EventKind::Depart => self.depart(ev.at, ev.tenant)?,
            EventKind::Expand { extra_bytes } => self.expand(ev.tenant, extra_bytes)?,
            EventKind::Slice { ops } => self.slice(ev.tenant, ops)?,
            EventKind::Attack => self.attack(ev.tenant, &ev)?,
            EventKind::Defrag => self.defrag()?,
        }
        debug_assert_eq!(
            self.admission.admitted + self.admission.deferred_admits,
            self.stats.departures + self.tenants.len() as u64,
            "every admitted VM is departed or live"
        );
        match self.scenario.check {
            CheckMode::FullProof => self.full_proof(),
            CheckMode::Incremental => {
                self.events_since_proof += 1;
                if self.events_since_proof >= self.scenario.proof_period {
                    self.events_since_proof = 0;
                    self.full_proof();
                }
            }
        }
        Ok(true)
    }

    // ---- External-driver hooks -------------------------------------
    //
    // A cluster-level scheduler (`crates/cluster`) owns sandbox lifecycles
    // across many hosts: it steps each host's queue up to a barrier
    // horizon and drives admissions/departures directly, without the
    // engine's own deferral queue or auto-scheduled departures. The hooks
    // below are what the internal event paths themselves run (arrival is
    // `admit_via`, departure is `depart_external` plus a deferred-queue
    // retry), so a cross-host migration (external depart + external admit)
    // stays on the incremental checking path on both hosts.

    /// Replaces this host's private trace cache with a shared cross-host
    /// one. Subsequent slices look up their [`GuestLedger`] there before
    /// compiling, so a tenant migrated from another host (same cluster
    /// seed) reuses its compiled trace.
    pub fn set_trace_cache(&mut self, cache: Arc<sim::TraceCache>) {
        self.cache = cache;
    }

    /// Whether `tenant` currently holds a live VM on this host.
    #[must_use]
    pub fn is_live(&self, tenant: u32) -> bool {
        self.tenants.contains_key(&tenant)
    }

    /// Tenants currently live on this host, ascending. A cluster-level
    /// driver cross-checks this against its own placement records at
    /// every sync barrier.
    #[must_use]
    pub fn live_tenants(&self) -> Vec<u32> {
        self.tenants.keys().copied().collect()
    }

    /// Events still queued on this host.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Admits a VM on behalf of an external scheduler. Unlike the internal
    /// [`EventKind::Arrive`] path this never defers (the cluster scheduler
    /// owns retry policy) and never schedules an internal departure (the
    /// cluster queue owns the sandbox lifecycle). The mitigation backend's
    /// admission veto and the incremental boundary check run exactly as
    /// for an internal arrival. Returns `None` on a veto or capacity
    /// rejection; non-capacity errors propagate.
    pub fn admit_external(&mut self, vm: PendingVm) -> Result<Option<VmHandle>, SilozError> {
        self.admit_via(vm, AdmissionControl::admit_now)
    }

    /// Departs a tenant on behalf of an external scheduler: destroys the
    /// VM and drops the tenant's record and ownership-map claims — every
    /// trace the engine keeps of it. This *is* the first half of an
    /// internal departure; only the retry of this host's deferred queue is
    /// left out (the cluster scheduler owns placement retries). Returns
    /// whether the tenant was live here.
    pub fn depart_external(&mut self, tenant: u32) -> Result<bool, SilozError> {
        let Some(t) = self.tenants.remove(&tenant) else {
            self.stats.orphan_events += 1;
            return Ok(false);
        };
        self.hv.destroy_vm(t.handle)?;
        self.stats.departures += 1;
        self.claims.release_tenant(tenant);
        Ok(true)
    }

    /// Dispatches every queued event with `at <= horizon`, in `(at, seq)`
    /// order, and returns how many ran. The barrier primitive for an
    /// external driver: later events stay queued untouched.
    pub fn step_until(&mut self, horizon: u64) -> Result<u64, SilozError> {
        let mut ran = 0u64;
        while self.queue.peek().is_some_and(|e| e.at <= horizon) {
            if !self.step()? {
                break;
            }
            ran += 1;
        }
        Ok(ran)
    }

    /// Runs one full isolation proof right now (a no-op on a shared
    /// baseline). External drivers call this at cluster-wide sync points
    /// on every touched host.
    pub fn full_proof_now(&mut self) {
        self.full_proof();
    }

    /// Drains the queue, then runs a final full proof and builds the
    /// report.
    pub fn run_to_completion(&mut self) -> Result<FleetReport, SilozError> {
        while self.step()? {}
        self.full_proof();
        Ok(self.report())
    }

    /// Snapshots the run into a [`FleetReport`].
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let occ = self.hv.occupancy();
        FleetReport {
            strategy: self.scenario.strategy.name(),
            mitigation: self.scenario.mitigation.name(),
            seed: self.scenario.seed,
            events_processed: self.stats.events_processed,
            arrivals: self.stats.arrivals,
            admitted: self.admission.admitted,
            deferred_admits: self.admission.deferred_admits,
            rejections: self.admission.rejections,
            abandoned: self.admission.abandoned,
            departures: self.stats.departures,
            expansions: self.stats.expansions,
            expand_denials: self.stats.expand_denials,
            slices: self.stats.slices,
            attacks: self.stats.attacks,
            attack_flips: self.stats.attack_flips,
            attack_escapes: self.stats.attack_escapes,
            defrag_migrations: self.stats.defrag_migrations,
            cof_migrated: self.stats.cof_migrated,
            orphan_events: self.stats.orphan_events,
            peak_live: self.stats.peak_live,
            final_live: self.tenants.len() as u64,
            groups_total: occ.total(),
            groups_claimed: occ.claimed(),
            fragmentation_pct: occ.fragmentation_pct(),
            admission_vetoes: self.stats.admission_vetoes,
            incremental_checks: self.stats.incremental_checks,
            incremental_fast_checks: self.stats.incremental_fast_checks,
            full_proofs: self.stats.full_proofs,
            violations_total: self.stats.violations_total,
            violation_samples: self.stats.violation_samples.clone(),
        }
    }

    /// Exports run telemetry: `fleet` (engine counters), `hv`, `ctrl`, and
    /// `dram` children.
    pub fn export_telemetry(&self, reg: &telemetry::Registry) {
        let fleet = reg.child("fleet");
        fleet
            .counter("events_processed")
            .add(self.stats.events_processed);
        fleet.counter("arrivals").add(self.stats.arrivals);
        fleet.counter("admissions").add(self.admission.admitted);
        fleet
            .counter("admissions_deferred")
            .add(self.admission.deferred_admits);
        fleet.counter("rejections").add(self.admission.rejections);
        fleet.counter("abandoned").add(self.admission.abandoned);
        fleet.counter("departures").add(self.stats.departures);
        fleet.counter("expansions").add(self.stats.expansions);
        fleet
            .counter("expand_denials")
            .add(self.stats.expand_denials);
        fleet.counter("slices").add(self.stats.slices);
        fleet.counter("slice_ops").add(self.stats.slice_ops);
        fleet
            .counter("ledger_compiles")
            .add(self.stats.ledger_compiles);
        fleet.counter("program_binds").add(self.stats.program_binds);
        fleet.counter("attacks").add(self.stats.attacks);
        fleet.counter("attack_flips").add(self.stats.attack_flips);
        fleet
            .counter("attack_escapes")
            .add(self.stats.attack_escapes);
        fleet.counter("defrag_sweeps").add(self.stats.defrag_sweeps);
        fleet
            .counter("defrag_migrations")
            .add(self.stats.defrag_migrations);
        fleet.counter("defrag_oom").add(self.stats.defrag_oom);
        fleet.counter("cof_runs").add(self.stats.cof_runs);
        fleet.counter("cof_migrated").add(self.stats.cof_migrated);
        fleet.counter("cof_corrected").add(self.stats.cof_corrected);
        fleet.counter("cof_oom").add(self.stats.cof_oom);
        fleet.counter("orphan_events").add(self.stats.orphan_events);
        fleet
            .counter("admission_vetoes")
            .add(self.stats.admission_vetoes);
        fleet
            .counter("isolation_checks")
            .add(self.stats.incremental_checks);
        fleet
            .counter("isolation_checks_fast")
            .add(self.stats.incremental_fast_checks);
        fleet
            .counter("isolation_proofs")
            .add(self.stats.full_proofs);
        fleet
            .counter("isolation_violations")
            .add(self.stats.violations_total);
        fleet
            .counter_volatile("check_wall_ns")
            .add(self.stats.check_wall_ns);
        fleet.counter("claim_releases").add(self.claims.releases);
        fleet
            .counter("claim_released_groups")
            .add(self.claims.released_groups);
        fleet.gauge("live_vms").add(self.tenants.len() as i64);
        fleet
            .gauge("peak_live_vms")
            .add(self.stats.peak_live as i64);
        fleet
            .gauge("deferred_pending")
            .add(self.admission.deferred_len() as i64);
        self.hv.export_telemetry(&reg.child("hv"));
        self.ctrl.export_telemetry(&reg.child("ctrl"));
        self.hv.dram().export_telemetry(&reg.child("dram"));
        if let Some(d) = self.defense.as_deref() {
            d.export_telemetry(&reg.child("mitigation"));
        }
    }
}

/// Runs a scenario end to end, exports run telemetry into `reg` (children:
/// `fleet`, `hv`, `ctrl`, `dram`) and returns its report.
pub fn run_fleet(scenario: Scenario, reg: &telemetry::Registry) -> Result<FleetReport, SilozError> {
    let mut sim = FleetSim::new(scenario)?;
    let report = sim.run_to_completion()?;
    sim.export_telemetry(reg);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa::PlacementStrategy;
    use telemetry::Registry;

    fn tiny(strategy: PlacementStrategy) -> Scenario {
        let mut s = Scenario::quick(5, strategy);
        s.target_events = 120;
        s.attack_prob = 0.05;
        s
    }

    #[test]
    fn quick_fleet_run_is_clean_under_every_strategy() {
        for strategy in PlacementStrategy::ALL {
            let report = run_fleet(tiny(strategy), &Registry::new()).unwrap();
            assert_eq!(report.violations_total, 0, "{report:?}");
            assert_eq!(report.attack_escapes, 0);
            assert!(report.events_processed >= 120);
            assert!(report.admitted > 0);
            assert!(report.full_proofs > 0);
            assert_eq!(report.strategy, strategy.name());
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_fleet(tiny(PlacementStrategy::BestFit), &Registry::new()).unwrap();
        let b = run_fleet(tiny(PlacementStrategy::BestFit), &Registry::new()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn full_proof_mode_checks_every_event() {
        let mut s = tiny(PlacementStrategy::FirstFit);
        s.target_events = 40;
        s.check = CheckMode::FullProof;
        s.attack_prob = 0.0;
        let report = run_fleet(s, &Registry::new()).unwrap();
        // One proof per event plus the final one.
        assert_eq!(report.full_proofs, report.events_processed + 1);
        assert_eq!(report.violations_total, 0);
    }

    #[test]
    fn incremental_fast_path_kicks_in_without_changing_history() {
        // The clean-tenant fast path must be invisible to everything except
        // checking cost: same admissions, same departures, same attack
        // outcomes as re-proving every event, with most incremental checks
        // served from the cache.
        let mut inc = tiny(PlacementStrategy::FirstFit);
        inc.target_events = 200;
        let mut full = inc.clone();
        full.check = CheckMode::FullProof;
        let a = run_fleet(inc, &Registry::new()).unwrap();
        let b = run_fleet(full, &Registry::new()).unwrap();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.attack_flips, b.attack_flips);
        assert_eq!(a.violations_total, 0);
        assert_eq!(b.violations_total, 0);
        assert!(
            a.incremental_fast_checks >= a.incremental_checks / 3,
            "a healthy share of boundary checks must hit the fast path: {} of {}",
            a.incremental_fast_checks,
            a.incremental_checks
        );
    }

    #[test]
    fn shared_backends_skip_the_isolation_prover() {
        let mut s = tiny(PlacementStrategy::FirstFit);
        s.target_events = 80;
        s.mitigation = mitigation::Backend::None;
        let report = run_fleet(s, &Registry::new()).unwrap();
        assert_eq!(report.mitigation, "none");
        assert_eq!(report.full_proofs, 0, "no §4.1 claim on the baseline");
        assert_eq!(report.incremental_checks, 0);
        assert_eq!(report.violations_total, 0);
        assert!(report.admitted > 0);
    }

    #[test]
    fn rival_backend_contains_flips_the_undefended_baseline_leaks() {
        let mk = |backend| {
            let mut s = tiny(PlacementStrategy::FirstFit);
            s.target_events = 160;
            s.attack_prob = 0.4;
            s.copy_on_flip = false;
            s.mitigation = backend;
            s
        };
        let undefended = run_fleet(mk(mitigation::Backend::None), &Registry::new()).unwrap();
        assert!(undefended.attacks > 0, "scenario must inject campaigns");
        assert!(undefended.attack_flips > 0, "undefended attacks must flip");
        let defended = run_fleet(mk(mitigation::Backend::BlockHammer), &Registry::new()).unwrap();
        assert_eq!(defended.mitigation, "blockhammer");
        assert_eq!(defended.attacks, undefended.attacks);
        assert!(
            defended.attack_flips < undefended.attack_flips,
            "BlockHammer must suppress flips: {} vs {}",
            defended.attack_flips,
            undefended.attack_flips
        );
    }

    #[test]
    fn defense_admission_veto_rejects_before_placement() {
        #[derive(Debug)]
        struct VetoAll;
        impl mitigation::Mitigation for VetoAll {
            fn name(&self) -> &'static str {
                "veto_all"
            }
            fn admit(&mut self, _tenant: u32, _mem_bytes: u64) -> bool {
                false
            }
            fn export_telemetry(&self, _reg: &telemetry::Registry) {}
        }
        let mut s = tiny(PlacementStrategy::FirstFit);
        s.target_events = 1;
        let mut sim = FleetSim::new(s).unwrap();
        sim.set_defense(Box::new(VetoAll));
        sim.inject(
            0,
            700,
            EventKind::Arrive {
                mem_bytes: 32 << 20,
                vcpus: 1,
                lifetime: 10,
            },
        );
        while sim.step().unwrap() {}
        let report = sim.report();
        assert!(report.admission_vetoes >= 1);
        assert!(report.rejections >= report.admission_vetoes);
        assert_eq!(sim.live_vms(), 0);
    }

    #[test]
    fn guard_pool_refusals_are_counted_denials_not_errors() {
        // An evaluation host whose socket-0 GFP_EPT pool has been drained:
        // growing a 2 MiB-backed VM across a 1 GiB GPA boundary needs a new
        // table page, and so does the EPT root of any new VM.
        let mut s = Scenario::soak(5, PlacementStrategy::FirstFit);
        s.target_events = 1;
        let mut sim = FleetSim::new(s).unwrap();
        let request = |tenant| PendingVm {
            tenant,
            mem_bytes: (1 << 30) - (2 << 20),
            vcpus: 1,
            lifetime: 1_000,
        };
        sim.admit(0, request(800)).unwrap();
        let handle = sim.tenants[&800].handle;
        while sim.hv.alloc_protected_table_page(handle).is_ok() {}

        sim.expand(800, 4 << 20).unwrap();
        assert_eq!((sim.stats.expansions, sim.stats.expand_denials), (0, 1));
        sim.admit(1, request(801)).unwrap();
        assert_eq!(sim.admission.rejections, 1);
        assert_eq!(sim.live_vms(), 1);
        sim.full_proof();
        assert_eq!(sim.stats.violations_total, 0, "{:?}", sim.stats);
        assert!(siloz::audit(&sim.hv).unwrap().is_healthy());
    }

    #[test]
    fn injected_events_drive_the_engine() {
        let mut s = tiny(PlacementStrategy::FirstFit);
        s.target_events = 1; // minimal pre-generated trace
        let mut sim = FleetSim::new(s).unwrap();
        sim.inject(
            0,
            900,
            EventKind::Arrive {
                mem_bytes: 64 << 20,
                vcpus: 2,
                lifetime: 50,
            },
        );
        sim.inject(10, 900, EventKind::Slice { ops: 200 });
        while sim.step().unwrap() {}
        assert!(sim.stats().slices >= 1);
        assert_eq!(sim.stats().violations_total, 0);
        assert_eq!(sim.live_vms(), 0, "departures must drain the fleet");
    }
}
