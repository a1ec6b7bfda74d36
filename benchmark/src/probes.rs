//! Layer probes: each layer's public API driven directly, on the
//! workload's own configuration and generated inputs.
//!
//! Probes run after the timed loop of a traced run. They boot fresh
//! hypervisors with the workload's config and replay its VM requests,
//! guest generators and slice shape through one layer at a time, so each
//! unit cost is measured where the end-to-end loop would pay it. Every
//! probe records `run → probe → layer call` spans, and samples into
//! [`Observations`] under the metric's own name, already in the metric's
//! unit — so the result file's `distributions` section shows what each
//! figure was summarised from.

use crate::measure::{mean, median};
use crate::trace::Tracer;
use crate::workload::{Observations, ProbeInputs, Roster, VmShape};
use dram::{DimmProfile, DramSystem, DramSystemBuilder};
use dram_addr::{BankId, DecodeTlb, RepairMap};
use hammer::FuzzConfig;
use memctrl::MemoryController;
use mitigation::{Backend, DomainPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use siloz::{Hypervisor, HypervisorKind, SilozError, VmHandle, VmSpec};
use sim::{GuestLedger, TraceCache, TraceShape};
use std::collections::VecDeque;
use workloads::{WorkloadGen, EXEC_TIME_SUITE_LEN};

/// 2 MiB, the granularity VM requests and expansions are rounded to.
const HUGE_PAGE_BYTES: u64 = 2 << 20;

/// VM requests replayed by the lifecycle probes (the trace's first ones).
const LIFECYCLE_VMS: usize = 96;

/// VMs kept live while replaying requests, so creation runs against an
/// occupied host as it does mid-churn.
const LIVE_WINDOW: usize = 3;

/// How a probe metric summarises the samples recorded under its name.
#[derive(Clone, Copy)]
enum Stat {
    /// Per-call latencies: the median.
    Median,
    /// Unit costs that get multiplied by counts, and exact counts: the mean.
    Mean,
}

/// Every metric the probes yield, and how it is summarised.
const PROBE_METRICS: &[(&str, Stat)] = &[
    ("siloz.boot_ms", Stat::Median),
    ("siloz.create_vm_us_p50", Stat::Median),
    ("siloz.destroy_vm_us_p50", Stat::Median),
    ("siloz.expand_vm_us_p50", Stat::Median),
    ("siloz.migrate_block_ms", Stat::Mean),
    ("siloz.copy_phys_ns_per_kib", Stat::Median),
    ("numa.buddy_alloc_free_ns", Stat::Mean),
    ("numa.claim_release_ns", Stat::Mean),
    ("ept.translate_ns", Stat::Mean),
    ("dram-addr.decode_tlb_ns", Stat::Mean),
    ("workloads.draw_ns_per_op", Stat::Mean),
    ("sim.compile_ns_per_op", Stat::Mean),
    ("sim.bind_ns_per_op", Stat::Mean),
    ("sim.cell_cold_ms_p50", Stat::Median),
    ("sim.cell_warm_us_p50", Stat::Median),
    ("memctrl.replay_ns_per_op", Stat::Mean),
    ("memctrl.run_trace_ns_per_op", Stat::Mean),
    ("memctrl.hooked_replay_ns_per_act", Stat::Mean),
    ("memctrl.row_hit_frac", Stat::Mean),
    ("dram.burst_ns_per_act", Stat::Mean),
    ("dram.row_write_ns_per_kib", Stat::Mean),
    ("hammer.campaign_ms", Stat::Mean),
    ("hammer.campaign_defended_ms", Stat::Mean),
    ("hammer.acts_per_campaign", Stat::Mean),
    ("mitigation.on_act_ns", Stat::Mean),
    ("analysis.live_proof_us", Stat::Median),
    ("cluster.scheduler_place_ns", Stat::Mean),
    ("telemetry.export_ms", Stat::Median),
    ("telemetry.encode_us_per_metric", Stat::Median),
];

/// Whether a lifecycle call was refused for capacity, as a full host
/// refuses mid-churn (`Numa(_)` is the baseline allocator's form of it).
fn refused(e: &SilozError) -> bool {
    matches!(
        e,
        SilozError::InsufficientCapacity { .. } | SilozError::Numa(_)
    )
}

/// The DRAM device the fleet engine builds for a host: vulnerable
/// evaluation DIMMs behind deployed TRR.
fn build_dram(inputs: &ProbeInputs) -> DramSystem {
    DramSystemBuilder::new(inputs.config.geometry)
        .internal_map(inputs.config.internal_map)
        .profiles(DimmProfile::evaluation_dimms())
        .trr(4, 2)
        .build()
}

/// Boots a host the way `FleetSim::new` does for the workload's backend.
fn boot(inputs: &ProbeInputs) -> Result<Hypervisor, SilozError> {
    let kind = match inputs.backend.domain_policy() {
        DomainPolicy::IsolationDomains => HypervisorKind::Siloz,
        DomainPolicy::Shared => HypervisorKind::Baseline,
    };
    Hypervisor::boot_with(
        inputs.config.clone(),
        kind,
        build_dram(inputs),
        RepairMap::new(),
    )
}

/// A freshly booted host running one VM of the trace's first shape.
fn host_with_vm(inputs: &ProbeInputs) -> Result<(Hypervisor, VmHandle), SilozError> {
    let mut hv = boot(inputs)?;
    let vm = hv.create_vm(spec(0, inputs.vms[0]))?;
    Ok((hv, vm))
}

fn spec(i: usize, shape: VmShape) -> VmSpec {
    VmSpec::new(&format!("probe{i}"), shape.vcpus, shape.mem_bytes)
}

/// The trace's first VM requests, numbered.
fn requests(inputs: &ProbeInputs) -> impl Iterator<Item = (usize, VmShape)> + '_ {
    inputs.vms.iter().copied().take(LIFECYCLE_VMS).enumerate()
}

/// The fleet generator's growth-burst rule: half the VM, 2 MiB-rounded.
fn expand_bytes(shape: VmShape) -> u64 {
    (shape.mem_bytes / 2).div_ceil(HUGE_PAGE_BYTES).max(1) * HUGE_PAGE_BYTES
}

/// The `i`-th guest load generator of the workload's roster.
fn generator(inputs: &ProbeInputs, i: usize) -> Box<dyn WorkloadGen> {
    match inputs.roster {
        Roster::FleetTenants => workloads::fleet_tenant_workload(i as u32, inputs.working_set),
        Roster::ExecTimeSuite => workloads::exec_time_workload(i, inputs.working_set),
    }
}

/// Snapshots and JSON-encodes `reg`, sampling the per-metric encode cost.
pub fn sample_encode(reg: &telemetry::Registry, tracer: &mut Tracer, obs: &mut Observations) {
    let ((metrics, json), ns) = tracer.timed("telemetry.encode", "telemetry", || {
        let snap = reg.snapshot();
        (snap.metric_count(), snap.to_json())
    });
    std::hint::black_box(json);
    if metrics > 0 {
        obs.sample("telemetry.encode_us_per_metric", ns / 1e3 / metrics as f64);
    }
}

/// `1.0` if the call succeeded, `0.0` if not: refused calls go unsampled.
fn succeeded<T, E>(r: &Result<T, E>) -> f64 {
    f64::from(u8::from(r.is_ok()))
}

/// What every probe works with: the workload's inputs, the span recorder
/// and the sample store.
struct Probe<'a> {
    inputs: &'a ProbeInputs,
    tracer: &'a mut Tracer,
    obs: &'a mut Observations,
}

// Probe methods carry a `probe_` prefix: the analysis gates' call graph
// is name-based, and a wall-clock-tainted `attack` or `dram` here would
// smear onto the simulator's own methods of those names.
impl Probe<'_> {
    /// Times `f` as one traced call into `layer`. `f` returns its result
    /// and how many units of work it did; the time per unit, scaled from
    /// nanoseconds by `unit_ns` (1e3 for µs, …), is sampled under
    /// `metric`. Zero units sample nothing.
    fn measure<T>(
        &mut self,
        metric: &'static str,
        layer: &'static str,
        unit_ns: f64,
        f: impl FnOnce() -> (T, f64),
    ) -> T {
        let ((out, units), ns) = self.tracer.timed(metric, layer, f);
        if units > 0.0 {
            self.obs.sample(metric, ns / unit_ns / units);
        }
        out
    }

    /// `siloz`: boot, VM lifecycle on the trace's own requests, block
    /// migration and the physical copy under it.
    fn probe_siloz(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let mut boot_once = || self.measure("siloz.boot_ms", "siloz", 1e6, || (boot(inputs), 1.0));
        boot_once()?;
        boot_once()?;
        let mut hv = boot_once()?;

        let mut live: VecDeque<VmHandle> = VecDeque::new();
        for (i, shape) in requests(inputs) {
            let created = self.measure("siloz.create_vm_us_p50", "siloz", 1e3, || {
                let r = hv.create_vm(spec(i, shape));
                let units = succeeded(&r);
                (r, units)
            });
            match created {
                Ok(vm) => live.push_back(vm),
                Err(e) if refused(&e) => {}
                Err(e) => return Err(e),
            }
            if let Some(&vm) = live.back() {
                let grown = self.measure("siloz.expand_vm_us_p50", "siloz", 1e3, || {
                    let r = hv.expand_vm(vm, expand_bytes(shape));
                    let units = succeeded(&r);
                    (r, units)
                });
                match grown {
                    Err(e) if !refused(&e) => return Err(e),
                    _ => {}
                }
            }
            while live.len() > LIVE_WINDOW {
                let vm = live.pop_front().expect("non-empty");
                self.measure("siloz.destroy_vm_us_p50", "siloz", 1e3, || {
                    (hv.destroy_vm(vm), 1.0)
                })?;
            }
        }
        for vm in live {
            self.measure("siloz.destroy_vm_us_p50", "siloz", 1e3, || {
                (hv.destroy_vm(vm), 1.0)
            })?;
        }

        // Block migration (defrag / Copy-on-Flip). A block moves only if
        // its node has a spare block of the same order, so walk the
        // trace's requests until enough of them had one.
        let mut moved = 0;
        for (i, shape) in requests(inputs) {
            if moved >= 12 {
                break;
            }
            let vm = match hv.create_vm(spec(i, shape)) {
                Ok(vm) => vm,
                Err(e) if refused(&e) => continue,
                Err(e) => return Err(e),
            };
            for block in hv.vm_unmediated_backing(vm)?.iter().rev().take(4) {
                let migrated = self.measure("siloz.migrate_block_ms", "siloz", 1e6, || {
                    let r = hv.migrate_block(vm, block.gpa);
                    let units = succeeded(&r);
                    (r, units)
                });
                match migrated {
                    Ok(()) => moved += 1,
                    // The VM exactly fills its groups: nothing to move into.
                    Err(SilozError::Numa(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            hv.destroy_vm(vm)?;
        }

        // The physical copy a migration performs, block to block.
        let vm = hv.create_vm(spec(0, inputs.vms[0]))?;
        let blocks = hv.vm_unmediated_backing(vm)?;
        for pair in blocks.chunks_exact(2).take(4) {
            let (src_hpa, dst_hpa) = (pair[0].hpa(), pair[1].hpa());
            let len = pair[0].bytes().min(pair[1].bytes());
            self.measure("siloz.copy_phys_ns_per_kib", "siloz", 1.0, || {
                (hv.copy_phys(src_hpa, dst_hpa, len), len as f64 / 1024.0)
            })?;
        }
        Ok(())
    }

    /// `numa`: the buddy allocator and the claim map, on the trace's
    /// request sizes.
    fn probe_numa(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let config = &inputs.config;
        let group_bytes = config.subarray_group_bytes();
        let socket_frames = config.geometry.socket_bytes() / numa::FRAME_BYTES;
        let groups = config.groups_per_socket() * u32::from(config.geometry.sockets);

        let mut buddy = numa::BuddyAllocator::new(&[0..socket_frames]);
        self.measure("numa.buddy_alloc_free_ns", "numa", 1.0, || {
            let mut pairs = 0usize;
            let mut held = Vec::new();
            for (_, shape) in requests(inputs) {
                for _ in 0..shape.mem_bytes / HUGE_PAGE_BYTES {
                    held.extend(buddy.alloc(numa::ORDER_2M));
                }
                pairs += held.len();
                for frame in held.drain(..) {
                    buddy
                        .free(frame, numa::ORDER_2M)
                        .expect("freeing a block this probe allocated");
                }
            }
            ((), pairs as f64)
        });

        let mut claims = numa::ClaimMap::new(groups as usize);
        self.measure("numa.claim_release_ns", "numa", 1.0, || {
            let mut claimed = 0u64;
            for round in 0..64 {
                for (i, shape) in requests(inputs) {
                    let tenant = round * LIFECYCLE_VMS as u32 + i as u32;
                    let need = shape.mem_bytes.div_ceil(group_bytes) as u32;
                    for g in 0..need {
                        claimed += u64::from(claims.claim(tenant, (i as u32 * 5 + g) % groups));
                    }
                    claims.release_tenant(tenant);
                }
            }
            ((), claimed as f64)
        });
        Ok(())
    }

    /// The guest-trace pipeline — `workloads` draw, `sim` compile and
    /// bind, `memctrl` replay (plain, hooked, uncompiled), `dram-addr`
    /// decode and `ept` translate — on one VM of the trace's first shape.
    fn probe_guest_pipeline(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let (mut hv, vm) = host_with_vm(inputs)?;
        // The engines' own clamps on a guest's vCPU streams.
        let vcpus = inputs.vms[0].vcpus;
        let (roster_len, threads) = match inputs.roster {
            Roster::FleetTenants => (8, vcpus.clamp(1, 4) as u16),
            Roster::ExecTimeSuite => (EXEC_TIME_SUITE_LEN, vcpus.clamp(1, 16) as u16),
        };
        let ops = inputs.ops;
        let per_op = ops as f64;
        let controller =
            |hv: &Hypervisor| MemoryController::new(hv.decoder().clone()).without_physics();

        for i in 0..roster_len {
            let seed = inputs.seed ^ ((i as u64) << 17);
            let mut workload = generator(inputs, i);
            let mut rng = StdRng::seed_from_u64(seed);
            let guest_ops = self.measure("workloads.draw_ns_per_op", "workloads", 1.0, || {
                (workload.generate(ops, &mut rng), per_op)
            });
            let ledger = self.measure("sim.compile_ns_per_op", "sim", 1.0, || {
                (GuestLedger::compile(&guest_ops, threads), per_op)
            });
            let program = self.measure("sim.bind_ns_per_op", "sim", 1.0, || {
                (sim::vm_compiled(&hv, vm, &ledger, 0), per_op)
            })?;

            let mut ctrl = controller(&hv);
            self.measure("memctrl.replay_ns_per_op", "memctrl", 1.0, || {
                std::hint::black_box(ctrl.run_compiled(hv.dram_mut(), &program));
                ((), per_op)
            });
            self.obs
                .sample("memctrl.row_hit_frac", ctrl.stats().hit_rate());

            let hook = Backend::BlockHammer
                .controller_hook()
                .expect("BlockHammer acts in the controller");
            let mut ctrl = controller(&hv).with_mitigation(hook);
            self.measure("memctrl.hooked_replay_ns_per_act", "memctrl", 1.0, || {
                std::hint::black_box(ctrl.run_compiled(hv.dram_mut(), &program));
                let stats = ctrl.stats();
                ((), (stats.row_misses + stats.row_conflicts) as f64)
            });

            // The uncompiled path: the same draw, expanded to physical ops.
            let trace_shape = TraceShape {
                ops,
                threads,
                thread_base: 0,
                seed,
            };
            let mem_ops = sim::vm_trace(&hv, vm, generator(inputs, i).as_mut(), &trace_shape)?;
            let mut tlb = DecodeTlb::new(hv.decoder().clone());
            self.measure("dram-addr.decode_tlb_ns", "dram-addr", 1.0, || {
                for op in &mem_ops {
                    std::hint::black_box(tlb.decode(op.phys).ok());
                }
                ((), mem_ops.len() as f64)
            });
            let mut ctrl = controller(&hv);
            self.measure("memctrl.run_trace_ns_per_op", "memctrl", 1.0, || {
                let n = mem_ops.len() as f64;
                std::hint::black_box(ctrl.run_trace(hv.dram_mut(), mem_ops));
                ((), n)
            });
        }

        let blocks = hv.vm_unmediated_backing(vm)?;
        self.measure("ept.translate_ns", "ept", 1.0, || {
            let mut walks = 0u64;
            let mut walk_all = || -> Result<(), SilozError> {
                for _ in 0..8 {
                    for block in &blocks {
                        for page in 0..16 {
                            hv.translate(vm, block.gpa + page * numa::FRAME_BYTES)?;
                            walks += 1;
                        }
                    }
                }
                Ok(())
            };
            let walked = walk_all();
            (walked, walks as f64)
        })
    }

    /// `sim`: whole Fig. 4 cells under the workload's configuration,
    /// against an empty cache and then against the cache they populated.
    fn probe_cells(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let cache = TraceCache::new();
        for round in 0..12 {
            let (metric, unit_ns) = if round == 0 {
                ("sim.cell_cold_ms_p50", 1e6)
            } else {
                ("sim.cell_warm_us_p50", 1e3)
            };
            for i in 0..EXEC_TIME_SUITE_LEN {
                let mut workload = workloads::exec_time_workload(i, inputs.cell.working_set);
                for kind in [HypervisorKind::Baseline, HypervisorKind::Siloz] {
                    self.measure(metric, "sim", unit_ns, || {
                        let value = sim::run_workload_compiled(
                            &inputs.config,
                            kind,
                            workload.as_mut(),
                            &inputs.cell,
                            inputs.seed,
                            &cache,
                        );
                        (value, 1.0)
                    })?;
                }
            }
        }
        Ok(())
    }

    /// `dram`: raw activation bursts (the hammer inner loop) and
    /// first-touch row writes (what a block copy costs the device).
    fn probe_dram(&mut self) -> Result<(), SilozError> {
        let mut dram = build_dram(self.inputs);
        let geometry = self.inputs.config.geometry;
        self.measure("dram.burst_ns_per_act", "dram", 1.0, || {
            let mut acts = 0u64;
            for _ in 0..60_000 {
                for (row, count) in [(100, 2), (102, 1), (104, 3), (106, 1)] {
                    dram.activate_burst(BankId(0), row, count, 0);
                    acts += count;
                }
                dram.advance_ns(7 * 47);
            }
            ((), acts as f64)
        });

        let payload = vec![0xa5u8; geometry.row_bytes as usize];
        let rows = 2_048.min(geometry.rows_per_bank);
        self.measure("dram.row_write_ns_per_kib", "dram", 1.0, || {
            for row in 0..rows {
                dram.write_row(BankId(1), row, 0, &payload);
            }
            ((), f64::from(rows) * payload.len() as f64 / 1024.0)
        });
        Ok(())
    }

    /// `hammer` and `mitigation`: one fleet campaign undefended, one
    /// behind BlockHammer, and the per-ACT hook on its own.
    fn probe_attack(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let campaign = FuzzConfig::fleet_campaign();
        let rng = || StdRng::seed_from_u64(inputs.seed ^ 0xa77a_c000);

        let (mut hv, vm) = host_with_vm(inputs)?;
        let report = self.measure("hammer.campaign_ms", "hammer", 1e6, || {
            (hammer::hammer_vm(&mut hv, vm, 1, campaign, &mut rng()), 1.0)
        })?;
        self.obs
            .sample("hammer.acts_per_campaign", report.acts as f64);

        let (mut hv, vm) = host_with_vm(inputs)?;
        let mut defense = Backend::BlockHammer.build();
        self.measure("hammer.campaign_defended_ms", "hammer", 1e6, || {
            let report = hammer::hammer_vm_defended(
                &mut hv,
                vm,
                1,
                campaign,
                &mut rng(),
                defense.as_mut(),
                0,
            );
            (report, 1.0)
        })?;

        let mut hook = Backend::BlockHammer.build();
        self.measure("mitigation.on_act_ns", "mitigation", 1.0, || {
            let calls = 2_000_000u64;
            let mut now_ps = 0u64;
            for k in 0..calls {
                let row = 100 + (k % 7) as u32 * 2;
                now_ps += 47_000 + hook.on_act(0, row, 0, now_ps);
                if k % 166 == 165 {
                    hook.on_refresh(now_ps);
                }
            }
            ((), calls as f64)
        });
        Ok(())
    }

    /// `analysis`: the full §4.1 proof over a host filled to capacity
    /// with the trace's own requests.
    fn probe_proof(&mut self) -> Result<(), SilozError> {
        let mut hv = boot(self.inputs)?;
        for (i, shape) in requests(self.inputs) {
            match hv.create_vm(spec(i, shape)) {
                Err(e) if !refused(&e) => return Err(e),
                _ => {}
            }
        }
        for _ in 0..5 {
            self.measure("analysis.live_proof_us", "analysis", 1e3, || {
                std::hint::black_box(analysis::isolation::verify_live_placements(&hv));
                ((), 1.0)
            });
        }
        Ok(())
    }

    /// `cluster`: the scheduler alone, placing and releasing the trace's
    /// own requests across the workload's host count at soak density.
    fn probe_scheduler(&mut self) -> Result<(), SilozError> {
        let inputs = self.inputs;
        let occupancy = boot(inputs)?.occupancy();
        let free = (occupancy.total() - occupancy.claimed()) as i64;
        let hosts = inputs.hosts as usize;
        let mut scheduler = cluster::ClusterScheduler::new(
            cluster::ClusterPolicy::Spread,
            inputs.config.subarray_group_bytes(),
            &vec![free; hosts],
        );
        // ~700 live sandboxes per 256 hosts, the soak's steady state.
        let window = (hosts * 700).div_ceil(256);
        self.measure("cluster.scheduler_place_ns", "cluster", 1.0, || {
            let mut live: VecDeque<(usize, u32, u64)> = VecDeque::new();
            let mut placed = 0u64;
            for (i, shape) in inputs.vms.iter().enumerate() {
                let affinity = i as u32 % cluster::events::AFFINITY_CLASSES;
                if let Some(host) = scheduler.place(affinity, shape.mem_bytes, None) {
                    live.push_back((host, affinity, shape.mem_bytes));
                    placed += 1;
                }
                if live.len() > window {
                    let (host, affinity, mem_bytes) = live.pop_front().expect("non-empty");
                    scheduler.release(host, affinity, mem_bytes);
                }
            }
            for (host, affinity, mem_bytes) in live {
                scheduler.release(host, affinity, mem_bytes);
            }
            ((), placed as f64)
        });
        Ok(())
    }

    /// `telemetry`: exporting and encoding a host's whole stack, for
    /// workloads whose passes leave no engine behind to export from.
    fn probe_telemetry(&mut self) -> Result<(), SilozError> {
        let (hv, _) = host_with_vm(self.inputs)?;
        let ctrl = MemoryController::new(hv.decoder().clone()).without_physics();
        let reg = telemetry::Registry::new();
        self.measure("telemetry.export_ms", "telemetry", 1e6, || {
            ctrl.export_telemetry(&reg.child("ctrl"));
            hv.dram().export_telemetry(&reg.child("dram"));
            hv.export_telemetry(&reg.child("hv"));
            ((), 1.0)
        });
        sample_encode(&reg, self.tracer, self.obs);
        Ok(())
    }
}

/// Runs every layer probe on `inputs` and returns the probe metrics.
/// `obs` carries the telemetry samples the workload's own passes took (and
/// receives the probe's, if they took none).
pub fn probe_layers<'a>(
    inputs: &'a ProbeInputs,
    tracer: &'a mut Tracer,
    obs: &'a mut Observations,
) -> Result<Vec<(&'static str, f64)>, SilozError> {
    type ProbeFn<'a> = fn(&mut Probe<'a>) -> Result<(), SilozError>;
    let probes: [(&str, ProbeFn<'a>); 8] = [
        ("probe.siloz", Probe::probe_siloz),
        ("probe.numa", Probe::probe_numa),
        ("probe.guest_pipeline", Probe::probe_guest_pipeline),
        ("probe.cells", Probe::probe_cells),
        ("probe.dram", Probe::probe_dram),
        ("probe.attack", Probe::probe_attack),
        ("probe.proof", Probe::probe_proof),
        ("probe.scheduler", Probe::probe_scheduler),
    ];
    let mut p = Probe {
        inputs,
        tracer,
        obs,
    };
    let own_export = p.obs.samples("telemetry.export_ms").is_empty();
    let last: &[(&str, ProbeFn<'a>)] = if own_export {
        &[("probe.telemetry", Probe::probe_telemetry)]
    } else {
        &[]
    };
    for (name, probe) in probes.iter().chain(last) {
        let id = p.tracer.open(name, "process");
        let outcome = probe(&mut p);
        p.tracer.close(id, 1, None);
        outcome?;
    }
    Ok(PROBE_METRICS
        .iter()
        .map(|&(metric, stat)| {
            let samples = p.obs.samples(metric);
            let value = match stat {
                Stat::Median => median(samples),
                Stat::Mean => mean(samples),
            };
            (metric, value)
        })
        .collect())
}
