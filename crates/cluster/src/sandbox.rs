//! Sandbox records and the cluster's lifecycle state machine.
//!
//! One sandbox is one VM is one isolation-domain claim (the Kata model):
//! the cluster places it on exactly one host, where it materializes as a
//! fleet tenant holding its subarray groups exclusively. The record
//! tracks where the sandbox is in that lifecycle; the per-host engines
//! hold the authoritative hypervisor state, and the two views are
//! cross-checked at every sync barrier. `ClusterSim::transition` is the
//! only code that changes a record's state (DESIGN §4j has the table).

use crate::engine::{shard_mut, ClusterSim, HostCmd};
use crate::events::{ClusterEvent, ClusterEventKind, AFFINITY_CLASSES};
use fleet::PendingVm;

/// Where a sandbox is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxState {
    /// Awaiting placement: no host currently has capacity (or its last
    /// host admission failed). Retried FIFO at every epoch boundary.
    Pending,
    /// Live on exactly this host (index into the cluster's shard table).
    Running(usize),
    /// Departed normally: its domain claim has been released.
    Departed,
    /// Gave up: its departure fired while it was still pending, or the
    /// trace drained with the sandbox unplaceable.
    Abandoned,
}

/// One sandbox's request and lifecycle state.
#[derive(Debug, Clone, Copy)]
pub struct SandboxRecord {
    /// The request as handed to whichever host admits it: `vm.tenant` is
    /// the cluster-unique sandbox id and the fleet tenant id there.
    /// `vm.lifetime` is a lease scheduled at the first *attempted*
    /// placement: it keeps ticking while a host-refused sandbox is
    /// re-queued or a migrated one moves.
    pub vm: PendingVm,
    /// Co-location class (`id % AFFINITY_CLASSES`), the socket-affine
    /// policy's grouping key.
    pub affinity: u32,
    state: SandboxState,
    /// Completed cross-host migrations (the destination admitted).
    pub migrations: u32,
    /// Whether the lease end is already on the cluster queue (a re-placed
    /// refused admission must not schedule a second one).
    depart_scheduled: bool,
}

impl SandboxRecord {
    /// A fresh, not-yet-placed record for an arriving sandbox.
    #[must_use]
    pub fn new(vm: PendingVm) -> Self {
        Self {
            vm,
            affinity: vm.tenant % AFFINITY_CLASSES,
            state: SandboxState::Pending,
            migrations: 0,
            depart_scheduled: false,
        }
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> SandboxState {
        self.state
    }

    /// The host currently running this sandbox, if any.
    #[must_use]
    pub fn host(&self) -> Option<usize> {
        match self.state {
            SandboxState::Running(h) => Some(h),
            _ => None,
        }
    }
}

/// Everything that can happen to a sandbox once its record exists.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lifecycle {
    /// An arrival or a pending-queue retry asks the scheduler for a host.
    Place { at: u64 },
    /// The trace moves the sandbox to another host.
    Migrate { at: u64 },
    /// The lease ends.
    Depart { at: u64 },
    /// A migration's destination host admitted it (phase-3 reconcile).
    Migrated,
    /// `host` refused an admit command (phase-3 reconcile).
    Refused { host: usize, migration: bool },
    /// The trace drained with the sandbox still unplaceable.
    Drain,
}

impl ClusterSim {
    /// The one writer of sandbox state, scheduler releases, pending-queue
    /// membership, lease ends and the live/departed/abandoned/migrated
    /// counters: one `match` from (state, event) to the next state, then
    /// the books that follow from the edge taken. An event the state does
    /// not expect is an orphan and moves nothing.
    pub(crate) fn transition(&mut self, id: u32, event: Lifecycle) {
        use SandboxState::{Abandoned, Departed, Pending, Running};
        let Self {
            sandboxes,
            scheduler,
            pending,
            queue,
            stats,
            hosts,
            ..
        } = self;
        let Some(rec) = sandboxes.get_mut(&id) else {
            stats.orphan_events += 1;
            return;
        };
        let (vm, affinity, prev) = (rec.vm, rec.affinity, rec.state);
        let mut command = |host: usize, cmd| shard_mut(&mut hosts[host]).cmds.push(cmd);
        let next = match (prev, event) {
            (Pending, Lifecycle::Place { at }) => {
                match scheduler.place(affinity, vm.mem_bytes, None) {
                    Some(host) => {
                        let migration = false;
                        command(host, HostCmd::Admit { at, vm, migration });
                        if !rec.depart_scheduled {
                            rec.depart_scheduled = true;
                            queue.push(|seq| ClusterEvent {
                                at: at + vm.lifetime,
                                seq,
                                sandbox: id,
                                kind: ClusterEventKind::Depart,
                            });
                        }
                        Running(host)
                    }
                    None => Pending,
                }
            }
            (Running(src), Lifecycle::Migrate { at }) => {
                match scheduler.place(affinity, vm.mem_bytes, Some(src)) {
                    Some(dst) => {
                        command(src, HostCmd::Depart { at, tenant: id });
                        let migration = true;
                        command(dst, HostCmd::Admit { at, vm, migration });
                        Running(dst)
                    }
                    None => {
                        stats.migration_skips += 1;
                        prev
                    }
                }
            }
            (Pending, Lifecycle::Migrate { .. }) => {
                stats.migration_skips += 1;
                Pending
            }
            (Running(host), Lifecycle::Depart { at }) => {
                command(host, HostCmd::Depart { at, tenant: id });
                Departed
            }
            (Pending, Lifecycle::Depart { .. } | Lifecycle::Drain) => Abandoned,
            (_, Lifecycle::Migrated) => {
                rec.migrations += 1;
                stats.migrations += 1;
                prev
            }
            (_, Lifecycle::Refused { host, migration }) => {
                if migration {
                    stats.migration_fails += 1;
                } else {
                    stats.admit_fails += 1;
                }
                // Roll back only if the sandbox still thinks it runs
                // there: a same-epoch departure or onward migration already
                // moved the claim, and the refusal is then moot.
                if prev == Running(host) {
                    Pending
                } else {
                    prev
                }
            }
            _ => {
                stats.orphan_events += 1;
                prev
            }
        };
        rec.state = next;

        if next != prev {
            if let Running(host) = prev {
                scheduler.release(host, affinity, vm.mem_bytes);
            }
            match next {
                Departed => stats.departures += 1,
                Abandoned => stats.abandoned_pending += 1,
                Pending | Running(_) => {}
            }
        }
        let running = |s| u64::from(matches!(s, Running(_)));
        stats.live_now = stats.live_now + running(next) - running(prev);
        stats.peak_live = stats.peak_live.max(stats.live_now);
        if next != Pending {
            pending.remove(id);
        } else if !pending.contains(id) {
            // A fresh arrival no host fits, or a refused admission.
            pending.push_back(id, scheduler.groups_needed(vm.mem_bytes));
        }

        debug_assert_eq!(
            stats.sandboxes,
            stats.departures + stats.live_now + stats.abandoned_pending + pending.len() as u64,
            "every arrived sandbox is departed, live, abandoned or queued"
        );
        debug_assert_eq!(
            (0..scheduler.hosts())
                .map(|h| u64::from(scheduler.est_live(h)))
                .sum::<u64>(),
            stats.live_now,
            "the scheduler tracks exactly the live sandboxes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_start_pending_with_stable_affinity() {
        let r = SandboxRecord::new(PendingVm {
            tenant: 35,
            mem_bytes: 64 << 20,
            vcpus: 2,
            lifetime: 100,
        });
        assert_eq!(r.state, SandboxState::Pending);
        assert_eq!(r.affinity, 35 % AFFINITY_CLASSES);
        assert_eq!(r.host(), None);
        let running = SandboxRecord {
            state: SandboxState::Running(3),
            ..r
        };
        assert_eq!(running.host(), Some(3));
    }
}
