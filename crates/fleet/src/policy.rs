//! Admission control: group-aware placement with deferral.
//!
//! The placement *strategy* itself lives in the hypervisor
//! ([`numa::PlacementStrategy`], applied by `pick_nodes`); this module
//! wraps it with cloud-style admission mechanics — a bounded FIFO of
//! deferred requests retried on every departure, and per-outcome
//! accounting.

use siloz::{Hypervisor, SilozError, VmHandle, VmSpec};
use std::collections::VecDeque;

/// A tenant's VM request, queued until capacity frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingVm {
    /// Tenant id (names the VM's control group, `t{tenant}`).
    pub tenant: u32,
    /// Requested guest RAM, bytes.
    pub mem_bytes: u64,
    /// Requested vCPUs.
    pub vcpus: u32,
    /// Lifetime in ticks, counted from *admission*.
    pub lifetime: u64,
}

impl PendingVm {
    fn spec(&self) -> VmSpec {
        VmSpec::new(&format!("t{}", self.tenant), self.vcpus, self.mem_bytes)
    }
}

/// Asks the hypervisor for `vm`'s VM; `None` is a capacity refusal
/// ([`SilozError::is_capacity`]: no unclaimed groups under Siloz, a raw
/// allocator error under the baseline, a drained GFP_EPT pool under
/// either). `create_vm` rolls back partial allocations on failure, so the
/// host is as it was. Other errors propagate.
fn try_create(hv: &mut Hypervisor, vm: PendingVm) -> Result<Option<VmHandle>, SilozError> {
    match hv.create_vm(vm.spec()) {
        Ok(handle) => Ok(Some(handle)),
        Err(e) if e.is_capacity() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Admission controller with a bounded deferred queue.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    deferred: VecDeque<PendingVm>,
    cap: usize,
    /// Requests admitted on first try.
    pub admitted: u64,
    /// Requests admitted after deferral.
    pub deferred_admits: u64,
    /// Capacity rejections observed (each one defers the request).
    pub rejections: u64,
    /// Deferred requests dropped because the queue overflowed.
    pub abandoned: u64,
}

impl AdmissionControl {
    /// Creates a controller whose deferred queue holds up to `cap`
    /// requests.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Tries to admit `vm` now; on a capacity rejection the request joins
    /// the deferred queue (abandoning the oldest entry if full) and `None`
    /// is returned. Non-capacity errors propagate.
    pub fn admit_or_defer(
        &mut self,
        hv: &mut Hypervisor,
        vm: PendingVm,
    ) -> Result<Option<VmHandle>, SilozError> {
        let placed = self.admit_now(hv, vm)?;
        if placed.is_none() {
            if self.deferred.len() == self.cap {
                self.deferred.pop_front();
                self.abandoned += 1;
            }
            self.deferred.push_back(vm);
        }
        Ok(placed)
    }

    /// Tries to admit `vm` now, *without* deferral: a capacity rejection
    /// is counted and reported as `None`, leaving retry policy to the
    /// caller. This is the admission primitive for an external (cluster)
    /// scheduler, which runs its own placement retries across hosts and
    /// must not park requests in a host-local queue.
    pub fn admit_now(
        &mut self,
        hv: &mut Hypervisor,
        vm: PendingVm,
    ) -> Result<Option<VmHandle>, SilozError> {
        let placed = try_create(hv, vm)?;
        match placed {
            Some(_) => self.admitted += 1,
            None => self.rejections += 1,
        }
        Ok(placed)
    }

    /// Retries the deferred queue head-first after capacity freed up,
    /// admitting as many requests as now fit (strict FIFO: the first
    /// still-unplaceable request stops the scan, preserving arrival
    /// fairness). Returns the newly admitted VMs.
    pub fn retry_deferred(
        &mut self,
        hv: &mut Hypervisor,
    ) -> Result<Vec<(PendingVm, VmHandle)>, SilozError> {
        let mut admitted = Vec::new();
        while let Some(vm) = self.deferred.front().copied() {
            let Some(handle) = try_create(hv, vm)? else {
                break;
            };
            self.deferred.pop_front();
            self.deferred_admits += 1;
            admitted.push((vm, handle));
        }
        Ok(admitted)
    }

    /// Requests currently parked in the deferred queue.
    #[must_use]
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siloz::{HypervisorKind, SilozConfig};

    fn pending(tenant: u32, mem: u64) -> PendingVm {
        PendingVm {
            tenant,
            mem_bytes: mem,
            vcpus: 2,
            lifetime: 100,
        }
    }

    #[test]
    fn deferral_then_retry_after_departure() {
        // Mini machine: 7 guest groups × 128 MiB. Three 256 MiB VMs claim
        // 6 groups; a fourth defers, then lands once one departs.
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let mut ctl = AdmissionControl::new(4);
        let a = ctl
            .admit_or_defer(&mut hv, pending(0, 256 << 20))
            .unwrap()
            .unwrap();
        for t in 1..3 {
            ctl.admit_or_defer(&mut hv, pending(t, 256 << 20))
                .unwrap()
                .unwrap();
        }
        assert!(ctl
            .admit_or_defer(&mut hv, pending(3, 256 << 20))
            .unwrap()
            .is_none());
        assert_eq!(
            (ctl.admitted, ctl.rejections, ctl.deferred_len()),
            (3, 1, 1)
        );
        assert!(ctl.retry_deferred(&mut hv).unwrap().is_empty());
        hv.destroy_vm(a).unwrap();
        let back = ctl.retry_deferred(&mut hv).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0.tenant, 3);
        assert_eq!(ctl.deferred_admits, 1);
        assert_eq!(ctl.deferred_len(), 0);
    }

    #[test]
    fn overflow_abandons_the_oldest_request() {
        let mut hv = Hypervisor::boot(SilozConfig::mini(), HypervisorKind::Siloz).unwrap();
        let mut ctl = AdmissionControl::new(2);
        // Fill the machine so everything else defers.
        for t in 0..3 {
            ctl.admit_or_defer(&mut hv, pending(t, 256 << 20)).unwrap();
        }
        for t in 10..13 {
            assert!(ctl
                .admit_or_defer(&mut hv, pending(t, 512 << 20))
                .unwrap()
                .is_none());
        }
        assert_eq!(ctl.deferred_len(), 2);
        assert_eq!(ctl.abandoned, 1);
    }
}
