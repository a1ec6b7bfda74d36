//! Cross-cell memoization for trace compilation.
//!
//! An experiment grid re-measures the same `(workload, seed)` draw under
//! many configurations, and the same configuration under many draws. The
//! [`TraceCache`] deduplicates everything that is pure along each axis:
//!
//! - **ledgers** — one [`GuestLedger`] per `(workload, working-set, ops,
//!   threads, trace-seed)` tuple, shared by every configuration;
//! - **substrates** — one KV preload per `(substrate key, trace seed)`,
//!   shared by every workload mix over the same store (all six YCSB kinds
//!   run the identical load phase);
//! - **envs** — one booted hypervisor + VM backing map per configuration,
//!   shared by every draw measured under it;
//! - **replays** — one `CellOutcome` per (ledger, env) pair: compiled
//!   cells run with disturbance physics off against a fresh controller and
//!   scratch device, so the replay result and post-replay controller
//!   telemetry are a pure function of the pair, and a recurring
//!   measurement (the sensitivity reference arm, a regenerated figure) is
//!   never re-simulated. Per-cell noise is applied *after* the cache, so
//!   cells sharing an outcome still sample independent nuisance factors.
//!   The pre-decoded replay program is bound inside a replay miss and is
//!   not memoised: it has the same key as the outcome, so an outcome hit
//!   never needs it.
//!
//! Every cached value is a pure function of its key, so cache scheduling
//! never affects results: parallel grids stay bit-identical to serial ones
//! no matter which worker populates an entry first. A racing build does
//! duplicate work but adopts the first-inserted value.

use crate::compile::GuestLedger;
use crate::run::HpaMap;
use memctrl::{MemoryController, TraceResult};
use rand::rngs::StdRng;
use siloz::{Hypervisor, SilozError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use workloads::SubstrateSnapshot;

/// Ledger identity: `(workload name, working set, ops, threads, trace
/// seed)`.
pub(crate) type LedgerKey = (String, u64, usize, u16, u64);

/// Substrate-pool identity: `(substrate key, trace seed)`.
pub(crate) type SubstrateKey = (String, u64);

/// A booted measurement environment: the hypervisor (whose decoder and
/// telemetry the cell uses) and the VM's guest→HPA backing map. Immutable
/// once built — compiled replays run against a per-cell scratch device, so
/// one env is safely shared by every cell of its configuration.
pub(crate) struct BoundEnv {
    pub(crate) hv: Hypervisor,
    pub(crate) hpa: HpaMap,
}

/// The deterministic outcome of one compiled replay: the trace result and
/// the post-replay controller, whose exported telemetry the cell forwards.
/// Everything a cell derives from these (sample, stats, telemetry) is a
/// pure function of the (ledger, env) pair that produced them.
pub(crate) struct CellOutcome {
    pub(crate) result: TraceResult,
    pub(crate) ctrl: MemoryController,
}

/// The memoization store shared by all cells of an experiment grid (or by
/// consecutive grids, when the caller keeps it alive across them).
#[derive(Default)]
pub struct TraceCache {
    ledgers: Mutex<BTreeMap<LedgerKey, Arc<GuestLedger>>>,
    substrates: Mutex<BTreeMap<SubstrateKey, (SubstrateSnapshot, StdRng)>>,
    envs: Mutex<BTreeMap<String, Arc<BoundEnv>>>,
    replays: Mutex<BTreeMap<(LedgerKey, String), Arc<CellOutcome>>>,
}

impl TraceCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger for `key`, building (outside the lock) on first use.
    pub(crate) fn ledger(
        &self,
        key: &LedgerKey,
        build: impl FnOnce() -> Arc<GuestLedger>,
    ) -> Arc<GuestLedger> {
        if let Some(hit) = lock(&self.ledgers).get(key) {
            return hit.clone();
        }
        let built = build();
        lock(&self.ledgers)
            .entry(key.clone())
            .or_insert(built)
            .clone()
    }

    /// The ledger for a guest identified by its workload name, working
    /// set, op count, thread count, and trace seed — the public face of
    /// the ledger pool for external load generators (the fleet engine and
    /// the cluster simulator). Hosts sharing one cache reuse a migrated
    /// tenant's compiled ledger instead of regenerating it: the key is
    /// host-independent, so host A's compile serves host B's re-bind.
    pub fn guest_ledger(
        &self,
        name: &str,
        working_set: u64,
        ops: usize,
        threads: u16,
        seed: u64,
        build: impl FnOnce() -> Arc<GuestLedger>,
    ) -> Arc<GuestLedger> {
        let key: LedgerKey = (name.to_owned(), working_set, ops, threads, seed);
        self.ledger(&key, build)
    }

    /// The pooled substrate snapshot and post-load RNG for `key`, if one
    /// was stored.
    pub(crate) fn substrate(&self, key: &SubstrateKey) -> Option<(SubstrateSnapshot, StdRng)> {
        lock(&self.substrates).get(key).cloned()
    }

    /// Stores a freshly-built substrate (first writer wins).
    pub(crate) fn store_substrate(&self, key: SubstrateKey, snap: SubstrateSnapshot, rng: StdRng) {
        lock(&self.substrates).entry(key).or_insert((snap, rng));
    }

    /// The booted environment for `key`, booting on first use. Only
    /// successful boots are cached.
    pub(crate) fn env(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<BoundEnv, SilozError>,
    ) -> Result<Arc<BoundEnv>, SilozError> {
        if let Some(hit) = lock(&self.envs).get(key) {
            return Ok(hit.clone());
        }
        let built = Arc::new(build()?);
        Ok(lock(&self.envs)
            .entry(key.to_owned())
            .or_insert(built)
            .clone())
    }

    /// The replay outcome for `(ledger, env)`, simulating on first use.
    pub(crate) fn replay(
        &self,
        ledger: &LedgerKey,
        env: &str,
        build: impl FnOnce() -> Arc<CellOutcome>,
    ) -> Arc<CellOutcome> {
        let key = (ledger.clone(), env.to_owned());
        if let Some(hit) = lock(&self.replays).get(&key) {
            return hit.clone();
        }
        let built = build();
        lock(&self.replays).entry(key).or_insert(built).clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::GuestOp;

    #[test]
    fn ledger_entries_are_built_once_and_shared() {
        let cache = TraceCache::new();
        let key: LedgerKey = ("wl".into(), 1 << 20, 100, 2, 7);
        let mut builds = 0;
        let ops = [GuestOp::read(0), GuestOp::read(64)];
        let a = cache.ledger(&key, || {
            builds += 1;
            Arc::new(GuestLedger::compile(&ops, 2))
        });
        let b = cache.ledger(&key, || {
            builds += 1;
            Arc::new(GuestLedger::compile(&ops, 2))
        });
        assert_eq!(builds, 1, "second lookup must hit");
        assert!(Arc::ptr_eq(&a, &b));
        let other: LedgerKey = ("wl".into(), 1 << 20, 100, 2, 8);
        let c = cache.ledger(&other, || {
            builds += 1;
            Arc::new(GuestLedger::compile(&ops, 2))
        });
        assert_eq!(builds, 2, "different seed is a different entry");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn substrate_pool_first_writer_wins() {
        use rand::SeedableRng;
        let cache = TraceCache::new();
        let key: SubstrateKey = ("ycsb-kv/8388608".into(), 3);
        assert!(cache.substrate(&key).is_none());
        let mut store = workloads::kv::KvStore::new(1 << 16, 8);
        store.set(1, 100);
        let _ = store.take_trace();
        cache.store_substrate(
            key.clone(),
            SubstrateSnapshot::Kv(store),
            StdRng::seed_from_u64(1),
        );
        let (snap, _) = cache.substrate(&key).expect("stored");
        let SubstrateSnapshot::Kv(kv) = snap;
        assert_eq!(kv.items(), 1);
    }
}
