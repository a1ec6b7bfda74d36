//! Cross-cell memoization for trace compilation.
//!
//! An experiment grid re-measures the same `(workload, seed)` draw under
//! many configurations, and the same configuration under many draws. The
//! [`TraceCache`] deduplicates everything that is pure along each axis:
//!
//! - **ledgers** — one [`GuestLedger`] per `(workload, working-set, ops,
//!   threads, trace-seed)` tuple: the drawn ops as drawn, dealt to vCPU
//!   streams only at bind, shared by every configuration (an external
//!   load generator's draw keys `threads` as 0 and is re-dealt per
//!   tenant, see [`TraceCache::guest_ledger`]);
//! - **substrates** — one KV preload per `(substrate key, trace seed)`,
//!   shared by every workload mix over the same store (all six YCSB kinds
//!   run the identical load phase);
//! - **envs** — one booted hypervisor + VM backing map per `EnvKey` (the
//!   value of every axis the environment depends on), shared by every draw
//!   measured under it; each new key gets the next *env ordinal*;
//! - **replays** — one `CellOutcome` per (ledger, env ordinal) pair: compiled
//!   cells run with disturbance physics off against a fresh controller and
//!   scratch device, so the replay result and post-replay controller
//!   telemetry are a pure function of the pair, and a recurring
//!   measurement (the sensitivity reference arm, a regenerated figure) is
//!   never re-simulated. Per-cell noise is applied *after* the cache, so
//!   cells sharing an outcome still sample independent nuisance factors.
//!   The pre-decoded replay program is bound inside a replay miss and is
//!   not memoised: it has the same key as the outcome, so an outcome hit
//!   never needs it;
//! - **row translates** — on a replay miss, the cache first looks for the
//!   same ledger's outcome under another hook-less env with an equal
//!   decoder. If this env's backing is a row translate of that env's over
//!   the ledger's extent (`HpaMap::row_translates`), the bound program
//!   would be the other's with every row moved by one shift, on the same
//!   banks and with the same TLB counts. A replay with physics off and no
//!   hook reads a row only to compare it with the open row, so the outcome
//!   is the other's; it is stored under this pair's key. A Siloz cell on
//!   the evaluation host is its baseline cell moved up one subarray group
//!   in this way.
//!
//! Every cached value is a pure function of its key, so cache scheduling
//! never affects results: parallel grids stay bit-identical to serial ones
//! no matter which worker populates an entry first. A racing build does
//! duplicate work but adopts the first-inserted value.

use crate::compile::GuestLedger;
use crate::run::HpaMap;
use memctrl::{MemoryController, TraceResult};
use mitigation::Backend;
use rand::rngs::StdRng;
use siloz::{Hypervisor, HypervisorKind, SilozConfig, SilozError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};
use workloads::SubstrateSnapshot;

/// Ledger identity: `(workload name, working set, ops, threads, trace
/// seed)`; `threads` is 0 for a [`TraceCache::guest_ledger`] draw.
pub(crate) type LedgerKey = (String, u64, usize, u16, u64);

/// Substrate-pool identity: `(substrate key, trace seed)`.
pub(crate) type SubstrateKey = (String, u64);

/// Environment identity: every axis a cell's env and replay outcome depend
/// on. `hook` is the defense only if it installs a controller hook (a hooked
/// replay differs from an undefended one); other backends key as `None`.
#[derive(PartialEq, Eq)]
pub(crate) struct EnvKey {
    pub(crate) kind: HypervisorKind,
    pub(crate) vm_memory: u64,
    pub(crate) vcpus: u32,
    pub(crate) config: SilozConfig,
    pub(crate) hook: Option<Backend>,
}

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
///
/// A warm cell is a handful of lookups here, so the struct's layout is on
/// its path: one added 8-byte counter field, with no timed code changed,
/// once slowed a warm Fig. 4 cell from ~167 to ~186 ns (best of 7, on 2
/// cores). A counter here must be derived from stored state, as
/// [`Self::translated_replays`] is, not kept in a field.
#[derive(Default)]
pub struct TraceCache {
    ledgers: Mutex<BTreeMap<LedgerKey, Arc<GuestLedger>>>,
    substrates: Mutex<BTreeMap<SubstrateKey, (SubstrateSnapshot, StdRng)>>,
    /// Booted environments in boot order: an env's ordinal is its index.
    envs: Mutex<Vec<(EnvKey, Arc<BoundEnv>)>>,
    replays: Mutex<BTreeMap<(LedgerKey, usize), Arc<CellOutcome>>>,
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

    /// The draw for a guest identified by its workload name, working set,
    /// op count and trace seed — the public face of the ledger pool for
    /// external load generators (the fleet engine and the cluster
    /// simulator). The key is tenant-, host- and vCPU-independent: the
    /// fleet engine seeds a draw by draw class, not by tenant, and deals it
    /// at bind ([`GuestLedger::with_threads`]), so one compile serves every
    /// tenant of that class, on every host sharing the cache, including a
    /// migrated tenant's re-bind. Its deal slot keys as 0, which no figure
    /// cell uses (they deal across at least one vCPU), so a draw here never
    /// meets a figure ledger.
    pub fn guest_ledger(
        &self,
        name: &str,
        working_set: u64,
        ops: usize,
        seed: u64,
        build: impl FnOnce() -> Arc<GuestLedger>,
    ) -> Arc<GuestLedger> {
        let key: LedgerKey = (name.to_owned(), working_set, ops, 0, seed);
        self.ledger(&key, build)
    }

    /// Distinct ledgers held: one per key ever built through this cache.
    #[must_use]
    pub fn ledger_count(&self) -> usize {
        lock(&self.ledgers).len()
    }

    /// Replay outcomes served by a row translate of another env's outcome
    /// instead of a bind and a replay: the stored outcomes that another
    /// (ledger, env) pair already holds. Only a translate shares one.
    #[must_use]
    pub fn translated_replays(&self) -> usize {
        let replays = lock(&self.replays);
        let distinct: BTreeSet<*const CellOutcome> = replays.values().map(Arc::as_ptr).collect();
        replays.len() - distinct.len()
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

    /// The booted environment for `key` and its ordinal, booting on first
    /// use. Only successful boots are cached.
    pub(crate) fn env(
        &self,
        key: EnvKey,
        build: impl FnOnce() -> Result<BoundEnv, SilozError>,
    ) -> Result<(usize, Arc<BoundEnv>), SilozError> {
        let find = |envs: &[(EnvKey, Arc<BoundEnv>)]| {
            envs.iter()
                .position(|(k, _)| *k == key)
                .map(|i| (i, envs[i].1.clone()))
        };
        if let Some(hit) = find(&lock(&self.envs)) {
            return Ok(hit);
        }
        let built = Arc::new(build()?);
        let mut envs = lock(&self.envs);
        if let Some(raced) = find(&envs) {
            return Ok(raced);
        }
        envs.push((key, built.clone()));
        Ok((envs.len() - 1, built))
    }

    /// The replay outcome for `(ledger, env ordinal)`: on first use, a row
    /// translate of another env's outcome if one serves, else simulated.
    pub(crate) fn replay(
        &self,
        key: (LedgerKey, usize),
        build: impl FnOnce(&LedgerKey) -> Arc<CellOutcome>,
    ) -> Arc<CellOutcome> {
        if let Some(hit) = lock(&self.replays).get(&key) {
            return hit.clone();
        }
        let built = self.translate(&key).unwrap_or_else(|| build(&key.0));
        lock(&self.replays).entry(key).or_insert(built).clone()
    }

    /// The outcome of `key`'s ledger under another hook-less env with an
    /// equal decoder, when `key`'s env is hook-less too and its backing a
    /// row translate of that env's over the ledger's extent.
    fn translate(&self, (ledger_key, ordinal): &(LedgerKey, usize)) -> Option<Arc<CellOutcome>> {
        let done: Vec<(usize, Arc<CellOutcome>)> = lock(&self.replays)
            .range((ledger_key.clone(), 0)..=(ledger_key.clone(), usize::MAX))
            .map(|((_, o), outcome)| (*o, outcome.clone()))
            .collect();
        if done.is_empty() {
            return None;
        }
        let extent = lock(&self.ledgers).get(ledger_key)?.extent();
        let hookless = |o: usize| {
            let envs = lock(&self.envs);
            let (key, env) = &envs[o];
            key.hook.is_none().then(|| env.clone())
        };
        let env = hookless(*ordinal)?;
        let decoder = env.hv.decoder();
        let translates = |other: Arc<BoundEnv>| {
            let other_decoder = other.hv.decoder();
            other_decoder.geometry() == decoder.geometry()
                && other_decoder.config() == decoder.config()
                && env.hpa.row_translates(&other.hpa, decoder, extent)
        };
        done.into_iter()
            .find(|&(o, _)| hookless(o).is_some_and(translates))
            .map(|(_, outcome)| outcome)
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
    fn every_env_key_axis_boots_its_own_env() {
        // Every axis a cell's environment depends on must key a fresh boot:
        // a field the comparison ignored would hand one configuration's
        // booted hypervisor (and replay outcomes) to another.
        let sim = crate::SimConfig {
            vm_memory: 32 << 20,
            ..crate::SimConfig::quick()
        };
        let base = || EnvKey {
            kind: HypervisorKind::Siloz,
            vm_memory: sim.vm_memory,
            vcpus: sim.vcpus,
            config: SilozConfig::mini(),
            hook: None,
        };
        let edits: [fn(&mut EnvKey); 15] = [
            |k| k.config.presumed_subarray_rows *= 2,
            |k| k.config.ept_protection = siloz::EptProtection::SecureEpt,
            |k| k.config.host_groups_per_socket += 1,
            |k| k.config.cores_per_socket += 1,
            |k| k.config.decoder.row_groups_per_block *= 2,
            |k| k.config.decoder.jump_bytes *= 2,
            |k| k.config.decoder.bank_hash = dram_addr::BankHash::None,
            |k| k.config.internal_map.inversion = false,
            |k| k.config.internal_map.mirroring = true,
            |k| k.config.internal_map.scrambling = true,
            |k| k.config.geometry.rows_per_subarray *= 2,
            |k| k.kind = HypervisorKind::Baseline,
            |k| k.vm_memory *= 2,
            |k| k.vcpus += 1,
            |k| k.hook = Some(Backend::BlockHammer),
        ];
        let cache = TraceCache::new();
        let mut boots = 0;
        // The cache only compares keys, so every key may boot the same env.
        let mut ordinal = |key: EnvKey| {
            let boot = || {
                boots += 1;
                crate::run::boot_env(&SilozConfig::mini(), HypervisorKind::Siloz, &sim)
            };
            cache.env(key, boot).unwrap().0
        };
        let edited = |i: usize| {
            let mut key = base();
            edits[i](&mut key);
            key
        };
        assert_eq!(ordinal(base()), 0);
        for i in 0..edits.len() {
            assert_eq!(ordinal(edited(i)), i + 1, "edit {i} must boot its own env");
            assert_eq!(ordinal(edited(i)), i + 1, "edit {i} must hit its own env");
        }
        assert_eq!(ordinal(base()), 0, "an equal key hits");
        assert_eq!(boots, edits.len() + 1, "hits never boot");
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
