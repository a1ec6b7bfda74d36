//! The cluster's pending-placement queue: a FIFO with removal by sandbox
//! id and per-size-class shard accounting.
//!
//! Sandboxes that fit nowhere park here until a capacity-freeing event
//! (departure, migration, failed-admit rollback) lets the head proceed.
//! Retries are strictly head-of-line — the queue never reorders — so the
//! engine's placement outcomes stay a pure function of dispatch order.
//! Two std maps carry it:
//!
//! * **`fifo`** — arrival ticket → `(sandbox, need)`. A push takes a
//!   ticket above every queued one, so the least key is the head and a
//!   re-queued sandbox goes to the tail.
//! * **`ticket_of`** — sandbox id → its ticket, so a sandbox whose lease
//!   expires while parked leaves from anywhere in O(log pending) instead
//!   of an O(pending) scan.
//!
//! Every entry is also classed by its `groups_needed` claim size at push
//! time. The per-shard lengths tell the engine (and telemetry) how much
//! queued demand each size class holds, and the stored head `need` lets
//! `retry_pending` ask the scheduler's `can_fit` instead of running a
//! doomed full placement when no capacity-freeing event could have
//! unblocked the head's class.

use std::collections::BTreeMap;

/// FIFO of sandboxes awaiting placement, sharded by claim size.
#[derive(Debug, Default)]
pub struct PendingQueue {
    /// Arrival ticket → (sandbox id, claim size); the least is the head.
    fifo: BTreeMap<u64, (u32, i64)>,
    /// Sandbox id → its ticket in `fifo`.
    ticket_of: BTreeMap<u32, u64>,
    /// Queued entries per `groups_needed` size class.
    shard_len: Vec<u64>,
}

impl PendingQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued sandboxes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether nothing is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Whether `id` is currently queued.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.ticket_of.contains_key(&id)
    }

    /// The head sandbox and its claim size, if any.
    #[must_use]
    pub fn front(&self) -> Option<(u32, i64)> {
        self.fifo.first_key_value().map(|(_, &entry)| entry)
    }

    /// Queued entries in the given `groups_needed` size class.
    #[must_use]
    pub fn shard_len(&self, need: i64) -> u64 {
        self.shard_len
            .get(need.max(0) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Size classes with at least one queued entry.
    #[must_use]
    pub fn busy_shards(&self) -> usize {
        self.shard_len.iter().filter(|&&n| n > 0).count()
    }

    /// Parks `id` (claiming `need` groups) at the tail. A sandbox id may
    /// be queued at most once; re-pushing a queued id is a logic error
    /// upstream and panics in debug builds.
    pub fn push_back(&mut self, id: u32, need: i64) {
        debug_assert!(!self.contains(id), "sandbox {id} already pending");
        let ticket = self.fifo.last_key_value().map_or(0, |(&t, _)| t + 1);
        self.fifo.insert(ticket, (id, need));
        self.ticket_of.insert(id, ticket);
        let class = need.max(0) as usize;
        if self.shard_len.len() <= class {
            self.shard_len.resize(class + 1, 0);
        }
        self.shard_len[class] += 1;
    }

    /// Removes `id` from anywhere in the queue — the head when a retry
    /// places it, the middle when a lease ends while parked. Returns
    /// whether it was queued.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(ticket) = self.ticket_of.remove(&id) else {
            return false;
        };
        let parked = self.fifo.remove(&ticket);
        debug_assert_eq!(
            parked.map(|(queued, _)| queued),
            Some(id),
            "ticket_of and fifo disagree about sandbox {id}"
        );
        if let Some((_, need)) = parked {
            self.shard_len[need.max(0) as usize] -= 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_front(q: &mut PendingQueue) -> Option<u32> {
        let (id, _) = q.front()?;
        assert!(q.remove(id));
        Some(id)
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = PendingQueue::new();
        for id in [5u32, 2, 9, 7] {
            q.push_back(id, 1);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.front(), Some((5, 1)));
        let drained: Vec<_> = std::iter::from_fn(|| pop_front(&mut q)).collect();
        assert_eq!(drained, [5, 2, 9, 7], "strict FIFO, never sorted");
        assert!(q.is_empty());
    }

    #[test]
    fn remove_unlinks_head_middle_and_tail() {
        let mut q = PendingQueue::new();
        for id in 0..5u32 {
            q.push_back(id, (id as i64 % 2) + 1);
        }
        assert!(q.remove(2), "middle");
        assert!(q.remove(0), "head");
        assert!(q.remove(4), "tail");
        assert!(!q.remove(4), "double remove is a no-op");
        assert!(!q.remove(99), "unknown id is a no-op");
        assert_eq!(q.front(), Some((1, 2)));
        let drained: Vec<_> = std::iter::from_fn(|| pop_front(&mut q)).collect();
        assert_eq!(drained, [1, 3]);
    }

    #[test]
    fn shard_lengths_track_size_classes() {
        let mut q = PendingQueue::new();
        q.push_back(0, 1);
        q.push_back(1, 3);
        q.push_back(2, 3);
        assert_eq!(q.shard_len(1), 1);
        assert_eq!(q.shard_len(3), 2);
        assert_eq!(q.shard_len(2), 0);
        assert_eq!(q.busy_shards(), 2);
        q.remove(1);
        assert_eq!(q.shard_len(3), 1);
        pop_front(&mut q);
        assert_eq!(q.shard_len(1), 0);
        assert_eq!(q.busy_shards(), 1);
    }

    #[test]
    fn a_requeued_sandbox_goes_to_the_tail() {
        // What `ClusterSim::transition` does to a host-refused sandbox:
        // `Running -> Pending` parks it again, behind everyone waiting.
        let mut q = PendingQueue::new();
        for id in [1u32, 2, 3] {
            q.push_back(id, id as i64);
        }
        assert!(q.remove(1));
        q.push_back(1, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.busy_shards(), 3);
        assert_eq!([q.shard_len(1), q.shard_len(2), q.shard_len(3)], [1, 1, 1]);
        let drained: Vec<_> = std::iter::from_fn(|| pop_front(&mut q)).collect();
        assert_eq!(drained, [2, 3, 1], "the old place in line is not kept");
        assert!(!q.remove(1), "a stale ticket must not resurrect the entry");
        assert!(q.is_empty() && q.busy_shards() == 0);
    }
}
