//! The cluster's pending-placement queue: a FIFO with O(1) membership
//! removal and per-size-class shard accounting.
//!
//! Sandboxes that fit nowhere park here until a capacity-freeing event
//! (departure, migration, failed-admit rollback) lets the head proceed.
//! Retries are strictly head-of-line — the queue never reorders — so the
//! engine's placement outcomes stay a pure function of dispatch order.
//! Three access patterns need to be cheap at 4096-host scale:
//!
//! * **FIFO push/pop** — an intrusive doubly-linked list threaded through
//!   an arena of nodes (no per-node allocation after warm-up; freed slots
//!   are recycled).
//! * **Departure-while-pending** — a sandbox whose lease expires while
//!   parked must leave the queue immediately. A dense sandbox-id →
//!   arena-slot index makes `remove` O(1), replacing the former
//!   O(pending) `retain` scan.
//! * **Shard accounting** — every entry is classed by its `groups_needed`
//!   claim size at push time. The per-shard lengths tell the engine (and
//!   telemetry) how much queued demand each size class holds, and the
//!   stored head `need` lets `retry_pending` consult the scheduler's
//!   bucket index (`can_fit`) in O(buckets) instead of running a doomed
//!   full placement when no capacity-freeing event could have unblocked
//!   the head's class.

/// Null link / empty index slot.
const NIL: u32 = u32::MAX;

/// One arena slot: a parked sandbox and its FIFO links.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: u32,
    need: i64,
    prev: u32,
    next: u32,
}

/// FIFO of sandboxes awaiting placement, sharded by claim size.
#[derive(Debug, Default)]
pub struct PendingQueue {
    nodes: Vec<Node>,
    /// Sandbox id → arena slot (`NIL` when not queued). Dense: sandbox
    /// ids are small integers assigned in arrival order.
    slot_of: Vec<u32>,
    /// Recycled arena slots.
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    /// Queued entries per `groups_needed` size class.
    shard_len: Vec<u64>,
}

impl PendingQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            shard_len: Vec::new(),
        }
    }

    /// Queued sandboxes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is currently queued.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.slot_of.get(id as usize).copied().unwrap_or(NIL) != NIL
    }

    /// The head sandbox and its claim size, if any.
    #[must_use]
    pub fn front(&self) -> Option<(u32, i64)> {
        if self.head == NIL {
            return None;
        }
        let n = self.nodes[self.head as usize];
        Some((n.id, n.need))
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
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.nodes.push(Node {
                    id: 0,
                    need: 0,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.nodes[slot as usize] = Node {
            id,
            need,
            prev: self.tail,
            next: NIL,
        };
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        if self.slot_of.len() <= id as usize {
            self.slot_of.resize(id as usize + 1, NIL);
        }
        self.slot_of[id as usize] = slot;
        let class = need.max(0) as usize;
        if self.shard_len.len() <= class {
            self.shard_len.resize(class + 1, 0);
        }
        self.shard_len[class] += 1;
        self.len += 1;
    }

    /// Unlinks one slot from the list and recycles it.
    fn unlink(&mut self, slot: u32) {
        let n = self.nodes[slot as usize];
        if n.prev != NIL {
            self.nodes[n.prev as usize].next = n.next;
        } else {
            self.head = n.next;
        }
        if n.next != NIL {
            self.nodes[n.next as usize].prev = n.prev;
        } else {
            self.tail = n.prev;
        }
        self.slot_of[n.id as usize] = NIL;
        self.shard_len[n.need.max(0) as usize] -= 1;
        self.len -= 1;
        self.free.push(slot);
    }

    /// Removes `id` from anywhere in the queue in O(1) — the head when a
    /// retry places it, the middle when a lease ends while parked. Returns
    /// whether it was queued.
    pub fn remove(&mut self, id: u32) -> bool {
        let slot = self.slot_of.get(id as usize).copied().unwrap_or(NIL);
        if slot == NIL {
            return false;
        }
        self.unlink(slot);
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
    fn arena_slots_are_recycled() {
        let mut q = PendingQueue::new();
        for round in 0..10u32 {
            for id in 0..8u32 {
                q.push_back(id, 1);
            }
            for id in 0..8u32 {
                assert!(q.contains(id));
                assert!(q.remove(id));
            }
            assert!(q.is_empty(), "round {round}");
        }
        assert!(q.nodes.len() <= 8, "arena never grows past peak occupancy");
    }
}
