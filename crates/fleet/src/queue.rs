//! The `(at, seq)` event queue — the hot path of both discrete-event
//! engines (this crate's [`crate::FleetSim`] and `cluster`'s epoch loop).
//!
//! Every simulated event passes through here once on push and once on pop,
//! so the queue is a [`BinaryHeap`] min-ordered by `(at, seq)`: no hashing,
//! no per-access allocation, one sift walk per operation. Dynamic events
//! (departures, deferred re-admissions) receive fresh sequence numbers so
//! ordering stays total and deterministic. Keys are unique, so pop order is
//! a function of the key set alone — not of the heap's internal layout.

use crate::events::Event;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event the queue can order.
pub trait Keyed {
    /// The event's `(at, seq)` ordering key.
    fn key(&self) -> (u64, u64);
}

/// Heap entry: orders events by *descending* key, so the max-heap's top is
/// the `(at, seq)` minimum.
#[derive(Debug)]
struct Earliest<E>(E);

impl<E: Keyed> Ord for Earliest<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

impl<E: Keyed> PartialOrd for Earliest<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: Keyed> PartialEq for Earliest<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<E: Keyed> Eq for Earliest<E> {}

/// Min-queue of events keyed on `(at, seq)`.
#[derive(Debug)]
pub struct EventQueue<E = Event> {
    heap: BinaryHeap<Earliest<E>>,
    next_seq: u64,
    popped: u64,
}

/// The precondition of [`EventQueue::new`]: every trace `seq` is below
/// `next_seq` and no two events share a key.
fn trace_is_well_keyed<E: Keyed>(events: &[E], next_seq: u64) -> bool {
    let mut keys: Vec<(u64, u64)> = events.iter().map(Keyed::key).collect();
    keys.sort_unstable();
    keys.iter().all(|&(_, seq)| seq < next_seq) && keys.windows(2).all(|w| w[0] != w[1])
}

impl<E: Keyed> EventQueue<E> {
    /// Builds a queue from a pre-generated trace. `next_seq` must be larger
    /// than every sequence number in `events`, and keys must be unique (as
    /// returned by [`crate::events::generate_trace`]): that is what makes
    /// pop order independent of the heap implementation.
    #[must_use]
    pub fn new(events: Vec<E>, next_seq: u64) -> Self {
        debug_assert!(
            trace_is_well_keyed(&events, next_seq),
            "trace keys must be unique with every seq below next_seq ({next_seq})"
        );
        Self {
            heap: events.into_iter().map(Earliest).collect(),
            next_seq,
            popped: 0,
        }
    }

    /// Schedules a dynamic event: `make` receives the next sequence number
    /// (so the event sorts after anything generated earlier for the same
    /// tick) and returns the event carrying it.
    pub fn push(&mut self, make: impl FnOnce(u64) -> E) {
        let event = make(self.next_seq);
        debug_assert_eq!(event.key().1, self.next_seq, "event must carry its seq");
        self.next_seq += 1;
        self.heap.push(Earliest(event));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<E> {
        let Earliest(event) = self.heap.pop()?;
        self.popped += 1;
        Some(event)
    }

    /// The earliest queued event, without removing it. Because the heap
    /// root is the `(at, seq)` minimum, an external driver can drain
    /// everything due up to a horizon with `peek`/`pop` pairs and stop
    /// without disturbing later events.
    #[must_use]
    pub fn peek(&self) -> Option<&E> {
        self.heap.peek().map(|e| &e.0)
    }

    /// Events currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events dequeued so far.
    #[must_use]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn ev(at: u64, seq: u64) -> Event {
        Event {
            at,
            seq,
            tenant: 0,
            kind: EventKind::Defrag,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let events = [ev(5, 0), ev(1, 1), ev(5, 2), ev(0, 3), ev(1, 4)];
        let mut q = EventQueue::new(events.to_vec(), 5);
        assert_eq!(q.peek().map(Keyed::key), Some((0, 3)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|e| e.key()).collect();
        assert_eq!(order, [(0, 3), (1, 1), (1, 4), (5, 0), (5, 2)]);
        assert_eq!(q.total_popped(), 5);
    }

    #[test]
    fn dynamic_pushes_interleave_correctly() {
        let mut q = EventQueue::new(vec![ev(10, 0)], 1);
        q.push(|seq| ev(3, seq));
        q.push(|seq| Event {
            tenant: 8,
            ..ev(10, seq)
        });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().map(Keyed::key), Some((3, 1)));
        assert_eq!(q.pop().unwrap().at, 3);
        // Same tick: the trace event (seq 0) beats the dynamic one (seq 2).
        assert_eq!(q.pop().unwrap().key(), (10, 0));
        assert_eq!(q.pop().unwrap().tenant, 8);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_matches_sorting_on_a_large_shuffled_trace() {
        // Deterministic pseudo-shuffle via a multiplicative hash.
        let events: Vec<Event> = (0u64..999)
            .map(|i| ev(i.wrapping_mul(2654435761) % 128, i))
            .collect();
        let mut expect: Vec<(u64, u64)> = events.iter().map(Keyed::key).collect();
        expect.sort_unstable();
        let mut q = EventQueue::new(events, 999);
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|e| e.key()).collect();
        assert_eq!(got, expect);
    }

    // `debug_assert!` is compiled out of release test builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "trace keys must be unique")]
    fn a_trace_seq_at_or_above_next_seq_is_rejected() {
        // A dynamic push would reuse seq 1 and tie with the trace event.
        let _ = EventQueue::new(vec![ev(4, 0), ev(4, 1)], 1);
    }
}
