//! The pluggable event-scheduler interface the executor runs against.
//!
//! Two backends implement it: the reference binary-heap
//! [`EventQueue`](crate::event::EventQueue) (O(log n), trivially correct)
//! and the [`CalendarQueue`](crate::calendar::CalendarQueue) (amortized
//! O(1) under steady event density). Property tests prove the two dequeue
//! in exactly the same order — including FIFO tie-breaks — so the engine
//! can swap backends without perturbing a single simulated cycle.
//!
//! `peek_time` takes `&mut self` even though it is logically a read: the
//! calendar backend answers it from a lazily maintained min cache (a year
//! scan primes the cache; schedule keeps it valid in O(1); pop invalidates
//! it), and that interior bookkeeping is ordinary mutation, not interior
//! mutability. The heap backend simply delegates to its `&self` peek.

use crate::time::Cycles;
use crate::{CalendarQueue, EventQueue};

/// A time-ordered event scheduler with FIFO tie-breaking at equal times.
///
/// The contract every backend must honor, in the executor's terms:
///
/// * events pop in ascending `(time, schedule-order)` — bit-stable across
///   backends;
/// * `schedule` never reorders already-pending events;
/// * `pop_due(now)` removes the head only if it is due at or before `now`.
pub trait Scheduler<E> {
    /// Schedules `payload` for delivery at absolute time `at`.
    fn schedule(&mut self, at: Cycles, payload: E);

    /// Returns the time of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<Cycles>;

    /// Removes and returns the earliest event as `(time, payload)`.
    fn pop(&mut self) -> Option<(Cycles, E)>;

    /// Removes the earliest event only if it is due at or before `now`.
    fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, E)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Returns `true` when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn schedule(&mut self, at: Cycles, payload: E) {
        EventQueue::schedule(self, at, payload);
    }

    fn peek_time(&mut self) -> Option<Cycles> {
        EventQueue::peek_time(self)
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        EventQueue::pop(self)
    }

    fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, E)> {
        EventQueue::pop_due(self, now)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn schedule(&mut self, at: Cycles, payload: E) {
        CalendarQueue::schedule(self, at, payload);
    }

    fn peek_time(&mut self) -> Option<Cycles> {
        CalendarQueue::peek_time(self)
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        CalendarQueue::pop(self)
    }

    fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, E)> {
        CalendarQueue::pop_due(self, now)
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<S: Scheduler<u32>>(q: &mut S) -> Vec<(u64, u32)> {
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(10), 2);
        q.schedule(Cycles::new(40), 4);
        assert_eq!(q.peek_time(), Some(Cycles::new(10)));
        assert_eq!(q.len(), 4);
        let mut out = Vec::new();
        // Both t=10 events in FIFO order, then t=30; t=40 is not due.
        while let Some(ev) = q.pop_due(Cycles::new(35)) {
            out.push(ev);
        }
        assert_eq!(out.len(), 3);
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        assert!(q.is_empty());
        out.into_iter().map(|(t, v)| (t.raw(), v)).collect()
    }

    #[test]
    fn both_backends_honor_the_trait_contract_identically() {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new(Cycles::new(10));
        let a = drive(&mut heap);
        let b = drive(&mut cal);
        assert_eq!(a, vec![(10, 1), (10, 2), (30, 3), (40, 4)]);
        assert_eq!(a, b);
    }
}
