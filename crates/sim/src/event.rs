//! A stable, deterministic discrete-event queue.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotonically increasing sequence
//! number), which keeps whole-simulation runs bit-reproducible.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// An entry in the heap; ordered so the *earliest* (time, seq) pops first.
struct Entry<E> {
    at: Cycles,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use livelock_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles::new(10), 'b');
/// q.schedule(Cycles::new(10), 'c');
/// q.schedule(Cycles::new(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Returns the time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        assert_eq!(q.pop(), Some((Cycles::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycles::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycles::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles::new(7), i)));
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycles::new(5), ());
        q.schedule(Cycles::new(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles::new(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(5), "a");
        q.schedule(Cycles::new(5), "b");
        assert_eq!(q.pop(), Some((Cycles::new(5), "a")));
        q.schedule(Cycles::new(5), "c");
        // "b" was scheduled before "c"; FIFO order must hold.
        assert_eq!(q.pop(), Some((Cycles::new(5), "b")));
        assert_eq!(q.pop(), Some((Cycles::new(5), "c")));
    }
}
