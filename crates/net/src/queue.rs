//! Bounded drop-tail queues with drop accounting.
//!
//! Every inter-layer queue in the paper's system (`ipintrq`, per-interface
//! output queues, the screend queue) is a fixed-limit drop-tail FIFO; "when a
//! packet should be queued but the queue is full, the system must drop the
//! packet". [`DropTailQueue`] reproduces that and counts drops (the
//! experiment harness attributes loss to specific queues); the queue-state
//! feedback mechanism (paper §6.6.1) watches its depth.

use std::collections::VecDeque;

use livelock_sim::Counter;

/// Outcome of an enqueue attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueued {
    /// The item was accepted.
    Ok,
    /// The queue was full; the item was dropped (drop-tail).
    Dropped,
}

impl Enqueued {
    /// Returns `true` when the item was accepted.
    pub fn is_ok(self) -> bool {
        matches!(self, Enqueued::Ok)
    }
}

/// A bounded drop-tail FIFO.
///
/// # Examples
///
/// ```
/// use livelock_net::queue::{DropTailQueue, Enqueued};
///
/// let mut q = DropTailQueue::new("ipintrq", 2);
/// assert_eq!(q.enqueue(1), Enqueued::Ok);
/// assert_eq!(q.enqueue(2), Enqueued::Ok);
/// assert_eq!(q.enqueue(3), Enqueued::Dropped);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.drops(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DropTailQueue<T> {
    name: &'static str,
    items: VecDeque<T>,
    capacity: usize,
    drops: Counter,
    enqueued: Counter,
    high_water_len: usize,
}

impl<T> DropTailQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DropTailQueue {
            name,
            items: VecDeque::with_capacity(capacity),
            capacity,
            drops: Counter::new(),
            enqueued: Counter::new(),
            high_water_len: 0,
        }
    }

    /// Returns the queue's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attempts to append an item; drops it when full.
    pub fn enqueue(&mut self, item: T) -> Enqueued {
        if self.items.len() >= self.capacity {
            self.drops.inc();
            return Enqueued::Dropped;
        }
        self.items.push_back(item);
        self.enqueued.inc();
        self.high_water_len = self.high_water_len.max(self.items.len());
        Enqueued::Ok
    }

    /// Removes and returns the oldest item.
    pub fn dequeue(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutable access to the head-of-line item without dequeueing it (used
    /// to stamp a packet when processing on it begins, before the chunk
    /// that consumes it completes).
    pub fn peek_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Returns the current queue length.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` when at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the number of items dropped since creation (or last reset).
    pub fn drops(&self) -> u64 {
        self.drops.get()
    }

    /// Discards all queued items and returns how many were discarded.
    /// Statistics are preserved.
    pub fn clear(&mut self) -> usize {
        let n = self.items.len();
        self.items.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new("t", 8);
        for i in 0..5 {
            assert!(q.enqueue(i).is_ok());
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drops_when_full_and_counts() {
        let mut q = DropTailQueue::new("t", 3);
        for i in 0..10 {
            q.enqueue(i);
        }
        assert_eq!(q.len(), 3);
        assert!(q.is_full());
        assert_eq!(q.drops(), 7);
        assert_eq!(q.enqueued.get(), 3);
        assert_eq!(q.high_water_len, 3);
        // Draining one makes room for exactly one.
        assert_eq!(q.dequeue(), Some(0));
        assert!(q.enqueue(99).is_ok());
        assert!(!q.enqueue(100).is_ok());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DropTailQueue::<u8>::new("t", 0);
    }

    #[test]
    fn peek_does_not_dequeue() {
        let mut q = DropTailQueue::new("t", 4);
        q.enqueue('a');
        q.enqueue('b');
        assert_eq!(q.peek(), Some(&'a'));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clear_preserves_stats() {
        let mut q = DropTailQueue::new("t", 2);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
        assert_eq!(q.drops(), 1, "clear preserves stats");
        assert_eq!(q.enqueued.get(), 2);
        assert_eq!(q.high_water_len, 2);
    }

    proptest! {
        #[test]
        fn never_exceeds_capacity(cap in 1usize..64, ops in proptest::collection::vec(any::<bool>(), 0..500)) {
            let mut q = DropTailQueue::new("p", cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            for op in ops {
                if op {
                    let r = q.enqueue(next);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(next);
                    } else {
                        prop_assert!(!r.is_ok());
                    }
                    next += 1;
                } else {
                    prop_assert_eq!(q.dequeue(), model.pop_front());
                }
                prop_assert!(q.len() <= cap);
                prop_assert_eq!(q.len(), model.len());
            }
        }

        #[test]
        fn accounting_invariant(cap in 1usize..32, n in 0usize..200) {
            let mut q = DropTailQueue::new("p", cap);
            for i in 0..n {
                q.enqueue(i);
            }
            prop_assert_eq!(q.enqueued.get() + q.drops(), n as u64);
            prop_assert_eq!(q.len() as u64, q.enqueued.get());
        }
    }
}
