//! The two-method interface the frozen `benchmark/`'s queue micro-loops
//! drive both event queues through.
//!
//! The engine runs on the binary-heap [`EventQueue`](crate::event::EventQueue)
//! alone; the [`CalendarQueue`](crate::calendar::CalendarQueue) and this
//! trait stay only while the benchmark times the two against each other.

use crate::time::Cycles;
use crate::{CalendarQueue, EventQueue};

/// A time-ordered event scheduler with FIFO tie-breaking: events pop in
/// ascending `(time, schedule-order)`, and `schedule` never reorders
/// already-pending events.
pub trait Scheduler<E> {
    /// Schedules `payload` for delivery at absolute time `at`.
    fn schedule(&mut self, at: Cycles, payload: E);

    /// Removes and returns the earliest event as `(time, payload)`.
    fn pop(&mut self) -> Option<(Cycles, E)>;
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn schedule(&mut self, at: Cycles, payload: E) {
        EventQueue::schedule(self, at, payload);
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        EventQueue::pop(self)
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn schedule(&mut self, at: Cycles, payload: E) {
        CalendarQueue::schedule(self, at, payload);
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        CalendarQueue::pop(self)
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
        let mut out = Vec::new();
        // Both t=10 events in FIFO order, then t=30.
        out.extend(q.pop());
        out.extend(q.pop());
        out.extend(q.pop());
        // A later schedule at an already-pending time queues behind it.
        q.schedule(Cycles::new(40), 5);
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        out.into_iter().map(|(t, v)| (t.raw(), v)).collect()
    }

    #[test]
    fn both_backends_honor_the_trait_contract_identically() {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new(Cycles::new(10));
        let a = drive(&mut heap);
        let b = drive(&mut cal);
        assert_eq!(a, vec![(10, 1), (10, 2), (30, 3), (40, 4), (40, 5)]);
        assert_eq!(a, b);
    }
}
