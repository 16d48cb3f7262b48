//! A priority thread scheduler with round-robin and a time quantum.
//!
//! The simulated machine runs a handful of schedulable contexts at IPL 0:
//! the modified kernel's network polling thread (kernel priority), the
//! `screend` process and the compute-bound user process (timeshare
//! priority). Higher priority always wins; equal priorities round-robin,
//! rotated when the running thread yields, sleeps, or exhausts its quantum.

use std::collections::VecDeque;

use livelock_sim::Cycles;

/// Identifies a spawned thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// A scheduling priority; higher values run first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Kernel threads (the network polling thread).
    pub const KERNEL: Priority = Priority(100);
    /// Ordinary timeshare user processes (screend, compute-bound jobs).
    pub const USER: Priority = Priority(50);
}

/// Thread lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run (queued).
    Runnable,
    /// Currently selected by the CPU.
    Running,
    /// Blocked awaiting a wakeup.
    Sleeping,
}

#[derive(Clone, Debug)]
struct Thread {
    name: &'static str,
    priority: Priority,
    state: ThreadState,
}

/// The run-queue scheduler.
///
/// # Examples
///
/// ```
/// use livelock_machine::thread::{Priority, Scheduler};
/// use livelock_sim::Cycles;
///
/// let mut s = Scheduler::new(Cycles::new(1_000_000));
/// let poll = s.spawn("netpoll", Priority::KERNEL);
/// let user = s.spawn("compute", Priority::USER);
/// s.wake(poll);
/// s.wake(user);
/// assert_eq!(s.pick(), Some(poll), "kernel priority first");
/// s.sleep(poll);
/// assert_eq!(s.pick(), Some(user));
/// ```
#[derive(Clone, Debug)]
pub struct Scheduler {
    threads: Vec<Thread>,
    /// Runnable queues indexed by raw priority; only a few levels are used.
    queues: Vec<VecDeque<ThreadId>>,
    /// Bit `p` (word `p / 64`, bit `p % 64`) set ⟺ `queues[p]` is nonempty.
    /// Lets [`Scheduler::pick`] / [`Scheduler::should_preempt`] — called at
    /// every chunk boundary — test word-at-a-time instead of scanning 256
    /// queues.
    nonempty: [u64; 4],
    running: Option<ThreadId>,
    quantum: Cycles,
    run_in_quantum: Cycles,
}

impl Scheduler {
    /// Creates a scheduler with the given time quantum (the paper's system
    /// used 10 ms).
    pub fn new(quantum: Cycles) -> Self {
        Scheduler {
            threads: Vec::new(),
            queues: vec![VecDeque::new(); 256],
            nonempty: [0; 4],
            running: None,
            quantum,
            run_in_quantum: Cycles::ZERO,
        }
    }

    fn mark_queued(&mut self, prio: usize) {
        self.nonempty[prio / 64] |= 1 << (prio % 64);
    }

    fn sync_mark(&mut self, prio: usize) {
        if self.queues[prio].is_empty() {
            self.nonempty[prio / 64] &= !(1 << (prio % 64));
        }
    }

    /// Highest priority with a queued runnable thread, if any.
    fn top_queued(&self) -> Option<usize> {
        for (w, &bits) in self.nonempty.iter().enumerate().rev() {
            if bits != 0 {
                return Some(w * 64 + 63 - bits.leading_zeros() as usize);
            }
        }
        None
    }

    /// Spawns a thread in the sleeping state; call [`Scheduler::wake`] to
    /// make it runnable.
    pub fn spawn(&mut self, name: &'static str, priority: Priority) -> ThreadId {
        self.threads.push(Thread {
            name,
            priority,
            state: ThreadState::Sleeping,
        });
        ThreadId(self.threads.len() - 1)
    }

    /// Makes a sleeping thread runnable; no-op for runnable/running threads.
    /// Returns `true` when the thread transitioned to runnable.
    pub fn wake(&mut self, tid: ThreadId) -> bool {
        let t = &mut self.threads[tid.0];
        if t.state != ThreadState::Sleeping {
            return false;
        }
        t.state = ThreadState::Runnable;
        let prio = t.priority.0 as usize;
        self.queues[prio].push_back(tid);
        self.mark_queued(prio);
        true
    }

    /// Puts a thread to sleep. If it was queued runnable it is removed; the
    /// running thread may also put itself to sleep (the CPU then calls
    /// [`Scheduler::pick`] for a successor).
    pub fn sleep(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0];
        match t.state {
            ThreadState::Sleeping => {}
            ThreadState::Runnable => {
                let prio = t.priority.0 as usize;
                self.queues[prio].retain(|&x| x != tid);
                t.state = ThreadState::Sleeping;
                self.sync_mark(prio);
            }
            ThreadState::Running => {
                t.state = ThreadState::Sleeping;
                if self.running == Some(tid) {
                    self.running = None;
                }
            }
        }
    }

    /// The running thread voluntarily yields: it goes to the back of its
    /// priority queue and the CPU should [`Scheduler::pick`] again.
    pub fn yield_current(&mut self) {
        if let Some(tid) = self.running.take() {
            let t = &mut self.threads[tid.0];
            t.state = ThreadState::Runnable;
            let prio = t.priority.0 as usize;
            self.queues[prio].push_back(tid);
            self.mark_queued(prio);
        }
    }

    /// Selects the next thread to run (highest priority, round-robin within
    /// a level) and marks it running. Returns `None` when nothing is
    /// runnable. Any previously running thread must have been yielded or
    /// slept first.
    pub fn pick(&mut self) -> Option<ThreadId> {
        assert!(
            self.running.is_none(),
            "pick() with a thread still running; yield or sleep it first"
        );
        let prio = self.top_queued()?;
        #[expect(
            clippy::expect_used,
            reason = "top_queued returned prio, so its occupancy bit is set and sync_mark keeps bits in lockstep with queue emptiness"
        )]
        let tid = self.queues[prio].pop_front().expect("bit set, queue empty");
        self.sync_mark(prio);
        self.threads[tid.0].state = ThreadState::Running;
        self.running = Some(tid);
        self.run_in_quantum = Cycles::ZERO;
        Some(tid)
    }

    /// Returns the running thread, if any.
    pub fn running(&self) -> Option<ThreadId> {
        self.running
    }

    /// Charges `cycles` of execution to the running thread's quantum.
    pub fn charge_quantum(&mut self, cycles: Cycles) {
        self.run_in_quantum += cycles;
    }

    /// Should the CPU preempt the running thread at this (chunk) boundary?
    ///
    /// True when a strictly higher-priority thread is runnable, or when the
    /// quantum is exhausted and an equal-priority thread is waiting.
    pub fn should_preempt(&self) -> bool {
        let Some(tid) = self.running else {
            return false;
        };
        let prio = self.threads[tid.0].priority.0 as usize;
        match self.top_queued() {
            Some(top) if top > prio => true,
            Some(top) => {
                self.run_in_quantum >= self.quantum && top == prio
            }
            None => false,
        }
    }

    /// Returns the thread's current state.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.0].state
    }

    /// Returns the thread's priority.
    pub fn priority(&self, tid: ThreadId) -> Priority {
        self.threads[tid.0].priority
    }

    /// Returns the thread's diagnostic name.
    pub fn name(&self, tid: ThreadId) -> &'static str {
        self.threads[tid.0].name
    }

    /// Returns the number of spawned threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Returns `true` when no threads were spawned.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Scheduler {
        Scheduler::new(Cycles::new(1000))
    }

    #[test]
    fn spawn_starts_sleeping() {
        let mut s = sched();
        let t = s.spawn("a", Priority::USER);
        assert_eq!(s.state(t), ThreadState::Sleeping);
        assert_eq!(s.pick(), None);
        assert_eq!(s.name(t), "a");
        assert_eq!(s.priority(t), Priority::USER);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn priority_order() {
        let mut s = sched();
        let user = s.spawn("user", Priority::USER);
        let kern = s.spawn("kern", Priority::KERNEL);
        s.wake(user);
        s.wake(kern);
        assert_eq!(s.pick(), Some(kern));
        s.sleep(kern);
        assert_eq!(s.pick(), Some(user));
    }

    #[test]
    fn round_robin_within_priority() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        let b = s.spawn("b", Priority::USER);
        s.wake(a);
        s.wake(b);
        assert_eq!(s.pick(), Some(a));
        s.yield_current();
        assert_eq!(s.pick(), Some(b));
        s.yield_current();
        assert_eq!(s.pick(), Some(a));
    }

    #[test]
    fn wake_is_idempotent() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        assert!(s.wake(a));
        assert!(!s.wake(a), "already runnable");
        assert_eq!(s.pick(), Some(a));
        assert!(!s.wake(a), "already running");
        s.yield_current();
        assert_eq!(s.pick(), Some(a), "not queued twice");
        s.sleep(a);
        assert_eq!(s.pick(), None);
    }

    #[test]
    fn sleep_dequeues_runnable_thread() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        let b = s.spawn("b", Priority::USER);
        s.wake(a);
        s.wake(b);
        s.sleep(a);
        assert_eq!(s.pick(), Some(b));
        s.yield_current();
        assert_eq!(s.pick(), Some(b), "a stays asleep");
    }

    #[test]
    fn preemption_on_higher_priority_wake() {
        let mut s = sched();
        let user = s.spawn("user", Priority::USER);
        let kern = s.spawn("kern", Priority::KERNEL);
        s.wake(user);
        assert_eq!(s.pick(), Some(user));
        assert!(!s.should_preempt());
        s.wake(kern);
        assert!(s.should_preempt());
        s.yield_current();
        assert_eq!(s.pick(), Some(kern));
        // The lower-priority thread does not trigger preemption.
        assert!(!s.should_preempt());
    }

    #[test]
    fn quantum_preemption_needs_a_peer() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        s.wake(a);
        s.pick();
        s.charge_quantum(Cycles::new(5000));
        assert!(!s.should_preempt(), "alone at its level: keeps running");
        let b = s.spawn("b", Priority::USER);
        s.wake(b);
        assert!(s.should_preempt(), "quantum spent and a peer waits");
    }

    #[test]
    fn quantum_resets_on_pick() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        let b = s.spawn("b", Priority::USER);
        s.wake(a);
        s.wake(b);
        s.pick();
        s.charge_quantum(Cycles::new(400));
        assert!(!s.should_preempt(), "quantum not yet exhausted");
        s.charge_quantum(Cycles::new(700));
        assert!(s.should_preempt());
        s.yield_current();
        s.pick();
        assert!(!s.should_preempt(), "fresh quantum");
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn double_pick_panics() {
        let mut s = sched();
        let a = s.spawn("a", Priority::USER);
        s.wake(a);
        s.pick();
        s.pick();
    }
}
