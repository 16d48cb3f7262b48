//! The preemptive per-CPU executor.
//!
//! One [`Engine`] models one CPU; the [`cluster`](crate::cluster) module
//! interleaves several of them into a deterministic SMP machine, each
//! tagged with a [`CpuId`].
//!
//! Kernel code is modelled as *chunks* of cycles issued by a [`Workload`]:
//! "IP-forward one packet" is one chunk, "reclaim one transmit descriptor"
//! is another. A chunk's side effects commit when it completes
//! ([`Workload::chunk_done`]); an interrupt whose IPL preempts the current
//! context pauses the chunk mid-flight and resumes it after the handler
//! returns, nesting arbitrarily deep — exactly the fixed-priority
//! preemption that produces receive livelock.
//!
//! Execution contexts, highest priority first:
//!
//! 1. **Interrupt frames** — pushed when the [`intr
//!    controller`](crate::intr::IntrController) delivers a source whose IPL
//!    preempts the current level; popped when the handler's
//!    [`Workload::next_chunk`] returns `None` (return-from-interrupt).
//! 2. **Threads** — scheduled by the [`thread
//!    scheduler`](crate::thread::Scheduler) at IPL 0, preempted at chunk
//!    boundaries by higher-priority wakeups or quantum expiry, and by
//!    interrupts anywhere.
//! 3. **Idle** — when nothing is runnable the engine calls
//!    [`Workload::on_idle`] once (the hook the paper uses to re-enable
//!    interrupts and clear the cycle-limit total) and then advances time to
//!    the next external event.
//!
//! Every cycle is booked once, under the context that ran it and the
//! chunk tag it ran for; the per-class [`CycleLedger`], the per-context
//! [`UsageReport`] (how the Figure 7-1 experiment measures the CPU share a
//! user process received) and the [`CycleFold`] are reads of that one
//! book.

use livelock_sim::{Cycles, EventQueue};

use crate::fold::CycleFold;
use crate::intr::{IntrController, IntrSrc};
use crate::ipl::Ipl;
use crate::ledger::{CpuClass, CycleLedger};
use crate::thread::{Scheduler, ThreadId, ThreadState};
use crate::trace::{Trace, TraceEvent};

/// Identifies one CPU in a machine topology.
///
/// The single-CPU experiments run everything on `CpuId(0)`; the SMP
/// cluster gives each executor its own id, which is threaded through
/// ledger snapshots, Chrome-trace track ids, telemetry series, and
/// fault targeting so per-CPU data never degenerates into bare `usize`
/// indexing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub usize);

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// An execution context the workload can be asked to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxKind {
    /// An interrupt handler for this source.
    Intr(IntrSrc),
    /// A thread at IPL 0.
    Thread(ThreadId),
}

/// A unit of CPU work: `cycles` of execution, identified to the workload by
/// an opaque `tag` when it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Cost in cycles. Zero-cost chunks complete immediately.
    pub cycles: Cycles,
    /// Workload-defined discriminator passed back to
    /// [`Workload::chunk_done`], and the *stage* the chunk's cycles are
    /// booked under. In contract: `1..`[`Chunk::TAG_LIMIT`] (0 is the
    /// executor's own out-of-chunk time). A tag at or past the limit
    /// still runs and is still handed back unchanged, but its cycles
    /// share the book's last stage cell.
    pub tag: u64,
    /// Extra identical repetitions beyond this chunk — a *burst*. After
    /// each completion (and its [`Workload::chunk_done`]) the engine
    /// re-issues the same `(cycles, tag)` without calling
    /// [`Workload::next_chunk`] again, announcing each re-issue through
    /// [`Workload::chunk_start`]. The workload may only promise
    /// repetitions whose `next_chunk` answer is provably identical no
    /// matter what events, interrupts, or preemptions land between them;
    /// the engine still honors every preemption point in between, so the
    /// executed schedule is bit-identical to the unbatched one.
    pub reps: u32,
}

impl Chunk {
    /// Stage cells per context in the executor's cycle book: tags below
    /// this are booked apart.
    pub const TAG_LIMIT: u64 = 32;

    /// Creates a chunk.
    pub fn new(cycles: Cycles, tag: u64) -> Self {
        Chunk {
            cycles,
            tag,
            reps: 0,
        }
    }

    /// This chunk, promised for `reps` extra identical repetitions.
    pub fn with_reps(self, reps: u32) -> Self {
        Chunk { reps, ..self }
    }
}

/// The simulated kernel: produces chunks for contexts, reacts to chunk
/// completions and external events.
pub trait Workload {
    /// External event payload (packet arrivals, wire completions, timers).
    type Event;

    /// Asks the context for its next chunk; `None` ends the context
    /// (return-from-interrupt, or thread yield — a thread that has no work
    /// must put itself to sleep with [`Env::sleep`] first, or it will be
    /// rescheduled immediately).
    fn next_chunk(&mut self, env: &mut Env<'_, Self::Event>, ctx: CtxKind) -> Option<Chunk>;

    /// A chunk completed; commit its side effects.
    fn chunk_done(&mut self, env: &mut Env<'_, Self::Event>, ctx: CtxKind, tag: u64);

    /// An external event fired.
    fn on_event(&mut self, env: &mut Env<'_, Self::Event>, event: Self::Event);

    /// The CPU went idle (no frames, no runnable threads, no deliverable
    /// interrupts). Called once per idle entry; must be idempotent and must
    /// not unconditionally create work.
    fn on_idle(&mut self, env: &mut Env<'_, Self::Event>) {
        let _ = env;
    }

    /// A burst repetition (see [`Chunk::reps`]) is about to start running,
    /// at exactly the instant `next_chunk` would have been called for it.
    /// This is where per-chunk issue bookkeeping goes — timestamping the
    /// next packet, for instance.
    ///
    /// Must be *observationally pure* towards the machine: no posting or
    /// acknowledging interrupts, no waking or sleeping threads, no
    /// scheduling events. The engine relies on that to skip the redundant
    /// re-check of those states between the issue and the run.
    fn chunk_start(&mut self, env: &mut Env<'_, Self::Event>, ctx: CtxKind, tag: u64) {
        let _ = (env, ctx, tag);
    }
}

/// A lazy, time-ordered stream of external events the [`Engine`] merges
/// ahead of its event queue — how a trial injects traffic without holding
/// the whole schedule as pending events.
///
/// The engine asks for [`next_time`](Self::next_time) to know when to
/// stop, and calls [`pop`](Self::pop) only once virtual time has reached
/// it, so an implementation manufactures each event (packet, buffer) at
/// its arrival time and per-trial state stays O(in-flight).
///
/// **Tie order.** At equal timestamps a source event dispatches before
/// every queued event, and source events dispatch in the order the source
/// yields them — exactly the order they would have had if scheduled ahead
/// of everything else at time zero.
pub trait ArrivalSource<E> {
    /// Time of the next event; `None` once the source is exhausted. Must
    /// never decrease from one event to the next.
    fn next_time(&self) -> Option<Cycles>;

    /// Produces the event [`next_time`](Self::next_time) announced.
    fn pop(&mut self) -> Option<E>;
}

/// Which event queue the engine runs on. The engine runs on the
/// binary-heap [`EventQueue`] alone; this one-variant type stays because
/// the frozen `benchmark/` names it. With arrivals streamed from an
/// [`ArrivalSource`] a trial keeps at most 8 events pending, where the
/// heap's O(log n) is a couple of compares (DESIGN §11 has the numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The binary-heap [`EventQueue`].
    #[default]
    Heap,
}

/// Mutable machine state shared between the engine and the workload.
///
/// Construct it first, register interrupt sources and spawn threads, then
/// hand it to [`Engine::new`] together with the workload built around those
/// ids.
pub struct EnvState<E> {
    /// The interrupt controller.
    pub intr: IntrController,
    /// The thread scheduler.
    pub sched: Scheduler,
    now: Cycles,
    evq: EventQueue<E>,
    /// Time of the queue's earliest event, kept by every schedule and
    /// every pop, so the executor's due check, step stop and idle advance
    /// read a field instead of the queue.
    head: Option<Cycles>,
    events_dispatched: u64,
    book: CycleBook,
    cpu: CpuId,
}

/// Which row of the cycle book a step's cycles belong to.
enum Account {
    /// A workload context: an interrupt handler or a thread.
    Ctx(CtxKind),
    /// The scheduler's context-switch overhead.
    Sched,
    /// The idle loop.
    Idle,
}

/// The stage cell for cycles spent outside any workload chunk (switch
/// overhead and the idle loop). Workload chunk tags start at 1 by
/// convention, so 0 is free.
const TAG_EXEC: u64 = 0;

/// One execution context's row of the cycle book.
#[derive(Clone)]
struct Row {
    /// The class every cycle of this context belongs to, fixed at
    /// registration ([`EnvState::set_ctx_class`]).
    class: CpuClass,
    total: Cycles,
    /// `total` split by chunk tag; always sums to it.
    by_tag: [Cycles; Chunk::TAG_LIMIT as usize],
}

impl Row {
    fn new(class: CpuClass) -> Self {
        Row {
            class,
            total: Cycles::ZERO,
            by_tag: [Cycles::ZERO; Chunk::TAG_LIMIT as usize],
        }
    }
}

/// The one store of executed cycles: a [`Row`] per execution context,
/// written only by [`CycleBook::charge`]. The per-class ledger, the
/// per-context usage report, a thread's running total and the
/// `(cpu, class, stage)` fold are all sums over its cells, so they agree
/// by construction and the only thing left to check is that the book's
/// total equals elapsed time.
struct CycleBook {
    intr: Vec<Row>,
    thread: Vec<Row>,
    sched: Row,
    idle: Row,
}

impl CycleBook {
    fn new() -> Self {
        CycleBook {
            intr: Vec::new(),
            thread: Vec::new(),
            sched: Row::new(CpuClass::KernelOther),
            idle: Row::new(CpuClass::Idle),
        }
    }

    /// The account's row, created unclassified
    /// ([`CpuClass::KernelOther`]) on first touch.
    fn row_mut(&mut self, account: Account) -> &mut Row {
        let (rows, i) = match account {
            Account::Ctx(CtxKind::Intr(src)) => (&mut self.intr, src.0),
            Account::Ctx(CtxKind::Thread(tid)) => (&mut self.thread, tid.0),
            Account::Sched => return &mut self.sched,
            Account::Idle => return &mut self.idle,
        };
        if rows.len() <= i {
            rows.resize(i + 1, Row::new(CpuClass::KernelOther));
        }
        &mut rows[i]
    }

    fn charge(&mut self, account: Account, tag: u64, cy: Cycles) {
        let row = self.row_mut(account);
        row.total += cy;
        row.by_tag[tag.min(Chunk::TAG_LIMIT - 1) as usize] += cy;
    }

    fn rows(&self) -> impl Iterator<Item = &Row> {
        self.intr
            .iter()
            .chain(&self.thread)
            .chain([&self.sched, &self.idle])
    }
}

impl<E> EnvState<E> {
    /// Creates machine state with the given scheduler quantum.
    pub fn new(quantum: Cycles) -> Self {
        EnvState {
            intr: IntrController::new(),
            sched: Scheduler::new(quantum),
            now: Cycles::ZERO,
            evq: EventQueue::new(),
            head: None,
            events_dispatched: 0,
            book: CycleBook::new(),
            cpu: CpuId(0),
        }
    }

    /// The CPU this state belongs to ([`CpuId(0)`](CpuId) outside an SMP
    /// cluster).
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Tags this state (its ledger, counters, and traces) as belonging to
    /// `cpu`. The SMP cluster calls this once per executor at build time.
    pub fn set_cpu(&mut self, cpu: CpuId) {
        self.cpu = cpu;
    }

    /// The `(cpu, class, stage)` fold of every cycle run so far, for
    /// flamegraph export: the book's cells keyed by this CPU, the row's
    /// class and the chunk tag. Built on demand — nothing on the charge
    /// path exists for it.
    pub fn fold(&self) -> CycleFold {
        self.book
            .rows()
            .flat_map(|row| {
                let stages = row.by_tag.iter().zip(0..);
                stages.map(|(&cy, tag)| (self.cpu, row.class, tag, cy))
            })
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// External events delivered to the workload so far — the engine's
    /// unit of dispatch throughput (`events/sec` in the perf artifact).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Events pending in the scheduler. Events an [`ArrivalSource`] has
    /// not yet produced are not pending: they do not exist yet.
    pub fn pending_events(&self) -> usize {
        self.evq.len()
    }

    /// Schedules an event at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: Cycles, event: E) {
        self.schedule(at.max(self.now), event);
    }

    /// Schedules an event `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) {
        self.schedule(self.now + delay, event);
    }

    fn schedule(&mut self, at: Cycles, event: E) {
        self.evq.schedule(at, event);
        if self.head.is_none_or(|h| at < h) {
            self.head = Some(at);
        }
    }

    /// Removes the queue's earliest event and refreshes the head.
    fn pop(&mut self) -> Option<E> {
        let (_, event) = self.evq.pop()?;
        self.head = self.evq.peek_time();
        Some(event)
    }

    /// Cycles consumed so far by a thread.
    pub fn thread_cycles(&self, tid: ThreadId) -> Cycles {
        self.book
            .thread
            .get(tid.0)
            .map_or(Cycles::ZERO, |row| row.total)
    }

    /// Declares the [`CpuClass`] cycles run in this interrupt handler or
    /// thread belong to. Unclassified contexts default to
    /// [`CpuClass::KernelOther`]. Call at registration time, before the
    /// engine runs.
    pub fn set_ctx_class(&mut self, ctx: CtxKind, class: CpuClass) {
        self.book.row_mut(Account::Ctx(ctx)).class = class;
    }

    /// The conserved per-class cycle ledger: the book's rows summed by
    /// class, so Σ over classes equals elapsed virtual time, always.
    pub fn ledger(&self) -> CycleLedger {
        let mut by_class = [Cycles::ZERO; CpuClass::COUNT];
        for row in self.book.rows() {
            by_class[row.class.index()] += row.total;
        }
        CycleLedger::from_totals(by_class)
    }
}

/// The workload's handle to the machine during a callback.
///
/// A thin wrapper over [`EnvState`] so the workload cannot touch the
/// engine's context stack, only the architectural state.
pub struct Env<'a, E> {
    st: &'a mut EnvState<E>,
}

impl<'a, E> Env<'a, E> {
    /// Current virtual time (the "cycle counter register" of paper §7).
    pub fn now(&self) -> Cycles {
        self.st.now
    }

    /// The CPU this callback is running on.
    pub fn cpu(&self) -> CpuId {
        self.st.cpu
    }

    /// Schedules an event at absolute time `at`.
    pub fn schedule_at(&mut self, at: Cycles, event: E) {
        self.st.schedule_at(at, event);
    }

    /// Schedules an event `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) {
        self.st.schedule_in(delay, event);
    }

    /// Posts an interrupt request.
    pub fn post_intr(&mut self, src: IntrSrc) {
        self.st.intr.post(src);
    }

    /// Masks or unmasks an interrupt source.
    pub fn set_intr_enabled(&mut self, src: IntrSrc, enabled: bool) {
        self.st.intr.set_enabled(src, enabled);
    }

    /// Clears a latched request without delivering it.
    pub fn intr_ack(&mut self, src: IntrSrc) {
        self.st.intr.acknowledge(src);
    }

    /// Wakes a thread.
    pub fn wake(&mut self, tid: ThreadId) -> bool {
        self.st.sched.wake(tid)
    }

    /// Puts a thread to sleep (typically the current one, right before its
    /// `next_chunk` returns `None`).
    pub fn sleep(&mut self, tid: ThreadId) {
        self.st.sched.sleep(tid);
    }

    /// Returns a thread's state.
    pub fn thread_state(&self, tid: ThreadId) -> ThreadState {
        self.st.sched.state(tid)
    }

    /// Cycles consumed so far by a thread (for CPU-share measurements).
    pub fn thread_cycles(&self, tid: ThreadId) -> Cycles {
        self.st.thread_cycles(tid)
    }

    /// Snapshot of the conserved per-class cycle ledger (for telemetry
    /// samplers running inside workload callbacks).
    pub fn ledger(&self) -> CycleLedger {
        self.st.ledger()
    }

    /// Cumulative count of hardware interrupts taken (for telemetry
    /// samplers computing interrupt rates).
    pub fn intr_total_taken(&self) -> u64 {
        self.st.intr.total_taken()
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Virtual time reached the requested limit.
    HitLimit,
    /// No events remain — queued or still to come from the
    /// [`ArrivalSource`] — and the machine is idle: nothing can ever
    /// happen again.
    Quiescent,
}

/// Cycle-accounting snapshot.
#[derive(Clone, Debug)]
pub struct UsageReport {
    /// Total cycles in interrupt handlers, per source index.
    pub intr_by_src: Vec<Cycles>,
    /// Total cycles per thread index.
    pub thread_by_id: Vec<Cycles>,
    /// Context-switch overhead cycles.
    pub sched_cycles: Cycles,
    /// Idle cycles.
    pub idle_cycles: Cycles,
    /// The conserved per-class ledger; its total equals `now`.
    pub ledger: CycleLedger,
    /// Virtual time at the snapshot.
    pub now: Cycles,
}

impl UsageReport {
    /// Total interrupt cycles across sources.
    pub fn total_intr(&self) -> Cycles {
        self.intr_by_src.iter().copied().sum()
    }

    /// Total thread cycles across threads.
    pub fn total_thread(&self) -> Cycles {
        self.thread_by_id.iter().copied().sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Progress {
    remaining: Cycles,
    /// Full cost of the chunk, kept so burst repetitions can re-arm.
    cost: Cycles,
    tag: u64,
    /// Identical repetitions still owed after this one (see
    /// [`Chunk::reps`]).
    reps: u32,
    /// A re-armed burst repetition that has not started running yet:
    /// [`Workload::chunk_start`] still has to fire, and (for threads) the
    /// preemption check `next_chunk` issue points get must still happen.
    fresh: bool,
}

impl Progress {
    fn from_chunk(c: Chunk) -> Self {
        Progress {
            remaining: c.cycles,
            cost: c.cycles,
            tag: c.tag,
            reps: c.reps,
            fresh: false,
        }
    }

    /// The re-armed successor repetition of a completed burst chunk.
    fn rearm(self) -> Option<Self> {
        (self.reps > 0).then(|| Progress {
            remaining: self.cost,
            cost: self.cost,
            tag: self.tag,
            reps: self.reps - 1,
            fresh: true,
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    src: IntrSrc,
    ipl: Ipl,
    progress: Option<Progress>,
}

/// The executor: owns the machine state and the workload, and advances
/// virtual time.
pub struct Engine<W: Workload> {
    st: EnvState<W::Event>,
    workload: W,
    frames: Vec<Frame>,
    cur_thread: Option<(ThreadId, Option<Progress>)>,
    last_thread: Option<ThreadId>,
    switch_remaining: Cycles,
    ctx_switch_cost: Cycles,
    idle_notified: bool,
    trace: Option<Trace>,
    source: Option<Box<dyn ArrivalSource<W::Event>>>,
    /// Cached `source.next_time()`, so the merged peek on the hot path is
    /// one compare instead of a virtual call.
    source_next: Option<Cycles>,
    /// Source events whose time a run limit landed on exactly: they have
    /// arrived, so they exist, but dispatch waits for the next run — where
    /// they go first (nothing queued can be earlier, and the source wins
    /// ties).
    arrived: Vec<W::Event>,
}

/// Iterations without time progress before the engine declares the
/// workload stuck (a debugging aid, far above any legitimate burst of
/// zero-cost work).
const SPIN_LIMIT: u64 = 10_000_000;

/// Counts the executor's steps since virtual time last advanced: every
/// pass of the loop head and every step a context takes without
/// returning to it.
struct SpinGuard {
    spins: u64,
    last_now: Cycles,
}

impl SpinGuard {
    fn new(now: Cycles) -> Self {
        SpinGuard {
            spins: 0,
            last_now: now,
        }
    }

    /// One step, taken at `now`.
    fn step(&mut self, now: Cycles) {
        if now > self.last_now {
            self.last_now = now;
            self.spins = 0;
        } else {
            self.spins += 1;
            assert!(
                self.spins < SPIN_LIMIT,
                "workload makes no progress at t={now} (zero-cost loop?)"
            );
        }
    }
}

impl<W: Workload> Engine<W> {
    /// Creates an engine over pre-populated machine state.
    pub fn new(st: EnvState<W::Event>, workload: W, ctx_switch_cost: Cycles) -> Self {
        Engine {
            st,
            workload,
            frames: Vec::new(),
            cur_thread: None,
            last_thread: None,
            switch_remaining: Cycles::ZERO,
            ctx_switch_cost,
            idle_notified: false,
            trace: None,
            source: None,
            source_next: None,
            // Room for the usual one parked arrival from the start, so
            // whether a limit ever lands on one changes no allocation count.
            arrived: Vec::with_capacity(4),
        }
    }

    /// Installs the engine's [`ArrivalSource`], replacing any previous
    /// one. Its events are merged ahead of the event queue (see the
    /// trait's tie-order contract), counted in
    /// [`EnvState::events_dispatched`] and traced as
    /// [`TraceEvent::External`] like any queued event.
    pub fn set_arrival_source(&mut self, source: Box<dyn ArrivalSource<W::Event>>) {
        self.source_next = source.next_time();
        self.source = Some(source);
    }

    /// Enables scheduling-event tracing into a ring of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(self.st.now, event);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.st.now
    }

    /// Read access to the workload (for post-run measurement).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Mutable access to the workload (for between-run reconfiguration).
    pub fn workload_mut(&mut self) -> &mut W {
        &mut self.workload
    }

    /// Read access to the machine state.
    pub fn state(&self) -> &EnvState<W::Event> {
        &self.st
    }

    /// The current interrupt priority level.
    pub fn current_ipl(&self) -> Ipl {
        self.frames.last().map_or(Ipl::NONE, |f| f.ipl)
    }

    /// A cycle-accounting snapshot.
    pub fn usage(&self) -> UsageReport {
        let book = &self.st.book;
        UsageReport {
            intr_by_src: book.intr.iter().map(|row| row.total).collect(),
            thread_by_id: book.thread.iter().map(|row| row.total).collect(),
            sched_cycles: book.sched.total,
            idle_cycles: book.idle.total,
            ledger: self.st.ledger(),
            now: self.st.now,
        }
    }

    /// Consumes the engine, returning the machine state and workload.
    pub fn into_parts(self) -> (EnvState<W::Event>, W) {
        (self.st, self.workload)
    }

    /// Schedules an external event from outside the workload (test
    /// harnesses, the SMP slice hook's IPIs). Trials inject their traffic
    /// through [`set_arrival_source`](Self::set_arrival_source) instead.
    pub fn state_schedule(&mut self, at: Cycles, event: W::Event) {
        self.st.schedule_at(at, event);
    }

    fn env_call<R>(st: &mut EnvState<W::Event>, f: impl FnOnce(&mut Env<'_, W::Event>) -> R) -> R {
        let mut env = Env { st };
        f(&mut env)
    }

    /// Runs until virtual time `limit` or quiescence, whichever first.
    pub fn run_until(&mut self, limit: Cycles) -> Exit {
        if self.st.now < limit && !self.arrived.is_empty() {
            // Taken and put back, not consumed: the buffer keeps its
            // allocation across the runs that park an arrival.
            let mut arrived = std::mem::take(&mut self.arrived);
            for ev in arrived.drain(..) {
                self.dispatch(ev);
            }
            self.arrived = arrived;
            self.idle_notified = false;
        }
        let mut guard = SpinGuard::new(self.st.now);
        loop {
            guard.step(self.st.now);

            if self.st.now >= limit {
                while let Some(ev) = self.pop_source_through(self.st.now) {
                    self.arrived.push(ev);
                }
                return Exit::HitLimit;
            }

            // 1. Deliver due events. Both reads are fields; the
            // overwhelmingly common pass has nothing due.
            if self.event_due() {
                self.dispatch_due(&mut guard);
                self.idle_notified = false;
                continue;
            }

            // 2. Take a preempting interrupt.
            if let Some((src, ipl)) = self.st.intr.take(self.current_ipl()) {
                self.record(TraceEvent::IntrEnter(src));
                self.frames.push(Frame {
                    src,
                    ipl,
                    progress: None,
                });
                self.idle_notified = false;
                continue;
            }

            // 3. Run the top interrupt frame.
            if let Some(&top) = self.frames.last() {
                self.run_frame(top, limit, &mut guard);
                continue;
            }

            // 4. Pay off any pending context-switch overhead.
            if !self.switch_remaining.is_zero() {
                self.step_switch_overhead(limit);
                continue;
            }

            // 5. Thread level.
            if let Some((tid, progress)) = self.cur_thread {
                self.run_thread(tid, progress, limit, &mut guard);
                continue;
            }
            if let Some(tid) = self.st.sched.pick() {
                if self.last_thread != Some(tid) {
                    self.switch_remaining = self.ctx_switch_cost;
                    self.record(TraceEvent::ThreadRun(tid));
                }
                self.last_thread = Some(tid);
                self.cur_thread = Some((tid, None));
                self.idle_notified = false;
                continue;
            }

            // 6. Idle.
            if !self.idle_notified {
                self.idle_notified = true;
                self.record(TraceEvent::Idle);
                let workload = &mut self.workload;
                Self::env_call(&mut self.st, |env| workload.on_idle(env));
                continue;
            }
            match self.next_event_time() {
                Some(t) if t <= limit => {
                    self.st
                        .book
                        .charge(Account::Idle, TAG_EXEC, t - self.st.now);
                    self.st.now = t;
                }
                next => {
                    self.st
                        .book
                        .charge(Account::Idle, TAG_EXEC, limit - self.st.now);
                    self.st.now = limit;
                    return if next.is_none() {
                        Exit::Quiescent
                    } else {
                        Exit::HitLimit
                    };
                }
            }
        }
    }

    /// Runs until no event, thread, or interrupt can ever run again.
    pub fn run_to_quiescence(&mut self) -> Exit {
        self.run_until(Cycles::MAX)
    }

    /// Step 3: runs the top interrupt frame — asks for its next chunk,
    /// runs it, and keeps going in this frame for as long as nothing
    /// [intervenes](Self::intervenes). A `None` chunk returns from the
    /// interrupt.
    fn run_frame(&mut self, frame: Frame, limit: Cycles, guard: &mut SpinGuard) {
        let ctx = CtxKind::Intr(frame.src);
        let mut progress = frame.progress;
        loop {
            progress = match progress {
                Some(p) => self.step_chunk(ctx, p, limit),
                None => match self.issue(ctx) {
                    Some(c) => Some(Progress::from_chunk(c)),
                    None => {
                        self.frames.pop();
                        self.record(TraceEvent::IntrExit(frame.src));
                        return;
                    }
                },
            };
            if self.intervenes(frame.ipl, limit) {
                break;
            }
            guard.step(self.st.now);
        }
        // Workload callbacks reach the machine through `Env`, never the
        // frame stack: the top frame is still this one.
        if let Some(top) = self.frames.last_mut() {
            top.progress = progress;
        }
    }

    /// Step 5: runs the current thread — asks for its next chunk, runs
    /// it, and keeps going in this thread for as long as nothing
    /// [intervenes](Self::intervenes), it stays the running thread, and
    /// no other thread preempts it at a chunk-issue boundary.
    fn run_thread(
        &mut self,
        tid: ThreadId,
        mut progress: Option<Progress>,
        limit: Cycles,
        guard: &mut SpinGuard,
    ) {
        let ctx = CtxKind::Thread(tid);
        loop {
            // The workload may have put the current thread to sleep.
            if self.st.sched.running() != Some(tid) {
                self.cur_thread = None;
                return;
            }
            // A chunk-issue boundary: either `next_chunk` is about to be
            // asked, or a re-armed burst repetition is about to start.
            // Both get exactly the same preemption check.
            let at_issue = progress.is_none_or(|p| p.fresh);
            if at_issue && self.st.sched.should_preempt() {
                self.st.sched.yield_current();
                self.cur_thread = None;
                return;
            }
            progress = match progress {
                Some(p) => self.step_chunk(ctx, p, limit),
                None => match self.issue(ctx) {
                    Some(c) => Some(Progress::from_chunk(c)),
                    None => {
                        if self.st.sched.running() == Some(tid) {
                            self.st.sched.yield_current();
                        }
                        self.cur_thread = None;
                        return;
                    }
                },
            };
            if self.intervenes(Ipl::NONE, limit) {
                break;
            }
            guard.step(self.st.now);
        }
        self.cur_thread = Some((tid, progress));
    }

    /// Whether the loop head has work before the context running at
    /// `ipl` takes its next step: exactly what it would check first — the
    /// limit is reached, an event is due, or a pending interrupt preempts
    /// `ipl`.
    fn intervenes(&self, ipl: Ipl, limit: Cycles) -> bool {
        self.st.now >= limit || self.event_due() || self.st.intr.preempts(ipl)
    }

    /// Asks the workload for `ctx`'s next chunk.
    fn issue(&mut self, ctx: CtxKind) -> Option<Chunk> {
        let workload = &mut self.workload;
        Self::env_call(&mut self.st, |env| workload.next_chunk(env, ctx))
    }

    /// Time of the earliest event still to dispatch, queued or source.
    fn next_event_time(&self) -> Option<Cycles> {
        match (self.source_next, self.st.head) {
            (Some(s), Some(q)) => Some(s.min(q)),
            (s, q) => s.or(q),
        }
    }

    /// Whether an event, queued or source, is due at `now`.
    fn event_due(&self) -> bool {
        let now = self.st.now;
        matches!(self.st.head, Some(t) if t <= now) || self.source_due(now)
    }

    fn source_due(&self, now: Cycles) -> bool {
        matches!(self.source_next, Some(t) if t <= now)
    }

    /// Step 1: dispatches every event due at `now`, one at a time, in the
    /// queue's `(at, seq)` order merged with the source's, a source event
    /// first at equal times (the [`ArrivalSource`] tie order). Handlers
    /// cannot advance time, and anything one schedules for `now` carries
    /// a later sequence number than every event already due, so it
    /// dispatches after them, in this same call. Each dispatch is a step
    /// for the spin guard.
    fn dispatch_due(&mut self, guard: &mut SpinGuard) {
        let now = self.st.now;
        loop {
            let queued = self.st.head.filter(|&t| t <= now);
            let ev = match (self.source_next.filter(|&t| t <= now), queued) {
                (None, None) => return,
                (Some(s), Some(q)) if q < s => self.st.pop(),
                (None, Some(_)) => self.st.pop(),
                (Some(_), _) => self.pop_source_through(now),
            };
            if let Some(ev) = ev {
                self.dispatch(ev);
            }
            guard.step(now);
        }
    }

    fn dispatch(&mut self, ev: W::Event) {
        self.st.events_dispatched += 1;
        self.record(TraceEvent::External);
        let workload = &mut self.workload;
        Self::env_call(&mut self.st, |env| workload.on_event(env, ev));
    }

    /// Produces the next source event if it is due at or before `t`.
    fn pop_source_through(&mut self, t: Cycles) -> Option<W::Event> {
        if !self.source_due(t) {
            return None;
        }
        let source = self.source.as_mut()?;
        let ev = source.pop();
        // A source that yields nothing is exhausted, whatever it
        // announced.
        self.source_next = ev.as_ref().and(source.next_time());
        ev
    }

    /// The stop time for a chunk step: the earliest of chunk completion,
    /// the next event, and the run limit.
    fn step_stop(&self, remaining: Cycles, limit: Cycles) -> (Cycles, bool) {
        let chunk_end = self.st.now + remaining;
        let mut stop = chunk_end.min(limit);
        if let Some(t) = self.next_event_time() {
            stop = stop.min(t.max(self.st.now));
        }
        (stop, stop == chunk_end)
    }

    /// Runs `ctx`'s chunk in progress up to its stop time and returns
    /// what is left of it: the remainder when an event or the limit cut
    /// it short, the re-armed next repetition of a burst, or nothing.
    fn step_chunk(
        &mut self,
        ctx: CtxKind,
        mut progress: Progress,
        limit: Cycles,
    ) -> Option<Progress> {
        if progress.fresh {
            // A burst repetition issues here — the exact instant
            // `next_chunk` would have been called for it. `chunk_start`
            // is observationally pure towards the machine, so the
            // interrupt/event/preemption checks already run for this step
            // (see `at_issue` in `run_thread` for threads) cannot have
            // been invalidated.
            progress.fresh = false;
            let workload = &mut self.workload;
            Self::env_call(&mut self.st, |env| {
                workload.chunk_start(env, ctx, progress.tag)
            });
        }
        let (stop, completes) = self.step_stop(progress.remaining, limit);
        let ran = stop - self.st.now;
        self.st.book.charge(Account::Ctx(ctx), progress.tag, ran);
        if let CtxKind::Thread(_) = ctx {
            self.st.sched.charge_quantum(ran);
        }
        self.st.now = stop;
        if !completes {
            return Some(Progress {
                remaining: progress.remaining - ran,
                ..progress
            });
        }
        let workload = &mut self.workload;
        Self::env_call(&mut self.st, |env| {
            workload.chunk_done(env, ctx, progress.tag)
        });
        // Re-arm the next repetition of a burst; due events and
        // preempting interrupts still intervene before it runs.
        progress.rearm()
    }

    fn step_switch_overhead(&mut self, limit: Cycles) {
        let (stop, completes) = self.step_stop(self.switch_remaining, limit);
        let ran = stop - self.st.now;
        self.st.book.charge(Account::Sched, TAG_EXEC, ran);
        self.st.now = stop;
        self.switch_remaining = if completes {
            Cycles::ZERO
        } else {
            self.switch_remaining - ran
        };
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;
    use crate::thread::Priority;
    use crate::trace::TraceRecord;

    /// A scriptable workload for engine tests.
    #[derive(Default)]
    struct Script {
        /// (ctx, chunk) queues: chunks handed out per context.
        intr_chunks: Vec<(IntrSrc, Vec<Chunk>)>,
        thread_chunks: Vec<(ThreadId, Vec<Chunk>)>,
        /// Log of (time, what) records.
        log: Vec<(u64, String)>,
        /// Threads that should sleep after draining their chunks.
        sleep_when_done: Vec<ThreadId>,
        idle_calls: u64,
        /// `(tag, src)`: a completing chunk with this tag posts `src`.
        post_on_done: Vec<(u64, IntrSrc)>,
        /// `(tag, delay)`: a completing chunk with this tag schedules a
        /// `Note` `delay` cycles on.
        note_on_done: Vec<(u64, u64)>,
    }

    #[derive(Debug)]
    enum Ev {
        Post(IntrSrc),
        Wake(ThreadId),
        /// Logs its name when dispatched.
        Note(&'static str),
        /// Masks (`false`) or unmasks a source.
        Enable(IntrSrc, bool),
    }

    /// An [`ArrivalSource`] over a fixed list, counting what it has built.
    struct ListSource {
        events: VecDeque<(Cycles, Ev)>,
        built: Rc<Cell<usize>>,
    }

    impl ListSource {
        fn boxed(events: Vec<(u64, Ev)>) -> (Box<dyn ArrivalSource<Ev>>, Rc<Cell<usize>>) {
            let built = Rc::new(Cell::new(0));
            let source = ListSource {
                events: events.into_iter().map(|(t, e)| (cy(t), e)).collect(),
                built: built.clone(),
            };
            (Box::new(source), built)
        }
    }

    impl ArrivalSource<Ev> for ListSource {
        fn next_time(&self) -> Option<Cycles> {
            self.events.front().map(|&(t, _)| t)
        }

        fn pop(&mut self) -> Option<Ev> {
            let (_, ev) = self.events.pop_front()?;
            self.built.set(self.built.get() + 1);
            Some(ev)
        }
    }

    impl Script {
        fn log(&mut self, now: Cycles, s: impl Into<String>) {
            self.log.push((now.raw(), s.into()));
        }
    }

    impl Workload for Script {
        type Event = Ev;

        fn next_chunk(&mut self, env: &mut Env<'_, Ev>, ctx: CtxKind) -> Option<Chunk> {
            match ctx {
                CtxKind::Intr(src) => self
                    .intr_chunks
                    .iter_mut()
                    .find(|(s, _)| *s == src)
                    .and_then(|(_, q)| {
                        if q.is_empty() {
                            None
                        } else {
                            Some(q.remove(0))
                        }
                    }),
                CtxKind::Thread(tid) => {
                    let chunk = self
                        .thread_chunks
                        .iter_mut()
                        .find(|(t, _)| *t == tid)
                        .and_then(|(_, q)| {
                            if q.is_empty() {
                                None
                            } else {
                                Some(q.remove(0))
                            }
                        });
                    if chunk.is_none() && self.sleep_when_done.contains(&tid) {
                        env.sleep(tid);
                    }
                    chunk
                }
            }
        }

        fn chunk_done(&mut self, env: &mut Env<'_, Ev>, ctx: CtxKind, tag: u64) {
            let now = env.now();
            self.log(now, format!("done {ctx:?} tag={tag}"));
            for &(t, src) in &self.post_on_done {
                if t == tag {
                    env.post_intr(src);
                }
            }
            for &(t, delay) in &self.note_on_done {
                if t == tag {
                    env.schedule_in(cy(delay), Ev::Note("timer"));
                }
            }
        }

        fn chunk_start(&mut self, env: &mut Env<'_, Ev>, ctx: CtxKind, tag: u64) {
            let now = env.now();
            self.log(now, format!("start {ctx:?} tag={tag}"));
        }

        fn on_event(&mut self, env: &mut Env<'_, Ev>, event: Ev) {
            match event {
                Ev::Post(src) => env.post_intr(src),
                Ev::Wake(tid) => {
                    env.wake(tid);
                }
                Ev::Note(name) => {
                    let now = env.now();
                    self.log(now, name);
                }
                Ev::Enable(src, on) => env.set_intr_enabled(src, on),
            }
        }

        fn on_idle(&mut self, _env: &mut Env<'_, Ev>) {
            self.idle_calls += 1;
        }
    }

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    #[test]
    fn single_interrupt_runs_to_completion() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(100), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(500), 1), Chunk::new(cy(300), 2)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        assert_eq!(e.run_to_quiescence(), Exit::Quiescent);
        let log = &e.workload().log;
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 600, "first chunk ends at 100+500");
        assert_eq!(log[1].0, 900);
        assert_eq!(e.usage().intr_by_src[src.0], cy(800));
    }

    #[test]
    fn higher_ipl_preempts_mid_chunk_and_resumes() {
        let mut st = EnvState::new(cy(1_000_000));
        let soft = st.intr.register("softnet", Ipl::SOFTNET);
        let hard = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(0), Ev::Post(soft));
        st.schedule_at(cy(400), Ev::Post(hard));
        let wl = Script {
            intr_chunks: vec![
                (soft, vec![Chunk::new(cy(1000), 10)]),
                (hard, vec![Chunk::new(cy(200), 20)]),
            ],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        let log = &e.workload().log;
        // Hard handler finishes first (at 600), soft chunk resumes and ends
        // at 1000 + 200 of preemption = 1200.
        assert_eq!(log[0], (600, "done Intr(IntrSrc(1)) tag=20".to_string()));
        assert_eq!(log[1], (1200, "done Intr(IntrSrc(0)) tag=10".to_string()));
    }

    #[test]
    fn same_ipl_does_not_preempt() {
        let mut st = EnvState::new(cy(1_000_000));
        let a = st.intr.register("rx0", Ipl::IMP);
        let b = st.intr.register("rx1", Ipl::IMP);
        st.schedule_at(cy(0), Ev::Post(a));
        st.schedule_at(cy(100), Ev::Post(b));
        let wl = Script {
            intr_chunks: vec![
                (a, vec![Chunk::new(cy(1000), 1)]),
                (b, vec![Chunk::new(cy(100), 2)]),
            ],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        let log = &e.workload().log;
        assert_eq!(log[0].0, 1000, "a runs to completion");
        assert_eq!(log[1].0, 1100, "b runs after");
    }

    #[test]
    fn interrupt_preempts_thread_and_thread_resumes() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        let t = st.sched.spawn("worker", Priority::USER);
        st.sched.wake(t);
        st.schedule_at(cy(250), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(100), 9)])],
            thread_chunks: vec![(t, vec![Chunk::new(cy(1000), 5)])],
            sleep_when_done: vec![t],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        let log = &e.workload().log;
        assert_eq!(log[0].0, 350, "interrupt done");
        assert_eq!(log[1].0, 1100, "thread chunk stretched by 100");
        let u = e.usage();
        assert_eq!(u.thread_by_id[t.0], cy(1000));
        assert_eq!(u.intr_by_src[src.0], cy(100));
    }

    #[test]
    fn masked_interrupt_latches_until_enabled() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.intr.set_enabled(src, false);
        st.schedule_at(cy(0), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(10), 1)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_until(cy(500));
        assert!(e.workload().log.is_empty(), "masked: nothing ran");
        // Unmask mid-run; the latched request delivers.
        e.st.intr.set_enabled(src, true);
        e.run_until(cy(1000));
        assert_eq!(e.workload().log.len(), 1);
    }

    #[test]
    fn priority_preemption_at_chunk_boundary() {
        let mut st = EnvState::new(cy(1_000_000));
        let user = st.sched.spawn("user", Priority::USER);
        let kern = st.sched.spawn("kern", Priority::KERNEL);
        st.sched.wake(user);
        st.schedule_at(cy(150), Ev::Wake(kern));
        let wl = Script {
            thread_chunks: vec![
                (user, vec![Chunk::new(cy(100), 1), Chunk::new(cy(100), 2)]),
                (kern, vec![Chunk::new(cy(50), 3)]),
            ],
            sleep_when_done: vec![user, kern],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        let log = &e.workload().log;
        // user chunk1 done at 100; chunk2 runs 100..200; kern wakes at 150
        // but only preempts at the boundary (200), then runs 200..250.
        assert_eq!(log[0], (100, "done Thread(ThreadId(0)) tag=1".into()));
        assert_eq!(log[1], (200, "done Thread(ThreadId(0)) tag=2".into()));
        assert_eq!(log[2], (250, "done Thread(ThreadId(1)) tag=3".into()));
    }

    #[test]
    fn context_switch_cost_is_charged() {
        let mut st = EnvState::new(cy(1_000_000));
        let t = st.sched.spawn("worker", Priority::USER);
        st.sched.wake(t);
        let wl = Script {
            thread_chunks: vec![(t, vec![Chunk::new(cy(100), 1)])],
            sleep_when_done: vec![t],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(40));
        e.run_to_quiescence();
        assert_eq!(e.workload().log[0].0, 140, "40 switch + 100 work");
        assert_eq!(e.usage().sched_cycles, cy(40));
    }

    #[test]
    fn idle_hook_called_once_per_idle_entry() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(1000), Ev::Post(src));
        st.schedule_at(cy(2000), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(10), 1), Chunk::new(cy(10), 2)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        // Idle entered: at t=0 (before first event), after each interrupt.
        let calls = e.workload().idle_calls;
        assert!((2..=4).contains(&calls), "idle calls = {calls}");
        assert_eq!(e.workload().log.len(), 2);
    }

    #[test]
    fn run_until_limit_pauses_mid_chunk_and_resumes() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(0), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(1000), 1)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        assert_eq!(e.run_until(cy(400)), Exit::HitLimit);
        assert_eq!(e.now(), cy(400));
        assert!(e.workload().log.is_empty());
        assert_eq!(e.run_to_quiescence(), Exit::Quiescent);
        assert_eq!(e.workload().log[0].0, 1000);
    }

    #[test]
    fn idle_time_is_accounted() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(500), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(100), 1)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_until(cy(1000));
        let u = e.usage();
        assert_eq!(u.idle_cycles, cy(900), "500 before + 400 after");
        assert_eq!(u.total_intr(), cy(100));
        assert_eq!(u.now, cy(1000));
    }

    #[test]
    fn ledger_conserves_and_classifies() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.set_ctx_class(CtxKind::Intr(src), CpuClass::RxIntr);
        let t = st.sched.spawn("worker", Priority::USER);
        st.set_ctx_class(CtxKind::Thread(t), CpuClass::UserProc);
        st.sched.wake(t);
        st.schedule_at(cy(250), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(100), 9)])],
            thread_chunks: vec![(t, vec![Chunk::new(cy(1000), 5)])],
            sleep_when_done: vec![t],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(40));
        e.run_until(cy(2_000));
        let u = e.usage();
        assert_eq!(u.ledger.get(CpuClass::RxIntr), cy(100));
        assert_eq!(u.ledger.get(CpuClass::UserProc), cy(1000));
        assert_eq!(u.ledger.get(CpuClass::KernelOther), cy(40), "switch cost");
        assert_eq!(u.ledger.get(CpuClass::Idle), u.idle_cycles);
        assert_eq!(u.ledger.total(), u.now, "conservation");
    }

    #[test]
    fn fold_conserves_and_tags_by_stage() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.set_ctx_class(CtxKind::Intr(src), CpuClass::RxIntr);
        let t = st.sched.spawn("worker", Priority::USER);
        st.set_ctx_class(CtxKind::Thread(t), CpuClass::UserProc);
        st.sched.wake(t);
        st.schedule_at(cy(250), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(100), 9)])],
            thread_chunks: vec![(t, vec![Chunk::new(cy(1000), 5)])],
            sleep_when_done: vec![t],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(40));
        e.run_until(cy(2_000));
        let u = e.usage();
        let fold = e.state().fold();
        assert_eq!(fold.total(), u.now, "fold conserves elapsed time");
        let by_stack: Vec<_> = fold.iter().collect();
        assert!(by_stack
            .iter()
            .any(|&(cpu, class, tag, cy_)| cpu == CpuId(0)
                && class == CpuClass::RxIntr
                && tag == 9
                && cy_ == cy(100)));
        assert!(by_stack
            .iter()
            .any(|&(_, class, tag, cy_)| class == CpuClass::UserProc
                && tag == 5
                && cy_ == cy(1000)));
        // Switch overhead and idle land on the executor tag 0.
        assert!(by_stack
            .iter()
            .any(|&(_, class, tag, _)| class == CpuClass::KernelOther && tag == 0));
        assert!(by_stack
            .iter()
            .any(|&(_, class, tag, _)| class == CpuClass::Idle && tag == 0));
    }

    #[test]
    fn out_of_contract_tags_share_the_last_stage_cell() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("rx", Ipl::IMP);
        st.schedule_at(cy(0), Ev::Post(src));
        let chunks =
            [Chunk::TAG_LIMIT - 1, Chunk::TAG_LIMIT, u64::MAX].map(|t| Chunk::new(cy(10), t));
        let wl = Script {
            intr_chunks: vec![(src, chunks.to_vec())],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        assert_eq!(
            e.workload().log[2].1,
            format!("done Intr(IntrSrc(0)) tag={}", u64::MAX),
            "the workload still gets its own tag back"
        );
        let fold = e.state().fold();
        let handler: Vec<_> = fold.iter().filter(|s| s.1 != CpuClass::Idle).collect();
        let last = Chunk::TAG_LIMIT - 1;
        assert_eq!(handler, [(CpuId(0), CpuClass::KernelOther, last, cy(30))]);
        assert_eq!(e.usage().ledger.total(), e.now(), "and nothing is lost");
    }

    #[test]
    fn unclassified_contexts_charge_kernel_other() {
        let mut st = EnvState::new(cy(1_000_000));
        let src = st.intr.register("mystery", Ipl::IMP);
        st.schedule_at(cy(0), Ev::Post(src));
        let wl = Script {
            intr_chunks: vec![(src, vec![Chunk::new(cy(77), 1)])],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        assert_eq!(e.usage().ledger.get(CpuClass::KernelOther), cy(77));
    }

    #[test]
    fn quiescent_with_no_work_at_all() {
        let st: EnvState<Ev> = EnvState::new(cy(1_000));
        let mut e = Engine::new(st, Script::default(), cy(0));
        assert_eq!(e.run_until(cy(5_000)), Exit::Quiescent);
        assert_eq!(e.now(), cy(5_000), "idles up to the limit");
    }

    #[test]
    fn source_event_dispatches_before_queued_event_at_equal_time() {
        let mut st = EnvState::new(cy(1_000_000));
        // Queued first, so it carries the lowest sequence number the
        // queue will ever hand out — and still loses the tie.
        st.schedule_at(cy(100), Ev::Note("queued"));
        st.schedule_at(cy(50), Ev::Note("queued-early"));
        let mut e = Engine::new(st, Script::default(), cy(0));
        e.enable_trace(64);
        let (source, built) = ListSource::boxed(vec![
            (100, Ev::Note("source-a")),
            (100, Ev::Note("source-b")),
            (200, Ev::Note("source-late")),
        ]);
        e.set_arrival_source(source);
        assert_eq!(e.run_until(cy(150)), Exit::HitLimit);
        assert_eq!(built.get(), 2, "the late event is not built early");
        assert_eq!(e.run_to_quiescence(), Exit::Quiescent);
        let order: Vec<_> = e
            .workload()
            .log
            .iter()
            .map(|(t, s)| (*t, s.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                (50, "queued-early"),
                (100, "source-a"),
                (100, "source-b"),
                (100, "queued"),
                (200, "source-late"),
            ]
        );
        assert_eq!(e.st.events_dispatched, 5, "source events count");
        let externals = e
            .trace()
            .expect("tracing on")
            .records()
            .filter(|r| r.event == TraceEvent::External)
            .count();
        assert_eq!(externals, 5, "source events are traced");
    }

    #[test]
    fn quiescence_waits_for_the_source() {
        let st: EnvState<Ev> = EnvState::new(cy(1_000));
        let mut e = Engine::new(st, Script::default(), cy(0));
        let (source, built) = ListSource::boxed(vec![(5_000, Ev::Note("only"))]);
        e.set_arrival_source(source);
        assert_eq!(e.state().pending_events(), 0);
        assert_eq!(
            e.run_until(cy(1_000)),
            Exit::HitLimit,
            "an empty queue is not quiescence while the source holds an event"
        );
        assert_eq!(built.get(), 0);
        assert_eq!(e.run_until(cy(9_000)), Exit::Quiescent, "source drained");
        assert_eq!(e.workload().log, [(5_000, "only".to_string())]);
        assert_eq!(e.run_to_quiescence(), Exit::Quiescent);
    }

    #[test]
    fn arrival_on_the_run_limit_exists_then_dispatches_first() {
        let st: EnvState<Ev> = EnvState::new(cy(1_000));
        let mut e = Engine::new(st, Script::default(), cy(0));
        let (source, built) = ListSource::boxed(vec![(400, Ev::Note("arrival"))]);
        e.set_arrival_source(source);
        assert_eq!(e.run_until(cy(400)), Exit::HitLimit);
        assert_eq!(built.get(), 1, "time reached the arrival: it exists");
        assert!(e.workload().log.is_empty(), "but the limit holds dispatch");
        assert_eq!(e.run_until(cy(400)), Exit::HitLimit);
        assert!(
            e.workload().log.is_empty(),
            "a zero-length run dispatches nothing"
        );
        // Anything injected between runs still goes after it.
        e.state_schedule(cy(400), Ev::Note("injected"));
        assert_eq!(e.run_to_quiescence(), Exit::Quiescent);
        let order: Vec<_> = e.workload().log.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(order, ["arrival", "injected"]);
        assert_eq!(e.st.events_dispatched, 2);
    }

    #[test]
    fn nested_preemption_three_deep() {
        let mut st = EnvState::new(cy(1_000_000));
        let soft = st.intr.register("softnet", Ipl::SOFTNET);
        let imp = st.intr.register("rx", Ipl::IMP);
        let clock = st.intr.register("clock", Ipl::CLOCK);
        st.schedule_at(cy(0), Ev::Post(soft));
        st.schedule_at(cy(100), Ev::Post(imp));
        st.schedule_at(cy(150), Ev::Post(clock));
        let wl = Script {
            intr_chunks: vec![
                (soft, vec![Chunk::new(cy(1000), 1)]),
                (imp, vec![Chunk::new(cy(200), 2)]),
                (clock, vec![Chunk::new(cy(30), 3)]),
            ],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(0));
        e.run_to_quiescence();
        let log = &e.workload().log;
        assert_eq!(log[0].0, 180, "clock at the top of the stack");
        assert_eq!(log[1].0, 330, "imp resumed, finished 100+200+30");
        assert_eq!(log[2].0, 1230, "softnet stretched by both preemptors");
        assert_eq!(e.usage().total_intr(), cy(1230));
    }

    /// Everything a run exposes, for comparing two runs of one script.
    #[derive(Debug, PartialEq)]
    struct Observed {
        log: Vec<(u64, String)>,
        idle_calls: u64,
        intr_by_src: Vec<Cycles>,
        thread_by_id: Vec<Cycles>,
        sched_cycles: Cycles,
        idle_cycles: Cycles,
        ledger: CycleLedger,
        now: Cycles,
        fold: CycleFold,
        events_dispatched: u64,
        taken: Vec<u64>,
        trace: Vec<TraceRecord>,
    }

    fn observe(e: &Engine<Script>, srcs: &[IntrSrc]) -> Observed {
        let u = e.usage();
        Observed {
            log: e.workload().log.clone(),
            idle_calls: e.workload().idle_calls,
            intr_by_src: u.intr_by_src,
            thread_by_id: u.thread_by_id,
            sched_cycles: u.sched_cycles,
            idle_cycles: u.idle_cycles,
            ledger: u.ledger,
            now: u.now,
            fold: e.state().fold(),
            events_dispatched: e.state().events_dispatched(),
            taken: srcs
                .iter()
                .map(|&s| e.state().intr.taken_count(s))
                .collect(),
            trace: e.trace().expect("tracing on").records().copied().collect(),
        }
    }

    /// One engine over a script with nested preemption, zero-cost chunks,
    /// bursts, a masked latch, completions that post interrupts and
    /// schedule zero-delay events, and two threads with a switch cost.
    fn fused_script() -> (Engine<Script>, Vec<IntrSrc>) {
        let mut st = EnvState::new(cy(400));
        let soft = st.intr.register("softnet", Ipl::SOFTNET);
        let rx = st.intr.register("rx", Ipl::IMP);
        let clock = st.intr.register("clock", Ipl::CLOCK);
        let late = st.intr.register("late", Ipl::IMP);
        st.intr.set_enabled(late, false);
        let user = st.sched.spawn("user", Priority::USER);
        let peer = st.sched.spawn("peer", Priority::USER);
        let kern = st.sched.spawn("kern", Priority::KERNEL);
        st.sched.wake(user);
        st.sched.wake(peer);
        for (t, ev) in [
            (0, Ev::Post(soft)),
            (100, Ev::Post(late)),
            (150, Ev::Post(rx)),
            (1_700, Ev::Enable(late, true)),
            (2_300, Ev::Wake(kern)),
            (2_350, Ev::Post(rx)),
            (2_420, Ev::Post(soft)),
            (3_000, Ev::Note("tick")),
        ] {
            st.schedule_at(cy(t), ev);
        }
        let wl = Script {
            intr_chunks: vec![
                (
                    soft,
                    vec![
                        Chunk::new(cy(1000), 1),
                        Chunk::new(cy(0), 2),
                        Chunk::new(cy(300), 3).with_reps(3),
                        Chunk::new(cy(60), 12).with_reps(2),
                    ],
                ),
                (
                    rx,
                    vec![
                        Chunk::new(cy(200), 4),
                        Chunk::new(cy(0), 5),
                        Chunk::new(cy(90), 13).with_reps(4),
                    ],
                ),
                (clock, vec![Chunk::new(cy(30), 6), Chunk::new(cy(0), 6)]),
                (late, vec![Chunk::new(cy(50), 7)]),
            ],
            thread_chunks: vec![
                (
                    user,
                    vec![
                        Chunk::new(cy(100), 8).with_reps(5),
                        Chunk::new(cy(0), 9),
                        Chunk::new(cy(250), 10),
                    ],
                ),
                (peer, vec![Chunk::new(cy(150), 14).with_reps(6)]),
                (kern, vec![Chunk::new(cy(70), 11).with_reps(2)]),
            ],
            sleep_when_done: vec![user, peer, kern],
            // The running context raises what must stop it: a higher-IPL
            // interrupt, and an event due at once.
            post_on_done: vec![(4, clock), (10, rx), (14, clock)],
            note_on_done: vec![(5, 0), (8, 0), (12, 0)],
            ..Default::default()
        };
        let mut e = Engine::new(st, wl, cy(40));
        e.enable_trace(4_096);
        (e, vec![soft, rx, clock, late])
    }

    #[test]
    fn one_run_equals_a_chopped_run() {
        const END: u64 = 8_000;
        let (mut one, srcs) = fused_script();
        one.run_until(cy(END));
        // A run limit at every cycle: the loop head runs at every step
        // boundary, so this is the step-at-a-time reference.
        let (mut chopped, _) = fused_script();
        for t in 1..=END {
            chopped.run_until(cy(t));
        }
        let (a, b) = (observe(&one, &srcs), observe(&chopped, &srcs));
        assert_eq!(a, b);
        // The script exercised what it claims to.
        let log = |s: &str| a.log.iter().filter(|(_, l)| l.contains(s)).count();
        assert!(
            log("start Intr") >= 6 && log("start Thread") >= 6,
            "bursts ran"
        );
        assert!(log("timer") >= 3);
        assert!(
            a.taken.iter().all(|&n| n > 0),
            "every source ran: {:?}",
            a.taken
        );
        assert!(a.sched_cycles > cy(40), "threads switched more than once");
        assert!(a.trace.iter().any(|r| r.event == TraceEvent::Idle));
    }

    #[test]
    #[should_panic(expected = "no progress")]
    fn spin_guard_catches_zero_cost_loops() {
        struct Spinner;
        impl Workload for Spinner {
            type Event = ();
            fn next_chunk(&mut self, _env: &mut Env<'_, ()>, _ctx: CtxKind) -> Option<Chunk> {
                Some(Chunk::new(Cycles::ZERO, 0))
            }
            fn chunk_done(&mut self, _env: &mut Env<'_, ()>, _ctx: CtxKind, _tag: u64) {}
            fn on_event(&mut self, _env: &mut Env<'_, ()>, _event: ()) {}
        }
        let mut st = EnvState::new(cy(1_000));
        let src = st.intr.register("x", Ipl::IMP);
        st.intr.post(src);
        // The handler never returns None and never costs cycles.
        let mut e = Engine::new(st, Spinner, cy(0));
        e.run_until(cy(10));
    }
}
