//! Property tests for the preemptive executor: whatever the interrupt
//! storm looks like, the machine obeys the architecture.
//!
//! - **Stack discipline**: handler entries/exits nest like parentheses and
//!   a nested handler always has a strictly higher IPL than the one it
//!   preempted.
//! - **Conservation**: interrupt + thread + scheduler + idle cycles equal
//!   elapsed virtual time, always — and the ledger, the fold and the
//!   per-thread totals, all reads of the same cycle book, agree.
//! - **Liveness**: with all sources enabled, quiescence implies no latched
//!   interrupt remains.
//! - **Source equivalence**: streaming arrivals from an `ArrivalSource`
//!   dispatches exactly what scheduling them all up front did, on both
//!   scheduler backends, wherever the run limits fall.

// Property tests are opt-in: `cargo test -p livelock-machine --features proptest`.
#![cfg(feature = "proptest")]

use livelock_machine::cpu::{
    ArrivalSource, Chunk, CtxKind, Engine, Env, EnvState, SchedulerKind, Workload,
};
use livelock_machine::intr::IntrSrc;
use livelock_machine::ipl::Ipl;
use livelock_machine::ledger::CpuClass;
use livelock_machine::thread::{Priority, ThreadId};
use livelock_machine::trace::TraceEvent;
use livelock_sim::Cycles;
use proptest::prelude::*;

/// A workload where every interrupt activation runs one chunk of a fixed
/// per-source cost, and one optional thread burns scripted chunks.
struct StormWorkload {
    /// Cost per activation, per source index.
    handler_cost: Vec<u64>,
    in_handler: Vec<bool>,
    thread_chunks: Vec<u64>,
    activations: Vec<u64>,
}

#[derive(Debug)]
enum Ev {
    Post(IntrSrc),
}

impl Workload for StormWorkload {
    type Event = Ev;

    fn next_chunk(&mut self, env: &mut Env<'_, Ev>, ctx: CtxKind) -> Option<Chunk> {
        match ctx {
            CtxKind::Intr(src) => {
                if self.in_handler[src.0] {
                    self.in_handler[src.0] = false;
                    return None;
                }
                self.in_handler[src.0] = true;
                self.activations[src.0] += 1;
                Some(Chunk::new(Cycles::new(self.handler_cost[src.0]), 1))
            }
            CtxKind::Thread(tid) => {
                if let Some(cost) = self.thread_chunks.pop() {
                    Some(Chunk::new(Cycles::new(cost), 2))
                } else {
                    env.sleep(tid);
                    None
                }
            }
        }
    }

    fn chunk_done(&mut self, _env: &mut Env<'_, Ev>, _ctx: CtxKind, _tag: u64) {}

    fn on_event(&mut self, env: &mut Env<'_, Ev>, event: Ev) {
        let Ev::Post(src) = event;
        env.post_intr(src);
    }
}

/// Replays the trace and checks parenthesis nesting with strictly rising
/// IPLs; returns the maximum nesting depth seen.
fn check_stack_discipline(
    records: impl Iterator<Item = (TraceEvent,)>,
    ipl_of: &[Ipl],
) -> Result<usize, String> {
    let mut stack: Vec<(usize, Ipl)> = Vec::new();
    let mut max_depth = 0;
    for (ev,) in records {
        match ev {
            TraceEvent::IntrEnter(src) => {
                let ipl = ipl_of[src.0];
                if let Some(&(_, top_ipl)) = stack.last() {
                    if ipl <= top_ipl {
                        return Err(format!(
                            "handler at {ipl} entered over handler at {top_ipl}"
                        ));
                    }
                }
                stack.push((src.0, ipl));
                max_depth = max_depth.max(stack.len());
            }
            TraceEvent::IntrExit(src) => match stack.pop() {
                Some((top, _)) if top == src.0 => {}
                other => return Err(format!("exit of src{} but top is {other:?}", src.0)),
            },
            _ => {}
        }
    }
    if stack.is_empty() {
        Ok(max_depth)
    } else {
        Err(format!("{} handlers never exited", stack.len()))
    }
}

/// A workload whose events breed: each arrival or timer logs itself, costs
/// the CPU a handler chunk (so time advances through chunk steps as well
/// as idle jumps), and schedules follow-up timers at scripted delays —
/// zero included, for same-cycle ties against later arrivals.
struct Breeder {
    src: IntrSrc,
    in_handler: bool,
    handler_cost: u64,
    delays: Vec<u64>,
    log: Vec<(u64, u32)>,
}

#[derive(Debug)]
struct Tick {
    id: u32,
    /// Follow-up timers this event still spawns.
    breed: u8,
}

impl Workload for Breeder {
    type Event = Tick;

    fn next_chunk(&mut self, env: &mut Env<'_, Tick>, _ctx: CtxKind) -> Option<Chunk> {
        if self.in_handler {
            self.in_handler = false;
            env.intr_ack(self.src);
            return None;
        }
        self.in_handler = true;
        Some(Chunk::new(Cycles::new(self.handler_cost), 1))
    }

    fn chunk_done(&mut self, _env: &mut Env<'_, Tick>, _ctx: CtxKind, _tag: u64) {}

    fn on_event(&mut self, env: &mut Env<'_, Tick>, ev: Tick) {
        self.log.push((env.now().raw(), ev.id));
        env.post_intr(self.src);
        if ev.breed > 0 {
            let delay = self.delays[ev.id as usize % self.delays.len()];
            env.schedule_in(
                Cycles::new(delay),
                Tick {
                    id: ev.id + 1_000,
                    breed: ev.breed - 1,
                },
            );
        }
    }
}

/// Arrival `i` fires at `times[i]` as `Tick { id: i, breed }`.
struct TickSource {
    times: Vec<u64>,
    breed: u8,
    pos: usize,
}

impl ArrivalSource<Tick> for TickSource {
    fn next_time(&self) -> Option<Cycles> {
        self.times.get(self.pos).map(|&t| Cycles::new(t))
    }

    fn pop(&mut self) -> Option<Tick> {
        self.times.get(self.pos)?;
        self.pos += 1;
        Some(Tick {
            id: self.pos as u32 - 1,
            breed: self.breed,
        })
    }
}

/// What a scripted chunk does when it completes, beyond being logged.
#[derive(Clone, Copy, Debug)]
enum Effect {
    Nothing,
    /// Posts the source with this index.
    Post(usize),
    /// Schedules a `Note` due at once.
    Note,
    /// Masks or unmasks the source with this index.
    Enable(usize, bool),
}

/// A workload that replays a script: every source and every thread hands
/// out its own chunks in order (a source returns from each activation
/// once its list is spent; a thread then sleeps), and each completing
/// chunk applies its [`Effect`]. A chunk's tag is its index in `effects`.
struct Scripted {
    srcs: Vec<IntrSrc>,
    intr: Vec<Vec<Chunk>>,
    threads: Vec<Vec<Chunk>>,
    effects: Vec<Effect>,
    log: Vec<(u64, String)>,
}

#[derive(Debug)]
enum Cue {
    Post(usize),
    Wake(ThreadId),
    Enable(usize, bool),
    Note,
}

impl Workload for Scripted {
    type Event = Cue;

    fn next_chunk(&mut self, env: &mut Env<'_, Cue>, ctx: CtxKind) -> Option<Chunk> {
        let list = match ctx {
            CtxKind::Intr(src) => &mut self.intr[src.0],
            CtxKind::Thread(tid) => &mut self.threads[tid.0],
        };
        if list.is_empty() {
            if let CtxKind::Thread(tid) = ctx {
                env.sleep(tid);
            }
            return None;
        }
        Some(list.remove(0))
    }

    fn chunk_done(&mut self, env: &mut Env<'_, Cue>, ctx: CtxKind, tag: u64) {
        self.log
            .push((env.now().raw(), format!("done {ctx:?} {tag}")));
        match self.effects[tag as usize] {
            Effect::Nothing => {}
            Effect::Post(i) => env.post_intr(self.srcs[i]),
            Effect::Note => env.schedule_in(Cycles::ZERO, Cue::Note),
            Effect::Enable(i, on) => env.set_intr_enabled(self.srcs[i], on),
        }
    }

    fn chunk_start(&mut self, env: &mut Env<'_, Cue>, ctx: CtxKind, tag: u64) {
        self.log
            .push((env.now().raw(), format!("start {ctx:?} {tag}")));
    }

    fn on_event(&mut self, env: &mut Env<'_, Cue>, cue: Cue) {
        self.log.push((env.now().raw(), format!("{cue:?}")));
        match cue {
            Cue::Post(i) => env.post_intr(self.srcs[i]),
            Cue::Wake(tid) => {
                env.wake(tid);
            }
            Cue::Enable(i, on) => env.set_intr_enabled(self.srcs[i], on),
            Cue::Note => {}
        }
    }

    fn on_idle(&mut self, env: &mut Env<'_, Cue>) {
        self.log.push((env.now().raw(), "idle".to_string()));
    }
}

/// A scripted chunk as drawn: `(cost, reps, effect pick)`.
type ChunkSpec = (u64, u32, usize);

/// The script's inputs, as the property draws them.
struct Script {
    ipls: Vec<u8>,
    intr: Vec<Vec<ChunkSpec>>,
    threads: Vec<(bool, Vec<ChunkSpec>)>,
    cues: Vec<(u64, usize, usize)>,
    ctx_switch: u64,
    quantum: u64,
}

/// Everything a run exposes: the workload's log, the cycle book's
/// projections, the dispatch and per-source delivery counts, the trace.
type Seen = (
    Vec<(u64, String)>,
    Vec<Cycles>,
    Vec<Cycles>,
    (Cycles, Cycles, Cycles),
    Vec<(CpuClass, u64, Cycles)>,
    u64,
    Vec<u64>,
    Vec<(Cycles, TraceEvent)>,
);

/// Runs `script` to `end`, either in one `run_until` or chopped into one
/// per simulated cycle.
fn run_script(script: &Script, end: u64, chopped: bool) -> Seen {
    let mut st = EnvState::new(Cycles::new(script.quantum));
    let srcs: Vec<IntrSrc> = script
        .ipls
        .iter()
        .map(|&l| st.intr.register("s", Ipl::new(l)))
        .collect();
    let n = srcs.len();
    let mut effects = vec![Effect::Nothing];
    let mut chunks = |specs: &[ChunkSpec]| -> Vec<Chunk> {
        specs
            .iter()
            .map(|&(cost, reps, pick)| {
                effects.push(match pick % 6 {
                    0 => Effect::Post(pick % n),
                    1 => Effect::Note,
                    2 => Effect::Enable(pick % n, pick % 4 < 2),
                    _ => Effect::Nothing,
                });
                let tag = effects.len() as u64 - 1;
                Chunk::new(Cycles::new(cost), tag).with_reps(reps)
            })
            .collect()
    };
    let intr: Vec<Vec<Chunk>> = (0..n)
        .map(|i| chunks(script.intr.get(i).map_or(&[][..], Vec::as_slice)))
        .collect();
    let mut tids = Vec::new();
    let mut threads = Vec::new();
    for (kernel, specs) in &script.threads {
        let prio = if *kernel {
            Priority::KERNEL
        } else {
            Priority::USER
        };
        let tid = st.sched.spawn("t", prio);
        st.set_ctx_class(CtxKind::Thread(tid), CpuClass::UserProc);
        st.sched.wake(tid);
        tids.push(tid);
        threads.push(chunks(specs));
    }
    for &(t, kind, which) in &script.cues {
        let cue = match kind % 4 {
            0 | 1 => Cue::Post(which % n),
            2 if !tids.is_empty() => Cue::Wake(tids[which % tids.len()]),
            _ => Cue::Enable(which % n, which % 3 != 0),
        };
        st.schedule_at(Cycles::new(t), cue);
    }
    let wl = Scripted {
        srcs: srcs.clone(),
        intr,
        threads,
        effects,
        log: Vec::new(),
    };
    let mut e = Engine::new(st, wl, Cycles::new(script.ctx_switch));
    e.enable_trace(100_000);
    if chopped {
        for t in 1..=end {
            e.run_until(Cycles::new(t));
        }
    } else {
        e.run_until(Cycles::new(end));
    }
    let u = e.usage();
    let taken = srcs
        .iter()
        .map(|&s| e.state().intr.taken_count(s))
        .collect();
    let trace = e.trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "trace ring too small for the check");
    let trace = trace.records().map(|r| (r.at, r.event)).collect();
    (
        e.workload().log.clone(),
        u.intr_by_src,
        u.thread_by_id,
        (u.sched_cycles, u.idle_cycles, u.now),
        e.state()
            .fold()
            .iter()
            .map(|(_, c, t, cy)| (c, t, cy))
            .collect(),
        e.state().events_dispatched(),
        taken,
        trace,
    )
}

/// What one run observed: dispatch log, dispatch count, external trace
/// records, final time.
type Observed = (Vec<(u64, u32)>, u64, usize, Cycles);

fn run_breeder(
    kind: SchedulerKind,
    streamed: bool,
    arrivals: &[u64],
    timers: &[u64],
    delays: &[u64],
    handler_cost: u64,
    stops: &[u64],
) -> Observed {
    let mut st = EnvState::with_scheduler(Cycles::new(1_000_000), kind);
    let src = st.intr.register("tick", Ipl::IMP);
    let wl = Breeder {
        src,
        in_handler: false,
        handler_cost,
        delays: delays.to_vec(),
        log: Vec::new(),
    };
    let mut e = Engine::new(st, wl, Cycles::ZERO);
    e.enable_trace(100_000);
    let mut source = TickSource {
        times: arrivals.to_vec(),
        breed: 2,
        pos: 0,
    };
    if streamed {
        e.set_arrival_source(Box::new(source));
    } else {
        // The oracle: every arrival scheduled up front, ahead of
        // everything else, so arrivals hold the lowest sequence numbers.
        while let Some(t) = source.next_time() {
            let ev = source.pop().expect("announced");
            e.state_schedule(t, ev);
        }
    }
    for (i, &t) in timers.iter().enumerate() {
        e.state_schedule(
            Cycles::new(t),
            Tick {
                id: 500 + i as u32,
                breed: 1,
            },
        );
    }
    for &stop in stops {
        e.run_until(Cycles::new(stop));
    }
    e.run_to_quiescence();
    let externals = e
        .trace()
        .expect("tracing enabled")
        .records()
        .filter(|r| r.event == TraceEvent::External)
        .count();
    let dispatched = e.state().events_dispatched();
    let now = e.now();
    (e.into_parts().1.log, dispatched, externals, now)
}

/// A chunk cost, a quarter of them zero.
fn cost(c: u64) -> u64 {
    if c % 4 == 0 {
        0
    } else {
        c
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executor keeps running a context while nothing intervenes;
    /// a run limit at every cycle forces the loop head at every step
    /// boundary instead. Both must produce the same log, cycle book,
    /// dispatch count, per-source deliveries and trace — through nested
    /// preemption, zero-cost chunks, bursts, masked latches, completions
    /// that post interrupts or schedule events due at once, and threads
    /// that pay a switch cost and a quantum.
    #[test]
    fn one_run_equals_a_chopped_run(
        ipls in proptest::collection::vec(1u8..=6, 1..5),
        intr in proptest::collection::vec(
            proptest::collection::vec((0u64..400, 0u32..4, 0usize..36), 0..6),
            1..5,
        ),
        threads in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0u64..500, 0u32..5, 0usize..36), 0..8)),
            0..3,
        ),
        cues in proptest::collection::vec((0u64..5_000, 0usize..4, 0usize..12), 0..30),
        ctx_switch in 0u64..60,
        quantum in 100u64..2_000,
    ) {
        let zeroed = |specs: &Vec<ChunkSpec>| -> Vec<ChunkSpec> {
            specs.iter().map(|&(c, r, p)| (cost(c), r, p)).collect()
        };
        let script = Script {
            ipls,
            intr: intr.iter().map(zeroed).collect(),
            threads: threads.iter().map(|(k, s)| (*k, zeroed(s))).collect(),
            cues,
            ctx_switch,
            quantum,
        };
        const END: u64 = 7_000;
        let one = run_script(&script, END, false);
        let chopped = run_script(&script, END, true);
        prop_assert_eq!(one, chopped);
    }

    /// Streaming arrivals from a source is indistinguishable from having
    /// scheduled them all before the run: same events at the same times
    /// in the same order, same counts, on both backends — including
    /// same-cycle ties between arrivals, queued timers and zero-delay
    /// follow-ups, and run limits that land exactly on an arrival.
    #[test]
    fn source_is_equivalent_to_preloading(
        gaps in proptest::collection::vec(0u64..400, 1..80),
        timers in proptest::collection::vec(0u64..12_000, 0..12),
        delays in proptest::collection::vec(0u64..900, 1..6),
        handler_cost in 0u64..300,
        stop_picks in proptest::collection::vec((0usize..80, 0u64..2), 0..6),
    ) {
        // Arrival times on a coarse grid (multiples of 100 dominate), so
        // timers, follow-ups and arrivals really do collide.
        let mut t = 0;
        let arrivals: Vec<u64> = gaps
            .iter()
            .map(|g| {
                t += (g / 100) * 100 + if g % 7 == 0 { g % 100 } else { 0 };
                t
            })
            .collect();
        let timers: Vec<u64> = timers.iter().map(|t| (t / 100) * 100).collect();
        // A third of the follow-up delays are zero, a third one grid step.
        let delays: Vec<u64> = delays
            .iter()
            .map(|&d| match d % 3 {
                0 => 0,
                1 => 100,
                _ => d,
            })
            .collect();
        // Run limits: exactly on an arrival, or just past one.
        let mut stops: Vec<u64> = stop_picks
            .iter()
            .map(|&(i, off)| arrivals[i % arrivals.len()] + off)
            .collect();
        stops.sort_unstable();
        let run = |kind, streamed| {
            run_breeder(kind, streamed, &arrivals, &timers, &delays, handler_cost, &stops)
        };
        let oracle = run(SchedulerKind::Heap, false);
        prop_assert_eq!(
            oracle.1 as usize, oracle.0.len(), "every dispatch is logged");
        prop_assert_eq!(oracle.2, oracle.0.len(), "every dispatch is traced");
        for (kind, streamed) in [
            (SchedulerKind::Heap, true),
            (SchedulerKind::Calendar, true),
            (SchedulerKind::Calendar, false),
        ] {
            let got = run(kind, streamed);
            prop_assert_eq!(&got, &oracle, "{:?} streamed={}", kind, streamed);
        }
    }

    #[test]
    fn storm_obeys_the_architecture(
        // Up to 4 sources at IPLs 1..=6, random handler costs.
        ipls in proptest::collection::vec(1u8..=6, 1..4),
        costs in proptest::collection::vec(10u64..5_000, 1..4),
        posts in proptest::collection::vec((0u64..200_000, 0usize..4), 0..100),
        thread_chunks in proptest::collection::vec(10u64..2_000, 0..10),
        ctx_switch in 0u64..100,
    ) {
        let n = ipls.len().min(costs.len());
        let mut st = EnvState::new(Cycles::new(1_000_000));
        let mut srcs = Vec::new();
        let mut src_ipls = Vec::new();
        // Each context in a class of its own (the last source stays
        // unclassified), so the per-class projections have something to
        // tell apart.
        for (i, &lvl) in ipls.iter().take(n).enumerate() {
            let ipl = Ipl::new(lvl);
            let src = st.intr.register("s", ipl);
            if i + 1 < n {
                st.set_ctx_class(CtxKind::Intr(src), CpuClass::ALL[i]);
            }
            srcs.push(src);
            src_ipls.push(ipl);
        }
        let has_thread = !thread_chunks.is_empty();
        if has_thread {
            let tid = st.sched.spawn("worker", Priority::USER);
            st.set_ctx_class(CtxKind::Thread(tid), CpuClass::UserProc);
            st.sched.wake(tid);
        }
        for &(t, which) in &posts {
            let src = srcs[which % n];
            st.schedule_at(Cycles::new(t), Ev::Post(src));
        }
        let wl = StormWorkload {
            handler_cost: costs.iter().take(n).copied().collect(),
            in_handler: vec![false; n],
            thread_chunks,
            activations: vec![0; n],
        };
        let mut e = Engine::new(st, wl, Cycles::new(ctx_switch));
        e.enable_trace(100_000);
        let exit = e.run_to_quiescence();

        // Liveness: quiescent means nothing latched remains deliverable.
        prop_assert_eq!(exit, livelock_machine::cpu::Exit::Quiescent);
        for &src in &srcs {
            prop_assert!(
                !e.state().intr.is_pending(src),
                "latched interrupt survived quiescence"
            );
        }

        // Conservation.
        let u = e.usage();
        let accounted = u.total_intr() + u.total_thread() + u.sched_cycles + u.idle_cycles;
        prop_assert_eq!(accounted, u.now, "cycle accounting must balance");

        // The projections of the one cycle book agree with each other.
        let (ledger, fold) = (e.state().ledger(), e.state().fold());
        prop_assert_eq!(ledger, u.ledger);
        prop_assert_eq!(ledger.total(), u.now);
        prop_assert_eq!(fold.total(), u.now);
        for class in CpuClass::ALL {
            let stacks = fold.iter().filter(|&(_, c, _, _)| c == class);
            let cells: Cycles = stacks.map(|(_, _, _, cy)| cy).sum();
            prop_assert_eq!(cells, ledger.get(class), "{:?}", class);
        }
        for (t, &cy) in u.thread_by_id.iter().enumerate() {
            prop_assert_eq!(cy, e.state().thread_cycles(ThreadId(t)));
        }

        // Stack discipline over the full trace.
        let trace = e.trace().expect("tracing enabled");
        prop_assert_eq!(trace.dropped(), 0, "trace ring too small for the check");
        let result = check_stack_discipline(
            trace.records().map(|r| (r.event,)),
            &src_ipls,
        );
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());

        // Work accounting: every activation burned exactly its cost.
        let expected_intr: u64 = e
            .workload()
            .activations
            .iter()
            .zip(&e.workload().handler_cost)
            .map(|(a, c)| a * c)
            .sum();
        prop_assert_eq!(u.total_intr(), Cycles::new(expected_intr));
    }

    /// Same-IPL sources never nest: with every source at SPLIMP, the
    /// maximum observed nesting depth is 1.
    #[test]
    fn same_ipl_never_nests(
        posts in proptest::collection::vec((0u64..50_000, 0usize..3), 1..60),
    ) {
        let mut st = EnvState::new(Cycles::new(1_000_000));
        let srcs: Vec<_> = (0..3).map(|_| st.intr.register("rx", Ipl::IMP)).collect();
        for &(t, which) in &posts {
            st.schedule_at(Cycles::new(t), Ev::Post(srcs[which]));
        }
        let wl = StormWorkload {
            handler_cost: vec![500; 3],
            in_handler: vec![false; 3],
            thread_chunks: Vec::new(),
            activations: vec![0; 3],
        };
        let mut e = Engine::new(st, wl, Cycles::ZERO);
        e.enable_trace(100_000);
        e.run_to_quiescence();
        let trace = e.trace().expect("tracing enabled");
        let depth = check_stack_discipline(
            trace.records().map(|r| (r.event,)),
            &[Ipl::IMP; 3],
        )
        .expect("discipline holds");
        prop_assert!(depth <= 1, "same-IPL handlers nested to depth {depth}");
    }
}
