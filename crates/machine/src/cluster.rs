//! A deterministic SMP cluster: N per-CPU [`Engine`]s advanced in
//! round-robin time slices.
//!
//! Each CPU is a complete, independent executor — its own run queue,
//! event scheduler, interrupt controller, and conserved
//! [`CycleLedger`](crate::ledger::CycleLedger). A cluster advances them
//! through virtual time in fixed-size slices, always visiting CPUs in ascending [`CpuId`] order within a
//! slice. Because the interleaving is a pure function of (slice size, CPU
//! count) and each engine is itself deterministic, a cluster run is
//! bit-identical on every host and at any `par_map` job count — the
//! multi-CPU extension of the single-engine determinism argument.
//!
//! Cross-CPU communication (IPI-style wakeups, work stealing) happens at
//! *slice boundaries only*: the `before_slice` hook passed to
//! [`Cluster::run_until`] runs just before each CPU's slice and is the one
//! sanctioned point where shared state may be turned into engine events.
//! That bounds cross-CPU signal latency at one slice (100 µs at the
//! default slice and calibrated clock) without ever letting two engines
//! interleave within a slice — which is what makes the schedule, and
//! therefore every counter, reproducible.
//!
//! Slices exist only to deliver those signals. CPUs that share no
//! channel have none to deliver, so they need no cluster: each engine
//! can run to the limit on its own — on a host thread of its own — with
//! the same results.

use livelock_sim::Cycles;

use crate::cpu::{CpuId, Engine, Workload};

/// Default interleaving slice: 10,000 cycles = 100 µs at the calibrated
/// 100 MHz clock. Small enough that cross-CPU wakeup latency is
/// negligible against the millisecond-scale clock tick, large enough that
/// a full trial costs only tens of thousands of slice switches.
pub const DEFAULT_SLICE: Cycles = Cycles::new(10_000);

/// N per-CPU engines advanced in deterministic round-robin time slices.
pub struct Cluster<W: Workload> {
    engines: Vec<Engine<W>>,
    slice: Cycles,
    now: Cycles,
}

impl<W: Workload> Cluster<W> {
    /// Builds a cluster over pre-constructed engines, interleaved in
    /// `slice`-sized rounds; `engines[k]` is CPU `k`. Every engine must
    /// start at the same virtual time (normally zero).
    ///
    /// # Panics
    ///
    /// Panics on an empty engine list or a zero slice.
    pub fn new(engines: Vec<Engine<W>>, slice: Cycles) -> Self {
        assert!(!slice.is_zero(), "slice must be positive");
        assert!(!engines.is_empty(), "a cluster has at least one CPU");
        let now = engines[0].now();
        assert!(
            engines.iter().all(|e| e.now() == now),
            "all engines must start at the same virtual time"
        );
        Cluster { engines, slice, now }
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> usize {
        self.engines.len()
    }

    /// Cluster virtual time: every engine has been advanced exactly this
    /// far after [`Cluster::run_until`] returns.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// All engines, in [`CpuId`] order.
    pub fn engines(&self) -> &[Engine<W>] {
        &self.engines
    }

    /// Consumes the cluster, returning the engines in [`CpuId`] order.
    pub fn into_engines(self) -> Vec<Engine<W>> {
        self.engines
    }

    /// Advances every CPU to exactly `limit`, interleaving them in
    /// `slice`-sized rounds: within each round, CPUs run in ascending id order, and
    /// `before_slice(cpu, engine)` runs immediately before each engine's
    /// turn — the hook where pending cross-CPU signals (IPI flags, steal
    /// buffers) become engine events.
    ///
    /// Like [`Engine::run_until`], this always lands `now` exactly on
    /// `limit` (idle engines coast), so ledger windows snapshotted at two
    /// `run_until` boundaries conserve exactly on every CPU.
    pub fn run_until(
        &mut self,
        limit: Cycles,
        mut before_slice: impl FnMut(CpuId, &mut Engine<W>),
    ) {
        while self.now < limit {
            let boundary = (self.now + self.slice).min(limit);
            for (k, engine) in self.engines.iter_mut().enumerate() {
                before_slice(CpuId(k), engine);
                engine.run_until(boundary);
            }
            self.now = boundary;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Chunk, CtxKind, Env, EnvState};
    use crate::ipl::Ipl;

    /// A self-clocking workload: every event runs one fixed-cost handler
    /// chunk and schedules the next event `period` later, `count` times.
    struct Ticker {
        src: crate::intr::IntrSrc,
        period: Cycles,
        cost: Cycles,
        remaining: u32,
        in_handler: bool,
        done_at: Vec<u64>,
    }

    impl Workload for Ticker {
        type Event = ();

        fn next_chunk(&mut self, env: &mut Env<'_, ()>, _ctx: CtxKind) -> Option<Chunk> {
            if self.in_handler {
                self.in_handler = false;
                env.intr_ack(self.src);
                return None;
            }
            self.in_handler = true;
            Some(Chunk::new(self.cost, 1))
        }

        fn chunk_done(&mut self, env: &mut Env<'_, ()>, _ctx: CtxKind, _tag: u64) {
            self.done_at.push(env.now().raw());
            if self.remaining > 0 {
                self.remaining -= 1;
                env.schedule_in(self.period, ());
            }
        }

        fn on_event(&mut self, env: &mut Env<'_, ()>, _event: ()) {
            env.post_intr(self.src);
        }
    }

    fn ticker_engine(cpu: CpuId, period: u64, cost: u64, count: u32) -> Engine<Ticker> {
        let mut st = EnvState::new(Cycles::new(1_000_000));
        st.set_cpu(cpu);
        let src = st.intr.register("tick", Ipl::IMP);
        st.schedule_at(Cycles::new(period), ());
        let wl = Ticker {
            src,
            period: Cycles::new(period),
            cost: Cycles::new(cost),
            remaining: count,
            in_handler: false,
            done_at: Vec::new(),
        };
        Engine::new(st, wl, Cycles::ZERO)
    }

    #[test]
    fn cluster_of_one_matches_a_bare_engine() {
        let mut solo = ticker_engine(CpuId(0), 700, 90, 20);
        solo.run_until(Cycles::new(30_000));
        solo.run_until(Cycles::new(50_000));

        // The hook runs once per slice, seeing the engine where the
        // previous slice left it, across `run_until` calls.
        let mut c = Cluster::new(vec![ticker_engine(CpuId(0), 700, 90, 20)], DEFAULT_SLICE);
        let mut visits = Vec::new();
        for limit in [30_000, 50_000, 50_000] {
            c.run_until(Cycles::new(limit), |cpu, e| {
                visits.push((cpu.0, e.now().raw()))
            });
        }
        assert_eq!(
            visits,
            vec![(0, 0), (0, 10_000), (0, 20_000), (0, 30_000), (0, 40_000)],
            "already at the limit: no call"
        );
        assert_eq!(c.now(), Cycles::new(50_000));

        let e = &c.engines()[0];
        assert_eq!(e.workload().done_at, solo.workload().done_at);
        assert_eq!(e.now(), solo.now());
        assert_eq!(e.usage().ledger, solo.usage().ledger);
    }

    #[test]
    fn slice_size_is_invisible_to_independent_cpus() {
        let engines = || {
            vec![
                ticker_engine(CpuId(0), 700, 90, 30),
                ticker_engine(CpuId(1), 450, 120, 30),
            ]
        };
        let done_at = |engines: &[Engine<Ticker>]| {
            engines
                .iter()
                .map(|e| e.workload().done_at.to_vec())
                .collect::<Vec<_>>()
        };
        let limit = Cycles::new(60_000);
        // CPUs that exchange no signal need no cluster: each bare engine
        // runs straight to the limit.
        let mut bare = engines();
        for e in &mut bare {
            e.run_until(limit);
        }
        for slice in [128, 1_000, 10_000, 50_000] {
            let mut c = Cluster::new(engines(), Cycles::new(slice));
            c.run_until(limit, |_, _| {});
            assert_eq!(done_at(c.engines()), done_at(&bare), "slice {slice}");
            for (e, b) in c.engines().iter().zip(&bare) {
                assert_eq!(e.usage().ledger, b.usage().ledger, "slice {slice}");
            }
        }
    }

    #[test]
    fn every_engine_lands_exactly_on_the_limit() {
        let engines = vec![
            ticker_engine(CpuId(0), 700, 90, 3),
            ticker_engine(CpuId(1), 450, 120, 3),
            ticker_engine(CpuId(2), 999, 1, 0),
        ];
        let mut c = Cluster::new(engines, DEFAULT_SLICE);
        let limit = Cycles::new(123_456);
        c.run_until(limit, |_, _| {});
        assert_eq!(c.now(), limit);
        for e in c.engines() {
            assert_eq!(e.now(), limit, "idle engines coast to the boundary");
            // Per-CPU ledger conservation: every cycle accounted.
            assert_eq!(e.usage().ledger.total(), limit);
        }
    }

    #[test]
    fn before_slice_visits_cpus_in_ascending_order() {
        let engines = vec![
            ticker_engine(CpuId(0), 700, 90, 2),
            ticker_engine(CpuId(1), 450, 120, 2),
        ];
        let mut c = Cluster::new(engines, Cycles::new(1_000));
        let mut visits = Vec::new();
        c.run_until(Cycles::new(3_000), |cpu, e| visits.push((cpu.0, e.now().raw())));
        // Three slices x two CPUs, ascending within each slice, and the
        // hook sees the engine still at the *previous* boundary.
        assert_eq!(
            visits,
            vec![(0, 0), (1, 0), (0, 1_000), (1, 1_000), (0, 2_000), (1, 2_000)]
        );
    }

    #[test]
    fn before_slice_can_deliver_cross_cpu_events() {
        // Use the hook the way the SMP kernel does: turn a shared flag
        // into an engine event at the slice boundary.
        use std::cell::Cell;
        let flag = Cell::new(false);
        let engines = vec![
            ticker_engine(CpuId(0), 10_000_000, 1, 0), // effectively idle
            ticker_engine(CpuId(1), 700, 90, 5),
        ];
        let mut c = Cluster::new(engines, Cycles::new(1_000));
        c.run_until(Cycles::new(10_000), |cpu, e| {
            if cpu == CpuId(1) && e.now() == Cycles::new(2_000) {
                flag.set(true);
            }
            if cpu == CpuId(0) && flag.get() && e.workload().done_at.is_empty() {
                let at = e.now();
                e.state_schedule(at, ());
            }
        });
        // CPU 0 saw the injected wakeup on the slice after the flag rose.
        let done = &c.engines()[0].workload().done_at;
        assert_eq!(done.len(), 1);
        assert!(done[0] >= 3_000, "delivered at the next boundary: {done:?}");
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn empty_cluster_is_rejected() {
        let _ = Cluster::<Ticker>::new(Vec::new(), DEFAULT_SLICE);
    }
}
