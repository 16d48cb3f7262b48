//! The paper's measurement methodology (§6.1) as a harness.
//!
//! "A source host generated IP/UDP packets at a variety of rates, and sent
//! them via the router to a destination address. ... In all the trials
//! reported on here, the packet generator sent 10000 UDP packets carrying 4
//! bytes of data. ... We calculated the delivered packet rate by using the
//! 'netstat' program to sample the output interface count ('Opkts') before
//! and after each trial."
//!
//! [`run_trial`] reproduces one such trial: generate a jittered
//! constant-rate schedule, pace it to Ethernet feasibility, inject the
//! frames on interface 0, run the simulated router, and report rates
//! averaged over the steady-state measurement window. [`sweep`] runs a
//! trial per input rate, producing the `(input rate, output rate)` series
//! every figure in the paper plots.
//!
//! There is one trial pipeline — *plan* the traffic, then per CPU *build*
//! an engine, *run* it (in a sliced [`Cluster`] when the CPUs share a
//! channel, as a parallel job when they do not) and *collect* its books,
//! then fold the CPUs — and [`run_trial`], [`run_trial_traced`] and
//! [`run_chaos_trial`] are thin callers of it that differ only in whether
//! engines trace and how long the machine drains past the window. The
//! paper's uniprocessor is a cluster of one, so every capability works
//! at every CPU count.

use livelock_core::analysis::SweepPoint;
use livelock_machine::chrome_trace_json;
use livelock_machine::cluster::{Cluster, DEFAULT_SLICE};
use livelock_machine::cpu::{ArrivalSource, CpuId, Engine};
use livelock_machine::fold::CycleFold;
use livelock_machine::ledger::{CpuClass, CycleLedger};
use livelock_machine::nic::rss_queue;
use livelock_machine::thread::ThreadId;
use livelock_machine::trace::TraceRecord;
use livelock_machine::wire::Wire;
use livelock_net::gen::{PacketFactory, TraceReplay, TrafficGen};
use livelock_net::ipv4::proto;
use livelock_net::packet::MIN_FRAME_LEN;
use livelock_net::pool::{FramePool, PoolStats};
use livelock_sim::{Cycles, Nanos};

use livelock_net::classify::{Classifier, TrafficClass};
use livelock_net::FlowKey;
use livelock_sim::Freq;

use crate::config::KernelConfig;
use crate::flows::{FlowRegistry, FlowStats};
use crate::par::{default_jobs, par_map, Parallelism};
use crate::router::{CpuLink, Event, RouterKernel, SOCKET_CAP, STEAL_BUF_CAP};
use crate::stats::{ClassStats, DropReason, DropStats, FaultStats, KernelStats, LatencyStats};
use crate::telemetry::{ObsEvent, Timeline};

/// Fraction of every trial treated as warm-up and excluded from the
/// measurement window.
pub const WARMUP_FRAC: f64 = 0.1;

/// One trial's parameters.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Nominal offered rate in packets/second.
    pub rate_pps: f64,
    /// Packets to generate (the paper used 10000).
    pub n_packets: usize,
    /// RNG seed for arrival jitter.
    pub seed: u64,
    /// UDP source ports to cycle packets through (packet *i* carries
    /// port `i % len`), making each port one flow for per-flow
    /// accounting and for steering to a CPU's receive queue — at any CPU
    /// count, so a deliberately imbalanced set (every flow hashing to
    /// CPU 0) is just a spec. `None` picks the default for the topology:
    /// the factory's single fixed port on one CPU, a deterministic
    /// 64-flow set on more, which fills 2, 4 or 8 queues evenly
    /// ([`BALANCED_NCPUS`]) and 3, 5, 6 or 7 unevenly.
    pub flows: Option<Vec<u16>>,
    /// The kernel under test.
    pub config: KernelConfig,
}

impl TrialSpec {
    /// A paper-like trial: 10000 packets, 10% warm-up, seed 1.
    pub fn new(config: KernelConfig) -> Self {
        TrialSpec {
            rate_pps: 1000.0,
            n_packets: 10_000,
            seed: 1,
            flows: None,
            config,
        }
    }
}

/// One CPU's share of a trial: the per-CPU slice of what used to be four
/// machine-global scalars on [`TrialResult`], plus the work-stealing
/// counters that only exist per CPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuStats {
    /// Which CPU these numbers describe ([`CpuStats::AGGREGATE`] for the
    /// synthetic cross-CPU roll-up returned by [`TrialResult::aggregate`]).
    pub cpu: CpuId,
    /// Fraction of this CPU's window cycles per [`CpuClass`], indexed by
    /// [`CpuClass::index`] in [`CpuClass::ALL`] order. The machine's
    /// conserved cycle ledger restricted to the measurement window: the
    /// nine entries sum to 1 on every CPU.
    pub cpu_share: [f64; CpuClass::COUNT],
    /// Fraction of this CPU's window cycles the compute-bound user
    /// process got (0 when no user process was configured).
    pub user_cpu_frac: f64,
    /// Hardware interrupts this CPU took over the whole trial.
    pub interrupts_taken: u64,
    /// Events this CPU's engine dispatched over the whole trial
    /// (arrivals, wire completions, clock pulses, deferred interrupts,
    /// IPIs, faults).
    pub events_dispatched: u64,
    /// Frames this CPU parked in its steal buffer when its own receive
    /// ring overflowed (0 unless stealing is enabled).
    pub steals_published: u64,
    /// Frames this CPU pulled from siblings' steal buffers while
    /// otherwise idle (0 unless stealing is enabled).
    pub steals_taken: u64,
}

impl CpuStats {
    /// The sentinel [`CpuId`] carried by [`TrialResult::aggregate`]'s
    /// cross-CPU roll-up (it describes no single CPU).
    pub const AGGREGATE: CpuId = CpuId(usize::MAX);
}

/// One traffic class's trial summary — the class dimension of the
/// stats API, next to the CPU dimension ([`CpuStats`]) and the flow
/// dimension ([`FlowStats`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSummary {
    /// Which class these numbers describe.
    pub class: TrafficClass,
    /// Wire arrivals classified into this class (whole trial).
    pub arrived: u64,
    /// Packets of this class delivered (whole trial).
    pub delivered: u64,
    /// Packets of this class shed by the admission gate (whole trial).
    pub shed: u64,
    /// Delivered rate inside the measurement window, pkts/s.
    pub delivered_pps: f64,
    /// Mean wire-to-delivery sojourn of this class's delivered packets.
    pub latency_mean: Nanos,
    /// 99th-percentile sojourn (bucketed upper bound) — the number the
    /// `Control` SLO constrains.
    pub latency_p99: Nanos,
}

/// Renders the kernel's per-class books as [`ClassSummary`] rows in
/// [`TrafficClass`] index order; empty when classification was off.
/// `shed` is read from the drop taxonomy, the one place drops are kept.
fn class_summaries(class: Option<&ClassStats>, drops: &DropStats, freq: Freq) -> Vec<ClassSummary> {
    let Some(cs) = class else {
        return Vec::new();
    };
    TrafficClass::ALL
        .into_iter()
        .map(|c| {
            let cc = cs.get(c);
            ClassSummary {
                class: c,
                arrived: cc.arrived,
                delivered: cc.delivered,
                shed: drops.get(DropReason::ClassShed { class: c }),
                delivered_pps: cs.delivered_pps(c, freq),
                latency_mean: cc.latency_mean(),
                latency_p99: cc.latency.quantile(0.99),
            }
        })
        .collect()
}

/// What one trial measured.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialResult {
    /// Offered rate actually achieved inside the window (pkts/s).
    pub offered_pps: f64,
    /// Delivered (transmitted) rate inside the window (pkts/s).
    pub delivered_pps: f64,
    /// Total frames transmitted over the whole trial.
    pub transmitted: u64,
    /// Frames dropped at the receive ring (free drops).
    pub rx_ring_drops: u64,
    /// Packets dropped at `ipintrq`.
    pub ipintrq_drops: u64,
    /// Packets dropped at the screend queue.
    pub screend_q_drops: u64,
    /// Packets denied (consumed) by the screening rules.
    pub screend_denied: u64,
    /// Packets dropped at the local socket buffer (end-system mode).
    pub socket_q_drops: u64,
    /// Packets consumed by the local application over the whole trial.
    pub app_delivered: u64,
    /// Local application goodput inside the window (pkts/s).
    pub app_delivered_pps: f64,
    /// Packets dropped at output interface queues.
    pub ifq_drops: u64,
    /// Mean forwarding latency of delivered packets.
    pub latency_mean: Nanos,
    /// 99th-percentile forwarding latency (bucketed upper bound).
    pub latency_p99: Nanos,
    /// Standard deviation of forwarding latency — the jitter the paper's
    /// §3 requires scheduling to keep low.
    pub latency_jitter: Nanos,
    /// Full latency distributions: total sojourn plus per-stage residency
    /// histograms (empty when `config.latency_tracking` is off).
    pub latency: LatencyStats,
    /// Every drop in the trial, attributed to a [`DropReason`].
    pub drops: DropStats,
    /// Per-CPU execution statistics, one entry per configured CPU in
    /// [`CpuId`] order (always at least one). The CPU-dimension API:
    /// read through [`TrialResult::per_cpu`] and
    /// [`TrialResult::aggregate`].
    pub per_cpu: Vec<CpuStats>,
    /// The telemetry timeline — every CPU's samples, in `(time, cpu)`
    /// order — when the spec's
    /// [`KernelConfig::telemetry`](crate::config::KernelConfig::telemetry)
    /// enabled the periodic sampler (`None` otherwise).
    pub timeline: Option<Timeline>,
    /// Frame-pool counters at trial end, [merged](PoolStats::merge)
    /// over CPUs: every packet buffer in the trial came from its CPU's
    /// [`FramePool`], preallocated to what the configured rings and
    /// queues can hold at once — whatever the trial's length — so
    /// `pool.misses` is the number of per-packet heap allocations (0 on
    /// every fault-free trial), and `pool.high_water` is the sum of each
    /// CPU's own high-water mark.
    pub pool: PoolStats,
    /// Fault-injection and recovery counters (all zero when the config
    /// carries no fault plan).
    pub fault: FaultStats,
    /// The per-flow registry (merged across CPUs on SMP), when the
    /// spec's [`KernelConfig::observe`](crate::config::KernelConfig::observe)
    /// enabled the observability layer (`None` otherwise).
    pub flows: Option<FlowRegistry>,
    /// The livelock detector's typed event stream, ordered by
    /// `(cycle, cpu)` — empty unless observability was enabled.
    pub events: Vec<ObsEvent>,
    /// The machine's `(cpu, class, chunk-tag)` cycle fold for flamegraph
    /// export (merged across CPUs on SMP) — `None` unless observability
    /// was enabled.
    pub fold: Option<CycleFold>,
    /// Per-traffic-class statistics in [`TrafficClass`] index order
    /// (merged across CPUs on SMP) when the spec's
    /// [`KernelConfig::classes`](crate::config::KernelConfig::classes)
    /// enabled classification — empty otherwise. The class-dimension
    /// API: read through [`TrialResult::per_class`].
    pub classes: Vec<ClassSummary>,
}

impl TrialResult {
    /// This trial as a sweep point.
    pub fn point(&self) -> SweepPoint {
        SweepPoint::new(self.offered_pps, self.delivered_pps)
    }

    /// Per-flow statistics sorted by flow key, completing the
    /// stats-dimension API next to [`TrialResult::per_cpu`] and
    /// [`TrialResult::aggregate`]. Empty when observability was off.
    pub fn per_flow(&self) -> Vec<&FlowStats> {
        match &self.flows {
            Some(reg) => reg.per_flow(),
            None => Vec::new(),
        }
    }

    /// Per-CPU execution statistics in [`CpuId`] order (one entry on a
    /// single-CPU trial).
    pub fn per_cpu(&self) -> &[CpuStats] {
        &self.per_cpu
    }

    /// Per-class statistics in [`TrafficClass`] index order, completing
    /// the stats-dimension API next to [`TrialResult::per_cpu`] and
    /// [`TrialResult::per_flow`]. Empty when classification was off.
    pub fn per_class(&self) -> &[ClassSummary] {
        &self.classes
    }

    /// The cross-CPU roll-up: CPU shares and user fraction averaged over
    /// CPUs (each CPU's shares sum to 1, so the mean does too), counters
    /// summed, tagged with [`CpuStats::AGGREGATE`]. On a single-CPU trial
    /// this is that CPU's stats under the sentinel id.
    pub fn aggregate(&self) -> CpuStats {
        let n = self.per_cpu.len().max(1) as f64;
        let mut agg = CpuStats {
            cpu: CpuStats::AGGREGATE,
            cpu_share: [0.0; CpuClass::COUNT],
            user_cpu_frac: 0.0,
            interrupts_taken: 0,
            events_dispatched: 0,
            steals_published: 0,
            steals_taken: 0,
        };
        for c in &self.per_cpu {
            for (a, s) in agg.cpu_share.iter_mut().zip(c.cpu_share) {
                *a += s / n;
            }
            agg.user_cpu_frac += c.user_cpu_frac / n;
            agg.interrupts_taken += c.interrupts_taken;
            agg.events_dispatched += c.events_dispatched;
            agg.steals_published += c.steals_published;
            agg.steals_taken += c.steals_taken;
        }
        agg
    }
}

/// Runs one trial on `config.topology.ncpus` CPUs (one by default — the
/// paper's uniprocessor is a cluster of one): one kernel per CPU behind
/// its own NIC receive queue and wire, flows steered to queues by RSS
/// hash (by traffic class when the config classifies). CPUs that share a
/// channel advance together through the deterministic cluster
/// interleaver; CPUs that share none run as parallel jobs. The result is
/// the same bits on every host at any thread count.
///
/// # Panics
///
/// Panics if the spec is degenerate (zero packets, non-positive rate, or
/// an explicitly empty flow set), if a CPU's cycle ledger does not sum to
/// its elapsed time, or — on a fault-free trial of more than one CPU — if
/// NIC-boundary packet conservation fails.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    run_pipeline(spec, None, Cycles::ZERO).result
}

/// Runs one trial with machine-level scheduling-event tracing enabled on
/// every CPU (a ring of `trace_capacity` records each), returning the
/// result plus the traces rendered as one Chrome-trace / Perfetto JSON
/// document with a process group per CPU (load it at `chrome://tracing`
/// or <https://ui.perfetto.dev>). Tracing perturbs nothing: the measured
/// numbers are identical to [`run_trial`]'s.
///
/// # Panics
///
/// Panics exactly when [`run_trial`] does.
pub fn run_trial_traced(spec: &TrialSpec, trace_capacity: usize) -> (TrialResult, String) {
    let done = run_pipeline(spec, Some(trace_capacity), Cycles::ZERO);
    // Tracing was requested above, so `chrome_json` is always `Some`; an
    // empty string (never produced in practice) would only mean no trace.
    (done.result, done.chrome_json.unwrap_or_default())
}

/// The *plan* stage's output: who sends what, where, and when.
struct Plan {
    /// `(source port, receive queue)` per flow; packet *i* of the whole
    /// trial carries flow `i % len`.
    flows: Vec<(u16, usize)>,
    /// One job per CPU, in [`CpuId`] order: CPU `k` is fed by receive
    /// queue `k`.
    jobs: Vec<CpuJob>,
    /// The measurement window: after warm-up, until the last arrival.
    window: (Cycles, Cycles),
    /// How long the machine runs past the window before its books are
    /// read, even when the caller asks for no drain.
    settle: Cycles,
}

/// Stage 1, *plan*: one aggregate arrival schedule at the nominal rate,
/// each flow steered to a receive queue, each queue paced by its own wire
/// (so aggregate offered load can exceed a single wire's 14,880 pkts/s),
/// and the measurement window over the paced schedules.
///
/// Runs before the pools and the kernels exist: the schedule is the
/// trial's one allocation that grows with its length, and freed after the
/// many small ones it would otherwise leave a hole among them that the
/// next trial's schedule may not fit.
fn plan(spec: &TrialSpec) -> Plan {
    assert!(spec.n_packets > 0, "trial needs packets");
    assert!(spec.rate_pps > 0.0, "trial needs a positive rate");
    let cfg = &spec.config;
    let ncpus = cfg.topology.ncpus;
    let freq = cfg.cost.freq;
    let factory = PacketFactory::paper_testbed();
    // The two data differences between one CPU and many. First, a lone
    // CPU defaults to the paper's single flow, a cluster to a flow set
    // that loads its queues evenly.
    let ports = match &spec.flows {
        Some(ports) => ports.clone(),
        None if ncpus == 1 => vec![factory.src_port],
        None => balanced_flows(),
    };
    // Second, a cluster settles for one more slice, so the final
    // arrivals (scheduled at exactly the window's end) and any trailing
    // IPIs are processed before the audit; a lone CPU stops at the
    // window's end as it always has (`events_dispatched` is part of its
    // results).
    let settle = if ncpus == 1 {
        Cycles::ZERO
    } else {
        DEFAULT_SLICE
    };
    assert!(!ports.is_empty(), "trial needs at least one flow");

    // Class-aware steering: when classification is configured, frames
    // are steered by traffic class (`class.index() % ncpus`) instead of
    // RSS hash, so each priority lands on a dedicated CPU's queue and
    // strict-priority service survives the multiqueue split. The
    // classifier here is the same deterministic rule engine every kernel
    // runs at admission, so steering and per-class accounting always
    // agree.
    let classifier = cfg
        .classes
        .as_ref()
        .map(|c| Classifier::new(c.rules.clone(), c.default_class));
    let flows: Vec<(u16, usize)> = ports
        .into_iter()
        .map(|src_port| {
            let key = udp_key(&factory, src_port);
            let queue = match &classifier {
                Some(cl) => cl.classify(&key).index() % ncpus,
                None => rss_queue(&key, ncpus),
            };
            (src_port, queue)
        })
        .collect();

    // One aggregate schedule, drawn packet by packet straight into each
    // packet's queue. Each queue's buffer is sized exactly up front (flow
    // `j` carries packets `j`, `j + len`, ...) and moves into the job
    // that runs its CPU.
    let mut sizes = vec![0; ncpus];
    let (per_flow, rest) = (spec.n_packets / flows.len(), spec.n_packets % flows.len());
    for (j, &(_, queue)) in flows.iter().enumerate() {
        sizes[queue] += per_flow + usize::from(j < rest);
    }
    let mut queue_times: Vec<Vec<Cycles>> = sizes.into_iter().map(Vec::with_capacity).collect();
    let mut traffic = TrafficGen::paper_default(spec.rate_pps, freq, spec.seed);
    let mut t = Cycles::ZERO;
    for i in 0..spec.n_packets {
        t += traffic.next_interval();
        queue_times[flows[i % flows.len()].1].push(t);
    }
    for q in &mut queue_times {
        Wire::ethernet_10m(freq).pace(q, MIN_FRAME_LEN);
    }

    // The schedule is nonempty (`n_packets > 0` was asserted above), so
    // the fallbacks never fire.
    let first = queue_times.iter().filter_map(|q| q.first()).min();
    let first = first.copied().unwrap_or(Cycles::ZERO);
    let last = queue_times.iter().filter_map(|q| q.last()).max();
    let last = last.copied().unwrap_or(Cycles::ZERO);
    let span = last - first;
    let window_start = first + Cycles::new((span.raw() as f64 * WARMUP_FRAC) as u64);
    let mut first_id = 0;
    let jobs = (queue_times.into_iter().enumerate())
        .map(|(k, times)| {
            let job = CpuJob {
                cpu: CpuId(k),
                first_id,
                times,
            };
            first_id += job.times.len() as u64;
            job
        })
        .collect();
    Plan {
        flows,
        jobs,
        window: (window_start, last),
        settle,
    }
}

/// One CPU's part of the plan, moved into the job that runs that CPU.
struct CpuJob {
    cpu: CpuId,
    /// This CPU's receive queue's paced arrival times.
    times: Vec<Cycles>,
    /// The trial-wide id of this queue's first packet: packet ids are one
    /// space across queues, queue `k`'s starting where queue `k - 1`'s
    /// end.
    first_id: u64,
}

/// What every CPU of one trial is built and run with. Read once, on the
/// thread that called the pipeline, and shared by every CPU's job.
struct Run<'a> {
    spec: &'a TrialSpec,
    /// The plan's `(source port, receive queue)` per flow.
    flows: &'a [(u16, usize)],
    window: (Cycles, Cycles),
    /// Where every CPU stops: the window's end plus the post-window run.
    end: Cycles,
    /// Trace every engine into a ring this size.
    trace_capacity: Option<usize>,
    /// The preloading oracle's switch, read here so that a CPU run on
    /// another thread obeys it too.
    #[cfg(test)]
    preload: bool,
}

/// Stage 2, *build*, for one CPU: its own frame pool, sized to what the
/// configured kernel can hold in flight (packets are built as they
/// arrive, so slots recycle and the run performs zero per-packet heap
/// allocations), its kernel behind `link`, its engine, and its queue of
/// the plan as the engine's arrival source.
fn build(run: &Run<'_>, link: CpuLink, job: CpuJob) -> Engine<RouterKernel> {
    let cfg = &run.spec.config;
    let pool = FramePool::new(POOL_BUF_CAPACITY, pool_prealloc(cfg));
    let factory = PacketFactory::paper_testbed()
        .with_pool(pool.clone())
        .starting_at(job.first_id);
    let mut c = cfg.clone();
    // A fault plan targets one CPU; siblings run clean.
    if c.faults
        .as_ref()
        .is_some_and(|plan| plan.target() != job.cpu)
    {
        c.faults = None;
    }
    let (st, mut kernel) = RouterKernel::build_linked(c, link, pool);
    kernel.stats_mut().set_window(run.window.0, run.window.1);
    let mut engine = Engine::new(st, kernel, cfg.cost.ctx_switch);
    if let Some(capacity) = run.trace_capacity {
        engine.enable_trace(capacity);
    }
    let arrivals = WireArrivals::new(job.times, factory, run.flows.to_vec(), job.cpu.0);
    #[cfg(test)]
    if run.preload {
        oracle::preload(&mut engine, arrivals);
        return engine;
    }
    engine.set_arrival_source(Box::new(arrivals));
    engine
}

/// One CPU's cumulative user-process cycles and cycle ledger, for
/// differencing across the measurement window.
type Snapshot = (Option<Cycles>, CycleLedger);

fn snapshot(e: &Engine<RouterKernel>) -> Snapshot {
    let user = e.workload().user_tid().map(|t| e.state().thread_cycles(t));
    (user, e.state().ledger())
}

/// Stages 3 and 4 for a CPU that shares no channel, as one job: build
/// it, run it warm-up → window → post-window straight through, collect
/// it, and drop its engine before the job returns.
fn run_unshared(run: &Run<'_>, job: CpuJob) -> CpuOutcome {
    let cfg = &run.spec.config;
    let link = CpuLink::unshared(job.cpu, &cfg.topology, cfg.ipintrq_cap);
    let mut engine = build(run, link, job);
    // Like a cluster's `run_until`, a stop the engine already stands on
    // runs nothing.
    let mut advance_to = |limit: Cycles| {
        if engine.now() < limit {
            engine.run_until(limit);
        }
        snapshot(&engine)
    };
    let before = advance_to(run.window.0);
    let after = advance_to(run.window.1);
    advance_to(run.end);
    let pool = engine.workload().pool().stats();
    collect(run, engine, &before, &after, pool)
}

/// Stages 3 and 4 for CPUs that share a channel: one [`Cluster`] sliced
/// at [`DEFAULT_SLICE`] on the calling thread, whose slice hook is the
/// sole cross-CPU signal path — it drains a CPU's coalesced IPI flag
/// into one `Event::Ipi` per slice. Every CPU's pool is read before any
/// engine drops, so a frame one CPU holds of another's pool is still out
/// when that pool is read.
fn run_sliced(run: &Run<'_>, jobs: Vec<CpuJob>) -> Vec<CpuOutcome> {
    let cfg = &run.spec.config;
    let links = CpuLink::cluster(&cfg.topology, cfg.ipintrq_cap);
    let engines = links
        .into_iter()
        .zip(jobs)
        .map(|(link, job)| build(run, link, job))
        .collect();
    let mut cluster = Cluster::new(engines, DEFAULT_SLICE);
    let mut deliver_ipi = |_: CpuId, engine: &mut Engine<RouterKernel>| {
        #[cfg(test)]
        oracle::count_slice();
        if engine.workload().link().take_ipi() {
            engine.state_schedule(engine.now(), Event::Ipi);
        }
    };
    cluster.run_until(run.window.0, &mut deliver_ipi);
    let before: Vec<_> = cluster.engines().iter().map(snapshot).collect();
    cluster.run_until(run.window.1, &mut deliver_ipi);
    let after: Vec<_> = cluster.engines().iter().map(snapshot).collect();
    cluster.run_until(run.end, &mut deliver_ipi);
    let engines = cluster.into_engines();
    let pools: Vec<_> = engines
        .iter()
        .map(|e| e.workload().pool().stats())
        .collect();
    engines
        .into_iter()
        .zip(before.iter().zip(&after).zip(pools))
        .map(|(e, ((b, a), pool))| collect(run, e, b, a, pool))
        .collect()
}

/// One CPU's share of a finished trial: everything the fold reads, owned
/// and `Send`, so the CPU can be collected on whichever thread ran it.
struct CpuOutcome {
    stats: CpuStats,
    /// The kernel's books, moved out of it.
    kernel: KernelStats,
    /// The livelock detector's events.
    events: Vec<ObsEvent>,
    /// The cycle fold, when observability is on.
    fold: Option<CycleFold>,
    trace: Option<CpuTrace>,
    pool: PoolStats,
    /// Frames this CPU's NIC accounted for: DMA'd into its ring, dropped
    /// at the ring, or shed at admission.
    nic_accounted: u64,
    /// Frames still parked in this CPU's steal buffer.
    steal_parked: usize,
    end: CpuEnd,
}

/// One CPU's trace, with the names its records refer to by index.
struct CpuTrace {
    records: Vec<TraceRecord>,
    /// Fault and detector markers, in time order.
    markers: Vec<(Cycles, String)>,
    /// Interrupt source `i`'s name is `intr_names[i]`.
    intr_names: Vec<&'static str>,
    /// Thread `t`'s name is `thread_names[t]`.
    thread_names: Vec<&'static str>,
}

/// One CPU's end state, as [`run_chaos_trial`] reports it.
struct CpuEnd {
    gate_bits: u8,
    screend_q_len: usize,
    timeout_resumes: u64,
}

/// Stage 4, *collect*, for one CPU: checks its cycle conservation, gives
/// a too-short timeline its drain-time sample, and moves its books out
/// of the engine, which it consumes. `pool` is the CPU's frame-pool
/// counters at the trial's end.
fn collect(
    run: &Run<'_>,
    mut e: Engine<RouterKernel>,
    (user_before, ledger_before): &Snapshot,
    (user_after, ledger_after): &Snapshot,
    pool: PoolStats,
) -> CpuOutcome {
    let cpu = e.state().cpu();
    let interrupts_taken = e.state().intr.total_taken();
    let (now, ledger) = (e.state().now(), e.state().ledger());
    // Cycle conservation, checked on every trial: the ledger is a read of
    // the executor's one cycle book, so this is the book's total against
    // the clock.
    assert_eq!(
        ledger.total(),
        now,
        "cycle conservation violated on cpu{}: the ledger must sum to elapsed time",
        cpu.0
    );
    e.workload_mut()
        .finalize_timeline(now, ledger, interrupts_taken);
    // The detector's event stream also feeds the chrome-trace markers,
    // next to the fault layer's.
    let events = e.workload_mut().take_obs_events();
    let trace = e
        .trace()
        .map(|trace| trace.records().copied().collect::<Vec<_>>());
    let trace = trace.map(|records| {
        let mut markers = e.workload_mut().take_fault_markers();
        markers.extend(
            events
                .iter()
                .map(|ev| (ev.at, format!("{} (cpu{})", ev.kind.label(), ev.cpu.0))),
        );
        markers.sort_by_key(|&(at, _)| at.raw());
        let sched = &e.state().sched;
        CpuTrace {
            records,
            markers,
            intr_names: e.state().intr.names().collect(),
            thread_names: (0..sched.len()).map(|t| sched.name(ThreadId(t))).collect(),
        }
    });

    let window = run.window.1 - run.window.0;
    let (steals_published, steals_taken) = e.workload().link().steals();
    let events_dispatched = e.state().events_dispatched();
    let fold = run.spec.config.observe.then(|| e.state().fold());
    let (_, k) = e.into_parts();
    let drops = &k.stats().drops;
    CpuOutcome {
        stats: CpuStats {
            cpu,
            cpu_share: ledger_after.since(ledger_before).shares(),
            user_cpu_frac: match (user_before, user_after) {
                (Some(b), Some(a)) if !window.is_zero() => (*a - *b).fraction_of(window),
                _ => 0.0,
            },
            interrupts_taken,
            events_dispatched,
            steals_published,
            steals_taken,
        },
        fold,
        pool,
        nic_accounted: k.ipkts(0) + drops.rx_ring_drops() + drops.class_shed_drops(),
        steal_parked: k.link().steal_parked(),
        end: CpuEnd {
            gate_bits: k.gate_bits(),
            screend_q_len: k.screend_q_len(),
            timeout_resumes: k.feedback_timeout_resumes(),
        },
        kernel: k.into_stats(),
        events,
        trace,
    }
}

/// NIC-boundary packet conservation: every generated packet was DMA'd
/// into some CPU's ring (`Ipkts`), dropped at some CPU's ring, shed at
/// admission (before the ring, so never an `Ipkt`), or is still parked in
/// a steal buffer.
///
/// Only meaningful once the machine has run *past* its window on a
/// fault-free plan, which is when the pipeline calls it: a trial that
/// stops at the window's end still holds its last arrival (scheduled at
/// exactly that cycle) parked in the engine, outside every kernel's
/// books; and fault plans change the population — link flaps lose frames
/// on the wire, storms synthesize extras.
fn audit_nic_boundary(cpus: &[CpuOutcome], n_packets: usize) {
    let accounted: u64 = cpus
        .iter()
        .map(|c| c.nic_accounted + c.steal_parked as u64)
        .sum();
    assert_eq!(
        accounted, n_packets as u64,
        "NIC-boundary packet conservation violated"
    );
}

/// What the pipeline hands its three callers.
struct Finished {
    result: TrialResult,
    /// The Chrome trace, when tracing was requested.
    chrome_json: Option<String>,
    /// Each CPU's end state and books in [`CpuId`] order (the books'
    /// timeline, flows and class books moved into `result`).
    ends: Vec<(CpuEnd, KernelStats)>,
}

/// The one trial pipeline behind [`run_trial`], [`run_trial_traced`] and
/// [`run_chaos_trial`] — [`plan`], then per CPU [`build`], *run*
/// (warm-up → window → post-window) and [`collect`], then one fold in
/// [`CpuId`] order. The callers differ only in `trace_capacity` (trace
/// every engine into a ring that size) and `drain` (keep simulating that
/// long past the window: measured numbers are unaffected — the window is
/// closed first — but queues get a chance to empty, which the chaos
/// invariants assert on).
///
/// CPUs that share a channel ([`CpuLink::coupled`]) run as one sliced
/// [`Cluster`] on the calling thread. CPUs that share none are
/// independent simulations: each is one job of a [`par_map`] over at most
/// [`default_jobs`] threads, the caller's among them — inline when the
/// trial itself runs inside a [`par_map`] — and, since the fold reads the
/// CPUs in [`CpuId`] order whichever thread ran them, the result is the
/// same bits either way.
fn run_pipeline(spec: &TrialSpec, trace_capacity: Option<usize>, drain: Cycles) -> Finished {
    let ncpus = spec.config.topology.ncpus;
    let Plan {
        flows,
        jobs,
        window,
        settle,
    } = plan(spec);
    let run = Run {
        spec,
        flows: &flows,
        window,
        end: window.1 + drain.max(settle),
        trace_capacity,
        #[cfg(test)]
        preload: oracle::preloading(),
    };
    let coupled = CpuLink::coupled(&spec.config);
    #[cfg(test)]
    let coupled = coupled || oracle::slicing();
    // The result's latency book (the largest allocation that outlives the
    // trial) is made before any engine: made in the space the freed
    // engines leave, it splits the hole the next trial's engines would
    // reuse, and the heap creeps (+1–2 % peak RSS on 1-CPU workloads).
    let latency = LatencyStats::new();
    let cpus = if coupled {
        run_sliced(&run, jobs)
    } else {
        let threads = if ncpus > 1 {
            ncpus.min(default_jobs())
        } else {
            1
        };
        par_map(jobs, threads, |job| run_unshared(&run, job))
    };
    if run.end > run.window.1 && spec.config.faults.is_none() {
        audit_nic_boundary(&cpus, spec.n_packets);
    }
    fold(&run, cpus, latency)
}

/// The fold: one pass over the CPUs in [`CpuId`] order, per-CPU books
/// out, everything else merged (latencies into `latency`, empty). Rates
/// are summed per CPU (not recomputed from summed counts), and every
/// merge runs in CPU order, so the result does not depend on which CPU
/// finished first.
fn fold(run: &Run<'_>, cpus: Vec<CpuOutcome>, mut latency: LatencyStats) -> Finished {
    let freq = run.spec.config.cost.freq;
    let mut per_cpu = Vec::with_capacity(cpus.len());
    let mut events: Vec<ObsEvent> = Vec::new();
    let mut traces = Vec::new();
    let mut ends = Vec::with_capacity(cpus.len());
    let mut fold = run.spec.config.observe.then(CycleFold::new);
    let mut timeline: Option<Timeline> = None;
    let mut flows: Option<FlowRegistry> = None;
    let mut classes: Option<ClassStats> = None;
    let mut drops = DropStats::new();
    let mut fault = FaultStats::default();
    let mut pool = PoolStats::default();
    let (mut offered_pps, mut delivered_pps, mut app_delivered_pps) = (0.0, 0.0, 0.0);
    let (mut transmitted, mut app_delivered) = (0, 0);
    for mut c in cpus {
        per_cpu.push(c.stats);
        events.extend(c.events);
        traces.extend(c.trace);
        if let (Some(fold), Some(one)) = (&mut fold, &c.fold) {
            fold.merge(one);
        }
        pool.merge(&c.pool);
        let s = &mut c.kernel;
        merge_into(&mut timeline, s.timeline.take(), Timeline::merge);
        merge_into(&mut flows, s.flows.take(), FlowRegistry::merge);
        merge_into(&mut classes, s.class.take(), ClassStats::merge);
        latency.merge(&s.latency);
        drops.merge(&s.drops);
        fault.merge(&s.fault);
        offered_pps += s.offered_pps(freq);
        delivered_pps += s.delivered_pps(freq);
        app_delivered_pps += s.app_delivered_pps(freq);
        transmitted += s.transmitted;
        app_delivered += s.app_delivered;
        ends.push((c.end, c.kernel));
    }
    events.sort_by_key(|ev| (ev.at.raw(), ev.cpu.0));

    let chrome_json = run.trace_capacity.map(|_| {
        let tracks: Vec<_> = traces
            .iter()
            .map(|t| (&t.records[..], &t.markers[..]))
            .collect();
        chrome_trace_json(
            &tracks,
            freq,
            |cpu, src| format!("{} #{}", traces[cpu.0].intr_names[src.0], src.0),
            |cpu, tid| traces[cpu.0].thread_names[tid.0].to_string(),
        )
    });
    let result = TrialResult {
        offered_pps,
        delivered_pps,
        transmitted,
        rx_ring_drops: drops.rx_ring_drops(),
        ipintrq_drops: drops.ipintrq_drops(),
        screend_q_drops: drops.screend_q_drops(),
        screend_denied: drops.screend_denied(),
        socket_q_drops: drops.socket_q_drops(),
        app_delivered,
        app_delivered_pps,
        ifq_drops: drops.ifq_drops(),
        latency_mean: latency.mean(),
        latency_p99: latency.quantile(0.99),
        latency_jitter: latency.jitter(),
        latency,
        classes: class_summaries(classes.as_ref(), &drops, freq),
        drops,
        per_cpu,
        timeline,
        pool,
        fault,
        flows,
        events,
        fold,
    };
    Finished {
        result,
        chrome_json,
        ends,
    }
}

/// Folds one CPU's optional book into the cluster's: the first CPU that
/// has one seeds the accumulator, the rest merge into it.
fn merge_into<T>(acc: &mut Option<T>, one: Option<T>, merge: impl FnOnce(&mut T, &T)) {
    match (acc.as_mut(), one) {
        (Some(acc), Some(one)) => merge(acc, &one),
        (None, Some(one)) => *acc = Some(one),
        (_, None) => {}
    }
}

/// The CPU counts whose receive queues the default flow set of
/// [`TrialSpec::flows`] loads evenly; the CLI accepts only these.
pub const BALANCED_NCPUS: [usize; 4] = [1, 2, 4, 8];

/// The key of the UDP flow `factory` sends from `src_port`.
fn udp_key(factory: &PacketFactory, src_port: u16) -> FlowKey {
    FlowKey {
        src_ip: factory.src_ip.into(),
        dst_ip: factory.dst_ip.into(),
        proto: proto::UDP,
        src_port,
        dst_port: factory.dst_port,
    }
}

/// 64 UDP flows (source ports) whose RSS hashes fill the 4 possible RX
/// queues with exactly 16 flows each, listed bucket-interleaved so that
/// cycling through them in order also balances 2-queue (4 | 64 and the
/// 4-bucket balance implies the 2-bucket one: `hash % 2 == (hash % 4) % 2`)
/// and 1-queue steering. Found by deterministic search from the testbed
/// factory's base port, so the flow set never changes across runs.
fn balanced_flows() -> Vec<u16> {
    const PER_BUCKET: usize = 16;
    let f = PacketFactory::paper_testbed();
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); 4];
    let mut port = f.src_port;
    while buckets.iter().any(|b| b.len() < PER_BUCKET) {
        let q = rss_queue(&udp_key(&f, port), 4);
        if buckets[q].len() < PER_BUCKET {
            buckets[q].push(port);
        }
        port = port.wrapping_add(1);
    }
    let mut out = Vec::with_capacity(4 * PER_BUCKET);
    for i in 0..PER_BUCKET {
        for b in &buckets {
            out.push(b[i]);
        }
    }
    out
}

/// End-state invariants measured by [`run_chaos_trial`] after the fault
/// storm and the post-window drain, over every CPU of the trial.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The trial's measured numbers (fault counters included).
    pub result: TrialResult,
    /// Whether every CPU's interrupt gate ended the run open — a
    /// permanently inhibited gate is the wedge the recovery machinery
    /// must prevent.
    pub gate_open_at_end: bool,
    /// The gates' final inhibit bitmasks, OR-ed across CPUs (zero iff
    /// all are open).
    pub gate_bits: u8,
    /// Depth of the screend queues after the drain, summed across CPUs:
    /// they must empty after every injected crash and restart.
    pub screend_q_len: usize,
    /// Packets still inside the machine after the drain (computed from
    /// the conserved arrival/delivery/drop ledger summed across CPUs —
    /// packets cross CPUs, so only the sum balances — which panics if it
    /// does not; frames still parked in a steal buffer count).
    pub in_flight: u64,
    /// Times the watermark feedback's timeout safety net fired, summed
    /// across CPUs.
    pub timeout_resumes: u64,
}

/// Runs one trial like [`run_trial`] — at any CPU count, with the same
/// steering — then keeps the simulation alive for a 200 ms (simulated)
/// drain with no new arrivals and reports the end-state invariants a
/// gracefully degrading kernel must satisfy. Intended for specs whose
/// config carries a [`FaultPlan`](livelock_machine::fault::FaultPlan)
/// (injected into the CPU it targets), but works (and should be
/// trivially green) without one.
///
/// # Panics
///
/// Panics if the spec is degenerate (as [`run_trial`]), if the kernels'
/// summed drop ledger fails to conserve packets, or — on a fault-free
/// spec — if NIC-boundary packet conservation fails.
pub fn run_chaos_trial(spec: &TrialSpec) -> ChaosReport {
    let drain = spec.config.cost.freq.cycles_from_millis(200);
    let done = run_pipeline(spec, None, drain);
    let ends = || done.ends.iter().map(|(end, _)| end);
    ChaosReport {
        gate_open_at_end: ends().all(|e| e.gate_bits == 0),
        gate_bits: ends().fold(0, |bits, e| bits | e.gate_bits),
        screend_q_len: ends().map(|e| e.screend_q_len).sum(),
        in_flight: KernelStats::in_flight_of(done.ends.iter().map(|(_, stats)| stats)),
        timeout_resumes: ends().map(|e| e.timeout_resumes).sum(),
        result: done.result,
    }
}

/// Per-buffer capacity of a trial's frame pools. The paper's test frames
/// are minimum-size (60 bytes); ICMP errors quoting them and ARP replies
/// also fit well under this, so pooled buffers never grow.
const POOL_BUF_CAPACITY: usize = 128;

/// Extra pool buffers per CPU beyond the rings and queues: frames in a
/// handler's hands and kernel-originated replies (ARP, ICMP, application
/// echoes) in flight at once.
const POOL_HEADROOM: usize = 64;

/// Buffers each CPU's frame pool preallocates: every place the
/// configured kernel can hold a frame, full, on every interface, plus
/// [`POOL_HEADROOM`]. A function of the configuration alone — a trial's
/// length never enters it. A frame a sibling holds (in the shared
/// `ipintrq`, or stolen) returns to its own CPU's pool.
fn pool_prealloc(cfg: &KernelConfig) -> usize {
    // Receive rings, transmit ring, output queue, the frame on the wire.
    let per_iface = cfg.nic.rx_ring * cfg.rx_rings() + cfg.nic.tx_ring + cfg.ifq_cap + 1;
    let screend = cfg.screend.as_ref().map_or(0, |s| s.queue_cap);
    let socket = if cfg.local.is_some() { SOCKET_CAP } else { 0 };
    let steal = if CpuLink::stealing(&cfg.topology) {
        STEAL_BUF_CAP
    } else {
        0
    };
    per_iface * cfg.num_ifaces + cfg.ipintrq_cap + screend + socket + steal + POOL_HEADROOM
}

/// A trial's traffic as the engine's [`ArrivalSource`]: packet *i* — its
/// pool slot and its event — is built when virtual time reaches its
/// arrival, never before. One per receive queue; the packets of
/// queue `q` are those whose flow steers there.
struct WireArrivals {
    /// This queue's paced arrival times.
    schedule: TraceReplay,
    factory: PacketFactory,
    /// `(source port, receive queue)` per flow; packet *i* of the whole
    /// trial carries flow `i % len`.
    flows: Vec<(u16, usize)>,
    queue: usize,
    /// The flow of the next packet to consider: the trial-wide packet
    /// index modulo `flows.len()`, kept by wrapping.
    cursor: usize,
}

impl WireArrivals {
    fn new(
        times: Vec<Cycles>,
        factory: PacketFactory,
        flows: Vec<(u16, usize)>,
        queue: usize,
    ) -> Self {
        WireArrivals {
            schedule: TraceReplay::new(times),
            factory,
            flows,
            queue,
            cursor: 0,
        }
    }
}

impl ArrivalSource<Event> for WireArrivals {
    fn next_time(&self) -> Option<Cycles> {
        self.schedule.peek()
    }

    fn pop(&mut self) -> Option<Event> {
        self.schedule.next_arrival()?;
        // A scheduled arrival means a packet of this queue remains, so
        // the skip over other queues' packets terminates.
        let port = loop {
            let (port, queue) = self.flows[self.cursor];
            self.cursor += 1;
            if self.cursor == self.flows.len() {
                self.cursor = 0;
            }
            if queue == self.queue {
                break port;
            }
        };
        self.factory.src_port = port;
        Some(Event::RxArrive {
            iface: 0,
            pkt: self.factory.next_packet(),
        })
    }
}

/// A labelled rate sweep: the series one figure curve plots.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Curve label (e.g. "quota = 5 packets").
    pub label: String,
    /// One result per requested rate, in order.
    pub trials: Vec<TrialResult>,
}

impl SweepResult {
    /// The `(offered, delivered)` points for analysis and plotting.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.trials.iter().map(TrialResult::point).collect()
    }
}

/// Runs one trial per rate with otherwise identical parameters, fanning
/// trials out according to `par`.
///
/// Each trial is an independent seeded simulation, so the result is
/// bit-for-bit identical across every [`Parallelism`] choice — trials
/// come back in rate order.
pub fn sweep(label: &str, base: &TrialSpec, rates: &[f64], par: Parallelism) -> SweepResult {
    let trials = par_map(rates, par.jobs(), |&rate_pps| {
        run_trial(&TrialSpec {
            rate_pps,
            ..base.clone()
        })
    });
    SweepResult {
        label: label.to_string(),
        trials,
    }
}

/// The input rates the paper's figures sweep (0-12,000 pkts/s, capped by
/// the Ethernet maximum of ~14,880).
pub fn paper_rates() -> Vec<f64> {
    vec![
        500.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0,
    ]
}

/// Two superseded behaviours, kept only as the oracles the pipeline is
/// proved bit-identical to: every arrival built and scheduled through
/// [`Engine::state_schedule`] before the engine runs (pre-streaming), and
/// every trial's CPUs sliced as one [`Cluster`] at [`DEFAULT_SLICE`] on
/// one thread, whether or not they are coupled. The switches are read on
/// the thread that calls the pipeline, before any CPU fans out.
#[cfg(test)]
mod oracle {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        static PRELOAD: Cell<bool> = const { Cell::new(false) };
        static SLICE: Cell<bool> = const { Cell::new(false) };
        /// Slice-hook calls on this thread: the witness that a run was
        /// sliced.
        static SLICES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_slice() {
        SLICES.with(|n| n.set(n.get() + 1));
    }

    /// Runs `f`, returning its output and the slice-hook calls it made.
    pub(super) fn counting_slices<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = SLICES.with(Cell::get);
        let out = f();
        (out, SLICES.with(Cell::get) - before)
    }

    pub(super) fn preloading() -> bool {
        PRELOAD.with(Cell::get)
    }

    pub(super) fn slicing() -> bool {
        SLICE.with(Cell::get)
    }

    /// Runs `f` between `set(true)` and `set(false)`.
    fn with<R>(set: fn(bool), f: impl FnOnce() -> R) -> R {
        set(true);
        let out = f();
        set(false);
        out
    }

    /// Runs `f` with every trial on this thread preloading its arrivals.
    pub(super) fn with_preloaded_arrivals<R>(f: impl FnOnce() -> R) -> R {
        with(|on| PRELOAD.with(|p| p.set(on)), f)
    }

    /// Runs `f` with every trial on this thread sliced, coupled or not.
    pub(super) fn with_every_cluster_sliced<R>(f: impl FnOnce() -> R) -> R {
        with(|on| SLICE.with(|p| p.set(on)), f)
    }

    pub(super) fn preload(engine: &mut Engine<RouterKernel>, mut arrivals: WireArrivals) {
        // Holding the whole schedule takes a buffer per packet; they come
        // from a pool of the oracle's own so the trial's stays
        // configuration-sized and its counters comparable.
        arrivals.factory = arrivals.factory.with_pool(FramePool::new(
            POOL_BUF_CAPACITY,
            arrivals.schedule.remaining(),
        ));
        while let Some(t) = arrivals.next_time() {
            if let Some(ev) = arrivals.pop() {
                engine.state_schedule(t, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelock_core::poller::Quota;

    fn quick(config: KernelConfig, rate: f64, n: usize) -> TrialResult {
        run_trial(&TrialSpec {
            rate_pps: rate,
            n_packets: n,
            ..TrialSpec::new(config)
        })
    }

    fn unmodified() -> KernelConfig {
        KernelConfig::builder().build()
    }

    fn polled(q: Quota) -> KernelConfig {
        KernelConfig::builder().polled(q).build()
    }

    #[test]
    fn smp_trials_are_rerun_identical() {
        // The determinism claim: a trial is a pure function of (config,
        // seed) — same numbers on every rerun, at every CPU count, from
        // every entry point.
        for ncpus in [1, 2, 4] {
            let spec = TrialSpec {
                rate_pps: 9_000.0,
                n_packets: 1_200,
                ..TrialSpec::new(KernelConfig::builder().ncpus(ncpus).build())
            };
            let h = run_trial(&spec);
            assert_eq!(h, run_trial(&spec), "ncpus={ncpus}: rerun disagrees");
            assert_eq!(h.per_cpu().len(), ncpus);

            let drained = run_chaos_trial(&spec);
            assert_eq!(
                drained.result,
                run_chaos_trial(&spec).result,
                "ncpus={ncpus}: drained rerun disagrees"
            );
            assert_eq!(drained.result.per_cpu().len(), ncpus);
            assert_eq!(
                drained.in_flight, 0,
                "ncpus={ncpus}: the drain empties the machine"
            );
            assert!(drained.gate_open_at_end && drained.screend_q_len == 0);
        }
    }

    #[test]
    fn a_lone_steal_flag_changes_nothing() {
        // Every kernel holds a link, so "steal" must mean "steal, and a
        // sibling to steal from": at overload a lone polled CPU's ring
        // is full on most arrivals, and a frame parked for nobody would
        // be lost to the books.
        for (base, ring_overflows) in [
            (unmodified(), false),
            (polled(Quota::Limited(10)), true),
        ] {
            let run = |steal| {
                let mut config = base.clone();
                config.topology.steal = steal;
                quick(config, 12_000.0, 2_000)
            };
            let (on, off) = (run(true), run(false));
            assert_eq!(on.rx_ring_drops > 0, ring_overflows);
            assert_eq!(on, off, "numbers, per-CPU books and pool alike");
            let cpu = on.per_cpu()[0];
            assert_eq!((cpu.steals_published, cpu.steals_taken), (0, 0));
            assert_eq!(on.pool.misses, 0);
        }
    }

    #[test]
    fn coupling_is_a_shared_queue_or_stealing_between_siblings() {
        let unmod = |n| KernelConfig::builder().ncpus(n).build();
        let polled = |n, steal| {
            KernelConfig::builder()
                .polled(Quota::Limited(10))
                .ncpus(n)
                .steal(steal)
                .build()
        };
        for (cfg, coupled, what) in [
            (unmod(1), false, "1-CPU unmodified"),
            (unmod(2), true, "2-CPU unmodified: the shared ipintrq"),
            (polled(4, false), false, "4-CPU polled"),
            (polled(4, true), true, "4-CPU polled --steal"),
            (polled(1, true), false, "1-CPU --steal"),
        ] {
            assert_eq!(CpuLink::coupled(&cfg), coupled, "{what}");
        }
    }

    /// Asserts a trial whose CPUs share no channel, each run straight
    /// through as a job of its own, equals the same trial sliced as one
    /// cluster at [`DEFAULT_SLICE`] — every `TrialResult` field, pool
    /// counters included — and that tracing it writes the same Chrome
    /// JSON both ways.
    fn assert_matches_slicing_oracle(spec: &TrialSpec, traced: bool, what: &str) {
        assert!(!CpuLink::coupled(&spec.config), "{what}: uncoupled");
        let run = || {
            if traced {
                let (r, json) = run_trial_traced(spec, 1 << 16);
                (r, Some(json))
            } else {
                (run_trial(spec), None)
            }
        };
        let ((straight, straight_json), unsliced) = oracle::counting_slices(run);
        let ((sliced, sliced_json), slices) =
            oracle::with_every_cluster_sliced(|| oracle::counting_slices(run));
        assert_eq!(unsliced, 0, "{what}: no slice hook runs straight through");
        let ncpus = spec.config.topology.ncpus as u64;
        assert!(
            slices > 10 * ncpus,
            "{what}: the oracle slices ({slices} hook calls)"
        );
        assert_eq!(straight.pool.misses, 0, "{what}: pool misses");
        assert_eq!(straight, sliced, "{what}: every field");
        assert_eq!(straight_json, sliced_json, "{what}: chrome trace");
        assert!(straight.transmitted > 0, "{what}: ran");
    }

    #[test]
    fn an_uncoupled_cluster_runs_straight_through_unchanged() {
        use crate::config::KernelConfigBuilder;
        use crate::telemetry::{ObserveConfig, TelemetryConfig};
        let spec = |ncpus, rate_pps, b: KernelConfigBuilder| TrialSpec {
            rate_pps,
            n_packets: 2_000,
            ..TrialSpec::new(b.polled(Quota::Limited(10)).ncpus(ncpus).build())
        };
        for ncpus in [2, 4] {
            for rate in [2_000.0, 16_000.0, 40_000.0] {
                let what = format!("polled ncpus={ncpus} at {rate} pps");
                let s = spec(ncpus, rate, KernelConfig::builder());
                assert_matches_slicing_oracle(&s, false, &what);
            }
        }
        let watched = KernelConfig::builder()
            .observe(ObserveConfig)
            .telemetry(TelemetryConfig);
        let s = spec(4, 16_000.0, watched);
        assert_matches_slicing_oracle(&s, false, "observe + telemetry");
        let s = spec(4, 16_000.0, KernelConfig::builder());
        assert_matches_slicing_oracle(&s, true, "traced");
    }

    /// Runs `specs` twice — each trial on its own, where an uncoupled
    /// cluster fans its CPUs out, and inside a one-job `par_map`, where
    /// they run inline — and asserts every result, and every Chrome
    /// trace when `traced`, is identical.
    fn assert_fan_out_matches_inline(specs: &[TrialSpec], traced: bool) {
        let run = |spec: &TrialSpec| {
            if traced {
                let (r, json) = run_trial_traced(spec, 1 << 16);
                (r, Some(json))
            } else {
                (run_trial(spec), None)
            }
        };
        let fanned: Vec<_> = specs.iter().map(run).collect();
        let inline = par_map(specs, 1, run);
        for ((spec, (f, f_json)), (i, i_json)) in specs.iter().zip(&fanned).zip(&inline) {
            let what = format!("ncpus={} at {}", spec.config.topology.ncpus, spec.rate_pps);
            assert_eq!(f, i, "{what}: every field");
            assert_eq!(f_json, i_json, "{what}: chrome trace");
            assert_eq!(f.per_cpu().len(), spec.config.topology.ncpus, "{what}");
            assert_eq!(f.pool.misses, 0, "{what}: pool misses");
        }
    }

    #[test]
    fn fanned_out_cpus_match_inline_cpus() {
        use crate::config::KernelConfigBuilder;
        use crate::telemetry::{ObserveConfig, TelemetryConfig};
        let specs = |b: fn() -> KernelConfigBuilder| -> Vec<TrialSpec> {
            [(2, 9_000.0), (4, 30_000.0)]
                .into_iter()
                .map(|(ncpus, rate_pps)| TrialSpec {
                    rate_pps,
                    n_packets: 3_000,
                    ..TrialSpec::new(b().polled(Quota::Limited(10)).ncpus(ncpus).build())
                })
                .collect()
        };
        assert_fan_out_matches_inline(&specs(KernelConfig::builder), false);
        let watched = || {
            KernelConfig::builder()
                .latency_tracking(true)
                .observe(ObserveConfig)
                .telemetry(TelemetryConfig)
        };
        assert_fan_out_matches_inline(&specs(watched), false);
        assert_fan_out_matches_inline(&specs(KernelConfig::builder), true);
    }

    #[test]
    fn a_fanned_out_chaos_trial_matches_its_inline_run() {
        use livelock_machine::fault::FaultPlan;
        let freq = unmodified().cost.freq;
        let plan =
            FaultPlan::storm(7, 1.0, Cycles::ZERO, freq.cycles_from_millis(150)).on_cpu(CpuId(1));
        let spec = TrialSpec {
            rate_pps: 20_000.0,
            n_packets: 3_000,
            ..TrialSpec::new(
                KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .screend(Default::default())
                    .feedback(Default::default())
                    .ncpus(2)
                    .faults(plan)
                    .build(),
            )
        };
        assert!(!CpuLink::coupled(&spec.config));
        let fanned = run_chaos_trial(&spec);
        let inline = par_map([&spec], 1, run_chaos_trial).remove(0);
        assert!(fanned.result.fault.injected > 0, "the storm hit CPU 1");
        assert_eq!(fanned.result, inline.result);
        let end = |c: &ChaosReport| {
            let bits = (c.gate_open_at_end, c.gate_bits);
            (bits, c.screend_q_len, c.in_flight, c.timeout_resumes)
        };
        assert_eq!(end(&fanned), end(&inline));
    }

    #[test]
    fn oracle_switches_reach_fanned_out_cpus() {
        // A switch set on this thread must hold for CPUs another thread
        // runs: preloaded arrivals draw on the oracle's own pools, so the
        // trial's pool hands out only kernel-originated frames.
        let spec = TrialSpec {
            rate_pps: 16_000.0,
            n_packets: 2_000,
            ..TrialSpec::new(
                KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .ncpus(4)
                    .build(),
            )
        };
        let streamed = run_trial(&spec);
        let preloaded = oracle::with_preloaded_arrivals(|| run_trial(&spec));
        assert!(streamed.pool.acquired >= 2_000);
        assert!(
            preloaded.pool.acquired < 100,
            "every CPU preloaded: {} frames from the trial's pools",
            preloaded.pool.acquired
        );
        let (_, slices) =
            oracle::with_every_cluster_sliced(|| oracle::counting_slices(|| run_trial(&spec)));
        assert!(slices > 0, "the slicing switch reached the pipeline");
    }

    #[test]
    fn smp_shared_queue_serializes_while_polled_path_scales() {
        // COREC-style contention: the unmodified path funnels every CPU
        // into one shared ipintrq drained by CPU 0 alone, so a second CPU
        // buys (almost) nothing; the polled path is per-CPU end to end,
        // so it roughly doubles.
        let n1_unmod = quick(unmodified(), 9_000.0, 2_000);
        let n2_unmod = quick(KernelConfig::builder().ncpus(2).build(), 18_000.0, 4_000);
        assert!(
            n2_unmod.delivered_pps < 1.4 * n1_unmod.delivered_pps,
            "shared-queue SMP should not scale: {} vs {}",
            n2_unmod.delivered_pps,
            n1_unmod.delivered_pps
        );
        let n1_poll = quick(polled(Quota::Limited(10)), 9_000.0, 2_000);
        let n2_poll = quick(
            KernelConfig::builder()
                .polled(Quota::Limited(10))
                .ncpus(2)
                .build(),
            18_000.0,
            4_000,
        );
        assert!(
            n2_poll.delivered_pps > 1.5 * n1_poll.delivered_pps,
            "per-CPU polling should scale: {} vs {}",
            n2_poll.delivered_pps,
            n1_poll.delivered_pps
        );
    }

    #[test]
    fn smp_per_cpu_ledgers_each_conserve() {
        let r = quick(
            KernelConfig::builder()
                .polled(Quota::Limited(10))
                .ncpus(4)
                .build(),
            20_000.0,
            3_000,
        );
        assert_eq!(r.per_cpu().len(), 4);
        for c in r.per_cpu() {
            let sum: f64 = c.cpu_share.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "cpu {:?} shares sum to {sum}",
                c.cpu
            );
        }
        let agg: f64 = r.aggregate().cpu_share.iter().sum();
        assert!((agg - 1.0).abs() < 1e-9, "aggregate shares sum to {agg}");
    }

    #[test]
    fn imbalanced_flows_are_rescued_by_stealing() {
        // Steer every flow at CPU 0's queue on a 2-CPU stealing cluster:
        // CPU 0's ring overflows, CPU 1 is idle, and the steal path (not
        // the drop path) absorbs the imbalance.
        // Flows all hashing to queue 0 of 2 (deterministic search).
        let f = PacketFactory::paper_testbed();
        let mut port = f.src_port;
        let mut flows = Vec::new();
        while flows.len() < 8 {
            if rss_queue(&udp_key(&f, port), 2) == 0 {
                flows.push(port);
            }
            port = port.wrapping_add(1);
        }
        let spec = TrialSpec {
            rate_pps: 13_000.0,
            n_packets: 3_000,
            flows: Some(flows),
            ..TrialSpec::new(
                KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .ncpus(2)
                    .steal(true)
                    .build(),
            )
        };
        let r = run_trial(&spec);
        let agg = r.aggregate();
        assert!(agg.steals_taken > 0, "idle sibling should have stolen work");
        assert_eq!(
            r.per_cpu()[0].steals_published,
            agg.steals_published,
            "only the overloaded CPU publishes"
        );
        assert!(
            r.per_cpu()[1].steals_taken > 0,
            "the idle CPU does the stealing"
        );
        // The same imbalance without stealing drops more at the ring.
        let mut no_steal = spec.clone();
        no_steal.config.topology.steal = false;
        let ns = run_trial(&no_steal);
        assert!(
            ns.rx_ring_drops > r.rx_ring_drops,
            "stealing should convert ring drops into deliveries: {} !> {}",
            ns.rx_ring_drops,
            r.rx_ring_drops
        );
    }

    #[test]
    fn classed_cpus_steal_when_a_class_ring_overflows() {
        // Class steering puts Control, Realtime and Bulk on CPUs 0-2 of
        // 4, so Bulk's 6/8 share overflows CPU 2's Bulk ring while CPU 3
        // idles. The steal question is per frame — is *this* frame's
        // ring full? — so the Bulk overflow is published even though
        // CPU 2's other two rings stay empty.
        use crate::config::ClassifyConfig;
        use livelock_net::classify::MatchRule;
        let classes = ClassifyConfig {
            rules: vec![
                MatchRule::src_port(7_000, TrafficClass::Control),
                MatchRule::src_port(7_100, TrafficClass::Realtime),
            ],
            slo_p99: Nanos::from_millis(5),
            ..ClassifyConfig::default()
        };
        let run = |steal| {
            let config = KernelConfig::builder()
                .polled(Quota::Limited(10))
                .classes(classes.clone())
                .ncpus(4)
                .steal(steal)
                .build();
            // `run_trial` audits the NIC boundary: a stolen frame its
            // thief's ring refused would be lost to every book.
            run_trial(&TrialSpec {
                rate_pps: 14_000.0,
                n_packets: 20_000,
                flows: Some(vec![7_000, 7_100, 7_200, 7_201, 7_202, 7_203, 7_204, 7_205]),
                ..TrialSpec::new(config)
            })
        };
        let (on, off) = (run(true), run(false));
        let agg = on.aggregate();
        assert!(agg.steals_published > 0, "the Bulk CPU publishes");
        // CPU 3 runs after CPU 2 in each slice, so it finds frames that
        // arrive later in its own time: it leaves them (with latency on,
        // stage residencies telescope only if no frame is served before
        // it arrived) and is woken again next slice to take every one.
        assert_eq!(
            agg.steals_taken, agg.steals_published,
            "siblings take every frame"
        );
        let ring_full = |r: &TrialResult| r.drops.get(DropReason::RxRingFull);
        assert!(
            ring_full(&on) < ring_full(&off),
            "stealing should convert ring drops into deliveries: {} !< {}",
            ring_full(&on),
            ring_full(&off)
        );
    }

    #[test]
    fn balanced_flows_cover_every_rss_bucket() {
        let flows = balanced_flows();
        assert_eq!(flows.len(), 64);
        let f = PacketFactory::paper_testbed();
        // Exactly the counts the CLI accepts get equal shares (one CPU
        // defaults to a single port, which is even too).
        for nq in 1..=8 {
            let mut counts = vec![0usize; nq];
            for &p in &flows {
                counts[rss_queue(&udp_key(&f, p), nq)] += 1;
            }
            assert_eq!(
                counts.iter().all(|&c| c == 64 / nq),
                BALANCED_NCPUS.contains(&nq),
                "{nq} queues get {counts:?}; BALANCED_NCPUS = {BALANCED_NCPUS:?}"
            );
        }
        // Bucket-interleaved: consecutive packets land on distinct queues.
        for w in flows.windows(2) {
            let a = rss_queue(&udp_key(&f, w[0]), 4);
            let b = rss_queue(&udp_key(&f, w[1]), 4);
            assert_ne!(a, b, "adjacent flows share a bucket");
        }
    }

    proptest::proptest! {
        /// RSS steering never loses or invents packets: at any CPU count,
        /// rate and packet count, with or without stealing, delivered +
        /// every attributed drop + steal residue accounts for exactly the
        /// generated population. (The pipeline's `audit_nic_boundary`
        /// enforces the ring-level half; this checks the harness end to
        /// end.)
        #[test]
        fn rss_conserves_packets(
            ncpus_pow in 1u32..3,
            rate in 4_000.0f64..26_000.0,
            n in 400usize..1_200,
            seed in 1u64..64,
            steal in proptest::any::<bool>(),
        ) {
            let ncpus = 1usize << ncpus_pow;
            let spec = TrialSpec {
                rate_pps: rate,
                n_packets: n,
                seed,
                ..TrialSpec::new(
                    KernelConfig::builder()
                        .polled(Quota::Limited(10))
                        .ncpus(ncpus)
                        .steal(steal)
                        .build(),
                )
            };
            // The pipeline's NIC-boundary audit is the conservation oracle.
            let r = run_trial(&spec);
            proptest::prop_assert_eq!(r.per_cpu().len(), ncpus);
        }

        /// The class dimension never loses or invents packets either:
        /// at any CPU count, with or without stealing, every generated
        /// packet is classified exactly once, the per-class
        /// arrived/delivered/shed columns sum to the aggregate counters,
        /// and each class's own ledger stays within its arrivals. Runs
        /// under the drained chaos harness (fault-free), whose
        /// NIC-boundary audit also holds every stolen frame to account,
        /// so the books close exactly — a plain trial can end with its
        /// last wire arrival still in flight.
        #[test]
        fn classed_counters_sum_to_aggregates(
            ncpus_pow in 0u32..3,
            rate in 3_000.0f64..16_000.0,
            n in 400usize..1_000,
            seed in 1u64..32,
            steal in proptest::any::<bool>(),
        ) {
            use crate::config::ClassifyConfig;
            use livelock_net::classify::MatchRule;
            let ncpus = 1usize << ncpus_pow;
            let classes = ClassifyConfig {
                rules: vec![
                    MatchRule::src_port(7_000, TrafficClass::Control),
                    MatchRule::src_port(7_100, TrafficClass::Realtime),
                ],
                ..ClassifyConfig::default()
            };
            let spec = TrialSpec {
                rate_pps: rate,
                n_packets: n,
                seed,
                flows: Some(vec![7_000, 7_100, 7_200, 7_201]),
                ..TrialSpec::new(
                    KernelConfig::builder()
                        .polled(Quota::Limited(10))
                        .screend(Default::default())
                        .classes(classes)
                        .ncpus(ncpus)
                        .steal(steal)
                        .build(),
                )
            };
            let r = run_chaos_trial(&spec).result;
            proptest::prop_assert_eq!(r.per_cpu().len(), ncpus);
            let per = r.per_class();
            proptest::prop_assert_eq!(per.len(), TrafficClass::COUNT);
            let arrived: u64 = per.iter().map(|c| c.arrived).sum();
            let delivered: u64 = per.iter().map(|c| c.delivered).sum();
            let shed: u64 = per.iter().map(|c| c.shed).sum();
            proptest::prop_assert_eq!(arrived, n as u64, "one class per generated packet");
            proptest::prop_assert_eq!(delivered, r.transmitted);
            let shed_drops: u64 = TrafficClass::ALL
                .into_iter()
                .map(|class| r.drops.get(DropReason::ClassShed { class }))
                .sum();
            proptest::prop_assert_eq!(shed, shed_drops);
            for c in per {
                proptest::prop_assert!(
                    c.delivered + c.shed <= c.arrived,
                    "{:?}: {} delivered + {} shed > {} arrived",
                    c.class, c.delivered, c.shed, c.arrived
                );
            }
        }
    }

    #[test]
    fn light_load_is_loss_free_on_both_kernels() {
        for cfg in [unmodified(), polled(Quota::Limited(10))] {
            let r = quick(cfg, 1_000.0, 800);
            assert!(
                r.delivered_pps > 0.97 * r.offered_pps,
                "delivered {} of {}",
                r.delivered_pps,
                r.offered_pps
            );
            assert_eq!(r.ipintrq_drops + r.ifq_drops + r.screend_q_drops, 0);
        }
    }

    #[test]
    fn offered_rate_tracks_nominal() {
        let r = quick(polled(Quota::Limited(10)), 3_000.0, 1_500);
        assert!(
            (r.offered_pps - 3_000.0).abs() < 300.0,
            "offered {}",
            r.offered_pps
        );
    }

    #[test]
    fn overload_degrades_unmodified_kernel() {
        let low = quick(unmodified(), 3_000.0, 1_500);
        let high = quick(unmodified(), 11_000.0, 4_000);
        assert!(
            high.delivered_pps < low.delivered_pps,
            "expected degradation: {} !< {}",
            high.delivered_pps,
            low.delivered_pps
        );
        assert!(high.rx_ring_drops + high.ipintrq_drops > 0);
    }

    #[test]
    fn overload_does_not_collapse_polled_kernel() {
        let high = quick(polled(Quota::Limited(10)), 11_000.0, 4_000);
        assert!(
            high.delivered_pps > 3_000.0,
            "polled kernel should sustain its MLFRR, got {}",
            high.delivered_pps
        );
    }

    #[test]
    fn latency_is_sane_at_light_load() {
        let r = quick(polled(Quota::Limited(10)), 500.0, 400);
        // One packet alone in the system: a few hundred microseconds of
        // processing plus 67.2 us of output serialization.
        assert!(
            r.latency_mean >= Nanos::from_micros(200),
            "{}",
            r.latency_mean
        );
        assert!(
            r.latency_mean <= Nanos::from_millis(3),
            "{}",
            r.latency_mean
        );
    }

    #[test]
    fn steady_state_forwarding_never_allocates() {
        let r = quick(unmodified(), 2_000.0, 600);
        assert_eq!(r.pool.misses, 0, "no per-packet heap allocation");
        assert!(r.pool.acquired >= 600, "every frame came from the pool");
        // The trial window ends at the last arrival, so the final packets
        // may still be in flight; everything else has been recycled.
        assert!(r.pool.outstanding <= 8, "only the tail holds buffers");
        assert_eq!(r.pool.recycled + r.pool.outstanding as u64, r.pool.acquired);
    }

    /// Asserts the streamed trial is bit-identical to the oracle that
    /// preloads every arrival through `state_schedule`.
    fn assert_matches_preloading_oracle(spec: &TrialSpec, what: &str) {
        let streamed = run_trial(spec);
        let mut preloaded = oracle::with_preloaded_arrivals(|| run_trial(spec));
        assert_eq!(
            streamed.pool.misses, preloaded.pool.misses,
            "{what}: pool misses"
        );
        // The oracle's arrivals draw on a pool of its own; every other
        // pool counter differs by construction.
        preloaded.pool = streamed.pool;
        let floats = |r: &TrialResult| {
            let mut bits = vec![
                r.offered_pps.to_bits(),
                r.delivered_pps.to_bits(),
                r.app_delivered_pps.to_bits(),
            ];
            for c in r.per_cpu() {
                bits.extend(c.cpu_share.iter().map(|s| s.to_bits()));
                bits.push(c.user_cpu_frac.to_bits());
            }
            bits
        };
        assert_eq!(floats(&streamed), floats(&preloaded), "{what}: float bits");
        let (s, p) = (streamed.aggregate(), preloaded.aggregate());
        assert_eq!(s.events_dispatched, p.events_dispatched, "{what}: events");
        assert_eq!(s.interrupts_taken, p.interrupts_taken, "{what}: interrupts");
        assert_eq!(streamed, preloaded, "{what}: every other field");
        assert!(
            s.events_dispatched > spec.n_packets as u64 / 2,
            "{what}: ran"
        );
    }

    #[test]
    fn streamed_arrivals_match_the_preloading_oracle() {
        use livelock_machine::fault::FaultPlan;
        let freq = unmodified().cost.freq;
        for ncpus in [1, 4] {
            for storm in [false, true] {
                // Overloaded, so rings overflow, feedback gates, and
                // (on 4 CPUs) the steal path and its IPIs all run.
                let mut b = KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .screend(Default::default())
                    .feedback(Default::default());
                if ncpus > 1 {
                    b = b.ncpus(ncpus).steal(true);
                }
                if storm {
                    b = b.faults(FaultPlan::storm(
                        7,
                        1.0,
                        Cycles::ZERO,
                        freq.cycles_from_millis(150),
                    ));
                }
                let spec = TrialSpec {
                    rate_pps: 11_000.0 * ncpus as f64,
                    n_packets: 1_500 * ncpus,
                    ..TrialSpec::new(b.build())
                };
                let what = format!("ncpus={ncpus} storm={storm}");
                assert_matches_preloading_oracle(&spec, &what);
            }
        }
        // The unmodified path (shared ipintrq on SMP) and explicit flows.
        for ncpus in [1, 2] {
            let spec = TrialSpec {
                rate_pps: 9_000.0,
                n_packets: 1_200,
                flows: Some(vec![7_001, 7_002, 7_003]),
                ..TrialSpec::new(KernelConfig::builder().ncpus(ncpus).build())
            };
            assert_matches_preloading_oracle(&spec, &format!("unmodified ncpus={ncpus}"));
        }
    }

    #[test]
    fn chaos_drain_matches_the_preloading_oracle() {
        // The drained harness is the one path where the arrival that
        // lands exactly on the window's end is dispatched after all — on
        // one CPU and on a cluster alike.
        for ncpus in [1, 2, 4] {
            let spec = TrialSpec {
                rate_pps: 9_000.0,
                n_packets: 1_000,
                ..TrialSpec::new(KernelConfig::builder().ncpus(ncpus).build())
            };
            let streamed = run_chaos_trial(&spec);
            let mut preloaded = oracle::with_preloaded_arrivals(|| run_chaos_trial(&spec));
            preloaded.result.pool = streamed.result.pool;
            assert_eq!(streamed.result, preloaded.result, "ncpus={ncpus}");
            assert_eq!(streamed.result.per_cpu().len(), ncpus);
            assert_eq!(streamed.in_flight, preloaded.in_flight, "ncpus={ncpus}");
            assert_eq!(
                streamed.screend_q_len, preloaded.screend_q_len,
                "ncpus={ncpus}"
            );
        }
    }

    #[test]
    fn trial_state_is_independent_of_trial_length() {
        let cfg = polled(Quota::Limited(10));
        let bound = pool_prealloc(&cfg);
        let mut allocated = Vec::new();
        for n in [10_000, 200_000] {
            let spec = TrialSpec {
                rate_pps: 12_000.0,
                n_packets: n,
                ..TrialSpec::new(cfg.clone())
            };
            let r = run_trial(&spec);
            assert_eq!(r.pool.misses, 0, "{n} packets: no per-packet allocation");
            assert!(
                r.pool.high_water <= bound,
                "{n} packets: {} buffers live at once, the config holds {bound}",
                r.pool.high_water
            );
            assert!(r.pool.acquired >= n as u64, "{n} packets: all pooled");
            allocated.push(r.pool.allocated);

            // Pending scheduler entries, sampled at 16 evenly spaced
            // stops: a clock pulse, a wire completion or two — never the
            // arrival schedule.
            let mut plan = plan(&spec);
            let job = plan.jobs.remove(0);
            let run = Run {
                spec: &spec,
                flows: &plan.flows,
                window: plan.window,
                end: plan.window.1,
                trace_capacity: None,
                preload: false,
            };
            let mut engine = build(&run, CpuLink::lone(cfg.ipintrq_cap), job);
            let mut max_pending = 0;
            for stop in 1..=16 {
                engine.run_until(Cycles::new(run.end.raw() / 16 * stop));
                max_pending = max_pending.max(engine.state().pending_events());
            }
            assert!(
                (1..=8).contains(&max_pending),
                "{n} packets: {max_pending} events pending"
            );
        }
        assert_eq!(
            allocated, [bound as u64; 2],
            "prealloc is the config's alone"
        );
    }

    #[test]
    fn determinism_same_seed_same_numbers() {
        let a = quick(unmodified(), 7_000.0, 1_000);
        let b = quick(unmodified(), 7_000.0, 1_000);
        assert_eq!(a.transmitted, b.transmitted);
        assert_eq!(a.delivered_pps, b.delivered_pps);
        assert_eq!(a.per_cpu, b.per_cpu);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let base = TrialSpec {
            rate_pps: 7_000.0,
            n_packets: 1_000,
            ..TrialSpec::new(unmodified())
        };
        let a = run_trial(&base);
        let b = run_trial(&TrialSpec { seed: 2, ..base });
        assert_ne!(
            (a.transmitted, a.aggregate().interrupts_taken),
            (b.transmitted, b.aggregate().interrupts_taken),
            "jitter should differ across seeds"
        );
    }

    #[test]
    fn sweep_produces_labelled_points() {
        let base = TrialSpec {
            n_packets: 300,
            ..TrialSpec::new(polled(Quota::Limited(10)))
        };
        let s = sweep("test", &base, &[500.0, 1_000.0], Parallelism::Serial);
        assert_eq!(s.label, "test");
        assert_eq!(s.trials.len(), 2);
        let pts = s.points();
        assert!(pts[1].offered > pts[0].offered);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let base = TrialSpec {
            n_packets: 400,
            ..TrialSpec::new(polled(Quota::Limited(10)))
        };
        let rates = [500.0, 2_000.0, 6_000.0, 11_000.0];
        let serial = sweep("det", &base, &rates, Parallelism::Serial);
        for jobs in [2, 4] {
            let par = sweep("det", &base, &rates, Parallelism::Jobs(jobs));
            assert_eq!(par.label, serial.label);
            // Every field of every trial, in the same order.
            assert_eq!(par.trials, serial.trials, "jobs = {jobs}");
        }
    }

    #[test]
    fn cpu_share_sums_to_one_and_tracks_load() {
        let light = quick(unmodified(), 500.0, 400);
        let heavy = quick(unmodified(), 11_000.0, 3_000);
        for r in [&light, &heavy] {
            let sum: f64 = r.aggregate().cpu_share.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        }
        let rx = CpuClass::RxIntr.index();
        let idle = CpuClass::Idle.index();
        assert!(
            heavy.aggregate().cpu_share[rx] > light.aggregate().cpu_share[rx],
            "rx share should grow with load: {} !> {}",
            heavy.aggregate().cpu_share[rx],
            light.aggregate().cpu_share[rx]
        );
        assert!(
            light.aggregate().cpu_share[idle] > 0.5,
            "light load is mostly idle, got {}",
            light.aggregate().cpu_share[idle]
        );
    }

    #[test]
    fn timeline_is_off_by_default_and_on_when_configured() {
        let r = quick(unmodified(), 2_000.0, 500);
        assert!(r.timeline.is_none(), "telemetry must be opt-in");

        let cfg = KernelConfig::builder()
            .telemetry(crate::telemetry::TelemetryConfig)
            .build();
        let r = quick(cfg, 2_000.0, 500);
        let tl = r.timeline.expect("sampler enabled");
        assert!(!tl.is_empty(), "clock ticks should have produced samples");
        let csv = tl.to_csv(unmodified().cost.freq);
        assert!(csv.starts_with("time_us,rx_intr,"));
    }

    #[test]
    fn a_multi_cpu_timeline_carries_every_cpu() {
        let telemetry = crate::telemetry::TelemetryConfig;
        let freq = unmodified().cost.freq;
        let two = KernelConfig::builder()
            .polled(Quota::Limited(10))
            .ncpus(2)
            .telemetry(telemetry)
            .build();
        let tl = quick(two, 12_000.0, 2_000).timeline.expect("sampler on");
        for cpu in [CpuId(0), CpuId(1)] {
            let rows = tl.rows().iter().filter(|row| row.cpu == cpu);
            assert!(rows.count() > 1, "{cpu} sampled");
        }
        for row in tl.rows() {
            let sum: f64 = row.cpu_share.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} at {}: {sum}", row.cpu, row.at);
        }
        let in_order = |w: &[crate::telemetry::Sample]| (w[0].at, w[0].cpu) < (w[1].at, w[1].cpu);
        assert!(tl.rows().windows(2).all(in_order), "(time, cpu) order");
        assert!(tl.to_csv(freq).starts_with("cpu,time_us,rx_intr,"));

        let one = KernelConfig::builder().telemetry(telemetry).build();
        let tl = quick(one, 12_000.0, 2_000).timeline.expect("sampler on");
        assert!(
            tl.to_csv(freq).starts_with("time_us,rx_intr,"),
            "no cpu column"
        );
    }

    #[test]
    fn traced_trial_measures_the_same_numbers() {
        for ncpus in [1, 2, 4] {
            let spec = TrialSpec {
                rate_pps: 3_000.0 * ncpus as f64,
                n_packets: 500 * ncpus,
                ..TrialSpec::new(
                    KernelConfig::builder()
                        .polled(Quota::Limited(10))
                        .ncpus(ncpus)
                        .build(),
                )
            };
            let plain = run_trial(&spec);
            let (traced, json) = run_trial_traced(&spec, 1 << 16);
            assert_eq!(
                plain, traced,
                "ncpus={ncpus}: tracing must not perturb the trial"
            );
            assert_eq!(traced.per_cpu().len(), ncpus);
            assert!(json.starts_with("{\"traceEvents\":["));
            assert!(json.contains("nic-rx #"), "interrupt track names");
            assert!(json.contains("netpoll"), "thread track names");
            // One process group per CPU, each with interrupt frames of
            // its own, and no more.
            for pid in 1..=ncpus {
                assert!(
                    json.contains(&format!("\"pid\":{pid},\"tid\":1}}")),
                    "ncpus={ncpus}: cpu{} took no traced interrupt",
                    pid - 1
                );
            }
            assert!(!json.contains(&format!("\"pid\":{},", ncpus + 1)));
        }
    }

    #[test]
    fn observe_is_zero_perturbation() {
        use crate::config::ScreendConfig;
        use crate::telemetry::{ObserveConfig, TelemetryConfig};
        // Every observer is a pure observer: a watched trial measures
        // bit-identically to an unwatched one, on both kernels, at an
        // overloaded rate where every code path (drops, feedback,
        // screend) is exercised. (latency histograms, telemetry sampler,
        // observability layer) — each alone, then all three together.
        let feature_sets = [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ];
        for polled_mode in [false, true] {
            let mk = |(latency, telemetry, observe): (bool, bool, bool)| {
                let mut b = KernelConfig::builder()
                    .screend(ScreendConfig::default())
                    .latency_tracking(latency);
                if polled_mode {
                    b = b.polled(Quota::Limited(10)).feedback(Default::default());
                }
                if telemetry {
                    b = b.telemetry(TelemetryConfig);
                }
                if observe {
                    b = b.observe(ObserveConfig);
                }
                quick(b.build(), 9_000.0, 1_500)
            };
            let base = mk((false, false, false));
            assert_eq!(base.transmitted > 0, polled_mode, "9k pps livelocks only unmodified");
            for on in feature_sets {
                let mut watched = mk(on);
                // Each observer produced its output; clear exactly that.
                let (latency, telemetry, observe) = on;
                if latency {
                    // (The livelocked unmodified kernel delivers nothing.)
                    assert_eq!(watched.latency.count(), watched.transmitted, "one sample each");
                    watched.latency = base.latency.clone();
                    watched.latency_mean = base.latency_mean;
                    watched.latency_p99 = base.latency_p99;
                    watched.latency_jitter = base.latency_jitter;
                }
                if telemetry {
                    assert!(watched.timeline.take().is_some_and(|t| !t.is_empty()));
                }
                if observe {
                    assert!(watched.flows.take().is_some(), "registry allocated");
                    assert!(watched.fold.take().is_some(), "cycle fold enabled");
                    watched.events.clear();
                }
                assert_eq!(
                    watched, base,
                    "observers must not perturb the trial (polled={polled_mode}, \
                     latency/telemetry/observe={on:?})"
                );
            }
        }

        // Frames damaged in flight while classes are on: the one path
        // where the key a generated packet was stamped with no longer
        // matches its bytes. Classification and the registry must both
        // see the damaged bytes, watched or not.
        use crate::config::ClassifyConfig;
        use livelock_machine::fault::{FaultKind, FaultPlan};
        use livelock_net::classify::MatchRule;
        let freq = unmodified().cost.freq;
        let mut plan = FaultPlan::new();
        for k in 0..60u64 {
            let iface = 0;
            let kind = match k % 4 {
                0 => FaultKind::PacketBitFlip { iface },
                1 => FaultKind::RxDescriptorCorrupt { iface },
                2 => FaultKind::PacketTruncate { iface },
                _ => FaultKind::PacketMalformHeader { iface },
            };
            plan.push(freq.cycles_from_micros(1_000 + k * 2_300), kind);
        }
        for polled_mode in [false, true] {
            let mk = |observe: bool| {
                let mut b = KernelConfig::builder()
                    .screend(ScreendConfig::default())
                    .classes(ClassifyConfig {
                        rules: vec![MatchRule::src_port(7_000, TrafficClass::Control)],
                        ..ClassifyConfig::default()
                    })
                    .faults(plan.clone());
                if polled_mode {
                    b = b.polled(Quota::Limited(10)).feedback(Default::default());
                }
                if observe {
                    b = b.observe(ObserveConfig);
                }
                run_trial(&TrialSpec {
                    rate_pps: 9_000.0,
                    n_packets: 1_500,
                    flows: Some(vec![7_000, 7_100, 7_200]),
                    ..TrialSpec::new(b.build())
                })
            };
            let base = mk(false);
            let mut watched = mk(true);
            let mutated = watched.fault.mutated_frames;
            assert!(mutated > 0, "polled={polled_mode}: the plan damaged frames");
            let reg = watched.flows.take().expect("registry allocated");
            // Every mutation breaks the IPv4 parse: a damaged frame is
            // unattributed, not credited to the flow it was built for.
            assert_eq!(reg.unattributed_arrivals(), mutated, "polled={polled_mode}");
            watched.fold = None;
            watched.events.clear();
            assert_eq!(
                watched, base,
                "polled={polled_mode}: mutations under classes"
            );
        }
    }

    #[test]
    fn per_flow_registry_conserves_and_attributes() {
        use crate::telemetry::ObserveConfig;
        let spec = TrialSpec {
            rate_pps: 9_000.0,
            n_packets: 1_500,
            flows: Some(vec![7001, 7002, 7003, 7004]),
            ..TrialSpec::new(
                KernelConfig::builder()
                    .observe(ObserveConfig)
                    .build(),
            )
        };
        // The chaos harness drains the kernel for 200 ms past the window,
        // so the final arrival (scheduled exactly at window end) is
        // processed and conservation is exact.
        let r = run_chaos_trial(&spec).result;
        let reg = r.flows.as_ref().expect("observability on");
        assert_eq!(
            reg.total_arrivals(),
            spec.n_packets as u64,
            "every generated packet is attributed, overflowed, or unattributed"
        );
        assert_eq!(reg.unattributed_arrivals(), 0, "all test traffic is UDP");
        let per = r.per_flow();
        assert_eq!(per.len(), 4, "one registry entry per source port");
        for f in per {
            assert!(f.arrived > 0, "every flow saw traffic");
            assert!(
                f.delivered + f.drops.total() <= f.arrived,
                "per-flow ledger over-counts"
            );
            if f.delivered > 0 {
                assert_eq!(f.latency.count(), f.delivered);
                assert!(f.first_delivery.unwrap() <= f.last_delivery.unwrap());
            }
        }
        let delivered: u64 = r.per_flow().iter().map(|f| f.delivered).sum();
        assert!(delivered > 0, "overload still forwards something");
    }

    #[test]
    fn smp_merged_registry_conserves() {
        use crate::telemetry::ObserveConfig;
        let spec = TrialSpec {
            rate_pps: 14_000.0,
            n_packets: 2_000,
            ..TrialSpec::new(
                KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .ncpus(2)
                    .observe(ObserveConfig)
                    .build(),
            )
        };
        let r = run_trial(&spec);
        let reg = r.flows.as_ref().expect("observability on");
        assert_eq!(reg.total_arrivals(), spec.n_packets as u64);
        assert_eq!(r.per_flow().len(), 64, "the balanced flow set");
        // The six frozen drop columns are views of the merged taxonomy,
        // and on this config (no classes, no bystanders, no forwarding
        // errors) they hold every drop there was.
        assert!(r.drops.total() > 0, "overloaded: something must drop");
        let columns = [
            r.rx_ring_drops,
            r.ipintrq_drops,
            r.screend_q_drops,
            r.screend_denied,
            r.socket_q_drops,
            r.ifq_drops,
        ];
        assert_eq!(columns.iter().sum::<u64>(), r.drops.total());
        assert_eq!(
            columns,
            [
                r.drops.rx_ring_drops(),
                r.drops.ipintrq_drops(),
                r.drops.screend_q_drops(),
                r.drops.screend_denied(),
                r.drops.socket_q_drops(),
                r.drops.ifq_drops(),
            ]
        );
    }

    #[test]
    fn detector_flags_unmodified_overload_but_not_polled() {
        use crate::config::ScreendConfig;
        use crate::telemetry::{ObsEventKind, ObserveConfig};
        // The acceptance experiment: above the MLFRR with screend, the
        // unmodified kernel livelocks (Figure 6-3) and the detector must
        // date the onset; the polled kernel with feedback keeps making
        // progress at the same offered load and must stay quiet.
        let run = |polled_mode: bool| {
            let mut b = KernelConfig::builder()
                .screend(ScreendConfig::default())
                .observe(ObserveConfig);
            if polled_mode {
                b = b.polled(Quota::Limited(10)).feedback(Default::default());
            }
            run_trial(&TrialSpec {
                rate_pps: 12_000.0,
                n_packets: 4_000,
                ..TrialSpec::new(b.build())
            })
        };
        let unmod = run(false);
        let onset = unmod
            .events
            .iter()
            .find(|ev| matches!(ev.kind, ObsEventKind::LivelockOnset { .. }));
        let onset = onset.expect("unmodified kernel above MLFRR must livelock");
        assert!(!onset.at.is_zero(), "onset carries a cycle timestamp");
        let polled = run(true);
        assert!(
            !polled
                .events
                .iter()
                .any(|ev| matches!(ev.kind, ObsEventKind::LivelockOnset { .. })),
            "polled kernel with feedback must not livelock: {:?}",
            polled.events
        );
    }

    #[test]
    fn fold_is_exported_and_conserves_trial_cycles() {
        use crate::telemetry::ObserveConfig;
        let r = quick(
            KernelConfig::builder()
                .observe(ObserveConfig)
                .build(),
            6_000.0,
            1_000,
        );
        let fold = r.fold.as_ref().expect("fold enabled with observe");
        let folded = fold.folded(crate::router::tag_label);
        assert!(!folded.is_empty());
        assert!(
            folded.lines().all(|l| l.starts_with("cpu0;")),
            "single-CPU trial folds to one cpu frame"
        );
        assert!(folded.contains(";rx_pkt "), "rx work is present");
    }

    #[test]
    fn too_short_trial_still_gets_one_telemetry_sample() {
        // 10 packets at 10,000 pkts/s span ~1 ms — less than the default
        // 4-tick sampling interval — so without the drain-time fallback
        // the requested timeline would come back empty.
        let cfg = KernelConfig::builder()
            .telemetry(crate::telemetry::TelemetryConfig)
            .build();
        let r = quick(cfg, 10_000.0, 10);
        let tl = r.timeline.expect("sampler enabled");
        assert!(
            !tl.is_empty(),
            "a too-short trial still records one final sample at drain"
        );
    }

    #[test]
    fn paper_rates_are_increasing_and_capped() {
        let r = paper_rates();
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert!(*r.last().unwrap() <= 14_880.0);
    }
}
