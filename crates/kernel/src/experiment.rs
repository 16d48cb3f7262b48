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

use std::rc::Rc;

use livelock_core::analysis::SweepPoint;
use livelock_machine::chrome_trace_json_with_markers;
use livelock_machine::cluster::{Cluster, DEFAULT_SLICE};
use livelock_machine::cpu::{ArrivalSource, CpuId, Engine};
use livelock_machine::fold::CycleFold;
use livelock_machine::ledger::CpuClass;
use livelock_machine::nic::rss_queue;
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

use crate::config::{KernelConfig, Mode};
use crate::flows::{FlowRegistry, FlowStats};
use crate::par::Parallelism;
use crate::router::smp::{SmpCtx, SmpShared, STEAL_BUF_CAP};
use crate::router::{Event, RouterKernel};
use crate::stats::{ClassStats, DropStats, FaultStats, LatencyStats};
use crate::telemetry::{ObsEvent, Timeline};

/// One trial's parameters.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Nominal offered rate in packets/second.
    pub rate_pps: f64,
    /// Packets to generate (the paper used 10000).
    pub n_packets: usize,
    /// RNG seed for arrival jitter.
    pub seed: u64,
    /// Fraction of the trial treated as warm-up and excluded from the
    /// measurement window.
    pub warmup_frac: f64,
    /// UDP source ports to cycle packets through, making each port one
    /// flow for per-flow accounting and RSS steering. `None` keeps the
    /// historical default: the factory's single fixed port on one CPU, a
    /// deterministic 64-flow balanced set on SMP — so existing specs are
    /// bit-identical.
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
            warmup_frac: 0.1,
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
fn class_summaries(class: Option<&ClassStats>, freq: Freq) -> Vec<ClassSummary> {
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
                shed: cc.shed,
                delivered_pps: cs.delivered_pps(c, freq),
                latency_mean: cc.latency.mean(),
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
    /// Every drop in the trial, attributed to a
    /// [`DropReason`](crate::stats::DropReason).
    pub drops: DropStats,
    /// Per-CPU execution statistics, one entry per configured CPU in
    /// [`CpuId`] order (always at least one). The CPU-dimension API:
    /// read through [`TrialResult::per_cpu`] and
    /// [`TrialResult::aggregate`].
    pub per_cpu: Vec<CpuStats>,
    /// The telemetry timeline, when the spec's
    /// [`KernelConfig::telemetry`](crate::config::KernelConfig::telemetry)
    /// enabled the periodic sampler (`None` otherwise).
    pub timeline: Option<Timeline>,
    /// Frame-pool counters at trial end: every packet buffer in the trial
    /// came from one [`FramePool`] preallocated to what the configured
    /// rings and queues can hold at once — whatever the trial's length —
    /// so `pool.misses` is the number of per-packet heap allocations (0
    /// on every fault-free trial).
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

    /// Mean user-process CPU fraction across CPUs.
    #[deprecated(note = "use per_cpu() / aggregate().user_cpu_frac")]
    pub fn user_cpu_frac(&self) -> f64 {
        self.aggregate().user_cpu_frac
    }

    /// Mean per-class CPU shares across CPUs.
    #[deprecated(note = "use per_cpu() / aggregate().cpu_share")]
    pub fn cpu_share(&self) -> [f64; CpuClass::COUNT] {
        self.aggregate().cpu_share
    }

    /// Total hardware interrupts taken across CPUs.
    #[deprecated(note = "use per_cpu() / aggregate().interrupts_taken")]
    pub fn interrupts_taken(&self) -> u64 {
        self.aggregate().interrupts_taken
    }

    /// Total engine events dispatched across CPUs.
    #[deprecated(note = "use per_cpu() / aggregate().events_dispatched")]
    pub fn events_dispatched(&self) -> u64 {
        self.aggregate().events_dispatched
    }
}

/// Runs one trial.
///
/// With `config.topology.ncpus == 1` (the default) this is the original
/// single-CPU engine, bit-identical to every release before SMP existed.
/// With more CPUs it builds one kernel per CPU, steers the generated
/// flows across per-CPU NIC queues by RSS hash, and advances the kernels
/// under the deterministic cluster interleaver.
///
/// # Panics
///
/// Panics if the spec is degenerate (zero packets or non-positive rate),
/// or — on an SMP fault-free trial — if NIC-boundary packet conservation
/// fails.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    if spec.config.topology.ncpus > 1 {
        let flows = match &spec.flows {
            Some(f) => f.clone(),
            None => balanced_flows(),
        };
        return run_smp_trial(spec, &flows);
    }
    run_trial_engine(spec, None, Cycles::ZERO).0
}

/// Runs one trial with machine-level scheduling-event tracing enabled
/// (ring of `trace_capacity` records), returning the result plus the
/// trace rendered as Chrome-trace / Perfetto JSON (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>). Tracing perturbs
/// nothing: the measured numbers are identical to [`run_trial`]'s.
///
/// # Panics
///
/// Panics if the spec is degenerate (zero packets or non-positive rate).
pub fn run_trial_traced(spec: &TrialSpec, trace_capacity: usize) -> (TrialResult, String) {
    let (result, json, _) = run_trial_engine(spec, Some(trace_capacity), Cycles::ZERO);
    // Tracing was requested above, so `json` is always `Some`; an empty
    // string (never produced in practice) would only mean an empty trace.
    (result, json.unwrap_or_default())
}

/// Builds a single-CPU trial's machine — kernel, engine, frame pool, and
/// the paced arrival schedule as the engine's arrival source — and
/// returns it with the measurement window `(start, end)`: after warm-up,
/// until the last arrival.
fn build_trial_engine(spec: &TrialSpec) -> (Engine<RouterKernel>, Cycles, Cycles) {
    assert!(spec.n_packets > 0, "trial needs packets");
    assert!(spec.rate_pps > 0.0, "trial needs a positive rate");
    assert!(
        spec.flows.as_ref().map_or(true, |f| !f.is_empty()),
        "trial needs at least one flow"
    );

    let cfg = spec.config.clone();
    let freq = cfg.cost.freq;
    let ctx_switch = cfg.cost.ctx_switch;
    // Generate and pace the arrival schedule; the engine streams it.
    // Built before the pool and the kernel: the schedule is the trial's
    // one allocation that grows with its length, and freed after the
    // many small ones it would otherwise leave a hole among them that
    // the next trial's schedule may not fit.
    let mut gen = TrafficGen::paper_default(spec.rate_pps, freq, spec.seed);
    let mut times = gen.arrival_times(Cycles::ZERO, spec.n_packets);
    Wire::ethernet_10m(freq).pace(&mut times, MIN_FRAME_LEN);

    // One frame pool serves the whole trial, sized to what the kernel can
    // hold in flight: packets are built as they arrive, so slots recycle
    // and the run performs zero per-packet heap allocations.
    let pool = FramePool::new(POOL_BUF_CAPACITY, pool_prealloc(&cfg));
    let (st, kernel) = RouterKernel::build_with_pool(cfg, pool.clone());
    let mut engine = Engine::new(st, kernel, ctx_switch);
    let factory = PacketFactory::paper_testbed().with_pool(pool);
    let flows = match &spec.flows {
        Some(ports) => ports.iter().map(|&p| (p, 0)).collect(),
        None => vec![(factory.src_port, 0)],
    };

    // The schedule is nonempty (`n_packets > 0` was asserted above), so
    // the fallbacks never fire.
    let first = times.first().copied().unwrap_or(Cycles::ZERO);
    let last = times.last().copied().unwrap_or(Cycles::ZERO);
    let span = last - first;
    let window_start = first + Cycles::new((span.raw() as f64 * spec.warmup_frac) as u64);
    let window_end = last;
    engine
        .workload_mut()
        .stats_mut()
        .set_window(window_start, window_end);
    inject(&mut engine, WireArrivals::new(times, factory, flows, 0));
    (engine, window_start, window_end)
}

/// The trial engine behind [`run_trial`] and [`run_chaos_trial`]:
/// optionally traces, and optionally keeps simulating for `drain` cycles
/// past the measurement window (measured numbers are unaffected — the
/// window is closed first — but queues get a chance to empty, which the
/// chaos invariants assert on). Returns the finished engine for
/// end-state inspection.
fn run_trial_engine(
    spec: &TrialSpec,
    trace_capacity: Option<usize>,
    drain: Cycles,
) -> (TrialResult, Option<String>, Engine<RouterKernel>) {
    let freq = spec.config.cost.freq;
    let (mut engine, window_start, window_end) = build_trial_engine(spec);
    if let Some(cap) = trace_capacity {
        engine.enable_trace(cap);
    }

    // User CPU share — and the per-class cycle-ledger decomposition — are
    // measured over the same window.
    let user_tid = engine.workload().user_tid();
    engine.run_until(window_start);
    let user_before = user_tid.map(|t| engine.state().thread_cycles(t));
    let ledger_before = engine.state().ledger();
    engine.run_until(window_end);
    let user_after = user_tid.map(|t| engine.state().thread_cycles(t));
    let ledger_after = engine.state().ledger();
    if !drain.is_zero() {
        engine.run_until(Cycles::new(window_end.raw().saturating_add(drain.raw())));
    }

    let window = window_end - window_start;
    let user_cpu_frac = match (user_before, user_after) {
        (Some(b), Some(a)) if !window.is_zero() => (a - b).fraction_of(window),
        _ => 0.0,
    };
    let cpu_share = ledger_after.since(&ledger_before).shares();

    let interrupts_taken = engine.state().intr.total_taken();
    engine.workload_mut().sync_pool_stats();
    // Observability export: drain the detector's event stream (it also
    // feeds the chrome-trace markers), give a too-short timeline its
    // drain-time sample, and snapshot the cycle fold.
    let end_now = engine.state().now();
    let end_ledger = engine.state().ledger();
    engine
        .workload_mut()
        .finalize_timeline(end_now, end_ledger, interrupts_taken);
    let obs_events = engine.workload_mut().take_obs_events();
    let fold = engine.state().fold().cloned();
    let mut markers = engine.workload_mut().take_fault_markers();
    markers.extend(
        obs_events
            .iter()
            .map(|ev| (ev.at, format!("{} (cpu{})", ev.kind.label(), ev.cpu.0))),
    );
    markers.sort_by_key(|&(at, _)| at.raw());
    let chrome_json = engine.trace().map(|t| {
        let records: Vec<TraceRecord> = t.records().copied().collect();
        let st = engine.state();
        chrome_trace_json_with_markers(
            &records,
            freq,
            |src| format!("{} #{}", st.intr.name_of(src), src.0),
            |tid| st.sched.name(tid).to_string(),
            &markers,
        )
    });
    let stats = engine.workload().stats();
    let result = TrialResult {
        offered_pps: stats.offered_pps(freq),
        delivered_pps: stats.delivered_pps(freq),
        transmitted: stats.transmitted,
        rx_ring_drops: stats.rx_ring_drops(),
        ipintrq_drops: stats.ipintrq_drops(),
        screend_q_drops: stats.screend_q_drops(),
        screend_denied: stats.screend_denied(),
        socket_q_drops: stats.socket_q_drops(),
        app_delivered: stats.app_delivered,
        app_delivered_pps: stats.app_delivered_pps(freq),
        ifq_drops: stats.ifq_drops(),
        latency_mean: stats.latency.mean(),
        latency_p99: stats.latency.quantile(0.99),
        latency_jitter: stats.latency.jitter(),
        latency: stats.latency.clone(),
        drops: stats.drops.clone(),
        per_cpu: vec![CpuStats {
            cpu: CpuId(0),
            cpu_share,
            user_cpu_frac,
            interrupts_taken,
            events_dispatched: engine.state().events_dispatched(),
            steals_published: 0,
            steals_taken: 0,
        }],
        timeline: stats.timeline.clone(),
        pool: stats.pool.unwrap_or_default(),
        fault: stats.fault,
        flows: stats.flows.clone(),
        events: obs_events,
        fold,
        classes: class_summaries(stats.class.as_ref(), freq),
    };
    (result, chrome_json, engine)
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
    let (src, dst) = (u32::from(f.src_ip), u32::from(f.dst_ip));
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); 4];
    let mut port = f.src_port;
    while buckets.iter().any(|b| b.len() < PER_BUCKET) {
        let q = rss_queue(src, dst, proto::UDP, port, f.dst_port, 4);
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

/// The SMP trial harness behind [`run_trial`]: one complete kernel per
/// CPU, a multiqueue NIC model (packet `i` carries flow `flows[i % len]`,
/// RSS-hashed to an RX queue, each queue paced by its own wire and
/// interrupting its own CPU), all engines advanced by the deterministic
/// cluster interleaver with coalesced IPIs delivered at slice boundaries.
///
/// `flows` is a parameter so tests can steer deliberately *imbalanced*
/// traffic (e.g. every flow to CPU 0) at a stealing-enabled cluster.
fn run_smp_trial(spec: &TrialSpec, flows: &[u16]) -> TrialResult {
    assert!(spec.n_packets > 0, "trial needs packets");
    assert!(spec.rate_pps > 0.0, "trial needs a positive rate");
    assert!(!flows.is_empty(), "trial needs at least one flow");

    let cfg = spec.config.clone();
    let ncpus = cfg.topology.ncpus;
    let freq = cfg.cost.freq;
    let ctx_switch = cfg.cost.ctx_switch;
    // One aggregate arrival schedule at the nominal rate, split across RX
    // queues by each packet's RSS hash, then paced per queue: every queue
    // is fed by its own wire, so aggregate offered load can exceed a
    // single wire's 14,880 pkts/s ceiling. (The schedules are built
    // before the pool and the kernels, as in `build_trial_engine`.)
    let mut gen = TrafficGen::paper_default(spec.rate_pps, freq, spec.seed);
    let times = gen.arrival_times(Cycles::ZERO, spec.n_packets);
    let factory = PacketFactory::paper_testbed();
    let (src, dst) = (u32::from(factory.src_ip), u32::from(factory.dst_ip));
    // Class-aware steering: when classification is configured, frames
    // are steered by traffic class (`class.index() % ncpus`) instead of
    // RSS hash, so each priority lands on a dedicated CPU's queue and
    // strict-priority service survives the multiqueue split. The
    // classifier here is the same deterministic rule engine every
    // kernel runs at admission, so steering and per-class accounting
    // always agree.
    let steer_classifier = cfg
        .classes
        .as_ref()
        .map(|c| Classifier::new(c.rules.clone(), c.default_class));
    let steered: Vec<(u16, usize)> = flows
        .iter()
        .map(|&port| {
            let q = match &steer_classifier {
                Some(cl) => {
                    let key = FlowKey {
                        src_ip: src,
                        dst_ip: dst,
                        proto: proto::UDP,
                        src_port: port,
                        dst_port: factory.dst_port,
                    };
                    cl.classify(&key).index() % ncpus
                }
                None => rss_queue(src, dst, proto::UDP, port, factory.dst_port, ncpus),
            };
            (port, q)
        })
        .collect();
    let mut queue_times: Vec<Vec<Cycles>> = vec![Vec::new(); ncpus];
    for (i, &t) in times.iter().enumerate() {
        queue_times[steered[i % steered.len()].1].push(t);
    }
    for q in &mut queue_times {
        Wire::ethernet_10m(freq).pace(q, MIN_FRAME_LEN);
    }

    // Measurement window over the aggregate (post-pacing) schedule.
    let first = queue_times
        .iter()
        .filter_map(|v| v.first())
        .copied()
        .min()
        .unwrap_or(Cycles::ZERO);
    let last = queue_times
        .iter()
        .filter_map(|v| v.last())
        .copied()
        .max()
        .unwrap_or(Cycles::ZERO);
    let span = last - first;
    let window_start = first + Cycles::new((span.raw() as f64 * spec.warmup_frac) as u64);
    let window_end = last;

    let pool = FramePool::new(POOL_BUF_CAPACITY, pool_prealloc(&cfg));
    let shared = SmpShared::new(ncpus, cfg.ipintrq_cap);
    let factory = factory.with_pool(pool.clone());

    // Packet ids are one space across queues: queue `k`'s start where
    // queue `k - 1`'s end.
    let mut first_id = 0;
    let mut engines = Vec::with_capacity(ncpus);
    for (k, times) in queue_times.into_iter().enumerate() {
        let mut c = cfg.clone();
        // A fault plan targets one CPU; siblings run clean.
        if let Some(plan) = &c.faults {
            if plan.target() != CpuId(k) {
                c.faults = None;
            }
        }
        let (mut st, mut kernel) = RouterKernel::build_with_pool(c, pool.clone());
        st.set_cpu(CpuId(k));
        kernel.attach_smp(
            &mut st,
            SmpCtx {
                cpu: CpuId(k),
                ncpus,
                steal: cfg.topology.steal,
                shared: Rc::clone(&shared),
            },
        );
        if let Some(tl) = &mut kernel.stats_mut().timeline {
            tl.set_cpu(CpuId(k));
        }
        kernel.set_observe_cpu(CpuId(k));
        kernel.stats_mut().set_window(window_start, window_end);
        let mut engine = Engine::new(st, kernel, ctx_switch);
        let queue_factory = factory.clone().starting_at(first_id);
        first_id += times.len() as u64;
        inject(
            &mut engine,
            WireArrivals::new(times, queue_factory, steered.clone(), k),
        );
        engines.push(engine);
    }

    // The interleaver's slice hook is the sole cross-CPU signal path:
    // drain a CPU's coalesced IPI flag into one Event::Ipi per slice.
    let mut cluster = Cluster::new(engines, DEFAULT_SLICE);
    let hook_shared = Rc::clone(&shared);
    let mut hook = move |cpu: CpuId, engine: &mut Engine<RouterKernel>| {
        let mut sh = hook_shared.borrow_mut();
        if sh.ipi_pending[cpu.0] {
            sh.ipi_pending[cpu.0] = false;
            drop(sh);
            engine.state_schedule(engine.now(), Event::Ipi);
        }
    };

    cluster.run_until(window_start, &mut hook);
    let user_tids: Vec<_> = cluster
        .engines()
        .iter()
        .map(|e| e.workload().user_tid())
        .collect();
    let user_before: Vec<_> = cluster
        .engines()
        .iter()
        .zip(&user_tids)
        .map(|(e, t)| t.map(|t| e.state().thread_cycles(t)))
        .collect();
    let ledgers_before: Vec<_> = cluster.engines().iter().map(|e| e.state().ledger()).collect();
    cluster.run_until(window_end, &mut hook);
    let user_after: Vec<_> = cluster
        .engines()
        .iter()
        .zip(&user_tids)
        .map(|(e, t)| t.map(|t| e.state().thread_cycles(t)))
        .collect();
    let ledgers_after: Vec<_> = cluster.engines().iter().map(|e| e.state().ledger()).collect();
    // One extra slice past the window so the final arrivals (scheduled at
    // exactly `window_end`) and any trailing IPIs are processed before
    // the conservation audit; the measurement windows are already closed.
    cluster.run_until(window_end + DEFAULT_SLICE, &mut hook);

    let mut engines = cluster.into_engines();
    engines[0].workload_mut().sync_pool_stats();

    // Observability roll-up: per-CPU event streams interleaved by
    // (cycle, cpu), per-CPU registries and folds merged — both merges are
    // order-independent, so the result is the same no matter which CPU
    // finished first.
    let mut obs_events: Vec<ObsEvent> = Vec::new();
    let mut fold: Option<CycleFold> = None;
    let mut flow_reg: Option<FlowRegistry> = None;
    for e in engines.iter_mut() {
        let now = e.state().now();
        let ledger = e.state().ledger();
        let taken = e.state().intr.total_taken();
        e.workload_mut().finalize_timeline(now, ledger, taken);
        obs_events.extend(e.workload_mut().take_obs_events());
        if let Some(f) = e.state().fold() {
            match &mut fold {
                Some(acc) => acc.merge(f),
                None => fold = Some(f.clone()),
            }
        }
        if let Some(r) = &e.workload().stats().flows {
            match &mut flow_reg {
                Some(acc) => acc.merge(r),
                None => flow_reg = Some(r.clone()),
            }
        }
    }
    obs_events.sort_by_key(|ev| (ev.at.raw(), ev.cpu.0));

    let window = window_end - window_start;
    let sh = shared.borrow();
    let mut per_cpu = Vec::with_capacity(ncpus);
    for (k, e) in engines.iter().enumerate() {
        let user_cpu_frac = match (user_before[k], user_after[k]) {
            (Some(b), Some(a)) if !window.is_zero() => (a - b).fraction_of(window),
            _ => 0.0,
        };
        per_cpu.push(CpuStats {
            cpu: CpuId(k),
            cpu_share: ledgers_after[k].since(&ledgers_before[k]).shares(),
            user_cpu_frac,
            interrupts_taken: e.state().intr.total_taken(),
            events_dispatched: e.state().events_dispatched(),
            steals_published: sh.steals_published[k],
            steals_taken: sh.steals_taken[k],
        });
    }

    // NIC-boundary conservation: every generated packet was DMA'd into
    // some CPU's ring (`Ipkts`), dropped at some CPU's ring, or is still
    // parked in a steal buffer. Fault plans (link flaps lose frames on
    // the wire, storms synthesize extras) change the population, so the
    // audit only runs clean.
    if spec.config.faults.is_none() {
        // Class-shed frames are dropped at admission, before the ring —
        // they never become Ipkts, so they count separately.
        let accounted: u64 = engines
            .iter()
            .map(|e| {
                let s = e.workload().stats();
                e.workload().ipkts(0) + s.rx_ring_drops() + s.class_shed_drops()
            })
            .sum::<u64>()
            + sh.steal_residual() as u64;
        assert_eq!(
            accounted, spec.n_packets as u64,
            "SMP NIC-boundary packet conservation violated"
        );
    }

    let mut offered_pps = 0.0;
    let mut delivered_pps = 0.0;
    let mut app_delivered_pps = 0.0;
    let mut transmitted = 0;
    let mut rx_ring_drops = 0;
    let mut ipintrq_drops = 0;
    let mut screend_q_drops = 0;
    let mut screend_denied = 0;
    let mut socket_q_drops = 0;
    let mut app_delivered = 0;
    let mut ifq_drops = 0;
    let mut latency = LatencyStats::new();
    let mut drops = DropStats::new();
    let mut fault = FaultStats::default();
    let mut class_stats: Option<ClassStats> = None;
    for e in &engines {
        let s = e.workload().stats();
        if let Some(cs) = &s.class {
            match &mut class_stats {
                Some(acc) => acc.merge(cs),
                None => class_stats = Some(cs.clone()),
            }
        }
        offered_pps += s.offered_pps(freq);
        delivered_pps += s.delivered_pps(freq);
        app_delivered_pps += s.app_delivered_pps(freq);
        transmitted += s.transmitted;
        rx_ring_drops += s.rx_ring_drops();
        ipintrq_drops += s.ipintrq_drops();
        screend_q_drops += s.screend_q_drops();
        screend_denied += s.screend_denied();
        socket_q_drops += s.socket_q_drops();
        app_delivered += s.app_delivered;
        ifq_drops += s.ifq_drops();
        latency.merge(&s.latency);
        drops.merge(&s.drops);
        fault.merge(&s.fault);
    }
    let stats0 = engines[0].workload().stats();
    TrialResult {
        offered_pps,
        delivered_pps,
        transmitted,
        rx_ring_drops,
        ipintrq_drops,
        screend_q_drops,
        screend_denied,
        socket_q_drops,
        app_delivered,
        app_delivered_pps,
        ifq_drops,
        latency_mean: latency.mean(),
        latency_p99: latency.quantile(0.99),
        latency_jitter: latency.jitter(),
        latency,
        drops,
        per_cpu,
        timeline: stats0.timeline.clone(),
        pool: stats0.pool.unwrap_or_default(),
        fault,
        flows: flow_reg,
        events: obs_events,
        fold,
        classes: class_summaries(class_stats.as_ref(), freq),
    }
}

/// End-state invariants measured by [`run_chaos_trial`] after the fault
/// storm and the post-window drain.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The trial's measured numbers (fault counters included).
    pub result: TrialResult,
    /// Whether the interrupt gate ended the run open — a permanently
    /// inhibited gate is the wedge the recovery machinery must prevent.
    pub gate_open_at_end: bool,
    /// The gate's final inhibit bitmask (zero iff open).
    pub gate_bits: u8,
    /// Depth of the screend queue after the drain: it must empty after
    /// every injected crash and restart.
    pub screend_q_len: usize,
    /// Packets still inside the kernel after the drain (computed from
    /// the conserved arrival/delivery/drop ledger, which panics if the
    /// ledger itself does not balance).
    pub in_flight: u64,
    /// Times the watermark feedback's timeout safety net fired.
    pub timeout_resumes: u64,
}

/// Runs one trial like [`run_trial`], then keeps the simulation alive
/// for a 200 ms (simulated) drain with no new arrivals and reports the
/// end-state invariants a gracefully degrading kernel must satisfy.
/// Intended for specs whose config carries a
/// [`FaultPlan`](livelock_machine::fault::FaultPlan), but works (and
/// should be trivially green) without one.
///
/// # Panics
///
/// Panics if the spec is degenerate, or if the kernel's drop ledger
/// fails to conserve packets.
pub fn run_chaos_trial(spec: &TrialSpec) -> ChaosReport {
    let drain = spec.config.cost.freq.cycles_from_millis(200);
    let (result, _, engine) = run_trial_engine(spec, None, drain);
    let kernel = engine.workload();
    ChaosReport {
        gate_open_at_end: kernel.gate_is_open(),
        gate_bits: kernel.gate_bits(),
        screend_q_len: kernel.screend_q_len(),
        in_flight: kernel.stats().in_flight(),
        timeout_resumes: kernel.feedback_timeout_resumes(),
        result,
    }
}

/// Per-buffer capacity of a trial's frame pool. The paper's test frames
/// are minimum-size (60 bytes); ICMP errors quoting them and ARP replies
/// also fit well under this, so pooled buffers never grow.
const POOL_BUF_CAPACITY: usize = 128;

/// Extra pool buffers per CPU beyond the rings and queues: frames in a
/// handler's hands and kernel-originated replies (ARP, ICMP, application
/// echoes) in flight at once.
const POOL_HEADROOM: usize = 64;

/// Buffers a trial's frame pool preallocates: every place the configured
/// kernel can hold a frame, full, on every interface and CPU, plus
/// [`POOL_HEADROOM`]. A function of the configuration alone — a trial's
/// length never enters it.
fn pool_prealloc(cfg: &KernelConfig) -> usize {
    let class_rings = match (&cfg.classes, &cfg.mode) {
        (Some(_), Mode::Polled(_)) => TrafficClass::COUNT,
        _ => 0,
    };
    // Receive rings, transmit ring, output queue, the frame on the wire.
    let per_iface = cfg.nic.rx_ring * (1 + class_rings) + cfg.nic.tx_ring + cfg.ifq_cap + 1;
    let screend = cfg.screend.as_ref().map_or(0, |s| s.queue_cap);
    let socket = cfg.local.as_ref().map_or(0, |l| l.socket_cap);
    let steal = if cfg.topology.steal { STEAL_BUF_CAP } else { 0 };
    let per_cpu =
        per_iface * cfg.num_ifaces + cfg.ipintrq_cap + screend + socket + steal + POOL_HEADROOM;
    per_cpu * cfg.topology.ncpus
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
    /// Trial-wide index of the next packet to consider.
    next_index: usize,
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
            next_index: 0,
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
            let (port, queue) = self.flows[self.next_index % self.flows.len()];
            self.next_index += 1;
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

/// Hands a queue's traffic to its engine.
fn inject(engine: &mut Engine<RouterKernel>, arrivals: WireArrivals) {
    #[cfg(test)]
    if oracle::preloading() {
        return oracle::preload(engine, arrivals);
    }
    engine.set_arrival_source(Box::new(arrivals));
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
    let trials = crate::par::par_map(rates, par.jobs(), |&rate_pps| {
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

/// The pre-streaming behaviour, kept only as the oracle the streamed
/// trials are proved bit-identical to: every arrival built and scheduled
/// through [`Engine::state_schedule`] before the engine runs.
#[cfg(test)]
mod oracle {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        static PRELOAD: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn preloading() -> bool {
        PRELOAD.with(Cell::get)
    }

    /// Runs `f` with every trial on this thread preloading its arrivals.
    pub(super) fn with_preloaded_arrivals<R>(f: impl FnOnce() -> R) -> R {
        PRELOAD.with(|p| p.set(true));
        let out = f();
        PRELOAD.with(|p| p.set(false));
        out
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
    fn heap_and_calendar_backends_produce_identical_trials() {
        use livelock_machine::cpu::SchedulerKind;
        // Overloaded rate: drops, deferred interrupts and queue churn give
        // the schedulers a dense, tie-heavy event stream to disagree on.
        for (name, cfg) in [
            ("unmodified", unmodified()),
            ("polled", polled(Quota::Limited(10))),
        ] {
            let run = |kind| {
                let mut c = cfg.clone();
                c.scheduler = kind;
                quick(c, 9_000.0, 1_200)
            };
            let h = run(SchedulerKind::Heap);
            let c = run(SchedulerKind::Calendar);
            assert_eq!(h.transmitted, c.transmitted, "{name}");
            assert_eq!(
                h.offered_pps.to_bits(),
                c.offered_pps.to_bits(),
                "{name}: offered rate must be bit-identical"
            );
            assert_eq!(
                h.delivered_pps.to_bits(),
                c.delivered_pps.to_bits(),
                "{name}: delivered rate must be bit-identical"
            );
            assert_eq!(h.latency_mean, c.latency_mean, "{name}");
            assert_eq!(h.latency_p99, c.latency_p99, "{name}");
            assert_eq!(h.latency_jitter, c.latency_jitter, "{name}");
            assert_eq!(h.drops, c.drops, "{name}");
            assert_eq!(h.per_cpu, c.per_cpu, "{name}");
            assert!(
                h.aggregate().events_dispatched > 0,
                "{name}: trial dispatched events"
            );
        }
    }

    #[test]
    fn smp_trials_are_backend_and_rerun_identical() {
        use livelock_machine::cpu::SchedulerKind;
        // The tentpole determinism claim: an SMP trial is a pure function
        // of (config, seed) — same numbers on every scheduler backend and
        // every rerun, at every CPU count.
        for ncpus in [1, 2, 4] {
            let run = |kind| {
                let mut c = KernelConfig::builder().ncpus(ncpus).build();
                c.scheduler = kind;
                quick(c, 9_000.0, 1_200)
            };
            let h = run(SchedulerKind::Heap);
            let c = run(SchedulerKind::Calendar);
            let h2 = run(SchedulerKind::Heap);
            assert_eq!(h, c, "ncpus={ncpus}: backends disagree");
            assert_eq!(h, h2, "ncpus={ncpus}: rerun disagrees");
            assert_eq!(h.per_cpu().len(), ncpus);
        }
    }

    #[test]
    fn smp_shared_queue_serializes_while_polled_path_scales() {
        // COREC-style contention: the unmodified path funnels every CPU
        // into one shared ipintrq drained by CPU 0 alone, so a second CPU
        // buys (almost) nothing; the polled path is per-CPU end to end,
        // so it roughly doubles.
        let n1_unmod = quick(unmodified(), 9_000.0, 2_000);
        let n2_unmod = quick(
            KernelConfig::builder().ncpus(2).build(),
            18_000.0,
            4_000,
        );
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
        let spec = TrialSpec {
            rate_pps: 13_000.0,
            n_packets: 3_000,
            ..TrialSpec::new(
                KernelConfig::builder()
                    .polled(Quota::Limited(10))
                    .ncpus(2)
                    .steal(true)
                    .build(),
            )
        };
        // Flows all hashing to queue 0 of 2 (deterministic search).
        let f = PacketFactory::paper_testbed();
        let (src, dst) = (u32::from(f.src_ip), u32::from(f.dst_ip));
        let mut port = f.src_port;
        let mut flows = Vec::new();
        while flows.len() < 8 {
            if rss_queue(src, dst, proto::UDP, port, f.dst_port, 2) == 0 {
                flows.push(port);
            }
            port = port.wrapping_add(1);
        }
        let r = run_smp_trial(&spec, &flows);
        let agg = r.aggregate();
        assert!(
            agg.steals_taken > 0,
            "idle sibling should have stolen work"
        );
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
        let ns = run_smp_trial(&no_steal, &flows);
        assert!(
            ns.rx_ring_drops > r.rx_ring_drops,
            "stealing should convert ring drops into deliveries: {} !> {}",
            ns.rx_ring_drops,
            r.rx_ring_drops
        );
    }

    #[test]
    fn balanced_flows_cover_every_rss_bucket() {
        let flows = balanced_flows();
        assert_eq!(flows.len(), 64);
        let f = PacketFactory::paper_testbed();
        let (src, dst) = (u32::from(f.src_ip), u32::from(f.dst_ip));
        for nq in [1usize, 2, 4] {
            let mut counts = vec![0usize; nq];
            for &p in &flows {
                counts[rss_queue(src, dst, proto::UDP, p, f.dst_port, nq)] += 1;
            }
            assert!(
                counts.iter().all(|&c| c == 64 / nq),
                "flows must balance {nq} queues, got {counts:?}"
            );
        }
        // Bucket-interleaved: consecutive packets land on distinct queues.
        for w in flows.windows(2) {
            let a = rss_queue(src, dst, proto::UDP, w[0], f.dst_port, 4);
            let b = rss_queue(src, dst, proto::UDP, w[1], f.dst_port, 4);
            assert_ne!(a, b, "adjacent flows share a bucket");
        }
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_scalar_shims_mirror_the_aggregate() {
        let r = quick(unmodified(), 2_000.0, 500);
        let agg = r.aggregate();
        assert_eq!(agg.cpu, CpuStats::AGGREGATE);
        assert_eq!(r.user_cpu_frac(), agg.user_cpu_frac);
        assert_eq!(r.cpu_share(), agg.cpu_share);
        assert_eq!(r.interrupts_taken(), agg.interrupts_taken);
        assert_eq!(r.events_dispatched(), agg.events_dispatched);
    }

    #[cfg(feature = "proptest")]
    proptest::proptest! {
        /// RSS steering never loses or invents packets: at any CPU count,
        /// rate and packet count, delivered + every attributed drop +
        /// steal residue accounts for exactly the generated population.
        /// (The NIC-boundary assert inside `run_smp_trial` enforces the
        /// ring-level half; this checks the harness end to end.)
        #[test]
        fn rss_conserves_packets(
            ncpus_pow in 1u32..3,
            rate in 4_000.0f64..26_000.0,
            n in 400usize..1_200,
            seed in 1u64..64,
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
                        .build(),
                )
            };
            // run_smp_trial's internal assert is the conservation oracle.
            let r = run_trial(&spec);
            proptest::prop_assert_eq!(r.per_cpu().len(), ncpus);
        }

        /// The class dimension never loses or invents packets either:
        /// at any CPU count, every generated packet is classified
        /// exactly once, the per-class arrived/delivered/shed columns
        /// sum to the aggregate counters, and each class's own ledger
        /// stays within its arrivals. Runs under the drained chaos
        /// harness (fault-free) so the books close exactly — a plain
        /// trial can end with its last wire arrival still in flight.
        #[test]
        fn classed_counters_sum_to_aggregates(
            ncpus_pow in 0u32..3,
            rate in 3_000.0f64..16_000.0,
            n in 400usize..1_000,
            seed in 1u64..32,
        ) {
            use crate::config::ClassifyConfig;
            use crate::stats::DropReason;
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
                        .build(),
                )
            };
            let r = run_chaos_trial(&spec).result;
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
        use livelock_machine::cpu::SchedulerKind;
        use livelock_machine::fault::FaultPlan;
        let freq = unmodified().cost.freq;
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            for ncpus in [1, 4] {
                for storm in [false, true] {
                    // Overloaded, so rings overflow, feedback gates, and
                    // (on 4 CPUs) the steal path and its IPIs all run.
                    let mut b = KernelConfig::builder()
                        .polled(Quota::Limited(10))
                        .screend(Default::default())
                        .feedback(Default::default())
                        .scheduler(kind);
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
                    let what = format!("{kind:?} ncpus={ncpus} storm={storm}");
                    assert_matches_preloading_oracle(&spec, &what);
                }
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
        // lands exactly on the window's end is dispatched after all.
        let spec = TrialSpec {
            rate_pps: 9_000.0,
            n_packets: 1_000,
            ..TrialSpec::new(unmodified())
        };
        let streamed = run_chaos_trial(&spec);
        let mut preloaded = oracle::with_preloaded_arrivals(|| run_chaos_trial(&spec));
        preloaded.result.pool = streamed.result.pool;
        assert_eq!(streamed.result, preloaded.result);
        assert_eq!(streamed.in_flight, preloaded.in_flight);
        assert_eq!(streamed.screend_q_len, preloaded.screend_q_len);
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
            let (mut engine, _, end) = build_trial_engine(&spec);
            let mut max_pending = 0;
            for stop in 1..=16 {
                engine.run_until(Cycles::new(end.raw() / 16 * stop));
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
            .telemetry(crate::telemetry::TelemetryConfig::default())
            .build();
        let r = quick(cfg, 2_000.0, 500);
        let tl = r.timeline.expect("sampler enabled");
        assert!(!tl.is_empty(), "clock ticks should have produced samples");
        let csv = tl.to_csv(unmodified().cost.freq);
        assert!(csv.starts_with("time_us,rx_intr,"));
    }

    #[test]
    fn traced_trial_measures_the_same_numbers() {
        let spec = TrialSpec {
            rate_pps: 3_000.0,
            n_packets: 500,
            ..TrialSpec::new(polled(Quota::Limited(10)))
        };
        let plain = run_trial(&spec);
        let (traced, json) = run_trial_traced(&spec, 1 << 16);
        assert_eq!(plain, traced, "tracing must not perturb the trial");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("nic-rx #"), "interrupt track names");
        assert!(json.contains("netpoll"), "thread track names");
    }

    #[test]
    fn observe_is_zero_perturbation() {
        use crate::config::ScreendConfig;
        use crate::telemetry::ObserveConfig;
        // The observability layer is a pure observer: a watched trial
        // measures bit-identically to an unwatched one, on both kernels,
        // at an overloaded rate where every code path (drops, feedback,
        // screend) is exercised.
        for polled_mode in [false, true] {
            let mk = |obs: bool| {
                let mut b = KernelConfig::builder().screend(ScreendConfig::default());
                if polled_mode {
                    b = b.polled(Quota::Limited(10)).feedback(Default::default());
                }
                if obs {
                    b = b.observe(ObserveConfig::default());
                }
                b.build()
            };
            let base = quick(mk(false), 9_000.0, 1_500);
            let mut watched = quick(mk(true), 9_000.0, 1_500);
            assert!(watched.flows.is_some(), "registry allocated");
            assert!(watched.fold.is_some(), "cycle fold enabled");
            watched.flows = None;
            watched.fold = None;
            watched.events.clear();
            assert_eq!(
                watched, base,
                "observability must not perturb the trial (polled={polled_mode})"
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
                    .observe(ObserveConfig::default())
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
                    .observe(ObserveConfig::default())
                    .build(),
            )
        };
        let r = run_trial(&spec);
        let reg = r.flows.as_ref().expect("observability on");
        assert_eq!(reg.total_arrivals(), spec.n_packets as u64);
        assert_eq!(r.per_flow().len(), 64, "the balanced flow set");
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
                .observe(ObserveConfig::default());
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
                .observe(ObserveConfig::default())
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
            .telemetry(crate::telemetry::TelemetryConfig::default())
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
