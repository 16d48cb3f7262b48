//! The router kernel: a [`Workload`] implementing both the unmodified
//! 4.2BSD forwarding path and the paper's modified polling path.
//!
//! ## Unmodified path (paper Figure 6-2)
//!
//! ```text
//! wire -> NIC rx ring --(rx intr @SPLIMP, batched)--> ipintrq
//!      --(softnet @SPLNET: IP forward)--> [screend queue -> screend proc]
//!      --> output ifqueue --(if_start / tx intr @SPLIMP)--> tx ring -> wire
//! ```
//!
//! ## Modified path (paper §6.4)
//!
//! ```text
//! wire -> NIC rx ring --(stub intr: mark + wake)--> polling thread
//!      --(rx callback, quota: device + IP, process-to-completion)-->
//!      [screend queue (watermark feedback) -> screend proc] -->
//!      output ifqueue --(inline if_start / tx callback)--> tx ring -> wire
//! ```
//!
//! The forwarding work is real: every packet's Ethernet and IPv4 headers
//! are parsed from wire bytes, the header checksum verified, the TTL
//! decremented with an RFC 1624 incremental checksum fix, the route found
//! by longest-prefix match and the next hop resolved through the ARP cache
//! (with the paper's phantom entry for the nonexistent destination host).

use std::net::Ipv4Addr;

use livelock_core::cycle_limit::{CycleLimiter, LimiterDecision};
use livelock_core::feedback::{FeedbackSignal, WatermarkFeedback};
use livelock_core::gate::{GateChange, InhibitReason, IntrGate};
use livelock_core::poller::{PollAction, PollDirection, Poller, Quota, SourceId};
use livelock_core::rate_limit::IntrRateLimiter;
use livelock_machine::cost::CostModel;
use livelock_machine::cpu::{Chunk, CtxKind, Env, EnvState, Workload};
use livelock_machine::fault::FaultKind;
use livelock_machine::ledger::CpuClass;
use livelock_machine::intr::IntrSrc;
use livelock_machine::ipl::Ipl;
use livelock_machine::nic::Nic;
use livelock_machine::thread::{Priority, ThreadId};
use livelock_machine::wire::Wire;
use livelock_net::arp::{ArpCache, ArpOp, ArpPacket, ARP_PACKET_LEN};
use livelock_net::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use livelock_net::filter::{Action, Filter};
use livelock_net::ipv4::decrement_ttl;
use livelock_net::packet::Packet;
use livelock_net::pool::{FrameBuf, FramePool};
use livelock_net::queue::DropTailQueue;
use livelock_net::route::{NextHop, RouteTable};
use livelock_sim::Cycles;

mod classify;
mod faults;
mod forwarding;
mod gating;
mod polled;
mod procs;
mod smp;
mod unmodified;

use classify::ClassEngine;
use faults::FaultState;
use forwarding::FwdCache;
use livelock_net::classify::TrafficClass;
pub(crate) use smp::{CpuLink, STEAL_BUF_CAP};

use crate::config::{KernelConfig, Mode};
use crate::flows::{FlowRegistry, FLOW_SLOTS};
use crate::stats::{DropReason, KernelStats, LatencyStats};
use crate::telemetry::{LivelockDetector, ObsEvent, QueueDepths, Timeline, Totals};

use livelock_machine::ledger::CycleLedger;

/// The end-system socket receive buffer's capacity, in packets.
pub(crate) const SOCKET_CAP: usize = 64;

/// External events the router kernel reacts to.
#[derive(Debug)]
pub enum Event {
    /// A frame finished arriving on an input wire; DMA places it in the
    /// interface's receive ring.
    RxArrive {
        /// Receiving interface index.
        iface: usize,
        /// The frame: a two-word handle to its slot, carried inline, so
        /// an arrival costs no allocation of its own. (The events the
        /// scheduler actually holds are the packet-less kinds — clock
        /// pulses, wire completions; arrivals stream from the engine's
        /// arrival source.)
        pkt: Packet,
    },
    /// The output wire finished serializing the interface's in-flight
    /// frame.
    TxWireDone {
        /// Transmitting interface index.
        iface: usize,
    },
    /// The periodic hardware clock (self-rescheduling).
    ClockPulse,
    /// A receive interrupt deferred by the §5.1 rate limiter comes due.
    DeferredRxIntr {
        /// The interface whose interrupt was deferred.
        iface: usize,
    },
    /// A scheduled fault from the configured [`FaultPlan`] fires.
    ///
    /// [`FaultPlan`]: livelock_machine::fault::FaultPlan
    Fault(FaultKind),
    /// A cross-CPU wakeup from a sibling CPU in an SMP cluster, injected
    /// by the interleaver's slice hook when this CPU's coalesced IPI
    /// flag is set. Never scheduled on a lone CPU, which has nobody to
    /// set the flag.
    Ipi,
}

// Every pending event is stored and moved at `size_of::<Event>`.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// Chunk tags.
mod tag {
    pub const RX_DISPATCH: u64 = 1;
    pub const RX_PKT: u64 = 2;
    pub const SOFTNET_DISPATCH: u64 = 3;
    pub const SOFTNET_PKT: u64 = 4;
    pub const TX_DISPATCH: u64 = 5;
    pub const TX_RECLAIM: u64 = 6;
    pub const TX_START: u64 = 7;
    pub const RX_STUB: u64 = 8;
    pub const TX_STUB: u64 = 9;
    pub const POLL_CB_START: u64 = 10;
    pub const POLL_RX_PKT: u64 = 11;
    pub const POLL_TX_PKT: u64 = 12;
    pub const POLL_TX_START: u64 = 13;
    pub const SCREEND_PKT: u64 = 14;
    pub const USER: u64 = 15;
    pub const CLOCK: u64 = 16;
    pub const HOUSEKEEPING: u64 = 17;
    pub const APP_PKT: u64 = 18;
    pub const IPI: u64 = 19;
    /// Per-class polled receive chunks (classified kernels), one per
    /// class ring in ring order: the ring rides the tag so the cycle
    /// ledger's fold and the chunk hooks see which priority the polling
    /// thread is serving.
    pub const POLL_RX_PKT_P0: u64 = 20;
    pub const POLL_RX_PKT_P1: u64 = 21;
    pub const POLL_RX_PKT_P2: u64 = 22;
}

// The machine books each tag below `Chunk::TAG_LIMIT` as a stage of its
// own; the highest tag above must stay under it. Class ring `r`'s tag is
// `POLL_RX_PKT_P0 + r`.
const _: () = assert!(tag::POLL_RX_PKT_P2 < Chunk::TAG_LIMIT);
const _: () = assert!(tag::POLL_RX_PKT_P2 - tag::POLL_RX_PKT_P0 == 2);

/// The receive ring a polled receive chunk drains: ring 0 for the
/// classless drain's tag, the class ring for a per-class tag, `None` for
/// every other tag.
fn poll_rx_ring(t: u64) -> Option<usize> {
    match t {
        tag::POLL_RX_PKT | tag::POLL_RX_PKT_P0 => Some(0),
        tag::POLL_RX_PKT_P1 => Some(1),
        tag::POLL_RX_PKT_P2 => Some(2),
        _ => None,
    }
}

/// The human-readable stage label for a kernel chunk tag — the `stage`
/// leg of the machine's `cpu;class;stage` flamegraph fold. Tag 0 is the
/// machine's own scheduling/idle charge.
pub fn tag_label(t: u64) -> &'static str {
    match t {
        0 => "(exec)",
        tag::RX_DISPATCH => "rx_dispatch",
        tag::RX_PKT => "rx_pkt",
        tag::SOFTNET_DISPATCH => "softnet_dispatch",
        tag::SOFTNET_PKT => "softnet_pkt",
        tag::TX_DISPATCH => "tx_dispatch",
        tag::TX_RECLAIM => "tx_reclaim",
        tag::TX_START => "tx_start",
        tag::RX_STUB => "rx_stub",
        tag::TX_STUB => "tx_stub",
        tag::POLL_CB_START => "poll_cb_start",
        tag::POLL_RX_PKT => "poll_rx_pkt",
        tag::POLL_TX_PKT => "poll_tx_pkt",
        tag::POLL_TX_START => "poll_tx_start",
        tag::SCREEND_PKT => "screend_pkt",
        tag::USER => "user_chunk",
        tag::CLOCK => "clock_tick",
        tag::HOUSEKEEPING => "housekeeping",
        tag::APP_PKT => "app_pkt",
        tag::IPI => "ipi",
        tag::POLL_RX_PKT_P0 => "poll_rx_pkt_p0",
        tag::POLL_RX_PKT_P1 => "poll_rx_pkt_p1",
        tag::POLL_RX_PKT_P2 => "poll_rx_pkt_p2",
        _ => "(unknown)",
    }
}

/// What an interrupt source belongs to.
#[derive(Clone, Copy, Debug)]
enum SrcRole {
    Rx(usize),
    Tx(usize),
    Softnet,
    Clock,
    Softclock,
    Ipi,
}

struct Iface {
    nic: Nic,
    ip: Ipv4Addr,
    out_q: DropTailQueue<Packet>,
    wire: Wire,
    inflight: Option<Packet>,
    rx_src: IntrSrc,
    tx_src: IntrSrc,
    mac: MacAddr,
    poll_sid: SourceId,
}

impl Iface {
    /// Whether a queued frame can start: the output queue holds one and
    /// the transmit ring has a free descriptor for it.
    fn tx_startable(&self) -> bool {
        !self.out_q.is_empty() && self.nic.tx_slots_free() > 0
    }
}

/// One bit per interrupt source (the controller caps them at 64), set
/// while the source's handler is active: its first chunk has been issued
/// and it has not yet returned.
#[derive(Clone, Copy, Debug, Default)]
struct InHandler(u64);

impl InHandler {
    /// Starts `src`'s handler; `false` when it is already active.
    fn enter(&mut self, src: IntrSrc) -> bool {
        let bit = 1 << src.0;
        let entered = self.0 & bit == 0;
        self.0 |= bit;
        entered
    }

    /// Ends `src`'s handler.
    fn leave(&mut self, src: IntrSrc) {
        self.0 &= !(1 << src.0);
    }

    /// A one-chunk handler: `chunk` on entry, then `None` as it returns.
    fn once(&mut self, src: IntrSrc, chunk: Chunk) -> Option<Chunk> {
        if self.enter(src) {
            Some(chunk)
        } else {
            self.leave(src);
            None
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PollState {
    action: Option<PollAction>,
    done_in_cb: u32,
    cb_started_at: Cycles,
}

/// Where a routed packet goes next.
enum Routed {
    /// Out through this interface.
    Forward(usize, Packet),
    /// Addressed to the host itself: local (end-system) delivery.
    Local(Packet),
}

/// The router kernel (a [`Workload`] for the machine engine).
pub struct RouterKernel {
    cfg: KernelConfig,
    cost: CostModel,
    ifaces: Vec<Iface>,
    src_roles: Vec<SrcRole>,
    softnet_src: IntrSrc,
    clock_src: IntrSrc,
    softclock_src: IntrSrc,
    in_handler: InHandler,
    /// Queue to the user-mode screend process: already-routed packets with
    /// their output interface.
    screend_q: DropTailQueue<(usize, Packet)>,
    /// Local socket receive buffer (end-system mode).
    socket_q: DropTailQueue<Packet>,
    socket_feedback: Option<WatermarkFeedback>,
    reply_seq: u64,
    rx_rate_limiter: Option<IntrRateLimiter>,
    /// Per-interface flag: a deferred receive interrupt is scheduled.
    rx_intr_deferred: Vec<bool>,
    routes: RouteTable,
    arp: ArpCache,
    /// Cleared by every change to `routes` or `arp`.
    fwd_cache: Option<FwdCache>,
    filter: Filter,
    poller: Poller,
    gate: IntrGate,
    feedback: Option<WatermarkFeedback>,
    limiter: Option<CycleLimiter>,
    poll: PollState,
    poll_tid: Option<ThreadId>,
    screend_tid: Option<ThreadId>,
    app_tid: Option<ThreadId>,
    user_tid: Option<ThreadId>,
    /// Frame pool for kernel-originated packets (ARP/UDP replies).
    pool: FramePool,
    /// Live fault-injection state; `None` when no fault plan is
    /// configured, in which case every fault hook is dead code.
    fault: Option<FaultState>,
    /// This CPU's end of the cluster's shared state: the `ipintrq`
    /// (packets awaiting IP-layer processing, unmodified mode), the IPI
    /// flags and the steal buffers. A uniprocessor is a cluster of one.
    link: CpuLink,
    /// The per-CPU IPI interrupt source; on a lone CPU it exists and is
    /// never posted.
    ipi_src: IntrSrc,
    /// The online livelock detector; `None` unless
    /// [`KernelConfig::observe`] is set, in which case the clock tick
    /// pays nothing for it.
    detector: Option<LivelockDetector>,
    /// Priority-aware flow classification; `None` unless
    /// [`KernelConfig::classes`] is set, in which case every class hook
    /// is dead code and the run is byte-identical to a classless build.
    classes: Option<ClassEngine>,
    stats: KernelStats,
}

impl RouterKernel {
    /// Builds the machine state and kernel for a configuration, with the
    /// paper's two-interface topology: interface `i` owns subnet
    /// `10.<i>.0.0/16` and a phantom ARP entry exists for the test
    /// destination `10.1.0.99`. A kernel built here is a cluster of one
    /// with a frame pool of its own, whatever `cfg.topology` says:
    /// siblings exist only inside a trial.
    pub fn build(cfg: KernelConfig) -> (EnvState<Event>, RouterKernel) {
        let link = CpuLink::lone(cfg.ipintrq_cap);
        Self::build_linked(cfg, link, FramePool::for_frames(0))
    }

    /// Builds the kernel of CPU `link.cpu()` of a cluster. Every
    /// kernel-originated packet (ARP and application replies) draws its
    /// frame buffer from `pool`.
    pub(crate) fn build_linked(
        cfg: KernelConfig,
        link: CpuLink,
        pool: FramePool,
    ) -> (EnvState<Event>, RouterKernel) {
        let cost = cfg.cost;
        let cpu = link.cpu();
        let mut st = EnvState::new(cost.quantum());
        st.set_cpu(cpu);

        let clock_src = st.intr.register("clock", Ipl::CLOCK);
        let softclock_src = st.intr.register("softclock", Ipl::SOFTCLOCK);
        let softnet_src = st.intr.register("softnet", Ipl::SOFTNET);
        let mut src_roles = vec![SrcRole::Clock, SrcRole::Softclock, SrcRole::Softnet];

        let polled = cfg.polled_config().copied();
        let quota = polled.map_or(Quota::Unlimited, |p| p.rx_quota);
        let mut poller = Poller::new(quota, quota);

        let mut ifaces = Vec::with_capacity(cfg.num_ifaces);
        let mut routes = RouteTable::new();
        for i in 0..cfg.num_ifaces {
            // Interrupt sources are registered rx-before-tx so the
            // controller's deterministic tie-break services receives first,
            // the §4.4 condition for transmit starvation.
            let rx_src = st.intr.register("nic-rx", Ipl::IMP);
            src_roles.push(SrcRole::Rx(i));
            let tx_src = st.intr.register("nic-tx", Ipl::IMP);
            src_roles.push(SrcRole::Tx(i));
            let poll_sid = poller.register();
            routes.insert(
                Ipv4Addr::new(10, i as u8, 0, 0),
                16,
                NextHop {
                    iface: i,
                    gateway: None,
                },
            );
            ifaces.push(Iface {
                // A classified polled kernel's NIC files each class into
                // a ring of its own; every other NIC has one ring.
                nic: Nic::new("ln", cfg.nic).with_rx_rings(cfg.rx_rings()),
                ip: Ipv4Addr::new(10, i as u8, 0, 1),
                out_q: DropTailQueue::new("ifqueue", cfg.ifq_cap),
                wire: Wire::ethernet_10m(cost.freq),
                inflight: None,
                rx_src,
                tx_src,
                mac: MacAddr::local(i as u32 + 1),
                poll_sid,
            });
        }

        // The IPI source is registered last: same-IPL ties break by
        // registration index, so a cross-CPU wakeup (device priority — it
        // preempts threads and software interrupts like any device
        // interrupt) never reorders the NIC sources.
        let ipi_src = st.intr.register("ipi", Ipl::IMP);
        src_roles.push(SrcRole::Ipi);

        let mut arp = ArpCache::new();
        // The paper's trick: "we fooled the router by inserting a phantom
        // entry into its ARP table" for the nonexistent destination.
        arp.insert_phantom(Ipv4Addr::new(10, 1, 0, 99), MacAddr::local(0x99));
        // The source host, so an end-system application can send replies.
        arp.insert_phantom(Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(0x100));

        let poll_tid = polled
            .is_some()
            .then(|| st.sched.spawn("netpoll", Priority::KERNEL));
        let screend_tid = cfg
            .screend
            .is_some()
            .then(|| st.sched.spawn("screend", Priority::USER));
        let app_tid = cfg
            .local
            .is_some()
            .then(|| st.sched.spawn("udpserver", Priority::USER));
        let user_tid = cfg
            .user_process
            .then(|| st.sched.spawn("compute", Priority::USER));
        if let Some(tid) = user_tid {
            st.sched.wake(tid);
        }

        // Attribute every execution context to its CPU class so the
        // machine's conserved cycle ledger can decompose "where did the
        // CPU go" (softclock counts as kernel housekeeping, not the
        // network soft interrupt).
        st.set_ctx_class(CtxKind::Intr(clock_src), CpuClass::ClockIntr);
        st.set_ctx_class(CtxKind::Intr(softclock_src), CpuClass::KernelOther);
        st.set_ctx_class(CtxKind::Intr(softnet_src), CpuClass::SoftIntNet);
        for iface in &ifaces {
            st.set_ctx_class(CtxKind::Intr(iface.rx_src), CpuClass::RxIntr);
            st.set_ctx_class(CtxKind::Intr(iface.tx_src), CpuClass::TxIntr);
        }
        st.set_ctx_class(CtxKind::Intr(ipi_src), CpuClass::KernelOther);
        for (tid, class) in [
            (poll_tid, CpuClass::PollThread),
            (screend_tid, CpuClass::Screend),
            (app_tid, CpuClass::UserProc),
            (user_tid, CpuClass::UserProc),
        ] {
            if let Some(tid) = tid {
                st.set_ctx_class(CtxKind::Thread(tid), class);
            }
        }

        let feedback = polled
            .is_some_and(|p| p.feedback)
            .then(|| WatermarkFeedback::paper(cfg.screend.as_ref().map_or(32, |s| s.queue_cap)));
        let limiter = polled
            .and_then(|p| p.cycle_limit_frac)
            .map(|frac| CycleLimiter::new(cost.cycle_limit_period().raw(), frac));
        let socket_feedback = (polled.is_some() && cfg.local.is_some_and(|l| l.feedback))
            .then(|| WatermarkFeedback::paper(SOCKET_CAP));
        let rx_rate_limiter = cfg
            .intr_rate_limit
            .map(|r| IntrRateLimiter::per_second(r.max_rate_hz, cost.freq.as_hz(), r.burst));
        let rx_intr_deferred = vec![false; cfg.num_ifaces];

        let screend_cap = cfg.screend.as_ref().map_or(1, |s| s.queue_cap);
        let filter = cfg
            .screend
            .as_ref()
            .map_or_else(Filter::accept_all, |s| s.rules.clone());

        // First clock tick.
        st.schedule_at(cost.clock_tick_interval, Event::ClockPulse);

        // Scheduled fault injections. An absent or empty plan schedules
        // no events and allocates no state, so a fault-free run is
        // bit-for-bit identical to a build without the fault layer.
        let fault = match &cfg.faults {
            Some(plan) if !plan.is_empty() => {
                for ev in plan.events() {
                    st.schedule_at(ev.at, Event::Fault(ev.kind));
                }
                Some(FaultState::new(cfg.num_ifaces))
            }
            _ => None,
        };

        // Priority-aware classification. An unmodified kernel's NIC has
        // one ring: classes are observed, not enforced (the chaos
        // --priority contrast).
        let classes = cfg.classes.as_ref().map(ClassEngine::new);

        let mut stats = KernelStats::new();
        if cfg.latency_tracking {
            stats.latency = LatencyStats::new();
        }
        stats.class = classes.is_some().then(crate::stats::ClassStats::new);
        stats.timeline = cfg.telemetry.then(|| Timeline::new(cpu));
        // The observability layer: per-flow registry and online livelock
        // detector (the trial also reads the machine's cycle fold at
        // collect). Both are pure bookkeeping — when absent nothing is
        // allocated and the run is bit-identical; when present the run
        // is *still* bit-identical, just observed.
        stats.flows = cfg.observe.then(|| FlowRegistry::new(FLOW_SLOTS));
        let detector = cfg.observe.then(|| LivelockDetector::new(cpu));

        let kernel = RouterKernel {
            screend_q: DropTailQueue::new("screendq", screend_cap),
            socket_q: DropTailQueue::new("socketq", SOCKET_CAP),
            socket_feedback,
            reply_seq: 0,
            rx_rate_limiter,
            rx_intr_deferred,
            cfg,
            cost,
            ifaces,
            src_roles,
            softnet_src,
            clock_src,
            softclock_src,
            in_handler: InHandler::default(),
            routes,
            arp,
            fwd_cache: None,
            filter,
            poller,
            gate: IntrGate::new(),
            feedback,
            limiter,
            poll: PollState::default(),
            poll_tid,
            screend_tid,
            app_tid,
            user_tid,
            pool,
            fault,
            link,
            ipi_src,
            detector,
            classes,
            stats,
        };
        (st, kernel)
    }

    /// This CPU's end of the cluster's shared state (the harness takes
    /// IPI flags and reads the steal books through it).
    pub(crate) fn link(&self) -> &CpuLink {
        &self.link
    }

    /// Frames the interface's NIC accepted into its receive ring
    /// (`netstat -i` `Ipkts`), for NIC-boundary conservation checks.
    pub fn ipkts(&self, iface: usize) -> u64 {
        self.ifaces[iface].nic.ipkts()
    }

    /// The kernel's frame pool.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// A zero-filled frame buffer from the kernel's pool.
    fn alloc_frame(&self, len: usize) -> FrameBuf {
        self.pool.take(len)
    }

    /// Clock-tick telemetry hook: when the sampler is enabled and a sample
    /// is due, records per-class CPU shares (from the machine's conserved
    /// cycle ledger), every queue depth along the forwarding path, the
    /// interrupt gate's inhibit bitmask, and the interrupt rate.
    fn sample_telemetry(&mut self, env: &mut Env<'_, Event>) {
        if self.stats.timeline.as_mut().is_some_and(Timeline::on_tick) {
            self.record_sample(env.now(), env.ledger(), env.intr_total_taken());
        }
    }

    /// Records one timeline sample at `now` from the machine's cumulative
    /// `ledger` and interrupt count `intr_taken` and the kernel's own
    /// counters, queues and gate.
    fn record_sample(&mut self, now: Cycles, ledger: CycleLedger, intr_taken: u64) {
        let totals = Totals {
            ledger,
            intr_taken,
            class_delivered: self.class_delivered_cum(),
        };
        let (depths, gate_bits, freq) = (self.queue_depths(), self.gate.bits(), self.cost.freq);
        if let Some(tl) = &mut self.stats.timeline {
            tl.sample(now, totals, depths, gate_bits, freq);
        }
    }

    /// Cumulative per-traffic-class delivery counters for the timeline
    /// (all-zero when classification is off).
    fn class_delivered_cum(&self) -> [u64; 3] {
        match &self.stats.class {
            Some(cs) => {
                let mut out = [0u64; 3];
                for c in TrafficClass::ALL {
                    out[c.index()] = cs.get(c).delivered;
                }
                out
            }
            None => [0; 3],
        }
    }

    /// Every queue depth along the forwarding path, as sampled by both
    /// the timeline and the drain-time fallback sample. The IP input
    /// queue is the cluster's one, whichever CPU samples it.
    fn queue_depths(&self) -> QueueDepths {
        QueueDepths {
            rx_ring: self.ifaces.iter().map(|i| i.nic.rx_pending()).sum(),
            ipintrq: self.link.ipintrq().len(),
            screend_q: self.screend_q.len(),
            out_ifq: self.ifaces.iter().map(|i| i.out_q.len()).sum(),
            socket_q: self.socket_q.len(),
        }
    }

    /// Drain-time fallback: a trial shorter than one sampling interval
    /// would otherwise return an *empty* time series even though
    /// telemetry was requested. When the timeline is enabled and never
    /// got a tick-aligned sample, record one final sample at drain so
    /// the series always has at least one point.
    pub(crate) fn finalize_timeline(&mut self, now: Cycles, ledger: CycleLedger, taken: u64) {
        if self.stats.timeline.as_ref().is_some_and(Timeline::is_empty) {
            self.record_sample(now, ledger, taken);
        }
    }

    /// Clock-tick observability hook: feeds the windowed livelock
    /// detector with the kernel's monotone counters and the per-flow
    /// registry. Runs after `sample_telemetry` and mutates nothing the
    /// simulation reads back — the detector is an observer, not a
    /// controller.
    fn observe_tick(&mut self, env: &mut Env<'_, Event>) {
        let Some(det) = &mut self.detector else {
            return;
        };
        let delivered = self.stats.transmitted + self.stats.app_delivered;
        let window_closed = det.on_tick(
            env.now(),
            self.stats.arrived,
            delivered,
            self.stats.user_chunks,
            self.cfg.user_process,
            self.stats.flows.as_ref(),
        );
        // Window-aligned cross-class SLO judge: fires the upgraded
        // PriorityInversion on real inversion — Control blowing its p99
        // SLO (or starving outright) while Bulk is still served.
        if !window_closed {
            return;
        }
        let Some(ce) = &self.classes else {
            return;
        };
        let Some(cs) = &mut self.stats.class else {
            return;
        };
        let (_, p99) = cs.take_window_p99(TrafficClass::Control);
        det.judge_classes(
            env.now(),
            cs.get(TrafficClass::Control).arrived,
            cs.get(TrafficClass::Control).delivered,
            cs.get(TrafficClass::Bulk).delivered,
            p99,
            ce.slo_p99,
        );
    }

    /// Drains the livelock detector's typed event stream (empty when
    /// observability is off).
    pub(crate) fn take_obs_events(&mut self) -> Vec<ObsEvent> {
        match &mut self.detector {
            Some(det) => det.take_events(),
            None => Vec::new(),
        }
    }

    /// The kernel's statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Consumes the kernel, returning its statistics.
    pub(crate) fn into_stats(self) -> KernelStats {
        self.stats
    }

    /// Mutable statistics access (to install measurement windows).
    pub fn stats_mut(&mut self) -> &mut KernelStats {
        &mut self.stats
    }

    /// The configuration the kernel was built with.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The compute-bound user thread, when configured.
    pub fn user_tid(&self) -> Option<ThreadId> {
        self.user_tid
    }

    /// The polling thread, in polled mode.
    pub fn poll_tid(&self) -> Option<ThreadId> {
        self.poll_tid
    }

    /// Adds a route (for non-default topologies).
    pub fn add_route(&mut self, prefix: Ipv4Addr, len: u8, hop: NextHop) {
        self.routes.insert(prefix, len, hop);
        self.fwd_cache = None;
    }

    /// Adds a permanent ARP entry (for non-default topologies).
    pub fn add_phantom_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert_phantom(ip, mac);
        self.fwd_cache = None;
    }

    /// Interface-level drop count (receive ring overflows).
    pub fn rx_ring_drops(&self) -> u64 {
        self.ifaces.iter().map(|i| i.nic.rx_ring_drops()).sum()
    }

    /// Total interrupts taken is tracked by the controller; expose the
    /// per-interface `Opkts` for `netstat`-style sampling.
    pub fn opkts(&self, iface: usize) -> u64 {
        self.ifaces[iface].nic.opkts()
    }

    /// A frame finished arriving on interface `i`: DMA into the receive
    /// ring, then (maybe) a receive interrupt. Shared by wire arrivals
    /// and fault-injected overrun storms so both obey the same
    /// accounting.
    fn rx_arrive(&mut self, env: &mut Env<'_, Event>, i: usize, pkt: Packet) {
        let mut pkt = pkt;
        if let Some(f) = &mut self.fault {
            // A flapped link loses the frame on the wire, before the NIC
            // (and the arrival counter) ever sees it.
            if env.now() < f.link_down_until[i] {
                self.stats.fault.link_down_losses += 1;
                return;
            }
            // An armed mutation corrupts the frame in place; the IPv4
            // header checksum (or length checks) catch it downstream. The
            // key stamped on the old bytes goes with them.
            if let Some(m) = f.pending_mutation[i].take() {
                m.apply(&mut pkt);
                pkt.flow = pkt.flow_key();
                self.stats.fault.mutated_frames += 1;
            }
        }
        // The flow key rides the packet from here on: screend's filter,
        // the class gate and the per-flow books all read it. Generated
        // frames arrive stamped; any other frame is parsed once, here.
        if pkt.flow.is_none() {
            pkt.flow = pkt.flow_key();
        }
        self.stats.record_arrival(env.now(), pkt.flow);
        pkt.arrived_at = env.now();
        // The class-aware admission gate: classify, stamp, and — on a
        // polled kernel under an active shed level — drop low-priority
        // traffic here, before it costs a ring slot or a cycle of
        // kernel work.
        if !self.class_admit(&mut pkt) {
            return;
        }
        // A ring overflow while the gate is closed is the drop the
        // feedback deliberately asked for (§6.4); attribute it so.
        let inhibited = self.is_polled() && !self.gate.is_open();
        // Work stealing: a frame that would overflow its ring on this CPU
        // is published for an idle sibling instead — unless feedback
        // closed the gate, in which case the drop is the point.
        if !inhibited && self.steal_wanted(i, &pkt) {
            self.steal_publish(pkt);
            return;
        }
        let flow = pkt.flow;
        let iface = &mut self.ifaces[i];
        // The NIC files the frame by its class stamp.
        let accepted = iface.nic.rx_arrive(pkt).is_ok();
        if accepted {
            if env.intr_enabled(iface.rx_src) {
                self.post_rx_intr(env, i);
            }
        } else if inhibited {
            self.stats.record_drop_for(DropReason::FeedbackInhibit, flow);
        } else {
            self.stats.record_drop_for(DropReason::RxRingFull, flow);
        }
    }

    /// Whether `pkt`, arriving on interface `i`, goes to the steal
    /// buffer instead of its ring: stealing is on and that ring is full.
    fn steal_wanted(&self, i: usize, pkt: &Packet) -> bool {
        let nic = &self.ifaces[i].nic;
        self.link.steals_frames() && nic.rx_ring_is_full(nic.rx_ring_for(pkt))
    }

    /// Parks the frame in this CPU's steal buffer, signalling idle
    /// siblings, or drops it when that is full too.
    fn steal_publish(&mut self, pkt: Packet) {
        if let Err(pkt) = self.link.steal_publish(pkt) {
            self.stats.record_drop_for(DropReason::RxRingFull, pkt.flow);
        }
    }

    /// The unmodified wakeup-and-drain: runs on CPU 0 when a sibling's
    /// IPI lands (polled kernels instead wake their poller to go
    /// stealing).
    fn ipi_done(&mut self, env: &mut Env<'_, Event>) {
        if self.is_polled() {
            if let Some(tid) = self.poll_tid {
                env.wake(tid);
            }
        } else if !self.link.ipintrq().is_empty() {
            env.post_intr(self.softnet_src);
        }
    }

    /// The interrupt gate's inhibit bitmask (zero = open).
    pub fn gate_bits(&self) -> u8 {
        self.gate.bits()
    }

    /// Current depth of the screend input queue.
    pub fn screend_q_len(&self) -> usize {
        self.screend_q.len()
    }

    /// Times the watermark feedback's timeout safety net re-enabled
    /// input (zero when feedback is not configured).
    pub fn feedback_timeout_resumes(&self) -> u64 {
        self.feedback.as_ref().map_or(0, |f| f.timeout_resumes())
    }

    /// Drains the accumulated fault/recovery markers for trace export
    /// (empty when no fault plan is configured).
    pub fn take_fault_markers(&mut self) -> Vec<(Cycles, String)> {
        self.fault
            .as_mut()
            .map_or_else(Vec::new, |f| std::mem::take(&mut f.markers))
    }

    fn is_polled(&self) -> bool {
        matches!(self.cfg.mode, Mode::Polled(_))
    }

    /// May per-packet handler chunks be issued as bursts
    /// ([`Chunk::with_reps`])? Fault injection can change arbitrary state
    /// between packets (lost interrupts, ring corruption, stalls), so any
    /// configured plan disables bursting outright.
    fn burstable(&self) -> bool {
        self.fault.is_none()
    }

    /// May the *polling thread's* per-packet chunks be issued as bursts?
    /// A burst promises that none of `poll_next`'s stop conditions can
    /// fire between repetitions. The quota is accounted for in the rep
    /// count and the ring/reclaim backlogs only grow from outside, but the
    /// interrupt gate must provably stay open: queue feedback, socket
    /// feedback and the cycle limiter can all close it from a preempting
    /// context, so bursting requires all three to be unconfigured.
    /// Classification adds a fourth condition: the strict-priority drain
    /// re-picks its ring (and spends a burst budget unit) per packet, so
    /// a multi-packet promise cannot hold — a higher-priority frame may
    /// land between repetitions and must preempt the round.
    fn poll_burstable(&self) -> bool {
        self.burstable()
            && self.feedback.is_none()
            && self.socket_feedback.is_none()
            && self.limiter.is_none()
            && self.classes.is_none()
    }

    fn emulation_overhead(&self) -> Cycles {
        match self.cfg.mode {
            Mode::Unmodified {
                emulate_modified_structure: true,
            } => self.cost.poll_loop_check,
            _ => Cycles::ZERO,
        }
    }
}

impl Workload for RouterKernel {
    type Event = Event;

    fn next_chunk(&mut self, env: &mut Env<'_, Event>, ctx: CtxKind) -> Option<Chunk> {
        match ctx {
            CtxKind::Intr(src) => match self.src_roles[src.0] {
                SrcRole::Clock => {
                    let chunk = Chunk::new(self.cost.clock_tick_handler, tag::CLOCK);
                    self.in_handler.once(src, chunk)
                }
                SrcRole::Softclock => {
                    let chunk = Chunk::new(self.cost.housekeeping_per_tick, tag::HOUSEKEEPING);
                    self.in_handler.once(src, chunk)
                }
                SrcRole::Softnet => self.softnet_next(env),
                SrcRole::Rx(_) if self.is_polled() => self.stub_next(src, tag::RX_STUB),
                SrcRole::Rx(i) => self.unmod_rx_next(env, i),
                SrcRole::Tx(_) if self.is_polled() => self.stub_next(src, tag::TX_STUB),
                SrcRole::Tx(i) => self.unmod_tx_next(env, i),
                SrcRole::Ipi => {
                    let chunk = Chunk::new(self.cost.intr_dispatch + self.cost.ipi, tag::IPI);
                    let chunk = self.in_handler.once(src, chunk);
                    if chunk.is_none() {
                        env.intr_ack(src);
                    }
                    chunk
                }
            },
            CtxKind::Thread(tid) => {
                if Some(tid) == self.poll_tid {
                    self.poll_next(env)
                } else if Some(tid) == self.screend_tid {
                    self.screend_next(env)
                } else if Some(tid) == self.app_tid {
                    self.app_next(env)
                } else if Some(tid) == self.user_tid {
                    Some(Chunk::new(self.cost.user_chunk, tag::USER))
                } else {
                    None
                }
            }
        }
    }

    fn chunk_start(&mut self, env: &mut Env<'_, Event>, ctx: CtxKind, tag_id: u64) {
        // Issue-time work for burst repetitions: exactly what the
        // corresponding `next_chunk` arm would have done before returning
        // the chunk — stamping the head packet it is about to process.
        // Observationally pure per the `Workload::chunk_start` contract:
        // no interrupt posts/acks, no wake/sleep, no event scheduling.
        match (ctx, tag_id) {
            (CtxKind::Intr(src), tag::RX_PKT) => {
                if let SrcRole::Rx(i) = self.src_roles[src.0] {
                    if let Some(p) = self.ifaces[i].nic.rx_peek_mut(0) {
                        p.stamps.ring_deq = env.now();
                    }
                }
            }
            (CtxKind::Intr(_), tag::SOFTNET_PKT) => {
                if let Some(p) = self.link.ipintrq().peek_mut() {
                    p.stamps.fwd_start = env.now();
                }
            }
            (CtxKind::Thread(_), t) => {
                if let (Some(ring), Some(action)) = (poll_rx_ring(t), self.poll.action) {
                    if let Some(p) = self.ifaces[action.source.0].nic.rx_peek_mut(ring) {
                        p.stamps.ring_deq = env.now();
                        p.stamps.fwd_start = env.now();
                    }
                }
            }
            _ => {}
        }
    }

    fn chunk_done(&mut self, env: &mut Env<'_, Event>, ctx: CtxKind, tag_id: u64) {
        match (ctx, tag_id) {
            (CtxKind::Intr(src), tag::RX_PKT) => {
                if let SrcRole::Rx(i) = self.src_roles[src.0] {
                    self.unmod_rx_done(env, i);
                }
            }
            (CtxKind::Intr(src), tag::RX_STUB) => {
                if let SrcRole::Rx(i) = self.src_roles[src.0] {
                    self.stub_done(env, i, PollDirection::Receive);
                }
            }
            (CtxKind::Intr(src), tag::TX_STUB) => {
                if let SrcRole::Tx(i) = self.src_roles[src.0] {
                    self.stub_done(env, i, PollDirection::Transmit);
                }
            }
            (CtxKind::Intr(_), tag::SOFTNET_PKT) => self.softnet_done(env),
            (CtxKind::Intr(src), tag::TX_RECLAIM) => {
                if let SrcRole::Tx(i) = self.src_roles[src.0] {
                    self.ifaces[i].nic.tx_reclaim_one();
                }
            }
            (CtxKind::Intr(src), tag::TX_START) => {
                if let SrcRole::Tx(i) = self.src_roles[src.0] {
                    self.try_tx_start(env, i);
                }
            }
            (CtxKind::Intr(_), tag::CLOCK) => self.clock_done(env),
            (CtxKind::Intr(_), tag::IPI) => self.ipi_done(env),
            (CtxKind::Thread(_), tag::POLL_TX_PKT) => self.poll_tx_done(env, true),
            (CtxKind::Thread(_), tag::POLL_TX_START) => self.poll_tx_done(env, false),
            (CtxKind::Thread(_), tag::SCREEND_PKT) => self.screend_done(env),
            (CtxKind::Thread(_), tag::APP_PKT) => self.app_done(env),
            (CtxKind::Thread(_), tag::USER) => self.stats.user_chunks += 1,
            (CtxKind::Thread(_), t) => {
                if let Some(ring) = poll_rx_ring(t) {
                    self.poll_rx_done(env, ring);
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, env: &mut Env<'_, Event>, event: Event) {
        match event {
            Event::RxArrive { iface: i, pkt } => self.rx_arrive(env, i, pkt),
            Event::TxWireDone { iface: i } => {
                let now = env.now();
                let (latency_src, post_tx) = {
                    let iface = &mut self.ifaces[i];
                    iface.nic.tx_complete();
                    let pkt = iface.inflight.take();
                    Self::kick_wire(env, iface, i);
                    (pkt, env.intr_enabled(iface.tx_src))
                };
                self.stats.record_tx(now);
                if let Some(pkt) = latency_src {
                    self.stats.record_delivery(&pkt, now, self.cost.freq);
                }
                if post_tx && !self.consume_lost_tx_intr(i) {
                    env.post_intr(self.ifaces[i].tx_src);
                }
            }
            Event::ClockPulse => {
                env.post_intr(self.clock_src);
                let mut interval = self.cost.clock_tick_interval;
                if let Some(f) = &mut self.fault {
                    // Injected clock jitter: one reschedule is skewed
                    // (never below one cycle), then the pulse returns to
                    // its nominal period.
                    if f.pending_clock_skew != 0 {
                        let skewed = (interval.raw() as i64 + f.pending_clock_skew).max(1);
                        interval = Cycles::new(skewed as u64);
                        f.pending_clock_skew = 0;
                    }
                }
                env.schedule_in(interval, Event::ClockPulse);
            }
            Event::DeferredRxIntr { iface: i } => {
                self.rx_intr_deferred[i] = false;
                // Deliver only if there is still work and interrupts are
                // allowed; the bucket is consulted again (and may defer
                // again), so the receive-interrupt rate is strictly
                // bounded.
                if env.intr_enabled(self.ifaces[i].rx_src) && self.ifaces[i].nic.rx_pending() > 0 {
                    self.post_rx_intr(env, i);
                }
            }
            Event::Fault(kind) => self.apply_fault(env, kind),
            Event::Ipi => env.post_intr(self.ipi_src),
        }
    }

    fn on_idle(&mut self, env: &mut Env<'_, Event>) {
        if !self.is_polled() {
            return;
        }
        // §7: "Execution of the system's idle thread also re-enables input
        // interrupts and clears the running total."
        if let Some(lim) = &mut self.limiter {
            if lim.on_idle() {
                self.resume_input(env, InhibitReason::CycleLimit);
            }
        }
        // No resync of the interrupt-enable state. §6.4: the polling
        // thread "invokes the driver's interrupt-enable callback"
        // (`sync_intrs`) once its pending packets are handled, before it
        // sleeps, and every later gate or poll change keeps the invariant,
        // so a resync here would find it in place. Debug builds check that
        // it is. Only injected faults lose interrupts; their repair is
        // `fault_idle`.
        let poll_asleep = self.poll.action.is_none()
            && self.poll_tid.map(|t| env.thread_state(t))
                != Some(livelock_machine::thread::ThreadState::Running);
        if poll_asleep {
            #[cfg(test)]
            idle_witness::count();
            debug_assert!(
                self.intrs_in_sync(|src| env.intr_enabled(src)),
                "interrupt-enable invariant broken at idle entry"
            );
            self.fault_idle(env);
        }
    }
}

/// Counts the idle-entry invariant checks made on this thread, so a test
/// can show the check ran.
#[cfg(test)]
pub(crate) mod idle_witness {
    use std::cell::Cell;

    thread_local! {
        static CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count() {
        CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// Runs `f`, returning its output and the idle-entry checks it made.
    pub(crate) fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = CHECKS.with(Cell::get);
        let out = f();
        (out, CHECKS.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelock_machine::cpu::Engine;
    use livelock_net::gen::PacketFactory;

    fn engine_for(cfg: KernelConfig) -> Engine<RouterKernel> {
        let ctx_switch = cfg.cost.ctx_switch;
        let (st, kernel) = RouterKernel::build(cfg);
        Engine::new(st, kernel, ctx_switch)
    }

    fn inject(engine: &mut Engine<RouterKernel>, at_us: u64, n: usize, spacing_us: u64) {
        let mut factory = PacketFactory::paper_testbed();
        let freq = engine.workload().cost.freq;
        for k in 0..n {
            let t = freq.cycles_from_micros(at_us + k as u64 * spacing_us);
            let pkt = factory.next_packet();
            // Bypass EnvState privacy through the public scheduling API.
            engine_schedule(engine, t, pkt);
        }
    }

    fn engine_schedule(engine: &mut Engine<RouterKernel>, t: Cycles, pkt: Packet) {
        // EnvState::schedule_at is public on the state; reach it via a
        // 1-cycle run? Simpler: expose through a helper on the engine.
        engine.state_schedule(t, Event::RxArrive { iface: 0, pkt });
    }

    #[test]
    fn unmodified_forwards_a_single_packet() {
        let mut e = engine_for(KernelConfig::builder().build());
        inject(&mut e, 100, 1, 0);
        e.run_until(Cycles::new(100_000_000));
        let s = e.workload().stats();
        assert_eq!(s.arrived, 1);
        assert_eq!(s.transmitted, 1, "drops: {s:?}");
        assert_eq!(s.drops.wasted_drops(), 0);
        assert_eq!(e.workload().opkts(1), 1, "went out interface 1");
        assert_eq!(e.workload().opkts(0), 0);
    }

    /// A lost wakeup, seeded into an idle engine: frames in the ring
    /// behind a masked receive interrupt, no poll pending. Nothing would
    /// ever drain that ring.
    fn seed_lost_wakeup(e: Engine<RouterKernel>) -> Engine<RouterKernel> {
        assert_eq!(e.current_ipl(), Ipl::NONE, "seeded between handlers");
        let ctx_switch = e.workload().cost.ctx_switch;
        let (mut st, mut k) = e.into_parts();
        let mut factory = PacketFactory::paper_testbed();
        for _ in 0..3 {
            assert!(k.ifaces[0].nic.rx_arrive(factory.next_packet()).is_ok());
        }
        st.intr.set_enabled(k.ifaces[0].rx_src, false);
        Engine::new(st, k, ctx_switch)
    }

    fn settled_polled_engine() -> Engine<RouterKernel> {
        let mut e = engine_for(KernelConfig::builder().polled(Quota::Limited(5)).build());
        inject(&mut e, 100, 4, 200);
        e.run_until(Cycles::new(10_000_000));
        assert_eq!(e.workload().stats().transmitted, 4);
        e
    }

    /// Whether the controller's mask in `st` holds `k`'s invariant.
    fn in_sync(st: &EnvState<Event>, k: &RouterKernel) -> bool {
        k.intrs_in_sync(|src| st.intr.is_enabled(src))
    }

    #[test]
    fn a_masked_ring_with_no_poll_pending_breaks_the_intr_invariant() {
        let e = settled_polled_engine();
        assert!(in_sync(e.state(), e.workload()));
        let e = seed_lost_wakeup(e);
        assert!(!in_sync(e.state(), e.workload()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "interrupt-enable invariant broken at idle entry")]
    fn idle_entry_catches_a_lost_wakeup() {
        let mut e = seed_lost_wakeup(settled_polled_engine());
        // The next clock tick's handler returns to an idle CPU.
        e.run_until(Cycles::new(100_000_000));
    }

    /// A polled kernel and its machine state, outside any engine.
    fn polled_kernel() -> (EnvState<Event>, RouterKernel) {
        RouterKernel::build(KernelConfig::builder().polled(Quota::Limited(5)).build())
    }

    #[test]
    fn reopening_the_gate_over_a_full_ring_latches_the_rx_intr() {
        let (mut st, mut k) = polled_kernel();
        let rx = k.ifaces[0].rx_src;
        k.inhibit_input(&mut st.env(), InhibitReason::QueueFeedback);
        assert!(!st.intr.is_enabled(rx), "a closed gate masks receive");
        // Frames land while the gate is closed: no interrupt is posted.
        let mut factory = PacketFactory::paper_testbed();
        for _ in 0..2 {
            assert!(k.ifaces[0].nic.rx_arrive(factory.next_packet()).is_ok());
        }
        assert!(!st.intr.is_pending(rx));
        k.resume_input(&mut st.env(), InhibitReason::QueueFeedback);
        assert!(st.intr.is_enabled(rx), "an open gate unmasks receive");
        assert!(st.intr.is_pending(rx), "the frames' wakeup is latched");
        assert!(in_sync(&st, &k));
    }

    #[test]
    fn finishing_a_tx_callback_with_reclaimable_descriptors_latches_the_tx_intr() {
        let (mut st, mut k) = polled_kernel();
        let tx = k.ifaces[0].tx_src;
        // The stub hands the device to the poll thread: a pending
        // transmit poll masks the interrupt.
        k.stub_done(&mut st.env(), 0, PollDirection::Transmit);
        assert!(!st.intr.is_enabled(tx));
        // A frame goes out; its descriptor awaits reclaim.
        let nic = &mut k.ifaces[0].nic;
        let pkt = PacketFactory::paper_testbed().next_packet();
        assert!(nic.tx_submit(pkt).is_ok());
        assert!(nic.tx_begin().is_some());
        nic.tx_complete();
        let action = k.poller.next_action().expect("the stub's request");
        assert_eq!(action.dir, PollDirection::Transmit);
        k.finish_callback(&mut st.env(), action, false);
        assert!(st.intr.is_enabled(tx), "no poll pending unmasks transmit");
        assert!(st.intr.is_pending(tx), "the reclaim's wakeup is latched");
        assert!(in_sync(&st, &k));
    }

    #[test]
    fn polled_forwards_a_single_packet() {
        let mut e = engine_for(KernelConfig::builder().polled(Quota::Limited(5)).build());
        inject(&mut e, 100, 1, 0);
        e.run_until(Cycles::new(100_000_000));
        let s = e.workload().stats();
        assert_eq!(s.transmitted, 1, "stats: {s:?}");
        assert!(s.latency.count() == 1);
    }

    /// Both queue-state feedback loops are the paper's controller over
    /// their own queue: screend's 32 slots inhibit at 24, the socket
    /// buffer's 64 at 48.
    #[test]
    fn default_feedback_is_papers() {
        let polled = || KernelConfig::builder().polled(Quota::Limited(10));
        let cfg = polled()
            .screend(Default::default())
            .feedback(Default::default())
            .build();
        let (_, k) = RouterKernel::build(cfg);
        assert_eq!(k.feedback.map(|f| f.high_water()), Some(24));
        let local = crate::config::LocalDeliveryConfig { feedback: true };
        let (_, k) = RouterKernel::build(polled().local_delivery(local).build());
        assert_eq!(k.socket_feedback.map(|f| f.high_water()), Some(48));
        assert!(k.feedback.is_none(), "no screend feedback asked for");
    }

    #[test]
    fn screend_path_forwards() {
        for cfg in [
            KernelConfig::builder().screend(Default::default()).build(),
            KernelConfig::builder().polled(Quota::Limited(10)).screend(Default::default()).feedback(Default::default()).build(),
        ] {
            let mut e = engine_for(cfg);
            inject(&mut e, 100, 20, 1000);
            e.run_until(Cycles::new(200_000_000));
            let s = e.workload().stats();
            assert_eq!(s.transmitted, 20, "stats: {s:?}");
            assert_eq!(s.drops.screend_denied(), 0);
        }
    }

    #[test]
    fn deny_rules_drop_packets() {
        let mut cfg = KernelConfig::builder().screend(Default::default()).build();
        cfg.screend.as_mut().unwrap().rules =
            Filter::parse("deny udp from any to any port 9\naccept ip from any to any").unwrap();
        assert!(!cfg.observe, "no per-flow books ask for the key");
        let mut e = engine_for(cfg);
        inject(&mut e, 100, 5, 1000);
        // Two frames that arrive without a key: rx_arrive keys each once,
        // so the one to port 9 is denied by rule and the one to port 10
        // is accepted — screend denies a keyless frame either way.
        let (mut factory, freq) = (PacketFactory::paper_testbed(), e.workload().cost.freq);
        for (ms, port) in [(10, 9), (11, 10)] {
            factory.dst_port = port;
            let mut pkt = factory.next_packet();
            pkt.flow = None;
            engine_schedule(&mut e, freq.cycles_from_micros(ms * 1000), pkt);
        }
        e.run_until(Cycles::new(100_000_000));
        let s = e.workload().stats();
        assert_eq!(
            s.drops.screend_denied(),
            6,
            "the testbed traffic targets port 9"
        );
        assert_eq!(s.transmitted, 1, "the keyless frame to port 10 is accepted");
    }

    #[test]
    fn burst_larger_than_ring_drops_at_interface() {
        let mut e = engine_for(KernelConfig::builder().build());
        // 100 packets back-to-back at wire speed (67.2us apart is feasible;
        // use 0 spacing to slam the ring before the CPU can drain).
        inject(&mut e, 100, 100, 0);
        e.run_until(Cycles::new(1_000_000_000));
        let s = e.workload().stats();
        assert!(s.drops.rx_ring_drops() > 0, "ring must overflow: {s:?}");
        assert_eq!(
            s.arrived,
            s.transmitted + s.drops.rx_ring_drops() + s.drops.wasted_drops() + s.in_flight(),
        );
        assert_eq!(s.in_flight(), 0, "everything drained by quiescence");
    }

    #[test]
    fn user_process_makes_progress_when_idle() {
        let mut cfg = KernelConfig::builder().build();
        cfg.user_process = true;
        let mut e = engine_for(cfg);
        e.run_until(Cycles::new(10_000_000)); // 100 ms
        let s = e.workload().stats();
        assert!(s.user_chunks > 150, "user got {} chunks", s.user_chunks);
        assert!(s.ticks >= 99, "clock ran: {}", s.ticks);
    }

    #[test]
    fn ttl_expiry_is_counted() {
        let mut e = engine_for(KernelConfig::builder().build());
        let mut factory = PacketFactory::paper_testbed();
        factory.ttl = 1;
        let pkt = factory.next_packet();
        e.state_schedule(Cycles::new(1000), Event::RxArrive { iface: 0, pkt });
        e.run_until(Cycles::new(10_000_000));
        let s = e.workload().stats();
        assert_eq!(s.drops.fwd_errors(), 1);
        assert_eq!(s.transmitted, 0);
    }

    /// Routes one generated packet for `dst` at `now`, straight through
    /// the forwarding path: where it goes and the MAC it is addressed to.
    fn forward(k: &mut RouterKernel, dst: Ipv4Addr, now: Cycles) -> Option<(usize, MacAddr)> {
        let mut factory = PacketFactory::paper_testbed();
        factory.dst_ip = dst;
        match k.route_packet(factory.next_packet(), now)? {
            Routed::Forward(i, pkt) => Some((i, pkt.ethernet().ok()?.dst)),
            Routed::Local(_) => None,
        }
    }

    /// Delivers an ARP request from `(ip, mac)` for the router's own
    /// address on `iface`, and runs until it is handled.
    fn arp_from(e: &mut Engine<RouterKernel>, iface: usize, ip: Ipv4Addr, mac: MacAddr) {
        let request = ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: Ipv4Addr::new(10, iface as u8, 0, 1),
        };
        let mut frame = vec![0u8; ETHERNET_HEADER_LEN + ARP_PACKET_LEN];
        let eth = EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: mac,
            ethertype: EtherType::Arp,
        };
        eth.encode(&mut frame).unwrap();
        request.encode(&mut frame[ETHERNET_HEADER_LEN..]).unwrap();
        let pkt = Packet::from_frame(livelock_net::packet::PacketId(1), frame);
        let at = e.now() + Cycles::new(1_000);
        e.state_schedule(at, Event::RxArrive { iface, pkt });
        let handled = e.workload().stats().arp_handled;
        e.run_until(at + Cycles::new(1_000_000));
        assert_eq!(e.workload().stats().arp_handled, handled + 1);
    }

    fn drops(e: &Engine<RouterKernel>, reason: DropReason) -> u64 {
        e.workload().stats().drops.get(reason)
    }

    #[test]
    fn an_arp_learned_host_is_forwardable_until_its_entry_expires() {
        let mut e = engine_for(KernelConfig::builder().build());
        let (x, mac) = (Ipv4Addr::new(10, 1, 0, 50), MacAddr::local(0x500));
        let now = e.now();
        assert_eq!(forward(e.workload_mut(), x, now), None, "not yet learned");
        assert_eq!(drops(&e, DropReason::NoArp), 1);
        arp_from(&mut e, 1, x, mac);
        let now = e.now();
        let (_, expires) = e.workload().arp.lookup(x, now).expect("learned");
        for t in [now, expires - Cycles::new(1)] {
            assert_eq!(forward(e.workload_mut(), x, t), Some((1, mac)));
        }
        assert_eq!(forward(e.workload_mut(), x, expires), None, "expired");
        assert_eq!(drops(&e, DropReason::NoArp), 2);
    }

    #[test]
    fn a_relearned_mac_takes_effect_on_the_next_packet() {
        let mut e = engine_for(KernelConfig::builder().build());
        let dst = Ipv4Addr::new(10, 1, 0, 99);
        let now = e.now();
        let phantom = Some((1, MacAddr::local(0x99)));
        assert_eq!(forward(e.workload_mut(), dst, now), phantom);
        // The destination announces a new MAC: it overwrites the phantom.
        arp_from(&mut e, 1, dst, MacAddr::local(0x777));
        let now = e.now();
        let relearned = Some((1, MacAddr::local(0x777)));
        for _ in 0..2 {
            assert_eq!(forward(e.workload_mut(), dst, now), relearned);
        }
        assert_eq!(drops(&e, DropReason::NoArp), 0);
    }

    #[test]
    fn a_more_specific_route_takes_effect_on_the_next_packet() {
        let mut e = engine_for(KernelConfig::builder().build());
        let dst = Ipv4Addr::new(10, 1, 0, 99);
        let now = e.now();
        let direct = Some((1, MacAddr::local(0x99)));
        assert_eq!(forward(e.workload_mut(), dst, now), direct);
        let gateway = Ipv4Addr::new(10, 0, 0, 2);
        let hop = NextHop {
            iface: 0,
            gateway: Some(gateway),
        };
        e.workload_mut().add_route(dst, 32, hop);
        let via_gateway = Some((0, MacAddr::local(0x100)));
        assert_eq!(forward(e.workload_mut(), dst, now), via_gateway);
        // And a new ARP entry for the gateway reaches the cached route.
        let moved_mac = MacAddr::local(0x101);
        e.workload_mut().add_phantom_arp(gateway, moved_mac);
        let moved = Some((0, moved_mac));
        assert_eq!(forward(e.workload_mut(), dst, now), moved);
    }

    #[test]
    fn unroutable_and_unresolvable_packets_are_counted_every_time() {
        let mut e = engine_for(KernelConfig::builder().build());
        let reachable = Ipv4Addr::new(10, 1, 0, 99);
        let no_route = Ipv4Addr::new(192, 168, 55, 1);
        let no_arp = Ipv4Addr::new(10, 1, 0, 42);
        let now = e.now();
        for round in 1..=3 {
            for dst in [no_route, no_route, no_arp, no_arp] {
                assert_eq!(forward(e.workload_mut(), dst, now), None);
            }
            assert!(forward(e.workload_mut(), reachable, now).is_some());
            assert_eq!(drops(&e, DropReason::NoRoute), 2 * round);
            assert_eq!(drops(&e, DropReason::NoArp), 2 * round);
        }
    }

    #[test]
    fn unroutable_destination_is_counted() {
        let mut e = engine_for(KernelConfig::builder().build());
        let mut factory = PacketFactory::paper_testbed();
        factory.dst_ip = Ipv4Addr::new(192, 168, 55, 1);
        let pkt = factory.next_packet();
        e.state_schedule(Cycles::new(1000), Event::RxArrive { iface: 0, pkt });
        e.run_until(Cycles::new(10_000_000));
        assert_eq!(e.workload().stats().drops.fwd_errors(), 1);
    }
}
