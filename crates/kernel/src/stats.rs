//! Per-trial kernel statistics: where every packet went.
//!
//! The paper attributes loss to specific queues ("packets are dropped at a
//! queue between processing steps that occur at different priorities") and
//! measures delivered throughput by sampling the output interface's `Opkts`
//! counter over the trial. [`KernelStats`] keeps the same books.

use livelock_net::{FlowKey, Packet, StageStamps, TrafficClass};
use livelock_sim::{Cycles, Freq, HdrHistogram, MeanVar, Nanos, RateWindow};

use crate::flows::FlowRegistry;
use crate::telemetry::Timeline;

/// Why a packet died. Every drop path in the kernel records one of these
/// through `KernelStats::record_drop`, giving the per-cause taxonomy the
/// paper's loss-attribution argument (§3, §6.2) needs. It is the only
/// store: the per-queue names ([`DropStats::ifq_drops`] and friends) are
/// sums over it (e.g. an output-queue drop-tail drop and a RED early drop
/// both read back through `ifq_drops`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// RX ring overflow: the host was too slow to drain the ring. The
    /// cheapest possible drop — no host cycles were invested.
    RxRingFull,
    /// RX ring overflow while queue-state feedback had deliberately
    /// inhibited input processing (§6.4) — the drop the feedback *wants*,
    /// at the cheapest point.
    FeedbackInhibit,
    /// `ipintrq` overflow (unmodified kernel): device-level work wasted.
    IpintrqFull,
    /// screend queue overflow: device + IP-level work wasted.
    ScreendQueueFull,
    /// Deliberately denied by the screend rule set (not a malfunction).
    ScreendDenied,
    /// Socket buffer overflow (end-system mode).
    SocketQueueFull,
    /// Output interface queue drop-tail overflow.
    OutputQueueFull,
    /// RED early drop on the output queue (§6.6).
    RedEarlyDrop,
    /// Not a router and not locally destined — the "innocent bystander"
    /// discard of §1's broadcast storms.
    Bystander,
    /// TTL expired while forwarding (Time Exceeded originated).
    TtlExpired,
    /// No route to the destination (Net Unreachable originated).
    NoRoute,
    /// Route found but no ARP entry for the next hop.
    NoArp,
    /// Unparseable or corrupt IP header.
    BadHeader,
    /// Locally destined but no application listening on the port.
    NoListener,
    /// Shed at admission by the class-aware gate (DESIGN.md §14): the
    /// shed controller decided this packet's [`TrafficClass`] is not
    /// worth host cycles while the downstream bottleneck is overloaded.
    /// Like [`DropReason::FeedbackInhibit`] this is a drop the kernel
    /// *wants*, taken at the cheapest point, and recorded only by the
    /// admission gate (`router::classify`).
    ClassShed {
        /// The class that was shed (`Bulk` first; never `Control`).
        class: TrafficClass,
    },
}

impl DropReason {
    /// Every reason, in reporting order (cheapest drop first).
    pub const ALL: [DropReason; 17] = [
        DropReason::RxRingFull,
        DropReason::FeedbackInhibit,
        DropReason::ClassShed {
            class: TrafficClass::Bulk,
        },
        DropReason::ClassShed {
            class: TrafficClass::Realtime,
        },
        DropReason::ClassShed {
            class: TrafficClass::Control,
        },
        DropReason::IpintrqFull,
        DropReason::ScreendQueueFull,
        DropReason::ScreendDenied,
        DropReason::SocketQueueFull,
        DropReason::OutputQueueFull,
        DropReason::RedEarlyDrop,
        DropReason::Bystander,
        DropReason::TtlExpired,
        DropReason::NoRoute,
        DropReason::NoArp,
        DropReason::BadHeader,
        DropReason::NoListener,
    ];

    /// Short stable name for tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::RxRingFull => "rx-ring-full",
            DropReason::FeedbackInhibit => "feedback-inhibit",
            DropReason::IpintrqFull => "ipintrq-full",
            DropReason::ScreendQueueFull => "screend-q-full",
            DropReason::ScreendDenied => "screend-denied",
            DropReason::SocketQueueFull => "socket-q-full",
            DropReason::OutputQueueFull => "outq-full",
            DropReason::RedEarlyDrop => "red-early",
            DropReason::Bystander => "bystander",
            DropReason::TtlExpired => "ttl-expired",
            DropReason::NoRoute => "no-route",
            DropReason::NoArp => "no-arp",
            DropReason::BadHeader => "bad-header",
            DropReason::NoListener => "no-listener",
            DropReason::ClassShed {
                class: TrafficClass::Control,
            } => "class-shed-control",
            DropReason::ClassShed {
                class: TrafficClass::Realtime,
            } => "class-shed-realtime",
            DropReason::ClassShed {
                class: TrafficClass::Bulk,
            } => "class-shed-bulk",
        }
    }

    /// This reason's position in [`DropReason::ALL`].
    fn index(self) -> usize {
        use TrafficClass::{Bulk, Control, Realtime};
        match self {
            DropReason::RxRingFull => 0,
            DropReason::FeedbackInhibit => 1,
            DropReason::ClassShed { class: Bulk } => 2,
            DropReason::ClassShed { class: Realtime } => 3,
            DropReason::ClassShed { class: Control } => 4,
            DropReason::IpintrqFull => 5,
            DropReason::ScreendQueueFull => 6,
            DropReason::ScreendDenied => 7,
            DropReason::SocketQueueFull => 8,
            DropReason::OutputQueueFull => 9,
            DropReason::RedEarlyDrop => 10,
            DropReason::Bystander => 11,
            DropReason::TtlExpired => 12,
            DropReason::NoRoute => 13,
            DropReason::NoArp => 14,
            DropReason::BadHeader => 15,
            DropReason::NoListener => 16,
        }
    }
}

/// Per-[`DropReason`] drop counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DropStats {
    counts: [u64; DropReason::ALL.len()],
}

impl DropStats {
    /// Creates zeroed drop statistics.
    pub fn new() -> Self {
        DropStats::default()
    }

    /// Counts one drop for `reason`.
    pub fn record(&mut self, reason: DropReason) {
        self.counts[reason.index()] += 1;
    }

    /// Returns the count for one reason.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another `DropStats` into this one (SMP aggregation).
    pub fn merge(&mut self, other: &DropStats) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Iterates `(reason, count)` over reasons with a nonzero count.
    pub fn nonzero(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&r, &c)| (r, c))
    }

    // The per-queue views, each a sum over reasons. Every reason lands in
    // exactly one of the first nine; `TrialResult` freezes six of them as
    // columns.

    /// `RxRingFull + FeedbackInhibit`: frames dropped because a receive
    /// ring was full — free drops at the interface.
    pub fn rx_ring_drops(&self) -> u64 {
        self.get(DropReason::RxRingFull) + self.get(DropReason::FeedbackInhibit)
    }

    /// Packets shed at admission by the class-aware gate.
    pub fn class_shed_drops(&self) -> u64 {
        TrafficClass::ALL
            .into_iter()
            .map(|class| self.get(DropReason::ClassShed { class }))
            .sum()
    }

    /// Packets dropped at the `ipintrq` (unmodified kernel only).
    pub fn ipintrq_drops(&self) -> u64 {
        self.get(DropReason::IpintrqFull)
    }

    /// Packets dropped at the screend queue.
    pub fn screend_q_drops(&self) -> u64 {
        self.get(DropReason::ScreendQueueFull)
    }

    /// Packets denied by the screening rules.
    pub fn screend_denied(&self) -> u64 {
        self.get(DropReason::ScreendDenied)
    }

    /// `OutputQueueFull + RedEarlyDrop`: packets dropped at an output
    /// interface queue.
    pub fn ifq_drops(&self) -> u64 {
        self.get(DropReason::OutputQueueFull) + self.get(DropReason::RedEarlyDrop)
    }

    /// Packets dropped at the local socket buffer (end-system mode).
    pub fn socket_q_drops(&self) -> u64 {
        self.get(DropReason::SocketQueueFull)
    }

    /// Packets discarded as innocent-bystander traffic (end-system mode).
    pub fn bystander_drops(&self) -> u64 {
        self.get(DropReason::Bystander)
    }

    /// Packets dropped by the forwarding code (bad checksum, TTL, no
    /// route, no ARP entry, no listener).
    pub fn fwd_errors(&self) -> u64 {
        self.get(DropReason::TtlExpired)
            + self.get(DropReason::NoRoute)
            + self.get(DropReason::NoArp)
            + self.get(DropReason::BadHeader)
            + self.get(DropReason::NoListener)
    }

    /// Packets lost after the host invested work in them: every drop but
    /// the free ones at the interface, admission sheds, screening
    /// denials and bystander discards.
    pub fn wasted_drops(&self) -> u64 {
        self.ipintrq_drops()
            + self.screend_q_drops()
            + self.ifq_drops()
            + self.socket_q_drops()
            + self.fwd_errors()
    }
}

/// A stage of the packet lifecycle, for per-stage latency attribution.
///
/// Stages partition a delivered packet's sojourn: the residencies derived
/// from its [`StageStamps`] by [`stage_residencies`] sum exactly to its
/// wire-to-wire latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the RX ring before the host started on the frame.
    Ring,
    /// Device-level processing plus `ipintrq` wait (zero on the polled
    /// process-to-completion path).
    Ipq,
    /// IP forwarding work, including any interrupt preemption it suffered.
    Fwd,
    /// Screend or socket queue: wait plus filter/application processing.
    Sq,
    /// Waiting in the output interface queue behind earlier frames.
    Outq,
    /// Serializing onto the output wire.
    Wire,
}

impl Stage {
    /// Every stage, in packet-lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::Ring,
        Stage::Ipq,
        Stage::Fwd,
        Stage::Sq,
        Stage::Outq,
        Stage::Wire,
    ];

    /// Short stable name for tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Ring => "ring",
            Stage::Ipq => "ipq",
            Stage::Fwd => "fwd",
            Stage::Sq => "sq",
            Stage::Outq => "outq",
            Stage::Wire => "wire",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Ring => 0,
            Stage::Ipq => 1,
            Stage::Fwd => 2,
            Stage::Sq => 3,
            Stage::Outq => 4,
            Stage::Wire => 5,
        }
    }
}

/// Decomposes one delivered packet's sojourn `[arrived, end)` into
/// per-stage residencies using its stamps.
///
/// The walk advances a boundary pointer through the set stamps in
/// lifecycle order and charges each gap to the stage it crossed; unset
/// stamps collapse their stage to zero. By construction the six
/// residencies always sum to exactly `end - arrived`.
pub fn stage_residencies(arrived: Cycles, stamps: &StageStamps, end: Cycles) -> [Cycles; 6] {
    let mut res = [Cycles::ZERO; 6];
    let mut prev = arrived;
    let mut charge = |stage: Stage, stamp: Cycles| {
        if StageStamps::is_set(stamp) {
            res[stage.index()] = stamp.saturating_sub(prev);
            prev = stamp;
        }
    };
    charge(Stage::Ring, stamps.ring_deq);
    charge(Stage::Ipq, stamps.fwd_start);
    charge(Stage::Fwd, stamps.fwd_done);
    charge(Stage::Sq, stamps.sq_deq);
    charge(Stage::Outq, stamps.tx_start);
    res[Stage::Wire.index()] = end.saturating_sub(prev);
    res
}

/// Latency distributions for delivered packets: the total wire-to-wire
/// sojourn plus a per-[`Stage`] residency breakdown, all as HDR-style
/// histograms (p50/p90/p99/p99.9 within ~3%), and the total's running
/// moments for [`LatencyStats::mean`] and [`LatencyStats::jitter`].
///
/// All storage preallocates in [`LatencyStats::new`]; recording a packet
/// never allocates.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyStats {
    /// Total sojourn (arrival on the input wire to delivery).
    pub total: HdrHistogram,
    /// The total sojourn's moments, fed the same samples as `total`.
    moments: MeanVar,
    stages: [HdrHistogram; 6],
}

impl LatencyStats {
    /// Creates empty, fully preallocated latency statistics.
    pub fn new() -> Self {
        LatencyStats {
            total: HdrHistogram::new(),
            moments: MeanVar::new(),
            stages: std::array::from_fn(|_| HdrHistogram::new()),
        }
    }

    /// The residency distribution for one stage.
    pub fn stage(&self, s: Stage) -> &HdrHistogram {
        &self.stages[s.index()]
    }

    /// Records one delivered packet: total sojourn `[arrived, end)` plus
    /// its per-stage decomposition (works for both forwarded packets,
    /// where `end` is wire-TX completion, and locally delivered ones,
    /// where `end` is the application consuming the datagram).
    pub fn record_delivery(
        &mut self,
        arrived: Cycles,
        stamps: &StageStamps,
        end: Cycles,
        freq: Freq,
    ) {
        let total = end.saturating_sub(arrived);
        let res = stage_residencies(arrived, stamps, end);
        debug_assert_eq!(
            res.iter().copied().sum::<Cycles>(),
            total,
            "stage residencies must telescope to the total sojourn"
        );
        // Seven conversions per delivery share one divisor; hoist the
        // exact multiplier (identical results) instead of dividing seven
        // times.
        let exact = freq.exact_nanos_per_cycle().map(|k| (k, u64::MAX / k));
        let ns = |c: Cycles| match exact {
            Some((k, lim)) if c.raw() <= lim => Nanos::new(c.raw() * k),
            _ => freq.nanos_from_cycles(c),
        };
        let total = ns(total);
        self.total.record(total);
        self.moments.record(total.raw() as f64);
        for (h, c) in self.stages.iter_mut().zip(res) {
            h.record(ns(c));
        }
    }

    /// Number of delivered packets recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// `true` when no packet has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// Mean total sojourn: Welford's running mean in `f64`, truncated to
    /// whole nanoseconds (not the exact `sum / count`).
    pub fn mean(&self) -> Nanos {
        Nanos::new(self.moments.mean() as u64)
    }

    /// Sample standard deviation of the total sojourn (jitter proxy),
    /// truncated to whole nanoseconds.
    pub fn jitter(&self) -> Nanos {
        Nanos::new(self.moments.stddev() as u64)
    }

    /// Minimum total sojourn.
    pub fn min(&self) -> Nanos {
        self.total.min()
    }

    /// Maximum total sojourn.
    pub fn max(&self) -> Nanos {
        self.total.max()
    }

    /// Upper bound for the q-quantile of the total sojourn.
    pub fn quantile(&self, q: f64) -> Nanos {
        self.total.quantile(q)
    }

    /// Folds another `LatencyStats` into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.total.merge(&other.total);
        self.moments.merge(&other.moments);
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

/// Fault-injection bookkeeping: what was injected and what the recovery
/// machinery did about it. All counters are *CPU-class-neutral* — fault
/// bookkeeping consumes no ledger cycles, so the conserved cycle ledger
/// and the packet-conservation check hold under every fault kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events injected (of any kind).
    pub injected: u64,
    /// Device interrupts suppressed (lost RX/TX edges).
    pub lost_intrs: u64,
    /// Spurious device interrupts delivered with no work pending.
    pub spurious_intrs: u64,
    /// Frames damaged by descriptor corruption or in-flight mutation.
    pub mutated_frames: u64,
    /// Garbage frames synthesized by overrun storms.
    pub storm_frames: u64,
    /// Clock ticks skewed early or late.
    pub clock_jitters: u64,
    /// Link-flap events (carrier loss windows).
    pub link_flaps: u64,
    /// Frames lost on the wire while a link was down (never reached the
    /// NIC, so they are outside packet conservation by construction).
    pub link_down_losses: u64,
    /// Screend stall events injected.
    pub screend_stalls: u64,
    /// Screend crash events injected.
    pub screend_crashes: u64,
    /// Packets flushed from the screend queue by crashes.
    pub crash_flushed: u64,
    /// Stalled/crashed screend restarts completed (backoff expiries).
    pub stall_recoveries: u64,
    /// Device interrupts reposted by the driver watchdog after a lost
    /// edge left latched work with no wakeup.
    pub intr_reposts: u64,
    /// Stuck gate reasons force-cleared by the gate watchdog.
    pub watchdog_unwedges: u64,
}

impl FaultStats {
    /// Folds another `FaultStats` into this one (SMP aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.lost_intrs += other.lost_intrs;
        self.spurious_intrs += other.spurious_intrs;
        self.mutated_frames += other.mutated_frames;
        self.storm_frames += other.storm_frames;
        self.clock_jitters += other.clock_jitters;
        self.link_flaps += other.link_flaps;
        self.link_down_losses += other.link_down_losses;
        self.screend_stalls += other.screend_stalls;
        self.screend_crashes += other.screend_crashes;
        self.crash_flushed += other.crash_flushed;
        self.stall_recoveries += other.stall_recoveries;
        self.intr_reposts += other.intr_reposts;
        self.watchdog_unwedges += other.watchdog_unwedges;
    }
}

/// One traffic class's books: where its packets went and how long the
/// delivered ones took. Sheds are not kept here: they are the
/// [`DropReason::ClassShed`] entries of [`DropStats`].
#[derive(Clone, Debug)]
pub struct ClassCounters {
    /// Wire arrivals classified into this class.
    pub arrived: u64,
    /// Packets of this class delivered (wire transmit or local
    /// consumption).
    pub delivered: u64,
    /// Wire-to-delivery sojourn distribution (whole trial).
    pub latency: HdrHistogram,
    /// The moments of the samples in `latency`.
    latency_moments: MeanVar,
    /// Sojourns recorded since the last [`ClassStats::take_window_p99`]
    /// — the detector's sliding SLO window.
    window_latency: HdrHistogram,
    /// Deliveries inside the measurement window, for per-class rates.
    pub window: Option<RateWindow>,
}

impl ClassCounters {
    fn new() -> Self {
        ClassCounters {
            arrived: 0,
            delivered: 0,
            latency: HdrHistogram::new(),
            latency_moments: MeanVar::new(),
            window_latency: HdrHistogram::new(),
            window: None,
        }
    }

    /// Mean sojourn of the samples in `latency`: Welford's running mean
    /// in `f64`, truncated to whole nanoseconds.
    pub fn latency_mean(&self) -> Nanos {
        Nanos::new(self.latency_moments.mean() as u64)
    }
}

/// Per-[`TrafficClass`] statistics, allocated once when classification
/// is enabled (`None` on [`KernelStats::class`] otherwise — the
/// classless run carries no per-class books and is byte-identical to a
/// build without them).
#[derive(Clone, Debug)]
pub struct ClassStats {
    classes: [ClassCounters; TrafficClass::COUNT],
}

impl ClassStats {
    /// Creates zeroed per-class statistics.
    pub fn new() -> Self {
        ClassStats {
            classes: std::array::from_fn(|_| ClassCounters::new()),
        }
    }

    /// The books for one class.
    pub fn get(&self, c: TrafficClass) -> &ClassCounters {
        &self.classes[c.index()]
    }

    /// Counts one classified wire arrival.
    pub fn record_arrival(&mut self, c: TrafficClass) {
        self.classes[c.index()].arrived += 1;
    }

    /// Counts one classified delivery at time `end`, with its sojourn
    /// `[arrived, end)` recorded in the detector-window distribution
    /// and — when the delivery falls inside the measurement window
    /// (always, before [`ClassStats::set_window`] installs one) — in
    /// the per-class latency distribution. Excluding warm-up matters
    /// here more than for the aggregate histograms: the shed
    /// controller needs a few clock ticks to first engage, and those
    /// start-of-trial sojourns would otherwise dominate a p99 judged
    /// against a per-class SLO.
    pub fn record_delivery(
        &mut self,
        c: TrafficClass,
        arrived: Cycles,
        end: Cycles,
        freq: Freq,
    ) {
        let cc = &mut self.classes[c.index()];
        cc.delivered += 1;
        let ns = freq.nanos_from_cycles(end.saturating_sub(arrived));
        cc.window_latency.record(ns);
        let in_window = cc.window.is_none_or(|w| {
            let (start, wend) = w.bounds();
            end >= start && end < wend
        });
        if in_window {
            cc.latency.record(ns);
            cc.latency_moments.record(ns.raw() as f64);
        }
        if let Some(w) = &mut cc.window {
            w.record(end);
        }
    }

    /// Drains the detector's sliding window for class `c`: returns the
    /// `(samples, p99)` of sojourns recorded since the previous call
    /// and resets the window in place (no allocation).
    pub fn take_window_p99(&mut self, c: TrafficClass) -> (u64, Nanos) {
        let w = &mut self.classes[c.index()].window_latency;
        let out = (w.count(), w.quantile(0.99));
        w.reset();
        out
    }

    /// Installs the measurement window `[start, end)` on every class.
    pub fn set_window(&mut self, start: Cycles, end: Cycles) {
        for cc in &mut self.classes {
            cc.window = Some(RateWindow::new(start, end));
        }
    }

    /// Delivered rate of class `c` inside the measurement window, pkts/s.
    pub fn delivered_pps(&self, c: TrafficClass, freq: Freq) -> f64 {
        self.classes[c.index()]
            .window
            .map_or(0.0, |w| w.rate_per_sec(freq))
    }

    /// Folds another `ClassStats` into this one (SMP aggregation).
    pub fn merge(&mut self, other: &ClassStats) {
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.arrived += b.arrived;
            a.delivered += b.delivered;
            a.latency.merge(&b.latency);
            a.latency_moments.merge(&b.latency_moments);
            a.window_latency.merge(&b.window_latency);
            match (&mut a.window, &b.window) {
                (Some(wa), Some(wb)) => wa.merge(wb),
                (None, Some(wb)) => a.window = Some(*wb),
                _ => {}
            }
        }
    }
}

impl Default for ClassStats {
    fn default() -> Self {
        ClassStats::new()
    }
}

/// Counters and distributions collected by the router kernel during a run.
///
/// Drops live in one place, [`KernelStats::drops`], written only by
/// `record_drop`; its per-queue views (`drops.rx_ring_drops()`,
/// `drops.ifq_drops()`, …) are sums over that taxonomy, not counters of
/// their own.
///
/// Only the kernel writes a trial's books. The hooks (`record_arrival`,
/// `record_delivery`, `record_drop`, `record_drop_for`, `class_arrival`,
/// `record_tx`, `record_app_delivery`) and the per-flow, per-class and
/// timeline books are private to this crate, so the per-flow and
/// per-class ledgers cannot drift from the aggregate counters. Code
/// outside it cannot call a hook, even through
/// [`RouterKernel::stats_mut`](crate::RouterKernel::stats_mut):
///
/// ```compile_fail,E0624
/// use livelock_kernel::{KernelConfig, RouterKernel};
/// use livelock_sim::Cycles;
///
/// let (_, mut kernel) = RouterKernel::build(KernelConfig::builder().build());
/// kernel.stats_mut().record_arrival(Cycles::ZERO, None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Frames that finished arriving on input wires (offered load actually
    /// presented to the NICs).
    pub arrived: u64,
    /// Packets consumed by the local application (end-system mode).
    pub app_delivered: u64,
    /// Reply packets originated by the local application.
    pub replies_created: u64,
    /// ICMP error packets originated by the router.
    pub icmp_errors_sent: u64,
    /// ICMP error generation suppressed by pacing.
    pub icmp_suppressed: u64,
    /// ARP frames consumed by the host (requests, gratuitous, replies).
    pub arp_handled: u64,
    /// ARP replies originated by the host.
    pub arp_replies: u64,
    /// Frames fully transmitted on output wires (the `Opkts` the paper
    /// counts).
    pub transmitted: u64,
    /// Latency distributions (total sojourn + per-stage residencies) of
    /// delivered packets.
    pub latency: LatencyStats,
    /// Every drop, by cause: the one store the per-queue views are sums
    /// over.
    pub drops: DropStats,
    /// Transmissions inside the measurement window.
    pub tx_window: Option<RateWindow>,
    /// Arrivals inside the measurement window.
    pub arrival_window: Option<RateWindow>,
    /// Local application deliveries inside the measurement window.
    pub app_window: Option<RateWindow>,
    /// Work units completed by the compute-bound user process.
    pub user_chunks: u64,
    /// Clock ticks observed.
    pub ticks: u64,
    /// The telemetry timeline, when the sampler is enabled via
    /// [`KernelConfig::telemetry`](crate::config::KernelConfig::telemetry).
    pub(crate) timeline: Option<Timeline>,
    /// The per-flow metrics registry, when the observability layer is
    /// enabled via
    /// [`KernelConfig::observe`](crate::config::KernelConfig::observe).
    /// All mutation goes through `record_arrival`, `record_delivery` and
    /// `record_drop_for` below, which skip it while this is `None`.
    pub(crate) flows: Option<FlowRegistry>,
    /// Fault-injection and recovery bookkeeping (all zero on clean runs).
    pub fault: FaultStats,
    /// Per-traffic-class books, allocated when flow classification is
    /// enabled via
    /// [`KernelConfig::classes`](crate::config::KernelConfig::classes).
    /// All mutation goes through `class_arrival` and `record_delivery`,
    /// which skip it while this is `None`; per-class sheds are
    /// [`DropReason::ClassShed`] drops.
    pub(crate) class: Option<ClassStats>,
}

impl KernelStats {
    /// Creates zeroed statistics with no measurement window and every
    /// optional book off.
    pub fn new() -> Self {
        KernelStats::default()
    }

    /// Installs the measurement window `[start, end)` for rate reporting.
    pub fn set_window(&mut self, start: Cycles, end: Cycles) {
        self.tx_window = Some(RateWindow::new(start, end));
        self.arrival_window = Some(RateWindow::new(start, end));
        self.app_window = Some(RateWindow::new(start, end));
        if let Some(cs) = &mut self.class {
            cs.set_window(start, end);
        }
    }

    /// Records a drop under its cause — the only write to the drop books.
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        self.drops.record(reason);
    }

    /// Records a drop and attributes it to `flow` in the per-flow
    /// registry (identical to [`KernelStats::record_drop`] when the
    /// observability layer is off).
    pub(crate) fn record_drop_for(&mut self, reason: DropReason, flow: Option<FlowKey>) {
        self.record_drop(reason);
        if let Some(reg) = &mut self.flows {
            reg.record_drop(flow, reason);
        }
    }

    /// Records the end of `pkt`'s sojourn at time `end` (wire transmit or
    /// local consumption) in every book that is on: the latency
    /// histograms when `latency_tracking`, the per-flow registry and the
    /// per-class books. Kernel-originated packets (ARP/ICMP/replies)
    /// never arrived on a wire and are not samples. The caller counts the
    /// delivery itself ([`KernelStats::record_tx`] /
    /// [`KernelStats::record_app_delivery`]).
    pub(crate) fn record_delivery(
        &mut self,
        pkt: &Packet,
        end: Cycles,
        freq: Freq,
        latency_tracking: bool,
    ) {
        let arrived = pkt.arrived_at;
        if arrived == Cycles::MAX {
            return;
        }
        if latency_tracking {
            self.latency
                .record_delivery(arrived, &pkt.stamps, end, freq);
        }
        if let Some(reg) = &mut self.flows {
            reg.record_delivery(pkt.flow, arrived, end, freq);
        }
        if let (Some(cs), Some(c)) = (&mut self.class, pkt.class()) {
            cs.record_delivery(c, arrived, end, freq);
        }
    }

    /// Attributes one classified wire arrival to `class` (no-op when
    /// classification is off or the packet carries no class stamp).
    pub(crate) fn class_arrival(&mut self, class: Option<TrafficClass>) {
        if let (Some(cs), Some(c)) = (&mut self.class, class) {
            cs.record_arrival(c);
        }
    }

    /// Records a completed transmission at time `t`.
    pub(crate) fn record_tx(&mut self, t: Cycles) {
        self.transmitted += 1;
        if let Some(w) = &mut self.tx_window {
            w.record(t);
        }
    }

    /// Records a frame arrival at time `t`, attributed to `flow` in the
    /// per-flow registry when the observability layer is on.
    pub(crate) fn record_arrival(&mut self, t: Cycles, flow: Option<FlowKey>) {
        self.arrived += 1;
        if let Some(w) = &mut self.arrival_window {
            w.record(t);
        }
        if let Some(reg) = &mut self.flows {
            reg.record_arrival(flow);
        }
    }

    /// Records a local application delivery at time `t`.
    pub(crate) fn record_app_delivery(&mut self, t: Cycles) {
        self.app_delivered += 1;
        if let Some(w) = &mut self.app_window {
            w.record(t);
        }
    }

    /// Local application goodput inside the window, pkts/s.
    pub fn app_delivered_pps(&self, freq: Freq) -> f64 {
        self.app_window.map_or(0.0, |w| w.rate_per_sec(freq))
    }

    /// Delivered packet rate inside the window, pkts/s.
    pub fn delivered_pps(&self, freq: Freq) -> f64 {
        self.tx_window.map_or(0.0, |w| w.rate_per_sec(freq))
    }

    /// Offered packet rate inside the window, pkts/s.
    pub fn offered_pps(&self, freq: Freq) -> f64 {
        self.arrival_window.map_or(0.0, |w| w.rate_per_sec(freq))
    }

    /// Packet-conservation check: every arrival is transmitted, dropped
    /// somewhere, denied, or still in flight. Returns the number still
    /// unaccounted for (in queues/rings) — never negative.
    ///
    /// # Panics
    ///
    /// Panics if more packets left the system than entered it.
    pub fn in_flight(&self) -> u64 {
        KernelStats::in_flight_of(std::iter::once(self))
    }

    /// [`in_flight`](Self::in_flight) over the kernels of one cluster:
    /// the check runs on the *sum* of their counters, because packets
    /// cross CPUs (a sibling receives what CPU 0 transmits off the shared
    /// `ipintrq`; a thief delivers what its victim counted arriving), so
    /// one kernel's own books legitimately show more exits than entries.
    /// Frames parked in a steal buffer entered on their home CPU and have
    /// left nowhere: they count as in flight.
    ///
    /// # Panics
    ///
    /// Panics if more packets left the cluster than entered it.
    pub(crate) fn in_flight_of<'a>(kernels: impl Iterator<Item = &'a KernelStats>) -> u64 {
        let (mut entered, mut gone) = (0u64, 0u64);
        for s in kernels {
            entered += s.arrived + s.replies_created + s.icmp_errors_sent + s.arp_replies;
            gone += s.drops.total() + s.app_delivered + s.arp_handled + s.transmitted;
        }
        entered
            .checked_sub(gone)
            // simlint: allow(panic-freedom): conservation is the delivered-throughput honesty gate; violating it must abort loudly
            .expect("packet conservation violated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelock_sim::Nanos;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn window_rates() {
        let freq = Freq::mhz(100);
        let mut s = KernelStats::new();
        s.set_window(Cycles::new(0), freq.cycles_from_secs(1));
        for i in 0..1000u64 {
            s.record_arrival(Cycles::new(i * 100_000), None);
            s.record_tx(Cycles::new(i * 100_000 + 50));
        }
        // Outside the window: counted in totals, not in rates.
        s.record_tx(freq.cycles_from_secs(2));
        assert_eq!(s.transmitted, 1001);
        assert!((s.delivered_pps(freq) - 1000.0).abs() < 1e-9);
        assert!((s.offered_pps(freq) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn no_window_means_zero_rates() {
        let s = KernelStats::new();
        assert_eq!(s.delivered_pps(Freq::mhz(100)), 0.0);
        assert_eq!(s.offered_pps(Freq::mhz(100)), 0.0);
    }

    #[test]
    fn conservation() {
        let mut s = KernelStats::new();
        for _ in 0..10 {
            s.record_arrival(Cycles::new(1), None);
        }
        for r in [
            DropReason::RxRingFull,
            DropReason::FeedbackInhibit,
            DropReason::IpintrqFull,
            DropReason::ScreendDenied,
        ] {
            s.record_drop(r);
        }
        for _ in 0..4 {
            s.record_tx(Cycles::new(2));
        }
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.drops.wasted_drops(), 1);
    }

    #[test]
    #[should_panic(expected = "conservation")]
    fn conservation_violation_detected() {
        let mut s = KernelStats::new();
        s.record_tx(Cycles::new(1));
        let _ = s.in_flight();
    }

    #[test]
    fn latency_histogram_integrates() {
        let freq = Freq::mhz(1_000); // 1 cycle == 1 ns
        let mut s = KernelStats::new();
        let mut stamps = StageStamps::UNSET;
        stamps.ring_deq = Cycles::new(100);
        stamps.fwd_start = Cycles::new(150);
        stamps.fwd_done = Cycles::new(250);
        stamps.out_enq = Cycles::new(250);
        stamps.tx_start = Cycles::new(300);
        s.latency
            .record_delivery(Cycles::new(0), &stamps, Cycles::new(400), freq);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.mean(), Nanos::new(400));
        assert_eq!(s.latency.stage(Stage::Ring).sum(), Nanos::new(100));
        assert_eq!(s.latency.stage(Stage::Ipq).sum(), Nanos::new(50));
        assert_eq!(s.latency.stage(Stage::Fwd).sum(), Nanos::new(100));
        assert_eq!(s.latency.stage(Stage::Sq).sum(), Nanos::new(0));
        assert_eq!(s.latency.stage(Stage::Outq).sum(), Nanos::new(50));
        assert_eq!(s.latency.stage(Stage::Wire).sum(), Nanos::new(100));
    }

    #[test]
    fn latency_moments_are_a_meanvar_of_the_totals_through_merges() {
        // Per CPU, and then merged in CPU order as `collect` does: mean
        // and jitter are bit-for-bit a `MeanVar` fed the same totals in
        // the same order (the class book's moments likewise).
        let freq = Freq::mhz(40);
        let mut rng = 0x1a7e_u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let (mut merged, mut want) = (LatencyStats::new(), MeanVar::new());
        let (mut classes, mut class_want) = (ClassStats::new(), MeanVar::new());
        for cpu in 0..3u64 {
            let (mut s, mut m) = (LatencyStats::new(), MeanVar::new());
            let (mut cs, mut cm) = (ClassStats::new(), MeanVar::new());
            for k in 0..500 {
                let arrived = Cycles::new(cpu * 1_000_000 + k * 997);
                let mut stamps = StageStamps::UNSET;
                stamps.ring_deq = arrived + Cycles::new(next(5_000));
                let end = stamps.ring_deq + Cycles::new(1 + next(90_000));
                s.record_delivery(arrived, &stamps, end, freq);
                let ns = freq.nanos_from_cycles(end - arrived);
                m.record(ns.raw() as f64);
                cs.record_delivery(TrafficClass::Realtime, arrived, end, freq);
                cm.record(ns.raw() as f64);
            }
            assert_eq!(s.moments, m, "cpu {cpu}");
            assert_eq!(s.mean(), Nanos::new(m.mean() as u64));
            assert_eq!(s.jitter(), Nanos::new(m.stddev() as u64));
            merged.merge(&s);
            want.merge(&m);
            classes.merge(&cs);
            class_want.merge(&cm);
        }
        assert_eq!(merged.moments, want);
        assert_eq!(merged.mean(), Nanos::new(want.mean() as u64));
        assert_eq!(merged.jitter(), Nanos::new(want.stddev() as u64));
        let rt = classes.get(TrafficClass::Realtime);
        assert_eq!(rt.latency_moments, class_want);
        assert_eq!(rt.latency_mean(), Nanos::new(class_want.mean() as u64));
    }

    #[test]
    fn residencies_telescope_with_unset_stamps() {
        // Only some boundaries set: unset stages charge zero, the walk
        // still accounts for every cycle of the sojourn.
        let mut stamps = StageStamps::UNSET;
        stamps.ring_deq = Cycles::new(30);
        stamps.sq_enq = Cycles::new(40);
        stamps.sq_deq = Cycles::new(90);
        let res = stage_residencies(Cycles::new(10), &stamps, Cycles::new(90));
        let total: Cycles = res.iter().copied().sum();
        assert_eq!(total, Cycles::new(80));
        assert_eq!(res[0], Cycles::new(20), "ring");
        assert_eq!(res[3], Cycles::new(60), "sq (from ring_deq: fwd unset)");
        assert_eq!(res[5], Cycles::ZERO, "wire: local delivery ends at sq_deq");
    }

    #[cfg(feature = "proptest")]
    proptest! {
        /// The telescoping invariant the whole latency layer rests on:
        /// for ANY subset of boundary stamps (any delivery path — forward,
        /// screend, local socket) at any monotone times, the six per-stage
        /// residencies sum exactly to the packet's total sojourn.
        #[test]
        fn stage_residencies_always_telescope(
            arrived in 0u64..1_000_000_000,
            deltas in proptest::collection::vec(0u64..10_000_000, 8..9),
            mask in 0u32..128,
        ) {
            let mut stamps = StageStamps::UNSET;
            let mut t = arrived;
            let mut place = |slot: &mut Cycles, bit: u32, d: u64| {
                t += d;
                if mask & (1 << bit) != 0 {
                    *slot = Cycles::new(t);
                }
            };
            place(&mut stamps.ring_deq, 0, deltas[0]);
            place(&mut stamps.fwd_start, 1, deltas[1]);
            place(&mut stamps.fwd_done, 2, deltas[2]);
            place(&mut stamps.sq_enq, 3, deltas[3]);
            place(&mut stamps.sq_deq, 4, deltas[4]);
            place(&mut stamps.out_enq, 5, deltas[5]);
            place(&mut stamps.tx_start, 6, deltas[6]);
            let end = Cycles::new(t + deltas[7]);
            let res = stage_residencies(Cycles::new(arrived), &stamps, end);
            let total: Cycles = res.iter().copied().sum();
            prop_assert_eq!(total, Cycles::new(t + deltas[7] - arrived));
        }
    }

    #[test]
    fn drop_reason_index_is_its_position_in_all() {
        // `DropStats` stores counts by `index()` and reports them by
        // zipping with `ALL`; the two orders must be the same order.
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "{}", r.label());
        }
    }

    #[test]
    fn legacy_views_partition_the_taxonomy() {
        // The nine per-queue views (RED early drops count in `ifq_drops`).
        let views: [fn(&DropStats) -> u64; 9] = [
            DropStats::rx_ring_drops,
            DropStats::class_shed_drops,
            DropStats::ipintrq_drops,
            DropStats::screend_q_drops,
            DropStats::screend_denied,
            DropStats::ifq_drops,
            DropStats::socket_q_drops,
            DropStats::bystander_drops,
            DropStats::fwd_errors,
        ];
        // Every reason lands in exactly one view.
        for r in DropReason::ALL {
            let mut d = DropStats::new();
            d.record(r);
            let hits: Vec<u64> = views.iter().map(|v| v(&d)).collect();
            assert_eq!(hits.iter().sum::<u64>(), 1, "{}: {hits:?}", r.label());
        }
        // ...so over any mix the views sum to the taxonomy's total.
        let mut d = DropStats::new();
        for r in DropReason::ALL {
            d.record(r);
        }
        d.record(DropReason::RedEarlyDrop);
        assert_eq!(d.total(), DropReason::ALL.len() as u64 + 1);
        assert_eq!(views.iter().map(|v| v(&d)).sum::<u64>(), d.total());
        assert_eq!(d.rx_ring_drops(), 2, "ring-full + feedback-inhibit");
        assert_eq!(d.ifq_drops(), 3, "outq-full + 2x red");
        assert_eq!(d.get(DropReason::RedEarlyDrop), 2);
        assert_eq!(d.fwd_errors(), 5);
        assert_eq!(d.class_shed_drops(), 3, "one shed per traffic class");
        assert_eq!(d.nonzero().count(), DropReason::ALL.len());
        // Per-class shed is read back from the taxonomy, not a second book.
        for class in TrafficClass::ALL {
            assert_eq!(d.get(DropReason::ClassShed { class }), 1);
        }
        // Shedding is a deliberate, free drop: not wasted work.
        assert_eq!(d.wasted_drops(), 11);
    }
}
