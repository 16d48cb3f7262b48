//! The figure table of the receive-livelock reproduction.
//!
//! Every committed figure is one [`Figure`] row of [`figure_table`]: its
//! kernels, each declared once, then its curves (label, which kernel,
//! y-axis), its x values, how an x becomes a trial ([`Sweep`]), the flow
//! set its trials carry, which curves pair an unmodified with a polled
//! kernel, and the [`claims`] rows the rendered figure must satisfy.
//! Everything else is derived from the rows: [`render_figure`] is the one
//! renderer (one trial per kernel and x, however many curves plot it),
//! the `figures` binary is one loop over the table, and `scripts/ci.sh`
//! compares whole result directories. Adding a figure is one row, its
//! claims, and its committed CSV.
//!
//! This crate describes; `benchmark/` measures. Nothing here reads a
//! wall clock.

pub mod claims;
pub mod exit;

use livelock_core::analysis::{classify, mlfrr, overload_stability};
use livelock_core::poller::Quota;
use livelock_kernel::config::{ClassifyConfig, KernelConfig, KernelConfigBuilder};
use livelock_kernel::experiment::{run_trial, SweepResult, TrialResult, TrialSpec};
use livelock_kernel::par::{par_map, Parallelism};
use livelock_kernel::telemetry::ObserveConfig;
use livelock_machine::fault::FaultPlan;
use livelock_machine::{CpuClass, SchedulerKind};
use livelock_net::classify::{MatchRule, TrafficClass};
use livelock_sim::{Freq, Nanos};

/// What a curve's value column (y-axis) plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Delivered packet rate in pkts/s (the throughput figures).
    DeliveredPps,
    /// User-mode CPU share in percent (Figure 7-1).
    UserCpuPercent,
    /// 99th-percentile forwarding latency in microseconds (the latency
    /// figure the paper's §4.3 discussion implies).
    LatencyP99Micros,
    /// Receive-interrupt CPU share in percent, from the conserved cycle
    /// ledger (figure C-1).
    RxIntrCpuPercent,
    /// Combined user-process + idle CPU share in percent — the CPU the
    /// system has left for actual work (figure C-1).
    UserIdleCpuPercent,
    /// One CPU's busy share (100 minus its idle share) in percent, from
    /// that CPU's conserved cycle ledger (figure S-1's per-CPU curves).
    /// The payload is the [`CpuId`](livelock_machine::CpuId) index; a
    /// trial with fewer CPUs plots 0.
    PerCpuBusyPercent(u8),
    /// Simulated milliseconds from trial start to the online detector's
    /// first `LivelockOnset` event; 0 when the trial never livelocked
    /// (figure O-1). Requires the observability layer
    /// ([`KernelConfig::observe`](livelock_kernel::config::KernelConfig::observe)).
    LivelockOnsetMillis,
    /// Number of distinct flows the online detector flagged as starved
    /// (`FlowStarved` fires once per flow), as a count (figure O-1).
    StarvedFlows,
    /// One traffic class's delivered rate in pkts/s, from the trial's
    /// per-class books (figure P-1). Plots 0 when classification was off.
    ClassDeliveredPps(TrafficClass),
    /// One traffic class's 99th-percentile wire-to-delivery sojourn in
    /// microseconds (figure P-1). Plots 0 when classification was off.
    ClassLatencyP99Micros(TrafficClass),
}

/// One curve of a figure: what it is called, which of the row's kernels
/// it plots, and the quantity it plots. Curves that share a kernel are
/// projections of the same trials on different axes (C-1 plots two ledger
/// classes per kernel on one grid).
#[derive(Clone)]
pub struct Curve {
    /// Column header.
    pub label: String,
    /// The kernel under test: an index into [`Figure::kernels`].
    pub kernel: usize,
    /// What the value column plots.
    pub axis: Axis,
}

fn curve(label: impl Into<String>, kernel: usize, axis: Axis) -> Curve {
    Curve {
        label: label.into(),
        kernel,
        axis,
    }
}

/// How a row turns one x value into a trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sweep {
    /// x is the offered rate in pkts/s.
    Rate,
    /// x is the intensity of the seeded fault storm injected into a trial
    /// at this fixed offered rate (0 = no plan at all).
    Storm {
        /// The offered rate of every trial of the row.
        rate_pps: f64,
    },
}

impl Sweep {
    /// Header of the x column in tables and CSVs.
    pub fn x_label(self) -> &'static str {
        match self {
            Sweep::Rate => "input_pps",
            Sweep::Storm { .. } => "fault_intensity",
        }
    }
}

/// One row of the figure table.
#[derive(Clone)]
pub struct Figure {
    /// Figure number, e.g. "6-1"; `results/fig6_1.csv` is its CSV.
    pub id: &'static str,
    /// The caption (the paper's, for the paper's figures).
    pub caption: &'static str,
    /// The kernels under test, each declared once: every one runs one
    /// trial per x value.
    pub kernels: Vec<KernelConfig>,
    /// The curves, in column order, each plotting one of `kernels`.
    pub curves: Vec<Curve>,
    /// The x values every kernel is sampled at.
    pub xs: Vec<f64>,
    /// What an x value means.
    pub sweep: Sweep,
    /// UDP source ports every trial cycles its packets through
    /// ([`TrialSpec::flows`]); `None` is the topology's default set.
    pub flows: Option<Vec<u16>>,
    /// The (unmodified, polled) curve pairs the claims compare, each as
    /// indices into `curves`.
    pub pairs: Vec<(usize, usize)>,
    /// The ids of the [`claims::CLAIMS`] rows the rendered figure must
    /// satisfy.
    pub claims: &'static [&'static str],
}

/// The rates every throughput figure sweeps (as in the paper: 0 to 12,000
/// packets/second, denser around the MLFRR).
fn throughput_rates() -> Vec<f64> {
    vec![
        500.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0, 4_500.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0,
        10_000.0, 12_000.0,
    ]
}

/// A paper throughput figure: one delivered-rate curve per kernel over
/// [`throughput_rates`], gated on the curve shapes the paper drew.
fn throughput_figure(
    id: &'static str,
    caption: &'static str,
    curves: Vec<(&str, KernelConfig)>,
) -> Figure {
    let (labels, kernels): (Vec<_>, Vec<_>) = curves.into_iter().unzip();
    Figure {
        id,
        caption,
        kernels,
        curves: labels
            .into_iter()
            .enumerate()
            .map(|(k, label)| curve(label, k, Axis::DeliveredPps))
            .collect(),
        xs: throughput_rates(),
        sweep: Sweep::Rate,
        flows: None,
        pairs: Vec::new(),
        claims: &["6-x shape-verdicts"],
    }
}

/// The unmodified kernel routing through screend: the livelocking
/// baseline of figures 6-1, 6-4, C-1, R-1, O-1 and P-1.
fn unmodified_screend() -> KernelConfigBuilder {
    KernelConfig::builder().screend(Default::default())
}

/// Polling through screend with queue-state feedback — the paper's full
/// mechanism: the other side of 6-4, 6-6, R-1 and O-1.
fn polled_feedback(quota: Quota) -> KernelConfigBuilder {
    KernelConfig::builder()
        .polled(quota)
        .screend(Default::default())
        .feedback(Default::default())
}

/// Figure 6-1: forwarding performance of the unmodified kernel, and the
/// two rates the cost model is calibrated to.
fn fig6_1() -> Figure {
    let fig = throughput_figure(
        "6-1",
        "Forwarding performance of unmodified kernel",
        vec![
            ("Without screend", KernelConfig::builder().build()),
            ("With screend", unmodified_screend().build()),
        ],
    );
    Figure {
        claims: &["6-x shape-verdicts", "6-1 mlfrr-near-paper", "6-1 screend-peak-near-paper"],
        ..fig
    }
}

/// Figure 6-3: forwarding performance of the modified kernel, no screend.
fn fig6_3() -> Figure {
    let polled = |q| KernelConfig::builder().polled(q).build();
    throughput_figure(
        "6-3",
        "Forwarding performance of modified kernel, without using screend",
        vec![
            ("Unmodified", KernelConfig::builder().build()),
            ("No polling", KernelConfig::builder().no_polling().build()),
            ("Polling (quota = 5)", polled(Quota::Limited(5))),
            ("Polling (no quota)", polled(Quota::Unlimited)),
        ],
    )
}

/// Figure 6-4: forwarding performance of the modified kernel with screend.
fn fig6_4() -> Figure {
    let no_feedback = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .build();
    throughput_figure(
        "6-4",
        "Forwarding performance of modified kernel, with screend",
        vec![
            ("Unmodified", unmodified_screend().build()),
            ("Polling, no feedback", no_feedback),
            ("Polling w/feedback", polled_feedback(Quota::Limited(10)).build()),
        ],
    )
}

/// One curve per quota value Figures 6-5 and 6-6 compare, on the kernel
/// `config` builds for that quota.
fn quota_curves(config: impl Fn(Quota) -> KernelConfig) -> Vec<(&'static str, KernelConfig)> {
    [
        ("quota = 5 packets", Quota::Limited(5)),
        ("quota = 10 packets", Quota::Limited(10)),
        ("quota = 20 packets", Quota::Limited(20)),
        ("quota = 100 packets", Quota::Limited(100)),
        ("quota = infinity", Quota::Unlimited),
    ]
    .into_iter()
    .map(|(label, quota)| (label, config(quota)))
    .collect()
}

/// Figure 6-5: effect of the packet-count quota, no screend.
fn fig6_5() -> Figure {
    throughput_figure(
        "6-5",
        "Effect of packet-count quota on performance, no screend",
        quota_curves(|q| KernelConfig::builder().polled(q).build()),
    )
}

/// Figure 6-6: effect of the packet-count quota, with screend (feedback on).
fn fig6_6() -> Figure {
    throughput_figure(
        "6-6",
        "Effect of packet-count quota on performance, with screend",
        quota_curves(|q| polled_feedback(q).build()),
    )
}

/// Figure 7-1: available user-mode CPU time under the cycle-limit
/// mechanism, one curve per threshold. (The y-axis is user CPU %, not
/// packet rate, so it has no claim rows: `tests/user_progress.rs`
/// asserts the claim.)
fn fig7_1() -> Figure {
    let thresholds = [0.25, 0.50, 0.75, 1.00];
    Figure {
        id: "7-1",
        caption: "User-mode CPU time available using cycle-limit mechanism",
        kernels: thresholds
            .into_iter()
            .map(|t| {
                KernelConfig::builder()
                    .polled(Quota::Limited(5))
                    .cycle_limit(t)
                    .user_process(true)
                    .build()
            })
            .collect(),
        curves: thresholds
            .into_iter()
            .enumerate()
            .map(|(k, t)| {
                curve(
                    format!("threshold {:.0} %", t * 100.0),
                    k,
                    Axis::UserCpuPercent,
                )
            })
            .collect(),
        xs: vec![
            500.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0, 10_000.0,
        ],
        sweep: Sweep::Rate,
        flows: None,
        pairs: Vec::new(),
        claims: &[],
    }
}

/// Figure L-1: 99th-percentile forwarding latency versus input rate,
/// unmodified vs polled. The paper's §3/§4.3 argue the modified kernel
/// keeps latency (and jitter) low because polling processes each packet
/// to completion instead of letting it age in `ipintrq`; this figure
/// plots the distribution tail that argument implies.
fn fig_latency() -> Figure {
    let polled = KernelConfig::builder().polled(Quota::Limited(5)).build();
    Figure {
        id: "L-1",
        caption: "99th-percentile forwarding latency vs input rate",
        kernels: vec![KernelConfig::builder().build(), polled],
        curves: vec![
            curve("Unmodified", 0, Axis::LatencyP99Micros),
            curve("Polling (quota = 5)", 1, Axis::LatencyP99Micros),
        ],
        xs: throughput_rates(),
        sweep: Sweep::Rate,
        flows: None,
        pairs: vec![(0, 1)],
        claims: &["L-1 polled-p99-under-half"],
    }
}

/// Figure C-1: where the CPU goes, from the conserved cycle ledger. Not
/// in the paper as a figure, but its central §3/§6.2 claim: at overload
/// the unmodified kernel spends essentially *all* CPU in receive-interrupt
/// context (delivered throughput collapses to zero), while the modified
/// kernel with a cycle limit preserves user+idle CPU. Each kernel plots
/// two curves — its rx-interrupt share and its user+idle share — so the
/// crossover is visible on one grid. The rate axis extends past the
/// throughput figures' 12,000 to near wire saturation (the 10 Mbit/s
/// Ethernet ceiling is ~14,880 pkts/s): interrupt batching amortizes
/// dispatch overhead, so the rx share keeps climbing with offered load
/// and passes 90% only above ~13,000 pkts/s.
fn fig_c1() -> Figure {
    let unmodified = unmodified_screend().build();
    let polled = KernelConfig::builder()
        .polled(Quota::Limited(5))
        .cycle_limit(0.50)
        .user_process(true)
        .build();
    let mut xs = throughput_rates();
    xs.extend([13_000.0, 14_000.0]);
    Figure {
        id: "C-1",
        caption: "CPU-class share vs offered load (conserved cycle ledger)",
        kernels: vec![unmodified, polled],
        curves: vec![
            curve("Unmodified rx-intr", 0, Axis::RxIntrCpuPercent),
            curve("Unmodified user+idle", 0, Axis::UserIdleCpuPercent),
            curve("Polled rx-intr", 1, Axis::RxIntrCpuPercent),
            curve("Polled user+idle", 1, Axis::UserIdleCpuPercent),
        ],
        xs,
        sweep: Sweep::Rate,
        flows: None,
        pairs: vec![(0, 2)],
        claims: &[
            "C-1 ledger-conserved",
            "C-1 unmod-rx-intr-over-90pct",
            "C-1 unmod-delivery-collapses",
            "C-1 unmod-user-idle-under-5pct",
            "C-1 polled-user-idle-over-35pct",
            "C-1 polled-rx-intr-under-5pct",
        ],
    }
}

/// Figure S-1: SMP scaling of aggregate delivered throughput, plus where
/// each CPU's cycles go at 4 CPUs. Not in the paper — its §8 future-work
/// discussion is the closest — but the natural SMP question about both
/// designs: the unmodified path funnels every CPU into the single shared
/// `ipintrq` drained by CPU 0 under per-sibling lock contention, so its
/// MLFRR stays pinned near 1×; the polled path is per-CPU end to end
/// (RSS-steered RX queues, per-CPU polling threads and quotas), so its
/// MLFRR scales toward N×. The per-CPU busy curves make the mechanism
/// visible: at overload the unmodified cluster's CPU 0 saturates while
/// its siblings idle between ring drains, where the polled cluster's
/// CPUs stay evenly busy. The rates run past a single wire's ~14,880
/// pkts/s ceiling, because a multiqueue NIC is fed by one wire per RX
/// queue and the point is aggregate load beyond what one CPU (or one
/// wire) can carry.
fn fig_s1() -> Figure {
    let unmod = |n: usize| KernelConfig::builder().ncpus(n).build();
    let polled = |n: usize| {
        KernelConfig::builder()
            .polled(Quota::Limited(10))
            .ncpus(n)
            .build()
    };
    // Kernel indices: unmodified at 1, 2, 4 CPUs, then polled likewise.
    let (unmod4, polled4) = (2, 5);
    Figure {
        id: "S-1",
        caption: "SMP scaling: shared-queue vs per-CPU polling, with per-CPU busy shares",
        kernels: vec![unmod(1), unmod(2), unmod(4), polled(1), polled(2), polled(4)],
        curves: vec![
            curve("Unmodified 1 CPU", 0, Axis::DeliveredPps),
            curve("Unmodified 2 CPUs", 1, Axis::DeliveredPps),
            curve("Unmodified 4 CPUs", unmod4, Axis::DeliveredPps),
            curve("Polling 1 CPU", 3, Axis::DeliveredPps),
            curve("Polling 2 CPUs", 4, Axis::DeliveredPps),
            curve("Polling 4 CPUs", polled4, Axis::DeliveredPps),
            curve("Unmodified 4-CPU cpu0 busy", unmod4, Axis::PerCpuBusyPercent(0)),
            curve("Unmodified 4-CPU cpu1 busy", unmod4, Axis::PerCpuBusyPercent(1)),
            curve("Polling 4-CPU cpu0 busy", polled4, Axis::PerCpuBusyPercent(0)),
            curve("Polling 4-CPU cpu1 busy", polled4, Axis::PerCpuBusyPercent(1)),
        ],
        xs: vec![
            2_000.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 16_000.0, 20_000.0,
            28_000.0,
        ],
        sweep: Sweep::Rate,
        flows: None,
        pairs: vec![(0, 3), (1, 4), (2, 5)],
        claims: &["S-1 ledger-conserved", "S-1 mlfrr-scaling"],
    }
}

/// R-1's fixed offered load: past the screend path's MLFRR (≈ 2000
/// pkts/s), where the unmodified kernel is already sliding down its
/// overload curve while the polled kernel holds its plateau — fault
/// damage separates the two instead of vanishing into headroom.
const R1_RATE_PPS: f64 = 3_000.0;

/// The seed every figure storm derives from: a [`Sweep::Storm`] row is a
/// deterministic function of (seed, intensity, rate, trial length) only.
const STORM_SEED: u64 = 0xFA17;

/// The seeded storm injected into a trial of `n_packets` at `rate_pps`:
/// its window covers the middle 80% of the trial, clear of warm-up and
/// tail, in whole truncated milliseconds (the committed R-1 CSV depends
/// on that rounding). `None` when the trial is too short (under 2 ms of
/// offered load) to hold a window at all.
pub fn storm_plan(
    seed: u64,
    intensity: f64,
    freq: Freq,
    rate_pps: f64,
    n_packets: usize,
) -> Option<FaultPlan> {
    let total_ms = (n_packets as f64 / rate_pps * 1_000.0) as u64;
    let (start_ms, end_ms) = (total_ms / 10, total_ms * 9 / 10);
    (start_ms < end_ms).then(|| {
        FaultPlan::storm(
            seed,
            intensity,
            freq.cycles_from_millis(start_ms),
            freq.cycles_from_millis(end_ms),
        )
    })
}

/// Figure R-1: graceful degradation under a seeded fault storm.
/// Delivered throughput and p99 latency versus fault intensity (0 = the
/// fault-free baseline; the storm's event count scales linearly with
/// intensity) at a fixed offered load, unmodified vs
/// polled-with-feedback, both routing through screend.
fn fig_r1() -> Figure {
    let unmod = unmodified_screend().build();
    let polled = polled_feedback(Quota::Limited(10)).build();
    Figure {
        id: "R-1",
        caption: "Graceful degradation under seeded fault storm (3000 pkts/s offered)",
        kernels: vec![unmod, polled],
        curves: vec![
            curve("Unmodified delivered", 0, Axis::DeliveredPps),
            curve("Polling w/feedback delivered", 1, Axis::DeliveredPps),
            curve("Unmodified p99", 0, Axis::LatencyP99Micros),
            curve("Polling w/feedback p99", 1, Axis::LatencyP99Micros),
        ],
        xs: vec![0.0, 0.5, 1.0, 2.0, 4.0],
        sweep: Sweep::Storm {
            rate_pps: R1_RATE_PPS,
        },
        flows: None,
        pairs: vec![(0, 1)],
        claims: &[
            "R-1 polled-keeps-delivering",
            "R-1 polled-fault-free-plateau",
            "R-1 polled-degrades-gracefully",
            "R-1 polled-beats-unmod",
        ],
    }
}

/// The fixed eight-flow port set every O-1 trial cycles its packets
/// through: enough distinct flows that the starved-flow count carries
/// signal, few enough that each flow still sees a loaded detector
/// window at every swept rate.
pub fn o1_flows() -> Vec<u16> {
    (0..8).map(|i| 6_000 + i * 17).collect()
}

/// Figure O-1: online livelock detection. Time-to-livelock-onset (in
/// simulated milliseconds; 0 = never) and starved-flow count versus
/// offered load, unmodified vs polled-with-feedback, both routing
/// through screend with the observability layer enabled. The rates run
/// from well under the screend path's MLFRR (≈ 2000 pkts/s) to deep
/// overload, so the onset curve shows livelock arriving earlier as load
/// climbs past the knee.
fn fig_o1() -> Figure {
    let observed = |b: KernelConfigBuilder| b.observe(ObserveConfig).build();
    let unmod = observed(unmodified_screend());
    let polled = observed(polled_feedback(Quota::Limited(10)));
    Figure {
        id: "O-1",
        caption: "Online livelock detection: onset time and starved flows vs offered load",
        kernels: vec![unmod, polled],
        curves: vec![
            curve("Unmodified onset", 0, Axis::LivelockOnsetMillis),
            curve("Polling w/feedback onset", 1, Axis::LivelockOnsetMillis),
            curve("Unmodified starved flows", 0, Axis::StarvedFlows),
            curve("Polling w/feedback starved flows", 1, Axis::StarvedFlows),
        ],
        xs: vec![1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0],
        sweep: Sweep::Rate,
        flows: Some(o1_flows()),
        pairs: vec![(0, 1)],
        claims: &[
            "O-1 onset-monotone",
            "O-1 unmod-onset",
            "O-1 no-polled-onset",
            "O-1 starvation-bounded",
            "O-1 starvation-contrast",
        ],
    }
}

/// The fixed eight-flow port set every P-1 trial cycles its packets
/// through: one `Control` flow, one `Realtime` flow and six `Bulk`
/// flows, so offered load splits 1/8 : 1/8 : 6/8 across the classes.
pub fn p1_flows() -> Vec<u16> {
    vec![7_000, 7_100, 7_200, 7_201, 7_202, 7_203, 7_204, 7_205]
}

/// The classification policy figure P-1 (and `chaos --priority`) runs:
/// source port 7000 is `Control`, 7100 is `Realtime`, everything else
/// falls to the default `Bulk` class.
pub fn p1_classify_config() -> ClassifyConfig {
    ClassifyConfig {
        rules: vec![
            MatchRule::src_port(7_000, TrafficClass::Control),
            MatchRule::src_port(7_100, TrafficClass::Realtime),
        ],
        slo_p99: Nanos::from_millis(5),
        ..ClassifyConfig::default()
    }
}

/// Figure P-1: priority-aware overload. Per-class delivered throughput
/// and `Control` p99 latency versus offered load for the polled kernel
/// with classification (strict-priority drain + SLO-guarded shedding),
/// against the single-class unmodified kernel — both routing through
/// screend, both fed the same eight-flow mix ([`p1_flows`]).
fn fig_p1() -> Figure {
    use TrafficClass::{Bulk, Control, Realtime};
    let classified = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .classes(p1_classify_config())
        .build();
    let unmod = unmodified_screend().build();
    let delivered = Axis::ClassDeliveredPps;
    Figure {
        id: "P-1",
        caption: "Priority-aware overload: per-class delivery and Control p99 vs offered load",
        kernels: vec![classified, unmod],
        curves: vec![
            curve("Classified control delivered", 0, delivered(Control)),
            curve("Classified realtime delivered", 0, delivered(Realtime)),
            curve("Classified bulk delivered", 0, delivered(Bulk)),
            curve("Unmodified delivered", 1, Axis::DeliveredPps),
            curve("Classified control p99", 0, Axis::ClassLatencyP99Micros(Control)),
            curve("Unmodified p99", 1, Axis::LatencyP99Micros),
        ],
        xs: throughput_rates(),
        sweep: Sweep::Rate,
        flows: Some(p1_flows()),
        pairs: vec![(3, 0)],
        claims: &[
            "P-1 control-slo",
            "P-1 class-books",
            "P-1 control-never-shed",
            "P-1 unmod-collapses",
            "P-1 control-share",
            "P-1 p99-contrast",
            "P-1 bulk-sheds",
            "P-1 shed-order",
        ],
    }
}

/// The figure table: the paper's six figures in paper order, then the
/// extension figures — latency (L-1), the cycle-ledger CPU decomposition
/// (C-1), SMP scaling (S-1), fault storms (R-1), online detection (O-1)
/// and priority classes (P-1). The order is the order `figures` prints.
pub fn figure_table() -> Vec<Figure> {
    vec![
        fig6_1(),
        fig6_3(),
        fig6_4(),
        fig6_5(),
        fig6_6(),
        fig7_1(),
        fig_latency(),
        fig_c1(),
        fig_s1(),
        fig_r1(),
        fig_o1(),
        fig_p1(),
    ]
}

/// The first nine rows of [`figure_table`] — everything before R-1.
/// Kept for the frozen `benchmark/`, which links this name and appends
/// R-1, O-1 and P-1 itself through the `render_fig_*` entry points below;
/// everything else iterates [`figure_table`].
pub fn all_figures() -> Vec<Figure> {
    let mut table = figure_table();
    table.truncate(9);
    table
}

/// Packets per trial at full fidelity (the paper used 10,000); `figures
/// --quick` runs 2,000.
pub const PAPER_TRIAL_PACKETS: usize = 10_000;

/// A rendered figure: one row per x value, one column per curve.
pub struct RenderedFigure {
    /// Which figure.
    pub id: &'static str,
    /// Caption.
    pub caption: &'static str,
    /// The swept x values ([`Figure::xs`]).
    pub xs: Vec<f64>,
    /// Per-curve results.
    pub curves: Vec<SweepResult>,
    /// What each curve's value column plots, parallel to `curves`.
    pub axes: Vec<Axis>,
    /// What an x value means; names the x column ([`Sweep::x_label`]).
    pub sweep: Sweep,
    /// The (unmodified, polled) curve pairs ([`Figure::pairs`]).
    pub pairs: Vec<(usize, usize)>,
}

/// Formats an x-axis value: integral rates print bare (as every
/// committed rate-sweep CSV always has), fractional fault intensities
/// keep two decimals.
pub(crate) fn fmt_x(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

impl RenderedFigure {
    /// Value for (curve, point), in the units of that curve's axis.
    pub fn value(&self, curve: usize, point: usize) -> f64 {
        let t = &self.curves[curve].trials[point];
        match self.axes[curve] {
            Axis::DeliveredPps => t.delivered_pps,
            Axis::UserCpuPercent => t.aggregate().user_cpu_frac * 100.0,
            Axis::LatencyP99Micros => t.latency_p99.as_micros_f64(),
            Axis::RxIntrCpuPercent => claims::share(t, claims::RX),
            Axis::UserIdleCpuPercent => claims::share(t, claims::USER_IDLE),
            Axis::PerCpuBusyPercent(k) => t
                .per_cpu()
                .get(k as usize)
                .map_or(0.0, |c| (1.0 - c.cpu_share[CpuClass::Idle.index()]) * 100.0),
            Axis::LivelockOnsetMillis => claims::onset(t).map_or(0.0, |at| {
                // Every committed figure runs the default calibrated cost
                // model, so its frequency converts the onset cycle-stamp
                // to simulated time.
                let freq = KernelConfig::builder().build().cost.freq;
                freq.nanos_from_cycles(at).as_micros_f64() / 1_000.0
            }),
            Axis::StarvedFlows => claims::starved(t) as f64,
            Axis::ClassDeliveredPps(c) => claims::class(t, c).delivered_pps,
            Axis::ClassLatencyP99Micros(c) => claims::class(t, c).latency_p99.as_micros_f64(),
        }
    }

    /// Formats the figure as an aligned text table (also valid
    /// whitespace-separated data for plotting).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Figure {}: {}", self.id, self.caption);
        let _ = write!(out, "{:>12}", self.sweep.x_label());
        for c in &self.curves {
            let _ = write!(out, "  {:>24}", c.label.replace(' ', "_"));
        }
        let _ = writeln!(out);
        for (pi, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{:>12}", fmt_x(*x));
            for ci in 0..self.curves.len() {
                let _ = write!(out, "  {:>24.1}", self.value(ci, pi));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Formats the figure as CSV.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{}", self.sweep.x_label());
        for c in &self.curves {
            let _ = write!(out, ",{}", c.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        for (pi, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{}", fmt_x(*x));
            for ci in 0..self.curves.len() {
                let _ = write!(out, ",{:.2}", self.value(ci, pi));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// One-line shape summary per curve — MLFRR, stability, verdict over
    /// its (offered, delivered) points — for a throughput figure: a rate
    /// sweep whose leading curve plots the delivered rate. Empty for
    /// every other figure, whose curves are not throughput shapes.
    pub fn shape_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.sweep != Sweep::Rate || self.axes.first() != Some(&Axis::DeliveredPps) {
            return out;
        }
        for c in &self.curves {
            let pts = c.points();
            let m = mlfrr(&pts, 0.95).unwrap_or(0.0);
            let stab = overload_stability(&pts);
            let verdict = classify(&pts, 0.10, 0.80);
            let _ = writeln!(
                out,
                "#   {:<28} MLFRR≈{:>6.0}  stability={:.2}  {:?}",
                c.label, m, stab, verdict
            );
        }
        out
    }
}

/// Renders one row of the table at the given trial size.
///
/// One trial per (kernel, x): curves that share a kernel are projections
/// of the same trials, so a row runs `kernels.len() * xs.len()` trials
/// however many curves it plots, and that flattened grid is the available
/// parallelism. Each curve gets its kernel's trials — moved into the
/// kernel's last curve, copied for the earlier ones. Every trial is
/// independently seeded, so the output is bit-for-bit identical across
/// every [`Parallelism`] choice, and to one trial per (curve, x).
pub fn render_figure(fig: &Figure, n_packets: usize, par: Parallelism) -> RenderedFigure {
    let work: Vec<(&KernelConfig, f64)> = fig
        .kernels
        .iter()
        .flat_map(|k| fig.xs.iter().map(move |&x| (k, x)))
        .collect();
    let mut trials = par_map(&work, par.jobs(), |&(kernel, x)| {
        let mut config = kernel.clone();
        let rate_pps = match fig.sweep {
            Sweep::Rate => x,
            Sweep::Storm { rate_pps } => {
                // Intensity 0 leaves the plan out entirely, making the
                // baseline row provably identical to a fault-free build.
                let plan = storm_plan(STORM_SEED, x, config.cost.freq, rate_pps, n_packets)
                    .expect("a Storm row's trial is long enough to hold a storm window");
                if !plan.is_empty() {
                    config.faults = Some(plan);
                }
                rate_pps
            }
        };
        run_trial(&TrialSpec {
            rate_pps,
            n_packets,
            flows: fig.flows.clone(),
            ..TrialSpec::new(config)
        })
    })
    .into_iter();
    let mut per_kernel: Vec<Vec<TrialResult>> = fig
        .kernels
        .iter()
        .map(|_| trials.by_ref().take(fig.xs.len()).collect())
        .collect();
    let curves = fig
        .curves
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let last_use = fig.curves[i + 1..].iter().all(|d| d.kernel != c.kernel);
            let own = &mut per_kernel[c.kernel];
            SweepResult {
                label: c.label.clone(),
                trials: if last_use { std::mem::take(own) } else { own.clone() },
            }
        })
        .collect();
    RenderedFigure {
        id: fig.id,
        caption: fig.caption,
        xs: fig.xs.clone(),
        curves,
        axes: fig.curves.iter().map(|c| c.axis).collect(),
        sweep: fig.sweep,
        pairs: fig.pairs.clone(),
    }
}

/// [`render_figure`], under the name and signature the frozen
/// `benchmark/` links: the engine has one event queue, so the last
/// argument selects nothing.
pub fn render_figure_with_scheduler(
    fig: &Figure,
    n_packets: usize,
    par: Parallelism,
    _scheduler: Option<SchedulerKind>,
) -> RenderedFigure {
    render_figure(fig, n_packets, par)
}

/// Figure R-1 by name: an entry point the frozen `benchmark/` links;
/// everything else renders the row from [`figure_table`].
pub fn render_fig_r1(n_packets: usize, par: Parallelism) -> RenderedFigure {
    render_figure(&fig_r1(), n_packets, par)
}

/// Figure O-1 by name (see [`render_fig_r1`]).
pub fn render_fig_o1(n_packets: usize, par: Parallelism) -> RenderedFigure {
    render_figure(&fig_o1(), n_packets, par)
}

/// Figure P-1 by name (see [`render_fig_r1`]).
pub fn render_fig_p1(n_packets: usize, par: Parallelism) -> RenderedFigure {
    render_figure(&fig_p1(), n_packets, par)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table against everything derived from it, without running a
    /// trial: the committed CSVs, the claims table, and the nine-row
    /// prefix the benchmark links.
    #[test]
    fn figure_inventory_is_complete() {
        let table = figure_table();
        let ids: Vec<&str> = table.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), 12);
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "figure id {id} appears twice");
        }
        let prefix: Vec<&str> = all_figures().iter().map(|f| f.id).collect();
        assert_eq!(prefix, ids[..9], "the benchmark appends R-1, O-1 and P-1 itself");
        assert_eq!(ids[9..], ["R-1", "O-1", "P-1"]);

        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for fig in &table {
            assert!(!fig.curves.is_empty() && !fig.xs.is_empty(), "fig {}", fig.id);
            let name = format!("fig{}.csv", fig.id.replace('-', "_"));
            let csv = std::fs::read_to_string(results.join(&name))
                .unwrap_or_else(|e| panic!("fig {} has no committed {name}: {e}", fig.id));
            let mut lines = csv.lines();
            let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
            let labels: Vec<String> =
                fig.curves.iter().map(|c| c.label.replace(',', ";")).collect();
            assert_eq!(header[0], fig.sweep.x_label(), "{name}");
            assert_eq!(header[1..], labels[..], "{name}");
            let first_column: Vec<&str> = lines.filter_map(|l| l.split(',').next()).collect();
            let xs: Vec<String> = fig.xs.iter().map(|&x| fmt_x(x)).collect();
            assert_eq!(first_column, xs, "{name}");
            for id in fig.claims {
                let row = claims::CLAIMS.iter().find(|c| c.id == *id);
                assert!(row.is_some_and(|c| matches!(c.exit, claims::ClaimExit::Figures(_))), "fig {}: {id}", fig.id);
            }
            for &(u, p) in &fig.pairs {
                assert!(u < fig.curves.len() && p < fig.curves.len(), "fig {}", fig.id);
            }
        }
        for entry in std::fs::read_dir(&results).expect("results/ is committed") {
            let name = entry.expect("readable entry").file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".csv") {
                let id = stem.trim_start_matches("fig").replace('_', "-");
                assert!(ids.contains(&id.as_str()), "results/{name} has no table row");
            }
        }
    }

    /// The violated claims' messages when `claims` judge `r`.
    fn violations(claims: &[&str], r: &RenderedFigure) -> Vec<String> {
        let found = claims::evaluate(|c| claims.contains(&c.id), claims::Run::Figure(r));
        found.into_iter().map(|v| v.message).collect()
    }

    /// Row `fig` cut down to its curve `i` and that curve's kernel.
    fn one_curve(fig: Figure, i: usize) -> Figure {
        let kernels = vec![fig.kernels[fig.curves[i].kernel].clone()];
        let curves = vec![Curve {
            kernel: 0,
            ..fig.curves[i].clone()
        }];
        Figure {
            kernels,
            curves,
            ..fig
        }
    }

    /// Row `fig` with every curve given its own copy of its kernel: one
    /// trial per (curve, x), the semantics shared kernels replaced, kept
    /// as their reference.
    fn kernel_per_curve(fig: &Figure) -> Figure {
        Figure {
            kernels: fig.curves.iter().map(|c| fig.kernels[c.kernel].clone()).collect(),
            curves: (fig.curves.iter().enumerate())
                .map(|(i, c)| Curve { kernel: i, ..c.clone() })
                .collect(),
            ..fig.clone()
        }
    }

    /// Every row declares each kernel once and plots it: each curve names
    /// a kernel of its row, each kernel has a curve, and no two kernels
    /// of a row are the same configuration (by their `Debug` rendering).
    #[test]
    fn every_row_declares_each_kernel_once() {
        let (mut cells, mut trials) = (0, 0);
        for fig in figure_table() {
            let n = fig.kernels.len();
            for c in &fig.curves {
                assert!(c.kernel < n, "fig {}: {} names kernel {}", fig.id, c.label, c.kernel);
            }
            for k in 0..n {
                assert!(
                    fig.curves.iter().any(|c| c.kernel == k),
                    "fig {}: kernel {k} is plotted by no curve",
                    fig.id
                );
            }
            let debug: Vec<String> = fig.kernels.iter().map(|k| format!("{k:?}")).collect();
            for (k, d) in debug.iter().enumerate() {
                assert!(!debug[..k].contains(d), "fig {}: kernel {k} is declared twice", fig.id);
            }
            cells += fig.curves.len() * fig.xs.len();
            trials += n * fig.xs.len();
        }
        assert_eq!((cells, trials), (564, 424), "(curve, x) cells and (kernel, x) trials");
    }

    #[test]
    fn sharing_a_kernel_renders_what_a_kernel_per_curve_renders() {
        let mut shared = Vec::new();
        for fig in figure_table() {
            if fig.kernels.len() == fig.curves.len() {
                continue;
            }
            shared.push(fig.id);
            let declared = render_figure(&fig, 1_000, Parallelism::Auto);
            let copied = render_figure(&kernel_per_curve(&fig), 1_000, Parallelism::Auto);
            assert_eq!(declared.to_csv(), copied.to_csv(), "fig {}", fig.id);
            assert_eq!(declared.curves.len(), copied.curves.len(), "fig {}", fig.id);
            for (d, c) in declared.curves.iter().zip(&copied.curves) {
                assert_eq!(d.label, c.label, "fig {}", fig.id);
                assert_eq!(d.trials, c.trials, "fig {}: {}", fig.id, d.label);
            }
        }
        assert_eq!(shared, ["C-1", "S-1", "R-1", "O-1", "P-1"]);
    }

    #[test]
    fn render_small_figure_and_format() {
        let fig = Figure {
            xs: vec![500.0, 1_000.0],
            ..fig6_1()
        };
        let r = render_figure(&fig, 200, Parallelism::Serial);
        assert_eq!(r.curves.len(), 2);
        let table = r.to_table();
        assert!(table.contains("Figure 6-1"));
        assert!(table.contains("Without_screend"));
        assert_eq!(table.lines().count(), 2 + 2);
        let csv = r.to_csv();
        assert!(csv.starts_with("input_pps,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn parallel_render_matches_serial_bit_for_bit() {
        // Two curves x two rates: the flattened grid exercises regrouping.
        let fig = Figure {
            xs: vec![1_000.0, 8_000.0],
            ..fig6_1()
        };
        let serial = render_figure(&fig, 300, Parallelism::Serial);
        for jobs in [2, 4] {
            let par = render_figure(&fig, 300, Parallelism::Jobs(jobs));
            assert_eq!(par.curves.len(), serial.curves.len());
            for (p, s) in par.curves.iter().zip(&serial.curves) {
                assert_eq!(p.label, s.label, "jobs={jobs}");
                assert_eq!(p.trials, s.trials, "jobs={jobs}");
            }
            assert_eq!(par.to_csv(), serial.to_csv(), "jobs={jobs}");
        }
        // The benchmark's entry point renders the same trials.
        let forced = Some(SchedulerKind::Heap);
        let heap = render_figure_with_scheduler(&fig, 300, Parallelism::Serial, forced);
        assert_eq!(heap.curves.len(), serial.curves.len());
        for (h, s) in heap.curves.iter().zip(&serial.curves) {
            assert_eq!(h.trials, s.trials, "the benchmark's entry point");
        }
    }

    #[test]
    fn shape_checker_flags_wrong_shapes() {
        use livelock_kernel::experiment::{SweepResult, TrialResult};
        use livelock_sim::Nanos;

        // Build a synthetic rendered figure where the "no quota" curve
        // wrongly plateaus and the quota-5 curve wrongly collapses.
        let fake_trial = |offered: f64, delivered: f64| TrialResult {
            offered_pps: offered,
            delivered_pps: delivered,
            transmitted: delivered as u64,
            rx_ring_drops: 0,
            ipintrq_drops: 0,
            screend_q_drops: 0,
            screend_denied: 0,
            socket_q_drops: 0,
            app_delivered: 0,
            app_delivered_pps: 0.0,
            ifq_drops: 0,
            latency_mean: Nanos::ZERO,
            latency_p99: Nanos::ZERO,
            latency_jitter: Nanos::ZERO,
            latency: Default::default(),
            drops: Default::default(),
            per_cpu: vec![livelock_kernel::experiment::CpuStats {
                cpu: livelock_machine::CpuId(0),
                cpu_share: [0.0; livelock_machine::CpuClass::COUNT],
                user_cpu_frac: 0.0,
                interrupts_taken: 0,
                events_dispatched: 0,
                steals_published: 0,
                steals_taken: 0,
            }],
            timeline: None,
            pool: Default::default(),
            fault: Default::default(),
            flows: None,
            events: Vec::new(),
            fold: None,
            classes: Vec::new(),
        };
        let xs = vec![2_000.0, 6_000.0, 12_000.0];
        let plateau: Vec<_> = xs.iter().map(|&r| fake_trial(r, 4_000.0_f64.min(r))).collect();
        let collapse: Vec<_> = xs
            .iter()
            .map(|&r| fake_trial(r, if r > 4_000.0 { 0.0 } else { r }))
            .collect();
        let rendered = RenderedFigure {
            id: "6-3",
            caption: "synthetic",
            xs,
            curves: vec![
                SweepResult {
                    label: "Polling (no quota)".into(),
                    trials: plateau, // Wrong: should collapse.
                },
                SweepResult {
                    label: "Polling (quota = 5)".into(),
                    trials: collapse, // Wrong: should plateau.
                },
            ],
            axes: vec![Axis::DeliveredPps; 2],
            sweep: Sweep::Rate,
            pairs: Vec::new(),
        };
        let v = violations(&["6-x shape-verdicts"], &rendered);
        assert_eq!(v.len(), 2, "both wrong shapes flagged: {v:?}");
        assert!(v.iter().any(|m| m.contains("no quota")));
        assert!(v.iter().any(|m| m.contains("quota = 5")));
    }

    #[test]
    fn shape_checker_accepts_correct_shapes() {
        // Run the real (tiny) sweeps for figure 6-3's extremes and confirm
        // no violations: the checker agrees with the simulator.
        let fig = Figure {
            xs: vec![2_000.0, 6_000.0, 12_000.0],
            ..one_curve(fig6_3(), 2) // quota = 5.
        };
        let r = render_figure(&fig, 800, Parallelism::Auto);
        assert!(violations(fig.claims, &r).is_empty());
    }

    #[test]
    fn fig7_1_uses_cpu_axis() {
        let fig = Figure {
            xs: vec![500.0],
            ..one_curve(fig7_1(), 0)
        };
        let r = render_figure(&fig, 200, Parallelism::Serial);
        assert_eq!(r.axes, [Axis::UserCpuPercent]);
        let v = r.value(0, 0);
        assert!(v > 10.0 && v <= 100.0, "user CPU % = {v}");
        // Not a throughput figure: no MLFRR summary under its table.
        assert!(r.shape_summary().is_empty());
    }

    #[test]
    fn cycle_ledger_figure_shows_the_livelock() {
        // A small render of figure C-1's extremes: at wire-saturating load
        // the unmodified kernel's CPU is all receive interrupts while the
        // cycle-limited polled kernel preserves user+idle.
        let fig = Figure {
            xs: vec![2_000.0, 14_000.0],
            ..fig_c1()
        };
        let r = render_figure(&fig, 800, Parallelism::Auto);
        let v = violations(fig.claims, &r);
        assert!(v.is_empty(), "{v:?}");
        // And the claims really check: swapping the kernels must trip them.
        let mut swapped = r;
        swapped.curves.swap(0, 2);
        swapped.curves.swap(1, 3);
        assert!(!violations(fig.claims, &swapped).is_empty());
    }

    #[test]
    fn latency_figure_separates_kernels_under_overload() {
        // A small render of the latency figure's extremes: the polled
        // kernel's overload p99 must sit well below the unmodified one's.
        let fig = Figure {
            xs: vec![2_000.0, 12_000.0],
            ..fig_latency()
        };
        let r = render_figure(&fig, 800, Parallelism::Auto);
        assert_eq!(r.axes, [Axis::LatencyP99Micros; 2]);
        let v = violations(fig.claims, &r);
        assert!(v.is_empty(), "{v:?}");
        // And the claim really checks: swapping the curves must trip it.
        let mut swapped = r;
        swapped.curves.swap(0, 1);
        assert!(!violations(fig.claims, &swapped).is_empty());
    }

    #[test]
    fn fault_figure_renders_and_degrades_gracefully() {
        // A small R-1 render: delivered + p99 for both kernels across the
        // intensity sweep, with the polled kernel never driven to zero.
        // The storm spreads a fixed event count over the trial window, so
        // very short trials concentrate it; 2000 packets keeps the test
        // quick while staying within the checker's calibration.
        let fig = fig_r1();
        let r = render_fig_r1(2_000, Parallelism::Auto);
        assert_eq!(r.id, "R-1");
        assert_eq!(r.sweep.x_label(), "fault_intensity");
        assert_eq!(r.xs, [0.0, 0.5, 1.0, 2.0, 4.0]);
        assert_eq!(r.curves.len(), 4);
        assert_eq!(r.axes.len(), 4);
        // Intensity 0 runs with no fault plan at all: nothing injected.
        for c in &r.curves {
            assert_eq!(c.trials[0].fault.injected, 0, "{}", c.label);
        }
        // Every non-zero intensity really injects a scaled storm.
        for (pi, &x) in r.xs.iter().enumerate().skip(1) {
            for c in &r.curves {
                assert!(c.trials[pi].fault.injected > 0, "{} at {x}", c.label);
            }
        }
        let v = violations(fig.claims, &r);
        assert!(v.is_empty(), "{v:?}");
        // The CSV carries the fractional intensities verbatim.
        let csv = r.to_csv();
        assert!(csv.starts_with("fault_intensity,"), "{csv}");
        assert!(csv.contains("\n0.50,"), "{csv}");
        // Delivered curves at a fixed rate are not throughput shapes.
        assert!(r.shape_summary().is_empty());
    }

    #[test]
    fn observe_figure_detects_onset_online() {
        // A small O-1 render: the online detector separates the kernels
        // without waiting for end-of-trial aggregates.
        let fig = fig_o1();
        let r = render_fig_o1(2_000, Parallelism::Auto);
        assert_eq!(r.id, "O-1");
        assert_eq!(r.sweep, Sweep::Rate);
        assert_eq!(r.xs, fig.xs);
        assert_eq!(r.curves.len(), 4);
        assert_eq!(r.axes.len(), 4);
        let v = violations(fig.claims, &r);
        assert!(v.is_empty(), "{v:?}");
        // Every O-1 trial tracks the full eight-flow set and attributes
        // every arrival (no registry overflow at 8 flows / 128 slots).
        for c in &r.curves {
            for t in &c.trials {
                let reg = t.flows.as_ref().expect("observe enables the registry");
                assert_eq!(t.per_flow().len(), o1_flows().len(), "{}", c.label);
                assert_eq!(reg.overflow_arrivals(), 0, "{}", c.label);
            }
        }
        // The claims really check: swapping the kernels must trip them.
        let mut swapped = r;
        swapped.curves.swap(0, 1);
        swapped.curves.swap(2, 3);
        assert!(!violations(fig.claims, &swapped).is_empty());
    }

    #[test]
    fn priority_figure_isolates_control_under_overload() {
        // A small P-1 render: the classified kernel keeps Control inside
        // its SLO across the sweep while the single-class kernel
        // collapses, and the shedding lands on Bulk.
        let fig = fig_p1();
        let r = render_fig_p1(2_000, Parallelism::Auto);
        assert_eq!(r.id, "P-1");
        assert_eq!(r.sweep, Sweep::Rate);
        assert_eq!(r.xs, throughput_rates());
        assert_eq!(r.curves.len(), 6);
        assert_eq!(r.axes.len(), 6);
        let v = violations(fig.claims, &r);
        assert!(v.is_empty(), "{v:?}");
        // Every classified trial books all three classes, and the books
        // sum to the aggregate delivery count.
        for t in &r.curves[0].trials {
            let per = t.per_class();
            assert_eq!(per.len(), TrafficClass::COUNT);
            assert_eq!(per.iter().map(|s| s.delivered).sum::<u64>(), t.transmitted);
        }
        // The claims really check: swapping the kernels must trip them.
        let mut swapped = r;
        swapped.curves.swap(0, 3); // control delivered <-> unmodified delivered
        swapped.curves.swap(4, 5); // control p99 <-> unmodified p99
        assert!(!violations(fig.claims, &swapped).is_empty());
    }
}
