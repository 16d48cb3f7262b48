//! The five workloads: what each runs, and why it exists.
//!
//! A workload is a fixed list of *units* — trials or figures — run
//! serially through the public API (`run_trial`, `render_figure`, …).
//! One trip through the list is a *pass*.

use livelock_bench::{
    all_figures, p1_classify_config, p1_flows, render_fig_o1, render_fig_p1, render_fig_r1,
    render_figure_with_scheduler, Figure, RenderedFigure, PAPER_TRIAL_PACKETS,
};
use livelock_core::poller::Quota;
use livelock_kernel::config::{KernelConfig, KernelConfigBuilder};
use livelock_kernel::experiment::{run_trial, TrialResult, TrialSpec};
use livelock_kernel::par::Parallelism;
use livelock_kernel::telemetry::{ObserveConfig, TelemetryConfig};
use livelock_machine::SchedulerKind;

/// Packets per benchmark trial. `run_trial` builds and schedules every
/// packet up front (~360 B each: 40 MB at 100 k, 363 MB at 1 M), so
/// longer trials would measure the allocator, and shorter ones the
/// per-trial build cost that `figure_set` already covers.
pub const TRIAL_PACKETS: usize = 100_000;

/// Names are final: later PRs are compared workload by workload.
pub const WORKLOAD_NAMES: [&str; 5] = ["fastpath", "overload", "observed", "smp4", "figure_set"];

/// One workload.
pub struct Workload {
    /// Its name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one pass runs, in order.
    pub units: Vec<Unit>,
    /// How many times the untraced run sets up, so that `setup_s` is a
    /// median: fewer where one set-up (a whole warm-up pass) is long.
    pub setup_runs: usize,
}

/// One timed call into the simulator.
// A workload holds a dozen of these for the life of the run.
#[allow(clippy::large_enum_variant)]
pub enum Unit {
    /// One `run_trial`.
    Trial {
        /// Stable label, used in `kernel.trial.<label>.norm_ns_per_pkt`.
        label: &'static str,
        /// What to run.
        spec: TrialSpec,
    },
    /// One committed figure at `PAPER_TRIAL_PACKETS`.
    Figure(FigureUnit),
}

/// One of the twelve committed figures.
pub struct FigureUnit {
    /// The figure id (`6-1`, …, `P-1`); `results/fig<id with _>.csv`.
    pub id: &'static str,
    kind: FigureKind,
}

enum FigureKind {
    /// Curves × rates, rendered by `render_figure`.
    Declarative(Figure),
    R1,
    O1,
    P1,
}

/// What a unit produced, reduced to what the checks and metrics need
/// (a figure's ~500 `TrialResult`s are not kept).
pub struct Outcome {
    /// Totals over the unit's trials.
    pub counts: Counts,
    /// The output the rerun-identity check compares.
    pub output: Output,
}

/// The comparable output of a unit.
#[derive(PartialEq)]
pub enum Output {
    /// A trial's full result.
    Trial(Box<TrialResult>),
    /// A figure's CSV text.
    Csv(String),
}

/// Exact (simulated) totals over one or more trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counts {
    /// Packets offered.
    pub packets: u64,
    /// Packets forwarded onto the output wire or consumed by the local
    /// application.
    pub delivered: u64,
    /// Engine events dispatched, all CPUs.
    pub events: u64,
    /// Hardware interrupts taken, all CPUs.
    pub intrs: u64,
    /// Frames dropped at a receive ring.
    pub ring_drops: u64,
    /// Packets dropped at a software queue (ipintrq, screend, socket,
    /// output).
    pub queue_drops: u64,
    /// Largest 99th-percentile forwarding latency, simulated ns.
    pub p99_ns: u64,
    /// Frame-pool misses (per-packet heap allocations).
    pub pool_misses: u64,
    /// FNV-1a over every trial's headline numbers, for exact
    /// cross-commit comparison.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Counts {
    fn default() -> Self {
        Counts {
            packets: 0,
            delivered: 0,
            events: 0,
            intrs: 0,
            ring_drops: 0,
            queue_drops: 0,
            p99_ns: 0,
            pool_misses: 0,
            digest: FNV_OFFSET,
        }
    }
}

impl Counts {
    /// Folds one trial of `n_packets` in.
    pub fn add_trial(&mut self, r: &TrialResult, n_packets: usize) {
        let agg = r.aggregate();
        self.packets += n_packets as u64;
        self.delivered += r.transmitted + r.app_delivered;
        self.events += agg.events_dispatched;
        self.intrs += agg.interrupts_taken;
        self.ring_drops += r.rx_ring_drops;
        self.queue_drops += r.ipintrq_drops + r.screend_q_drops + r.socket_q_drops + r.ifq_drops;
        self.p99_ns = self.p99_ns.max(r.latency_p99.raw());
        self.pool_misses += r.pool.misses;
        for word in [
            r.offered_pps.to_bits(),
            r.delivered_pps.to_bits(),
            r.transmitted,
            r.app_delivered,
            r.drops.total(),
            r.latency_p99.raw(),
            agg.events_dispatched,
        ] {
            self.mix(word);
        }
    }

    /// Folds another unit's totals in (pass totals from unit totals).
    pub fn add(&mut self, other: &Counts) {
        self.packets += other.packets;
        self.delivered += other.delivered;
        self.events += other.events;
        self.intrs += other.intrs;
        self.ring_drops += other.ring_drops;
        self.queue_drops += other.queue_drops;
        self.p99_ns = self.p99_ns.max(other.p99_ns);
        self.pool_misses += other.pool_misses;
        self.mix(other.digest);
    }

    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl Unit {
    /// The unit's stable label: a trial's own, or `fig.<id>`.
    pub fn label(&self) -> String {
        match self {
            Unit::Trial { label, .. } => (*label).to_string(),
            Unit::Figure(f) => format!("fig.{}", f.id),
        }
    }

    /// Runs the unit. `scheduler` forces the engine's event-queue
    /// backend where the public API allows it (trials and the nine
    /// declarative figures; R-1/O-1/P-1 build their configs inside and
    /// always run the default).
    pub fn run(&self, par: Parallelism, scheduler: Option<SchedulerKind>) -> Outcome {
        match self {
            Unit::Trial { spec, .. } => {
                let result = match scheduler {
                    None => run_trial(spec),
                    Some(kind) => {
                        let mut spec = spec.clone();
                        spec.config.scheduler = kind;
                        run_trial(&spec)
                    }
                };
                let mut counts = Counts::default();
                counts.add_trial(&result, spec.n_packets);
                Outcome {
                    counts,
                    output: Output::Trial(Box::new(result)),
                }
            }
            Unit::Figure(f) => {
                let rendered = f.render(par, scheduler);
                let csv = rendered.to_csv();
                let mut counts = Counts::default();
                for trial in rendered.curves.iter().flat_map(|c| &c.trials) {
                    counts.add_trial(trial, PAPER_TRIAL_PACKETS);
                }
                Outcome {
                    counts,
                    output: Output::Csv(csv),
                }
            }
        }
    }
}

impl FigureUnit {
    /// Whether [`Unit::run`] can force this figure's scheduler backend.
    pub fn scheduler_selectable(&self) -> bool {
        matches!(self.kind, FigureKind::Declarative(_))
    }

    fn render(&self, par: Parallelism, scheduler: Option<SchedulerKind>) -> RenderedFigure {
        match &self.kind {
            FigureKind::Declarative(fig) => {
                render_figure_with_scheduler(fig, PAPER_TRIAL_PACKETS, par, scheduler)
            }
            FigureKind::R1 => render_fig_r1(PAPER_TRIAL_PACKETS, par),
            FigureKind::O1 => render_fig_o1(PAPER_TRIAL_PACKETS, par),
            FigureKind::P1 => render_fig_p1(PAPER_TRIAL_PACKETS, par),
        }
    }
}

/// The paper's polling kernel with a receive quota of `q` packets.
pub fn polled(q: u32) -> KernelConfigBuilder {
    KernelConfig::builder().polled(Quota::Limited(q))
}

fn spec(rate_pps: f64, seed: u64, config: KernelConfig) -> TrialSpec {
    TrialSpec {
        rate_pps,
        n_packets: TRIAL_PACKETS,
        seed,
        ..TrialSpec::new(config)
    }
}

fn trial(label: &'static str, rate_pps: f64, seed: u64, config: KernelConfig) -> Unit {
    Unit::Trial {
        label,
        spec: spec(rate_pps, seed, config),
    }
}

/// Which of the observability features PRs 2/3/8/9 added are on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Features {
    /// Per-packet latency histograms (`latency_tracking`).
    pub latency: bool,
    /// The periodic telemetry sampler.
    pub telemetry: bool,
    /// The per-flow registry, livelock detector and cycle fold.
    pub observe: bool,
    /// The classifier with per-class rings and shedding.
    pub classes: bool,
}

impl Features {
    /// Everything off.
    pub const NONE: Features = Features {
        latency: false,
        telemetry: false,
        observe: false,
        classes: false,
    };
    /// Everything on: what the `observed` workload runs.
    pub const ALL: Features = Features {
        latency: true,
        telemetry: true,
        observe: true,
        classes: true,
    };
}

/// A trial over figure P-1's eight-flow mix with the given features on.
/// The traffic is the same whatever the features, so two specs differing
/// only in `features` measure what the features cost.
pub fn observed_spec(
    rate_pps: f64,
    seed: u64,
    base: KernelConfigBuilder,
    on: Features,
) -> TrialSpec {
    let mut b = base.latency_tracking(on.latency);
    if on.telemetry {
        b = b.telemetry(TelemetryConfig::default());
    }
    if on.observe {
        b = b.observe(ObserveConfig::default());
    }
    if on.classes {
        b = b.classes(p1_classify_config());
    }
    TrialSpec {
        flows: Some(p1_flows()),
        ..spec(rate_pps, seed, b.build())
    }
}

/// The two kernels the `observed` workload (and the on/off
/// differentials) run, both through screend: the full polled stack and
/// the unmodified kernel.
pub fn observed_bases() -> [KernelConfigBuilder; 2] {
    [
        polled(10)
            .screend(Default::default())
            .feedback(Default::default()),
        KernelConfig::builder().screend(Default::default()),
    ]
}

/// The two rates the `observed` workload runs each kernel at: under the
/// screend path's MLFRR (everything delivered) and deep overload
/// (most packets shed).
pub const OBSERVED_RATES: [f64; 2] = [1_800.0, 12_000.0];

/// Below the MLFRR: every packet is parsed, routed and transmitted.
/// `net` forwarding primitives and the `machine` executor + NIC do the
/// work; observability does none. The bypass workload for any
/// observe/classify optimisation.
fn fastpath(seed: u64) -> Vec<Unit> {
    vec![
        trial(
            "fastpath.unmod_2000",
            2_000.0,
            seed,
            KernelConfig::builder().build(),
        ),
        trial(
            "fastpath.unmod_4000",
            4_000.0,
            seed,
            KernelConfig::builder().build(),
        ),
        trial(
            "fastpath.polled_q10_2000",
            2_000.0,
            seed,
            polled(10).build(),
        ),
        trial(
            "fastpath.polled_q10_4000",
            4_000.0,
            seed,
            polled(10).build(),
        ),
    ]
}

/// 12 000 pkts/s into every kernel variant: ~88 % of packets die at a
/// ring or queue, so drop accounting, interrupt dispatch, gating and
/// the `sim` scheduler dominate while forwarding does little. A
/// forwarding speed-up that slows the drop side shows here.
fn overload(seed: u64) -> Vec<Unit> {
    let rate = 12_000.0;
    vec![
        trial(
            "overload.unmod",
            rate,
            seed,
            KernelConfig::builder().build(),
        ),
        trial(
            "overload.unmod_screend",
            rate,
            seed,
            KernelConfig::builder().screend(Default::default()).build(),
        ),
        trial("overload.polled_q10", rate, seed, polled(10).build()),
        trial(
            "overload.polled_q10_screend_fb",
            rate,
            seed,
            polled(10)
                .screend(Default::default())
                .feedback(Default::default())
                .build(),
        ),
        trial(
            "overload.polled_unlimited",
            rate,
            seed,
            KernelConfig::builder().polled(Quota::Unlimited).build(),
        ),
        trial(
            "overload.polled_q5_cycle25_user",
            rate,
            seed,
            polled(5).cycle_limit(0.25).user_process(true).build(),
        ),
    ]
}

/// The observability stack under light and heavy load: `kernel::stats`,
/// `flows`, `telemetry`, `machine::fold`, `net::classify` and
/// `Packet::flow_key` all run per packet. "Parse the flow key once"
/// must show here and not on `fastpath`.
fn observed(seed: u64) -> Vec<Unit> {
    let [polled_fb, unmod] = observed_bases();
    let [light, heavy] = OBSERVED_RATES;
    let unit = |label, rate, base| Unit::Trial {
        label,
        spec: observed_spec(rate, seed, base, Features::ALL),
    };
    vec![
        unit("observed.polled_fb_1800", light, polled_fb.clone()),
        unit("observed.polled_fb_12000", heavy, polled_fb),
        unit("observed.unmod_screend_1800", light, unmod.clone()),
        unit("observed.unmod_screend_12000", heavy, unmod),
    ]
}

/// The SMP machine: `machine::cluster` slice barriers, `router::smp`
/// IPIs and steal buffers, and the scheduler under the slice-boundary
/// event pattern. Single-CPU workloads bypass all of it.
fn smp4(seed: u64) -> Vec<Unit> {
    vec![
        trial(
            "smp4.polled_4cpu_16000",
            16_000.0,
            seed,
            polled(10).ncpus(4).build(),
        ),
        trial(
            "smp4.polled_4cpu_40000",
            40_000.0,
            seed,
            polled(10).ncpus(4).build(),
        ),
        trial(
            "smp4.polled_4cpu_steal_40000",
            40_000.0,
            seed,
            polled(10).ncpus(4).steal(true).build(),
        ),
        trial(
            "smp4.unmod_4cpu_16000",
            16_000.0,
            seed,
            KernelConfig::builder().ncpus(4).build(),
        ),
        trial(
            "smp4.polled_2cpu_16000",
            16_000.0,
            seed,
            polled(10).ncpus(2).build(),
        ),
    ]
}

/// The twelve committed figures: ~500 short 10 k-packet trials, where
/// per-trial build cost, fault plans and CSV rendering matter. It is
/// what a `figures` user waits for. The figures carry their own seeds.
fn figure_set() -> Vec<Unit> {
    let mut units: Vec<Unit> = all_figures()
        .into_iter()
        .map(|fig| {
            Unit::Figure(FigureUnit {
                id: fig.id,
                kind: FigureKind::Declarative(fig),
            })
        })
        .collect();
    for (id, kind) in [
        ("R-1", FigureKind::R1),
        ("O-1", FigureKind::O1),
        ("P-1", FigureKind::P1),
    ] {
        units.push(Unit::Figure(FigureUnit { id, kind }));
    }
    units
}

/// Builds the named workload's units from `seed` (which sets
/// `TrialSpec::seed` on the four trial workloads; the figures' seeds are
/// their own). `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (name, units) = match name {
        "fastpath" => ("fastpath", fastpath(seed)),
        "overload" => ("overload", overload(seed)),
        "observed" => ("observed", observed(seed)),
        "smp4" => ("smp4", smp4(seed)),
        "figure_set" => ("figure_set", figure_set()),
        _ => return None,
    };
    Some(Workload {
        name,
        setup_runs: if name == "figure_set" { 3 } else { 9 },
        units,
    })
}

/// Every trial of the four trial workloads, in workload order — the
/// census the traced run times one by one.
pub fn all_trials(seed: u64) -> Vec<Unit> {
    let mut units = fastpath(seed);
    units.extend(overload(seed));
    units.extend(observed(seed));
    units.extend(smp4(seed));
    units
}

/// The ids of the twelve figures, in run order.
pub fn figure_ids() -> Vec<&'static str> {
    figure_set()
        .iter()
        .filter_map(|u| match u {
            Unit::Figure(f) => Some(f.id),
            Unit::Trial { .. } => None,
        })
        .collect()
}
