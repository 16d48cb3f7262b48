//! Kernel configuration: every knob the paper's experiments turn.

use livelock_core::poller::Quota;
use livelock_machine::cost::CostModel;
use livelock_machine::cpu::SchedulerKind;
use livelock_machine::fault::FaultPlan;
use livelock_machine::nic::NicConfig;
use livelock_net::classify::{MatchRule, TrafficClass};
use livelock_net::filter::Filter;
use livelock_sim::Nanos;

use crate::telemetry::{ObserveConfig, TelemetryConfig};

/// Which forwarding-path implementation the kernel runs.
#[derive(Clone, Debug)]
pub enum Mode {
    /// The 4.2BSD interrupt-driven path (Figure 6-2).
    Unmodified {
        /// Model the "modified kernel configured to act as if it were an
        /// unmodified system" of Figure 6-3 (open circles): the same path
        /// with a small extra per-packet overhead from the restructured
        /// driver, which the paper observed to be slightly slower.
        emulate_modified_structure: bool,
    },
    /// The paper's polling kernel (§6.4).
    Polled(PolledConfig),
}

/// Configuration of the modified (polling) kernel.
#[derive(Clone, Copy, Debug)]
pub struct PolledConfig {
    /// Packet quota per received-packet and per transmit-done callback
    /// (§6.6.2).
    pub rx_quota: Quota,
    /// The paper's queue-state feedback around the screend queue
    /// (§6.6.1, `WatermarkFeedback::paper`); `false` reproduces the
    /// "polling, no feedback" curve of Figure 6-4.
    pub feedback: bool,
    /// CPU-cycle limit for packet processing as a fraction of each period
    /// (§7); `None` disables the limiter.
    pub cycle_limit_frac: Option<f64>,
}

impl Default for PolledConfig {
    fn default() -> Self {
        PolledConfig {
            // The paper's no-screend experiments used 5-10; 10 is the value
            // used for the feedback experiments and inside the recommended
            // 10..20 band.
            rx_quota: Quota::Limited(10),
            feedback: false,
            cycle_limit_frac: None,
        }
    }
}

/// The argument of [`KernelConfigBuilder::feedback`]. It has no fields:
/// the paper fixes its watermarks and timeout (§6.6.1), which live in
/// `livelock_core::feedback::WatermarkFeedback::paper`. The type remains
/// only because `benchmark/` names it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeedbackConfig;

/// The machine shape: how many CPUs the kernel runs on and whether idle
/// CPUs steal receive work from overloaded siblings.
///
/// Every trial builds one complete kernel per CPU (own NIC receive
/// queue, poller, scheduler and conserved cycle ledger) and advances them
/// with the deterministic round-robin interleaver in
/// `livelock_machine::cluster`. `ncpus == 1` (the default) is the paper's
/// uniprocessor as a cluster of one — same pipeline, nobody to share
/// with, so its kernel carries no cross-CPU state and the interleaver
/// never slices it — byte-identical to every result produced before this
/// knob existed. With `ncpus > 1` the unmodified interrupt-driven path
/// contends on one *shared* `ipintrq` (every CPU's receive handler feeds
/// it, only CPU 0 drains it), while the polled path keeps fully per-CPU
/// queues and quotas — the contrast figure S-1 plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of CPUs (≥ 1).
    pub ncpus: usize,
    /// Work stealing: a CPU whose receive ring is full publishes the
    /// overflowing frame to a bounded per-CPU steal buffer, and idle
    /// sibling pollers pull from it instead of letting it drop (polled
    /// mode only; off by default).
    pub steal: bool,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            ncpus: 1,
            steal: false,
        }
    }
}

/// Interrupt arrival-rate limiting (§5.1), applied to receive interrupts.
#[derive(Clone, Copy, Debug)]
pub struct IntrRateLimitConfig {
    /// Maximum sustained receive-interrupt rate, per second.
    pub max_rate_hz: f64,
    /// Token-bucket burst size.
    pub burst: u32,
}

/// Configuration of local (end-system) delivery: packets addressed to the
/// host itself are queued on a bounded socket buffer and consumed by a
/// user-mode application process that sends an RPC-style UDP reply to
/// every request — the paper's NFS/RPC-server motivating application
/// (§2, §7.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalDeliveryConfig {
    /// The paper's queue-state feedback on the socket buffer (polled
    /// mode only) — the paper suggests applying the §6.6.1 technique "to
    /// other queues in the system".
    pub feedback: bool,
}

/// Configuration of the user-mode screend process.
#[derive(Clone, Debug)]
pub struct ScreendConfig {
    /// Capacity of the kernel queue feeding screend (paper: 32).
    pub queue_cap: usize,
    /// The screening rules. The paper ran screend "configured to accept
    /// all packets".
    pub rules: Filter,
}

impl Default for ScreendConfig {
    fn default() -> Self {
        ScreendConfig {
            queue_cap: 32,
            rules: Filter::accept_all(),
        }
    }
}

/// Priority-aware classification of the receive path (DESIGN.md §14).
///
/// A deterministic 5-tuple → [`TrafficClass`] mapping replaces the RSS
/// hash as the NIC queue-selection policy: on a polled kernel each class
/// gets its own receive ring ([`KernelConfig::rx_rings`]), the polling
/// thread drains rings in strict-priority order under per-class burst
/// budgets, and an admission gate sheds low
/// classes first when the downstream queue (or the livelock detector)
/// signals overload. `None` on [`KernelConfig::classes`] is
/// zero-perturbation: no classifier runs, packets carry no class, and
/// every result is byte-identical to a build without this subsystem.
#[derive(Clone, Debug)]
pub struct ClassifyConfig {
    /// The match rules. Order carries no meaning — classification is
    /// most-specific-wins with class priority as the tie-break (see
    /// [`livelock_net::classify`]).
    pub rules: Vec<MatchRule>,
    /// Class assigned to unmatched flows and unparseable frames.
    pub default_class: TrafficClass,
    /// The `Control` class's p99 latency SLO, judged over the livelock
    /// detector's sliding window. The upgraded `PriorityInversion`
    /// detector fires when this is violated (or `Control` arrivals see
    /// zero deliveries) while `Bulk` still progresses.
    pub slo_p99: Nanos,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            rules: Vec::new(),
            default_class: TrafficClass::Bulk,
            slo_p99: Nanos::from_millis(2),
        }
    }
}

/// Full kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Forwarding-path implementation.
    pub mode: Mode,
    /// Route packets through the user-mode screend process?
    pub screend: Option<ScreendConfig>,
    /// Deliver packets addressed to the host to a local application?
    pub local: Option<LocalDeliveryConfig>,
    /// Limit the receive-interrupt arrival rate (§5.1)?
    pub intr_rate_limit: Option<IntrRateLimitConfig>,
    /// Run a compute-bound user process (the Figure 7-1 competitor)?
    pub user_process: bool,
    /// NIC ring geometry.
    pub nic: NicConfig,
    /// `ipintrq` length limit (BSD's `IFQ_MAXLEN` default of 50); only the
    /// unmodified kernel has this queue.
    pub ipintrq_cap: usize,
    /// Per-interface output queue length limit.
    pub ifq_cap: usize,
    /// Forward packets between interfaces (a router)? When `false` the
    /// host is a pure end-system: traffic not addressed to it is discarded
    /// after input processing — the cost the paper's "innocent-bystander
    /// hosts" pay under multicast/broadcast storms (§1).
    pub ip_forwarding: bool,
    /// Number of network interfaces (the paper's router had two).
    pub num_ifaces: usize,
    /// The machine shape (1 CPU by default: the paper's uniprocessor, a
    /// cluster of one).
    pub topology: Topology,
    /// Keep the per-stage latency breakdown (off by default)? Every trial
    /// keeps the total wire-to-wire sojourn's histogram and moments,
    /// which its p99, mean and jitter read. On request it also keeps six
    /// per-stage residency histograms (ring, ipq, fwd, sq, outq, wire):
    /// ~15 KiB each, so ~90 KiB per CPU plus ~90 KiB in the result, and
    /// six more samples per delivered packet. Stage stamps are written
    /// either way, and no simulated number depends on this flag.
    pub latency_tracking: bool,
    /// Periodic telemetry sampling (off by default: no timeline is
    /// recorded and the clock-tick path pays nothing).
    pub telemetry: bool,
    /// Per-flow observability: the flow metrics registry, the online
    /// livelock detector, and the cycle-ledger flamegraph fold (off by
    /// default: no registry is allocated, packets carry no flow key, the
    /// clock tick runs no detector, and the run is bit-identical to one
    /// without the observability subsystem).
    pub observe: bool,
    /// Scheduled fault injection (`None` or an empty plan = off, the
    /// default: no fault events are scheduled, no recovery machinery is
    /// armed, and the run is byte-identical to one without the fault
    /// subsystem).
    pub faults: Option<FaultPlan>,
    /// Priority-aware flow classification (`None` = off, the default:
    /// no classifier runs, the NIC keeps its single ring / RSS-hash
    /// queue selection, no admission gate sheds, and the run is
    /// byte-identical to one without the classification subsystem).
    ///
    /// In polled mode the full mechanism engages: per-priority NIC
    /// rings, strict-priority drain with burst budgets, and the shed
    /// controller. In unmodified mode only the *accounting* half runs
    /// (per-class stats and inversion detection) — the interrupt path
    /// has no admission gate to protect anything, which is exactly the
    /// contrast `chaos --priority` demonstrates.
    pub classes: Option<ClassifyConfig>,
    /// Written by the frozen `benchmark/` and read by nothing: the
    /// engine has one event queue, [`SchedulerKind::Heap`].
    pub scheduler: SchedulerKind,
    /// The cycle cost model.
    pub cost: CostModel,
}

impl KernelConfig {
    fn base(mode: Mode) -> Self {
        KernelConfig {
            mode,
            screend: None,
            local: None,
            intr_rate_limit: None,
            user_process: false,
            nic: NicConfig::default(),
            ipintrq_cap: 50,
            ifq_cap: 50,
            ip_forwarding: true,
            num_ifaces: 2,
            topology: Topology::default(),
            latency_tracking: false,
            telemetry: false,
            observe: false,
            faults: None,
            classes: None,
            scheduler: SchedulerKind::default(),
            cost: CostModel::calibrated(),
        }
    }

    /// Starts a fluent builder, beginning from the unmodified
    /// interrupt-driven kernel with the paper's defaults. This is the one
    /// way to compose configurations.
    ///
    /// ```
    /// use livelock_core::poller::Quota;
    /// use livelock_kernel::config::{FeedbackConfig, KernelConfig, ScreendConfig};
    ///
    /// let cfg = KernelConfig::builder()
    ///     .polled(Quota::Limited(10))
    ///     .screend(ScreendConfig::default())
    ///     .feedback(FeedbackConfig)
    ///     .build();
    /// assert!(cfg.polled_config().unwrap().feedback);
    /// ```
    pub fn builder() -> KernelConfigBuilder {
        KernelConfigBuilder {
            cfg: KernelConfig::base(Mode::Unmodified {
                emulate_modified_structure: false,
            }),
            feedback: false,
            cycle_limit: None,
        }
    }

    /// Returns the polled configuration, if this is a polled kernel.
    pub fn polled_config(&self) -> Option<&PolledConfig> {
        match &self.mode {
            Mode::Polled(p) => Some(p),
            Mode::Unmodified { .. } => None,
        }
    }

    /// Receive rings per NIC: one per traffic class on a classified
    /// polled kernel, one otherwise.
    pub(crate) fn rx_rings(&self) -> usize {
        match (&self.classes, &self.mode) {
            (Some(_), Mode::Polled(_)) => TrafficClass::COUNT,
            _ => 1,
        }
    }
}

/// Fluent builder for [`KernelConfig`], started by
/// [`KernelConfig::builder`].
///
/// The builder begins from the paper's unmodified-kernel defaults; every
/// method overrides one knob and returns the builder. `feedback` and
/// `cycle_limit` are mode-independent to set (call order does not matter)
/// and are applied to the polled configuration at [`build`]
/// (they have no effect on an interrupt-driven kernel, which has neither
/// mechanism).
///
/// [`build`]: KernelConfigBuilder::build
#[derive(Clone, Debug)]
pub struct KernelConfigBuilder {
    cfg: KernelConfig,
    feedback: bool,
    cycle_limit: Option<f64>,
}

impl KernelConfigBuilder {
    fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// The modified kernel acting as if unmodified (Figure 6-3 open
    /// circles): the interrupt-driven path plus the restructured driver's
    /// small per-packet overhead.
    pub fn no_polling(self) -> Self {
        self.mode(Mode::Unmodified {
            emulate_modified_structure: true,
        })
    }

    /// The polling kernel with `rx_quota` for both receive and transmit
    /// callbacks.
    pub fn polled(self, rx_quota: Quota) -> Self {
        self.mode(Mode::Polled(PolledConfig {
            rx_quota,
            ..PolledConfig::default()
        }))
    }

    /// Routes forwarded packets through the user-mode screend process.
    pub fn screend(mut self, screend: ScreendConfig) -> Self {
        self.cfg.screend = Some(screend);
        self
    }

    /// Enables the paper's queue-state feedback (§6.6.1) on the screend
    /// queue. Applied at [`build`](Self::build) when the mode is polled.
    pub fn feedback(mut self, _: FeedbackConfig) -> Self {
        self.feedback = true;
        self
    }

    /// Enables the §7 CPU-cycle limiter at `threshold_frac` of each
    /// period. Applied at [`build`](Self::build) when the mode is polled.
    pub fn cycle_limit(mut self, threshold_frac: f64) -> Self {
        self.cycle_limit = Some(threshold_frac);
        self
    }

    /// Delivers packets addressed to the host to a local application
    /// (end-system mode).
    pub fn local_delivery(mut self, local: LocalDeliveryConfig) -> Self {
        self.cfg.local = Some(local);
        self
    }

    /// Limits the receive-interrupt arrival rate (§5.1).
    pub fn intr_rate_limit(mut self, max_rate_hz: f64, burst: u32) -> Self {
        self.cfg.intr_rate_limit = Some(IntrRateLimitConfig { max_rate_hz, burst });
        self
    }

    /// Runs the compute-bound user process (the Figure 7-1 competitor).
    pub fn user_process(mut self, on: bool) -> Self {
        self.cfg.user_process = on;
        self
    }

    /// Forward packets between interfaces (`false` = pure end-system).
    pub fn ip_forwarding(mut self, on: bool) -> Self {
        self.cfg.ip_forwarding = on;
        self
    }

    /// Keeps the per-stage latency breakdown (off by default; the total
    /// sojourn is always kept).
    pub fn latency_tracking(mut self, on: bool) -> Self {
        self.cfg.latency_tracking = on;
        self
    }

    /// Enables the periodic telemetry sampler (off by default).
    pub fn telemetry(mut self, _: TelemetryConfig) -> Self {
        self.cfg.telemetry = true;
        self
    }

    /// Enables the per-flow observability layer (off by default): the
    /// flow metrics registry, the online livelock detector, and the
    /// cycle-ledger flamegraph fold.
    pub fn observe(mut self, _: ObserveConfig) -> Self {
        self.cfg.observe = true;
        self
    }

    /// Schedules a fault-injection plan (off by default). An empty plan
    /// is equivalent to none.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Enables priority-aware flow classification (off by default): the
    /// deterministic classifier, per-priority NIC rings, the
    /// strict-priority drain and the SLO-guarded shed controller.
    pub fn classes(mut self, cfg: ClassifyConfig) -> Self {
        self.cfg.classes = Some(cfg);
        self
    }

    /// Number of CPUs (1 = the paper's uniprocessor, a cluster of one).
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn ncpus(mut self, n: usize) -> Self {
        assert!(n >= 1, "a machine has at least one CPU");
        self.cfg.topology.ncpus = n;
        self
    }

    /// Enables work stealing between sibling CPUs (polled mode,
    /// `ncpus > 1` only; a no-op on one CPU).
    pub fn steal(mut self, on: bool) -> Self {
        self.cfg.topology.steal = on;
        self
    }

    /// Finalizes the configuration, folding pending feedback/cycle-limit
    /// settings into the polled mode.
    pub fn build(mut self) -> KernelConfig {
        if let Mode::Polled(p) = &mut self.cfg.mode {
            p.feedback = self.feedback;
            if self.cycle_limit.is_some() {
                p.cycle_limit_frac = self.cycle_limit;
            }
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_presets_match_paper() {
        let u = KernelConfig::builder().build();
        assert!(matches!(
            u.mode,
            Mode::Unmodified {
                emulate_modified_structure: false
            }
        ));
        assert!(u.screend.is_none());
        assert_eq!(u.ipintrq_cap, 50);
        assert_eq!(u.num_ifaces, 2);

        let s = KernelConfig::builder().screend(Default::default()).build();
        assert_eq!(s.screend.as_ref().unwrap().queue_cap, 32);

        let p = KernelConfig::builder().polled(Quota::Limited(5)).build();
        let pc = p.polled_config().unwrap();
        assert_eq!(pc.rx_quota, Quota::Limited(5));
        assert!(!pc.feedback);

        let f = KernelConfig::builder()
            .polled(Quota::Limited(10))
            .screend(Default::default())
            .feedback(Default::default())
            .build();
        assert!(f.polled_config().unwrap().feedback);
        assert!(f.screend.is_some());

        let c = KernelConfig::builder()
            .polled(Quota::Limited(5))
            .cycle_limit(0.25)
            .user_process(true)
            .build();
        assert_eq!(c.polled_config().unwrap().cycle_limit_frac, Some(0.25));
        assert!(c.user_process);
    }

    /// `feedback`/`cycle_limit` are held pending until `build`, so the
    /// builder is order-independent: setting them before `polled` works.
    #[test]
    fn builder_is_order_independent() {
        let a = KernelConfig::builder()
            .feedback(FeedbackConfig)
            .cycle_limit(0.5)
            .screend(ScreendConfig::default())
            .polled(Quota::Limited(10))
            .build();
        let b = KernelConfig::builder()
            .polled(Quota::Limited(10))
            .screend(ScreendConfig::default())
            .feedback(FeedbackConfig)
            .cycle_limit(0.5)
            .build();
        let (pa, pb) = (a.polled_config().unwrap(), b.polled_config().unwrap());
        assert_eq!(pa.rx_quota, pb.rx_quota);
        assert_eq!(pa.cycle_limit_frac, pb.cycle_limit_frac);
        assert_eq!(pa.feedback, pb.feedback);
    }

    #[test]
    fn unmodified_has_no_polled_config() {
        assert!(KernelConfig::builder().build().polled_config().is_none());
        assert!(KernelConfig::builder()
            .no_polling()
            .build()
            .polled_config()
            .is_none());
    }

    #[test]
    fn topology_defaults_to_one_cpu_without_stealing() {
        let cfg = KernelConfig::builder().build();
        assert_eq!(cfg.topology, Topology::default());
        assert_eq!(cfg.topology.ncpus, 1);
        assert!(!cfg.topology.steal);

        let smp = KernelConfig::builder().ncpus(4).steal(true).build();
        assert_eq!(smp.topology.ncpus, 4);
        assert!(smp.topology.steal);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_is_rejected() {
        let _ = KernelConfig::builder().ncpus(0);
    }
}
