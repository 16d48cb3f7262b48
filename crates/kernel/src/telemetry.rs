//! Runtime telemetry: the clock-tick driven sampler and its timeline.
//!
//! Throughput curves show livelock's *outcome*; this module records it
//! *unfolding*. On every Nth clock tick the router samples the machine's
//! conserved [`CycleLedger`] (per-class CPU share since the previous
//! sample), every queue depth along the forwarding path, the interrupt
//! gate's inhibit-reason bitmask, and the hardware interrupt rate — into
//! one [`Sample`] row of a [`Timeline`], which exports as CSV
//! ([`Timeline::to_csv`]).
//!
//! Memory is bounded: when a timeline reaches
//! [`TelemetryConfig::max_samples`] rows it is decimated (every second
//! row dropped) and the sampling interval doubles, so an
//! arbitrarily long run keeps a uniform grid at whatever resolution fits
//! the budget. Sampling is off unless
//! [`KernelConfig::telemetry`](crate::config::KernelConfig::telemetry)
//! is set, and costs nothing when off.
//!
//! The module also hosts the **online livelock detector**
//! ([`LivelockDetector`]): windowed delivered/offered/user-progress
//! slopes judged at clock ticks, emitting typed, cycle-timestamped
//! [`ObsEvent`]s (onset, recovery, per-flow starvation, priority
//! inversion) the moment the pathology sets in — rather than inferring
//! it from end-of-trial aggregates. It runs only when
//! [`KernelConfig::observe`](crate::config::KernelConfig::observe) is
//! set, and like the sampler it is pure bookkeeping: enabled or not, the
//! simulated run is bit-identical.

use livelock_machine::{CpuClass, CpuId, CycleLedger};
use livelock_sim::{Cycles, Freq, Nanos};

use crate::flows::FlowRegistry;

/// Sampler knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Clock ticks between samples (1 = every tick, i.e. every simulated
    /// millisecond with the calibrated cost model). At the default of 4
    /// a canonical 10,000-packet overload trial still records a few
    /// hundred samples; what the sampler costs the host is the
    /// benchmark's `kernel.telemetry.overhead_frac`.
    pub interval_ticks: u32,
    /// Sample budget per CPU; reaching it drops every other row and
    /// doubles the effective interval.
    pub max_samples: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval_ticks: 4,
            max_samples: 4096,
        }
    }
}

/// Knobs for the per-flow observability layer: the flow metrics registry
/// ([`FlowRegistry`]), the online livelock detector
/// ([`LivelockDetector`]), and the machine's cycle-ledger flamegraph
/// fold. `None` in
/// [`KernelConfig::observe`](crate::config::KernelConfig::observe) (the
/// default) allocates none of it and perturbs nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObserveConfig {
    /// Distinct flows the registry can track; later flows count as
    /// overflow instead of growing the table.
    pub flow_slots: usize,
    /// Clock ticks per detector window (with the calibrated cost model,
    /// one tick is one simulated millisecond).
    pub window_ticks: u32,
    /// Minimum arrivals in a window before the detector judges it —
    /// idle or trickle windows carry no livelock signal.
    pub min_window_arrivals: u64,
    /// Livelock onset: delivered/arrived in a window falls below this.
    pub onset_frac: f64,
    /// Recovery: delivered/arrived in a window rises back above this
    /// (above `onset_frac` for hysteresis, so jitter at the threshold
    /// does not flap events).
    pub recovery_frac: f64,
    /// Consecutive windows a flow must see arrivals but zero deliveries
    /// before a `FlowStarved` event fires (once per flow).
    pub starve_windows: u32,
    /// Consecutive violated windows (`Bulk` served while `Control`
    /// misses its SLO or starves) before a `PriorityInversion` event
    /// fires — a single window is fault noise, a streak is inversion.
    pub inversion_windows: u32,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            flow_slots: 128,
            window_ticks: 8,
            min_window_arrivals: 16,
            onset_frac: 0.05,
            recovery_frac: 0.25,
            starve_windows: 4,
            inversion_windows: 2,
        }
    }
}

/// What the online detector observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEventKind {
    /// The delivered fraction of a loaded window collapsed below the
    /// onset threshold: receive livelock has set in.
    LivelockOnset {
        /// Arrivals in the offending window.
        arrived: u64,
        /// Deliveries in the offending window.
        delivered: u64,
    },
    /// A livelocked kernel's delivered fraction climbed back above the
    /// recovery threshold (or input pressure ended).
    Recovery {
        /// Arrivals in the recovering window.
        arrived: u64,
        /// Deliveries in the recovering window.
        delivered: u64,
    },
    /// One flow kept arriving but was served nothing for
    /// [`ObserveConfig::starve_windows`] consecutive windows (fires once
    /// per flow).
    FlowStarved {
        /// The starved flow's RSS hash
        /// ([`flow_hash`](crate::flows::flow_hash)).
        flow_hash: u64,
        /// Consecutive served-nothing windows at the moment of firing.
        windows: u32,
    },
    /// Packets arrived all window while the configured compute-bound
    /// user process made zero progress: the paper's starvation of user
    /// work by receive processing (fires once per episode).
    PriorityInversion {
        /// Arrivals in the inverted window.
        arrived: u64,
    },
}

impl ObsEventKind {
    /// Short stable name for event streams and markers.
    pub fn label(&self) -> &'static str {
        match self {
            ObsEventKind::LivelockOnset { .. } => "livelock-onset",
            ObsEventKind::Recovery { .. } => "recovery",
            ObsEventKind::FlowStarved { .. } => "flow-starved",
            ObsEventKind::PriorityInversion { .. } => "priority-inversion",
        }
    }
}

/// One typed, cycle-timestamped observability event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// When the detector window that triggered the event closed.
    pub at: Cycles,
    /// The CPU whose kernel emitted it.
    pub cpu: CpuId,
    /// What was observed.
    pub kind: ObsEventKind,
}

impl ObsEvent {
    /// One JSON object (no trailing newline) with a stable field order,
    /// for JSONL event streams: same events, same bytes.
    pub fn to_json(&self, freq: Freq) -> String {
        let mut out = format!(
            "{{\"at_cycles\":{},\"at_us\":{:.1},\"cpu\":{},\"kind\":\"{}\"",
            self.at.raw(),
            freq.nanos_from_cycles(self.at).as_micros_f64(),
            self.cpu.0,
            self.kind.label()
        );
        use std::fmt::Write as _;
        match self.kind {
            ObsEventKind::LivelockOnset { arrived, delivered }
            | ObsEventKind::Recovery { arrived, delivered } => {
                let _ = write!(out, ",\"arrived\":{arrived},\"delivered\":{delivered}");
            }
            ObsEventKind::FlowStarved { flow_hash, windows } => {
                let _ = write!(out, ",\"flow_hash\":{flow_hash},\"windows\":{windows}");
            }
            ObsEventKind::PriorityInversion { arrived } => {
                let _ = write!(out, ",\"arrived\":{arrived}");
            }
        }
        out.push('}');
        out
    }
}

/// The online livelock detector: windowed delivered-rate, offered-rate
/// and user-progress slopes computed at clock ticks, per-flow starvation
/// watch over the [`FlowRegistry`], typed [`ObsEvent`]s out.
///
/// Pure bookkeeping — it charges no cycles, schedules no events, and
/// never touches kernel state, so an enabled detector observes the exact
/// run a disabled one would have produced.
#[derive(Clone, Debug)]
pub struct LivelockDetector {
    cfg: ObserveConfig,
    cpu: CpuId,
    ticks_in_window: u32,
    last_arrived: u64,
    last_delivered: u64,
    last_user_chunks: u64,
    livelocked: bool,
    inversion_latched: bool,
    class_inversion_latched: bool,
    class_violation_streak: u32,
    class_last_control_arrived: u64,
    class_last_control_delivered: u64,
    class_last_bulk_delivered: u64,
    slot_arrived: Vec<u64>,
    slot_delivered: Vec<u64>,
    slot_starved: Vec<u32>,
    slot_fired: Vec<bool>,
    events: Vec<ObsEvent>,
}

impl LivelockDetector {
    /// Creates a detector for the kernel of `cpu`, with all per-flow
    /// watch state preallocated.
    pub fn new(cfg: ObserveConfig, cpu: CpuId) -> Self {
        let slots = cfg.flow_slots.max(1);
        LivelockDetector {
            cfg,
            cpu,
            ticks_in_window: 0,
            last_arrived: 0,
            last_delivered: 0,
            last_user_chunks: 0,
            livelocked: false,
            inversion_latched: false,
            class_inversion_latched: false,
            class_violation_streak: 0,
            class_last_control_arrived: 0,
            class_last_control_delivered: 0,
            class_last_bulk_delivered: 0,
            slot_arrived: vec![0; slots],
            slot_delivered: vec![0; slots],
            slot_starved: vec![0; slots],
            slot_fired: vec![false; slots],
            events: Vec::new(),
        }
    }

    /// Whether the most recent judged window was livelocked.
    pub fn is_livelocked(&self) -> bool {
        self.livelocked
    }

    /// Events emitted so far, in time order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Drains the emitted events.
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Clock-tick hook: accumulates ticks and, when a window closes,
    /// judges it. `arrived`/`delivered`/`user_chunks` are the kernel's
    /// *cumulative* counters (the detector differences them itself);
    /// `user_present` says whether a compute-bound user process is
    /// configured; `flows` is the per-flow registry when enabled.
    /// Returns `true` when this tick closed a window, so callers can
    /// feed window-aligned signals (the per-class SLO judge) in step.
    pub fn on_tick(
        &mut self,
        now: Cycles,
        arrived: u64,
        delivered: u64,
        user_chunks: u64,
        user_present: bool,
        flows: Option<&FlowRegistry>,
    ) -> bool {
        self.ticks_in_window += 1;
        if self.ticks_in_window < self.cfg.window_ticks.max(1) {
            return false;
        }
        self.ticks_in_window = 0;

        let arr = arrived.saturating_sub(self.last_arrived);
        let del = delivered.saturating_sub(self.last_delivered);
        let user = user_chunks.saturating_sub(self.last_user_chunks);
        self.last_arrived = arrived;
        self.last_delivered = delivered;
        self.last_user_chunks = user_chunks;

        let loaded = arr >= self.cfg.min_window_arrivals.max(1);
        let frac_below = |frac: f64| (del as f64) < frac * (arr as f64);
        if !self.livelocked && loaded && frac_below(self.cfg.onset_frac) {
            self.livelocked = true;
            self.events.push(ObsEvent {
                at: now,
                cpu: self.cpu,
                kind: ObsEventKind::LivelockOnset {
                    arrived: arr,
                    delivered: del,
                },
            });
        } else if self.livelocked && (!loaded || !frac_below(self.cfg.recovery_frac)) {
            self.livelocked = false;
            self.events.push(ObsEvent {
                at: now,
                cpu: self.cpu,
                kind: ObsEventKind::Recovery {
                    arrived: arr,
                    delivered: del,
                },
            });
        }

        if user_present {
            // The latch edge: any window in which the user process made
            // progress ends the inversion episode — even a lightly
            // loaded one. Only a *loaded* window with zero progress
            // starts (or continues) an episode, and each episode fires
            // exactly one event.
            if user > 0 {
                self.inversion_latched = false;
            } else if loaded && !self.inversion_latched {
                self.inversion_latched = true;
                self.events.push(ObsEvent {
                    at: now,
                    cpu: self.cpu,
                    kind: ObsEventKind::PriorityInversion { arrived: arr },
                });
            }
        }

        if let Some(reg) = flows {
            self.watch_flows(now, reg);
        }
        true
    }

    /// Window-aligned cross-class judge, fed by the kernel when flow
    /// classification is on (call right after [`LivelockDetector::on_tick`]
    /// returns `true`). The inputs are *cumulative* per-class counters
    /// (differenced here, like `on_tick`'s) plus the `Control` class's
    /// windowed p99 sojourn and its SLO. A window shows real
    /// cross-class priority inversion when `Bulk` traffic was still
    /// being served while `Control` either blew its p99 SLO or, despite
    /// arrivals, was served nothing at all; the event fires only after
    /// [`ObserveConfig::inversion_windows`] *consecutive* such windows
    /// (a single window is fault noise — a lost interrupt or a consumer
    /// restart — a streak is inversion). Fires one
    /// [`ObsEventKind::PriorityInversion`] per episode: the latch
    /// clears only in a window where Control met its SLO (zero-arrival
    /// windows carry no signal and hold both the latch and the streak).
    pub fn judge_classes(
        &mut self,
        now: Cycles,
        control_arrived: u64,
        control_delivered: u64,
        bulk_delivered: u64,
        control_p99: Nanos,
        slo: Nanos,
    ) {
        let c_arr = control_arrived.saturating_sub(self.class_last_control_arrived);
        let c_del = control_delivered.saturating_sub(self.class_last_control_delivered);
        let b_del = bulk_delivered.saturating_sub(self.class_last_bulk_delivered);
        self.class_last_control_arrived = control_arrived;
        self.class_last_control_delivered = control_delivered;
        self.class_last_bulk_delivered = bulk_delivered;
        if c_arr == 0 {
            return;
        }
        let violated = c_del == 0 || control_p99 > slo;
        if b_del > 0 && violated {
            self.class_violation_streak = self.class_violation_streak.saturating_add(1);
            if self.class_violation_streak >= self.cfg.inversion_windows.max(1)
                && !self.class_inversion_latched
            {
                self.class_inversion_latched = true;
                self.events.push(ObsEvent {
                    at: now,
                    cpu: self.cpu,
                    kind: ObsEventKind::PriorityInversion { arrived: c_arr },
                });
            }
        } else {
            // The streak is consecutive by definition; the latch only
            // clears on a window where Control actually met its SLO
            // (violated-but-nothing-served is livelock, not recovery).
            self.class_violation_streak = 0;
            if !violated {
                self.class_inversion_latched = false;
            }
        }
    }

    /// Per-flow starvation watch: a flow with arrivals but zero
    /// deliveries across [`ObserveConfig::starve_windows`] consecutive
    /// windows fires one `FlowStarved` event (latched per flow).
    fn watch_flows(&mut self, now: Cycles, reg: &FlowRegistry) {
        let n = self.slot_arrived.len().min(reg.capacity());
        for i in 0..n {
            let Some(s) = reg.slot(i) else { continue };
            let arr = s.arrived.saturating_sub(self.slot_arrived[i]);
            let del = s.delivered.saturating_sub(self.slot_delivered[i]);
            self.slot_arrived[i] = s.arrived;
            self.slot_delivered[i] = s.delivered;
            if del > 0 {
                self.slot_starved[i] = 0;
                continue;
            }
            if arr == 0 {
                continue;
            }
            self.slot_starved[i] = self.slot_starved[i].saturating_add(1);
            if self.slot_starved[i] >= self.cfg.starve_windows.max(1) && !self.slot_fired[i] {
                self.slot_fired[i] = true;
                self.events.push(ObsEvent {
                    at: now,
                    cpu: self.cpu,
                    kind: ObsEventKind::FlowStarved {
                        flow_hash: s.hash,
                        windows: self.slot_starved[i],
                    },
                });
            }
        }
    }
}

/// Queue depths along the forwarding path at one sampling instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Frames waiting in receive rings (summed over interfaces).
    pub rx_ring: usize,
    /// Packets in `ipintrq` (unmodified kernel).
    pub ipintrq: usize,
    /// Packets queued to the screend process.
    pub screend_q: usize,
    /// Packets in output interface queues (summed over interfaces).
    pub out_ifq: usize,
    /// Datagrams in the local socket buffer (end-system mode).
    pub socket_q: usize,
}

/// One telemetry sample: what one CPU's kernel saw at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub at: Cycles,
    /// The CPU whose kernel took it.
    pub cpu: CpuId,
    /// Per-class CPU share over the interval since that CPU's previous
    /// sample, indexed by [`CpuClass::index`] ([`CpuClass::ALL`] order).
    /// The nine values sum to 1 — the ledger's conservation, interval by
    /// interval.
    pub cpu_share: [f64; CpuClass::COUNT],
    /// Every queue depth along the forwarding path.
    pub depths: QueueDepths,
    /// The interrupt gate's inhibit-reason bitmask
    /// ([`InhibitReason::bit_index`](livelock_core::gate::InhibitReason::bit_index)
    /// gives each bit); 0 = gate open.
    pub gate_bits: u8,
    /// Hardware interrupts per second over the interval.
    pub intr_rate: f64,
    /// Deliveries per traffic class over the interval, indexed by
    /// [`TrafficClass::index`](livelock_net::TrafficClass::index)
    /// (`control`, `realtime`, `bulk`). All-zero when flow
    /// classification is off.
    pub class_delivered: [u64; 3],
}

/// The recorded telemetry: one [`Sample`] row per sampling instant per
/// CPU. A kernel records its own CPU's rows; a trial's result holds every
/// CPU's, [merged](Timeline::merge) in `(time, cpu)` order.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    /// The CPU whose kernel samples into this timeline.
    cpu: CpuId,
    interval_ticks: u32,
    max_samples: usize,
    ticks_since_sample: u32,
    last_ledger: CycleLedger,
    last_taken: u64,
    last_at: Cycles,
    last_class_delivered: [u64; 3],
    rows: Vec<Sample>,
}

impl Timeline {
    /// Creates an empty timeline, recorded by the kernel of `cpu`, for
    /// the given sampler configuration.
    pub fn new(cfg: TelemetryConfig, cpu: CpuId) -> Self {
        Timeline {
            cpu,
            interval_ticks: cfg.interval_ticks.max(1),
            max_samples: cfg.max_samples.max(2),
            ticks_since_sample: 0,
            last_ledger: CycleLedger::new(),
            last_taken: 0,
            last_at: Cycles::ZERO,
            last_class_delivered: [0; 3],
            rows: Vec::new(),
        }
    }

    /// Clock-tick hook: returns `true` when a sample is due (and resets
    /// the tick countdown).
    pub fn on_tick(&mut self) -> bool {
        self.ticks_since_sample += 1;
        if self.ticks_since_sample >= self.interval_ticks {
            self.ticks_since_sample = 0;
            true
        } else {
            false
        }
    }

    /// The effective sampling interval in ticks (doubles on decimation).
    pub fn interval_ticks(&self) -> u32 {
        self.interval_ticks
    }

    /// The recorded samples, in `(time, cpu)` order.
    pub fn rows(&self) -> &[Sample] {
        &self.rows
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Records one sample at time `now`: per-class CPU shares over the
    /// interval since the previous sample (from the conserved `ledger`),
    /// queue depths, gate state, the interrupt rate derived from the
    /// controller's cumulative `taken` count, and per-traffic-class
    /// delivery deltas from the cumulative `class_delivered` counters
    /// (all-zero when classification is off).
    pub fn sample(
        &mut self,
        now: Cycles,
        ledger: CycleLedger,
        taken: u64,
        depths: QueueDepths,
        gate_bits: u8,
        class_delivered: [u64; 3],
        freq: Freq,
    ) {
        let span_secs = freq.secs_from_cycles(now - self.last_at);
        self.rows.push(Sample {
            at: now,
            cpu: self.cpu,
            cpu_share: ledger.since(&self.last_ledger).shares(),
            depths,
            gate_bits,
            intr_rate: if span_secs > 0.0 {
                (taken - self.last_taken) as f64 / span_secs
            } else {
                0.0
            },
            class_delivered: std::array::from_fn(|i| {
                class_delivered[i].saturating_sub(self.last_class_delivered[i])
            }),
        });

        self.last_ledger = ledger;
        self.last_taken = taken;
        self.last_class_delivered = class_delivered;
        self.last_at = now;
        if self.len() >= self.max_samples {
            // Bounded memory for unbounded runs: keep every other row
            // and sample half as often from here on.
            let mut keep = false;
            self.rows.retain(|_| {
                keep = !keep;
                keep
            });
            self.interval_ticks = self.interval_ticks.saturating_mul(2);
        }
    }

    /// Adds another CPU's rows to this timeline, keeping `(time, cpu)`
    /// order.
    pub fn merge(&mut self, other: &Timeline) {
        self.rows.extend_from_slice(&other.rows);
        self.rows.sort_by_key(|row| (row.at, row.cpu));
    }

    /// Renders the timeline as CSV: one row per sample, a `time_us`
    /// column, the nine per-class share columns (labelled by
    /// [`CpuClass::label`]), the five queue depths, the gate bitmask,
    /// the interrupt rate, and the three per-traffic-class delivery
    /// columns — behind a leading `cpu` column when the rows come from
    /// more than one CPU. Output is deterministic: same samples, same
    /// bytes.
    pub fn to_csv(&self, freq: Freq) -> String {
        use std::fmt::Write as _;
        let multi_cpu = self.rows.windows(2).any(|w| w[0].cpu != w[1].cpu);
        let mut out = String::from(if multi_cpu { "cpu,time_us" } else { "time_us" });
        for c in CpuClass::ALL {
            let _ = write!(out, ",{}", c.label());
        }
        out.push_str(",rx_ring,ipintrq,screend_q,out_ifq,socket_q,gate_bits,intr_rate_hz");
        out.push_str(",delivered_control,delivered_realtime,delivered_bulk\n");
        for row in &self.rows {
            if multi_cpu {
                let _ = write!(out, "{},", row.cpu.0);
            }
            let _ = write!(out, "{:.1}", freq.nanos_from_cycles(row.at).as_micros_f64());
            for share in row.cpu_share {
                let _ = write!(out, ",{share:.6}");
            }
            let d = row.depths;
            for depth in [d.rx_ring, d.ipintrq, d.screend_q, d.out_ifq, d.socket_q] {
                let _ = write!(out, ",{depth}");
            }
            let _ = write!(out, ",{},{:.1}", row.gate_bits, row.intr_rate);
            for delivered in row.class_delivered {
                let _ = write!(out, ",{delivered}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_at(rx: u64, idle: u64) -> CycleLedger {
        let mut by_class = [Cycles::ZERO; CpuClass::COUNT];
        by_class[CpuClass::RxIntr.index()] = Cycles::new(rx);
        by_class[CpuClass::Idle.index()] = Cycles::new(idle);
        CycleLedger::from_totals(by_class)
    }

    #[test]
    fn on_tick_respects_interval() {
        let mut tl = Timeline::new(
            TelemetryConfig {
                interval_ticks: 3,
                max_samples: 64,
            },
            CpuId(0),
        );
        let due: Vec<bool> = (0..6).map(|_| tl.on_tick()).collect();
        assert_eq!(due, [false, false, true, false, false, true]);
    }

    #[test]
    fn shares_cover_each_interval_exactly() {
        let freq = Freq::mhz(100);
        let mut tl = Timeline::new(TelemetryConfig::default(), CpuId(0));
        tl.sample(
            Cycles::new(1_000),
            ledger_at(600, 400),
            10,
            QueueDepths::default(),
            0,
            [0; 3],
            freq,
        );
        // Second interval: 1000 more cycles, all rx.
        tl.sample(
            Cycles::new(2_000),
            ledger_at(1_600, 400),
            30,
            QueueDepths::default(),
            0b101,
            [0; 3],
            freq,
        );
        let rows = tl.rows();
        let (rx, idle) = (CpuClass::RxIntr.index(), CpuClass::Idle.index());
        assert_eq!(rows[0].cpu_share[rx], 0.6);
        assert_eq!(rows[1].cpu_share[rx], 1.0);
        assert_eq!(rows[1].cpu_share[idle], 0.0);
        assert_eq!(rows[1].gate_bits, 5);
        // 20 interrupts over 1000 cycles at 100 MHz = 10 us → 2e6/s.
        assert!((rows[1].intr_rate - 2_000_000.0).abs() < 1.0);
        // Every sample's shares sum to 1.
        for (i, row) in rows.iter().enumerate() {
            let sum: f64 = row.cpu_share.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn decimation_bounds_memory_and_doubles_interval() {
        let freq = Freq::mhz(100);
        let mut tl = Timeline::new(
            TelemetryConfig {
                interval_ticks: 1,
                max_samples: 8,
            },
            CpuId(0),
        );
        for i in 1..=40u64 {
            tl.sample(
                Cycles::new(i * 1_000),
                ledger_at(i * 1_000, 0),
                i,
                QueueDepths::default(),
                0,
                [0; 3],
                freq,
            );
        }
        assert!(tl.len() <= 8, "bounded: {} samples", tl.len());
        assert!(tl.interval_ticks() > 1, "interval doubled");
        // Each decimation kept the first, third, ... rows: 1..=8 → 1 3 5 7,
        // then 1 3 5 7 9 10 11 12 → 1 5 9 11, and so on.
        let times: Vec<u64> = tl.rows().iter().map(|row| row.at.raw()).collect();
        assert_eq!(times, [1_000, 33_000, 37_000, 39_000]);
    }

    #[test]
    fn detector_onset_and_recovery_with_hysteresis() {
        let cfg = ObserveConfig {
            window_ticks: 1,
            min_window_arrivals: 10,
            ..Default::default()
        };
        let mut d = LivelockDetector::new(cfg, CpuId(0));
        // Healthy loaded window: no event.
        d.on_tick(Cycles::new(1), 100, 90, 0, false, None);
        assert!(d.events().is_empty());
        // Collapse: 2 of 200 delivered (1% < 5%) -> onset.
        d.on_tick(Cycles::new(2), 300, 92, 0, false, None);
        assert!(d.is_livelocked());
        // Partial improvement (10%, still under the 25% recovery bar):
        // hysteresis holds the livelocked state, no event flapping.
        d.on_tick(Cycles::new(3), 500, 112, 0, false, None);
        assert!(d.is_livelocked());
        assert_eq!(d.events().len(), 1);
        // Real recovery (50%).
        d.on_tick(Cycles::new(4), 700, 212, 0, false, None);
        assert!(!d.is_livelocked());
        let evs = d.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0].kind,
            ObsEventKind::LivelockOnset {
                arrived: 200,
                delivered: 2
            }
        );
        assert_eq!(evs[0].at, Cycles::new(2), "onset carries its window's close");
        assert!(matches!(evs[1].kind, ObsEventKind::Recovery { .. }));
        assert!(d.events().is_empty(), "take_events drains");
    }

    #[test]
    fn detector_idle_windows_carry_no_signal_and_end_episodes() {
        let cfg = ObserveConfig {
            window_ticks: 1,
            min_window_arrivals: 10,
            ..Default::default()
        };
        let mut d = LivelockDetector::new(cfg, CpuId(0));
        // Idle window: never an onset.
        d.on_tick(Cycles::new(1), 5, 0, 0, false, None);
        assert!(!d.is_livelocked());
        // Livelock, then arrivals stop: the drained window recovers.
        d.on_tick(Cycles::new(2), 300, 1, 0, false, None);
        assert!(d.is_livelocked());
        d.on_tick(Cycles::new(3), 301, 1, 0, false, None);
        assert!(!d.is_livelocked(), "no input pressure means no livelock");
    }

    #[test]
    fn detector_priority_inversion_latches_per_episode() {
        let cfg = ObserveConfig {
            window_ticks: 1,
            min_window_arrivals: 10,
            ..Default::default()
        };
        let mut d = LivelockDetector::new(cfg, CpuId(0));
        // User starved two loaded windows running: one event.
        d.on_tick(Cycles::new(1), 100, 90, 0, true, None);
        d.on_tick(Cycles::new(2), 200, 180, 0, true, None);
        // Progress resumes, then stalls again: a second episode.
        d.on_tick(Cycles::new(3), 300, 270, 7, true, None);
        d.on_tick(Cycles::new(4), 400, 360, 7, true, None);
        let inv: Vec<_> = d
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ObsEventKind::PriorityInversion { .. }))
            .collect();
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].at, Cycles::new(1));
        assert_eq!(inv[1].at, Cycles::new(4));
        // Without a configured user process the signal is meaningless.
        let mut d2 = LivelockDetector::new(cfg, CpuId(0));
        d2.on_tick(Cycles::new(1), 100, 90, 0, false, None);
        assert!(d2.events().is_empty());
    }

    #[test]
    fn user_inversion_latch_edge_progress_resuming_exactly_at_a_tick() {
        let cfg = ObserveConfig {
            window_ticks: 1,
            min_window_arrivals: 10,
            ..Default::default()
        };
        let mut d = LivelockDetector::new(cfg, CpuId(0));
        // Loaded, user starved: episode opens, one event.
        d.on_tick(Cycles::new(1), 100, 90, 0, true, None);
        // An *idle* starved window holds the latch: it neither clears
        // the episode nor fires a second event.
        d.on_tick(Cycles::new(2), 105, 95, 0, true, None);
        // User progress lands exactly on the window-closing tick: that
        // single chunk is enough to end the episode at this boundary.
        d.on_tick(Cycles::new(3), 205, 185, 1, true, None);
        // The very next starved loaded window is a fresh episode.
        d.on_tick(Cycles::new(4), 305, 275, 1, true, None);
        let inv: Vec<_> = d
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ObsEventKind::PriorityInversion { .. }))
            .collect();
        assert_eq!(inv.len(), 2, "idle hold, boundary unlatch, re-latch");
        assert_eq!(inv[0].at, Cycles::new(1));
        assert_eq!(inv[1].at, Cycles::new(4));
    }

    /// Drives [`LivelockDetector::judge_classes`] with per-window deltas
    /// (the detector wants cumulative counters, so this accumulates).
    struct ClassJudge {
        d: LivelockDetector,
        arr: u64,
        c_del: u64,
        b_del: u64,
        t: u64,
    }

    impl ClassJudge {
        fn new() -> Self {
            ClassJudge {
                d: LivelockDetector::new(ObserveConfig::default(), CpuId(0)),
                arr: 0,
                c_del: 0,
                b_del: 0,
                t: 0,
            }
        }

        fn window(&mut self, c_arr: u64, c_del: u64, b_del: u64, p99_us: u64) {
            self.arr += c_arr;
            self.c_del += c_del;
            self.b_del += b_del;
            self.t += 1;
            let slo = Nanos::new(5_000_000);
            let p99 = Nanos::new(p99_us * 1_000);
            self.d
                .judge_classes(Cycles::new(self.t), self.arr, self.c_del, self.b_del, p99, slo);
        }

        fn inversions(&self) -> Vec<Cycles> {
            self.d
                .events()
                .iter()
                .filter(|e| matches!(e.kind, ObsEventKind::PriorityInversion { .. }))
                .map(|e| e.at)
                .collect()
        }
    }

    #[test]
    fn class_judge_slo_breach_needs_persistence_and_fires_once_per_episode() {
        let mut j = ClassJudge::new();
        // One violated window (Control over SLO, Bulk served) is fault
        // noise: no event yet.
        j.window(10, 10, 5, 9_000);
        assert!(j.inversions().is_empty());
        // The second consecutive violated window is inversion.
        j.window(10, 10, 5, 9_000);
        assert_eq!(j.inversions(), vec![Cycles::new(2)]);
        // The episode persists: no re-fire while still violated.
        j.window(10, 10, 5, 9_000);
        j.window(10, 2, 5, 12_000);
        assert_eq!(j.inversions().len(), 1, "one shot per episode");
        // Control meets its SLO: the episode ends...
        j.window(10, 10, 5, 1_000);
        // ...and a fresh persistent breach is a second episode.
        j.window(10, 10, 5, 9_000);
        j.window(10, 10, 5, 9_000);
        assert_eq!(j.inversions(), vec![Cycles::new(2), Cycles::new(7)]);
    }

    #[test]
    fn class_judge_starved_outright_is_a_violation_without_any_slo() {
        let mut j = ClassJudge::new();
        // Control arrives, none delivered, Bulk still served: violated
        // even with a zero p99 reading (no samples to measure).
        j.window(10, 0, 5, 0);
        j.window(10, 0, 5, 0);
        assert_eq!(j.inversions().len(), 1);
    }

    #[test]
    fn class_judge_zero_arrival_windows_hold_latch_and_streak() {
        let mut j = ClassJudge::new();
        j.window(10, 10, 5, 9_000);
        // A zero-arrival window carries no signal: the streak survives
        // it, so the next violated window completes the persistence bar.
        j.window(0, 0, 5, 0);
        j.window(10, 10, 5, 9_000);
        assert_eq!(j.inversions().len(), 1, "streak held across idle window");
        // Once latched, zero-arrival windows do not end the episode.
        j.window(0, 0, 0, 0);
        j.window(10, 10, 5, 9_000);
        j.window(10, 10, 5, 9_000);
        assert_eq!(j.inversions().len(), 1, "latch held across idle window");
    }

    #[test]
    fn class_judge_bulk_unserved_resets_streak_but_not_latch() {
        let mut j = ClassJudge::new();
        // Violated but Bulk unserved too: that is livelock, not
        // inversion — the streak resets.
        j.window(10, 0, 5, 0);
        j.window(10, 0, 0, 0);
        j.window(10, 0, 5, 0);
        assert!(j.inversions().is_empty(), "streak reset by bulk-dry window");
        j.window(10, 0, 5, 0);
        assert_eq!(j.inversions().len(), 1);
        // A bulk-dry violated window does not end the episode either:
        // recovery requires Control actually meeting its SLO.
        j.window(10, 0, 0, 0);
        j.window(10, 0, 5, 0);
        j.window(10, 0, 5, 0);
        assert_eq!(j.inversions().len(), 1, "latch survives bulk-dry window");
    }

    #[test]
    fn detector_flow_starvation_fires_once_per_flow() {
        use crate::flows::FlowRegistry;
        use livelock_net::FlowKey;
        let key = |p: u16| FlowKey {
            src_ip: 1,
            dst_ip: 2,
            proto: 17,
            src_port: p,
            dst_port: 9,
        };
        let cfg = ObserveConfig {
            window_ticks: 1,
            min_window_arrivals: 1,
            starve_windows: 2,
            flow_slots: 8,
            ..Default::default()
        };
        let mut d = LivelockDetector::new(cfg, CpuId(0));
        let mut reg = FlowRegistry::new(8);
        let freq = Freq::mhz(100);
        for w in 1..=4u64 {
            // Flow 1 arrives and is served; flow 2 arrives and never is.
            reg.record_arrival(Some(key(1)));
            reg.record_delivery(Some(key(1)), Cycles::ZERO, Cycles::new(w), freq);
            reg.record_arrival(Some(key(2)));
            d.on_tick(Cycles::new(w * 100), w * 2, w, 0, false, Some(&reg));
        }
        let starved: Vec<_> = d
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                ObsEventKind::FlowStarved { flow_hash, windows } => Some((flow_hash, windows)),
                _ => None,
            })
            .collect();
        assert_eq!(starved.len(), 1, "one event per starved flow");
        assert_eq!(starved[0].0, crate::flows::flow_hash(key(2)));
        assert_eq!(starved[0].1, 2);
    }

    #[test]
    fn obs_event_json_has_stable_field_order() {
        let freq = Freq::mhz(100);
        let ev = ObsEvent {
            at: Cycles::new(5_000),
            cpu: CpuId(1),
            kind: ObsEventKind::LivelockOnset {
                arrived: 160,
                delivered: 3,
            },
        };
        assert_eq!(
            ev.to_json(freq),
            "{\"at_cycles\":5000,\"at_us\":50.0,\"cpu\":1,\
             \"kind\":\"livelock-onset\",\"arrived\":160,\"delivered\":3}"
        );
        let ev = ObsEvent {
            at: Cycles::new(100),
            cpu: CpuId(0),
            kind: ObsEventKind::FlowStarved {
                flow_hash: 42,
                windows: 4,
            },
        };
        assert!(ev.to_json(freq).ends_with("\"flow_hash\":42,\"windows\":4}"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let freq = Freq::mhz(100);
        let mut tl = Timeline::new(TelemetryConfig::default(), CpuId(0));
        tl.sample(
            Cycles::new(100_000),
            ledger_at(50_000, 50_000),
            5,
            QueueDepths {
                rx_ring: 3,
                ..QueueDepths::default()
            },
            1,
            [0; 3],
            freq,
        );
        let csv = tl.to_csv(freq);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_us,rx_intr,"));
        assert!(header.ends_with("delivered_control,delivered_realtime,delivered_bulk"));
        assert_eq!(lines.count(), 1);
        assert!(csv.contains(",3,0,0,0,0,1,"), "depths and gate bits");
    }
}
