//! Priority-aware flow classification in the kernel (DESIGN.md §14).
//!
//! The pipeline: the deterministic [`Classifier`] maps each arriving
//! frame's 5-tuple to a [`TrafficClass`] at the NIC boundary; the class
//! picks the per-priority receive ring DMA lands in; the polling thread
//! drains the rings in strict-priority order under per-class burst
//! budgets ([`ClassEngine::pick_ring`]); and a class-aware admission
//! gate ([`RouterKernel::class_admit`]) sheds low classes first —
//! `Bulk`, then `Realtime`, never `Control` — when the downstream
//! bottleneck queue or the online livelock detector signals overload.
//! Shedding happens *before* the ring, so a shed packet costs nothing:
//! it is the §6.4 "drop early, drop cheap" discipline made
//! class-selective.
//!
//! The shed controller is hysteretic and asymmetric: escalation is
//! event-driven — every admission checks the instantaneous bottleneck
//! fill against [`SHED_HI_FRAC`] and raises the level the
//! moment it crosses (the §6.5 discipline: feedback acts when the
//! screend queue fills, not when a timer fires), and the clock tick
//! escalates too when the online detector reports livelock —  while
//! de-escalation is tick-driven only, requires the fill down to
//! [`RESTORE_LO_FRAC`] with the detector quiet, and holds every level
//! for at least [`MIN_HOLD_TICKS`] clock ticks.
//! The asymmetry is deliberate: raising the gate early costs a few
//! shed `Bulk` packets, raising it late costs a queue full of them in
//! front of every `Control` packet for milliseconds.
//!
//! This module is the only place that stamps a packet's class (through
//! `net`'s [`Classifier::stamp`], the one write there is) or records a
//! [`DropReason::ClassShed`]: classification policy lives here, and
//! everything downstream — queues, quotas, per-class accounting — just
//! reads the stamp.

use super::*;
use crate::config::ClassifyConfig;
use livelock_net::classify::{Classifier, TrafficClass};

/// Bottleneck fill fraction at/above which the shed level escalates
/// (level 0 → 1, and 1 → 2 when still above after the hold).
///
/// Tight, because the screend queue — the bottleneck the controller
/// watches — is FIFO: every packet already admitted ahead of a `Control`
/// packet adds a full service time (~hundreds of microseconds) to its
/// sojourn, so meeting a single-digit-millisecond SLO means shedding
/// early enough that the queue stays shallow, not just short of
/// overflow.
const SHED_HI_FRAC: f64 = 0.125;
/// Fill fraction at/below which the shed level de-escalates: only an
/// empty bottleneck restores a level.
const RESTORE_LO_FRAC: f64 = 0.0;
/// Minimum clock ticks a shed level holds before a tick may change it.
const MIN_HOLD_TICKS: u64 = 2;

/// The hysteretic shed controller: a small state machine over shed
/// levels 0 (admit everything), 1 (shed `Bulk`) and 2 (shed `Bulk` and
/// `Realtime`). `Control` is never shed — protecting it is the point.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShedController {
    /// The current shed level (0 = admit everything).
    level: u8,
    ticks: u64,
    level_since: u64,
}

impl ShedController {
    /// Whether class `c` is shed at the current level.
    pub(crate) fn sheds(&self, c: TrafficClass) -> bool {
        match c {
            TrafficClass::Control => false,
            TrafficClass::Realtime => self.level >= 2,
            TrafficClass::Bulk => self.level >= 1,
        }
    }

    /// Event-driven escalation, called on every admission with the
    /// instantaneous bottleneck fill. Raising the gate is always safe,
    /// so it bypasses the minimum-hold window — without this, a line-rate
    /// burst admits a whole bottleneck queue of low-class packets in the
    /// gap before the first clock tick, and every `Control` packet for
    /// the next several milliseconds waits behind them.
    pub(crate) fn note_pressure(&mut self, fill_frac: f64) {
        if fill_frac >= SHED_HI_FRAC && self.level < 2 {
            self.level += 1;
            self.level_since = self.ticks;
        }
    }

    /// One clock tick: `fill_frac` is the downstream bottleneck queue's
    /// fill fraction, `livelocked` the online detector's verdict. Moves
    /// at most one level per call, and only after the current level has
    /// been held for the minimum-hold window.
    pub(crate) fn on_tick(&mut self, fill_frac: f64, livelocked: bool) {
        self.ticks += 1;
        if self.ticks - self.level_since < MIN_HOLD_TICKS {
            return;
        }
        let pressure = livelocked || fill_frac >= SHED_HI_FRAC;
        let calm = !livelocked && fill_frac <= RESTORE_LO_FRAC;
        if pressure && self.level < 2 {
            self.level += 1;
            self.level_since = self.ticks;
        } else if calm && self.level > 0 {
            self.level -= 1;
            self.level_since = self.ticks;
        }
    }
}

/// Per-class burst budget of the strict-priority drain, indexed by
/// [`TrafficClass::index`]: one round takes at most `BURST[c]` packets
/// from class `c` before moving down the priority order, so a flooding
/// `Control` source cannot starve `Bulk` forever (strictness is between
/// rounds, fairness within one).
const BURST: [u32; TrafficClass::COUNT] = [8, 8, 8];

/// Per-kernel classification state: the rule engine, the strict-priority
/// drain's round-robin budgets, and the shed controller.
#[derive(Clone, Debug)]
pub(crate) struct ClassEngine {
    classifier: Classifier,
    taken_in_round: [u32; TrafficClass::COUNT],
    pub(crate) shed: ShedController,
    /// The Control class's p99 latency SLO, for the cross-class
    /// priority-inversion detector.
    pub(crate) slo_p99: livelock_sim::Nanos,
}

impl ClassEngine {
    pub(crate) fn new(cfg: &ClassifyConfig) -> Self {
        ClassEngine {
            classifier: Classifier::new(cfg.rules.clone(), cfg.default_class),
            taken_in_round: [0; TrafficClass::COUNT],
            shed: ShedController::default(),
            slo_p99: cfg.slo_p99,
        }
    }

    /// Picks the class ring the polling thread drains next, given each
    /// ring's pending count: strict priority (`Control` before
    /// `Realtime` before `Bulk`), except that a class which has consumed
    /// its burst budget this round yields to lower classes until the
    /// round resets — so sustained `Control` load bounds, rather than
    /// forbids, lower-class service. Consumes one budget unit of the
    /// returned class.
    pub(crate) fn pick_ring(&mut self, pending: [usize; TrafficClass::COUNT]) -> Option<usize> {
        if pending.iter().all(|&p| p == 0) {
            return None;
        }
        for round in 0..2 {
            for c in 0..TrafficClass::COUNT {
                if pending[c] > 0 && self.taken_in_round[c] < BURST[c] {
                    self.taken_in_round[c] += 1;
                    return Some(c);
                }
            }
            // Every pending class exhausted its budget: new round.
            debug_assert_eq!(round, 0, "fresh round always has budget");
            self.taken_in_round = [0; TrafficClass::COUNT];
        }
        None
    }
}

impl RouterKernel {
    /// The class-aware admission gate, run once per wire arrival before
    /// the frame reaches a receive ring. Classifies the frame, stamps
    /// the class on the packet and in the per-class/per-flow books, and
    /// — on a polled kernel under an active shed level — drops the
    /// frame for zero cycles, recording a typed
    /// [`DropReason::ClassShed`]. Returns `false` when the frame was
    /// shed. On an unmodified kernel only the accounting half runs:
    /// classes are observed, never enforced, which is exactly the
    /// contrast the `chaos --priority` scenario measures.
    pub(super) fn class_admit(&mut self, pkt: &mut Packet) -> bool {
        if self.classes.is_none() {
            return true;
        }
        let polled = self.is_polled();
        let fill = self.bottleneck_fill();
        let Some(ce) = &mut self.classes else {
            return true;
        };
        if polled {
            ce.shed.note_pressure(fill);
        }
        let class = ce.classifier.stamp(pkt);
        let shed = polled && ce.shed.sheds(class);
        self.stats.class_arrival(Some(class));
        if let Some(reg) = &mut self.stats.flows {
            reg.note_class(pkt.flow, class);
        }
        if shed {
            self.stats
                .record_drop_for(DropReason::ClassShed { class }, pkt.flow);
            return false;
        }
        true
    }

    /// Clock-tick hook for the shed controller: feeds it the downstream
    /// bottleneck's fill fraction (screend's input queue when screening
    /// is configured — the paper's slow consumer — otherwise the fullest
    /// output queue) and the online livelock detector's verdict. Only a
    /// polled kernel sheds; on an unmodified kernel the controller never
    /// runs and the admission gate stays open.
    pub(super) fn class_tick(&mut self) {
        if self.classes.is_none() || !self.is_polled() {
            return;
        }
        let fill = self.bottleneck_fill();
        let livelocked = self.detector.as_ref().is_some_and(|d| d.is_livelocked());
        if let Some(ce) = &mut self.classes {
            ce.shed.on_tick(fill, livelocked);
        }
    }

    /// The downstream bottleneck queue's fill fraction: screend's input
    /// queue when screening is configured — the paper's slow consumer —
    /// otherwise the fullest output queue. A stalled or crash-restarting
    /// screend reads as a full queue: its queue may be empty (a crash
    /// flushes it) precisely *because* the consumer is dead, and
    /// reopening the gate then would park a queue of low-class packets
    /// in front of the first post-restart `Control` packet.
    fn bottleneck_fill(&self) -> f64 {
        if self.cfg.screend.is_some() {
            if self.screend_stalled() {
                return 1.0;
            }
            let cap = self.screend_q.capacity().max(1);
            self.screend_q.len() as f64 / cap as f64
        } else {
            self.ifaces
                .iter()
                .map(|i| i.out_q.len() as f64 / i.out_q.capacity().max(1) as f64)
                .fold(0.0, f64::max)
        }
    }

    /// The receive ring the polling thread drains next on interface
    /// `i`: [`ClassEngine::pick_ring`] over the class rings, or ring 0
    /// without classes. Called only while a frame is pending, so the
    /// pick always finds a ring.
    pub(super) fn pick_rx_ring(&mut self, i: usize) -> usize {
        let Some(ce) = &mut self.classes else {
            return 0;
        };
        let nic = &self.ifaces[i].nic;
        ce.pick_ring(std::array::from_fn(|c| nic.rx_ring_len(c)))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks the controller through one minimum-hold window at a
    /// constant reading: the first tick on which a level may move.
    fn hold(s: &mut ShedController, fill_frac: f64, livelocked: bool) {
        for _ in 0..MIN_HOLD_TICKS {
            s.on_tick(fill_frac, livelocked);
        }
    }

    #[test]
    fn shed_controller_escalates_one_level_at_a_time() {
        let mut s = ShedController::default();
        assert_eq!(s.level, 0);
        hold(&mut s, 0.125, false);
        assert_eq!(s.level, 1, "first pressure window sheds Bulk only");
        assert!(s.sheds(TrafficClass::Bulk));
        assert!(!s.sheds(TrafficClass::Realtime));
        hold(&mut s, 0.9, false);
        assert_eq!(s.level, 2);
        assert!(s.sheds(TrafficClass::Realtime));
        assert!(!s.sheds(TrafficClass::Control), "Control is never shed");
        hold(&mut s, 0.9, false);
        assert_eq!(s.level, 2, "level 2 is the ceiling");
    }

    #[test]
    fn shed_controller_hysteresis_band_holds_level() {
        let mut s = ShedController::default();
        hold(&mut s, 0.9, false);
        assert_eq!(s.level, 1);
        // Fill between empty and an eighth: neither pressure nor calm —
        // the level holds.
        for _ in 0..10 {
            s.on_tick(0.1, false);
        }
        assert_eq!(s.level, 1);
        hold(&mut s, 0.0, false);
        assert_eq!(s.level, 0, "calm only at an empty bottleneck");
    }

    #[test]
    fn shed_controller_min_hold_blocks_flapping() {
        let mut s = ShedController::default();
        for _ in 1..MIN_HOLD_TICKS {
            s.on_tick(0.9, false);
            assert_eq!(s.level, 0, "held until the minimum-hold window");
        }
        s.on_tick(0.9, false);
        assert_eq!(s.level, 1);
        // Immediately calm: the new level must also be held.
        for _ in 1..MIN_HOLD_TICKS {
            s.on_tick(0.0, false);
            assert_eq!(s.level, 1);
        }
        s.on_tick(0.0, false);
        assert_eq!(s.level, 0);
    }

    #[test]
    fn note_pressure_escalates_immediately_but_never_de_escalates() {
        let mut s = ShedController::default();
        // No ticks have elapsed: the tick path would hold level 0, but
        // the admission-time path reacts to instantaneous fill at once.
        s.note_pressure(0.9);
        assert_eq!(s.level, 1);
        s.note_pressure(0.9);
        assert_eq!(s.level, 2);
        s.note_pressure(0.9);
        assert_eq!(s.level, 2, "level 2 is the ceiling");
        // Calm fill at admission time does nothing: de-escalation is
        // tick-driven only, and still honours the minimum hold.
        s.note_pressure(0.0);
        assert_eq!(s.level, 2);
        for _ in 1..MIN_HOLD_TICKS {
            s.on_tick(0.0, false);
            assert_eq!(s.level, 2);
        }
        s.on_tick(0.0, false);
        assert_eq!(s.level, 1);
    }

    #[test]
    fn detector_verdict_is_pressure_regardless_of_fill() {
        let mut s = ShedController::default();
        hold(&mut s, 0.0, true);
        assert_eq!(s.level, 1, "livelock verdict alone escalates");
        hold(&mut s, 0.0, false);
        assert_eq!(s.level, 0);
    }

    #[test]
    fn pick_ring_is_strict_priority_with_burst_rotation() {
        let mut ce = ClassEngine::new(&ClassifyConfig::default());
        // All three rings loaded: a burst of Control, then of Realtime,
        // then of Bulk, then the round resets back to Control.
        let picks: Vec<usize> = (0..25)
            .map(|_| ce.pick_ring([100, 100, 100]).unwrap())
            .collect();
        let mut want = Vec::new();
        for (c, &budget) in BURST.iter().enumerate() {
            want.extend(std::iter::repeat_n(c, budget as usize));
        }
        want.push(0);
        assert_eq!(picks, want);
    }

    #[test]
    fn pick_ring_skips_empty_rings_and_idle_is_none() {
        let mut ce = ClassEngine::new(&ClassifyConfig::default());
        assert_eq!(ce.pick_ring([0, 0, 0]), None);
        assert_eq!(ce.pick_ring([0, 0, 3]), Some(2));
        assert_eq!(ce.pick_ring([0, 1, 2]), Some(1));
    }

    #[test]
    fn sole_pending_class_keeps_draining_across_rounds() {
        let mut ce = ClassEngine::new(&ClassifyConfig::default());
        for _ in 0..3 * BURST[0] {
            assert_eq!(ce.pick_ring([5, 0, 0]), Some(0));
        }
    }
}
