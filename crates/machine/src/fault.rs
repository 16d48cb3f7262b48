//! Deterministic, seeded fault injection plans.
//!
//! A [`FaultPlan`] is a list of faults scheduled on *virtual time*: every
//! entry says "at cycle T, inject fault K". The kernel under test turns
//! each entry into an event on its ordinary calendar, so an injected run
//! is exactly as deterministic as a clean one — same plan, same seed,
//! same interleaving, same counters. The plan itself carries no state and
//! draws no randomness while the simulation runs; [`FaultPlan::storm`]
//! spends its RNG entirely at construction time.
//!
//! The kinds cover the failure modes the paper's safety nets exist for:
//! lost and spurious interrupts (the latch/enable protocol), receive-ring
//! descriptor corruption and overrun storms (cheap-drop attribution),
//! clock jitter (the feedback timeout runs off the tick), link flaps
//! (carrier loss on the wire model), in-flight packet mutation (checksum
//! and header validation), and a stalling or crashing user-mode consumer
//! (the watermark feedback's high-water inhibit and its timeout net).

use livelock_sim::{Cycles, Rng};

use crate::cpu::CpuId;

/// One injectable fault.
///
/// Interface indices follow the paper's two-interface router convention:
/// interface 0 receives the offered load, interface 1 transmits it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The next receive interrupt the NIC would post is silently dropped
    /// (a lost edge: work sits latched in the ring with no wakeup).
    LostRxIntr {
        /// Interface whose next receive interrupt is lost.
        iface: usize,
    },
    /// A receive interrupt fires with no frame in the ring (shared-line
    /// noise; handlers must tolerate finding nothing to do).
    SpuriousRxIntr {
        /// Interface that takes the spurious interrupt.
        iface: usize,
    },
    /// The next transmit-done interrupt is silently dropped, leaving
    /// descriptors unreclaimed until something else kicks the driver.
    LostTxIntr {
        /// Interface whose next transmit interrupt is lost.
        iface: usize,
    },
    /// A transmit interrupt fires with nothing to reclaim.
    SpuriousTxIntr {
        /// Interface that takes the spurious interrupt.
        iface: usize,
    },
    /// DMA scribbles over the next received frame's IP header; the
    /// header checksum catches it downstream.
    RxDescriptorCorrupt {
        /// Interface whose next frame is corrupted.
        iface: usize,
    },
    /// A burst of back-to-back minimum-size frames slams the receive
    /// ring faster than the wire could legally deliver them (the
    /// overrun case the ring's cheap drop exists for).
    RxOverrunStorm {
        /// Interface receiving the burst.
        iface: usize,
        /// Number of frames in the burst.
        frames: u16,
    },
    /// The next clock tick arrives early or late by this many cycles
    /// (the feedback timeout and cycle-limit periods run off the tick).
    ClockJitter {
        /// Signed skew applied to the next tick interval.
        // Signed, so not `Cycles` (unsigned, saturating): an exception
        // on the unit-discipline check's allow-list (`lint::ALLOWED`).
        skew_cycles: i64,
    },
    /// Carrier drops on the interface's wire: arriving frames are lost
    /// before the NIC sees them and transmission stalls until the link
    /// returns.
    LinkFlap {
        /// Interface whose link goes down.
        iface: usize,
        /// How long the link stays down.
        down: Cycles,
    },
    /// A single bit of the next received frame's IP header flips in
    /// transit; the IPv4 header checksum must catch it.
    PacketBitFlip {
        /// Interface whose next frame is damaged.
        iface: usize,
    },
    /// The next received frame is truncated mid-header (a runt).
    PacketTruncate {
        /// Interface whose next frame is truncated.
        iface: usize,
    },
    /// The next received frame's version/IHL byte is mangled, feeding
    /// the header parser (and any filter engine behind it) garbage.
    PacketMalformHeader {
        /// Interface whose next frame is mangled.
        iface: usize,
    },
    /// The screend process stops being scheduled for this many clock
    /// ticks (a stuck consumer: its queue backs up, the watermark
    /// feedback inhibits input, and only the timeout net resumes it).
    ScreendStall {
        /// Ticks the process stays stalled.
        ticks: u32,
    },
    /// The screend process dies, losing every packet queued to it, and
    /// restarts after a backoff of this many ticks.
    ScreendCrash {
        /// Ticks before the restarted process runs again.
        restart_ticks: u32,
    },
}

impl FaultKind {
    /// Short stable name for markers, tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LostRxIntr { .. } => "lost-rx-intr",
            FaultKind::SpuriousRxIntr { .. } => "spurious-rx-intr",
            FaultKind::LostTxIntr { .. } => "lost-tx-intr",
            FaultKind::SpuriousTxIntr { .. } => "spurious-tx-intr",
            FaultKind::RxDescriptorCorrupt { .. } => "rx-descriptor-corrupt",
            FaultKind::RxOverrunStorm { .. } => "rx-overrun-storm",
            FaultKind::ClockJitter { .. } => "clock-jitter",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::PacketBitFlip { .. } => "packet-bit-flip",
            FaultKind::PacketTruncate { .. } => "packet-truncate",
            FaultKind::PacketMalformHeader { .. } => "packet-malform-header",
            FaultKind::ScreendStall { .. } => "screend-stall",
            FaultKind::ScreendCrash { .. } => "screend-crash",
        }
    }
}

/// One scheduled fault: inject `kind` when virtual time reaches `at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Injection time, in cycles.
    pub at: Cycles,
    /// What to inject.
    pub kind: FaultKind,
}

/// A schedule of faults, sorted by injection time.
///
/// An empty plan is the default and injects nothing: a kernel built with
/// it schedules no fault events, draws no randomness, and runs
/// byte-identically to one built without a plan at all.
///
/// A plan also names the CPU it targets. On a single-CPU machine the
/// target is always [`CpuId(0)`](CpuId); an SMP trial injects the plan
/// only into the targeted CPU's kernel.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    target: CpuId,
}

/// Mean faults per unit of storm intensity (see [`FaultPlan::storm`]).
const STORM_EVENTS_PER_UNIT: f64 = 48.0;

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Adds one fault, keeping the plan sorted by time.
    pub fn push(&mut self, at: Cycles, kind: FaultKind) -> &mut Self {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
        self
    }

    /// The scheduled faults, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The CPU this plan targets ([`CpuId(0)`](CpuId) by default).
    pub fn target(&self) -> CpuId {
        self.target
    }

    /// Retargets the plan at `cpu` (builder style).
    pub fn on_cpu(mut self, cpu: CpuId) -> Self {
        self.target = cpu;
        self
    }

    /// Generates a seeded fault storm: roughly
    /// `48 * intensity` faults of every kind, uniformly spread over
    /// `[start, end)`, on the two-interface router topology (receive
    /// faults on interface 0, transmit faults on interface 1). The same
    /// `(seed, intensity, window)` always yields the same plan; an
    /// intensity of `0.0` yields an empty plan.
    pub fn storm(seed: u64, intensity: f64, start: Cycles, end: Cycles) -> Self {
        assert!(intensity >= 0.0, "intensity must be non-negative");
        assert!(end > start, "storm window must be nonempty");
        let n = (STORM_EVENTS_PER_UNIT * intensity).round() as usize;
        let mut rng = Rng::seed_from(seed);
        let mut plan = FaultPlan::new();
        let span = (end - start).raw();
        for _ in 0..n {
            let at = start + Cycles::new(rng.next_below(span));
            let kind = match rng.next_below(13) {
                0 => FaultKind::LostRxIntr { iface: 0 },
                1 => FaultKind::SpuriousRxIntr { iface: 0 },
                2 => FaultKind::LostTxIntr { iface: 1 },
                3 => FaultKind::SpuriousTxIntr { iface: 1 },
                4 => FaultKind::RxDescriptorCorrupt { iface: 0 },
                5 => FaultKind::RxOverrunStorm {
                    iface: 0,
                    frames: rng.range_inclusive(8, 40) as u16,
                },
                6 => FaultKind::ClockJitter {
                    // Up to half a tick early or late at the calibrated
                    // 100 MHz / 1 ms tick.
                    skew_cycles: rng.range_inclusive(0, 100_000) as i64 - 50_000,
                },
                7 => FaultKind::LinkFlap {
                    iface: 0,
                    // 0.5 - 2 ms of carrier loss at 100 MHz.
                    down: Cycles::new(rng.range_inclusive(50_000, 200_000)),
                },
                8 => FaultKind::PacketBitFlip { iface: 0 },
                9 => FaultKind::PacketTruncate { iface: 0 },
                10 => FaultKind::PacketMalformHeader { iface: 0 },
                11 => FaultKind::ScreendStall {
                    ticks: rng.range_inclusive(2, 6) as u32,
                },
                _ => FaultKind::ScreendCrash {
                    restart_ticks: rng.range_inclusive(2, 8) as u32,
                },
            };
            plan.push(at, kind);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn push_keeps_time_order() {
        let mut p = FaultPlan::new();
        p.push(Cycles::new(300), FaultKind::SpuriousRxIntr { iface: 0 });
        p.push(Cycles::new(100), FaultKind::LostRxIntr { iface: 0 });
        p.push(Cycles::new(200), FaultKind::ClockJitter { skew_cycles: 5 });
        let times: Vec<u64> = p.events().iter().map(|e| e.at.raw()).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut p = FaultPlan::new();
        p.push(Cycles::new(100), FaultKind::LostRxIntr { iface: 0 });
        p.push(Cycles::new(100), FaultKind::LostTxIntr { iface: 1 });
        assert_eq!(
            p.events()[0].kind,
            FaultKind::LostRxIntr { iface: 0 },
            "first pushed first"
        );
    }

    #[test]
    fn storm_is_deterministic() {
        let a = FaultPlan::storm(42, 1.0, Cycles::new(0), Cycles::new(1_000_000));
        let b = FaultPlan::storm(42, 1.0, Cycles::new(0), Cycles::new(1_000_000));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn storm_scales_with_intensity() {
        let lo = FaultPlan::storm(7, 0.5, Cycles::new(0), Cycles::new(1_000_000));
        let hi = FaultPlan::storm(7, 4.0, Cycles::new(0), Cycles::new(1_000_000));
        assert!(hi.len() > lo.len());
        assert_eq!(
            FaultPlan::storm(7, 0.0, Cycles::new(0), Cycles::new(1_000_000)).len(),
            0,
            "zero intensity is an empty plan"
        );
    }

    #[test]
    fn storm_stays_inside_the_window() {
        let p = FaultPlan::storm(9, 4.0, Cycles::new(500), Cycles::new(9_000));
        for e in p.events() {
            assert!(e.at >= Cycles::new(500) && e.at < Cycles::new(9_000));
        }
        // Sorted by construction.
        assert!(p.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::storm(1, 2.0, Cycles::new(0), Cycles::new(1_000_000));
        let b = FaultPlan::storm(2, 2.0, Cycles::new(0), Cycles::new(1_000_000));
        assert_ne!(a, b);
    }

    #[test]
    fn plans_target_cpu0_unless_retargeted() {
        let p = FaultPlan::storm(42, 1.0, Cycles::new(0), Cycles::new(1_000_000));
        assert_eq!(p.target(), CpuId(0));
        let p = p.on_cpu(CpuId(2));
        assert_eq!(p.target(), CpuId(2));
        // Retargeting changes identity (it selects a different kernel).
        assert_ne!(
            p,
            FaultPlan::storm(42, 1.0, Cycles::new(0), Cycles::new(1_000_000))
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::LostRxIntr { iface: 0 }.label(), "lost-rx-intr");
        assert_eq!(
            FaultKind::ScreendCrash { restart_ticks: 3 }.label(),
            "screend-crash"
        );
    }
}
