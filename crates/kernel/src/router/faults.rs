//! Deterministic fault injection: the kernel-side state armed by
//! scheduled [`FaultKind`] events, and the recovery machinery the
//! faults exercise.
//!
//! Everything in this module is gated on `RouterKernel::fault` being
//! `Some`, which only happens when the configuration carries a
//! non-empty [`FaultPlan`]. A fault-free run takes none of these paths
//! and is bit-for-bit identical to a build without the module.
//!
//! [`FaultPlan`]: livelock_machine::fault::FaultPlan

use livelock_core::watchdog::GateWatchdog;
use livelock_net::mutate::Mutation;
use livelock_net::packet::PacketId;

use super::*;

/// Synthesized overrun-storm frames draw ids from this reserved range
/// (distinct from the reply, ICMP, and ARP ranges).
const STORM_ID_BASE: u64 = u64::MAX / 3;

/// Ticks a nonzero gate bitmask may persist unchanged before the
/// recovery watchdog force-clears it. Large enough that the feedback
/// timeout (one tick) and cycle-limit period always get there first on
/// a healthy system.
const GATE_WATCHDOG_BOUND: u32 = 16;

/// Live fault-injection state: one-shot flags armed by scheduled
/// [`FaultKind`]s and consumed by the normal event path, plus the
/// recovery watchdog and the trace markers.
pub(super) struct FaultState {
    /// One-shot per interface: swallow the next receive-interrupt post.
    pub(super) lost_rx: Vec<bool>,
    /// One-shot per interface: swallow the next transmit-interrupt post.
    pub(super) lost_tx: Vec<bool>,
    /// Armed mutation applied to the next frame arriving on the
    /// interface.
    pub(super) pending_mutation: Vec<Option<Mutation>>,
    /// Frames arriving on the interface before this instant are lost on
    /// the wire (link flap), before the NIC sees them.
    pub(super) link_down_until: Vec<Cycles>,
    /// Signed skew applied once to the next clock-pulse reschedule.
    pub(super) pending_clock_skew: i64,
    /// screend refuses to run until this clock-tick count (stall, or
    /// post-crash restart backoff).
    pub(super) screend_stalled_until: Option<u64>,
    /// Detects an inhibit bitmask stuck unchanged across ticks.
    pub(super) gate_watchdog: GateWatchdog,
    /// Sequence counter for synthesized storm-frame packet ids.
    pub(super) storm_seq: u64,
    /// Chrome-trace instant markers: every injection and recovery.
    pub(super) markers: Vec<(Cycles, String)>,
}

impl FaultState {
    pub(super) fn new(num_ifaces: usize) -> Self {
        // The polling thread legitimately holds PollingActive for the
        // length of a callback; the watchdog may clear everything else.
        let clearable = !(1u8 << InhibitReason::PollingActive.bit_index());
        FaultState {
            lost_rx: vec![false; num_ifaces],
            lost_tx: vec![false; num_ifaces],
            pending_mutation: vec![None; num_ifaces],
            link_down_until: vec![Cycles::ZERO; num_ifaces],
            pending_clock_skew: 0,
            screend_stalled_until: None,
            gate_watchdog: GateWatchdog::new(GATE_WATCHDOG_BOUND, clearable),
            storm_seq: 0,
            markers: Vec::new(),
        }
    }
}

impl RouterKernel {
    /// Executes one scheduled fault. Either the fault arms a one-shot
    /// flag that the normal event path consumes, or it acts
    /// immediately; every injection is counted and leaves a trace
    /// marker.
    pub(super) fn apply_fault(&mut self, env: &mut Env<'_, Event>, kind: FaultKind) {
        if self.fault.is_none() {
            return;
        }
        let now = env.now();
        let nif = self.ifaces.len();
        self.stats.fault.injected += 1;
        if let Some(f) = self.fault.as_mut() {
            f.markers.push((now, format!("fault: {}", kind.label())));
        }
        match kind {
            FaultKind::LostRxIntr { iface } => {
                if let Some(f) = self.fault.as_mut() {
                    f.lost_rx[iface % nif] = true;
                }
            }
            FaultKind::LostTxIntr { iface } => {
                if let Some(f) = self.fault.as_mut() {
                    f.lost_tx[iface % nif] = true;
                }
            }
            FaultKind::SpuriousRxIntr { iface } => {
                self.stats.fault.spurious_intrs += 1;
                env.post_intr(self.ifaces[iface % nif].rx_src);
            }
            FaultKind::SpuriousTxIntr { iface } => {
                self.stats.fault.spurious_intrs += 1;
                env.post_intr(self.ifaces[iface % nif].tx_src);
            }
            FaultKind::RxDescriptorCorrupt { iface } => {
                self.arm_mutation(iface % nif, Mutation::Scribble);
            }
            FaultKind::PacketBitFlip { iface } => {
                self.arm_mutation(iface % nif, Mutation::BitFlip);
            }
            FaultKind::PacketTruncate { iface } => {
                self.arm_mutation(iface % nif, Mutation::Truncate);
            }
            FaultKind::PacketMalformHeader { iface } => {
                self.arm_mutation(iface % nif, Mutation::MalformHeader);
            }
            FaultKind::RxOverrunStorm { iface, frames } => {
                let i = iface % nif;
                let base = self.fault.as_mut().map_or(0, |f| {
                    let b = f.storm_seq;
                    f.storm_seq += u64::from(frames);
                    b
                });
                // Garbage frames delivered through the normal arrival
                // path: they are counted as arrivals and end as ring
                // overflows or header-checksum drops, so the
                // conservation ledger still balances.
                for k in 0..u64::from(frames) {
                    let frame = self.alloc_frame(60);
                    let pkt = Packet::from_frame(PacketId(STORM_ID_BASE + base + k), frame);
                    self.stats.fault.storm_frames += 1;
                    self.rx_arrive(env, i, pkt);
                }
            }
            FaultKind::ClockJitter { skew_cycles } => {
                self.stats.fault.clock_jitters += 1;
                if let Some(f) = self.fault.as_mut() {
                    f.pending_clock_skew = skew_cycles;
                }
            }
            FaultKind::LinkFlap { iface, down } => {
                let i = iface % nif;
                let until = now + down;
                self.stats.fault.link_flaps += 1;
                if let Some(f) = self.fault.as_mut() {
                    f.link_down_until[i] = f.link_down_until[i].max(until);
                }
                // The transmit side of the same flap: the wire refuses
                // to finish serializing until the carrier returns.
                self.ifaces[i].wire.force_carrier_loss(until);
            }
            FaultKind::ScreendStall { ticks } => {
                self.stats.fault.screend_stalls += 1;
                let until = self.stats.ticks + u64::from(ticks);
                if let Some(f) = self.fault.as_mut() {
                    f.screend_stalled_until =
                        Some(f.screend_stalled_until.map_or(until, |u| u.max(until)));
                }
            }
            FaultKind::ScreendCrash { restart_ticks } => {
                self.stats.fault.screend_crashes += 1;
                // The crash loses every queued packet...
                while let Some((_, pkt)) = self.screend_q.dequeue() {
                    self.stats.fault.crash_flushed += 1;
                    self.stats
                        .record_drop_for(DropReason::ScreendQueueFull, pkt.flow);
                }
                // ...and the restart backoff leaves the consumer dead
                // while the feedback gate may still be inhibited at the
                // high-water mark — exactly the wedge the timeout
                // safety net exists for.
                let until = self.stats.ticks + u64::from(restart_ticks);
                if let Some(f) = self.fault.as_mut() {
                    f.screend_stalled_until =
                        Some(f.screend_stalled_until.map_or(until, |u| u.max(until)));
                }
            }
        }
    }

    fn arm_mutation(&mut self, i: usize, m: Mutation) {
        if let Some(f) = self.fault.as_mut() {
            f.pending_mutation[i] = Some(m);
        }
    }

    /// True (once) when an armed lost-receive-interrupt fault swallows
    /// the interrupt post for interface `i`.
    pub(super) fn consume_lost_rx_intr(&mut self, i: usize) -> bool {
        if let Some(f) = &mut self.fault {
            if f.lost_rx[i] {
                f.lost_rx[i] = false;
                self.stats.fault.lost_intrs += 1;
                return true;
            }
        }
        false
    }

    /// Transmit-side twin of [`Self::consume_lost_rx_intr`].
    pub(super) fn consume_lost_tx_intr(&mut self, i: usize) -> bool {
        if let Some(f) = &mut self.fault {
            if f.lost_tx[i] {
                f.lost_tx[i] = false;
                self.stats.fault.lost_intrs += 1;
                return true;
            }
        }
        false
    }

    /// Whether screend is currently stalled or crash-restarting.
    pub(super) fn screend_stalled(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.screend_stalled_until.is_some())
    }

    /// Per-tick recovery work, run from the clock handler only in fault
    /// mode: screend restart after a stall/crash backoff, the gate
    /// watchdog that force-clears a stuck inhibit mask, and the driver
    /// watchdog that reposts interrupts for latched-but-unserviced
    /// device work (the repair for lost interrupts).
    pub(super) fn fault_tick(&mut self, env: &mut Env<'_, Event>) {
        if self.fault.is_none() {
            return;
        }
        let now = env.now();
        let (mut restarted, mut stuck) = (false, 0u8);
        if let Some(f) = self.fault.as_mut() {
            if let Some(until) = f.screend_stalled_until {
                if self.stats.ticks >= until {
                    f.screend_stalled_until = None;
                    restarted = true;
                }
            }
            if let Some(bits) = f.gate_watchdog.on_tick(self.gate.bits()) {
                stuck = bits;
            }
        }
        if restarted {
            self.stats.fault.stall_recoveries += 1;
            if let Some(f) = self.fault.as_mut() {
                f.markers.push((now, "recover: screend-restart".to_string()));
            }
            if !self.screend_q.is_empty() {
                if let Some(tid) = self.screend_tid {
                    env.wake(tid);
                }
            }
        }
        if stuck != 0 {
            self.stats.fault.watchdog_unwedges += 1;
            if let Some(f) = self.fault.as_mut() {
                f.markers.push((now, format!("recover: gate-unwedge bits={stuck:#04x}")));
            }
            for &r in InhibitReason::ALL.iter() {
                if r != InhibitReason::PollingActive && stuck & (1 << r.bit_index()) != 0 {
                    self.resume_input(env, r);
                }
            }
        }
        for i in 0..self.ifaces.len() {
            let nic = &self.ifaces[i].nic;
            if nic.rx_intr_enabled() && nic.rx_pending() > 0 && !self.rx_intr_deferred[i] {
                self.stats.fault.intr_reposts += 1;
                env.post_intr(self.ifaces[i].rx_src);
            }
            let nic = &self.ifaces[i].nic;
            if nic.tx_intr_enabled() && nic.tx_unreclaimed() > 0 {
                self.stats.fault.intr_reposts += 1;
                env.post_intr(self.ifaces[i].tx_src);
            }
        }
    }
}
