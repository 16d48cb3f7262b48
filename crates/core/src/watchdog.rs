//! Supervision for the interrupt gate the paper's mechanisms share: each
//! inhibits input for a reason and clears it itself, unless fault
//! injection (DESIGN.md §7) kills it first.

/// Last-resort un-wedger for the interrupt gate itself.
///
/// Every [`gate::InhibitReason`](crate::gate::InhibitReason) has an owner
/// that is supposed to clear it: the feedback controller, the cycle
/// limiter, the polling thread. Fault injection (and real life) can kill
/// an owner *after* it asserted its reason — a crashed consumer whose
/// feedback never sees another dequeue, a poller wedged by a lost
/// interrupt — leaving the gate closed forever. This watchdog watches the
/// gate's reason bitmask across clock ticks; when the same nonzero mask
/// persists unchanged for a full bound, it reports the stuck reasons so
/// the kernel can force-clear them. A healthy system never trips it: any
/// live owner changes the mask (or opens the gate) well inside the bound.
///
/// Reasons whose bit is outside `clearable` (typically `PollingActive`,
/// which the polling thread clears synchronously) are never reported.
#[derive(Clone, Copy, Debug)]
pub struct GateWatchdog {
    bound_ticks: u32,
    clearable: u8,
    last_bits: u8,
    ticks_same: u32,
    unwedges: u64,
}

impl GateWatchdog {
    /// Creates a watchdog that trips after `bound_ticks` consecutive ticks
    /// of an unchanged nonzero reason mask. Only bits in `clearable` are
    /// ever reported stuck.
    ///
    /// # Panics
    ///
    /// Panics if `bound_ticks` is zero.
    pub fn new(bound_ticks: u32, clearable: u8) -> Self {
        assert!(bound_ticks > 0, "bound must be at least one tick");
        GateWatchdog {
            bound_ticks,
            clearable,
            last_bits: 0,
            ticks_same: 0,
            unwedges: 0,
        }
    }

    /// Clock tick: observes the gate's current reason bitmask. Returns the
    /// stuck clearable reasons when the same nonzero mask has now persisted
    /// for the full bound; the caller must force-clear them.
    pub fn on_tick(&mut self, bits: u8) -> Option<u8> {
        if bits == 0 || bits != self.last_bits {
            self.last_bits = bits;
            self.ticks_same = 0;
            return None;
        }
        self.ticks_same += 1;
        if self.ticks_same >= self.bound_ticks {
            self.ticks_same = 0;
            let stuck = bits & self.clearable;
            if stuck != 0 {
                self.unwedges += 1;
                return Some(stuck);
            }
        }
        None
    }

    /// How many times the watchdog had to force-clear stuck reasons.
    pub fn unwedges(&self) -> u64 {
        self.unwedges
    }
}

#[cfg(test)]
mod gate_watchdog_tests {
    use super::*;
    use crate::gate::InhibitReason;
    use crate::gate::IntrGate;
    use proptest::prelude::*;

    /// Everything but `PollingActive` (bit 0), as the kernel configures it.
    const CLEARABLE: u8 = !(1u8 << 0);

    #[test]
    fn open_gate_never_trips() {
        let mut wd = GateWatchdog::new(3, CLEARABLE);
        for _ in 0..100 {
            assert_eq!(wd.on_tick(0), None);
        }
        assert_eq!(wd.unwedges(), 0);
    }

    #[test]
    fn stuck_mask_trips_after_the_bound() {
        let mut wd = GateWatchdog::new(3, CLEARABLE);
        let bits = 1 << InhibitReason::QueueFeedback.bit_index();
        assert_eq!(wd.on_tick(bits), None, "tick 0 establishes the baseline");
        assert_eq!(wd.on_tick(bits), None);
        assert_eq!(wd.on_tick(bits), None);
        assert_eq!(wd.on_tick(bits), Some(bits), "third unchanged tick trips");
        assert_eq!(wd.unwedges(), 1);
    }

    #[test]
    fn changing_mask_resets_the_clock() {
        let mut wd = GateWatchdog::new(2, CLEARABLE);
        let a = 1 << InhibitReason::QueueFeedback.bit_index();
        let b = a | (1 << InhibitReason::CycleLimit.bit_index());
        assert_eq!(wd.on_tick(a), None);
        assert_eq!(wd.on_tick(a), None);
        assert_eq!(wd.on_tick(b), None, "mask changed: owner is alive");
        assert_eq!(wd.on_tick(b), None);
        assert_eq!(wd.on_tick(b), Some(b));
    }

    #[test]
    fn non_clearable_reasons_are_never_reported() {
        let mut wd = GateWatchdog::new(1, CLEARABLE);
        let polling = 1 << InhibitReason::PollingActive.bit_index();
        assert_eq!(wd.on_tick(polling), None);
        for _ in 0..10 {
            assert_eq!(wd.on_tick(polling), None, "polling bit is not ours");
        }
        let mixed = polling | (1 << InhibitReason::Admin.bit_index());
        assert_eq!(wd.on_tick(mixed), None);
        assert_eq!(
            wd.on_tick(mixed),
            Some(1 << InhibitReason::Admin.bit_index()),
            "only the clearable part is reported"
        );
    }

    #[test]
    #[should_panic(expected = "bound must be at least one tick")]
    fn zero_bound_is_rejected() {
        let _ = GateWatchdog::new(0, CLEARABLE);
    }

    /// Applies a stuck mask to a gate the way the kernel does: force-clear
    /// every reported reason.
    fn force_clear(g: &mut IntrGate, stuck: u8) {
        for r in InhibitReason::ALL {
            if stuck & (1 << r.bit_index()) != 0 {
                g.allow(r);
            }
        }
    }

    proptest! {
        /// The tentpole recovery guarantee: from ANY reachable inhibit set
        /// whose owners then die (no further inhibit/allow calls), a gate
        /// supervised by the watchdog re-opens within `bound + 1` ticks.
        #[test]
        fn any_reachable_inhibit_set_unwedges_within_the_bound(
            ops in proptest::collection::vec((1usize..6, any::<bool>()), 0..100),
            bound in 1u32..8,
        ) {
            let mut g = IntrGate::new();
            for (idx, assert_op) in ops {
                let r = InhibitReason::ALL[idx];
                if assert_op { g.inhibit(r); } else { g.allow(r); }
            }
            let mut wd = GateWatchdog::new(bound, CLEARABLE);
            let mut ticks = 0u32;
            while !g.is_open() {
                ticks += 1;
                prop_assert!(
                    ticks <= bound + 1,
                    "gate still closed after {} ticks (bound {})", ticks, bound
                );
                if let Some(stuck) = wd.on_tick(g.bits()) {
                    force_clear(&mut g, stuck);
                }
            }
        }

        /// Under arbitrary interleavings of owner activity and clock
        /// ticks, any window of `bound + 1` consecutive quiet ticks ends
        /// with the gate open — the watchdog needs no cooperation from
        /// the (possibly dead) owners.
        #[test]
        fn quiet_windows_always_end_open(
            script in proptest::collection::vec((0usize..8, any::<bool>()), 0..200),
            bound in 1u32..6,
        ) {
            // Steps with idx >= 5 are clock ticks (~3 in 8); the rest are
            // owner inhibit/allow calls on reasons 1..=5.
            let mut g = IntrGate::new();
            let mut wd = GateWatchdog::new(bound, CLEARABLE);
            let mut quiet = 0u32;
            for (idx, assert_op) in script {
                if idx >= 5 {
                    quiet += 1;
                    if let Some(stuck) = wd.on_tick(g.bits()) {
                        force_clear(&mut g, stuck);
                    }
                    if quiet > bound {
                        prop_assert!(
                            g.is_open(),
                            "{} quiet ticks but gate bits {:#04x}", quiet, g.bits()
                        );
                    }
                } else {
                    quiet = 0;
                    let r = InhibitReason::ALL[idx + 1];
                    if assert_op { g.inhibit(r); } else { g.allow(r); }
                }
            }
        }

        /// The feedback controller's own bound, composed the same way:
        /// however the depth wanders, once depth reports stop (stuck
        /// consumer) the controller is never inhibited for more than
        /// `timeout` consecutive ticks.
        #[test]
        fn feedback_inhibition_outlives_no_timeout(
            depths in proptest::collection::vec(0usize..=32, 0..100),
            timeout in 1u32..5,
        ) {
            use crate::feedback::WatermarkFeedback;
            let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, timeout);
            for d in depths {
                fb.on_depth(d);
            }
            let mut ticks = 0u32;
            while fb.is_inhibited() {
                ticks += 1;
                prop_assert!(ticks <= timeout, "inhibited past the timeout");
                fb.on_tick();
            }
        }
    }
}
