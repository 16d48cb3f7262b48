//! The interrupt gate: multi-reason inhibit / re-enable bookkeeping.
//!
//! Several independent mechanisms in the modified kernel want receive
//! interrupts (and receive polling) off: the polling thread while it has
//! work pending, queue-state feedback while a downstream queue is congested,
//! and the cycle limiter when packet processing exceeded its CPU share.
//! Interrupts may be re-enabled only when *no* mechanism still objects.
//! [`IntrGate`] centralizes that conjunction so no code path can re-enable
//! input while another subsystem still requires it off — the classic bug in
//! hand-rolled implementations.

/// Why input processing is currently inhibited. Reasons are independent
/// bits; the gate is open only when none are set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InhibitReason {
    /// The polling thread is active; interrupts stay off until it finishes
    /// (paper §6.4: the handler "does not set the device's interrupt-enable
    /// flag ... until the polling thread has processed all of the pending
    /// packets").
    PollingActive,
    /// Queue-state feedback: a downstream queue passed its high-water mark
    /// (paper §6.6.1).
    QueueFeedback,
    /// The CPU-cycle limiter: packet processing used its share of the
    /// current period (paper §7).
    CycleLimit,
    /// Queue-state feedback from a local socket / packet-filter queue —
    /// the paper suggests applying the same technique "to other queues in
    /// the system" (§6.6.1).
    SocketFeedback,
    /// The progress watchdog detected consumer starvation (§5.1's
    /// "user code making no progress" trigger).
    Watchdog,
    /// Explicit administrative disable (e.g. a user turned the interface
    /// off).
    Admin,
}

impl InhibitReason {
    const COUNT: usize = 6;

    /// The reason's position in the [`IntrGate::bits`] bitmask (bit 0 =
    /// `PollingActive` ... bit 5 = `Admin`, in [`InhibitReason::ALL`]
    /// order). Stable: telemetry encodes gate state as this bitmask.
    pub const fn bit_index(self) -> u8 {
        match self {
            InhibitReason::PollingActive => 0,
            InhibitReason::QueueFeedback => 1,
            InhibitReason::CycleLimit => 2,
            InhibitReason::SocketFeedback => 3,
            InhibitReason::Watchdog => 4,
            InhibitReason::Admin => 5,
        }
    }

    fn bit(self) -> u8 {
        1 << self.bit_index()
    }

    /// All reasons, for iteration in tests and diagnostics.
    pub const ALL: [InhibitReason; InhibitReason::COUNT] = [
        InhibitReason::PollingActive,
        InhibitReason::QueueFeedback,
        InhibitReason::CycleLimit,
        InhibitReason::SocketFeedback,
        InhibitReason::Watchdog,
        InhibitReason::Admin,
    ];
}

/// What an inhibit/allow call changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateChange {
    /// The gate just closed (was open before this call).
    Closed,
    /// The gate just opened (all reasons now clear) — the caller should
    /// re-enable device receive interrupts.
    Opened,
    /// No edge: the gate stays in its previous state.
    Unchanged,
}

/// Tracks the set of reasons input is inhibited for one device (or for the
/// whole input path).
///
/// # Examples
///
/// ```
/// use livelock_core::gate::{GateChange, InhibitReason, IntrGate};
///
/// let mut g = IntrGate::new();
/// assert!(g.is_open());
/// assert_eq!(g.inhibit(InhibitReason::PollingActive), GateChange::Closed);
/// assert_eq!(g.inhibit(InhibitReason::QueueFeedback), GateChange::Unchanged);
/// // Clearing one reason is not enough...
/// assert_eq!(g.allow(InhibitReason::PollingActive), GateChange::Unchanged);
/// // ...only clearing the last one opens the gate.
/// assert_eq!(g.allow(InhibitReason::QueueFeedback), GateChange::Opened);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntrGate {
    reasons: u8,
}

impl IntrGate {
    /// Creates an open gate (no inhibit reasons).
    pub const fn new() -> Self {
        IntrGate { reasons: 0 }
    }

    /// Returns `true` when no reason is set: interrupts may be enabled.
    pub const fn is_open(self) -> bool {
        self.reasons == 0
    }

    /// Returns `true` when `reason` is currently asserted.
    pub fn holds(self, reason: InhibitReason) -> bool {
        self.reasons & reason.bit() != 0
    }

    /// Asserts an inhibit reason. Idempotent.
    pub fn inhibit(&mut self, reason: InhibitReason) -> GateChange {
        let was_open = self.is_open();
        self.reasons |= reason.bit();
        if was_open {
            GateChange::Closed
        } else {
            GateChange::Unchanged
        }
    }

    /// Clears an inhibit reason. Idempotent. Returns [`GateChange::Opened`]
    /// exactly when this call cleared the last standing reason.
    pub fn allow(&mut self, reason: InhibitReason) -> GateChange {
        let was_open = self.is_open();
        self.reasons &= !reason.bit();
        if !was_open && self.is_open() {
            GateChange::Opened
        } else {
            GateChange::Unchanged
        }
    }

    /// The asserted reasons as a bitmask ([`InhibitReason::bit_index`]
    /// gives each reason's bit). Zero means the gate is open. This is the
    /// encoding the telemetry sampler records, so a timeline can show
    /// *why* input was inhibited at each instant, not just that it was.
    pub const fn bits(self) -> u8 {
        self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_open() {
        let g = IntrGate::new();
        assert!(g.is_open());
        assert_eq!(g.bits(), 0);
    }

    #[test]
    fn single_reason_cycle() {
        let mut g = IntrGate::new();
        assert_eq!(g.inhibit(InhibitReason::CycleLimit), GateChange::Closed);
        assert!(!g.is_open());
        assert!(g.holds(InhibitReason::CycleLimit));
        assert_eq!(g.allow(InhibitReason::CycleLimit), GateChange::Opened);
        assert!(g.is_open());
    }

    #[test]
    fn inhibit_is_idempotent() {
        let mut g = IntrGate::new();
        assert_eq!(g.inhibit(InhibitReason::Admin), GateChange::Closed);
        assert_eq!(g.inhibit(InhibitReason::Admin), GateChange::Unchanged);
        assert_eq!(g.allow(InhibitReason::Admin), GateChange::Opened);
        assert_eq!(g.allow(InhibitReason::Admin), GateChange::Unchanged);
    }

    #[test]
    fn gate_opens_only_when_all_reasons_clear() {
        let mut g = IntrGate::new();
        for r in InhibitReason::ALL {
            g.inhibit(r);
        }
        let mut opened = 0;
        for r in InhibitReason::ALL {
            if g.allow(r) == GateChange::Opened {
                opened += 1;
            }
        }
        assert_eq!(opened, 1, "exactly one allow() reports the opening edge");
        assert!(g.is_open());
    }

    #[test]
    fn bits_match_indices_and_active_set() {
        let mut g = IntrGate::new();
        assert_eq!(g.bits(), 0);
        g.inhibit(InhibitReason::QueueFeedback);
        g.inhibit(InhibitReason::Watchdog);
        assert_eq!(g.bits(), (1 << 1) | (1 << 4));
        for (i, r) in InhibitReason::ALL.into_iter().enumerate() {
            assert_eq!(r.bit_index() as usize, i, "ALL order matches indices");
        }
    }

    proptest! {
        /// The central safety property: after any sequence of operations,
        /// the gate is open iff the model set of standing reasons is empty,
        /// and `Opened` is reported exactly on the closing-to-open edges.
        #[test]
        fn matches_set_model(ops in proptest::collection::vec((0usize..6, any::<bool>()), 0..200)) {
            let mut g = IntrGate::new();
            let mut model = [false; 6];
            for (idx, assert_op) in ops {
                let r = InhibitReason::ALL[idx];
                let was_open = !model.iter().any(|&b| b);
                let change = if assert_op {
                    model[idx] = true;
                    g.inhibit(r)
                } else {
                    model[idx] = false;
                    g.allow(r)
                };
                let now_open = !model.iter().any(|&b| b);
                prop_assert_eq!(g.is_open(), now_open);
                prop_assert_eq!(g.holds(r), model[idx]);
                let expect = match (was_open, now_open) {
                    (true, false) => GateChange::Closed,
                    (false, true) => GateChange::Opened,
                    _ => GateChange::Unchanged,
                };
                prop_assert_eq!(change, expect);
            }
        }
    }
}
