//! Input gating: queue-state feedback, inhibit/resume edges, and the
//! interrupt-enable invariant.

use super::*;

impl RouterKernel {
    pub(super) fn feedback_depth(&mut self, env: &mut Env<'_, Event>, depth: usize) {
        let Some(fb) = &mut self.feedback else {
            return;
        };
        match fb.on_depth(depth) {
            Some(FeedbackSignal::Inhibit) => self.inhibit_input(env, InhibitReason::QueueFeedback),
            Some(FeedbackSignal::Resume) => self.resume_input(env, InhibitReason::QueueFeedback),
            None => {}
        }
    }

    pub(super) fn inhibit_input(&mut self, env: &mut Env<'_, Event>, reason: InhibitReason) {
        if self.gate.inhibit(reason) == GateChange::Closed {
            self.poller.set_rx_inhibited(true);
            for i in 0..self.ifaces.len() {
                let iface = &mut self.ifaces[i];
                iface.nic.set_rx_intr_enabled(false);
                env.set_intr_enabled(iface.rx_src, false);
            }
        }
    }

    pub(super) fn resume_input(&mut self, env: &mut Env<'_, Event>, reason: InhibitReason) {
        if self.gate.allow(reason) == GateChange::Opened {
            self.poller.set_rx_inhibited(false);
            self.sync_intrs(env);
            if self.poller.any_serviceable() {
                if let Some(tid) = self.poll_tid {
                    env.wake(tid);
                }
            }
        }
    }

    /// The interrupt-enable invariant for interface `i`, as `(rx, tx)`:
    /// receive interrupts on iff the gate is open and the device has no
    /// pending receive poll; transmit interrupts on iff no pending
    /// transmit poll.
    fn wanted_intrs(&self, i: usize) -> (bool, bool) {
        let sid = self.ifaces[i].poll_sid;
        (
            self.gate.is_open() && !self.poller.is_pending(sid, PollDirection::Receive),
            !self.poller.is_pending(sid, PollDirection::Transmit),
        )
    }

    /// Whether every interface's device enable flags already hold the
    /// invariant [`Self::sync_intrs`] establishes (every writer sets the
    /// interrupt controller's mask in step with them). A ring holding
    /// frames behind a masked receive interrupt with no poll pending is a
    /// wakeup lost for good; this is how it shows.
    pub(super) fn intrs_in_sync(&self) -> bool {
        (0..self.ifaces.len()).all(|i| {
            let nic = &self.ifaces[i].nic;
            self.wanted_intrs(i) == (nic.rx_intr_enabled(), nic.tx_intr_enabled())
        })
    }

    /// Re-establishes the interrupt-enable invariant
    /// ([`Self::wanted_intrs`]) for every interface. Posts the interrupt
    /// when enabling with work already latched in the device, so no
    /// wakeup is lost.
    pub(super) fn sync_intrs(&mut self, env: &mut Env<'_, Event>) {
        for i in 0..self.ifaces.len() {
            let (want_rx, want_tx) = self.wanted_intrs(i);
            let iface = &mut self.ifaces[i];

            iface.nic.set_rx_intr_enabled(want_rx);
            env.set_intr_enabled(iface.rx_src, want_rx);
            if want_rx {
                if iface.nic.rx_pending() > 0 {
                    env.post_intr(iface.rx_src);
                } else {
                    env.intr_ack(iface.rx_src);
                }
            }

            iface.nic.set_tx_intr_enabled(want_tx);
            env.set_intr_enabled(iface.tx_src, want_tx);
            if want_tx {
                let tx_work = iface.nic.tx_unreclaimed() > 0
                    || (!iface.out_q.is_empty() && iface.nic.tx_slots_free() > 0);
                if tx_work {
                    env.post_intr(iface.tx_src);
                } else {
                    env.intr_ack(iface.tx_src);
                }
            }
        }
    }

    // --- Unmodified-path handlers ---
}
