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
                self.sync_intr(env, i, PollDirection::Receive);
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

    /// Interface `i`'s interrupt source in `dir`.
    fn intr_src(&self, i: usize, dir: PollDirection) -> IntrSrc {
        match dir {
            PollDirection::Receive => self.ifaces[i].rx_src,
            PollDirection::Transmit => self.ifaces[i].tx_src,
        }
    }

    /// The interrupt-enable invariant: interface `i`'s interrupt in `dir`
    /// is unmasked iff the device has no pending poll in `dir` and, for
    /// receive, the gate is open.
    fn wanted_intr(&self, i: usize, dir: PollDirection) -> bool {
        let open = dir == PollDirection::Transmit || self.gate.is_open();
        open && !self.poller.is_pending(self.ifaces[i].poll_sid, dir)
    }

    /// Whether interface `i`'s device has work in `dir`: frames in a
    /// receive ring; descriptors to reclaim, or a queued frame and a free
    /// descriptor to start it in.
    pub(super) fn has_work(&self, i: usize, dir: PollDirection) -> bool {
        let iface = &self.ifaces[i];
        match dir {
            PollDirection::Receive => iface.nic.rx_pending() > 0,
            PollDirection::Transmit => iface.nic.tx_unreclaimed() > 0 || iface.tx_startable(),
        }
    }

    /// Whether every interface's interrupt mask (`enabled`, the
    /// controller's) holds the invariant [`Self::sync_intr`] writes. A
    /// ring holding frames behind a masked receive interrupt with no poll
    /// pending is a wakeup lost for good; this is how it shows.
    pub(super) fn intrs_in_sync(&self, enabled: impl Fn(IntrSrc) -> bool) -> bool {
        (0..self.ifaces.len()).all(|i| {
            [PollDirection::Receive, PollDirection::Transmit]
                .into_iter()
                .all(|dir| enabled(self.intr_src(i, dir)) == self.wanted_intr(i, dir))
        })
    }

    /// The one writer of the interrupt mask: sets interface `i`'s
    /// interrupt in `dir` to [`Self::wanted_intr`]. Enabling posts the
    /// interrupt when the device already has work, so no wakeup is lost
    /// (drivers re-check device status after enabling), and clears a
    /// stale latch otherwise.
    pub(super) fn sync_intr(&mut self, env: &mut Env<'_, Event>, i: usize, dir: PollDirection) {
        let (want, src) = (self.wanted_intr(i, dir), self.intr_src(i, dir));
        env.set_intr_enabled(src, want);
        if want {
            if self.has_work(i, dir) {
                env.post_intr(src);
            } else {
                env.intr_ack(src);
            }
        }
    }

    /// [`Self::sync_intr`] for every interface and direction.
    pub(super) fn sync_intrs(&mut self, env: &mut Env<'_, Event>) {
        for i in 0..self.ifaces.len() {
            self.sync_intr(env, i, PollDirection::Receive);
            self.sync_intr(env, i, PollDirection::Transmit);
        }
    }

    // --- Unmodified-path handlers ---
}
