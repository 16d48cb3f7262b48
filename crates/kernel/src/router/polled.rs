//! The modified path (paper 6.4): interrupt stubs and the polling
//! thread's round-robin, quota-bounded callbacks.

use super::*;

impl RouterKernel {
    pub(super) fn stub_next(&mut self, i: usize, rx: bool) -> Option<Chunk> {
        let iface = &mut self.ifaces[i];
        let in_handler = if rx {
            &mut iface.rx_in_handler
        } else {
            &mut iface.tx_in_handler
        };
        if *in_handler {
            *in_handler = false;
            return None;
        }
        *in_handler = true;
        Some(Chunk::new(
            self.cost.intr_dispatch + self.cost.intr_stub + self.cost.poll_wakeup,
            if rx { tag::RX_STUB } else { tag::TX_STUB },
        ))
    }

    pub(super) fn stub_done(&mut self, env: &mut Env<'_, Event>, i: usize, rx: bool) {
        // "it simply schedules the polling thread ..., recording its need
        // for packet processing, and then returns from the interrupt. It
        // does not set the device's interrupt-enable flag."
        let sid = self.ifaces[i].poll_sid;
        let iface = &mut self.ifaces[i];
        if rx {
            iface.nic.set_rx_intr_enabled(false);
            env.set_intr_enabled(iface.rx_src, false);
            self.poller.request(sid, PollDirection::Receive);
        } else {
            iface.nic.set_tx_intr_enabled(false);
            env.set_intr_enabled(iface.tx_src, false);
            self.poller.request(sid, PollDirection::Transmit);
        }
        if let Some(tid) = self.poll_tid {
            env.wake(tid);
        }
    }

    /// The poll thread's chunk generator: continue the current callback,
    /// pick the next action, or re-enable interrupts and sleep.
    pub(super) fn poll_next(&mut self, env: &mut Env<'_, Event>) -> Option<Chunk> {
        loop {
            if let Some(action) = self.poll.action {
                let i = action.source.0;
                match action.dir {
                    PollDirection::Receive => {
                        let stop = !self.gate.is_open()
                            || action.quota.exhausted_by(self.poll.done_in_cb)
                            || self.ifaces[i].nic.rx_pending() == 0;
                        if !stop {
                            // The ring to drain: the class rings' strict-
                            // priority pick under burst budgets, or the one
                            // ring. It rides the chunk tag, so stamping
                            // (chunk_start) and the take (poll_rx_done)
                            // agree on it even if a higher-priority frame
                            // lands mid-chunk.
                            let ring = self.pick_rx_ring(i);
                            // Process-to-completion starts on the head
                            // frame now: it leaves the ring and is routed
                            // in one go, so ring dequeue and forward start
                            // coincide (the ipq stage is zero by design).
                            if let Some(p) = self.ifaces[i].nic.rx_peek_mut(ring) {
                                p.stamps.ring_deq = env.now();
                                p.stamps.fwd_start = env.now();
                            }
                            let mut cost =
                                self.cost.rx_device_per_pkt + self.cost.ip_forward_per_pkt;
                            if self.cfg.screend.is_none() {
                                cost += self.cost.tx_start_per_pkt;
                            }
                            // Burst: every packet already in the ring (the
                            // backlog only grows from here) up to the quota
                            // is a promised repetition; each `poll_rx_done`
                            // consumes exactly one. Never with classes:
                            // `poll_burstable` requires them off.
                            let reps = if self.poll_burstable() {
                                let avail = self.ifaces[i].nic.rx_pending() as u32;
                                let room = match action.quota {
                                    Quota::Limited(n) => {
                                        (n - self.poll.done_in_cb).min(avail)
                                    }
                                    Quota::Unlimited => avail,
                                };
                                room.saturating_sub(1)
                            } else {
                                0
                            };
                            let t = match self.classes {
                                Some(_) => tag::POLL_RX_PKT_P0 + ring as u64,
                                None => tag::POLL_RX_PKT,
                            };
                            return Some(Chunk::new(cost, t).with_reps(reps));
                        }
                        let more = self.ifaces[i].nic.rx_pending() > 0;
                        self.finish_callback(env, action, more);
                    }
                    PollDirection::Transmit => {
                        let iface = &self.ifaces[i];
                        if !action.quota.exhausted_by(self.poll.done_in_cb) {
                            if iface.nic.tx_unreclaimed() > 0 {
                                // Burst: completed-but-unreclaimed
                                // descriptors only accumulate from here
                                // (wire completions add, only this thread
                                // reclaims), so each one up to the quota is
                                // a promised repetition.
                                let reps = if self.poll_burstable() {
                                    let avail = iface.nic.tx_unreclaimed() as u32;
                                    let room = match action.quota {
                                        Quota::Limited(n) => {
                                            (n - self.poll.done_in_cb).min(avail)
                                        }
                                        Quota::Unlimited => avail,
                                    };
                                    room.saturating_sub(1)
                                } else {
                                    0
                                };
                                return Some(Chunk::new(
                                    self.cost.tx_done_per_pkt + self.cost.tx_start_per_pkt,
                                    tag::POLL_TX_PKT,
                                )
                                .with_reps(reps));
                            }
                            if !iface.out_q.is_empty() && iface.nic.tx_slots_free() > 0 {
                                return Some(Chunk::new(
                                    self.cost.tx_start_per_pkt,
                                    tag::POLL_TX_START,
                                ));
                            }
                        }
                        let iface = &self.ifaces[i];
                        let more = iface.nic.tx_unreclaimed() > 0
                            || (!iface.out_q.is_empty() && iface.nic.tx_slots_free() > 0);
                        self.finish_callback(env, action, more);
                    }
                }
                continue;
            }
            match self.poller.next_action() {
                Some(action) => {
                    self.poll.action = Some(action);
                    self.poll.done_in_cb = 0;
                    self.poll.cb_started_at = env.now();
                    return Some(Chunk::new(
                        self.cost.poll_callback + self.cost.poll_loop_check,
                        tag::POLL_CB_START,
                    ));
                }
                None => {
                    // Out of local work: before re-enabling interrupts and
                    // sleeping, an idle SMP poller pulls frames a sibling
                    // parked when its own ring overflowed.
                    if self.try_steal(env.now()) {
                        continue;
                    }
                    // "Once all the packets pending at an interface have
                    // been handled, the polling thread also invokes the
                    // driver's interrupt-enable callback."
                    self.sync_intrs(env);
                    if let Some(tid) = self.poll_tid {
                        env.sleep(tid);
                    }
                    return None;
                }
            }
        }
    }

    /// Work stealing: an otherwise-idle poll thread drains frames its
    /// siblings parked when their own receive rings overflowed, feeding
    /// them into this CPU's rings as if they had arrived here. It takes a
    /// frame only once it has arrived in this CPU's time, and only when
    /// that frame's ring has room — a stolen frame keeps the class its
    /// home CPU stamped at admission — so every steal is accepted.
    /// Returns true when anything was stolen (the poller now has a
    /// pending receive request to process).
    pub(super) fn try_steal(&mut self, now: Cycles) -> bool {
        if !self.link.steals_frames() {
            return false;
        }
        let mut stole = false;
        loop {
            let nic = &self.ifaces[0].nic;
            let Some(pkt) = self
                .link
                .steal_take(now, |p| !nic.rx_ring_is_full(nic.rx_ring_for(p)))
            else {
                break;
            };
            let accepted = self.ifaces[0].nic.rx_arrive(pkt).is_ok();
            debug_assert!(accepted, "a stolen frame's ring had room");
            stole = true;
        }
        if stole {
            let sid = self.ifaces[0].poll_sid;
            self.poller.request(sid, PollDirection::Receive);
        }
        stole
    }

    pub(super) fn finish_callback(
        &mut self,
        env: &mut Env<'_, Event>,
        action: PollAction,
        more: bool,
    ) {
        self.poller
            .complete(action.source, action.dir, self.poll.done_in_cb, more);
        self.poll.action = None;
        // "Once all the packets pending at an interface have been handled,
        // the polling thread also invokes the driver's interrupt-enable
        // callback" — per interface and direction, immediately, so a
        // subsequent packet event causes an interrupt even while the
        // polling thread is still busy with other interfaces.
        if !more {
            self.enable_dir_intr(env, action.source.0, action.dir);
        }
        // The §7 cycle accounting: read the cycle counter at loop start and
        // end; the delta (preempting interrupts included) is charged to the
        // packet-processing budget.
        let used = (env.now() - self.poll.cb_started_at).raw();
        if let Some(lim) = &mut self.limiter {
            if lim.record(used) == LimiterDecision::Inhibit {
                self.inhibit_input(env, InhibitReason::CycleLimit);
            }
        }
    }

    /// Posts (or defers, under §5.1 rate limiting) a receive interrupt.
    pub(super) fn post_rx_intr(&mut self, env: &mut Env<'_, Event>, i: usize) {
        if self.consume_lost_rx_intr(i) {
            return;
        }
        match &mut self.rx_rate_limiter {
            None => env.post_intr(self.ifaces[i].rx_src),
            Some(rl) => {
                let now = env.now().raw();
                if rl.allow(now) {
                    env.post_intr(self.ifaces[i].rx_src);
                } else if !self.rx_intr_deferred[i] {
                    self.rx_intr_deferred[i] = true;
                    let at = Cycles::new(rl.next_allowed(now));
                    env.schedule_at(at, Event::DeferredRxIntr { iface: i });
                }
            }
        }
    }

    /// Re-enables one interface's interrupt in one direction, posting the
    /// interrupt instead when the device already has latched work so no
    /// wakeup is lost (drivers re-check device status after enabling).
    pub(super) fn enable_dir_intr(
        &mut self,
        env: &mut Env<'_, Event>,
        i: usize,
        dir: PollDirection,
    ) {
        let iface = &mut self.ifaces[i];
        match dir {
            PollDirection::Receive => {
                if !self.gate.is_open() {
                    return;
                }
                iface.nic.set_rx_intr_enabled(true);
                env.set_intr_enabled(iface.rx_src, true);
                if iface.nic.rx_pending() > 0 {
                    env.post_intr(iface.rx_src);
                } else {
                    env.intr_ack(iface.rx_src);
                }
            }
            PollDirection::Transmit => {
                iface.nic.set_tx_intr_enabled(true);
                env.set_intr_enabled(iface.tx_src, true);
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

    pub(super) fn poll_rx_done(&mut self, env: &mut Env<'_, Event>, ring: usize) {
        let Some(action) = self.poll.action else {
            return;
        };
        self.poll.done_in_cb += 1;
        let i = action.source.0;
        let Some(mut pkt) = self.ifaces[i].nic.rx_take_from(ring) else {
            return;
        };
        if self.try_handle_arp(env, i, &pkt) {
            return;
        }
        pkt.stamps.fwd_done = env.now();
        // Process-to-completion: device work and IP forwarding in one go,
        // no ipintrq.
        if let Some(routed) = self.route_packet(pkt, env.now()) {
            self.dispatch(env, routed);
        }
        self.flush_icmp(env);
    }

    pub(super) fn poll_tx_done(&mut self, env: &mut Env<'_, Event>, reclaim: bool) {
        let Some(action) = self.poll.action else {
            return;
        };
        self.poll.done_in_cb += 1;
        let i = action.source.0;
        if reclaim {
            self.ifaces[i].nic.tx_reclaim_one();
        }
        self.try_tx_start(env, i);
    }

    // --- screend ---
}
