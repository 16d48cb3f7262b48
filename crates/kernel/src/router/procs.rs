//! Schedulable processes: screend, the local application, and clock
//! tick bookkeeping.

use super::*;

impl RouterKernel {
    pub(super) fn screend_next(&mut self, env: &mut Env<'_, Event>) -> Option<Chunk> {
        // An injected stall or crash backoff: the process exists but
        // refuses to run until fault_tick restarts it.
        if self.screend_stalled() {
            if let Some(tid) = self.screend_tid {
                env.sleep(tid);
            }
            return None;
        }
        if self.screend_q.is_empty() {
            if let Some(tid) = self.screend_tid {
                env.sleep(tid);
            }
            return None;
        }
        Some(Chunk::new(
            self.cost.screend_per_pkt + self.cost.tx_start_per_pkt,
            tag::SCREEND_PKT,
        ))
    }

    pub(super) fn screend_done(&mut self, env: &mut Env<'_, Event>) {
        let Some((out_iface, mut pkt)) = self.screend_q.dequeue() else {
            return;
        };
        pkt.stamps.sq_deq = env.now();
        let depth = self.screend_q.len();
        self.feedback_depth(env, depth);
        match self.filter.evaluate(pkt.flow.as_ref()) {
            Action::Accept => self.output_enqueue(env, out_iface, pkt),
            Action::Deny => self
                .stats
                .record_drop_for(DropReason::ScreendDenied, pkt.flow),
        }
    }

    // --- Local application (end-system mode) ---

    pub(super) fn app_next(&mut self, env: &mut Env<'_, Event>) -> Option<Chunk> {
        if self.socket_q.is_empty() {
            if let Some(tid) = self.app_tid {
                env.sleep(tid);
            }
            return None;
        }
        // Consuming a request includes starting its reply's transmit.
        let cost = self.cost.app_per_pkt + self.cost.tx_start_per_pkt;
        Some(Chunk::new(cost, tag::APP_PKT))
    }

    pub(super) fn app_done(&mut self, env: &mut Env<'_, Event>) {
        let Some(mut pkt) = self.socket_q.dequeue() else {
            return;
        };
        pkt.stamps.sq_deq = env.now();
        self.stats.record_app_delivery(env.now());
        // The application consuming the datagram ends its sojourn.
        self.stats
            .record_delivery(&pkt, env.now(), self.cost.freq, self.cfg.latency_tracking);
        let depth = self.socket_q.len();
        if let Some(fb) = &mut self.socket_feedback {
            match fb.on_depth(depth) {
                Some(FeedbackSignal::Inhibit) => {
                    self.inhibit_input(env, InhibitReason::SocketFeedback)
                }
                Some(FeedbackSignal::Resume) => {
                    self.resume_input(env, InhibitReason::SocketFeedback)
                }
                None => {}
            }
        }
        self.send_reply(env, &pkt);
    }

    /// Builds and transmits the RPC-style reply to a delivered request:
    /// source and destination addresses and ports swapped, same-size
    /// payload, routed like any locally originated datagram.
    pub(super) fn send_reply(&mut self, env: &mut Env<'_, Event>, request: &Packet) {
        let Ok(ip) = request.ipv4() else {
            return;
        };
        let Ok(dgram) = request.ip_datagram() else {
            return;
        };
        let Ok(udp) =
            livelock_net::udp::UdpHeader::parse(&dgram[livelock_net::ipv4::IPV4_HEADER_LEN..])
        else {
            return;
        };
        self.reply_seq += 1;
        let id = livelock_net::packet::PacketId(u64::MAX / 2 + self.reply_seq);
        // MACs are zero here; route_packet rewrites them.
        let reply = Packet::udp_ipv4_in(
            &self.pool,
            id,
            MacAddr::ZERO,
            MacAddr::ZERO,
            ip.dst,
            ip.src,
            udp.dst_port,
            udp.src_port,
            32,
            &[0u8; 4],
        );
        self.stats.replies_created += 1;
        if let Some(Routed::Forward(out_iface, pkt)) = self.route_output(reply, env.now()) {
            // Locally originated traffic bypasses screend.
            self.output_enqueue(env, out_iface, pkt);
        }
        self.flush_icmp(env);
    }

    // --- Clock ---

    pub(super) fn clock_done(&mut self, env: &mut Env<'_, Event>) {
        self.stats.ticks += 1;
        self.sample_telemetry(env);
        self.observe_tick(env);
        self.class_tick();
        env.post_intr(self.softclock_src);
        if let Some(fb) = &mut self.feedback {
            if fb.on_tick() == Some(FeedbackSignal::Resume) {
                self.resume_input(env, InhibitReason::QueueFeedback);
            }
        }
        if let Some(fb) = &mut self.socket_feedback {
            if fb.on_tick() == Some(FeedbackSignal::Resume) {
                self.resume_input(env, InhibitReason::SocketFeedback);
            }
        }
        if let Some(lim) = &mut self.limiter {
            if self.stats.ticks % u64::from(self.cost.cycle_limit_period_ticks) == 0
                && lim.on_period_start()
            {
                self.resume_input(env, InhibitReason::CycleLimit);
            }
        }
        self.fault_tick(env);
    }
}
