//! The forwarding plane: routing, ARP, local delivery, output queues and
//! the wire.

use super::*;

/// The last destination forwarded and how it resolved — the one-entry
/// cache 4.4BSD's `ip_forward` keeps as `ipforward_rt`. A hit answers what
/// the route and ARP lookups would; the simulated per-packet cost is the
/// same either way.
#[derive(Clone, Copy, Debug)]
pub(super) struct FwdCache {
    dst: Ipv4Addr,
    hop: NextHop,
    mac: MacAddr,
    /// When the ARP entry behind `mac` expires.
    expires: Cycles,
}

impl RouterKernel {
    // --- Forwarding (the real per-packet work) ---

    /// Routes and rewrites a packet; returns where it goes next or counts
    /// a forwarding error. Packets addressed to one of the host's own
    /// interface addresses are classified for local delivery.
    pub(super) fn route_packet(&mut self, pkt: Packet, now: Cycles) -> Option<Routed> {
        self.route_inner(pkt, now, false)
    }

    /// Routes a packet the host itself originated (application replies):
    /// the end-system no-forwarding guard does not apply to its own output.
    pub(super) fn route_output(&mut self, pkt: Packet, now: Cycles) -> Option<Routed> {
        self.route_inner(pkt, now, true)
    }

    fn route_inner(
        &mut self,
        mut pkt: Packet,
        now: Cycles,
        locally_originated: bool,
    ) -> Option<Routed> {
        let flow = pkt.flow;
        let ip = match pkt.ipv4() {
            Ok(ip) => ip,
            Err(_) => {
                self.stats.record_drop_for(DropReason::BadHeader, flow);
                return None;
            }
        };
        if self.ifaces.iter().any(|f| f.ip == ip.dst) {
            return Some(Routed::Local(pkt));
        }
        if !self.cfg.ip_forwarding && !locally_originated {
            // An end-system is no gateway: traffic for others is discarded
            // here — after the input work was already spent on it, which is
            // exactly the innocent-bystander overhead of 1.
            self.stats.record_drop_for(DropReason::Bystander, flow);
            return None;
        }
        let (hop, dst_mac) = match self.fwd_cache {
            Some(c) if c.dst == ip.dst && now < c.expires => (c.hop, c.mac),
            _ => {
                let Some(hop) = self.routes.lookup(ip.dst) else {
                    self.stats.record_drop_for(DropReason::NoRoute, flow);
                    return None;
                };
                let arp_target = hop.gateway.unwrap_or(ip.dst);
                let Some((mac, expires)) = self.arp.lookup(arp_target, now) else {
                    self.stats.record_drop_for(DropReason::NoArp, flow);
                    return None;
                };
                self.fwd_cache = Some(FwdCache {
                    dst: ip.dst,
                    hop,
                    mac,
                    expires,
                });
                (hop, mac)
            }
        };
        let hdr = match pkt.ip_header_bytes_mut() {
            Ok(h) => h,
            Err(_) => {
                self.stats.record_drop_for(DropReason::BadHeader, flow);
                return None;
            }
        };
        if decrement_ttl(hdr).is_err() {
            self.stats.record_drop_for(DropReason::TtlExpired, flow);
            return None;
        }
        let src_mac = self.ifaces[hop.iface].mac;
        if pkt.set_link_addrs(src_mac, dst_mac).is_err() {
            self.stats.record_drop_for(DropReason::BadHeader, flow);
            return None;
        }
        Some(Routed::Forward(hop.iface, pkt))
    }

    /// Consumes ARP frames: learns the sender's mapping, answers requests
    /// for our own addresses. Returns `true` when the frame was ARP (and
    /// is therefore fully handled).
    pub(super) fn try_handle_arp(
        &mut self,
        env: &mut Env<'_, Event>,
        in_iface: usize,
        pkt: &Packet,
    ) -> bool {
        let Ok(eth) = pkt.ethernet() else {
            return false;
        };
        if eth.ethertype != EtherType::Arp {
            return false;
        }
        self.stats.arp_handled += 1;
        let Ok(arp) = ArpPacket::parse(&pkt.frame[ETHERNET_HEADER_LEN..]) else {
            return true; // Malformed ARP: consumed and ignored.
        };
        // Learn the sender (dynamic entry, 20-minute lifetime as in BSD).
        let lifetime = self.cost.freq.cycles_from_secs(1200);
        self.arp
            .insert(arp.sender_ip, arp.sender_mac, env.now() + lifetime);
        self.fwd_cache = None;
        if arp.op == ArpOp::Request && self.ifaces[in_iface].ip == arp.target_ip {
            let our_mac = self.ifaces[in_iface].mac;
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: our_mac,
                sender_ip: arp.target_ip,
                target_mac: arp.sender_mac,
                target_ip: arp.sender_ip,
            };
            let mut frame = self.alloc_frame(ETHERNET_HEADER_LEN + ARP_PACKET_LEN);
            let hdr = EthernetHeader {
                dst: arp.sender_mac,
                src: our_mac,
                ethertype: EtherType::Arp,
            };
            // The frame was allocated exactly header + ARP sized above;
            // if either encode still refuses, drop the reply (the
            // requester retries) rather than panic the trial.
            if hdr.encode(&mut frame).is_err()
                || reply.encode(&mut frame[ETHERNET_HEADER_LEN..]).is_err()
            {
                return true;
            }
            self.reply_seq += 1;
            let out = Packet::from_frame(
                livelock_net::packet::PacketId(u64::MAX / 8 + self.reply_seq),
                frame,
            );
            self.stats.arp_replies += 1;
            self.output_enqueue(env, in_iface, out);
        }
        true
    }

    /// Sends a routed packet on its way: toward an output interface (via
    /// screend when configured) or into the local socket buffer.
    pub(super) fn dispatch(&mut self, env: &mut Env<'_, Event>, routed: Routed) {
        match routed {
            Routed::Forward(out_iface, pkt) => self.deliver(env, out_iface, pkt),
            Routed::Local(pkt) => self.deliver_local(env, pkt),
        }
    }

    /// End-system delivery: queue on the socket buffer and wake the
    /// application, with optional queue-state feedback on the buffer.
    pub(super) fn deliver_local(&mut self, env: &mut Env<'_, Event>, mut pkt: Packet) {
        let flow = pkt.flow;
        if self.cfg.local.is_none() {
            // Addressed to us but nobody is listening.
            self.stats.record_drop_for(DropReason::NoListener, flow);
            return;
        }
        pkt.stamps.sq_enq = env.now();
        if self.socket_q.enqueue(pkt).is_ok() {
            if let Some(tid) = self.app_tid {
                env.wake(tid);
            }
        } else {
            self.stats.record_drop_for(DropReason::SocketQueueFull, flow);
        }
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
    }

    /// Delivers a routed packet toward the output interface: through the
    /// screend queue when screening is configured, else straight to the
    /// output queue.
    pub(super) fn deliver(&mut self, env: &mut Env<'_, Event>, out_iface: usize, mut pkt: Packet) {
        if self.cfg.screend.is_some() {
            let flow = pkt.flow;
            pkt.stamps.sq_enq = env.now();
            if self.screend_q.enqueue((out_iface, pkt)).is_ok() {
                if let Some(tid) = self.screend_tid {
                    env.wake(tid);
                }
            } else {
                self.stats.record_drop_for(DropReason::ScreendQueueFull, flow);
            }
            let depth = self.screend_q.len();
            self.feedback_depth(env, depth);
        } else {
            self.output_enqueue(env, out_iface, pkt);
        }
    }

    /// Enqueues on the output ifqueue and opportunistically starts
    /// transmission (`if_start`).
    pub(super) fn output_enqueue(
        &mut self,
        env: &mut Env<'_, Event>,
        out_iface: usize,
        mut pkt: Packet,
    ) {
        let flow = pkt.flow;
        pkt.stamps.out_enq = env.now();
        if self.ifaces[out_iface].out_q.enqueue(pkt).is_ok() {
            self.try_tx_start(env, out_iface);
        } else {
            self.stats.record_drop_for(DropReason::OutputQueueFull, flow);
        }
    }

    /// Moves one packet from the ifqueue into the transmit ring if a
    /// descriptor is free, and kicks the wire.
    pub(super) fn try_tx_start(&mut self, env: &mut Env<'_, Event>, out_iface: usize) -> bool {
        let iface = &mut self.ifaces[out_iface];
        if iface.nic.tx_slots_free() == 0 {
            return false;
        }
        let Some(pkt) = iface.out_q.dequeue() else {
            return false;
        };
        let accepted = iface.nic.tx_submit(pkt);
        debug_assert!(accepted.is_ok(), "slot availability was checked");
        Self::kick_wire(env, iface, out_iface);
        true
    }

    /// Starts serializing the next ring frame if the wire is free.
    pub(super) fn kick_wire(env: &mut Env<'_, Event>, iface: &mut Iface, idx: usize) {
        if iface.inflight.is_some() {
            return;
        }
        if let Some(mut pkt) = iface.nic.tx_begin() {
            pkt.stamps.tx_start = env.now();
            let done = iface.wire.begin_tx(env.now(), pkt.len());
            iface.inflight = Some(pkt);
            env.schedule_at(done, Event::TxWireDone { iface: idx });
        }
    }

    // --- Input gating (modified kernel) ---
}
