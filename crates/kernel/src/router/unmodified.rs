//! The unmodified 4.2BSD path: batched receive interrupts, `ipintrq`,
//! the softnet IP layer, transmit-completion handlers.

use super::*;

impl RouterKernel {
    pub(super) fn unmod_rx_next(&mut self, env: &mut Env<'_, Event>, i: usize) -> Option<Chunk> {
        let extra = self.emulation_overhead();
        let burstable = self.burstable();
        let iface = &mut self.ifaces[i];
        if self.in_handler.enter(iface.rx_src) {
            return Some(Chunk::new(
                self.cost.intr_dispatch + extra,
                tag::RX_DISPATCH,
            ));
        }
        if iface.nic.rx_pending() > 0 {
            // The driver starts on the head frame now; it leaves the ring
            // (the one ring: this kernel enforces no classes) when this
            // chunk completes.
            if let Some(p) = iface.nic.rx_peek_mut(0) {
                p.stamps.ring_deq = env.now();
            }
            // Interrupt batching: keep consuming the ring before returning.
            // Burst: the handler runs at SPLIMP until the ring drains, and
            // the backlog only grows from here (DMA appends, only this
            // handler consumes), so every frame already in the ring is a
            // promised repetition.
            let reps = if burstable {
                (iface.nic.rx_pending() as u32).saturating_sub(1)
            } else {
                0
            };
            return Some(Chunk::new(
                self.cost.rx_device_per_pkt + self.cost.queue_op + extra,
                tag::RX_PKT,
            )
            .with_reps(reps));
        }
        self.in_handler.leave(iface.rx_src);
        env.intr_ack(iface.rx_src);
        None
    }

    pub(super) fn unmod_rx_done(&mut self, env: &mut Env<'_, Event>, i: usize) {
        let Some(pkt) = self.ifaces[i].nic.rx_take_from(0) else {
            return;
        };
        if self.try_handle_arp(env, i, &pkt) {
            return;
        }
        // Every CPU's receive handler feeds the one ipintrq (the classic
        // single-IP-layer bottleneck); only CPU 0 runs the softnet drain,
        // and the link raises a coalesced IPI for an enqueueing sibling.
        let flow = pkt.flow;
        if self.link.ipintrq_enqueue(pkt).is_ok() {
            if self.link.drains_ipintrq() {
                env.post_intr(self.softnet_src);
            }
        } else {
            // "the IP code never runs ... [ipintrq] fills up, and all
            // subsequent received packets are dropped" — after device-level
            // work was already invested.
            self.stats.record_drop_for(DropReason::IpintrqFull, flow);
        }
    }

    pub(super) fn softnet_next(&mut self, env: &mut Env<'_, Event>) -> Option<Chunk> {
        let extra = self.emulation_overhead();
        if self.in_handler.enter(self.softnet_src) {
            return Some(Chunk::new(
                self.cost.softnet_dispatch + extra,
                tag::SOFTNET_DISPATCH,
            ));
        }
        let mut ipintrq = self.link.ipintrq();
        let Some(head) = ipintrq.peek_mut() else {
            self.in_handler.leave(self.softnet_src);
            env.intr_ack(self.softnet_src);
            return None;
        };
        // IP forwarding of the head packet starts now (the dequeue
        // happens when the chunk completes).
        head.stamps.fwd_start = env.now();
        let queued = ipintrq.len();
        drop(ipintrq);
        // IP processing of one packet, including the ipintrq dequeue and
        // (when it will go straight out) the if_start work — plus a lock
        // acquisition for every contending sibling, the term that keeps
        // the shared-queue MLFRR flat as CPUs are added.
        let contenders = self.link.ncpus() as u64 - 1;
        let mut cost = self.cost.ip_forward_per_pkt
            + self.cost.queue_op
            + self.cost.smp_queue_lock * contenders
            + extra;
        if self.cfg.screend.is_none() {
            cost += self.cost.tx_start_per_pkt;
        }
        // Burst: preempting receive interrupts only *add* to ipintrq
        // (and a full queue drops, never shrinks it), so every packet
        // already queued is a promised repetition. Not with contenders:
        // siblings refill the queue at every slice boundary.
        let reps = if self.burstable() && contenders == 0 {
            (queued as u32).saturating_sub(1)
        } else {
            0
        };
        Some(Chunk::new(cost, tag::SOFTNET_PKT).with_reps(reps))
    }

    pub(super) fn softnet_done(&mut self, env: &mut Env<'_, Event>) {
        let Some(mut pkt) = self.link.ipintrq().dequeue() else {
            return;
        };
        pkt.stamps.fwd_done = env.now();
        if let Some(routed) = self.route_packet(pkt, env.now()) {
            self.dispatch(env, routed);
        }
    }

    pub(super) fn unmod_tx_next(&mut self, env: &mut Env<'_, Event>, i: usize) -> Option<Chunk> {
        let iface = &self.ifaces[i];
        if self.in_handler.enter(iface.tx_src) {
            return Some(Chunk::new(self.cost.intr_dispatch, tag::TX_DISPATCH));
        }
        if iface.nic.tx_unreclaimed() > 0 {
            return Some(Chunk::new(self.cost.tx_done_per_pkt, tag::TX_RECLAIM));
        }
        if iface.tx_startable() {
            return Some(Chunk::new(self.cost.tx_start_per_pkt, tag::TX_START));
        }
        self.in_handler.leave(iface.tx_src);
        env.intr_ack(iface.tx_src);
        None
    }

    // --- Modified-path handlers ---
}
