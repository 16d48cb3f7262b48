//! A LANCE-style network interface model.
//!
//! The NIC receives frames autonomously (DMA) into a bounded receive
//! descriptor ring — when the ring is full, frames are "dropped by the
//! interface before the system has wasted any resources" (§6.4), which is
//! exactly the cheap early drop the paper's design exploits. On the
//! transmit side, packets move from the host into a bounded transmit ring,
//! are serialized one at a time onto the wire, and their descriptors must be
//! reclaimed by the driver (`tx_done` work) before the slots can be reused —
//! the resource whose exhaustion causes transmit starvation (§4.4, §6.6).

use livelock_net::packet::{FlowKey, Packet};
use livelock_net::queue::{DropTailQueue, Enqueued};
use std::collections::VecDeque;

/// RSS-style 5-tuple flow hash: FNV-1a over (src ip, dst ip, protocol,
/// src port, dst port). Deterministic — no per-boot secret key — so the
/// same flow always lands on the same receive queue, which is exactly the
/// cache-affinity property hardware RSS provides.
pub fn rss_hash(key: &FlowKey) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for b in key.src_ip.to_be_bytes() {
        eat(b);
    }
    for b in key.dst_ip.to_be_bytes() {
        eat(b);
    }
    eat(key.proto);
    for b in key.src_port.to_be_bytes() {
        eat(b);
    }
    for b in key.dst_port.to_be_bytes() {
        eat(b);
    }
    h
}

/// The receive queue a 5-tuple hashes to, out of `nqueues`.
pub fn rss_queue(key: &FlowKey, nqueues: usize) -> usize {
    assert!(nqueues > 0, "a NIC has at least one receive queue");
    (rss_hash(key) % nqueues as u64) as usize
}

/// Static configuration for one NIC.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// Receive descriptor ring capacity.
    pub rx_ring: usize,
    /// Transmit descriptor ring capacity.
    pub tx_ring: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        // Period-typical LANCE rings.
        NicConfig {
            rx_ring: 32,
            tx_ring: 32,
        }
    }
}

/// One network interface: receive rings, transmit ring, interrupt-enable
/// flags, and counters (`Ipkts`/`Opkts`, as `netstat` reports them).
#[derive(Clone, Debug)]
pub struct Nic {
    name: &'static str,
    /// The receive rings, index 0 the highest priority. One unless the
    /// host asked for per-priority rings ([`Nic::with_rx_rings`]).
    rx_rings: Vec<DropTailQueue<Packet>>,
    /// Packets in the transmit ring, not yet on the wire.
    tx_queued: VecDeque<Packet>,
    /// A frame is currently being serialized onto the wire.
    tx_inflight: bool,
    /// Frames fully transmitted whose descriptors the driver has not yet
    /// reclaimed. They still occupy ring slots.
    tx_unreclaimed: usize,
    tx_ring_cap: usize,
    rx_intr_enabled: bool,
    tx_intr_enabled: bool,
    ipkts: u64,
    opkts: u64,
    tx_ring_rejects: u64,
}

impl Nic {
    /// Diagnostic names for the receive rings of a multi-ring NIC,
    /// highest priority first. Bounds the supported ring count.
    const PRIORITY_RING_NAMES: [&'static str; 3] = ["rx-ring-p0", "rx-ring-p1", "rx-ring-p2"];

    /// Creates a NIC with one receive ring and both interrupt directions
    /// enabled.
    pub fn new(name: &'static str, config: NicConfig) -> Self {
        Nic {
            name,
            rx_rings: vec![DropTailQueue::new("rx-ring", config.rx_ring)],
            tx_queued: VecDeque::with_capacity(config.tx_ring),
            tx_inflight: false,
            tx_unreclaimed: 0,
            tx_ring_cap: config.tx_ring,
            rx_intr_enabled: true,
            tx_intr_enabled: true,
            ipkts: 0,
            opkts: 0,
            tx_ring_rejects: 0,
        }
    }

    /// The same NIC with `n` per-priority receive rings (clamped to
    /// 1..=3), each of the configured ring's capacity — the hardware
    /// analogue of a multiqueue NIC whose queues are keyed by a priority
    /// field instead of an RSS hash. One ring is the plain NIC.
    pub fn with_rx_rings(mut self, n: usize) -> Self {
        let n = n.clamp(1, Self::PRIORITY_RING_NAMES.len());
        if n > 1 {
            let cap = self.rx_rings[0].capacity();
            self.rx_rings = Self::PRIORITY_RING_NAMES[..n]
                .iter()
                .map(|name| DropTailQueue::new(name, cap))
                .collect();
        }
        self
    }

    /// Returns the interface's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    // --- Receive side ---

    /// The ring DMA files `pkt` into: its class stamp's priority, clamped
    /// to the last ring. An unstamped frame files last, so a one-ring NIC
    /// files every frame into ring 0.
    pub fn rx_ring_for(&self, pkt: &Packet) -> usize {
        let last = self.rx_rings.len() - 1;
        pkt.class().map_or(last, |c| c.index().min(last))
    }

    /// A frame finished arriving on the wire; DMA places it in its ring
    /// ([`Nic::rx_ring_for`]). Returns whether the ring accepted it (a
    /// full ring drops the frame at zero host cost). The caller decides
    /// whether to post an interrupt, based on [`Nic::rx_intr_enabled`].
    pub fn rx_arrive(&mut self, pkt: Packet) -> Enqueued {
        let ring = self.rx_ring_for(&pkt);
        let r = self.rx_rings[ring].enqueue(pkt);
        if r.is_ok() {
            self.ipkts += 1;
        }
        r
    }

    /// The driver pulls the oldest frame of the highest-priority ring
    /// that has one.
    pub fn rx_take(&mut self) -> Option<Packet> {
        self.rx_rings.iter_mut().find_map(DropTailQueue::dequeue)
    }

    /// The driver pulls the oldest frame of ring `ring`.
    pub fn rx_take_from(&mut self, ring: usize) -> Option<Packet> {
        self.rx_rings[ring].dequeue()
    }

    /// Mutable access to the oldest frame of ring `ring` without taking
    /// it — lets the host stamp the packet when it starts processing,
    /// before the chunk that consumes it completes.
    pub fn rx_peek_mut(&mut self, ring: usize) -> Option<&mut Packet> {
        self.rx_rings[ring].peek_mut()
    }

    /// Frames waiting in ring `ring`.
    pub fn rx_ring_len(&self, ring: usize) -> usize {
        self.rx_rings[ring].len()
    }

    /// Frames waiting across every receive ring.
    pub fn rx_pending(&self) -> usize {
        self.rx_rings.iter().map(DropTailQueue::len).sum()
    }

    /// Whether ring `ring` has no free descriptor. The SMP steal path
    /// asks it of a frame's own ring ([`Nic::rx_ring_for`]) before DMA,
    /// to divert the frame instead of losing it.
    pub fn rx_ring_is_full(&self, ring: usize) -> bool {
        self.rx_rings[ring].is_full()
    }

    /// Frames dropped because their receive ring was full, over every
    /// ring.
    pub fn rx_ring_drops(&self) -> u64 {
        self.rx_rings.iter().map(DropTailQueue::drops).sum()
    }

    /// Total frames accepted into the receive rings (`Ipkts`).
    pub fn ipkts(&self) -> u64 {
        self.ipkts
    }

    /// Receive interrupt enable flag.
    pub fn rx_intr_enabled(&self) -> bool {
        self.rx_intr_enabled
    }

    /// Sets the receive interrupt enable flag (the modified driver clears
    /// this in its interrupt stub and restores it from the polling thread).
    pub fn set_rx_intr_enabled(&mut self, enabled: bool) {
        self.rx_intr_enabled = enabled;
    }

    // --- Transmit side ---

    /// Free transmit ring slots (total minus queued, in-flight and
    /// unreclaimed descriptors).
    pub fn tx_slots_free(&self) -> usize {
        self.tx_ring_cap
            - self.tx_queued.len()
            - usize::from(self.tx_inflight)
            - self.tx_unreclaimed
    }

    /// The driver submits a packet to the transmit ring.
    ///
    /// Returns `Enqueued::Dropped` (and counts a reject) when no descriptor
    /// is free; the caller should leave the packet on its output queue.
    pub fn tx_submit(&mut self, pkt: Packet) -> Enqueued {
        if self.tx_slots_free() == 0 {
            self.tx_ring_rejects += 1;
            return Enqueued::Dropped;
        }
        self.tx_queued.push_back(pkt);
        Enqueued::Ok
    }

    /// The wire asks for the next frame to serialize. Returns `None` when
    /// the ring is empty or a frame is already in flight.
    pub fn tx_begin(&mut self) -> Option<Packet> {
        if self.tx_inflight {
            return None;
        }
        let pkt = self.tx_queued.pop_front()?;
        self.tx_inflight = true;
        Some(pkt)
    }

    /// The wire finished serializing the in-flight frame: count it
    /// transmitted (`Opkts`) and leave its descriptor awaiting reclaim.
    ///
    /// # Panics
    ///
    /// Panics if no frame was in flight.
    pub fn tx_complete(&mut self) {
        assert!(self.tx_inflight, "tx_complete without a frame in flight");
        self.tx_inflight = false;
        self.tx_unreclaimed += 1;
        self.opkts += 1;
    }

    /// The driver reclaims one completed descriptor (`tx_done` work).
    /// Returns `false` when nothing awaited reclaim.
    pub fn tx_reclaim_one(&mut self) -> bool {
        if self.tx_unreclaimed == 0 {
            return false;
        }
        self.tx_unreclaimed -= 1;
        true
    }

    /// Descriptors transmitted but not yet reclaimed.
    pub fn tx_unreclaimed(&self) -> usize {
        self.tx_unreclaimed
    }

    /// Total frames fully transmitted (`Opkts` — the paper's measurement
    /// counter).
    pub fn opkts(&self) -> u64 {
        self.opkts
    }

    /// Transmit interrupt enable flag.
    pub fn tx_intr_enabled(&self) -> bool {
        self.tx_intr_enabled
    }

    /// Sets the transmit interrupt enable flag.
    pub fn set_tx_intr_enabled(&mut self, enabled: bool) {
        self.tx_intr_enabled = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelock_net::classify::{Classifier, TrafficClass};
    use livelock_net::packet::PacketId;

    fn pkt(n: u64) -> Packet {
        Packet::from_frame(PacketId(n), vec![0u8; 60])
    }

    fn nic() -> Nic {
        Nic::new(
            "ln0",
            NicConfig {
                rx_ring: 4,
                tx_ring: 3,
            },
        )
    }

    #[test]
    fn rx_ring_bounds_and_counts() {
        let mut n = nic();
        for i in 0..6 {
            n.rx_arrive(pkt(i));
        }
        assert_eq!(n.rx_pending(), 4);
        assert_eq!(n.ipkts(), 4);
        assert_eq!(n.rx_ring_drops(), 2);
        assert_eq!(n.rx_take().unwrap().id, PacketId(0), "FIFO");
        assert_eq!(n.rx_pending(), 3);
    }

    #[test]
    fn tx_full_lifecycle() {
        let mut n = nic();
        assert_eq!(n.tx_slots_free(), 3);
        assert!(n.tx_submit(pkt(1)).is_ok());
        assert!(n.tx_submit(pkt(2)).is_ok());
        assert_eq!(n.tx_slots_free(), 1);

        let on_wire = n.tx_begin().unwrap();
        assert_eq!(on_wire.id, PacketId(1));
        assert!(n.tx_inflight);
        assert!(n.tx_begin().is_none(), "one frame on the wire at a time");
        assert_eq!(n.tx_slots_free(), 1, "in-flight frame still owns a slot");

        n.tx_complete();
        assert_eq!(n.opkts(), 1);
        assert_eq!(n.tx_unreclaimed(), 1);
        assert_eq!(n.tx_slots_free(), 1, "unreclaimed descriptor owns the slot");

        assert!(n.tx_reclaim_one());
        assert_eq!(n.tx_slots_free(), 2);
        assert!(!n.tx_reclaim_one(), "nothing else to reclaim");
    }

    #[test]
    fn tx_starvation_without_reclaim() {
        // The §4.4 condition: descriptors never reclaimed -> ring fills ->
        // submissions fail even though the wire is idle.
        let mut n = nic();
        for i in 0..3 {
            assert!(n.tx_submit(pkt(i)).is_ok());
        }
        assert_eq!(n.tx_submit(pkt(9)), Enqueued::Dropped);
        for _ in 0..3 {
            n.tx_begin().unwrap();
            n.tx_complete();
        }
        assert!(n.tx_queued.is_empty());
        assert!(!n.tx_inflight);
        assert_eq!(n.tx_unreclaimed(), 3);
        assert_eq!(n.tx_slots_free(), 0);
        assert_eq!(n.tx_submit(pkt(10)), Enqueued::Dropped, "starved");
        assert_eq!(n.tx_ring_rejects, 2);
        // Reclaiming frees the ring again.
        while n.tx_reclaim_one() {}
        assert_eq!(n.tx_slots_free(), 3);
        assert!(n.tx_submit(pkt(11)).is_ok());
    }

    #[test]
    #[should_panic(expected = "without a frame in flight")]
    fn tx_complete_requires_inflight() {
        nic().tx_complete();
    }

    #[test]
    fn intr_enable_flags() {
        let mut n = nic();
        assert!(n.rx_intr_enabled());
        assert!(n.tx_intr_enabled());
        n.set_rx_intr_enabled(false);
        n.set_tx_intr_enabled(false);
        assert!(!n.rx_intr_enabled());
        assert!(!n.tx_intr_enabled());
    }

    #[test]
    fn ring_overflow_recycles_pooled_frames() {
        use livelock_net::pool::FramePool;
        let pool = FramePool::new(64, 8);
        let mut n = nic(); // rx_ring = 4
        for i in 0..6 {
            let p = Packet::from_frame(PacketId(i), pool.take(60));
            n.rx_arrive(p);
        }
        // Four accepted frames hold buffers; the two overflow drops
        // returned theirs to the pool immediately.
        assert_eq!(n.rx_ring_drops(), 2);
        assert_eq!(pool.stats().outstanding, 4);
        assert_eq!(pool.stats().recycled, 2);
        // Draining the ring returns the rest.
        while n.rx_take().is_some() {}
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.stats().recycled, 6);
    }

    #[test]
    fn default_config_is_period_typical() {
        let c = NicConfig::default();
        assert_eq!(c.rx_ring, 32);
        assert_eq!(c.tx_ring, 32);
    }

    /// A frame stamped `class` (`None`: unstamped).
    fn stamped(n: u64, class: Option<TrafficClass>) -> Packet {
        let mut p = pkt(n);
        if let Some(c) = class {
            Classifier::new(Vec::new(), c).stamp(&mut p);
        }
        p
    }

    const STAMPS: [Option<TrafficClass>; 4] = [
        None,
        Some(TrafficClass::Control),
        Some(TrafficClass::Realtime),
        Some(TrafficClass::Bulk),
    ];

    #[test]
    fn one_ring_files_every_stamp_into_ring_zero() {
        let mut n = nic(); // rx_ring = 4
        assert_eq!(n.rx_rings.len(), 1);
        for (i, class) in STAMPS.into_iter().enumerate() {
            let p = stamped(i as u64, class);
            assert_eq!(n.rx_ring_for(&p), 0, "{class:?}");
            assert!(!n.rx_ring_is_full(0));
            assert!(n.rx_arrive(p).is_ok());
        }
        assert!(n.rx_ring_is_full(0));
        assert_eq!(n.rx_ring_len(0), 4);
        assert_eq!(n.rx_arrive(stamped(9, None)), Enqueued::Dropped);
        assert_eq!(n.rx_peek_mut(0).unwrap().id, PacketId(0));
        assert_eq!(n.rx_take_from(0).unwrap().id, PacketId(0));
        assert!(!n.rx_ring_is_full(0));
        assert_eq!(n.rx_take().unwrap().id, PacketId(1), "FIFO");
    }

    #[test]
    fn class_rings_partition_the_receive_side() {
        let three = nic().with_rx_rings(3);
        assert_eq!(three.rx_rings.len(), 3);
        let rings = |n: &Nic| STAMPS.map(|c| n.rx_ring_for(&stamped(0, c)));
        assert_eq!(rings(&three), [2, 0, 1, 2], "unstamped files last");
        let two = nic().with_rx_rings(2);
        assert_eq!(rings(&two), [1, 0, 1, 1], "Bulk clamps to ring 1");
        assert_eq!(nic().with_rx_rings(9).rx_rings.len(), 3);
        assert_eq!(nic().with_rx_rings(0).rx_rings.len(), 1);
    }

    #[test]
    fn rx_take_is_strict_priority() {
        let mut n = nic().with_rx_rings(3);
        let order = [
            TrafficClass::Bulk,
            TrafficClass::Realtime,
            TrafficClass::Control,
        ];
        for (i, c) in order.into_iter().enumerate() {
            n.rx_arrive(stamped(i as u64, Some(c)));
            n.rx_arrive(stamped(10 + i as u64, Some(c)));
        }
        let taken: Vec<u64> = std::iter::from_fn(|| n.rx_take()).map(|p| p.id.0).collect();
        assert_eq!(
            taken,
            [2, 12, 1, 11, 0, 10],
            "Control, Realtime, Bulk; FIFO within"
        );
    }

    #[test]
    fn rx_ring_full_flag_tracks_occupancy() {
        let mut n = nic().with_rx_rings(3); // 4 slots per ring
        let bulk = |i| stamped(i, Some(TrafficClass::Bulk));
        for i in 0..6 {
            n.rx_arrive(bulk(i));
        }
        let control = stamped(10, Some(TrafficClass::Control));
        assert!(
            n.rx_ring_is_full(n.rx_ring_for(&bulk(0))),
            "Bulk's ring is full"
        );
        assert!(
            !n.rx_ring_is_full(n.rx_ring_for(&control)),
            "Control's is not"
        );
        assert!(n.rx_arrive(control).is_ok());
        assert_eq!(n.rx_take_from(2).unwrap().id, PacketId(0));
        assert!(!n.rx_ring_is_full(2), "a take frees Bulk's ring");
        assert!(n.rx_arrive(bulk(6)).is_ok());
        assert_eq!(
            [n.rx_ring_len(0), n.rx_ring_len(1), n.rx_ring_len(2)],
            [1, 0, 4]
        );
        assert_eq!(n.rx_pending(), 5);
        assert_eq!(n.ipkts(), 6);
        for i in 0..5 {
            n.rx_arrive(stamped(20 + i, Some(TrafficClass::Control)));
        }
        assert_eq!(n.rx_ring_drops(), 2 + 2, "Bulk's two and Control's two");
    }

    fn udp_key(src_port: u16) -> FlowKey {
        FlowKey {
            src_ip: 0x0a00_0002,
            dst_ip: 0x0a01_0063,
            proto: 17,
            src_port,
            dst_port: 9,
        }
    }

    #[test]
    fn rss_hash_is_deterministic_and_flow_stable() {
        let h = rss_hash(&udp_key(5001));
        assert_eq!(h, rss_hash(&udp_key(5001)));
        // Different flows (almost surely) hash differently.
        assert_ne!(h, rss_hash(&udp_key(5002)));
        // Queue choice is hash mod nqueues, stable per flow.
        for nq in [1usize, 2, 4] {
            let q = rss_queue(&udp_key(5001), nq);
            assert!(q < nq);
            assert_eq!(q, (h % nq as u64) as usize);
        }
    }

    #[test]
    fn rss_spreads_ports_across_queues() {
        // A modest port range must not degenerate onto one queue.
        let mut hits = [0usize; 4];
        for port in 5000u16..5064 {
            hits[rss_queue(&udp_key(port), 4)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "some queue starved: {hits:?}");
    }
}
