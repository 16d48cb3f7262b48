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

use livelock_net::packet::Packet;
use livelock_net::queue::{DropTailQueue, Enqueued};
use std::collections::VecDeque;

/// RSS-style 5-tuple flow hash: FNV-1a over (src ip, dst ip, protocol,
/// src port, dst port). Deterministic — no per-boot secret key — so the
/// same flow always lands on the same receive queue, which is exactly the
/// cache-affinity property hardware RSS provides.
pub fn rss_hash(src_ip: u32, dst_ip: u32, proto: u8, src_port: u16, dst_port: u16) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for b in src_ip.to_be_bytes() {
        eat(b);
    }
    for b in dst_ip.to_be_bytes() {
        eat(b);
    }
    eat(proto);
    for b in src_port.to_be_bytes() {
        eat(b);
    }
    for b in dst_port.to_be_bytes() {
        eat(b);
    }
    h
}

/// The receive queue a 5-tuple hashes to, out of `nqueues`.
pub fn rss_queue(src_ip: u32, dst_ip: u32, proto: u8, src_port: u16, dst_port: u16, nqueues: usize) -> usize {
    assert!(nqueues > 0, "a NIC has at least one receive queue");
    (rss_hash(src_ip, dst_ip, proto, src_port, dst_port) % nqueues as u64) as usize
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

/// One network interface: receive ring, transmit ring, interrupt-enable
/// flags, and counters (`Ipkts`/`Opkts`, as `netstat` reports them).
#[derive(Clone, Debug)]
pub struct Nic {
    name: &'static str,
    rx_ring: DropTailQueue<Packet>,
    /// Per-priority receive rings (index = priority, 0 highest), present
    /// only when the host enabled classified admission. `None` keeps the
    /// single classless `rx_ring` — the bit-identical legacy layout.
    rx_class_rings: Option<Vec<DropTailQueue<Packet>>>,
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
    /// Creates a NIC with both interrupt directions enabled.
    pub fn new(name: &'static str, config: NicConfig) -> Self {
        Nic {
            name,
            rx_ring: DropTailQueue::new("rx-ring", config.rx_ring),
            rx_class_rings: None,
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

    /// Returns the interface's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    // --- Receive side ---

    /// A frame finished arriving on the wire; DMA places it in the receive
    /// ring. Returns whether the ring accepted it (a full ring drops the
    /// frame at zero host cost). The caller decides whether to post an
    /// interrupt, based on [`Nic::rx_intr_enabled`].
    pub fn rx_arrive(&mut self, pkt: Packet) -> Enqueued {
        let r = self.rx_ring.enqueue(pkt);
        if r.is_ok() {
            self.ipkts += 1;
        }
        r
    }

    /// The driver pulls the oldest received frame out of the ring.
    pub fn rx_take(&mut self) -> Option<Packet> {
        self.rx_ring.dequeue()
    }

    // --- Per-priority receive rings (classified admission) ---

    /// Diagnostic names for the per-priority rings, highest priority
    /// first. Bounds the supported ring count.
    const CLASS_RING_NAMES: [&'static str; 3] = ["rx-ring-p0", "rx-ring-p1", "rx-ring-p2"];

    /// Splits the receive side into `n` per-priority rings (1..=3, index
    /// 0 = highest priority), each with the configured ring's capacity —
    /// the hardware analogue of a multiqueue NIC whose queues are keyed
    /// by a priority field instead of an RSS hash. Frames already in the
    /// classless ring stay there; callers enable class rings before
    /// traffic starts.
    pub fn enable_class_rings(&mut self, n: usize) {
        let n = n.clamp(1, Self::CLASS_RING_NAMES.len());
        let cap = self.rx_ring.capacity();
        self.rx_class_rings = Some(
            Self::CLASS_RING_NAMES[..n]
                .iter()
                .map(|name| DropTailQueue::new(name, cap))
                .collect(),
        );
    }

    /// DMA places a classified frame in its priority ring (out-of-range
    /// priorities land in the lowest ring). Falls back to the classless
    /// ring when class rings are off. Returns whether the ring accepted
    /// the frame.
    pub fn rx_arrive_classed(&mut self, pkt: Packet, priority: usize) -> Enqueued {
        let Some(rings) = &mut self.rx_class_rings else {
            return self.rx_arrive(pkt);
        };
        let i = priority.min(rings.len() - 1);
        let r = rings[i].enqueue(pkt);
        if r.is_ok() {
            self.ipkts += 1;
        }
        r
    }

    /// The driver pulls the oldest frame from priority ring `priority`.
    pub fn rx_take_class(&mut self, priority: usize) -> Option<Packet> {
        self.rx_class_rings.as_mut()?.get_mut(priority)?.dequeue()
    }

    /// Mutable access to the oldest frame in priority ring `priority`
    /// (the classed twin of [`Nic::rx_peek_mut`]).
    pub fn rx_peek_class_mut(&mut self, priority: usize) -> Option<&mut Packet> {
        self.rx_class_rings.as_mut()?.get_mut(priority)?.peek_mut()
    }

    /// Frames waiting in priority ring `priority` (0 when out of range
    /// or classless).
    pub fn rx_pending_class(&self, priority: usize) -> usize {
        self.rx_class_rings
            .as_ref()
            .and_then(|r| r.get(priority))
            .map_or(0, DropTailQueue::len)
    }

    /// Mutable access to the oldest ring frame without taking it — lets the
    /// host stamp the packet when it starts processing, before the chunk
    /// that consumes it completes.
    pub fn rx_peek_mut(&mut self) -> Option<&mut Packet> {
        self.rx_ring.peek_mut()
    }

    /// Number of frames waiting in the receive ring (summed across the
    /// per-priority rings when classified admission is on).
    pub fn rx_pending(&self) -> usize {
        match &self.rx_class_rings {
            Some(rings) => rings.iter().map(DropTailQueue::len).sum(),
            None => self.rx_ring.len(),
        }
    }

    /// Whether the receive ring has no free descriptor — the next
    /// [`Nic::rx_arrive`] would drop. The SMP steal path checks this
    /// before DMA to divert the frame instead of losing it. With class
    /// rings on, true only when every priority ring is full.
    pub fn rx_ring_is_full(&self) -> bool {
        match &self.rx_class_rings {
            Some(rings) => rings.iter().all(DropTailQueue::is_full),
            None => self.rx_ring.is_full(),
        }
    }

    /// Frames dropped because the receive ring was full (summed across
    /// the per-priority rings when classified admission is on).
    pub fn rx_ring_drops(&self) -> u64 {
        self.rx_ring.drops()
            + self
                .rx_class_rings
                .as_ref()
                .map_or(0, |rings| rings.iter().map(DropTailQueue::drops).sum())
    }

    /// Total frames accepted into the receive ring (`Ipkts`).
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

    #[test]
    fn rx_ring_full_flag_tracks_occupancy() {
        let mut n = nic(); // rx_ring = 4
        for i in 0..3 {
            n.rx_arrive(pkt(i));
        }
        assert!(!n.rx_ring_is_full());
        n.rx_arrive(pkt(3));
        assert!(n.rx_ring_is_full());
        n.rx_take();
        assert!(!n.rx_ring_is_full());
    }

    #[test]
    fn class_rings_partition_the_receive_side() {
        let mut n = nic(); // rx_ring = 4 -> each class ring gets 4 slots
        assert!(n.rx_class_rings.is_none());
        n.enable_class_rings(3);
        assert_eq!(n.rx_class_rings.as_ref().map(Vec::len), Some(3));
        // Fill priority 2 past capacity; priorities 0 and 1 stay open.
        for i in 0..6 {
            n.rx_arrive_classed(pkt(i), 2);
        }
        assert!(n.rx_arrive_classed(pkt(10), 0).is_ok());
        assert!(n.rx_arrive_classed(pkt(11), 1).is_ok());
        assert_eq!(n.rx_pending_class(0), 1);
        assert_eq!(n.rx_pending_class(1), 1);
        assert_eq!(n.rx_pending_class(2), 4);
        assert_eq!(n.rx_pending(), 6);
        assert_eq!(n.rx_ring_drops(), 2, "only the bulk ring overflowed");
        assert_eq!(n.ipkts(), 6);
        assert!(!n.rx_ring_is_full(), "higher-priority rings still open");
        // Out-of-range priorities land in the lowest ring (already full).
        assert_eq!(n.rx_arrive_classed(pkt(12), 9), Enqueued::Dropped);
        // Per-ring FIFO, selectable by priority.
        assert_eq!(n.rx_take_class(0).unwrap().id, PacketId(10));
        assert_eq!(n.rx_peek_class_mut(2).unwrap().id, PacketId(0));
        assert_eq!(n.rx_take_class(2).unwrap().id, PacketId(0));
        assert!(n.rx_take_class(0).is_none());
    }

    #[test]
    fn rss_hash_is_deterministic_and_flow_stable() {
        let h = rss_hash(0x0a00_0002, 0x0a01_0063, 17, 5001, 9);
        assert_eq!(h, rss_hash(0x0a00_0002, 0x0a01_0063, 17, 5001, 9));
        // Different flows (almost surely) hash differently.
        assert_ne!(h, rss_hash(0x0a00_0002, 0x0a01_0063, 17, 5002, 9));
        // Queue choice is hash mod nqueues, stable per flow.
        for nq in [1usize, 2, 4] {
            let q = rss_queue(0x0a00_0002, 0x0a01_0063, 17, 5001, 9, nq);
            assert!(q < nq);
            assert_eq!(q, (h % nq as u64) as usize);
        }
    }

    #[test]
    fn rss_spreads_ports_across_queues() {
        // A modest port range must not degenerate onto one queue.
        let mut hits = [0usize; 4];
        for port in 5000u16..5064 {
            hits[rss_queue(0x0a00_0002, 0x0a01_0063, 17, port, 9, 4)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "some queue starved: {hits:?}");
    }
}
