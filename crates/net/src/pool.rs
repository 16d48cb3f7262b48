//! Pooled packet slots: a freelist that recycles packet memory.
//!
//! Every packet in the simulation owns a **slot**: its metadata (id,
//! timestamps, stage stamps, flow, class) and its frame bytes together,
//! a [`PacketBody`] on the heap. What travels through rings, queues and
//! events is a 16-byte handle to that slot — the mbuf *pointer* of the
//! paper's kernel — so a hop moves two words, not the packet. Allocating
//! a fresh slot per packet would put malloc/free pairs on the per-packet
//! path — exactly the overhead the paper's mbuf clusters avoid in real
//! BSD. A [`FramePool`] removes them: slots are drawn from a freelist and
//! return to it automatically when their handle is dropped, so
//! steady-state forwarding performs **zero heap allocations per packet**
//! once the pool has warmed up.
//!
//! The pool is a single-threaded `Rc<RefCell<..>>` handle by design: each
//! simulated trial is one deterministic single-threaded event loop, and
//! pools never cross threads (the parallel trial executor builds one pool
//! per worker-local engine). A slot taken from a pool has pristine
//! metadata and zero-filled bytes, so recycling can never leak one
//! packet's stamps, flow, class or bytes into the next.
//!
//! Unpooled operation still works everywhere: `FrameBuf::from(vec)` wraps
//! a plain heap vector in a slot of its own with identical behaviour
//! minus the recycling, which keeps every pre-pool call site and test
//! valid.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::packet::{PacketBody, MAX_FRAME_LEN};

/// Counters describing a pool's lifetime behaviour and current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slots ever created by this pool (preallocation + misses).
    pub allocated: u64,
    /// Total [`FramePool::take`] calls.
    pub acquired: u64,
    /// Slots returned to the freelist by handle drops.
    pub recycled: u64,
    /// Takes that found the freelist empty and had to heap-allocate.
    pub misses: u64,
    /// Slots currently checked out.
    pub outstanding: usize,
    /// Maximum simultaneous checked-out slots ever observed, in *host*
    /// order: a pool shared by several simulated CPUs sees them take and
    /// release in whatever order the host runs them (one CPU's whole
    /// trial after another's, when they share no channel), so this is not
    /// a simulated quantity and nothing simulated reads it.
    pub high_water: usize,
    /// Slots currently sitting in the freelist.
    pub free: usize,
}

struct PoolInner {
    free: Vec<Box<PacketBody>>,
    buf_capacity: usize,
    stats: PoolStats,
}

/// A cloneable handle to a freelist of packet slots.
///
/// Cloning the handle shares the underlying pool (it is an `Rc`).
#[derive(Clone)]
pub struct FramePool {
    inner: Rc<RefCell<PoolInner>>,
}

impl FramePool {
    /// Creates a pool whose slots reserve `buf_capacity` frame bytes each,
    /// preallocating `prealloc` of them up front.
    pub fn new(buf_capacity: usize, prealloc: usize) -> Self {
        let free = (0..prealloc)
            .map(|_| Box::new(PacketBody::with_capacity(buf_capacity)))
            .collect();
        let stats = PoolStats {
            allocated: prealloc as u64,
            ..PoolStats::default()
        };
        FramePool {
            inner: Rc::new(RefCell::new(PoolInner {
                free,
                buf_capacity,
                stats,
            })),
        }
    }

    /// A pool of full-size Ethernet frame buffers ([`MAX_FRAME_LEN`] bytes).
    pub fn for_frames(prealloc: usize) -> Self {
        FramePool::new(MAX_FRAME_LEN, prealloc)
    }

    /// Takes a slot with pristine metadata and `len` zero-filled frame
    /// bytes from the pool.
    ///
    /// Pops the freelist when possible; otherwise heap-allocates (counted
    /// as a miss) so the pool degrades gracefully under underestimation
    /// rather than failing.
    pub fn take(&self, len: usize) -> FrameBuf {
        let mut inner = self.inner.borrow_mut();
        let mut slot = match inner.free.pop() {
            Some(slot) => {
                // `frame` is a public `Vec` reachable through the handle;
                // swapping it out (`pkt.frame = v`, `mem::take`) would
                // send the slot back without its pool-sized buffer and
                // make the next take allocate behind `misses`' back.
                debug_assert!(
                    slot.frame.capacity() >= inner.buf_capacity,
                    "a pooled slot came back without its frame buffer"
                );
                slot
            }
            None => {
                inner.stats.misses += 1;
                inner.stats.allocated += 1;
                Box::new(PacketBody::with_capacity(inner.buf_capacity.max(len)))
            }
        };
        slot.reset(len);
        inner.stats.acquired += 1;
        inner.stats.outstanding += 1;
        inner.stats.high_water = inner.stats.high_water.max(inner.stats.outstanding);
        FrameBuf {
            slot: Some(slot),
            pool: Some(self.clone()),
        }
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.borrow();
        PoolStats {
            free: inner.free.len(),
            ..inner.stats
        }
    }
}

impl fmt::Debug for FramePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramePool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// An owning, two-word handle to one packet slot, either pooled (the slot
/// returns to its [`FramePool`] on drop) or a plain heap slot
/// (`FrameBuf::from(vec)`).
///
/// As a `FrameBuf` the slot is a frame under construction: its metadata
/// is pristine and the handle dereferences to the frame bytes (`[u8]`),
/// so slicing and header codec call sites work on it directly.
/// [`Packet::from_frame`](crate::packet::Packet::from_frame) turns it
/// into a packet — the same handle, now dereferencing to the metadata.
pub struct FrameBuf {
    /// `Some` until `Drop` hands the slot back to the pool.
    slot: Option<Box<PacketBody>>,
    pool: Option<FramePool>,
}

impl FrameBuf {
    /// The slot behind the handle.
    pub(crate) fn body(&self) -> &PacketBody {
        match &self.slot {
            Some(slot) => slot,
            None => unreachable!("the slot is only taken in Drop"),
        }
    }

    /// The slot behind the handle, mutably.
    pub(crate) fn body_mut(&mut self) -> &mut PacketBody {
        match &mut self.slot {
            Some(slot) => slot,
            None => unreachable!("the slot is only taken in Drop"),
        }
    }

    /// Grows or shrinks the logical frame length, filling new bytes with
    /// `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.body_mut().frame.resize(new_len, value);
    }

    /// Whether this slot recycles into a pool when dropped.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let (Some(pool), Some(slot)) = (self.pool.take(), self.slot.take()) {
            let mut inner = pool.inner.borrow_mut();
            inner.free.push(slot);
            inner.stats.recycled += 1;
            inner.stats.outstanding -= 1;
        }
    }
}

impl Clone for FrameBuf {
    /// Copies the whole slot, metadata and bytes. Clones draw from the
    /// same pool when the original is pooled, so copies recycle too.
    fn clone(&self) -> Self {
        let src = self.body();
        match &self.pool {
            Some(pool) => {
                let mut out = pool.take(0);
                out.body_mut().copy_from(src);
                out
            }
            None => FrameBuf {
                slot: Some(Box::new(src.clone())),
                pool: None,
            },
        }
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(buf: Vec<u8>) -> Self {
        FrameBuf {
            slot: Some(Box::new(PacketBody::new(buf))),
            pool: None,
        }
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.body().frame
    }
}

impl DerefMut for FrameBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.body_mut().frame
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameBuf")
            .field("len", &self.len())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for FrameBuf {}

#[cfg(test)]
mod tests {
    use livelock_sim::Cycles;

    use super::*;
    use crate::classify::TrafficClass;
    use crate::packet::{FlowKey, Packet, PacketId, StageStamps, MIN_FRAME_LEN};

    #[test]
    fn take_recycles_on_drop() {
        let pool = FramePool::new(64, 2);
        assert_eq!(pool.stats().free, 2);
        {
            let a = pool.take(60);
            let b = pool.take(60);
            assert_eq!(a.len(), 60);
            assert_eq!(b.len(), 60);
            assert_eq!(pool.stats().free, 0);
            assert_eq!(pool.stats().outstanding, 2);
        }
        assert_eq!(pool.stats().free, 2);
        assert_eq!(pool.stats().outstanding, 0);
        let s = pool.stats();
        assert_eq!(s.acquired, 2);
        assert_eq!(s.recycled, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(s.allocated, 2);
        assert_eq!(s.high_water, 2);
    }

    #[test]
    fn exhaustion_allocates_and_counts_misses() {
        let pool = FramePool::new(64, 1);
        let a = pool.take(10);
        let b = pool.take(10); // Freelist empty: must heap-allocate.
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().allocated, 2);
        drop(a);
        drop(b);
        // Both buffers join the freelist; the pool has grown to demand.
        assert_eq!(pool.stats().free, 2);
        let c = pool.take(10);
        drop(c);
        assert_eq!(pool.stats().misses, 1, "no further miss after warm-up");
    }

    #[test]
    fn reuse_clears_stale_bytes() {
        let pool = FramePool::new(64, 1);
        {
            let mut a = pool.take(32);
            a.iter_mut().for_each(|b| *b = 0xAB);
        }
        let b = pool.take(48);
        assert_eq!(b.len(), 48);
        assert!(
            b.iter().all(|&x| x == 0),
            "recycled buffer must be zero-filled"
        );
    }

    #[test]
    fn steady_state_take_does_not_allocate() {
        let pool = FramePool::new(64, 4);
        for _ in 0..1000 {
            let x = pool.take(60);
            drop(x);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.allocated, 4);
        assert_eq!(s.acquired, 1000);
        assert_eq!(s.recycled, 1000);
        assert_eq!(s.high_water, 1);
    }

    #[test]
    fn clone_of_pooled_buffer_is_pooled() {
        let pool = FramePool::new(64, 2);
        let a = pool.take(16);
        let b = a.clone();
        assert!(b.is_pooled());
        assert_eq!(&a[..], &b[..]);
        assert_eq!(pool.stats().outstanding, 2);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn unpooled_from_vec_behaves_like_vec() {
        let pool = FramePool::new(64, 1);
        let before = pool.stats();
        let mut f = FrameBuf::from(vec![1u8, 2, 3]);
        assert!(!f.is_pooled());
        f.resize(5, 0);
        assert_eq!(&f[..], &[1, 2, 3, 0, 0]);
        let g = f.clone();
        assert!(!g.is_pooled());
        assert_eq!(f, g);
        drop(f);
        drop(g);
        assert_eq!(pool.stats(), before, "heap slots never touch a pool");
    }

    /// A packet with every metadata field written and every byte set.
    fn dirty(pool: &FramePool, len: usize) -> Packet {
        let mut p = Packet::from_frame(PacketId(77), pool.take(len));
        p.frame.iter_mut().for_each(|b| *b = 0xAB);
        p.arrived_at = Cycles::new(1);
        p.dequeued_at = Cycles::new(2);
        p.stamps = StageStamps {
            ring_deq: Cycles::new(3),
            fwd_start: Cycles::new(4),
            fwd_done: Cycles::new(5),
            sq_enq: Cycles::new(6),
            sq_deq: Cycles::new(7),
            out_enq: Cycles::new(8),
            tx_start: Cycles::new(9),
        };
        p.flow = Some(FlowKey {
            src_ip: 1,
            dst_ip: 2,
            proto: 17,
            src_port: 3,
            dst_port: 4,
        });
        p.class = Some(TrafficClass::Control);
        p
    }

    fn assert_pristine(p: &Packet, id: PacketId, len: usize) {
        assert_eq!(p.id, id);
        assert_eq!(p.arrived_at, Cycles::MAX);
        assert_eq!(p.dequeued_at, Cycles::MAX);
        assert_eq!(p.stamps, StageStamps::UNSET);
        assert_eq!(p.flow, None);
        assert_eq!(p.class, None);
        assert_eq!(p.len(), len);
        assert!(p.frame.iter().all(|&b| b == 0), "bytes zero-filled");
    }

    #[test]
    fn recycled_slot_carries_nothing_over() {
        // One slot, so the second take must reuse the first's memory.
        let pool = FramePool::new(128, 1);
        drop(dirty(&pool, 100));
        assert_eq!(pool.stats().recycled, 1);
        // As a bare frame buffer, then as a packet (padded up to the
        // Ethernet minimum over bytes the last user had set).
        let buf = pool.take(100);
        assert!(buf.iter().all(|&b| b == 0));
        assert_pristine(&Packet::from_frame(PacketId(5), buf), PacketId(5), 100);
        drop(dirty(&pool, 100));
        let short = Packet::from_frame(PacketId(6), pool.take(10));
        assert_pristine(&short, PacketId(6), MIN_FRAME_LEN);
        assert_eq!(pool.stats().misses, 0, "every take reused the slot");
    }

    #[test]
    fn pooled_clone_copies_metadata_and_recycles_on_its_own() {
        let pool = FramePool::new(128, 2);
        let a = dirty(&pool, 80);
        let mut b = a.clone();
        assert_eq!(pool.stats().outstanding, 2, "the clone drew from the same pool");
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(b.id, a.id);
        assert_eq!(b.arrived_at, a.arrived_at);
        assert_eq!(b.dequeued_at, a.dequeued_at);
        assert_eq!(b.stamps, a.stamps);
        assert_eq!(b.flow, a.flow);
        assert_eq!(b.class, a.class);
        assert_eq!(b.frame, a.frame);
        // Independent slots: writing one leaves the other alone…
        b.frame[0] = 0;
        b.stamps.tx_start = Cycles::new(99);
        assert_eq!(a.frame[0], 0xAB);
        assert_eq!(a.stamps.tx_start, Cycles::new(9));
        // …and each returns to the pool when it dies.
        drop(a);
        assert_eq!((pool.stats().outstanding, pool.stats().free), (1, 1));
        assert_eq!(b.len(), 80, "the clone outlives the original");
        drop(b);
        assert_eq!((pool.stats().outstanding, pool.stats().free), (0, 2));
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without its frame buffer")]
    fn swapping_out_a_pooled_frame_is_caught() {
        let pool = FramePool::new(64, 1);
        let mut p = Packet::from_frame(PacketId(0), pool.take(60));
        p.frame = vec![0u8; 8];
        drop(p);
        let _ = pool.take(60);
    }

    #[test]
    fn oversized_take_still_works() {
        let pool = FramePool::new(8, 1);
        let a = pool.take(100);
        assert_eq!(a.len(), 100);
        drop(a);
        // The grown buffer rejoins the freelist with its larger capacity.
        let b = pool.take(100);
        assert_eq!(pool.stats().misses, 0);
        assert_eq!(b.len(), 100);
    }

    #[cfg(feature = "proptest")]
    proptest::proptest! {
        /// Any interleaving of take / stamp / clone / drop keeps the
        /// pool's books equal to a model's, hands out only pristine
        /// slots, and never lets one live packet's writes show in
        /// another.
        #[test]
        fn interleaved_ops_match_model(
            prealloc in 0usize..6,
            ops in proptest::collection::vec((0u8..4, proptest::prelude::any::<u16>()), 0..200),
        ) {
            use proptest::prelude::*;
            let pool = FramePool::new(64, prealloc);
            // Live packets beside what each must read back as.
            let mut live: Vec<(Packet, u64, Cycles)> = Vec::new();
            let (mut acquired, mut recycled, mut allocated, mut high) = (0u64, 0u64, prealloc as u64, 0usize);
            for (op, arg) in ops {
                let pick = arg as usize % live.len().max(1);
                match op {
                    0 => {
                        let len = MIN_FRAME_LEN + arg as usize % 40;
                        let p = Packet::from_frame(PacketId(acquired), pool.take(len));
                        prop_assert_eq!(p.arrived_at, Cycles::MAX);
                        prop_assert_eq!(p.stamps, StageStamps::UNSET);
                        prop_assert_eq!(p.flow, None);
                        prop_assert_eq!(p.class, None);
                        prop_assert!(p.frame.iter().all(|&b| b == 0));
                        live.push((p, acquired, Cycles::MAX));
                    }
                    1 if !live.is_empty() => {
                        let (p, _, stamp) = &mut live[pick];
                        *stamp = Cycles::new(u64::from(arg));
                        p.arrived_at = *stamp;
                        p.stamps.ring_deq = *stamp;
                        p.frame.iter_mut().for_each(|b| *b = arg as u8);
                        p.class = Some(TrafficClass::Bulk);
                        continue;
                    }
                    2 if !live.is_empty() => {
                        let (p, id, stamp) = &live[pick];
                        let copy = (p.clone(), *id, *stamp);
                        prop_assert_eq!(&copy.0.frame, &p.frame);
                        prop_assert_eq!(copy.0.class, p.class);
                        live.push(copy);
                    }
                    3 if !live.is_empty() => {
                        live.swap_remove(pick);
                        recycled += 1;
                        continue;
                    }
                    _ => continue,
                }
                // A take or a clone drew one slot.
                acquired += 1;
                if live.len() as u64 > allocated {
                    allocated += 1;
                }
                high = high.max(live.len());
            }
            for (p, id, stamp) in &live {
                prop_assert_eq!(p.id, PacketId(*id));
                prop_assert_eq!(p.arrived_at, *stamp);
                prop_assert_eq!(p.stamps.ring_deq, *stamp);
            }
            let s = pool.stats();
            prop_assert_eq!(s.acquired, acquired);
            prop_assert_eq!(s.recycled, recycled);
            prop_assert_eq!(s.allocated, allocated);
            prop_assert_eq!(s.misses, allocated - prealloc as u64);
            prop_assert_eq!(s.outstanding, live.len());
            prop_assert_eq!(s.high_water, high);
            prop_assert_eq!(s.free as u64, allocated - live.len() as u64);
        }
    }
}
