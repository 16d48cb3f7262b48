//! Deterministic traffic generation.
//!
//! The paper's source host sent "10000 UDP packets carrying 4 bytes of
//! data" at a nominal rate, noting that "this system does not generate a
//! precisely paced stream of packets". [`TrafficGen`] reproduces that: a
//! constant-rate process with ±20 % jitter. [`TraceReplay`] walks the
//! schedule it produced.

use std::net::Ipv4Addr;

use livelock_sim::{Cycles, Freq, Rng};

use crate::ethernet::MacAddr;
use crate::packet::{udp_frame, FlowKey, Packet, PacketId};
use crate::pool::FramePool;

/// Builds the paper's UDP test datagrams with sequential ids.
#[derive(Clone, Debug)]
pub struct PacketFactory {
    /// Source MAC (the generating host's interface).
    pub src_mac: MacAddr,
    /// Destination MAC (the router's input interface).
    pub dst_mac: MacAddr,
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP (the phantom host behind the router).
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Initial TTL.
    pub ttl: u8,
    /// UDP payload length in bytes (the paper used 4).
    pub payload_len: usize,
    next_id: u64,
    pool: Option<FramePool>,
    /// All-zero payload the templates are encoded over, `payload_len` long.
    zeros: Vec<u8>,
    /// Cached encoded frames, one per addressing key seen: every packet
    /// built under one key has byte-identical headers and payload (ids
    /// live outside the frame), so steady-state generation is one memcpy
    /// instead of re-encoding two checksums per packet. The addressing
    /// fields are public and callers change them mid-stream — a
    /// multi-flow trial cycles `src_port` on every packet — so the cache
    /// is keyed, not single-entry. At most [`TEMPLATE_CAP`] entries; a
    /// new key arriving at a full cache empties it and starts over.
    templates: Vec<Template>,
    /// Index of the template the previous packet used.
    last: usize,
}

/// Most frame templates a [`PacketFactory`] keeps. A flow pattern cycling
/// through more keys than this never grows the cache, but pays for it on
/// every packet: a scan of the cached keys, a re-encode and one heap
/// allocation for the new template (the single-entry cache this replaced
/// paid the re-encode and two allocations, without the scan). No trial
/// shape in the workspace uses more than 64 flows.
const TEMPLATE_CAP: usize = 128;

/// One cached frame: the addressing it was encoded from, its bytes, and
/// the flow key parsed from those bytes once, stamped on every packet
/// built from it.
#[derive(Clone, Debug)]
struct Template {
    key: TemplateKey,
    frame: Vec<u8>,
    flow: Option<FlowKey>,
}

/// The addressing fields a cached frame template depends on.
type TemplateKey = (
    MacAddr,
    MacAddr,
    Ipv4Addr,
    Ipv4Addr,
    u16,
    u16,
    u8,
    usize,
);

impl PacketFactory {
    /// Creates a factory mirroring the paper's testbed addressing: traffic
    /// from a source host on net 10.0/16 to a phantom destination on
    /// net 10.1/16, 4-byte payloads.
    pub fn paper_testbed() -> Self {
        PacketFactory {
            src_mac: MacAddr::local(0x100),
            dst_mac: MacAddr::local(1),
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_ip: Ipv4Addr::new(10, 1, 0, 99),
            src_port: 5001,
            dst_port: 9, // Discard.
            ttl: 32,
            payload_len: 4,
            next_id: 0,
            pool: None,
            zeros: Vec::new(),
            templates: Vec::new(),
            last: 0,
        }
    }

    /// Draws every subsequent frame buffer from `pool` instead of the heap.
    pub fn with_pool(mut self, pool: FramePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Numbers subsequent packets from `id` instead of zero, so several
    /// factories (one per receive queue) can share one id space
    /// ([`built`](Self::built) then reports the next id).
    pub fn starting_at(mut self, id: u64) -> Self {
        self.next_id = id;
        self
    }

    /// The pool this factory allocates from, if any.
    pub fn pool(&self) -> Option<&FramePool> {
        self.pool.as_ref()
    }

    /// Builds the next packet, its [`flow`](crate::packet::PacketBody::flow)
    /// stamped with the template's key.
    pub fn next_packet(&mut self) -> Packet {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let at = self.template_index();
        let template = &self.templates[at];
        let mut pkt = match &self.pool {
            Some(pool) => {
                let mut buf = pool.take(template.frame.len());
                buf.copy_from_slice(&template.frame);
                Packet::from_frame(id, buf)
            }
            None => Packet::from_frame(id, template.frame.clone()),
        };
        pkt.flow = template.flow;
        pkt
    }

    /// Index in `templates` of the encoded frame for the current
    /// addressing fields, encoding it first if this key is new.
    fn template_index(&mut self) -> usize {
        let key = (
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.ttl,
            self.payload_len,
        );
        // Probe the last hit's successor first: a round-robin flow
        // pattern (and a single-key stream, whose successor is itself)
        // hits there, and only a key out of turn scans.
        let next = if self.last + 1 < self.templates.len() {
            self.last + 1
        } else {
            0
        };
        let hit = match self.templates.get(next) {
            Some(t) if t.key == key => Some(next),
            _ => self.templates.iter().position(|t| t.key == key),
        };
        self.last = match hit {
            Some(i) => i,
            None => {
                // Encode (and parse the flow key) once through the full
                // header/checksum path; the id is carried beside the
                // frame, never inside it, so every later packet with this
                // key reuses these bytes and that key.
                self.zeros.resize(self.payload_len, 0);
                let frame = udp_frame(
                    self.src_mac,
                    self.dst_mac,
                    self.src_ip,
                    self.dst_ip,
                    self.src_port,
                    self.dst_port,
                    self.ttl,
                    &self.zeros,
                );
                if self.templates.len() == TEMPLATE_CAP {
                    self.templates.clear();
                }
                let flow = FlowKey::parse(&frame);
                self.templates.push(Template { key, frame, flow });
                self.templates.len() - 1
            }
        };
        self.last
    }

    /// Returns how many packets have been built.
    pub fn built(&self) -> u64 {
        self.next_id
    }
}

/// A deterministic arrival-time generator for a nominal packet rate:
/// constant rate with uniform jitter of ±`jitter` (a fraction of the mean
/// interval; 0.0 is perfectly paced).
#[derive(Clone, Debug)]
pub struct TrafficGen {
    jitter: f64,
    mean_interval: Cycles,
    rng: Rng,
}

impl TrafficGen {
    fn new(jitter: f64, rate_pps: f64, freq: Freq, seed: u64) -> Self {
        assert!(rate_pps > 0.0, "rate must be positive");
        TrafficGen {
            jitter: jitter.clamp(0.0, 0.999),
            mean_interval: freq.interval_for_rate(rate_pps),
            rng: Rng::seed_from(seed),
        }
    }

    /// The paper's source host: `rate_pps` packets per second on average
    /// at CPU frequency `freq`, ±20% jitter (its "short-term rates varied
    /// somewhat") drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_pps` is not positive.
    pub fn paper_default(rate_pps: f64, freq: Freq, seed: u64) -> Self {
        TrafficGen::new(0.2, rate_pps, freq, seed)
    }

    /// Returns the delay from the previous packet to the next one.
    pub fn next_interval(&mut self) -> Cycles {
        let mean = self.mean_interval.raw() as f64;
        let factor = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
        Cycles::new((mean * factor).round().max(1.0) as u64)
    }

    /// Generates absolute arrival times for `n` packets starting at `start`.
    pub fn arrival_times(&mut self, start: Cycles, n: usize) -> Vec<Cycles> {
        let mut out = Vec::with_capacity(n);
        let mut t = start;
        for _ in 0..n {
            t += self.next_interval();
            out.push(t);
        }
        out
    }
}

/// Replays a fixed schedule of absolute arrival times: the cursor a
/// trial's arrival source walks, building each packet only when the
/// simulation reaches its time.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    times: Vec<Cycles>,
    pos: usize,
}

impl TraceReplay {
    /// Creates a replayer over non-decreasing arrival times.
    ///
    /// # Panics
    ///
    /// Panics if the times are not sorted.
    pub fn new(times: Vec<Cycles>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace must be sorted"
        );
        TraceReplay { times, pos: 0 }
    }

    /// The next arrival time without consuming it.
    pub fn peek(&self) -> Option<Cycles> {
        self.times.get(self.pos).copied()
    }

    /// Returns the next arrival time, if any.
    pub fn next_arrival(&mut self) -> Option<Cycles> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Returns how many arrivals remain.
    pub fn remaining(&self) -> usize {
        self.times.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FREQ: Freq = Freq::mhz(100);

    #[test]
    fn factory_builds_min_frames_with_sequential_ids() {
        let mut f = PacketFactory::paper_testbed();
        let a = f.next_packet();
        let b = f.next_packet();
        assert_eq!(a.id, PacketId(0));
        assert_eq!(b.id, PacketId(1));
        assert_eq!(a.len(), crate::packet::MIN_FRAME_LEN);
        assert_eq!(f.built(), 2);
        let c = PacketFactory::paper_testbed().starting_at(40).next_packet();
        assert_eq!(c.id, PacketId(40));
        let ip = a.ipv4().unwrap();
        assert_eq!(ip.dst, Ipv4Addr::new(10, 1, 0, 99));
    }

    /// What the factory's current fields encode to, bypassing the cache.
    fn fresh_encode(f: &PacketFactory) -> Vec<u8> {
        Packet::udp_ipv4(
            PacketId(0),
            f.src_mac,
            f.dst_mac,
            f.src_ip,
            f.dst_ip,
            f.src_port,
            f.dst_port,
            f.ttl,
            &vec![0u8; f.payload_len],
        )
        .frame
        .clone()
    }

    #[test]
    fn cached_frames_equal_fresh_encodes_for_every_source_port() {
        // Pooled and unpooled take the same template path; alternate so
        // both are covered. Two laps, so every port is served from the
        // cache (or its replacement) at least once.
        let mut pooled = PacketFactory::paper_testbed().with_pool(FramePool::new(128, 4));
        let mut plain = PacketFactory::paper_testbed();
        for _lap in 0..2 {
            for port in 0..=u16::MAX {
                let f = if port % 2 == 0 {
                    &mut pooled
                } else {
                    &mut plain
                };
                f.src_port = port;
                let want = fresh_encode(f);
                assert_eq!(f.next_packet().frame, want, "src_port {port}");
                assert!(f.templates.len() <= TEMPLATE_CAP);
            }
        }
        assert_eq!(pooled.pool().unwrap().stats().misses, 0);
    }

    #[test]
    fn every_addressing_field_keys_the_cache() {
        let mut f = PacketFactory::paper_testbed();
        let mut seen = vec![f.next_packet().frame.clone()];
        let edits: [fn(&mut PacketFactory); 7] = [
            |f| f.dst_port = 53,
            |f| f.ttl = 1,
            |f| f.payload_len = 100,
            |f| f.src_mac = MacAddr::local(7),
            |f| f.dst_mac = MacAddr::local(8),
            |f| f.src_ip = Ipv4Addr::new(10, 0, 3, 4),
            |f| f.dst_ip = Ipv4Addr::new(10, 1, 5, 6),
        ];
        for (i, edit) in edits.iter().enumerate() {
            edit(&mut f);
            let want = fresh_encode(&f);
            // Mid-stream: the packet right after the edit already differs,
            // and the next one (now cached) is the same bytes again.
            assert_eq!(f.next_packet().frame, want, "edit {i}");
            assert_eq!(f.next_packet().frame, want, "edit {i}, cached");
            assert!(!seen.contains(&want), "edit {i} changed the frame");
            seen.push(want);
        }
        assert_eq!(f.templates.len(), 1 + edits.len());
        // Back to an earlier key (undo the last edit): served from its
        // cached entry.
        f.dst_ip = PacketFactory::paper_testbed().dst_ip;
        assert_eq!(f.next_packet().frame, fresh_encode(&f));
        assert_eq!(f.templates.len(), 1 + edits.len());
    }

    #[test]
    fn stamped_flow_key_is_the_built_frames_key() {
        // Every template, through evictions (three laps of 3 × TEMPLATE_CAP
        // ports, then a stride that defeats the round-robin probe), pooled
        // and not, with every addressing field moved once.
        let mut pooled = PacketFactory::paper_testbed().with_pool(FramePool::new(128, 4));
        let mut plain = PacketFactory::paper_testbed();
        let ports = (0..3 * TEMPLATE_CAP as u16)
            .cycle()
            .take(9 * TEMPLATE_CAP)
            .chain((0..4_096u16).map(|p| p.wrapping_mul(7919)));
        for (n, port) in ports.enumerate() {
            for f in [&mut pooled, &mut plain] {
                f.src_port = port;
                match n % 1_000 {
                    250 => f.dst_port = f.dst_port.wrapping_add(1),
                    500 => f.src_ip = Ipv4Addr::from(u32::from(f.src_ip) + 1),
                    750 => f.payload_len += 1,
                    999 => f.ttl -= 1,
                    _ => {}
                }
                let pkt = f.next_packet();
                assert!(pkt.flow.is_some(), "port {port}: a UDP frame has a key");
                assert_eq!(pkt.flow, pkt.flow_key(), "port {port}");
            }
        }
        assert!(pooled.pool().is_some_and(|p| p.stats().misses == 0));
    }

    #[test]
    fn template_cache_is_bounded() {
        let mut f = PacketFactory::paper_testbed();
        // A flow set that fits: one template each, none rebuilt.
        for lap in 0..3 {
            for port in 0..TEMPLATE_CAP as u16 {
                f.src_port = port;
                f.next_packet();
            }
            assert_eq!(f.templates.len(), TEMPLATE_CAP, "lap {lap}");
        }
        // An adversarial sequence — every port, then strides that defeat
        // the round-robin probe — never grows it.
        let capacity = f.templates.capacity();
        for port in (0..=u16::MAX).chain((0..=u16::MAX).map(|p| p.wrapping_mul(7919))) {
            f.src_port = port;
            f.next_packet();
            assert!(f.templates.len() <= TEMPLATE_CAP);
        }
        assert_eq!(f.templates.capacity(), capacity, "not reallocated once full");
    }

    #[test]
    fn cbr_mean_rate_is_close() {
        let mut g = TrafficGen::paper_default(10_000.0, FREQ, 42);
        let n = 50_000;
        let times = g.arrival_times(Cycles::ZERO, n);
        let span = FREQ.secs_from_cycles(*times.last().unwrap());
        let rate = n as f64 / span;
        assert!((rate - 10_000.0).abs() < 200.0, "rate = {rate}");
    }

    #[test]
    fn zero_jitter_is_perfectly_paced() {
        let mut g = TrafficGen::new(0.0, 1000.0, FREQ, 1);
        let i1 = g.next_interval();
        let i2 = g.next_interval();
        assert_eq!(i1, i2);
        assert_eq!(i1, Cycles::new(100_000));
    }

    #[test]
    fn determinism_across_instances() {
        let a = TrafficGen::paper_default(4_000.0, FREQ, 99).arrival_times(Cycles::ZERO, 100);
        let b = TrafficGen::paper_default(4_000.0, FREQ, 99).arrival_times(Cycles::ZERO, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_replay() {
        let mut tr = TraceReplay::new(vec![Cycles::new(1), Cycles::new(5), Cycles::new(5)]);
        assert_eq!(tr.remaining(), 3);
        assert_eq!(tr.peek(), Some(Cycles::new(1)));
        assert_eq!(tr.remaining(), 3, "peek consumes nothing");
        assert_eq!(tr.next_arrival(), Some(Cycles::new(1)));
        assert_eq!(tr.next_arrival(), Some(Cycles::new(5)));
        assert_eq!(tr.next_arrival(), Some(Cycles::new(5)));
        assert_eq!(tr.next_arrival(), None);
        assert_eq!(tr.peek(), None);
        assert_eq!(tr.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn trace_must_be_sorted() {
        let _ = TraceReplay::new(vec![Cycles::new(5), Cycles::new(1)]);
    }

    proptest! {
        #[test]
        fn intervals_are_always_positive(rate in 1.0f64..100_000.0, seed in any::<u64>()) {
            let mut g = TrafficGen::paper_default(rate, FREQ, seed);
            for _ in 0..100 {
                prop_assert!(g.next_interval() >= Cycles::new(1));
            }
        }

        #[test]
        fn arrival_times_monotone(rate in 10.0f64..50_000.0, seed in any::<u64>()) {
            let mut g = TrafficGen::paper_default(rate, FREQ, seed);
            let times = g.arrival_times(Cycles::new(1000), 200);
            prop_assert!(times.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(times[0] > Cycles::new(1000));
        }
    }
}
