//! Micro-loops over each layer's public functions, timed from outside.
//!
//! Every loop is workload-independent: a traced run of any workload
//! prints the same names. Each runs a fixed number of operations (so
//! run length is the same on every commit), inside its own span, and
//! reports normalised nanoseconds per operation.

use std::hint::black_box;
use std::net::Ipv4Addr;

use livelock_bench::p1_classify_config;
use livelock_core::cycle_limit::CycleLimiter;
use livelock_core::feedback::WatermarkFeedback;
use livelock_core::poller::{PollDirection, Poller, Quota};
use livelock_kernel::config::KernelConfig;
use livelock_kernel::flows::FlowRegistry;
use livelock_kernel::router::RouterKernel;
use livelock_kernel::stats::LatencyStats;
use livelock_machine::cluster::DEFAULT_SLICE;
use livelock_machine::cpu::EnvState;
use livelock_machine::{
    Chunk, Cluster, CpuId, CtxKind, Engine, Env, IntrSrc, Ipl, Nic, NicConfig, Workload,
};
use livelock_net::ethernet::MacAddr;
use livelock_net::gen::PacketFactory;
use livelock_net::ipv4::decrement_ttl;
use livelock_net::route::NextHop;
use livelock_net::{
    Classifier, DropTailQueue, FlowKey, FramePool, Packet, RouteTable, StageStamps,
};
use livelock_sim::{CalendarQueue, Cycles, EventQueue, HdrHistogram, Nanos, Rng, Scheduler};

use crate::calib::Clock;
use crate::trace::Tracer;

/// Runs the loops and collects `(metric name, value)` pairs.
pub struct Loops<'a> {
    /// The calibrated clock every loop is normalised with.
    pub clock: &'a mut Clock,
    /// Where each loop's span goes.
    pub tracer: &'a mut Tracer,
    /// The metrics so far.
    pub out: Vec<(String, f64)>,
}

impl Loops<'_> {
    /// Times `work` (which performs `ops` operations) in a span and
    /// records normalised ns per operation under `name`.
    fn per_op<R>(&mut self, name: &str, ops: u64, work: impl FnOnce() -> R) {
        let clock = &mut *self.clock;
        let norm_s = self.tracer.span(name, |_| {
            let (out, norm_s) = clock.time(work);
            black_box(out);
            (norm_s, vec![("ops", ops)])
        });
        self.out.push((name.to_string(), norm_s * 1e9 / ops as f64));
    }

    /// Runs every micro-loop.
    pub fn run_all(&mut self) {
        self.sim();
        self.net();
        self.machine();
        self.core();
        self.kernel();
    }

    fn sim(&mut self) {
        const OPS: u64 = 1_000_000;
        self.per_op("sim.heap.hold_ns", OPS, || {
            hold(EventQueue::new(), 10_000, OPS)
        });
        self.per_op("sim.calendar.hold_ns", OPS, || {
            hold(calendar(), 10_000, OPS)
        });
        self.per_op("sim.heap.hold_ns_100k", OPS, || {
            hold(EventQueue::new(), 100_000, OPS)
        });
        self.per_op("sim.calendar.hold_ns_100k", OPS, || {
            hold(calendar(), 100_000, OPS)
        });
        self.per_op("sim.calendar.smp_pattern_ns", OPS, || {
            smp_pattern(calendar(), 10_000, OPS)
        });
        const RECORDS: u64 = 8_000_000;
        self.per_op("sim.hdr.record_ns", RECORDS, || {
            let mut h = HdrHistogram::new();
            let mut rng = Rng::seed_from(3);
            for _ in 0..RECORDS {
                // Log-uniform over 1 µs .. ~65 ms, as sojourns are.
                let shift = rng.next_below(17);
                h.record(Nanos::new((1_000 + rng.next_below(1_000)) << shift));
            }
            h.count()
        });
    }

    fn net(&mut self) {
        const BATCH: usize = 1_024;
        const PKTS: u64 = 2_000_000;
        self.per_op("net.factory.ns_per_pkt", PKTS, || {
            let mut factory =
                PacketFactory::paper_testbed().with_pool(FramePool::for_frames(BATCH));
            let mut held = Vec::with_capacity(BATCH);
            for _ in 0..PKTS / BATCH as u64 {
                for _ in 0..BATCH {
                    held.push(factory.next_packet());
                }
                held.clear();
            }
            factory.built()
        });

        let pkts = flow_packets(64);
        const PARSES: u64 = 4_000_000;
        self.per_op("net.parse.ns_per_pkt", PARSES, || {
            let mut acc = 0u64;
            for i in 0..PARSES as usize {
                let ip = pkts[i % pkts.len()]
                    .ipv4()
                    .expect("generated frames are valid");
                acc += u64::from(ip.ttl) + u64::from(ip.total_len);
            }
            acc
        });

        const FORWARDS: u64 = 4_000_000;
        self.per_op("net.fwd_prims.ns_per_pkt", FORWARDS, || {
            let mut routes = RouteTable::new();
            for i in 0..2u8 {
                routes.insert(
                    Ipv4Addr::new(10, i, 0, 0),
                    16,
                    NextHop {
                        iface: i as usize,
                        gateway: None,
                    },
                );
            }
            routes.insert(
                Ipv4Addr::new(0, 0, 0, 0),
                0,
                NextHop {
                    iface: 0,
                    gateway: Some(Ipv4Addr::new(10, 0, 0, 254)),
                },
            );
            let mut pkts = flow_packets(64);
            let dst = Ipv4Addr::new(10, 1, 0, 99);
            let fresh: Vec<u8> = pkts[0]
                .ip_header_bytes_mut()
                .expect("has an IP header")
                .to_vec();
            let mut ifaces = 0usize;
            for i in 0..FORWARDS as usize {
                let n = pkts.len();
                let pkt = &mut pkts[i % n];
                let hdr = pkt.ip_header_bytes_mut().expect("has an IP header");
                if decrement_ttl(hdr).is_err() {
                    // TTL ran out after ~30 hops through this loop: put
                    // the original header back and carry on.
                    hdr.copy_from_slice(&fresh);
                }
                let hop = routes.lookup(black_box(dst)).expect("10.1/16 is routed");
                ifaces += hop.iface;
                pkt.set_link_addrs(MacAddr::local(2), MacAddr::local(0x200))
                    .expect("full-size frame");
            }
            ifaces
        });

        const QUEUE_OPS: u64 = 20_000_000;
        self.per_op("net.queue.ns_per_op", QUEUE_OPS, || {
            // Bursts of 64 into a 50-deep queue, then drain: the
            // overload pattern, 14 of every 64 enqueues dropping.
            let mut q: DropTailQueue<u64> = DropTailQueue::new("bench", 50);
            let mut acc = 0u64;
            let mut ops = 0u64;
            while ops < QUEUE_OPS {
                for i in 0..64 {
                    black_box(q.enqueue(i));
                }
                ops += 64;
                while let Some(v) = q.dequeue() {
                    acc += v;
                    ops += 1;
                }
            }
            acc + q.drops()
        });

        const KEYS: u64 = 4_000_000;
        self.per_op("net.flow_key.ns", KEYS, || {
            let mut acc = 0u64;
            for i in 0..KEYS as usize {
                let key = pkts[i % pkts.len()]
                    .flow_key()
                    .expect("generated frames are UDP");
                acc += u64::from(key.src_port);
            }
            acc
        });

        let cfg = p1_classify_config();
        let classifier = Classifier::new(cfg.rules, cfg.default_class);
        let keys: Vec<FlowKey> = pkts.iter().filter_map(Packet::flow_key).collect();
        const CLASSIFIES: u64 = 20_000_000;
        self.per_op("net.classify.ns", CLASSIFIES, || {
            let mut acc = 0usize;
            for i in 0..CLASSIFIES as usize {
                acc += classifier
                    .classify(black_box(&keys[i % keys.len()]))
                    .index();
            }
            acc
        });
    }

    fn machine(&mut self) {
        const EVENTS: u64 = 3_000_000;
        self.per_op("machine.engine.ns_per_event", EVENTS, || {
            let mut e = ticker_engine(CpuId(0), 64, 1_000, None);
            e.run_until(Cycles::new(EVENTS / 64 * 1_000));
            e.state().events_dispatched()
        });
        const INTRS: u64 = 2_000_000;
        self.per_op("machine.engine.ns_per_intr", INTRS, || {
            let mut e = ticker_engine(CpuId(0), 1, 1_000, Some(Cycles::new(300)));
            e.run_until(Cycles::new(INTRS * 1_000));
            e.state().intr.total_taken()
        });
        const NIC_PKTS: u64 = 4_000_000;
        self.per_op("machine.nic.ns_per_pkt", NIC_PKTS, || {
            let mut nic = Nic::new("bench0", NicConfig::default());
            let mut pkt = PacketFactory::paper_testbed().next_packet();
            for _ in 0..NIC_PKTS {
                black_box(nic.rx_arrive(pkt));
                let taken = nic.rx_take().expect("just arrived");
                black_box(nic.tx_submit(taken));
                pkt = nic.tx_begin().expect("just submitted");
                nic.tx_complete();
                nic.tx_reclaim_one();
            }
            nic.opkts()
        });
        const SLICES: u64 = 300_000;
        self.per_op("machine.cluster.ns_per_slice", SLICES, || {
            // Four CPUs, one interrupt per CPU per slice: the SMP
            // trials' event density at 40 k pkts/s.
            let engines = (0..4)
                .map(|k| ticker_engine(CpuId(k), 1, DEFAULT_SLICE.raw(), Some(Cycles::new(300))))
                .collect();
            let mut cluster = Cluster::new(engines, DEFAULT_SLICE);
            cluster.run_until(Cycles::new(SLICES * DEFAULT_SLICE.raw()), |_, _| {});
            cluster.now().raw()
        });
    }

    fn core(&mut self) {
        const ACTIONS: u64 = 20_000_000;
        self.per_op("core.poller.ns_per_action", ACTIONS, || {
            let mut p = Poller::new(Quota::Limited(10), Quota::Limited(10));
            let (rx, tx) = (p.register(), p.register());
            let mut served = 0u64;
            for i in 0..ACTIONS {
                if i % 2 == 0 {
                    p.request(rx, PollDirection::Receive);
                    p.request(tx, PollDirection::Transmit);
                }
                if let Some(a) = p.next_action() {
                    p.complete(a.source, a.dir, 10, false);
                    served += 1;
                }
            }
            served
        });
        const DEPTHS: u64 = 40_000_000;
        self.per_op("core.feedback.ns_per_depth", DEPTHS, || {
            let mut fb = WatermarkFeedback::paper_screend();
            let mut signals = 0u64;
            for i in 0..DEPTHS {
                // A sawtooth 0..=32..=0 across both watermarks.
                let phase = (i % 64) as usize;
                let depth = if phase <= 32 { phase } else { 64 - phase };
                signals += u64::from(fb.on_depth(black_box(depth)).is_some());
            }
            signals
        });
        const RECORDS: u64 = 40_000_000;
        self.per_op("core.cycle_limit.ns_per_record", RECORDS, || {
            let mut lim = CycleLimiter::new(1_000_000, 0.25);
            for i in 0..RECORDS {
                black_box(lim.record(black_box(3_000)));
                if i % 256 == 255 {
                    lim.on_period_start();
                }
            }
            lim.periods()
        });
    }

    fn kernel(&mut self) {
        const BUILDS: u64 = 2_000;
        let cfg = KernelConfig::builder()
            .polled(Quota::Limited(10))
            .screend(Default::default())
            .feedback(Default::default())
            .build();
        // Reported in µs, so scale the per-op nanoseconds down.
        self.per_op("kernel.build.us", BUILDS * 1_000, || {
            for _ in 0..BUILDS {
                black_box(RouterKernel::build(cfg.clone()));
            }
        });

        let freq = cfg.cost.freq;
        const DELIVERIES: u64 = 4_000_000;
        self.per_op("kernel.stats.delivery_ns", DELIVERIES, || {
            let mut stats = LatencyStats::new();
            let mut rng = Rng::seed_from(5);
            for i in 0..DELIVERIES {
                let arrived = Cycles::new(i * 10_000);
                let (stamps, end) = stamps_after(arrived, &mut rng);
                stats.record_delivery(arrived, &stamps, end, freq);
            }
            stats.count()
        });

        let keys: Vec<FlowKey> = flow_packets(64)
            .iter()
            .filter_map(Packet::flow_key)
            .collect();
        const FLOW_PKTS: u64 = 4_000_000;
        self.per_op("kernel.flows.ns_per_pkt", FLOW_PKTS, || {
            let mut reg = FlowRegistry::new(128);
            for i in 0..FLOW_PKTS {
                let key = Some(keys[i as usize % keys.len()]);
                let arrived = Cycles::new(i * 10_000);
                reg.record_arrival(key);
                reg.record_delivery(key, arrived, arrived + Cycles::new(40_000), freq);
            }
            reg.total_arrivals()
        });
    }
}

const SPACING: u64 = 10_000;

fn calendar() -> CalendarQueue<u64> {
    CalendarQueue::new(Cycles::new(SPACING))
}

/// The classic hold model: `n` events pending; each op pops the earliest
/// and schedules a successor a uniform distance ahead, sized so the
/// population stays one event per `SPACING` cycles.
fn hold<S: Scheduler<u64>>(mut q: S, n: u64, ops: u64) -> u64 {
    let mut rng = Rng::seed_from(7);
    let horizon = 2 * SPACING * n;
    for i in 0..n {
        q.schedule(Cycles::new(rng.next_below(horizon)), i);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (now, v) = q.pop().expect("population held constant");
        acc = acc.wrapping_add(v);
        q.schedule(now + Cycles::new(rng.next_below(horizon)), i);
    }
    acc
}

/// The SMP trials' event pattern: half the successors land on the next
/// 10 000-cycle slice boundary (many events at one instant, very near),
/// half a packet-schedule distance ahead (far) — the bimodal spacing
/// suspected of making the calendar re-width (ROADMAP 1c).
fn smp_pattern<S: Scheduler<u64>>(mut q: S, n: u64, ops: u64) -> u64 {
    let mut rng = Rng::seed_from(7);
    let horizon = 2 * SPACING * n;
    for i in 0..n {
        q.schedule(Cycles::new(rng.next_below(horizon)), i);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (now, v) = q.pop().expect("population held constant");
        acc = acc.wrapping_add(v);
        let at = if i % 2 == 0 {
            (now.raw() / SPACING + 1) * SPACING
        } else {
            now.raw() + rng.next_below(2 * horizon)
        };
        q.schedule(Cycles::new(at), i);
    }
    acc
}

/// `n` minimum-size UDP frames, one flow (source port) each.
fn flow_packets(n: u16) -> Vec<Packet> {
    let mut factory = PacketFactory::paper_testbed();
    (0..n)
        .map(|i| {
            factory.src_port = 7_000 + i;
            factory.next_packet()
        })
        .collect()
}

/// Plausible stage stamps for a packet that arrived at `arrived`: each
/// stage a few thousand cycles after the last.
fn stamps_after(arrived: Cycles, rng: &mut Rng) -> (StageStamps, Cycles) {
    let mut t = arrived;
    let mut step = || {
        t += Cycles::new(500 + rng.next_below(8_000));
        t
    };
    let stamps = StageStamps {
        ring_deq: step(),
        fwd_start: step(),
        fwd_done: step(),
        sq_enq: step(),
        sq_deq: step(),
        out_enq: step(),
        tx_start: step(),
    };
    (stamps, step())
}

/// A self-clocking workload. Every event schedules its successor
/// `period` later; with a handler cost it also posts an interrupt whose
/// handler runs one chunk of that cost. Without, events do nothing: the
/// engine's bare dispatch loop.
struct Ticker {
    period: Cycles,
    handler: Option<(IntrSrc, Cycles)>,
    in_handler: bool,
}

impl Workload for Ticker {
    type Event = ();

    fn next_chunk(&mut self, env: &mut Env<'_, ()>, _ctx: CtxKind) -> Option<Chunk> {
        let (src, cost) = self.handler?;
        if self.in_handler {
            self.in_handler = false;
            env.intr_ack(src);
            return None;
        }
        self.in_handler = true;
        Some(Chunk::new(cost, 1))
    }

    fn chunk_done(&mut self, _env: &mut Env<'_, ()>, _ctx: CtxKind, _tag: u64) {}

    fn on_event(&mut self, env: &mut Env<'_, ()>, _event: ()) {
        env.schedule_in(self.period, ());
        if let Some((src, _)) = self.handler {
            env.post_intr(src);
        }
    }
}

/// An engine running a [`Ticker`] with `streams` interleaved event
/// chains of the given period.
fn ticker_engine(
    cpu: CpuId,
    streams: u64,
    period: u64,
    handler_cost: Option<Cycles>,
) -> Engine<Ticker> {
    let mut st = EnvState::new(Cycles::new(1_000_000));
    st.set_cpu(cpu);
    let handler = handler_cost.map(|cost| (st.intr.register("tick", Ipl::IMP), cost));
    for k in 0..streams {
        st.schedule_at(Cycles::new(1 + k * period / streams), ());
    }
    let wl = Ticker {
        period: Cycles::new(period),
        handler,
        in_handler: false,
    };
    Engine::new(st, wl, Cycles::ZERO)
}
