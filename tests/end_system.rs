//! End-system (local delivery) integration tests: the paper's NFS/RPC
//! motivating application, built on the same mechanisms.

use std::net::Ipv4Addr;

use livelock_core::poller::Quota;
use livelock_kernel::config::{KernelConfig, LocalDeliveryConfig};
use livelock_kernel::router::{Event, RouterKernel};
use livelock_kernel::stats::KernelStats;
use livelock_machine::cpu::Engine;
use livelock_machine::wire::Wire;
use livelock_net::gen::{PacketFactory, TrafficGen};
use livelock_net::packet::MIN_FRAME_LEN;
use livelock_sim::{Cycles, Freq};

const FREQ: Freq = Freq::mhz(100);

/// Runs an end-system trial: `n` requests at `rate` addressed to the host
/// itself; returns the final stats and the app goodput in the window.
fn serve(cfg: KernelConfig, rate: f64, n: usize) -> (KernelStats, f64) {
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg);
    let mut e = Engine::new(st, kernel, ctx_switch);

    let mut gen = TrafficGen::paper_default(rate, FREQ, 1);
    let mut times = gen.arrival_times(Cycles::ZERO, n);
    Wire::ethernet_10m(FREQ).pace(&mut times, MIN_FRAME_LEN);
    let mut factory = PacketFactory::paper_testbed();
    factory.dst_ip = Ipv4Addr::new(10, 0, 0, 1);
    for &t in &times {
        e.state_schedule(
            t,
            Event::RxArrive {
                iface: 0,
                pkt: factory.next_packet(),
            },
        );
    }
    let first = times[0];
    let last = *times.last().expect("nonempty");
    let start = first + Cycles::new((last - first).raw() / 10);
    e.workload_mut().stats_mut().set_window(start, last);
    e.run_until(last + FREQ.cycles_from_millis(100));
    let goodput = e.workload().stats().app_delivered_pps(FREQ);
    (e.workload().stats().clone(), goodput)
}

/// Light load: every request is delivered and answered, on both kernels.
#[test]
fn light_load_serves_and_replies() {
    for cfg in [
        KernelConfig::builder().local_delivery(Default::default()).ip_forwarding(false).build(),
        KernelConfig::builder().polled(Quota::Limited(10)).local_delivery(LocalDeliveryConfig { feedback: true }).ip_forwarding(false).build(),
    ] {
        let (s, goodput) = serve(cfg, 800.0, 800);
        assert_eq!(s.app_delivered, 800, "stats: {s:?}");
        assert_eq!(s.replies_created, 800);
        // Replies go back out the input interface's wire.
        assert_eq!(s.transmitted, 800);
        assert!(goodput > 700.0, "goodput {goodput}");
        assert_eq!(s.drops.socket_q_drops(), 0);
    }
}

/// Request overload starves the server application on the unmodified
/// kernel ("no resources left to support delivery of the arriving packets
/// to applications", §4.2).
#[test]
fn unmodified_end_system_starves_application() {
    let (_, low) = serve(KernelConfig::builder().local_delivery(Default::default()).ip_forwarding(false).build(), 2_000.0, 2_000);
    let (s, high) = serve(KernelConfig::builder().local_delivery(Default::default()).ip_forwarding(false).build(), 9_000.0, 4_000);
    assert!(
        low > 1_500.0,
        "below saturation the app keeps up, got {low}"
    );
    assert!(
        high < low * 0.35,
        "overload should collapse app goodput: {high} vs {low}"
    );
    assert!(
        s.drops.socket_q_drops() > 0,
        "loss lands at the socket buffer: {s:?}"
    );
}

/// The modified kernel with socket-queue feedback sustains the server's
/// service rate through the same overload.
#[test]
fn polled_end_system_sustains_goodput() {
    let (s, high) = serve(
        KernelConfig::builder().polled(Quota::Limited(10)).local_delivery(LocalDeliveryConfig { feedback: true }).ip_forwarding(false).build(),
        9_000.0,
        4_000,
    );
    assert!(
        high > 1_500.0,
        "feedback should hold the app's service rate, got {high} ({s:?})"
    );
}

/// Replies are real, routable packets: addressed back to the source host,
/// with valid IP headers (checked by the router's own forwarding path —
/// a reply with a bad header would be counted as a forwarding error).
#[test]
fn replies_are_well_formed() {
    let (s, _) = serve(
        KernelConfig::builder().polled(Quota::Limited(10)).local_delivery(LocalDeliveryConfig { feedback: true }).ip_forwarding(false).build(),
        500.0,
        300,
    );
    assert_eq!(s.drops.fwd_errors(), 0);
    assert_eq!(s.replies_created, 300);
    assert_eq!(s.transmitted, 300);
    assert_eq!(s.in_flight(), 0, "everything drained");
}

/// Without a listening application, packets addressed to the host are
/// counted as errors instead of silently vanishing.
#[test]
fn no_listener_counts_errors() {
    let (s, _) = serve(KernelConfig::builder().build(), 500.0, 100);
    assert_eq!(s.app_delivered, 0);
    assert_eq!(s.drops.fwd_errors(), 100);
}

/// The request/reply path measures latency end to end (request arrival to
/// application consumption).
#[test]
fn app_latency_recorded() {
    let cfg = KernelConfig::builder().polled(Quota::Limited(10)).local_delivery(LocalDeliveryConfig::default()).ip_forwarding(false).build();
    let (s, _) = serve(cfg, 500.0, 200);
    assert_eq!(s.latency.count(), 200);
    assert!(s.latency.mean().raw() > 100_000, "sub-0.1ms is implausible");
}

/// The "innocent bystander" scenario (§1): "multicast and broadcast
/// protocols subject innocent-bystander hosts to loads that do not
/// interest them at all." A flood of traffic addressed to *other* hosts
/// still consumes the end-system's input path and starves its own
/// application on the unmodified kernel; the modified kernel's cycle
/// limiter protects it.
#[test]
fn bystander_flood_starves_the_unprotected_application() {
    // An end-system whose application is under light, legitimate load
    // while a bystander flood (packets for 10.1.0.99, not for us) arrives.
    let run = |cfg: KernelConfig| {
        let ctx_switch = cfg.cost.ctx_switch;
        let (st, kernel) = RouterKernel::build(cfg);
        let mut e = Engine::new(st, kernel, ctx_switch);

        // 500 req/s of real work for the application...
        let mut legit = TrafficGen::paper_default(500.0, FREQ, 21);
        let mut legit_factory = PacketFactory::paper_testbed();
        legit_factory.dst_ip = Ipv4Addr::new(10, 0, 0, 1);
        for t in legit.arrival_times(Cycles::ZERO, 500) {
            e.state_schedule(
                t,
                Event::RxArrive {
                    iface: 0,
                    pkt: legit_factory.next_packet(),
                },
            );
        }
        // ...drowned in 9,000 pkts/s of bystander traffic.
        let mut storm = TrafficGen::paper_default(9_000.0, FREQ, 22);
        let mut storm_times = storm.arrival_times(Cycles::ZERO, 9_000);
        Wire::ethernet_10m(FREQ).pace(&mut storm_times, MIN_FRAME_LEN);
        let mut storm_factory = PacketFactory::paper_testbed(); // dst 10.1.0.99: not us.
        for t in storm_times {
            e.state_schedule(
                t,
                Event::RxArrive {
                    iface: 0,
                    pkt: storm_factory.next_packet(),
                },
            );
        }

        e.run_until(FREQ.cycles_from_millis(900));
        e.workload().stats().clone()
    };

    let unmod = run(KernelConfig::builder().local_delivery(Default::default()).ip_forwarding(false).build());
    assert!(
        unmod.drops.bystander_drops() > 1_000,
        "the storm is processed then discarded: {unmod:?}"
    );
    assert!(
        unmod.app_delivered < 100,
        "unprotected app should starve, served {}",
        unmod.app_delivered
    );

    // The modified end-system with a cycle limit: the storm cannot be
    // flow-filtered (legit requests share the ring with it), but bounded
    // input processing means (a) the application process actually runs,
    // serving several times more of its load, and (b) most of the storm is
    // shed for free at the interface instead of being processed and then
    // discarded.
    let mut protected = KernelConfig::builder().polled(Quota::Limited(10)).local_delivery(LocalDeliveryConfig { feedback: true }).ip_forwarding(false).build();
    if let livelock_kernel::config::Mode::Polled(p) = &mut protected.mode {
        p.cycle_limit_frac = Some(0.5);
    }
    let prot = run(protected);
    assert!(
        prot.app_delivered > 2 * unmod.app_delivered.max(1),
        "protected app serves several times more: {} vs {}",
        prot.app_delivered,
        unmod.app_delivered
    );
    // The unmodified kernel also wastes device-level work on storm
    // packets it then drops at ipintrq; the modified kernel has no such
    // mid-pipeline loss and sheds the excess for free at the interface.
    assert!(
        unmod.drops.ipintrq_drops() > 0,
        "unmodified wastes work at ipintrq: {unmod:?}"
    );
    assert_eq!(prot.drops.ipintrq_drops(), 0);
    assert!(
        prot.drops.rx_ring_drops() > unmod.drops.rx_ring_drops(),
        "load is shed for free at the ring instead: {} vs {}",
        prot.drops.rx_ring_drops(),
        unmod.drops.rx_ring_drops()
    );
}
