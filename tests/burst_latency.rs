//! §4.3 "Receive latency under overload": interrupt-driven designs can
//! *increase* delivery latency. "If a burst of packets arrives too rapidly,
//! the system will do link-level processing of the entire burst before
//! doing any higher-layer processing of the first packet ... The latency to
//! deliver the first packet in a burst is increased almost by the time it
//! takes to receive the entire burst."
//!
//! The modified kernel processes each packet to completion, so the first
//! packet of a burst leaves after one packet's worth of work, not the whole
//! burst's.

use livelock_core::poller::Quota;
use livelock_kernel::config::KernelConfig;
use livelock_kernel::router::{Event, RouterKernel};
use livelock_kernel::stats::KernelStats;
use livelock_machine::cpu::Engine;
use livelock_net::gen::PacketFactory;
use livelock_net::packet::MIN_FRAME_LEN;
use livelock_net::phy::LinkSpeed;
use livelock_sim::{Cycles, Freq, Nanos};

const FREQ: Freq = Freq::mhz(100);

/// Sends one back-to-back wire-rate burst of `n` minimum frames and
/// returns the stats after everything drains.
fn run_burst(cfg: KernelConfig, n: usize) -> KernelStats {
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg);
    let mut e = Engine::new(st, kernel, ctx_switch);
    let gap = LinkSpeed::ETHERNET_10M.frame_cycles(MIN_FRAME_LEN, FREQ);
    let mut factory = PacketFactory::paper_testbed();
    for k in 0..n {
        let t = Cycles::new(1_000) + gap * k as u64;
        e.state_schedule(
            t,
            Event::RxArrive {
                iface: 0,
                pkt: factory.next_packet(),
            },
        );
    }
    e.run_until(FREQ.cycles_from_millis(500));
    e.workload().stats().clone()
}

/// The headline §4.3 effect, quantified: the first packet of a 20-packet
/// burst leaves the unmodified kernel only after most of the burst has
/// been link-level processed; the modified kernel delivers it after one
/// packet's worth of work.
#[test]
fn burst_first_packet_latency() {
    const BURST: usize = 20;
    let burst_duration = Nanos::new(67_200 * BURST as u64);

    let unmod = run_burst(KernelConfig::builder().build(), BURST);
    let polled = run_burst(KernelConfig::builder().polled(Quota::Limited(5)).build(), BURST);
    assert_eq!(unmod.transmitted, BURST as u64);
    assert_eq!(polled.transmitted, BURST as u64);

    // The earliest delivery is the first packet's (FIFO forwarding).
    let first_unmod = unmod.latency.min();
    let first_polled = polled.latency.min();

    // Paper: increased "almost by the time it takes to receive the entire
    // burst". Give it a generous lower bound of half the burst time.
    assert!(
        first_unmod > Nanos::new(burst_duration.raw() / 2),
        "unmodified first-packet latency {first_unmod} vs burst {burst_duration}"
    );
    // The modified kernel's first packet needs only its own processing
    // (~250 us of work + 67 us serialization), far below the burst time.
    assert!(
        first_polled < Nanos::new(burst_duration.raw() / 2),
        "modified first-packet latency {first_polled}"
    );
    assert!(
        first_unmod.raw() > 2 * first_polled.raw(),
        "expected a clear gap: {first_unmod} vs {first_polled}"
    );
}

/// Jitter: the burst drains smoothly on both kernels, but the unmodified
/// kernel's per-packet latencies spread across the whole burst-delay range
/// (its jitter is comparable to its mean), while the trailing packets of
/// both systems queue behind the same CPU bottleneck.
#[test]
fn burst_latency_distribution_is_recorded() {
    let s = run_burst(KernelConfig::builder().build(), 20);
    assert_eq!(s.latency.count(), 20);
    assert!(s.latency.max() > s.latency.min());
    assert!(s.latency.jitter() > Nanos::ZERO);
    assert!(s.latency.quantile(1.0) >= s.latency.quantile(0.5));
}

/// A burst smaller than the receive ring loses nothing on either kernel —
/// "letting the receiving interface buffer bursts" (§5.4).
#[test]
fn ring_absorbs_bursts_without_loss() {
    for cfg in [
        KernelConfig::builder().build(),
        KernelConfig::builder().polled(Quota::Limited(5)).build(),
    ] {
        let s = run_burst(cfg, 30); // Ring holds 32.
        assert_eq!(s.transmitted, 30, "stats: {s:?}");
        assert_eq!(s.drops.rx_ring_drops(), 0);
        assert_eq!(s.drops.wasted_drops(), 0);
    }
}

/// A burst way beyond the ring capacity: the unmodified kernel loses some
/// packets *after* investing work (ipintrq), the modified kernel only at
/// the free interface drop point.
#[test]
fn oversized_burst_drop_location() {
    let unmod = run_burst(KernelConfig::builder().build(), 150);
    let polled = run_burst(KernelConfig::builder().polled(Quota::Limited(5)).build(), 150);
    assert!(unmod.drops.ipintrq_drops() > 0, "unmodified wastes work: {unmod:?}");
    assert_eq!(polled.drops.ipintrq_drops(), 0);
    assert_eq!(
        polled.drops.ifq_drops(), 0,
        "modified drops only at the ring: {polled:?}"
    );
    // And the modified kernel delivers at least as many in total.
    assert!(polled.transmitted >= unmod.transmitted);
}
