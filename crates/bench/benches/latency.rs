//! Latency bench (paper §4.3): first-packet delivery latency for
//! wire-rate bursts, unmodified vs modified kernel, plus steady-state
//! latency/jitter across load levels. The paper discusses this effect in
//! prose without a figure; this bench produces the table its argument
//! implies.

use criterion::{criterion_group, criterion_main, Criterion};
use livelock_bench::{fig_latency, latency_shape_violations, render_figure};
use livelock_core::poller::Quota;
use livelock_kernel::config::KernelConfig;
use livelock_kernel::experiment::{run_trial, TrialSpec};
use livelock_kernel::par::Parallelism;
use livelock_kernel::router::{Event, RouterKernel};
use livelock_machine::cpu::Engine;
use livelock_net::gen::PacketFactory;
use livelock_net::packet::MIN_FRAME_LEN;
use livelock_net::phy::LinkSpeed;
use livelock_sim::{Cycles, Freq, Nanos};

const FREQ: Freq = Freq::mhz(100);

fn burst_first_latency(cfg: &KernelConfig, n: usize) -> (Nanos, Nanos) {
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg.clone());
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
    let lat = &e.workload().stats().latency;
    (lat.min(), lat.max())
}

fn bench(c: &mut Criterion) {
    println!("# Burst first/last packet delivery latency (paper 4.3)");
    println!(
        "# {:>6} {:>24} {:>24}",
        "burst", "unmodified_first/last", "modified_first/last"
    );
    for n in [5usize, 10, 20, 30] {
        let (uf, ul) = burst_first_latency(&KernelConfig::builder().build(), n);
        let (mf, ml) = burst_first_latency(&KernelConfig::builder().polled(Quota::Limited(5)).build(), n);
        println!("# {n:>6} {uf:>11} /{ul:>11} {mf:>11} /{ml:>11}");
    }

    println!("# Steady-state mean latency / p99 by load (modified, quota 10)");
    for rate in [1_000.0, 4_000.0, 8_000.0, 12_000.0] {
        let r = run_trial(&TrialSpec {
            rate_pps: rate,
            n_packets: 1_500,
            ..TrialSpec::new(KernelConfig::builder().polled(Quota::Limited(10)).build())
        });
        println!(
            "#   {:>6.0} pkts/s: mean {} p99 {}",
            rate, r.latency_mean, r.latency_p99
        );
    }

    // The full figure L-1 sweep: p99 forwarding latency vs input rate,
    // unmodified vs polled, on a thinned rate grid so the bench stays
    // quick. Under overload the unmodified kernel's p99 blows up with
    // `ipintrq` aging while the polled kernel's stays flat — the latency
    // gate checks that separation at the highest rate.
    let mut fig = fig_latency();
    fig.rates = vec![1_000.0, 4_000.0, 8_000.0, 12_000.0];
    let rendered = render_figure(&fig, 800, Parallelism::Serial);
    println!("# Figure {}: {}", rendered.id, rendered.caption);
    print!("# {:>10}", "input_pps");
    for curve in &rendered.curves {
        print!(" {:>22}", curve.label);
    }
    println!();
    for (pi, rate) in rendered.rates.iter().enumerate() {
        print!("# {rate:>10.0}");
        for ci in 0..rendered.curves.len() {
            print!(" {:>20.1}us", rendered.value(ci, pi));
        }
        println!();
    }
    let violations = latency_shape_violations(&rendered);
    if violations.is_empty() {
        println!("# latency gate: ok (polled p99 well below unmodified at overload)");
    } else {
        for v in &violations {
            println!("# latency gate VIOLATION: {v}");
        }
    }

    let mut g = c.benchmark_group("latency");
    g.sample_size(10);
    g.bench_function("burst20 unmodified", |b| {
        b.iter(|| burst_first_latency(&KernelConfig::builder().build(), 20))
    });
    g.bench_function("burst20 modified", |b| {
        b.iter(|| burst_first_latency(&KernelConfig::builder().polled(Quota::Limited(5)).build(), 20))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
