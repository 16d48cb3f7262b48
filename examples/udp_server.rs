//! An end-system UDP/RPC server under request overload (paper §2, §7.1).
//!
//! The paper's third motivating application: "client-server applications,
//! such as NFS, running on fast clients and servers can generate heavy RPC
//! loads" with no flow control. Here the host is not a router but a server:
//! requests addressed to the host itself are delivered through a bounded
//! socket buffer to an application process that replies to each one.
//!
//! Under the unmodified kernel, interrupt-level work starves the server
//! process and goodput collapses; the modified kernel with socket-queue
//! feedback holds the application's full service rate.
//!
//! ```text
//! cargo run --release --example udp_server
//! ```

use std::net::Ipv4Addr;

use livelock_core::poller::Quota;
use livelock_kernel::config::{KernelConfig, LocalDeliveryConfig};
use livelock_kernel::experiment::{TrialSpec, WARMUP_FRAC};
use livelock_net::gen::PacketFactory;

fn main() {
    println!("UDP request rate sweep against an RPC server (replies enabled)\n");
    println!(
        "{:>10}  {:>14}  {:>14}  {:>12}",
        "req/s", "unmodified", "modified+fb", ""
    );

    for rate in [1_000.0, 2_000.0, 3_000.0, 5_000.0, 8_000.0, 12_000.0] {
        let mut row = Vec::new();
        for cfg in [
            KernelConfig::builder()
                .local_delivery(LocalDeliveryConfig::default())
                .ip_forwarding(false)
                .build(),
            KernelConfig::builder()
                .polled(Quota::Limited(10))
                .local_delivery(LocalDeliveryConfig { feedback: true })
                .ip_forwarding(false)
                .build(),
        ] {
            let mut spec = TrialSpec {
                rate_pps: rate,
                n_packets: 4_000,
                ..TrialSpec::new(cfg)
            };
            // Address the requests to the host itself, not through it.
            spec.config.num_ifaces = 2;
            let r = run_with_local_dst(&spec);
            row.push(r);
        }
        println!("{:>10.0}  {:>9.0} op/s  {:>9.0} op/s", rate, row[0], row[1]);
    }

    println!(
        "\n'op/s' is application goodput: requests actually consumed (and\n\
         answered) by the server process inside the measurement window."
    );
}

/// Like `run_trial`, but the generated requests target the host's own
/// address (10.0.0.1) so they take the local-delivery path.
fn run_with_local_dst(spec: &TrialSpec) -> f64 {
    use livelock_kernel::router::{Event, RouterKernel};
    use livelock_machine::cpu::Engine;
    use livelock_machine::wire::Wire;
    use livelock_net::gen::TrafficGen;
    use livelock_net::packet::MIN_FRAME_LEN;
    use livelock_sim::Cycles;

    let cfg = spec.config.clone();
    let freq = cfg.cost.freq;
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg);
    let mut engine = Engine::new(st, kernel, ctx_switch);

    let mut gen = TrafficGen::paper_default(spec.rate_pps, freq, spec.seed);
    let mut times = gen.arrival_times(Cycles::ZERO, spec.n_packets);
    Wire::ethernet_10m(freq).pace(&mut times, MIN_FRAME_LEN);
    let mut factory = PacketFactory::paper_testbed();
    factory.dst_ip = Ipv4Addr::new(10, 0, 0, 1); // The host itself.
    for &t in &times {
        let pkt = factory.next_packet();
        engine.state_schedule(t, Event::RxArrive { iface: 0, pkt });
    }

    let first = times[0];
    let last = *times.last().expect("nonempty");
    let span = last - first;
    let start = first + Cycles::new((span.raw() as f64 * WARMUP_FRAC) as u64);
    engine.workload_mut().stats_mut().set_window(start, last);
    engine.run_until(last);
    engine.workload().stats().app_delivered_pps(freq)
}
