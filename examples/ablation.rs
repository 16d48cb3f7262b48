//! Ablation: isolates the contribution of each livelock-avoidance
//! mechanism the paper combines, printing the overload-stability metric
//! (delivered-at-max-load / peak-delivered; 1.0 = flat plateau, 0 =
//! livelock) for each configuration.
//!
//! ```text
//! cargo run --release --example ablation
//! ```
//!
//! Mechanisms ablated:
//! - polling vs. pure interrupts (Figure 6-3's comparison);
//! - the packet quota (5 / 20 / 100 / none);
//! - queue-state feedback with screend on/off;
//! - receive-ring size (the "let the interface buffer bursts" advice);
//! - interrupt rate limiting alone (the paper's 5.1 caveat: it bounds
//!   saturation but does not guarantee progress).

use livelock_core::analysis::overload_stability;
use livelock_core::poller::Quota;
use livelock_kernel::config::{KernelConfig, KernelConfigBuilder};
use livelock_kernel::experiment::{sweep, TrialSpec};
use livelock_kernel::par::Parallelism;

fn stability(cfg: &KernelConfig) -> f64 {
    let base = TrialSpec {
        n_packets: 2_000,
        ..TrialSpec::new(cfg.clone())
    };
    let rates = [2_000.0, 4_000.0, 6_000.0, 9_000.0, 12_000.0];
    let s = sweep("ablation", &base, &rates, Parallelism::Serial);
    overload_stability(&s.points())
}

fn polled(q: Quota) -> KernelConfigBuilder {
    KernelConfig::builder().polled(q)
}

fn main() {
    let mut ring8 = polled(Quota::Limited(10)).build();
    ring8.nic.rx_ring = 8;
    let mut ring128 = polled(Quota::Limited(10)).build();
    ring128.nic.rx_ring = 128;
    let rate_limited = || KernelConfig::builder().intr_rate_limit(2_000.0, 4);
    let screend = || polled(Quota::Limited(10)).screend(Default::default());

    let cases: Vec<(&str, KernelConfig)> = vec![
        ("interrupts-only (baseline)", KernelConfig::builder().build()),
        ("intr-rate-limit 2k/s", rate_limited().build()),
        (
            "intr-rate-limit + screend",
            rate_limited().screend(Default::default()).build(),
        ),
        ("polling quota=5", polled(Quota::Limited(5)).build()),
        ("polling quota=20", polled(Quota::Limited(20)).build()),
        ("polling quota=100", polled(Quota::Limited(100)).build()),
        ("polling no-quota", polled(Quota::Unlimited).build()),
        ("polling rx-ring=8", ring8),
        ("polling rx-ring=128", ring128),
        ("screend no-feedback", screend().build()),
        (
            "screend feedback",
            screend().feedback(Default::default()).build(),
        ),
    ];

    println!("# Ablation: overload stability (1.0 = flat plateau, 0 = livelock)");
    for (label, cfg) in &cases {
        println!("#   {:<28} {:.3}", label, stability(cfg));
    }
}
