//! Host-based routing under increasing load: a full input-rate sweep.
//!
//! Reproduces the measurement the paper's throughput figures plot: offered
//! rate on the x-axis, delivered rate on the y-axis, one column per kernel
//! configuration. This is the paper's first motivating application
//! (host-based routing / firewalling on a general-purpose OS).
//!
//! ```text
//! cargo run --release --example router_sweep [-- <config>...]
//! ```
//!
//! Configs: `unmodified`, `screend`, `polled`, `no-quota`, `feedback`
//! (default: `unmodified polled`).

use std::process::ExitCode;

use livelock_core::analysis::{classify, mlfrr};
use livelock_core::poller::Quota;
use livelock_kernel::config::KernelConfig;
use livelock_kernel::experiment::{paper_rates, sweep, TrialSpec};
use livelock_kernel::par::Parallelism;

fn config_by_name(name: &str) -> Option<KernelConfig> {
    Some(match name {
        "unmodified" => KernelConfig::builder().build(),
        "screend" => KernelConfig::builder().screend(Default::default()).build(),
        "polled" => KernelConfig::builder().polled(Quota::Limited(10)).build(),
        "no-quota" => KernelConfig::builder().polled(Quota::Unlimited).build(),
        "feedback" => KernelConfig::builder().polled(Quota::Limited(10)).screend(Default::default()).feedback(Default::default()).build(),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        names = vec!["unmodified".into(), "polled".into()];
    }

    let mut sweeps = Vec::new();
    for name in &names {
        let Some(cfg) = config_by_name(name) else {
            eprintln!("unknown config {name:?}; try unmodified|screend|polled|no-quota|feedback");
            return ExitCode::FAILURE;
        };
        eprintln!("sweeping {name}...");
        let base = TrialSpec {
            n_packets: 3_000,
            ..TrialSpec::new(cfg)
        };
        sweeps.push(sweep(name, &base, &paper_rates(), Parallelism::Auto));
    }

    print!("{:>10}", "input_pps");
    for s in &sweeps {
        print!("{:>14}", s.label);
    }
    println!();
    for (i, rate) in paper_rates().iter().enumerate() {
        print!("{rate:>10.0}");
        for s in &sweeps {
            print!("{:>14.0}", s.trials[i].delivered_pps);
        }
        println!();
    }

    println!();
    for s in &sweeps {
        let pts = s.points();
        println!(
            "{:<12} MLFRR ≈ {:>6.0} pkts/s, overload behaviour: {:?}",
            s.label,
            mlfrr(&pts, 0.95).unwrap_or(0.0),
            classify(&pts, 0.10, 0.80),
        );
    }
    ExitCode::SUCCESS
}
