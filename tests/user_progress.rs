//! §7-focused tests: CPU accounting for user-level progress, including the
//! zero-load baseline the paper reports ("even with no input load, the
//! user process gets about 94% of the CPU cycles").

use livelock_core::poller::Quota;
use livelock_kernel::config::KernelConfig;
use livelock_kernel::experiment::{run_trial, TrialSpec};
use livelock_kernel::router::RouterKernel;
use livelock_machine::cpu::Engine;
use livelock_sim::{Cycles, Freq};

const FREQ: Freq = Freq::mhz(100);

/// Runs the machine for half a second with no network traffic at all
/// and returns the compute-bound process's CPU share.
fn zero_load_share(cfg: KernelConfig) -> f64 {
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg);
    let mut e = Engine::new(st, kernel, ctx_switch);
    let end = FREQ.cycles_from_millis(500);
    e.run_until(end);
    let tid = e.workload().user_tid().expect("user process configured");
    e.state().thread_cycles(tid).fraction_of(end)
}

/// The paper's baseline: ~94% of the CPU for the user process on an
/// otherwise idle machine (the rest is clock + housekeeping + switching).
#[test]
fn zero_load_user_share_is_about_94_percent() {
    let mut cfg = KernelConfig::builder().build();
    cfg.user_process = true;
    let share = zero_load_share(cfg);
    assert!(
        (0.92..0.96).contains(&share),
        "zero-load user share {share} should be ~0.94"
    );
}

/// The baseline holds on the modified kernel too — the polling machinery
/// costs nothing while no packets arrive.
#[test]
fn modified_kernel_is_free_when_idle() {
    let mut cfg = KernelConfig::builder().polled(Quota::Limited(5)).cycle_limit(0.25).user_process(true).build();
    cfg.user_process = true;
    let share = zero_load_share(cfg);
    assert!(
        (0.92..0.96).contains(&share),
        "idle modified-kernel share {share}"
    );
}

/// Under flood with no cycle limit, the user process starves on both
/// kernels (the §7 observation that motivated the limiter).
#[test]
fn flood_starves_user_without_limit() {
    for mut cfg in [
        KernelConfig::builder().build(),
        KernelConfig::builder().polled(Quota::Limited(10)).build(),
    ] {
        cfg.user_process = true;
        let r = run_trial(&TrialSpec {
            rate_pps: 10_000.0,
            n_packets: 3_000,
            ..TrialSpec::new(cfg)
        });
        assert!(
            r.aggregate().user_cpu_frac < 0.05,
            "expected starvation, got {}",
            r.aggregate().user_cpu_frac
        );
        // Meanwhile the kernel still forwarded at its saturation rate.
        assert!(r.delivered_pps > 1_000.0);
    }
}

/// The limiter's guarantee composes with screend: a user process, the
/// screening process and the network stack all make progress.
#[test]
fn limiter_with_screend_everyone_progresses() {
    let mut cfg = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .feedback(Default::default())
        .build();
    cfg.user_process = true;
    if let livelock_kernel::config::Mode::Polled(p) = &mut cfg.mode {
        p.cycle_limit_frac = Some(0.5);
    }
    let r = run_trial(&TrialSpec {
        rate_pps: 8_000.0,
        n_packets: 3_000,
        ..TrialSpec::new(cfg)
    });
    assert!(
        r.delivered_pps > 500.0,
        "forwarding alive: {}",
        r.delivered_pps
    );
    assert!(r.aggregate().user_cpu_frac > 0.10, "user alive: {}", r.aggregate().user_cpu_frac);
}

/// Tighter thresholds strictly trade forwarding for user CPU.
#[test]
fn threshold_trades_forwarding_for_user_cpu() {
    let mut results = Vec::new();
    for thr in [0.25, 0.75] {
        let r = run_trial(&TrialSpec {
            rate_pps: 8_000.0,
            n_packets: 2_500,
            ..TrialSpec::new(
                KernelConfig::builder().polled(Quota::Limited(5)).cycle_limit(thr).user_process(true).build(),
            )
        });
        results.push(r);
    }
    assert!(results[0].aggregate().user_cpu_frac > results[1].aggregate().user_cpu_frac);
    assert!(results[0].delivered_pps < results[1].delivered_pps);
}

/// The quantum-based scheduler splits the CPU fairly between two
/// equal-priority user processes (the compute job and screend) when both
/// are runnable — a sanity check on the thread scheduler itself.
#[test]
fn user_processes_share_fairly() {
    let mut cfg = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .feedback(Default::default())
        .build();
    cfg.user_process = true;
    let ctx_switch = cfg.cost.ctx_switch;
    let (st, kernel) = RouterKernel::build(cfg);
    let mut e = Engine::new(st, kernel, ctx_switch);

    // Saturate screend so it is always runnable, like the compute job.
    use livelock_kernel::router::Event;
    use livelock_net::gen::{PacketFactory, TrafficGen};
    let mut gen = TrafficGen::paper_default(8_000.0, FREQ, 5);
    let mut factory = PacketFactory::paper_testbed();
    for t in gen.arrival_times(Cycles::ZERO, 4_000) {
        e.state_schedule(
            t,
            Event::RxArrive {
                iface: 0,
                pkt: factory.next_packet(),
            },
        );
    }
    let end = FREQ.cycles_from_millis(400);
    e.run_until(end);

    let user = e.workload().user_tid().expect("user thread");
    let user_cy = e.state().thread_cycles(user).raw() as f64;
    // screend's share: thread 1 in spawn order (poll=0, screend=1, user=2).
    let usage = e.usage();
    let screend_cy = usage.thread_by_id[1].raw() as f64;
    let ratio = user_cy / screend_cy;
    assert!(
        (0.5..2.0).contains(&ratio),
        "equal-priority threads should share within 2x, got {ratio}"
    );
}
