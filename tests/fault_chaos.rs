//! Graceful-degradation verification under deterministic fault
//! injection: seeded fault storms must never leave the polled kernel
//! livelocked or wedged, every injected wedge must un-stick itself
//! within its timeout bound, and an empty fault plan must perturb
//! nothing at all.

use livelock_core::poller::Quota;
use livelock_kernel::config::KernelConfig;
use livelock_kernel::experiment::{run_chaos_trial, run_trial, run_trial_traced, TrialSpec};
use livelock_machine::fault::{FaultKind, FaultPlan};

fn polled_screend(faults: Option<FaultPlan>) -> KernelConfig {
    let mut b = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .feedback(Default::default());
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    b.build()
}

fn unmodified_screend(faults: Option<FaultPlan>) -> KernelConfig {
    let mut b = KernelConfig::builder().screend(Default::default());
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    b.build()
}

fn spec(rate: f64, n: usize, config: KernelConfig) -> TrialSpec {
    TrialSpec {
        rate_pps: rate,
        n_packets: n,
        ..TrialSpec::new(config)
    }
}

/// The default storm used across these tests: intensity 1 over the
/// middle of a 2000-packet trial at 4000 pkts/s (~0.5 simulated
/// seconds).
fn storm(config: &KernelConfig, intensity: f64) -> FaultPlan {
    let freq = config.cost.freq;
    FaultPlan::storm(
        0xC4A05,
        intensity,
        freq.cycles_from_millis(50),
        freq.cycles_from_millis(450),
    )
}

#[test]
fn an_empty_fault_plan_changes_nothing() {
    let plain = run_trial(&spec(3_000.0, 800, polled_screend(None)));
    let gated = run_trial(&spec(3_000.0, 800, polled_screend(Some(FaultPlan::new()))));
    assert_eq!(plain, gated, "empty plan must be bit-identical to none");
    assert_eq!(gated.fault.injected, 0);
}

#[test]
fn chaos_storms_are_deterministic() {
    let cfg = polled_screend(None);
    let plan = storm(&cfg, 1.0);
    let s = spec(4_000.0, 2_000, polled_screend(Some(plan)));
    let a = run_chaos_trial(&s);
    let b = run_chaos_trial(&s);
    assert_eq!(a.result, b.result);
    assert_eq!(a.result.fault, b.result.fault);
    assert_eq!(a.gate_bits, b.gate_bits);
}

#[test]
fn polled_kernel_degrades_gracefully_under_a_fault_storm() {
    let cfg = polled_screend(None);
    let plan = storm(&cfg, 2.0);
    let n_faults = plan.len() as u64;
    let r = run_chaos_trial(&spec(4_000.0, 2_000, polled_screend(Some(plan))));

    assert_eq!(r.result.fault.injected, n_faults, "every fault fired");
    assert!(
        r.result.delivered_pps > 0.0,
        "no livelock under faults: {:?}",
        r.result.fault
    );
    // The graceful-degradation invariants: nothing stays wedged.
    assert!(r.gate_open_at_end, "gate stuck: bits {:#04x}", r.gate_bits);
    assert_eq!(r.screend_q_len, 0, "screend queue drained after crashes");
    assert_eq!(r.in_flight, 0, "no packet stranded inside the kernel");
}

#[test]
fn a_storm_aimed_at_a_sibling_cpu_fires_there_and_leaves_no_wedge() {
    use livelock_machine::cpu::CpuId;
    // Two CPUs, the plan retargeted at CPU 1: the drained harness builds
    // the same cluster `run_trial` does, injects the plan into that CPU's
    // kernel alone, and reports the end state of both.
    let mut cfg = polled_screend(None);
    cfg.topology.ncpus = 2;
    let plan = storm(&cfg, 2.0).on_cpu(CpuId(1));
    let n_faults = plan.len() as u64;
    cfg.faults = Some(plan);
    let r = run_chaos_trial(&spec(8_000.0, 4_000, cfg));

    assert_eq!(r.result.per_cpu().len(), 2);
    assert_eq!(r.result.fault.injected, n_faults, "every fault fired");
    assert!(r.result.delivered_pps > 0.0, "{:?}", r.result.fault);
    assert!(r.gate_open_at_end, "a gate stuck: bits {:#04x}", r.gate_bits);
    assert_eq!(r.screend_q_len, 0, "both screend queues drained");
    assert_eq!(r.in_flight, 0, "no packet stranded on either CPU");
}

#[test]
fn unmodified_kernel_still_livelocks_under_the_same_storm() {
    let cfg = unmodified_screend(None);
    let plan = storm(&cfg, 1.0);
    let polled = run_chaos_trial(&spec(12_000.0, 4_000, polled_screend(Some(plan.clone()))));
    let unmod = run_chaos_trial(&spec(12_000.0, 4_000, unmodified_screend(Some(plan))));
    assert!(
        unmod.result.delivered_pps < 0.05 * polled.result.delivered_pps.max(1.0),
        "unmodified should livelock where polled survives: {} vs {}",
        unmod.result.delivered_pps,
        polled.result.delivered_pps
    );
    assert!(polled.result.delivered_pps > 1_000.0);
}

#[test]
fn screend_crash_exercises_the_feedback_timeout_and_drains() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    // Crash mid-trial with a long restart backoff: the queue flushes,
    // the high-water inhibit has no consumer to drain it, and only the
    // feedback's tick-timeout safety net can reopen the gate.
    plan.push(
        freq.cycles_from_millis(100),
        FaultKind::ScreendCrash { restart_ticks: 8 },
    );
    plan.push(
        freq.cycles_from_millis(250),
        FaultKind::ScreendStall { ticks: 5 },
    );
    let r = run_chaos_trial(&spec(6_000.0, 2_000, polled_screend(Some(plan))));
    assert_eq!(r.result.fault.screend_crashes, 1);
    assert_eq!(r.result.fault.screend_stalls, 1);
    assert_eq!(r.result.fault.stall_recoveries, 2, "both backoffs expired");
    assert!(
        r.timeout_resumes > 0,
        "the crash must force the timeout safety net: {:?}",
        r.result.fault
    );
    assert!(r.gate_open_at_end, "gate stuck: bits {:#04x}", r.gate_bits);
    assert_eq!(r.screend_q_len, 0, "queue drained after restart");
    assert_eq!(r.in_flight, 0);
    assert!(r.result.delivered_pps > 0.0);
}

#[test]
fn lost_interrupts_are_repaired_by_the_driver_watchdog() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    // Lose the receive interrupt for a lone packet: with no follow-up
    // traffic to repost it, only the per-tick driver watchdog can
    // rescue the frame latched in the ring.
    plan.push(freq.cycles_from_millis(99), FaultKind::LostRxIntr { iface: 0 });
    plan.push(freq.cycles_from_millis(99), FaultKind::LostTxIntr { iface: 1 });
    // 10 packets, 100 ms apart: every arrival is isolated.
    let r = run_chaos_trial(&spec(10.0, 10, polled_screend(Some(plan))));
    assert_eq!(r.result.fault.lost_intrs, 2, "{:?}", r.result.fault);
    assert!(r.result.fault.intr_reposts > 0, "{:?}", r.result.fault);
    assert_eq!(r.result.transmitted, 10, "every packet still delivered");
    assert_eq!(r.in_flight, 0);
    assert!(r.gate_open_at_end);
}

#[test]
fn corrupted_frames_are_caught_and_counted() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    for (k, kind) in [
        FaultKind::PacketBitFlip { iface: 0 },
        FaultKind::PacketTruncate { iface: 0 },
        FaultKind::PacketMalformHeader { iface: 0 },
        FaultKind::RxDescriptorCorrupt { iface: 0 },
    ]
    .into_iter()
    .enumerate()
    {
        plan.push(freq.cycles_from_millis(100 + 50 * k as u64), kind);
    }
    let r = run_chaos_trial(&spec(1_000.0, 1_500, polled_screend(Some(plan))));
    assert_eq!(r.result.fault.mutated_frames, 4, "{:?}", r.result.fault);
    // Every mutation is caught by header validation and becomes an
    // attributed drop; nothing corrupt is forwarded or stranded.
    assert_eq!(r.result.transmitted + 4, 1_500);
    assert_eq!(r.in_flight, 0);
}

#[test]
fn spurious_interrupts_and_clock_jitter_are_harmless() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    plan.push(freq.cycles_from_millis(80), FaultKind::SpuriousRxIntr { iface: 0 });
    plan.push(freq.cycles_from_millis(90), FaultKind::SpuriousTxIntr { iface: 1 });
    plan.push(
        freq.cycles_from_millis(110),
        FaultKind::ClockJitter { skew_cycles: 40_000 },
    );
    plan.push(
        freq.cycles_from_millis(130),
        FaultKind::ClockJitter { skew_cycles: -40_000 },
    );
    let r = run_chaos_trial(&spec(1_000.0, 1_200, polled_screend(Some(plan))));
    assert_eq!(r.result.fault.spurious_intrs, 2);
    assert_eq!(r.result.fault.clock_jitters, 2);
    assert_eq!(r.result.transmitted, 1_200, "no packet harmed");
    assert_eq!(r.in_flight, 0);
}

#[test]
fn link_flap_loses_frames_on_the_wire_not_in_the_ledger() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    plan.push(
        freq.cycles_from_millis(100),
        FaultKind::LinkFlap {
            iface: 0,
            down: freq.cycles_from_millis(50),
        },
    );
    let r = run_chaos_trial(&spec(1_000.0, 1_500, polled_screend(Some(plan))));
    assert!(r.result.fault.link_down_losses > 0, "{:?}", r.result.fault);
    // Wire losses happen before the NIC: arrivals + losses = offered.
    assert_eq!(
        r.result.transmitted + r.result.fault.link_down_losses,
        1_500,
        "{:?}",
        r.result.fault
    );
    assert_eq!(r.in_flight, 0);
}

#[test]
fn fault_markers_land_in_the_chrome_trace() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    plan.push(freq.cycles_from_millis(100), FaultKind::ScreendStall { ticks: 2 });
    plan.push(freq.cycles_from_millis(200), FaultKind::SpuriousRxIntr { iface: 0 });
    let s = spec(1_000.0, 600, polled_screend(Some(plan)));
    let (_, json) = run_trial_traced(&s, 1 << 16);
    // Each injection and each recovery is an instant marker on the
    // marker track of the exported trace.
    assert!(json.contains("fault: screend-stall"), "{}", &json[..200]);
    assert!(json.contains("fault: spurious-rx-intr"));
    assert!(json.contains("recover: screend-restart"));

    // And a fault-free traced run carries no markers at all: the export
    // is byte-identical to one from a build without the fault layer.
    let (_, clean) = run_trial_traced(&spec(1_000.0, 600, polled_screend(None)), 1 << 16);
    assert!(!clean.contains("fault:"));
    assert!(!clean.contains("recover:"));
}

#[test]
fn overrun_storm_frames_balance_the_conservation_ledger() {
    let cfg = polled_screend(None);
    let freq = cfg.cost.freq;
    let mut plan = FaultPlan::new();
    plan.push(
        freq.cycles_from_millis(100),
        FaultKind::RxOverrunStorm { iface: 0, frames: 40 },
    );
    let r = run_chaos_trial(&spec(1_000.0, 1_000, polled_screend(Some(plan))));
    assert_eq!(r.result.fault.storm_frames, 40);
    // in_flight() internally asserts arrivals = deliveries + drops;
    // reaching zero means the garbage frames were all accounted.
    assert_eq!(r.in_flight, 0);
    assert_eq!(r.result.transmitted, 1_000, "real traffic unharmed");
}
