//! The correctness checks the one command runs on everything it times.

use std::path::Path;

use livelock_kernel::config::{KernelConfig, Mode};
use livelock_kernel::experiment::{TrialResult, TrialSpec};

use crate::workloads::{Outcome, Output, Unit};

/// How many packets a kernel can hold in flight when the trial ends:
/// every ring and queue it has, full, on every interface and CPU, plus
/// the frames on the wire and in a handler's hands.
fn in_flight_capacity(cfg: &KernelConfig) -> u64 {
    let per_iface = cfg.nic.rx_ring * 3 + cfg.nic.tx_ring + cfg.ifq_cap + 2;
    let screend = cfg.screend.as_ref().map_or(0, |s| s.queue_cap + 1);
    let socket = cfg.local.as_ref().map_or(0, |_| 64);
    let ipintrq = match cfg.mode {
        Mode::Polled(_) => 0,
        Mode::Unmodified { .. } => cfg.ipintrq_cap,
    };
    let per_cpu = per_iface * cfg.num_ifaces + screend + socket + ipintrq;
    // Each CPU of an SMP polled kernel may also park up to a ring of
    // frames in its steal buffer.
    let steal = if cfg.topology.steal {
        cfg.nic.rx_ring
    } else {
        0
    };
    ((per_cpu + steal) * cfg.topology.ncpus) as u64
}

/// The per-trial invariants `TrialResult` exposes: every offered packet
/// is delivered, dropped for a named reason, or still in a ring or
/// queue; and each CPU's cycle-ledger shares sum to one.
pub fn trial_violations(spec: &TrialSpec, r: &TrialResult) -> Vec<String> {
    let mut bad = Vec::new();
    let accounted = r.transmitted + r.app_delivered + r.drops.total();
    let offered = spec.n_packets as u64;
    if accounted > offered {
        bad.push(format!(
            "conservation: {accounted} packets accounted for, only {offered} offered"
        ));
    } else if offered - accounted > in_flight_capacity(&spec.config) {
        bad.push(format!(
            "conservation: {} packets neither delivered nor dropped, rings and queues hold at most {}",
            offered - accounted,
            in_flight_capacity(&spec.config)
        ));
    }
    for cpu in r.per_cpu() {
        let sum: f64 = cpu.cpu_share.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            bad.push(format!("{}: cpu_share sums to {sum}, not 1", cpu.cpu));
        }
    }
    bad
}

/// The committed CSV a figure must reproduce byte for byte.
pub fn committed_csv(root: &Path, figure_id: &str) -> std::io::Result<String> {
    std::fs::read_to_string(
        root.join("results")
            .join(format!("fig{}.csv", figure_id.replace('-', "_"))),
    )
}

/// Where two texts first differ, as a one-line description; `None` when
/// they are byte-identical.
pub fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let line = want.as_bytes()[..at.min(want.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1;
    Some(format!(
        "differs from the committed CSV at byte {at} (line {line}); lengths {} vs {}",
        got.len(),
        want.len()
    ))
}

/// Every way `got` fails the unit's checks (empty when it passes): the
/// per-trial invariants, byte-identity with the committed CSV for a
/// figure, and bit-identity with the warm-up pass's outcome — which
/// includes identical pool misses.
pub fn unit_violations(
    unit: &Unit,
    got: &Outcome,
    warm_up: &Outcome,
    committed: Option<&str>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if let (Unit::Trial { spec, .. }, Output::Trial(r)) = (unit, &got.output) {
        bad.extend(trial_violations(spec, r));
    }
    if let (Output::Csv(csv), Some(committed)) = (&got.output, committed) {
        bad.extend(first_difference(csv, committed));
    }
    if got.counts.pool_misses != warm_up.counts.pool_misses {
        bad.push(format!(
            "pool misses changed between passes: {} then {}",
            warm_up.counts.pool_misses, got.counts.pool_misses
        ));
    }
    if got.output != warm_up.output || got.counts != warm_up.counts {
        bad.push("result differs from the warm-up pass's (rerun is not bit-identical)".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_trial_passes_and_a_tampered_one_does_not() {
        use livelock_kernel::experiment::run_trial;
        let spec = TrialSpec {
            rate_pps: 12_000.0,
            n_packets: 2_000,
            ..TrialSpec::new(KernelConfig::builder().build())
        };
        let good = run_trial(&spec);
        assert_eq!(trial_violations(&spec, &good), Vec::<String>::new());

        let mut invented = good.clone();
        invented.transmitted += spec.n_packets as u64;
        assert!(trial_violations(&spec, &invented)[0].starts_with("conservation"));

        let mut lost = good.clone();
        lost.transmitted = 0;
        lost.drops = Default::default();
        assert!(trial_violations(&spec, &lost)[0].starts_with("conservation"));

        let mut leaky = good;
        leaky.per_cpu[0].cpu_share[0] += 1e-6;
        assert!(trial_violations(&spec, &leaky)[0].contains("cpu_share"));
    }

    #[test]
    fn csv_comparer_accepts_identical_text() {
        let csv = "input_pps,a,b\n500,1.00,2.00\n1000,3.00,4.00\n";
        assert_eq!(first_difference(csv, csv), None);
    }

    #[test]
    fn csv_comparer_rejects_a_one_byte_change() {
        let want = "input_pps,a,b\n500,1.00,2.00\n1000,3.00,4.00\n";
        let got = want.replacen("3.00", "3.01", 1);
        let msg = first_difference(&got, want).expect("one byte differs");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn csv_comparer_rejects_a_missing_trailing_newline() {
        let want = "x,y\n1,2\n";
        assert!(first_difference(want.trim_end(), want).is_some());
    }
}
