//! Analysis of rate-sweep results: MLFRR estimation and livelock detection.
//!
//! The paper frames overload behaviour around the **Maximum Loss Free
//! Receive Rate** (MLFRR): "the throughput of a well-designed system \[keeps]
//! up with the offered load up to ... the MLFRR, and at higher loads
//! throughput should not drop below this rate" (§3). These helpers classify
//! measured `(offered, delivered)` sweeps the way the paper's figures are
//! read: where does delivery stop tracking the offered load, does throughput
//! collapse afterwards, and how stable is the overload plateau?

/// One point of a rate sweep: offered input rate vs delivered output rate,
/// both in packets/second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Offered (input) packet rate.
    pub offered: f64,
    /// Delivered (output) packet rate.
    pub delivered: f64,
}

impl SweepPoint {
    /// Creates a point.
    pub fn new(offered: f64, delivered: f64) -> Self {
        SweepPoint { offered, delivered }
    }

    /// Whether the point delivered at least `loss_free_frac` of a positive
    /// offered load. A point that offered nothing measured nothing, so it
    /// is never loss-free.
    pub fn is_loss_free(&self, loss_free_frac: f64) -> bool {
        self.offered > 0.0 && self.delivered >= loss_free_frac * self.offered
    }
}

/// The verdict of [`classify`] on a sweep's overload behaviour, in the
/// paper's §4.2 taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivelockVerdict {
    /// Delivered throughput tracks offered load over the whole sweep: the
    /// system never saturated (no overload information).
    NotSaturated,
    /// Throughput reaches a peak and stays near it: the "realizable system"
    /// the paper's modifications produce.
    StablePlateau,
    /// Throughput declines significantly beyond the peak but stays above
    /// the livelock floor: the paper's unmodified kernel without screend.
    Degrading,
    /// Throughput collapses towards zero under overload: receive livelock
    /// (the unmodified kernel with screend by ~6000 pkts/s).
    Livelock,
}

/// Estimates the MLFRR from a sweep: the highest offered rate at which the
/// system still delivered at least `loss_free_frac` (e.g. 0.98) of the
/// offered load. Returns `None` when no point qualifies.
pub fn mlfrr(points: &[SweepPoint], loss_free_frac: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.is_loss_free(loss_free_frac))
        .map(|p| p.offered)
        .fold(None, |best, x| Some(best.map_or(x, |b: f64| b.max(x))))
}

/// Returns the peak delivered rate of a sweep.
pub fn peak_delivered(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.delivered).fold(0.0, f64::max)
}

/// Returns the delivered rate at the highest offered load.
pub fn delivered_at_max_load(points: &[SweepPoint]) -> f64 {
    points
        .iter()
        .fold(None::<SweepPoint>, |best, &p| match best {
            Some(b) if b.offered >= p.offered => Some(b),
            _ => Some(p),
        })
        .map_or(0.0, |p| p.delivered)
}

/// Classifies a sweep's overload behaviour.
///
/// - `livelock_floor_frac`: delivered-at-max below this fraction of the
///   peak counts as livelock (the paper's figures collapse to ≲5%).
/// - `plateau_frac`: delivered-at-max at or above this fraction of the peak
///   counts as a stable plateau (e.g. 0.85).
///
/// Anything between degrades. A sweep whose delivery still tracks offered
/// load at its highest point is [`LivelockVerdict::NotSaturated`].
pub fn classify(
    points: &[SweepPoint],
    livelock_floor_frac: f64,
    plateau_frac: f64,
) -> LivelockVerdict {
    let peak = peak_delivered(points);
    if peak <= 0.0 {
        return LivelockVerdict::Livelock;
    }
    let max_point = points
        .iter()
        .fold(None::<SweepPoint>, |best, &p| match best {
            Some(b) if b.offered >= p.offered => Some(b),
            _ => Some(p),
        });
    let Some(max_point) = max_point else {
        return LivelockVerdict::NotSaturated;
    };
    if max_point.delivered >= 0.95 * max_point.offered {
        return LivelockVerdict::NotSaturated;
    }
    let tail_frac = max_point.delivered / peak;
    if tail_frac < livelock_floor_frac {
        LivelockVerdict::Livelock
    } else if tail_frac >= plateau_frac {
        LivelockVerdict::StablePlateau
    } else {
        LivelockVerdict::Degrading
    }
}

/// Searches for the MLFRR by multisection over an offered-rate bracket.
///
/// Each round splits the current `(lo, hi)` bracket into `k + 1` equal
/// intervals and asks `probe` to measure all `k` interior rates **in one
/// batch** — the caller may run them concurrently (e.g. with
/// `livelock_kernel::par_map`), which is why this takes a batch closure
/// instead of a single-rate one. The bracket then narrows to the highest
/// loss-free probe and the lowest lossy probe, so a round shrinks it by a
/// factor of `k + 1` instead of plain bisection's 2. With `k == 1` this
/// *is* plain bisection.
///
/// `probe` must return one [`SweepPoint`] per requested rate, in order.
/// The search assumes `lo` is loss-free (validate the bracket first) and
/// returns the highest rate observed loss-free after `rounds` rounds.
///
/// # Panics
///
/// Panics if `probe` returns a different number of points than rates
/// requested.
pub fn mlfrr_multisection<F>(
    bracket: (f64, f64),
    k: usize,
    rounds: usize,
    loss_free_frac: f64,
    mut probe: F,
) -> f64
where
    F: FnMut(&[f64]) -> Vec<SweepPoint>,
{
    let (mut lo, mut hi) = bracket;
    let k = k.max(1);
    for _ in 0..rounds {
        if hi <= lo {
            break;
        }
        let step = (hi - lo) / (k as f64 + 1.0);
        let mids: Vec<f64> = (1..=k).map(|i| lo + step * i as f64).collect();
        let pts = probe(&mids);
        assert_eq!(
            pts.len(),
            mids.len(),
            "probe must return one point per rate"
        );
        for (&rate, p) in mids.iter().zip(&pts) {
            if p.is_loss_free(loss_free_frac) {
                lo = lo.max(rate);
            } else {
                hi = hi.min(rate);
            }
        }
        if hi < lo {
            // A non-monotone response inverted the bracket; treat the
            // highest loss-free rate seen as converged.
            hi = lo;
        }
    }
    lo
}

/// The number of multisection rounds that match plain bisection's
/// precision: `k`-section shrinks the bracket by `k + 1` per round, so
/// `rounds(k)` rounds shrink at least as much as `bisect_rounds` halvings.
pub fn multisection_rounds(k: usize, bisect_rounds: u32) -> usize {
    let k = k.max(1);
    let shrink = (k as f64 + 1.0).ln();
    (f64::from(bisect_rounds) * std::f64::consts::LN_2 / shrink).ceil() as usize
}

/// Overload stability: the ratio of delivered throughput at maximum load to
/// the peak delivered throughput (1.0 = perfectly flat plateau, → 0 =
/// livelock). This is the scalar the ablation benches report.
pub fn overload_stability(points: &[SweepPoint]) -> f64 {
    let peak = peak_delivered(points);
    if peak <= 0.0 {
        return 0.0;
    }
    delivered_at_max_load(points) / peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sweep(pairs: &[(f64, f64)]) -> Vec<SweepPoint> {
        pairs.iter().map(|&(o, d)| SweepPoint::new(o, d)).collect()
    }

    /// An idealized "modified kernel" curve: tracks load to 5000, flat after.
    fn plateau_curve() -> Vec<SweepPoint> {
        sweep(&[
            (1000.0, 1000.0),
            (3000.0, 3000.0),
            (5000.0, 4950.0),
            (8000.0, 4900.0),
            (12000.0, 4800.0),
        ])
    }

    /// An idealized unmodified-with-screend curve: peaks at 2000, dies at 6000.
    fn livelock_curve() -> Vec<SweepPoint> {
        sweep(&[
            (1000.0, 1000.0),
            (2000.0, 2000.0),
            (3000.0, 1500.0),
            (4500.0, 800.0),
            (6000.0, 30.0),
            (12000.0, 0.0),
        ])
    }

    /// Unmodified without screend: peaks at 4700, degrades.
    fn degrading_curve() -> Vec<SweepPoint> {
        sweep(&[
            (2000.0, 2000.0),
            (4700.0, 4650.0),
            (8000.0, 3500.0),
            (12000.0, 2400.0),
        ])
    }

    #[test]
    fn mlfrr_estimates() {
        assert_eq!(mlfrr(&plateau_curve(), 0.98), Some(5000.0));
        assert_eq!(mlfrr(&livelock_curve(), 0.98), Some(2000.0));
        assert_eq!(mlfrr(&degrading_curve(), 0.98), Some(4700.0));
        assert_eq!(mlfrr(&[], 0.98), None);
        assert_eq!(
            mlfrr(&sweep(&[(1000.0, 10.0)]), 0.98),
            None,
            "nothing loss-free"
        );
    }

    #[test]
    fn classification_matches_paper_shapes() {
        assert_eq!(
            classify(&plateau_curve(), 0.05, 0.85),
            LivelockVerdict::StablePlateau
        );
        assert_eq!(
            classify(&livelock_curve(), 0.05, 0.85),
            LivelockVerdict::Livelock
        );
        assert_eq!(
            classify(&degrading_curve(), 0.05, 0.85),
            LivelockVerdict::Degrading
        );
    }

    #[test]
    fn unsaturated_sweep() {
        let s = sweep(&[(100.0, 100.0), (500.0, 498.0)]);
        assert_eq!(classify(&s, 0.05, 0.85), LivelockVerdict::NotSaturated);
    }

    #[test]
    fn all_zero_delivery_is_livelock() {
        let s = sweep(&[(1000.0, 0.0), (2000.0, 0.0)]);
        assert_eq!(classify(&s, 0.05, 0.85), LivelockVerdict::Livelock);
    }

    #[test]
    fn stability_scalar() {
        assert!(overload_stability(&plateau_curve()) > 0.95);
        assert!(overload_stability(&livelock_curve()) < 0.01);
        let d = overload_stability(&degrading_curve());
        assert!(d > 0.3 && d < 0.85, "degrading stability = {d}");
        assert_eq!(overload_stability(&[]), 0.0);
    }

    /// A synthetic system that is loss-free up to `knee` and lossy above.
    fn knee_probe(knee: f64) -> impl FnMut(&[f64]) -> Vec<SweepPoint> {
        move |rates: &[f64]| {
            rates
                .iter()
                .map(|&r| {
                    let d = if r <= knee { r } else { 0.5 * r };
                    SweepPoint::new(r, d)
                })
                .collect()
        }
    }

    #[test]
    fn multisection_converges_on_the_knee() {
        let knee = 5_230.0;
        for k in [1, 2, 4, 8] {
            let rounds = multisection_rounds(k, 12);
            let m = mlfrr_multisection((100.0, 14_000.0), k, rounds, 0.98, knee_probe(knee));
            let err = (m - knee).abs();
            assert!(err < 10.0, "k={k}: MLFRR {m} vs knee {knee} (err {err})");
            assert!(m <= knee, "k={k}: never overshoots the loss-free region");
        }
    }

    #[test]
    fn multisection_with_k1_is_bisection() {
        // k = 1 probes the single midpoint each round: classic bisection.
        let mut probes = Vec::new();
        let mut inner = knee_probe(6_000.0);
        let m = mlfrr_multisection((0.0, 8_000.0), 1, 3, 0.98, |rates| {
            assert_eq!(rates.len(), 1);
            probes.push(rates[0]);
            inner(rates)
        });
        assert_eq!(probes, vec![4_000.0, 6_000.0, 7_000.0]);
        assert_eq!(m, 6_000.0);
    }

    #[test]
    fn multisection_zero_rounds_returns_lo() {
        let m = mlfrr_multisection((250.0, 9_000.0), 4, 0, 0.98, |_| unreachable!());
        assert_eq!(m, 250.0);
    }

    #[test]
    fn a_probe_that_offered_nothing_never_raises_lo() {
        // A trial too short to hold an arrival in its window reads 0
        // offered and 0 delivered; 0 >= 0.98 * 0 must not count as
        // loss-free, or the search climbs to the top of the bracket.
        let empty = |rates: &[f64]| vec![SweepPoint::new(0.0, 0.0); rates.len()];
        for k in [1, 4] {
            let m = mlfrr_multisection((100.0, 14_000.0), k, multisection_rounds(k, 12), 0.98, empty);
            assert_eq!(m, 100.0, "k={k}");
        }
        assert!(!SweepPoint::new(0.0, 0.0).is_loss_free(0.98));
        assert!(SweepPoint::new(100.0, 98.0).is_loss_free(0.98));
    }

    #[test]
    fn multisection_round_counts_match_bisection_precision() {
        assert_eq!(multisection_rounds(1, 12), 12);
        assert_eq!(multisection_rounds(3, 12), 6);
        assert!(multisection_rounds(7, 12) <= 4);
        // A round of k-section must shrink at least as much as the
        // bisection it replaces.
        for k in 1..=16usize {
            let r = multisection_rounds(k, 12) as f64;
            assert!((k as f64 + 1.0).powf(r) >= 2f64.powi(12) - 1e-6);
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(peak_delivered(&livelock_curve()), 2000.0);
        assert_eq!(delivered_at_max_load(&livelock_curve()), 0.0);
        assert_eq!(delivered_at_max_load(&[]), 0.0);
    }

    proptest! {
        #[test]
        fn stability_is_bounded(
            pairs in proptest::collection::vec((0.0f64..1e5, 0.0f64..1e5), 1..50)
        ) {
            let s = sweep(&pairs);
            let v = overload_stability(&s);
            prop_assert!((0.0..=f64::INFINITY).contains(&v));
            // Delivered never exceeds peak by construction of the metric.
            if peak_delivered(&s) > 0.0 {
                prop_assert!(v <= 1.0 + 1e-9);
            }
        }

        #[test]
        fn mlfrr_is_an_offered_rate_from_the_sweep(
            pairs in proptest::collection::vec((1.0f64..1e5, 0.0f64..1e5), 1..50)
        ) {
            let s = sweep(&pairs);
            if let Some(m) = mlfrr(&s, 0.98) {
                prop_assert!(s.iter().any(|p| p.offered == m));
            }
        }
    }
}
