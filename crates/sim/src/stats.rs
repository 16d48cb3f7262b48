//! Statistics containers for experiment measurement.
//!
//! The experiment harness measures delivered packet rates, latency
//! distributions and CPU-time breakdowns. These containers are plain
//! value types with no interior mutability, so trials stay deterministic.

use core::fmt;

use crate::time::{Cycles, Freq, Nanos};

/// A saturating event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Returns the count.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running mean and variance (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MeanVar {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MeanVar {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Returns the number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns the sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Returns the sample variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Returns the sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Returns the smallest sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Returns the largest sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Folds another accumulator into this one (Chan et al. parallel
    /// combine). The merged mean/variance equal those of the concatenated
    /// sample streams up to floating-point rounding.
    pub fn merge(&mut self, other: &MeanVar) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n = self.n.saturating_add(other.n);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Number of linear sub-buckets per power-of-two octave in [`HdrHistogram`]
/// (trades memory for quantile resolution; 32 gives ≤ 1/32 ≈ 3.1% relative
/// error on any reported quantile bound).
const HDR_SUB_BUCKETS: u64 = 32;
const HDR_SUB_BITS: u32 = HDR_SUB_BUCKETS.trailing_zeros();
/// Octaves above the exact range `[0, HDR_SUB_BUCKETS)`: msb positions
/// `HDR_SUB_BITS ..= 63`.
const HDR_OCTAVES: usize = 64 - HDR_SUB_BITS as usize;
const HDR_BUCKETS: usize = HDR_SUB_BUCKETS as usize * (1 + HDR_OCTAVES);

/// A high-dynamic-range histogram of durations: log2 octaves split into
/// linear sub-buckets, HdrHistogram-style.
///
/// Quantile bounds are within ~3% of the true value
/// (1/[`HDR_SUB_BUCKETS`] relative error), which is what tail quantiles
/// like p99.9 need to be meaningful. Values below
/// [`HDR_SUB_BUCKETS`] ns are recorded exactly. All storage is allocated
/// up front in [`HdrHistogram::new`]; recording never allocates, so it is
/// safe on the zero-allocation packet path.
///
/// A record is integer work only: one bucket increment plus the exact
/// count, sum and extrema. Moments (mean, jitter) are not kept here; a
/// book that reports them keeps a [`MeanVar`] beside its histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// Smallest recorded value; `u64::MAX` while empty.
    min: u64,
    /// Largest recorded value; 0 while empty.
    max: u64,
}

impl HdrHistogram {
    /// Creates an empty histogram with all buckets preallocated.
    pub fn new() -> Self {
        HdrHistogram {
            counts: vec![0; HDR_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(v: u64) -> usize {
        if v < HDR_SUB_BUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - HDR_SUB_BITS) as usize;
        let sub = ((v >> (msb - HDR_SUB_BITS)) - HDR_SUB_BUCKETS) as usize;
        (octave + 1) * HDR_SUB_BUCKETS as usize + sub
    }

    /// Returns the largest value mapping to bucket `i` (the bound quantiles
    /// report).
    fn bucket_top(i: usize) -> u64 {
        let sub = HDR_SUB_BUCKETS as usize;
        if i < sub {
            return i as u64;
        }
        let octave = (i / sub - 1) as u32;
        let low = ((i % sub) as u64 + HDR_SUB_BUCKETS) << octave;
        low + ((1u64 << octave) - 1)
    }

    /// The buckets that can be nonzero: those from the minimum's to the
    /// maximum's (empty while nothing is recorded).
    fn live(&self) -> std::ops::Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        Self::index_for(self.min)..Self::index_for(self.max) + 1
    }

    /// Records a duration.
    pub fn record(&mut self, d: Nanos) {
        let v = d.raw();
        self.counts[Self::index_for(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns the exact sum of recorded durations (saturating).
    pub fn sum(&self) -> Nanos {
        Nanos::new(self.sum)
    }

    /// Returns the exact minimum recorded duration (zero when empty).
    pub fn min(&self) -> Nanos {
        Nanos::new(if self.count == 0 { 0 } else { self.min })
    }

    /// Returns the exact maximum recorded duration (zero when empty).
    pub fn max(&self) -> Nanos {
        Nanos::new(self.max)
    }

    /// Returns an upper bound for the q-quantile (0.0 ≤ q ≤ 1.0) duration:
    /// the top edge of the bucket holding the quantile, within ~3% above
    /// the true sample value. Scans only the live buckets.
    pub fn quantile(&self, q: f64) -> Nanos {
        let total = self.count();
        if total == 0 {
            return Nanos::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let live = self.live();
        let mut seen = 0;
        for (i, &c) in self.counts[live.clone()].iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report a bound above the exact observed maximum.
                return Nanos::new(Self::bucket_top(live.start + i)).min(self.max());
            }
        }
        self.max()
    }

    /// Empties the histogram in place without touching its allocation:
    /// the live bucket counts, the count, the sum and the extrema all
    /// return to the freshly-created state. For sliding-window uses that
    /// need a fresh distribution per window on the zero-allocation path.
    pub fn reset(&mut self) {
        let live = self.live();
        self.counts[live].fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Folds another histogram into this one. Counts, sums and extrema
    /// merge exactly; the merged result is independent of merge order.
    /// Bucket counts saturate instead of wrapping, like every other
    /// counter in this module.
    pub fn merge(&mut self, other: &HdrHistogram) {
        let live = other.live();
        for (a, b) in self.counts[live.clone()]
            .iter_mut()
            .zip(&other.counts[live])
        {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

/// Counts events inside a measurement window and converts to a rate.
///
/// The paper reports averaged rates over each trial (sampling interface
/// counters before and after); `RateWindow` reproduces that: only events
/// inside `[start, end)` count.
#[derive(Clone, Copy, Debug)]
pub struct RateWindow {
    start: Cycles,
    end: Cycles,
    count: u64,
}

impl RateWindow {
    /// Creates a window covering `[start, end)`.
    pub fn new(start: Cycles, end: Cycles) -> Self {
        RateWindow {
            start,
            end,
            count: 0,
        }
    }

    /// Records an event at time `t` if it falls inside the window.
    pub fn record(&mut self, t: Cycles) {
        if t >= self.start && t < self.end {
            self.count += 1;
        }
    }

    /// Returns the number of in-window events.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the window bounds.
    pub fn bounds(&self) -> (Cycles, Cycles) {
        (self.start, self.end)
    }

    /// Folds another window's count into this one. Intended for
    /// aggregating per-CPU windows installed with identical bounds
    /// (SMP trials give every kernel the same measurement window); the
    /// merged rate then reads off this window's own span.
    pub fn merge(&mut self, other: &RateWindow) {
        self.count += other.count;
    }

    /// Returns the event rate in events/second given the CPU frequency.
    pub fn rate_per_sec(&self, freq: Freq) -> f64 {
        let span = freq.secs_from_cycles(self.end - self.start);
        if span <= 0.0 {
            0.0
        } else {
            self.count as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "saturates");
    }

    #[test]
    fn meanvar_known_values() {
        let mut m = MeanVar::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.record(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.max(), Some(9.0));
    }

    #[test]
    fn meanvar_empty() {
        let m = MeanVar::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
    }

    /// A deterministic splitmix64 stream for generating test samples.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Checks every reported quantile bound against a sorted-vector
    /// oracle: at least the true sample value, at most ~3.2% above it
    /// (one sub-bucket width), and never above the observed maximum.
    fn check_hdr_against_oracle(values: &[u64]) {
        let mut h = HdrHistogram::new();
        for &v in values {
            h.record(Nanos::new(v));
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), Nanos::new(sorted[0]));
        assert_eq!(h.max(), Nanos::new(*sorted.last().unwrap()));
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let truth = sorted[target - 1];
            let bound = h.quantile(q).raw();
            assert!(bound >= truth, "q={q}: bound {bound} < true {truth}");
            let slack = (truth + truth / HDR_SUB_BUCKETS + 1).min(*sorted.last().unwrap());
            assert!(bound <= slack, "q={q}: bound {bound} > {slack} (true {truth})");
        }
    }

    #[test]
    fn hdr_quantiles_match_sorted_vector_oracle() {
        // Small values are exact; the wide-range stream exercises octaves.
        check_hdr_against_oracle(&(0..=31u64).collect::<Vec<_>>());
        check_hdr_against_oracle(&[7]);
        let mut rng = 0xfeed_u64;
        for octaves in [10, 30, 50] {
            let wide: Vec<u64> = (0..5_000)
                .map(|_| splitmix(&mut rng) >> (64 - octaves))
                .collect();
            check_hdr_against_oracle(&wide);
        }
    }

    #[test]
    fn hdr_merge_matches_concatenation_and_is_order_independent() {
        let mut rng = 0xabcd_u64;
        let streams: Vec<Vec<u64>> = [16, 40, 56]
            .iter()
            .map(|&shift| {
                (0..1_000)
                    .map(|_| splitmix(&mut rng) >> shift)
                    .collect::<Vec<u64>>()
            })
            .collect();
        let parts: Vec<HdrHistogram> = streams
            .iter()
            .map(|s| {
                let mut h = HdrHistogram::new();
                for &v in s {
                    h.record(Nanos::new(v));
                }
                h
            })
            .collect();
        let mut whole = HdrHistogram::new();
        for s in &streams {
            for &v in s {
                whole.record(Nanos::new(v));
            }
        }

        // (a ⊕ b) ⊕ c and c ⊕ (b ⊕ a): counts, sums, extrema and every
        // quantile bound agree exactly with the single concatenated
        // recording, whatever the merge order.
        let mut fwd = parts[0].clone();
        fwd.merge(&parts[1]);
        fwd.merge(&parts[2]);
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        for m in [&fwd, &rev] {
            assert_eq!(m.count(), whole.count());
            assert_eq!(m.sum(), whole.sum());
            assert_eq!(m.min(), whole.min());
            assert_eq!(m.max(), whole.max());
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(m.quantile(q), whole.quantile(q), "q={q}");
            }
            assert_eq!(*m, whole, "buckets and extrema merge exactly");
        }
    }

    #[test]
    fn hdr_merge_with_empty_is_identity() {
        let mut h = HdrHistogram::new();
        h.record(Nanos::new(1_000));
        h.record(Nanos::new(2_000_000));
        let snapshot = h.clone();
        h.merge(&HdrHistogram::new());
        assert_eq!(h, snapshot);
        let mut e = HdrHistogram::new();
        e.merge(&snapshot);
        assert_eq!(e.count(), 2);
        assert_eq!(e.quantile(1.0), snapshot.quantile(1.0));
    }

    #[test]
    fn hdr_empty_quantiles_are_zero() {
        let h = HdrHistogram::new();
        assert!(h.is_empty());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Nanos::ZERO, "q={q}");
        }
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
        assert_eq!(h.sum(), Nanos::ZERO);
    }

    #[test]
    fn hdr_single_sample_every_quantile_is_that_sample() {
        for v in [0u64, 1, 31, 32, 1_000_000, u64::MAX >> 11] {
            let mut h = HdrHistogram::new();
            h.record(Nanos::new(v));
            assert_eq!(h.count(), 1);
            for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
                // One sample: every quantile bound is clamped to the
                // observed maximum, i.e. the sample itself.
                assert_eq!(h.quantile(q), Nanos::new(v), "v={v} q={q}");
            }
            assert_eq!(h.min(), Nanos::new(v));
            assert_eq!(h.max(), Nanos::new(v));
        }
    }

    #[test]
    fn hdr_merge_saturates_bucket_counts() {
        // Self-merging doubles every bucket count; 64 doublings pushes a
        // single-sample bucket past u64::MAX, which must saturate, not
        // wrap to zero (wrapping would erase the sample and its quantile).
        let mut h = HdrHistogram::new();
        h.record(Nanos::new(7));
        for _ in 0..64 {
            let snapshot = h.clone();
            h.merge(&snapshot);
        }
        assert_eq!(h.count(), u64::MAX, "count saturated");
        assert_eq!(h.quantile(0.5), Nanos::new(7), "sample survives");
        assert_eq!(h.quantile(1.0), Nanos::new(7));
        assert_eq!(h.max(), Nanos::new(7));

        // The duration sum saturates the same way.
        let mut big = HdrHistogram::new();
        big.record(Nanos::new(u64::MAX >> 1));
        let mut sum = big.clone();
        sum.merge(&big);
        sum.merge(&big);
        assert_eq!(sum.sum(), Nanos::new(u64::MAX), "sum saturated");
        assert_eq!(sum.count(), 3);
        assert_eq!(sum.quantile(1.0), Nanos::new(u64::MAX >> 1));
    }

    /// The histogram without its shortcuts: every quantile scans every
    /// bucket, every merge and reset touches every bucket.
    #[derive(Clone)]
    struct FullScan {
        counts: Vec<u64>,
        sum: u64,
        min: Option<u64>,
        max: u64,
    }

    impl FullScan {
        fn new() -> Self {
            FullScan {
                counts: vec![0; HDR_BUCKETS],
                sum: 0,
                min: None,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.counts[HdrHistogram::index_for(v)] += 1;
            self.sum = self.sum.saturating_add(v);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &FullScan) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a = a.saturating_add(*b);
            }
            self.sum = self.sum.saturating_add(other.sum);
            self.min = match (self.min, other.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.max = self.max.max(other.max);
        }

        fn count(&self) -> u64 {
            self.counts.iter().fold(0, |n: u64, &c| n.saturating_add(c))
        }

        fn quantile(&self, q: f64) -> u64 {
            let total = self.count();
            if total == 0 {
                return 0;
            }
            let target = ((q * total as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return HdrHistogram::bucket_top(i).min(self.max);
                }
            }
            self.max
        }
    }

    fn assert_matches_full_scan(h: &HdrHistogram, r: &FullScan, what: &str) {
        assert_eq!(h.count(), r.count(), "{what}: count");
        assert_eq!(h.sum().raw(), r.sum, "{what}: sum");
        assert_eq!(h.min().raw(), r.min.unwrap_or(0), "{what}: min");
        assert_eq!(h.max().raw(), r.max, "{what}: max");
        for q in [0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q).raw(), r.quantile(q), "{what}: q={q}");
        }
    }

    #[test]
    fn hdr_equals_a_full_scan_reference_through_records_merges_and_resets() {
        let mut rng = 0x5eed_u64;
        let mut h = HdrHistogram::new();
        let mut r = FullScan::new();
        for round in 0..40 {
            // A stream confined to a random band of octaves, so the live
            // range moves between rounds.
            let shift = 8 + splitmix(&mut rng) % 48;
            let other: Vec<u64> = (0..1 + splitmix(&mut rng) % 300)
                .map(|_| splitmix(&mut rng) >> shift)
                .collect();
            let (mut ho, mut ro) = (HdrHistogram::new(), FullScan::new());
            for &v in &other {
                ho.record(Nanos::new(v));
                ro.record(v);
            }
            match round % 4 {
                0 | 1 => {
                    for &v in &other {
                        h.record(Nanos::new(v));
                        r.record(v);
                    }
                }
                2 => {
                    h.merge(&ho);
                    r.merge(&ro);
                }
                _ => {
                    h.reset();
                    r = FullScan::new();
                    assert_eq!(h, HdrHistogram::new(), "round {round}: reset is new");
                }
            }
            assert_matches_full_scan(&h, &r, &format!("round {round}"));
        }

        // After a reset, a fresh sample reads exactly as in a new histogram.
        let mut fresh = HdrHistogram::new();
        h.reset();
        for v in [3u64, 90_000, 12_345_678] {
            h.record(Nanos::new(v));
            fresh.record(Nanos::new(v));
        }
        assert_eq!(h, fresh);

        // The 64-doubling saturation case.
        let (mut h, mut r) = (HdrHistogram::new(), FullScan::new());
        h.record(Nanos::new(7));
        h.record(Nanos::new(40_000));
        r.record(7);
        r.record(40_000);
        for _ in 0..64 {
            let (hs, rs) = (h.clone(), r.clone());
            h.merge(&hs);
            r.merge(&rs);
        }
        assert_matches_full_scan(&h, &r, "saturated");
        h.reset();
        assert_eq!(h, HdrHistogram::new(), "a saturated reset is new");
    }

    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn hdr_quantile_bound_stays_close_above_oracle(
            // Headroom for the oracle's slack arithmetic near u64::MAX.
            values in proptest::collection::vec(0u64..(1u64 << 62), 1..300),
        ) {
            check_hdr_against_oracle(&values);
        }

        #[test]
        fn hdr_merge_never_loses_samples(
            a in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
            b in proptest::collection::vec(0u64..(1u64 << 40), 0..100),
        ) {
            let mut ha = HdrHistogram::new();
            for &v in &a { ha.record(Nanos::new(v)); }
            let mut hb = HdrHistogram::new();
            for &v in &b { hb.record(Nanos::new(v)); }
            ha.merge(&hb);
            prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
            prop_assert_eq!(
                ha.sum().raw(),
                a.iter().sum::<u64>() + b.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn rate_window_counts_and_rates() {
        let freq = Freq::mhz(100);
        // A 1-second window at 100 MHz.
        let mut w = RateWindow::new(Cycles::new(0), freq.cycles_from_secs(1));
        for i in 0..5000u64 {
            w.record(Cycles::new(i * 10_000));
        }
        // Events at t >= 1s fall outside.
        w.record(freq.cycles_from_secs(1));
        w.record(freq.cycles_from_secs(2));
        assert_eq!(w.count(), 5000);
        assert!((w.rate_per_sec(freq) - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_window_empty_span() {
        let w = RateWindow::new(Cycles::new(5), Cycles::new(5));
        assert_eq!(w.rate_per_sec(Freq::mhz(100)), 0.0);
    }
}
