//! Order statistics for the benchmark's samples.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); NaN for
/// an empty slice, which the output check then rejects.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The tail of a sample set: the highest whole percentile that still has
/// at least [`MIN_BEYOND`] samples above it, by nearest rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile was reported (50..=99).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// See [`Tail`]. With fewer than twenty samples no percentile above the
/// median has ten samples beyond it, and the median is reported.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            percentile: 50,
            value: f64::NAN,
            samples: 0,
        };
    }
    let percentile = (n.saturating_sub(MIN_BEYOND) * 100 / n).clamp(50, 99);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least p % of samples at
    // or below it.
    let rank = (percentile * n).div_ceil(100).max(1);
    Tail {
        percentile: percentile as u32,
        value: v[rank - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.samples), (95, 200));
        assert_eq!(t.value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let of = |n: usize| tail(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        // 60 samples: p83 leaves 10 beyond (rank 50), p84 would leave 9.
        assert_eq!(of(60).percentile, 83);
        assert_eq!(of(60).value, 49.0);
        assert_eq!(of(1000).percentile, 99);
        assert_eq!(of(100).percentile, 90);
        for n in [20, 36, 60, 100, 128, 240] {
            let t = of(n);
            let beyond = (0..n).filter(|&i| i as f64 > t.value).count();
            assert!(
                beyond >= MIN_BEYOND,
                "n={n}: {beyond} beyond p{}",
                t.percentile
            );
        }
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median_rank() {
        assert_eq!(tail(&[5.0, 1.0, 3.0]).percentile, 50);
        assert_eq!(tail(&[5.0, 1.0, 3.0]).value, 3.0);
    }
}
