//! Random Early Detection admission control (Floyd & Jacobson 1993).
//!
//! The paper keeps drop-tail and notes that "when a congested router must
//! drop a packet, its choice of which packet to drop can have significant
//! effects ... other policies might provide better results \[3]" (§8). This
//! module implements that cited alternative as an *admission policy* layered
//! in front of any bounded queue: the classic RED gateway calculation with
//! an EWMA of the queue length, a linearly rising drop probability between
//! two thresholds, and the count-based spacing correction from the paper.

use livelock_sim::Rng;

/// Verdict for one arriving packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue the packet.
    Accept,
    /// Drop the packet now (early drop).
    EarlyDrop,
}

/// RED parameters and state.
///
/// # Examples
///
/// ```
/// use livelock_net::red::{Admission, Red};
///
/// let mut red = Red::new(5.0, 15.0, 0.1, 0.002, 7);
/// // An empty queue always admits.
/// assert_eq!(red.admit(0), Admission::Accept);
/// ```
#[derive(Clone, Debug)]
pub struct Red {
    min_th: f64,
    max_th: f64,
    max_p: f64,
    /// EWMA weight (RED paper default 0.002).
    w_q: f64,
    avg: f64,
    /// Packets accepted since the last early drop while avg ≥ min_th.
    count: i64,
    rng: Rng,
}

impl Red {
    /// Creates a RED policy.
    ///
    /// - `min_th` / `max_th`: thresholds on the *average* queue length;
    /// - `max_p`: drop probability as the average reaches `max_th`;
    /// - `w_q`: EWMA weight;
    /// - `seed`: deterministic randomization seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_th < max_th` and `0 < max_p ≤ 1`.
    pub fn new(min_th: f64, max_th: f64, max_p: f64, w_q: f64, seed: u64) -> Self {
        assert!(min_th > 0.0 && min_th < max_th, "thresholds must order");
        assert!(max_p > 0.0 && max_p <= 1.0, "max_p must be in (0, 1]");
        assert!(w_q > 0.0 && w_q <= 1.0, "w_q must be in (0, 1]");
        Red {
            min_th,
            max_th,
            max_p,
            w_q,
            avg: 0.0,
            count: -1,
            rng: Rng::seed_from(seed),
        }
    }

    /// A reasonable default for a queue of the given capacity: thresholds
    /// at 25% and 75%, 10% max drop probability.
    pub fn for_capacity(capacity: usize, seed: u64) -> Self {
        let cap = capacity as f64;
        Red::new(cap * 0.25, cap * 0.75, 0.1, 0.002, seed)
    }

    /// Decides admission for a packet arriving to a queue currently
    /// `queue_len` long. The caller still enforces the hard capacity.
    pub fn admit(&mut self, queue_len: usize) -> Admission {
        self.avg = (1.0 - self.w_q) * self.avg + self.w_q * queue_len as f64;
        if self.avg < self.min_th {
            self.count = -1;
            return Admission::Accept;
        }
        if self.avg >= self.max_th {
            self.count = 0;
            return Admission::EarlyDrop;
        }
        self.count += 1;
        let p_b = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th);
        // Spacing correction: p_a = p_b / (1 - count * p_b).
        let denom = 1.0 - self.count as f64 * p_b;
        let p_a = if denom <= 0.0 {
            1.0
        } else {
            (p_b / denom).min(1.0)
        };
        if self.rng.chance(p_a) {
            self.count = 0;
            Admission::EarlyDrop
        } else {
            Admission::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_queue_always_admits() {
        let mut red = Red::for_capacity(32, 1);
        let accepted = (0..1000).filter(|_| red.admit(0) == Admission::Accept).count();
        assert_eq!(accepted, 1000);
    }

    #[test]
    fn sustained_congestion_drops_probabilistically() {
        let mut red = Red::new(4.0, 12.0, 0.2, 0.2, 2);
        let mut drops = 0;
        for _ in 0..2000 {
            if red.admit(10) == Admission::EarlyDrop {
                drops += 1;
            }
        }
        // avg converges to 10 (between thresholds): some but not all drop.
        assert!(drops > 100, "drops {drops}");
        assert!(drops < 1500, "drops {drops}");
    }

    #[test]
    fn above_max_threshold_drops_everything() {
        let mut red = Red::new(2.0, 8.0, 0.1, 1.0, 3); // w_q=1: avg = instant.
        let drops = (0..2).filter(|_| red.admit(20) == Admission::EarlyDrop).count();
        assert_eq!(drops, 2);
    }

    #[test]
    fn ewma_tracks_slowly() {
        let mut red = Red::new(4.0, 12.0, 0.1, 0.01, 4);
        // A short burst barely moves the average: no early drops.
        for _ in 0..10 {
            assert_eq!(red.admit(16), Admission::Accept);
        }
        assert!(red.avg < 4.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut red = Red::new(4.0, 12.0, 0.2, 0.2, seed);
            (0..500)
                .filter(|_| red.admit(9) == Admission::EarlyDrop)
                .count()
        };
        assert_eq!(run(9), run(9));
        // Different seeds give (almost surely) different drop patterns.
        let mut a = Red::new(4.0, 12.0, 0.2, 0.2, 1);
        let mut b = Red::new(4.0, 12.0, 0.2, 0.2, 2);
        let pa: Vec<_> = (0..200).map(|_| a.admit(9)).collect();
        let pb: Vec<_> = (0..200).map(|_| b.admit(9)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    #[should_panic(expected = "thresholds must order")]
    fn bad_thresholds_rejected() {
        let _ = Red::new(10.0, 5.0, 0.1, 0.002, 1);
    }

    proptest! {
        /// Below min threshold RED never drops, regardless of history.
        #[test]
        fn no_drops_below_min(seed in any::<u64>()) {
            let mut red = Red::new(8.0, 24.0, 0.5, 0.5, seed);
            for _ in 0..200 {
                prop_assert_eq!(red.admit(2), Admission::Accept);
            }
        }
    }
}
