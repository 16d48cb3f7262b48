//! Interrupt arrival-rate limiting (paper §5.1).
//!
//! "We can avoid or defer receive livelock by limiting the rate at which
//! interrupts are imposed on the system." This is a token bucket over
//! interrupt deliveries: each allowed interrupt consumes a token; tokens
//! refill at the configured rate; when the bucket is empty the interrupt
//! is deferred until [`IntrRateLimiter::next_allowed`]. Related work
//! (Traw & Smith's "clocked interrupts") polls at fixed intervals instead;
//! the bucket generalizes both.
//!
//! The paper's §5.1 caveat is the point of keeping this separate from the
//! polling machinery: "limiting the interrupt rate prevents system
//! saturation but might not guarantee progress" — the ablation benches and
//! tests demonstrate exactly that.

/// A token bucket governing interrupt delivery, timed in CPU cycles.
///
/// # Examples
///
/// ```
/// use livelock_core::rate_limit::IntrRateLimiter;
///
/// // At most 1 interrupt per 1000 cycles, bursts of up to 2.
/// let mut rl = IntrRateLimiter::new(1_000, 2);
/// assert!(rl.allow(0));
/// assert!(rl.allow(0), "burst capacity");
/// assert!(!rl.allow(500), "bucket empty");
/// assert_eq!(rl.next_allowed(500), 1_000);
/// assert!(rl.allow(1_000), "token refilled");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct IntrRateLimiter {
    /// Cycles per token (the inverse of the maximum sustained rate).
    interval: u64,
    /// Bucket capacity in tokens.
    burst: u32,
    /// Tokens currently available.
    tokens: u32,
    /// Time the bucket state was last advanced, plus sub-token remainder
    /// folded into the next refill.
    last_refill: u64,
}

impl IntrRateLimiter {
    /// Creates a limiter allowing one interrupt per `interval_cycles`
    /// sustained, with bursts of up to `burst` (≥ 1). The bucket starts
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero or `burst` is zero.
    pub fn new(interval_cycles: u64, burst: u32) -> Self {
        assert!(interval_cycles > 0, "interval must be positive");
        assert!(burst > 0, "burst must be at least one");
        IntrRateLimiter {
            interval: interval_cycles,
            burst,
            tokens: burst,
            last_refill: 0,
        }
    }

    /// Builds a limiter for a maximum rate in interrupts/second at a given
    /// CPU frequency.
    pub fn per_second(max_rate: f64, cpu_hz: u64, burst: u32) -> Self {
        assert!(max_rate > 0.0, "rate must be positive");
        let interval = (cpu_hz as f64 / max_rate).round().max(1.0) as u64;
        IntrRateLimiter::new(interval, burst)
    }

    fn refill(&mut self, now: u64) {
        if now <= self.last_refill {
            return;
        }
        let elapsed = now - self.last_refill;
        let earned = elapsed / self.interval;
        if earned > 0 {
            self.tokens = (u64::from(self.tokens) + earned).min(u64::from(self.burst)) as u32;
            // Advance in whole-token steps, carrying the remainder.
            self.last_refill += earned * self.interval;
            if self.tokens == self.burst {
                // A full bucket forgets fractional progress, as buckets do.
                self.last_refill = now;
            }
        }
    }

    /// Requests delivery of an interrupt at time `now`. Returns `true` when
    /// allowed (a token is consumed) or `false` when it must be deferred.
    pub fn allow(&mut self, now: u64) -> bool {
        self.refill(now);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// The earliest time a deferred interrupt may be delivered.
    pub fn next_allowed(&self, now: u64) -> u64 {
        if self.tokens > 0 {
            now
        } else {
            self.last_refill + self.interval
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn burst_then_sustained_rate() {
        let mut rl = IntrRateLimiter::new(100, 3);
        assert!(rl.allow(0));
        assert!(rl.allow(0));
        assert!(rl.allow(0));
        assert!(!rl.allow(0));
        assert!(!rl.allow(99));
        assert!(rl.allow(100));
        assert!(!rl.allow(150));
        assert!(rl.allow(200));
    }

    #[test]
    fn long_idle_refills_to_burst_only() {
        let mut rl = IntrRateLimiter::new(100, 2);
        assert!(rl.allow(0));
        assert!(rl.allow(0));
        // A huge gap earns at most `burst` tokens.
        assert!(rl.allow(1_000_000));
        assert!(rl.allow(1_000_000));
        assert!(!rl.allow(1_000_000));
    }

    #[test]
    fn next_allowed_is_consistent() {
        let mut rl = IntrRateLimiter::new(100, 1);
        assert!(rl.allow(50));
        assert!(!rl.allow(60));
        let t = rl.next_allowed(60);
        assert!(t >= 60);
        assert!(rl.allow(t), "promised time must deliver");
    }

    #[test]
    fn per_second_constructor() {
        // 5000 intr/s at 100 MHz = one per 20_000 cycles.
        let rl = IntrRateLimiter::per_second(5_000.0, 100_000_000, 1);
        assert_eq!(rl.interval, 20_000);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = IntrRateLimiter::new(0, 1);
    }

    proptest! {
        /// The sustained rate never exceeds the configured one: over any
        /// request trace, allowed ≤ burst + elapsed/interval.
        #[test]
        fn sustained_rate_bound(
            interval in 10u64..10_000,
            burst in 1u32..16,
            deltas in proptest::collection::vec(0u64..5_000, 1..300),
        ) {
            let mut rl = IntrRateLimiter::new(interval, burst);
            let mut now = 0u64;
            let mut allowed = 0u64;
            for d in deltas {
                now += d;
                if rl.allow(now) {
                    allowed += 1;
                }
            }
            let bound = u64::from(burst) + now / interval;
            prop_assert!(allowed <= bound, "{allowed} > {bound}");
        }

        /// `next_allowed` never promises a time that then refuses delivery.
        #[test]
        fn next_allowed_keeps_promises(
            interval in 10u64..1_000,
            burst in 1u32..8,
            deltas in proptest::collection::vec(0u64..2_000, 1..100),
        ) {
            let mut rl = IntrRateLimiter::new(interval, burst);
            let mut now = 0u64;
            for d in deltas {
                now += d;
                if !rl.allow(now) {
                    let t = rl.next_allowed(now);
                    prop_assert!(t >= now);
                    prop_assert!(rl.allow(t));
                    now = t;
                }
            }
        }
    }
}
