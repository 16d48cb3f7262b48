//! The CPU-cycle limiter: guaranteed progress for user-level processes
//! (paper §7).
//!
//! The polling and feedback mechanisms keep *packets* moving but are
//! "indifferent to the needs of other activities". The cycle limiter
//! measures, with a fine-grained cycle counter, how much CPU time packet
//! processing consumes in each period (the paper used 10 ms, matching the
//! scheduler quantum). Once usage passes a threshold fraction, input
//! handling is inhibited for the rest of the period; the period-start timer
//! re-enables it, and execution of the idle thread both re-enables input and
//! clears the running total.

/// What the kernel should do after reporting packet-processing usage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimiterDecision {
    /// Budget remains: keep processing input.
    Continue,
    /// The threshold was just crossed: inhibit input handling immediately.
    Inhibit,
}

/// Per-period CPU budget enforcement for packet processing.
///
/// # Examples
///
/// ```
/// use livelock_core::cycle_limit::{CycleLimiter, LimiterDecision};
///
/// // 1_000_000-cycle period (10 ms at 100 MHz), 25% for packet work.
/// let mut lim = CycleLimiter::new(1_000_000, 0.25);
/// assert_eq!(lim.record(200_000), LimiterDecision::Continue);
/// assert_eq!(lim.record(60_000), LimiterDecision::Inhibit);
/// assert!(lim.is_inhibited());
/// // The next period re-opens the budget.
/// assert!(lim.on_period_start());
/// assert!(!lim.is_inhibited());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CycleLimiter {
    period_cycles: u64,
    budget_cycles: u64,
    used: u64,
    inhibited: bool,
    inhibit_edges: u64,
    periods: u64,
}

impl CycleLimiter {
    /// Creates a limiter for a period of `period_cycles` with
    /// `threshold_frac` of the period available to packet processing.
    ///
    /// A threshold of 1.0 (the paper's "100%" curve) never inhibits.
    ///
    /// # Panics
    ///
    /// Panics if `period_cycles` is zero or the fraction is outside
    /// `[0, 1]`.
    pub fn new(period_cycles: u64, threshold_frac: f64) -> Self {
        assert!(period_cycles > 0, "period must be positive");
        assert!(
            (0.0..=1.0).contains(&threshold_frac),
            "threshold must be within [0, 1]"
        );
        CycleLimiter {
            period_cycles,
            budget_cycles: (period_cycles as f64 * threshold_frac) as u64,
            used: 0,
            inhibited: false,
            inhibit_edges: 0,
            periods: 0,
        }
    }

    /// Returns `true` while input handling is inhibited.
    pub fn is_inhibited(&self) -> bool {
        self.inhibited
    }

    /// Records `cycles` of packet-processing work (one poll-loop pass).
    ///
    /// Returns [`LimiterDecision::Inhibit`] exactly on the crossing edge;
    /// the caller inhibits input and must not re-enable it until
    /// [`CycleLimiter::on_period_start`] or [`CycleLimiter::on_idle`]
    /// returns `true`.
    pub fn record(&mut self, cycles: u64) -> LimiterDecision {
        self.used = self.used.saturating_add(cycles);
        if !self.inhibited
            && self.budget_cycles < self.period_cycles
            && self.used > self.budget_cycles
        {
            self.inhibited = true;
            self.inhibit_edges += 1;
            LimiterDecision::Inhibit
        } else {
            LimiterDecision::Continue
        }
    }

    /// Starts a new accounting period (the per-period timer): clears the
    /// running total and lifts any inhibition. Returns `true` if input was
    /// inhibited and should now be resumed.
    pub fn on_period_start(&mut self) -> bool {
        self.periods += 1;
        self.used = 0;
        core::mem::take(&mut self.inhibited)
    }

    /// Reports that the idle thread ran: the system is under-loaded, so the
    /// running total is cleared and input is re-enabled (paper §7:
    /// "execution of the system's idle thread also re-enables input
    /// interrupts and clears the running total"). Returns `true` if input
    /// was inhibited and should now be resumed.
    pub fn on_idle(&mut self) -> bool {
        self.used = 0;
        core::mem::take(&mut self.inhibited)
    }

    /// How many times the threshold was crossed (diagnostics).
    pub fn inhibit_edges(&self) -> u64 {
        self.inhibit_edges
    }

    /// How many periods have elapsed (diagnostics).
    pub fn periods(&self) -> u64 {
        self.periods
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn stays_open_under_budget() {
        let mut lim = CycleLimiter::new(1_000_000, 0.5);
        assert_eq!(lim.budget_cycles, 500_000);
        for _ in 0..4 {
            assert_eq!(lim.record(100_000), LimiterDecision::Continue);
        }
        assert!(!lim.is_inhibited());
        assert_eq!(lim.used, 400_000);
    }

    #[test]
    fn inhibits_exactly_once_per_crossing() {
        let mut lim = CycleLimiter::new(1_000_000, 0.25);
        assert_eq!(
            lim.record(250_000),
            LimiterDecision::Continue,
            "== budget is ok"
        );
        assert_eq!(lim.record(1), LimiterDecision::Inhibit);
        assert_eq!(
            lim.record(1_000_000),
            LimiterDecision::Continue,
            "edge fired already"
        );
        assert_eq!(lim.inhibit_edges(), 1);
    }

    #[test]
    fn period_start_resets_and_resumes() {
        let mut lim = CycleLimiter::new(100, 0.5);
        lim.record(51);
        assert!(lim.is_inhibited());
        assert!(lim.on_period_start());
        assert!(!lim.is_inhibited());
        assert_eq!(lim.used, 0);
        assert!(!lim.on_period_start(), "no resume needed when open");
        assert_eq!(lim.periods(), 2);
    }

    #[test]
    fn idle_resets_and_resumes() {
        let mut lim = CycleLimiter::new(100, 0.5);
        lim.record(60);
        assert!(lim.on_idle());
        assert!(!lim.is_inhibited());
        assert_eq!(lim.used, 0);
        assert!(!lim.on_idle());
    }

    #[test]
    fn full_threshold_never_inhibits() {
        let mut lim = CycleLimiter::new(1_000, 1.0);
        for _ in 0..100 {
            assert_eq!(lim.record(10_000), LimiterDecision::Continue);
        }
        assert!(!lim.is_inhibited());
        assert_eq!(lim.inhibit_edges(), 0);
    }

    #[test]
    fn zero_threshold_inhibits_immediately() {
        let mut lim = CycleLimiter::new(1_000, 0.0);
        assert_eq!(lim.record(1), LimiterDecision::Inhibit);
    }

    #[test]
    fn saturating_accumulation() {
        let mut lim = CycleLimiter::new(u64::MAX, 0.0);
        lim.record(u64::MAX);
        assert_eq!(lim.record(u64::MAX), LimiterDecision::Continue);
        assert_eq!(lim.used, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "threshold must be within")]
    fn rejects_bad_fraction() {
        let _ = CycleLimiter::new(100, 1.5);
    }

    #[cfg(feature = "proptest")]
    proptest! {
        /// The limiter inhibits iff cumulative usage exceeds the budget
        /// (when the threshold is below 100%), and the total overshoot is at
        /// most one chunk beyond the budget at the moment of inhibition.
        #[test]
        fn inhibit_matches_accumulated_usage(
            period in 1_000u64..10_000_000,
            frac_pct in 0u32..=100,
            chunks in proptest::collection::vec(1u64..100_000, 1..100),
        ) {
            let frac = frac_pct as f64 / 100.0;
            let mut lim = CycleLimiter::new(period, frac);
            let budget = lim.budget_cycles;
            let mut total = 0u64;
            let mut inhibited_at: Option<u64> = None;
            for &c in &chunks {
                total += c;
                let d = lim.record(c);
                if d == LimiterDecision::Inhibit {
                    prop_assert!(inhibited_at.is_none(), "double inhibit edge");
                    inhibited_at = Some(total);
                }
            }
            let should_inhibit = budget < period && total > budget;
            prop_assert_eq!(lim.is_inhibited(), should_inhibit);
            if let Some(at) = inhibited_at {
                // Overshoot is bounded by the chunk that crossed the line.
                prop_assert!(at > budget);
                prop_assert!(at - budget <= *chunks.iter().max().unwrap());
            }
        }
    }
}
