//! Queue-state feedback with hysteresis and a timeout (paper §6.6.1).
//!
//! When a downstream queue (the screend queue, an output queue, a packet
//! filter queue) fills past a high-water mark, input processing is inhibited
//! until the queue drains to a low-water mark; a timeout re-enables input
//! even if the consumer is hung "so that packets for other consumers are not
//! dropped indefinitely". The paper's values: a 32-entry screening queue,
//! inhibit at 75% full, resume at 25% full, timeout of one clock tick
//! (~1 ms).

/// The edge the controller asks the kernel to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedbackSignal {
    /// Inhibit input processing and receive interrupts.
    Inhibit,
    /// Resume input processing (re-enable receive interrupts if nothing
    /// else objects).
    Resume,
}

/// A hysteresis controller over a bounded queue's depth.
///
/// Use [`WatermarkFeedback::on_depth`] after every enqueue/dequeue and
/// [`WatermarkFeedback::on_tick`] on every clock tick; both return a signal
/// only on state *edges*, so acting on every returned signal is idempotent.
///
/// # Examples
///
/// ```
/// use livelock_core::feedback::{FeedbackSignal, WatermarkFeedback};
///
/// let mut fb = WatermarkFeedback::paper_screend();
/// assert_eq!(fb.on_depth(24), Some(FeedbackSignal::Inhibit)); // 75% of 32
/// assert_eq!(fb.on_depth(25), None, "already inhibited");
/// assert_eq!(fb.on_depth(8), Some(FeedbackSignal::Resume)); // 25% of 32
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WatermarkFeedback {
    hi: usize,
    lo: usize,
    timeout_ticks: u32,
    inhibited: bool,
    ticks_inhibited: u32,
    inhibit_edges: u64,
    timeout_resumes: u64,
}

impl WatermarkFeedback {
    /// Creates a controller for a queue of `capacity` items with high/low
    /// water marks given as fractions of capacity, and a timeout in clock
    /// ticks (0 disables the timeout).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo_frac < hi_frac ≤ 1` and `capacity > 0`.
    pub fn new(capacity: usize, hi_frac: f64, lo_frac: f64, timeout_ticks: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&hi_frac) && (0.0..=1.0).contains(&lo_frac),
            "fractions must be within [0, 1]"
        );
        assert!(lo_frac < hi_frac, "low water must be below high water");
        let hi = (hi_frac * capacity as f64).ceil() as usize;
        let lo = (lo_frac * capacity as f64).floor() as usize;
        WatermarkFeedback {
            hi: hi.max(1),
            lo,
            timeout_ticks,
            inhibited: false,
            ticks_inhibited: 0,
            inhibit_edges: 0,
            timeout_resumes: 0,
        }
    }

    /// The paper's screend configuration: 32-entry queue, inhibit at 75%,
    /// resume at 25%, one-clock-tick timeout.
    pub fn paper_screend() -> Self {
        WatermarkFeedback::new(32, 0.75, 0.25, 1)
    }

    /// Returns the high-water mark in items.
    pub fn high_water(&self) -> usize {
        self.hi
    }

    /// Returns `true` while input is inhibited.
    pub fn is_inhibited(&self) -> bool {
        self.inhibited
    }

    /// Reports the queue's current depth; returns a signal on edges.
    pub fn on_depth(&mut self, depth: usize) -> Option<FeedbackSignal> {
        if !self.inhibited && depth >= self.hi {
            self.inhibited = true;
            self.ticks_inhibited = 0;
            self.inhibit_edges += 1;
            Some(FeedbackSignal::Inhibit)
        } else if self.inhibited && depth <= self.lo {
            self.inhibited = false;
            Some(FeedbackSignal::Resume)
        } else {
            None
        }
    }

    /// Reports a clock tick; after `timeout_ticks` ticks of continuous
    /// inhibition the controller resumes input regardless of depth (the
    /// hung-consumer safety net).
    pub fn on_tick(&mut self) -> Option<FeedbackSignal> {
        if !self.inhibited || self.timeout_ticks == 0 {
            return None;
        }
        self.ticks_inhibited += 1;
        if self.ticks_inhibited >= self.timeout_ticks {
            self.inhibited = false;
            self.timeout_resumes += 1;
            Some(FeedbackSignal::Resume)
        } else {
            None
        }
    }

    /// How many times the controller inhibited input (diagnostics).
    pub fn inhibit_edges(&self) -> u64 {
        self.inhibit_edges
    }

    /// How many resumes were forced by the timeout rather than by drainage.
    pub fn timeout_resumes(&self) -> u64 {
        self.timeout_resumes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn paper_marks() {
        let fb = WatermarkFeedback::paper_screend();
        assert_eq!(fb.high_water(), 24);
        assert_eq!(fb.lo, 8);
        assert!(!fb.is_inhibited());
    }

    #[test]
    fn basic_hysteresis_cycle() {
        let mut fb = WatermarkFeedback::paper_screend();
        assert_eq!(fb.on_depth(23), None);
        assert_eq!(fb.on_depth(24), Some(FeedbackSignal::Inhibit));
        assert!(fb.is_inhibited());
        // Between the marks: no edge in either direction.
        assert_eq!(fb.on_depth(16), None);
        assert_eq!(fb.on_depth(9), None);
        assert_eq!(fb.on_depth(8), Some(FeedbackSignal::Resume));
        assert!(!fb.is_inhibited());
        // Hysteresis: rising back above lo but below hi does nothing.
        assert_eq!(fb.on_depth(16), None);
        assert_eq!(fb.inhibit_edges(), 1);
    }

    #[test]
    fn edges_fire_once() {
        let mut fb = WatermarkFeedback::paper_screend();
        assert_eq!(fb.on_depth(30), Some(FeedbackSignal::Inhibit));
        assert_eq!(fb.on_depth(31), None);
        assert_eq!(fb.on_depth(32), None);
        assert_eq!(fb.on_depth(0), Some(FeedbackSignal::Resume));
        assert_eq!(fb.on_depth(0), None);
    }

    #[test]
    fn timeout_resumes_hung_consumer() {
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 3);
        fb.on_depth(24);
        assert_eq!(fb.on_tick(), None);
        assert_eq!(fb.on_tick(), None);
        assert_eq!(fb.on_tick(), Some(FeedbackSignal::Resume));
        assert!(!fb.is_inhibited());
        assert_eq!(fb.timeout_resumes(), 1);
        // Still congested: the next depth report re-inhibits.
        assert_eq!(fb.on_depth(24), Some(FeedbackSignal::Inhibit));
    }

    #[test]
    fn paper_timeout_is_one_tick() {
        let mut fb = WatermarkFeedback::paper_screend();
        fb.on_depth(24);
        assert_eq!(fb.on_tick(), Some(FeedbackSignal::Resume));
    }

    #[test]
    fn tick_counter_resets_per_inhibition() {
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 2);
        fb.on_depth(24);
        assert_eq!(fb.on_tick(), None);
        assert_eq!(fb.on_depth(8), Some(FeedbackSignal::Resume));
        fb.on_depth(24);
        // A fresh inhibition gets the full timeout again.
        assert_eq!(fb.on_tick(), None);
        assert_eq!(fb.on_tick(), Some(FeedbackSignal::Resume));
    }

    #[test]
    fn zero_timeout_disables_safety_net() {
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 0);
        fb.on_depth(32);
        for _ in 0..1000 {
            assert_eq!(fb.on_tick(), None);
        }
        assert!(fb.is_inhibited());
    }

    #[test]
    fn ticks_while_open_do_nothing() {
        let mut fb = WatermarkFeedback::paper_screend();
        for _ in 0..10 {
            assert_eq!(fb.on_tick(), None);
        }
        assert!(!fb.is_inhibited());
    }

    #[test]
    fn stuck_consumer_reenables_without_any_drain_event() {
        // The wedge scenario fault injection creates: the consumer dies
        // right after the inhibit edge, so no on_depth() ever arrives
        // again. Only the tick-driven timeout can re-enable input — and it
        // must do so every time, indefinitely.
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 2);
        fb.on_depth(24);
        for round in 1..=50u64 {
            assert!(fb.is_inhibited(), "round {round}");
            assert_eq!(fb.on_tick(), None, "round {round}: one tick early");
            assert_eq!(
                fb.on_tick(),
                Some(FeedbackSignal::Resume),
                "round {round}: timeout must fire with no drain in sight"
            );
            assert_eq!(fb.timeout_resumes(), round);
            // Queue still jammed: the next depth report re-inhibits, and
            // the timeout clock must restart from zero.
            assert_eq!(fb.on_depth(30), Some(FeedbackSignal::Inhibit));
        }
    }

    #[test]
    fn low_water_then_timeout_in_the_same_tick_resumes_once() {
        // Race, order A: the drain crosses the low-water mark and the
        // clock tick that would have fired the timeout lands right after.
        // Exactly one Resume; the tick must not double-fire or re-wedge.
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 1);
        fb.on_depth(24);
        assert_eq!(fb.on_depth(8), Some(FeedbackSignal::Resume));
        assert_eq!(fb.on_tick(), None, "timeout races the drain and loses");
        assert!(!fb.is_inhibited());
        assert_eq!(fb.timeout_resumes(), 0, "drain won: not a timeout resume");
    }

    #[test]
    fn timeout_then_low_water_in_the_same_tick_resumes_once() {
        // Race, order B: the tick fires the timeout first, then the
        // in-flight dequeue reports a low depth. The depth report must
        // see an already-open controller and stay silent.
        let mut fb = WatermarkFeedback::new(32, 0.75, 0.25, 1);
        fb.on_depth(24);
        assert_eq!(fb.on_tick(), Some(FeedbackSignal::Resume));
        assert_eq!(fb.on_depth(8), None, "already resumed by the timeout");
        assert!(!fb.is_inhibited());
        assert_eq!(fb.timeout_resumes(), 1);
        // And the controller is not wedged: a later fill inhibits again.
        assert_eq!(fb.on_depth(24), Some(FeedbackSignal::Inhibit));
    }

    #[test]
    #[should_panic(expected = "low water must be below high water")]
    fn rejects_inverted_marks() {
        let _ = WatermarkFeedback::new(32, 0.25, 0.75, 1);
    }

    #[test]
    fn tiny_queue_still_works() {
        let mut fb = WatermarkFeedback::new(1, 1.0, 0.0, 1);
        assert_eq!(fb.on_depth(1), Some(FeedbackSignal::Inhibit));
        assert_eq!(fb.on_depth(0), Some(FeedbackSignal::Resume));
    }

    #[cfg(feature = "proptest")]
    proptest! {
        /// Signals strictly alternate Inhibit/Resume and the controller's
        /// state always matches the last signal emitted.
        #[test]
        fn signals_alternate(
            depths in proptest::collection::vec(0usize..=32, 1..300),
            ticks in proptest::collection::vec(any::<bool>(), 1..300),
        ) {
            let mut fb = WatermarkFeedback::paper_screend();
            let mut last: Option<FeedbackSignal> = None;
            let mut di = depths.iter();
            for &tick in &ticks {
                let sig = if tick {
                    fb.on_tick()
                } else if let Some(&d) = di.next() {
                    fb.on_depth(d)
                } else {
                    break;
                };
                if let Some(s) = sig {
                    match (last, s) {
                        (Some(FeedbackSignal::Inhibit), FeedbackSignal::Inhibit) => {
                            prop_assert!(false, "two Inhibits in a row")
                        }
                        (Some(FeedbackSignal::Resume), FeedbackSignal::Resume) => {
                            prop_assert!(false, "two Resumes in a row")
                        }
                        (None, FeedbackSignal::Resume) => {
                            prop_assert!(false, "Resume before any Inhibit")
                        }
                        _ => {}
                    }
                    last = Some(s);
                }
                let expect_inhibited = matches!(last, Some(FeedbackSignal::Inhibit));
                prop_assert_eq!(fb.is_inhibited(), expect_inhibited);
            }
        }

        /// Depth at or below the low-water mark always leaves the gate open.
        #[test]
        fn low_depth_never_inhibited(d in 0usize..=8) {
            let mut fb = WatermarkFeedback::paper_screend();
            fb.on_depth(32);
            fb.on_depth(d);
            prop_assert!(!fb.is_inhibited());
        }
    }
}
