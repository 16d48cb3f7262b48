//! Virtual time: CPU cycles, nanoseconds, and clock-frequency conversion.
//!
//! The simulator's native unit is the CPU *cycle* ([`Cycles`]), mirroring the
//! Alpha cycle counter the paper's CPU-limit mechanism reads. Wall-clock-like
//! quantities (packet rates, Ethernet serialization times) are expressed in
//! nanoseconds ([`Nanos`]) and converted through a [`Freq`].
//!
//! The two bases are distinct types, so mixing them is a compile error
//! rather than a figure that still plots plausibly. Neither arithmetic,
//!
//! ```compile_fail,E0308
//! use livelock_sim::{Cycles, Nanos};
//! let _ = Cycles::new(100) + Nanos::new(100);
//! ```
//!
//! nor comparison,
//!
//! ```compile_fail,E0308
//! use livelock_sim::{Cycles, Nanos};
//! let _ = Cycles::new(100) < Nanos::new(100);
//! ```
//!
//! nor assignment crosses without a named [`Freq`] conversion:
//!
//! ```compile_fail,E0308
//! use livelock_sim::{Cycles, Nanos};
//! let mut deadline = Cycles::new(100);
//! deadline = Nanos::new(100);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, measured in CPU cycles.
///
/// `Cycles` is used both as an instant (cycles since simulation start) and a
/// duration; arithmetic saturates on subtraction so transient bookkeeping
/// errors cannot wrap around and corrupt the event queue ordering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// The zero instant / empty duration.
    pub const ZERO: Cycles = Cycles(0);
    /// The maximum representable time; used as "never" in timer slots.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count from a raw value.
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: Cycles) -> Option<Cycles> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Cycles(v)),
            None => None,
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: Cycles) -> Cycles {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two times.
    pub fn max(self, other: Cycles) -> Cycles {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns this duration as a fraction of `whole` (0.0 when `whole` is zero).
    pub fn fraction_of(self, whole: Cycles) -> f64 {
        if whole.0 == 0 {
            0.0
        } else {
            self.0 as f64 / whole.0 as f64
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A duration in nanoseconds, independent of CPU frequency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from nanoseconds.
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A CPU clock frequency, used to convert between [`Nanos`] and [`Cycles`].
///
/// The reproduction uses a 100 MHz clock by default (1 cycle = 10 ns), a
/// round-number stand-in for the paper's DECstation 3000/300.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be nonzero");
        Freq { hz }
    }

    /// Creates a frequency from megahertz.
    pub const fn mhz(mhz: u64) -> Self {
        Freq::hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.hz
    }

    /// Converts a nanosecond duration to cycles (rounding to nearest).
    pub fn cycles_from_nanos(self, ns: Nanos) -> Cycles {
        let n = ns.raw();
        // 64-bit fast path (identical integer result): wire and arrival
        // timings convert per packet, and 128-bit division is an order of
        // magnitude slower. Covers durations up to minutes at GHz rates.
        if n < (u64::MAX - 500_000_000) / self.hz.max(1) {
            return Cycles::new((n * self.hz + 500_000_000) / 1_000_000_000);
        }
        // Split to avoid overflow for long durations at high frequencies:
        // ns * hz can exceed u64 when ns is minutes at GHz rates.
        let ns = n as u128;
        let hz = self.hz as u128;
        Cycles::new(((ns * hz + 500_000_000) / 1_000_000_000) as u64)
    }

    /// Converts a microsecond duration to cycles.
    pub fn cycles_from_micros(self, us: u64) -> Cycles {
        self.cycles_from_nanos(Nanos::from_micros(us))
    }

    /// Converts a millisecond duration to cycles.
    pub fn cycles_from_millis(self, ms: u64) -> Cycles {
        self.cycles_from_nanos(Nanos::from_millis(ms))
    }

    /// Converts whole seconds to cycles.
    pub fn cycles_from_secs(self, s: u64) -> Cycles {
        self.cycles_from_nanos(Nanos::from_secs(s))
    }

    /// The exact nanoseconds-per-cycle multiplier, when the clock period
    /// is a whole number of nanoseconds (i.e. the frequency divides 1 GHz
    /// — true of every paper-testbed frequency). For such clocks
    /// `nanos_from_cycles(c)` equals `c * k` exactly whenever the product
    /// fits in 64 bits, letting per-packet hot paths hoist one divide
    /// into a multiply. Returns `None` for clocks with fractional-ns
    /// periods, which must take the dividing path.
    pub fn exact_nanos_per_cycle(self) -> Option<u64> {
        let k = 1_000_000_000 / self.hz;
        // (c*k*hz + hz/2) / hz == c*k + (hz/2)/hz == c*k: the rounding
        // term can never carry, so the multiplier is exact for every c.
        (k * self.hz == 1_000_000_000).then_some(k)
    }

    /// Converts a cycle count back to nanoseconds (rounding to nearest).
    pub fn nanos_from_cycles(self, cy: Cycles) -> Nanos {
        let c = cy.raw();
        // 64-bit fast path (identical integer result): per-packet latency
        // conversions happen once per delivery and 128-bit division is an
        // order of magnitude slower than 64-bit. Covers every cycle count
        // below ~18.4e9, i.e. many seconds of simulated time.
        if c < (u64::MAX - self.hz / 2) / 1_000_000_000 {
            return Nanos::new((c * 1_000_000_000 + self.hz / 2) / self.hz);
        }
        let cy = c as u128;
        let hz = self.hz as u128;
        Nanos::new(((cy * 1_000_000_000 + hz / 2) / hz) as u64)
    }

    /// Converts a cycle count to fractional seconds.
    pub fn secs_from_cycles(self, cy: Cycles) -> f64 {
        cy.raw() as f64 / self.hz as f64
    }

    /// Returns the cycle count corresponding to one period of `rate_hz`
    /// events per second, i.e. the mean inter-arrival time.
    ///
    /// Returns [`Cycles::MAX`] for a zero rate ("never").
    pub fn interval_for_rate(self, rate_hz: f64) -> Cycles {
        if rate_hz <= 0.0 {
            return Cycles::MAX;
        }
        let cy = self.hz as f64 / rate_hz;
        Cycles::new(cy.round() as u64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz % 1_000_000 == 0 {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(30);
        assert_eq!(a + b, Cycles::new(130));
        assert_eq!(a - b, Cycles::new(70));
        assert_eq!(b - a, Cycles::ZERO, "subtraction saturates");
        assert_eq!(a * 3, Cycles::new(300));
        assert_eq!(a / 4, Cycles::new(25));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn cycles_fraction() {
        assert_eq!(Cycles::new(25).fraction_of(Cycles::new(100)), 0.25);
        assert_eq!(Cycles::new(25).fraction_of(Cycles::ZERO), 0.0);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [1, 2, 3].iter().map(|&x| Cycles::new(x)).sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn exact_nanos_per_cycle_matches_dividing_path() {
        // Whole-ns periods expose the multiplier; it must agree with the
        // dividing conversion everywhere it applies.
        for (freq, k) in [
            (Freq::mhz(100), 10),
            (Freq::mhz(500), 2),
            (Freq::mhz(1000), 1),
            (Freq::hz(1_000_000_000), 1),
        ] {
            assert_eq!(freq.exact_nanos_per_cycle(), Some(k));
            for c in [0u64, 1, 7, 1 << 20, u64::MAX / k] {
                assert_eq!(
                    Nanos::new(c * k),
                    freq.nanos_from_cycles(Cycles::new(c)),
                    "hz={} c={c}",
                    freq.as_hz()
                );
            }
        }
        // Fractional-ns periods (e.g. 3 GHz: 1/3 ns) have no exact
        // multiplier.
        assert_eq!(Freq::mhz(3000).exact_nanos_per_cycle(), None);
        assert_eq!(Freq::hz(7).exact_nanos_per_cycle(), None);
    }

    #[test]
    fn freq_conversions_round_trip() {
        let f = Freq::mhz(100);
        assert_eq!(f.cycles_from_micros(1), Cycles::new(100));
        assert_eq!(f.cycles_from_millis(1), Cycles::new(100_000));
        assert_eq!(f.nanos_from_cycles(Cycles::new(100)), Nanos::from_micros(1));
        assert_eq!(f.cycles_from_nanos(Nanos::new(10)), Cycles::new(1));
        assert_eq!(
            f.cycles_from_nanos(Nanos::new(15)),
            Cycles::new(2),
            "rounds"
        );
    }

    #[test]
    fn freq_no_overflow_on_long_durations() {
        let f = Freq::hz(3_000_000_000);
        // One hour at 3 GHz exceeds u64 if multiplied naively in ns*hz.
        let one_hour = Nanos::from_secs(3600);
        assert_eq!(
            f.cycles_from_nanos(one_hour),
            Cycles::new(3_000_000_000 * 3600)
        );
    }

    #[test]
    fn interval_for_rate() {
        let f = Freq::mhz(100);
        // 10_000 packets/s at 100 MHz = 10_000 cycles apart.
        assert_eq!(f.interval_for_rate(10_000.0), Cycles::new(10_000));
        assert_eq!(f.interval_for_rate(0.0), Cycles::MAX);
        assert_eq!(f.interval_for_rate(-5.0), Cycles::MAX);
    }

    #[test]
    fn ethernet_min_frame_rate_constant() {
        // Sanity-check the paper's 14,880 pkts/s figure: a minimum Ethernet
        // frame occupies 67.2 us of a 10 Mbit/s wire (preamble 8 + frame 64 +
        // inter-frame gap 12 bytes).
        let f = Freq::mhz(100);
        let frame_ns = (8 + 64 + 12) * 8 * 100; // bits * 100 ns/bit at 10 Mb/s
        assert_eq!(frame_ns, 67_200);
        let per_frame = f.cycles_from_nanos(Nanos::new(frame_ns));
        let rate = f.as_hz() as f64 / per_frame.raw() as f64;
        assert!((rate - 14_880.0).abs() < 100.0, "rate = {rate}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Cycles::new(42)), "42cy");
        assert_eq!(format!("{}", Nanos::new(500)), "500ns");
        assert_eq!(format!("{}", Nanos::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", Nanos::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Freq::mhz(100)), "100MHz");
    }
}
