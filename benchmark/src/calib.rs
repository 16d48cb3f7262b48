//! The calibration loop and the clock that normalises host time with it.
//!
//! **Frozen.** Every host-time metric this benchmark reports is a ratio
//! to this loop, so changing anything below — sizes, op count, the
//! generator, the mix of work — moves every number on every commit at
//! once and breaks the trajectory. It uses the standard library only, on
//! purpose: nothing a later PR does to the workspace crates can change
//! how long it takes.
//!
//! The loop is a priority-queue *hold* (pop the minimum, push a
//! successor a random distance ahead) over a binary heap of 20 000
//! entries, 50 000 times. Each op also reads and writes 60 bytes — one
//! minimum Ethernet frame — at a key-derived offset: even ops inside the
//! first 256 KiB of an 8 MiB buffer, odd ops anywhere in it. That is the
//! simulator's own diet in miniature: branchy pointer-free heap traffic,
//! small copies that hit L2, and small copies that miss it (a 100 000
//! packet trial walks 40 MB).
//!
//! Sizing, on the 2-core box the benchmark was written on, whose speed
//! wanders by 20–30 % on every timescale from milliseconds to minutes:
//!
//! * It is short (≈ 8 ms) and runs between every two units of work,
//!   because a calibration run tells the most about the work right next
//!   to it (the autocorrelation of its own run time is 0.6 at 70 ms and
//!   0.3 at 330 ms). Bracketing six 40 ms trials with one run at each
//!   end left 10.6 % noise on the six-trial total; a run between every
//!   two trials left 5.3 % (raw wall-clock: 13 %).
//! * Half the touches leave L2 because the box also has spells in which
//!   memory-heavy code slows more than cache-resident code. Over sixteen
//!   10 s blocks, trial time ÷ an L2-only loop varied by 3.3 % (overload)
//!   and 2.6 % (smp4); ÷ this loop by 2.0 % and 1.8 %; raw by 6–7 %.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What the calibration loop takes on the reference machine. A
/// normalised time is `wall ÷ calibration × REF_CALIB_S`: the time the
/// work would take on a machine whose calibration loop takes exactly
/// this long (it took 8–10 ms on the box the benchmark was sized on).
pub const REF_CALIB_S: f64 = 0.008;

const HEAP_ENTRIES: usize = 20_000;
const HOLD_OPS: u64 = 50_000;
const BUF_BYTES: usize = 8 * 1024 * 1024;
const NEAR_BYTES: usize = 256 * 1024;
const TOUCH_BYTES: usize = 60;
const MEAN_INCREMENT: u64 = 10_000;

/// xorshift64*: the loop's private generator.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Runs the calibration loop once over `buf` (of [`BUF_BYTES`]) and
/// returns its wall-clock seconds.
fn calibrate(buf: &mut [u8]) -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap = BinaryHeap::with_capacity(HEAP_ENTRIES + 1);
    let horizon = 2 * MEAN_INCREMENT * HEAP_ENTRIES as u64;
    for i in 0..HEAP_ENTRIES as u64 {
        heap.push(Reverse((next(&mut rng) % horizon, i)));
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..HOLD_OPS {
        let Reverse((now, id)) = heap.pop().expect("population is held constant");
        let span = if i % 2 == 0 { NEAR_BYTES } else { BUF_BYTES };
        let off = (now.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) as usize % (span - TOUCH_BYTES);
        for b in &mut buf[off..off + TOUCH_BYTES] {
            acc = acc.wrapping_add(u64::from(*b));
            *b = b.wrapping_add(id as u8);
        }
        heap.push(Reverse((now + next(&mut rng) % horizon, i)));
    }
    black_box((acc, &heap));
    start.elapsed().as_secs_f64()
}

/// Brackets measured work with calibration runs.
///
/// Each [`Clock::measure`] ends by calibrating and starts from the
/// previous measurement's closing calibration, so back-to-back
/// measurements share brackets and the loop runs once per measurement,
/// not twice.
pub struct Clock {
    /// The loop's buffer, allocated and faulted in once.
    buf: Vec<u8>,
    last: f64,
    seen: Vec<f64>,
}

impl Clock {
    /// Calibrates once so the first measurement has an opening bracket.
    pub fn new() -> Self {
        let mut buf = vec![1u8; BUF_BYTES];
        let last = calibrate(&mut buf);
        Clock {
            buf,
            last,
            seen: vec![last],
        }
    }

    /// Runs `work`, closes the bracket, and returns the work's result
    /// with the factor that turns raw seconds measured inside `work`
    /// into normalised (reference-machine) seconds.
    pub fn measure<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let before = self.last;
        let out = work();
        let after = calibrate(&mut self.buf);
        self.last = after;
        self.seen.push(after);
        (out, scale(before, after))
    }

    /// Like [`Clock::measure`] for work timed as one piece: returns the
    /// result and the work's normalised seconds.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let ((out, raw_s), scale) = self.measure(|| raw_seconds(work));
        (out, raw_s * scale)
    }

    /// Every calibration time seen so far, in seconds.
    pub fn calibrations(&self) -> &[f64] {
        &self.seen
    }
}

/// Runs `work` and returns its result with its raw wall-clock seconds.
pub fn raw_seconds<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

/// Raw-to-normalised factor for work bracketed by two calibration runs.
pub fn scale(calib_before: f64, calib_after: f64) -> f64 {
    REF_CALIB_S / (0.5 * (calib_before + calib_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_as_long_as_its_brackets_normalises_to_the_reference() {
        let raw = 0.010;
        assert!((raw * scale(0.010, 0.010) - REF_CALIB_S).abs() < 1e-15);
    }

    #[test]
    fn a_machine_twice_as_slow_reports_the_same_normalised_time() {
        let fast = 1.0 * scale(REF_CALIB_S, REF_CALIB_S);
        let slow = 2.0 * scale(2.0 * REF_CALIB_S, 2.0 * REF_CALIB_S);
        assert!((fast - slow).abs() < 1e-12);
        assert!((fast - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drift_inside_a_bracket_uses_the_mean_of_both_ends() {
        assert!((scale(0.006, 0.010) - 1.0).abs() < 1e-12);
    }
}
