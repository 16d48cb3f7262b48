//! The wire model: Ethernet serialization timing and arrival pacing.
//!
//! A 10 Mbit/s Ethernet serializes one frame at a time; a minimum frame
//! occupies the wire for 67.2 µs, capping the packet rate at the paper's
//! "about 14,880 packets/second". The wire itself consumes no CPU — it is
//! the NIC's DMA engine's problem — so this model only computes occupancy
//! times and paces arrival schedules to physical feasibility.

use livelock_net::packet::MIN_FRAME_LEN;
use livelock_net::phy::LinkSpeed;
use livelock_sim::{Cycles, Freq};

/// One half-duplex wire segment.
#[derive(Clone, Copy, Debug)]
pub struct Wire {
    speed: LinkSpeed,
    freq: Freq,
    /// Serialization time of every frame that pads to the minimum.
    min_frame_cycles: Cycles,
    busy_until: Cycles,
    frames_carried: u64,
}

impl Wire {
    /// Creates an idle wire of the given speed, timed in CPU cycles at
    /// `freq`.
    pub fn new(speed: LinkSpeed, freq: Freq) -> Self {
        Wire {
            speed,
            freq,
            min_frame_cycles: speed.frame_cycles(MIN_FRAME_LEN, freq),
            busy_until: Cycles::ZERO,
            frames_carried: 0,
        }
    }

    /// The paper's testbed wire: 10 Mbit/s Ethernet.
    pub fn ethernet_10m(freq: Freq) -> Self {
        Wire::new(LinkSpeed::ETHERNET_10M, freq)
    }

    /// Returns the link speed.
    pub fn speed(&self) -> LinkSpeed {
        self.speed
    }

    /// Serialization time of a frame of `len` bytes, in cycles.
    pub fn frame_cycles(&self, len: usize) -> Cycles {
        if len <= MIN_FRAME_LEN {
            self.min_frame_cycles
        } else {
            self.speed.frame_cycles(len, self.freq)
        }
    }

    /// Begins transmitting a frame at time `now`; returns the completion
    /// time. If the wire is still busy (back-to-back transmissions), the
    /// frame starts when the wire frees up.
    pub fn begin_tx(&mut self, now: Cycles, frame_len: usize) -> Cycles {
        let start = now.max(self.busy_until);
        let done = start + self.frame_cycles(frame_len);
        self.busy_until = done;
        self.frames_carried += 1;
        done
    }

    /// Forces the wire busy until at least `until` (carrier loss: a link
    /// flap holds off transmission exactly as an endless frame would).
    /// Never shortens an in-progress transmission.
    pub fn force_carrier_loss(&mut self, until: Cycles) {
        self.busy_until = self.busy_until.max(until);
    }

    /// Paces a sorted arrival schedule to physical feasibility: consecutive
    /// frame *completion* times are spaced at least one frame time apart.
    /// The input times are interpreted (and returned) as arrival-complete
    /// times for frames of `frame_len` bytes.
    ///
    /// The experiment harness runs generated schedules through this, so a
    /// jittered generator can never offer more than wire rate.
    pub fn pace(&self, times: &mut [Cycles], frame_len: usize) {
        let gap = self.frame_cycles(frame_len);
        let mut min_next = Cycles::ZERO;
        for t in times.iter_mut() {
            if *t < min_next {
                *t = min_next;
            }
            min_next = *t + gap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FREQ: Freq = Freq::mhz(100);

    #[test]
    fn min_frame_occupancy() {
        let w = Wire::ethernet_10m(FREQ);
        assert_eq!(w.frame_cycles(60), Cycles::new(6720), "67.2 us at 100 MHz");
    }

    #[test]
    fn frame_cycles_matches_the_link_speed_at_every_length() {
        use livelock_net::packet::MAX_FRAME_LEN;
        for speed in [LinkSpeed::ETHERNET_10M, LinkSpeed::new(100_000_000)] {
            for freq in [FREQ, Freq::mhz(25)] {
                let w = Wire::new(speed, freq);
                for len in 0..=MAX_FRAME_LEN {
                    assert_eq!(w.frame_cycles(len), speed.frame_cycles(len, freq), "{len}");
                }
            }
        }
    }

    #[test]
    fn begin_tx_when_idle() {
        let mut w = Wire::ethernet_10m(FREQ);
        let done = w.begin_tx(Cycles::new(1000), 60);
        assert_eq!(done, Cycles::new(7720));
        assert_eq!(w.busy_until, done);
        assert_eq!(w.frames_carried, 1);
    }

    #[test]
    fn back_to_back_transmissions_queue_on_the_wire() {
        let mut w = Wire::ethernet_10m(FREQ);
        let d1 = w.begin_tx(Cycles::ZERO, 60);
        let d2 = w.begin_tx(Cycles::new(100), 60);
        assert_eq!(d1, Cycles::new(6720));
        assert_eq!(d2, Cycles::new(13_440), "starts when the wire frees");
        assert_eq!(w.busy_until, d2);
    }

    #[test]
    fn max_rate_matches_paper() {
        let mut w = Wire::ethernet_10m(FREQ);
        let mut now = Cycles::ZERO;
        for _ in 0..1000 {
            now = w.begin_tx(now, 60);
        }
        let secs = FREQ.secs_from_cycles(now);
        let rate = 1000.0 / secs;
        assert!((rate - 14_880.0).abs() < 10.0, "rate {rate}");
    }

    #[test]
    fn carrier_loss_defers_transmission() {
        let mut w = Wire::ethernet_10m(FREQ);
        w.force_carrier_loss(Cycles::new(10_000));
        assert_eq!(w.busy_until, Cycles::new(10_000));
        let done = w.begin_tx(Cycles::new(1_000), 60);
        assert_eq!(done, Cycles::new(16_720), "starts when carrier returns");
        // Never shortens: a later, earlier-ending loss is a no-op.
        w.force_carrier_loss(Cycles::new(12_000));
        assert_eq!(w.busy_until, done);
    }

    #[test]
    fn pace_leaves_feasible_schedules_alone() {
        let w = Wire::ethernet_10m(FREQ);
        let mut times = vec![Cycles::new(0), Cycles::new(10_000), Cycles::new(20_000)];
        let orig = times.clone();
        w.pace(&mut times, 60);
        assert_eq!(times, orig);
    }

    #[test]
    fn pace_spreads_bursts() {
        let w = Wire::ethernet_10m(FREQ);
        let mut times = vec![Cycles::new(0); 5];
        w.pace(&mut times, 60);
        for (i, t) in times.iter().enumerate() {
            assert_eq!(*t, Cycles::new(6720 * i as u64));
        }
    }

    proptest! {
        #[test]
        fn paced_schedule_is_feasible_and_no_earlier(
            raw in proptest::collection::vec(0u64..10_000_000, 1..100)
        ) {
            let mut times: Vec<Cycles> = raw.iter().map(|&t| Cycles::new(t)).collect();
            times.sort();
            let before = times.clone();
            let w = Wire::ethernet_10m(FREQ);
            w.pace(&mut times, 60);
            let gap = w.frame_cycles(60);
            for pair in times.windows(2) {
                prop_assert!(pair[1] >= pair[0] + gap);
            }
            for (a, b) in before.iter().zip(&times) {
                prop_assert!(b >= a, "pacing never moves a frame earlier");
            }
        }
    }
}
