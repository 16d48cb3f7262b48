//! Physical-layer timing: Ethernet serialization and maximum packet rates.
//!
//! The paper's router connects two 10 Mbit/s Ethernets and cites a maximum
//! Ethernet packet rate of "about 14,880 packets/second" for minimum-size
//! frames. These constants derive that figure from first principles so the
//! wire model and the experiment harness agree.

use livelock_sim::{Freq, Nanos};

/// Preamble + start-frame-delimiter bytes transmitted before each frame.
pub const PREAMBLE_BYTES: usize = 8;
/// Inter-frame gap, expressed in byte times (96 bit times).
pub const INTERFRAME_GAP_BYTES: usize = 12;
/// Minimum frame length on the wire including the frame check sequence.
pub const MIN_WIRE_FRAME_BYTES: usize = 64;

/// A link speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpeed {
    bits_per_sec: u64,
}

impl LinkSpeed {
    /// Classic 10 Mbit/s Ethernet, as in the paper's testbed.
    pub const ETHERNET_10M: LinkSpeed = LinkSpeed {
        bits_per_sec: 10_000_000,
    };

    /// Creates a custom speed.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub const fn new(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "link speed must be nonzero");
        LinkSpeed { bits_per_sec }
    }

    /// Returns the speed in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Time to serialize a frame of `frame_len` bytes (payload view, without
    /// FCS), including preamble, FCS padding to the wire minimum, and the
    /// inter-frame gap — i.e. the full per-packet wire occupancy.
    pub fn frame_time(self, frame_len: usize) -> Nanos {
        // The frame as handed to the NIC excludes the 4-byte FCS.
        let wire_frame = (frame_len + 4).max(MIN_WIRE_FRAME_BYTES);
        let total_bytes = PREAMBLE_BYTES + wire_frame + INTERFRAME_GAP_BYTES;
        let bits = (total_bytes * 8) as u64;
        Nanos::new(bits * 1_000_000_000 / self.bits_per_sec)
    }

    /// Time to serialize a frame, in CPU cycles at `freq`.
    pub fn frame_cycles(self, frame_len: usize, freq: Freq) -> livelock_sim::Cycles {
        freq.cycles_from_nanos(self.frame_time(frame_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MIN_FRAME_LEN;

    #[test]
    fn min_frame_time_is_67_2_us() {
        // 8 + 64 + 12 = 84 bytes = 672 bits at 10 Mb/s = 67.2 us.
        let t = LinkSpeed::ETHERNET_10M.frame_time(MIN_FRAME_LEN);
        assert_eq!(t, Nanos::new(67_200));
    }

    #[test]
    fn paper_max_rate_14880() {
        let rate = 1e9 / LinkSpeed::ETHERNET_10M.frame_time(MIN_FRAME_LEN).raw() as f64;
        assert!((rate - 14_880.95).abs() < 1.0, "rate = {rate}");
    }

    #[test]
    fn short_frames_pad_to_minimum() {
        let s = LinkSpeed::ETHERNET_10M;
        assert_eq!(s.frame_time(10), s.frame_time(MIN_FRAME_LEN));
        assert_eq!(s.frame_time(60), s.frame_time(20));
    }

    #[test]
    fn longer_frames_take_longer() {
        let s = LinkSpeed::ETHERNET_10M;
        assert!(s.frame_time(1514) > s.frame_time(MIN_FRAME_LEN));
        // 1514 + 4 FCS + 20 overhead = 1538 bytes = 1230.4 us.
        assert_eq!(s.frame_time(1514), Nanos::new(1_230_400));
    }

    #[test]
    fn faster_links_scale() {
        let t10 = LinkSpeed::ETHERNET_10M.frame_time(MIN_FRAME_LEN);
        let t100 = LinkSpeed::new(100_000_000).frame_time(MIN_FRAME_LEN);
        assert_eq!(t10.raw(), t100.raw() * 10);
    }

    #[test]
    fn frame_cycles_at_100mhz() {
        let freq = Freq::mhz(100);
        let cy = LinkSpeed::ETHERNET_10M.frame_cycles(MIN_FRAME_LEN, freq);
        assert_eq!(cy.raw(), 6720);
    }
}
