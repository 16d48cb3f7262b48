//! UDP header encode/decode with pseudo-header checksum support.
//!
//! The paper's load generator sends 4-byte UDP datagrams; the simulation
//! builds those byte-for-byte, including a correct UDP checksum over the
//! IPv4 pseudo-header.

use std::net::Ipv4Addr;

use crate::checksum::{fold, sum_words};
use crate::ipv4::proto;
use crate::NetError;

/// Length in bytes of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus payload in bytes.
    pub length: u16,
    /// Checksum as stored on the wire (0 means "not computed").
    pub checksum: u16,
}

impl UdpHeader {
    /// Builds a header for a datagram with `payload_len` bytes of payload.
    /// The checksum is left at zero; use [`fill_checksum`] after encoding.
    pub fn new(src_port: u16, dst_port: u16, payload_len: u16) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: UDP_HEADER_LEN as u16 + payload_len,
            checksum: 0,
        }
    }

    /// Parses a header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] for a short buffer and
    /// [`NetError::Malformed`] if the length field is smaller than a header.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if (length as usize) < UDP_HEADER_LEN {
            return Err(NetError::Malformed);
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length,
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Encodes the header into the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is shorter than 8 bytes.
    pub fn encode(&self, buf: &mut [u8]) -> Result<(), NetError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.length.to_be_bytes());
        buf[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        Ok(())
    }

    /// Returns the payload length in bytes.
    pub fn payload_len(&self) -> u16 {
        self.length.saturating_sub(UDP_HEADER_LEN as u16)
    }
}

/// Computes the UDP checksum over the IPv4 pseudo-header and `segment`
/// (UDP header + payload as encoded, with the checksum field zeroed or not —
/// the field's current contents are excluded by the caller zeroing it).
pub fn pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let mut sum = 0u32;
    sum += sum_words(&src.octets());
    sum += sum_words(&dst.octets());
    sum += u32::from(proto::UDP);
    sum += segment.len() as u32;
    sum += sum_words(segment);
    let c = !fold(sum);
    // An all-zero checksum is transmitted as 0xffff (RFC 768).
    if c == 0 {
        0xffff
    } else {
        c
    }
}

/// Fills the checksum field of an encoded UDP segment in place.
///
/// `segment` must start with the UDP header.
///
/// # Errors
///
/// Returns [`NetError::Truncated`] when `segment` is shorter than a header.
pub fn fill_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &mut [u8]) -> Result<(), NetError> {
    if segment.len() < UDP_HEADER_LEN {
        return Err(NetError::Truncated);
    }
    segment[6] = 0;
    segment[7] = 0;
    let c = pseudo_checksum(src, dst, segment);
    segment[6..8].copy_from_slice(&c.to_be_bytes());
    Ok(())
}

/// Verifies the checksum of an encoded UDP segment (0 means unchecked; it is
/// accepted, as RFC 768 allows).
pub fn verify_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> bool {
    if segment.len() < UDP_HEADER_LEN {
        return false;
    }
    let stored = u16::from_be_bytes([segment[6], segment[7]]);
    if stored == 0 {
        return true;
    }
    let mut sum = 0u32;
    sum += sum_words(&src.octets());
    sum += sum_words(&dst.octets());
    sum += u32::from(proto::UDP);
    sum += segment.len() as u32;
    sum += sum_words(segment);
    fold(sum) == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    #[test]
    fn header_round_trip() {
        let h = UdpHeader::new(1234, 9, 4);
        assert_eq!(h.length, 12);
        assert_eq!(h.payload_len(), 4);
        let mut buf = [0u8; UDP_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(UdpHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(UdpHeader::parse(&[0u8; 7]), Err(NetError::Truncated));
        let mut buf = [0u8; UDP_HEADER_LEN];
        UdpHeader::new(1, 2, 0).encode(&mut buf).unwrap();
        buf[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert_eq!(UdpHeader::parse(&buf), Err(NetError::Malformed));
    }

    #[test]
    fn checksum_fill_then_verify() {
        let mut seg = vec![0u8; UDP_HEADER_LEN + 4];
        UdpHeader::new(5000, 9, 4).encode(&mut seg).unwrap();
        seg[8..].copy_from_slice(b"ping");
        fill_checksum(SRC, DST, &mut seg).unwrap();
        assert!(verify_checksum(SRC, DST, &seg));
        // Corruption is detected.
        seg[9] ^= 1;
        assert!(!verify_checksum(SRC, DST, &seg));
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let mut seg = vec![0u8; UDP_HEADER_LEN + 2];
        UdpHeader::new(1, 2, 2).encode(&mut seg).unwrap();
        assert!(verify_checksum(SRC, DST, &seg));
    }

    #[test]
    fn wrong_pseudo_header_fails() {
        let mut seg = vec![0u8; UDP_HEADER_LEN + 4];
        UdpHeader::new(5000, 9, 4).encode(&mut seg).unwrap();
        fill_checksum(SRC, DST, &mut seg).unwrap();
        assert!(!verify_checksum(SRC, Ipv4Addr::new(10, 1, 0, 3), &seg));
    }

    #[test]
    fn short_segment_fails_verify() {
        assert!(!verify_checksum(SRC, DST, &[0u8; 4]));
        assert_eq!(
            fill_checksum(SRC, DST, &mut [0u8; 4]),
            Err(NetError::Truncated)
        );
    }

    proptest! {
        #[test]
        fn any_payload_verifies_after_fill(
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            sp in any::<u16>(), dp in any::<u16>(),
            src in any::<u32>(), dst in any::<u32>(),
        ) {
            let src = Ipv4Addr::from(src);
            let dst = Ipv4Addr::from(dst);
            let mut seg = vec![0u8; UDP_HEADER_LEN + payload.len()];
            UdpHeader::new(sp, dp, payload.len() as u16).encode(&mut seg).unwrap();
            seg[UDP_HEADER_LEN..].copy_from_slice(&payload);
            fill_checksum(src, dst, &mut seg).unwrap();
            prop_assert!(verify_checksum(src, dst, &seg));
        }
    }
}
