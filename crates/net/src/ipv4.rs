//! IPv4 header encode/decode, validation, and forwarding mutations.
//!
//! The router's per-packet work — the work that livelock wastes — is real
//! here: parse, verify the header checksum, decrement the TTL, and patch the
//! checksum incrementally (RFC 1624) the way production forwarding paths do.

use std::net::Ipv4Addr;

use crate::checksum::{checksum, incremental_update, verify};
use crate::NetError;

/// Length in bytes of an option-less IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the simulation.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// A decoded IPv4 header (options are not supported; IHL must be 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub tos: u8,
    /// Total datagram length (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed as on the wire.
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Header checksum as stored on the wire.
    pub header_checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Builds a header for a fresh datagram; the checksum is computed.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ttl: u8, payload_len: u16) -> Self {
        let mut h = Ipv4Header {
            tos: 0,
            total_len: IPV4_HEADER_LEN as u16 + payload_len,
            ident: 0,
            flags_frag: 0,
            ttl,
            protocol,
            header_checksum: 0,
            src,
            dst,
        };
        h.header_checksum = h.compute_checksum();
        h
    }

    /// Parses and validates a header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// - [`NetError::Truncated`] if fewer than 20 bytes are available.
    /// - [`NetError::Malformed`] for a non-4 version, IHL ≠ 5, or a total
    ///   length shorter than the header.
    /// - [`NetError::BadChecksum`] if the header checksum fails.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        let vihl = buf[0];
        if vihl >> 4 != 4 || vihl & 0x0f != 5 {
            return Err(NetError::Malformed);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN {
            return Err(NetError::Malformed);
        }
        if !verify(&buf[..IPV4_HEADER_LEN]) {
            return Err(NetError::BadChecksum);
        }
        Ok(Ipv4Header {
            tos: buf[1],
            total_len,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            flags_frag: u16::from_be_bytes([buf[6], buf[7]]),
            ttl: buf[8],
            protocol: buf[9],
            header_checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// Encodes the header (with its stored checksum) into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is shorter than 20 bytes.
    pub fn encode(&self, buf: &mut [u8]) -> Result<(), NetError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        buf[..IPV4_HEADER_LEN].copy_from_slice(&self.encoded());
        Ok(())
    }

    /// Encodes the header into a fixed-size array. Infallible by
    /// construction — the checksum helpers below use this so they need
    /// no error path at all.
    fn encoded(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        buf[0] = 0x45;
        buf[1] = self.tos;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10..12].copy_from_slice(&self.header_checksum.to_be_bytes());
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        buf
    }

    /// Computes the header checksum over the encoded form, with the checksum
    /// field treated as zero.
    pub fn compute_checksum(&self) -> u16 {
        let mut copy = *self;
        copy.header_checksum = 0;
        checksum(&copy.encoded())
    }

    /// Returns `true` if the stored checksum matches the header contents.
    pub fn checksum_ok(&self) -> bool {
        verify(&self.encoded())
    }

    /// Returns the payload length in bytes.
    pub fn payload_len(&self) -> u16 {
        self.total_len.saturating_sub(IPV4_HEADER_LEN as u16)
    }
}

/// Decrements the TTL of an encoded IPv4 header in place, patching the
/// checksum incrementally (RFC 1624).
///
/// This is the core per-packet forwarding mutation; it operates directly on
/// wire bytes so the simulated router does exactly what a kernel would.
///
/// # Errors
///
/// - [`NetError::Truncated`] if `buf` is shorter than a header.
/// - [`NetError::TtlExpired`] if the TTL is already ≤ 1 (the packet must not
///   be forwarded; a real router would send ICMP Time Exceeded).
pub fn decrement_ttl(buf: &mut [u8]) -> Result<(), NetError> {
    if buf.len() < IPV4_HEADER_LEN {
        return Err(NetError::Truncated);
    }
    let ttl = buf[8];
    if ttl <= 1 {
        return Err(NetError::TtlExpired);
    }
    // The TTL shares a 16-bit word with the protocol byte (offset 8..10).
    let old_word = u16::from_be_bytes([buf[8], buf[9]]);
    buf[8] = ttl - 1;
    let new_word = u16::from_be_bytes([buf[8], buf[9]]);
    let old_ck = u16::from_be_bytes([buf[10], buf[11]]);
    let new_ck = incremental_update(old_ck, old_word, new_word);
    buf[10..12].copy_from_slice(&new_ck.to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 99),
            proto::UDP,
            32,
            12,
        )
    }

    #[test]
    fn new_header_has_valid_checksum() {
        assert!(sample().checksum_ok());
    }

    #[test]
    fn encode_parse_round_trip() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.payload_len(), 12);
    }

    #[test]
    fn parse_rejects_bad_version_and_ihl() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().encode(&mut buf).unwrap();
        let mut v6 = buf;
        v6[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&v6), Err(NetError::Malformed));
        let mut ihl6 = buf;
        ihl6[0] = 0x46;
        assert_eq!(Ipv4Header::parse(&ihl6), Err(NetError::Malformed));
    }

    #[test]
    fn parse_rejects_corrupt_checksum() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().encode(&mut buf).unwrap();
        buf[15] ^= 0x40;
        assert_eq!(Ipv4Header::parse(&buf), Err(NetError::BadChecksum));
    }

    #[test]
    fn parse_rejects_short_total_len() {
        let mut h = sample();
        h.total_len = 10;
        h.header_checksum = h.compute_checksum();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(Ipv4Header::parse(&buf), Err(NetError::Malformed));
    }

    #[test]
    fn parse_rejects_truncation() {
        assert_eq!(Ipv4Header::parse(&[0u8; 19]), Err(NetError::Truncated));
    }

    #[test]
    fn ttl_decrement_preserves_checksum_validity() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().encode(&mut buf).unwrap();
        decrement_ttl(&mut buf).unwrap();
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.ttl, 31);
    }

    #[test]
    fn ttl_expiry() {
        let mut h = sample();
        h.ttl = 1;
        h.header_checksum = h.compute_checksum();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(decrement_ttl(&mut buf), Err(NetError::TtlExpired));
        h.ttl = 0;
        h.header_checksum = h.compute_checksum();
        h.encode(&mut buf).unwrap();
        assert_eq!(decrement_ttl(&mut buf), Err(NetError::TtlExpired));
    }

    proptest! {
        #[test]
        fn round_trip_any(
            src in any::<u32>(), dst in any::<u32>(),
            tos in any::<u8>(), ident in any::<u16>(),
            ttl in 2u8..=255, payload in 0u16..1400,
            protocol in any::<u8>(),
        ) {
            let mut h = Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), protocol, ttl, payload);
            h.tos = tos;
            h.ident = ident;
            h.header_checksum = h.compute_checksum();
            let mut buf = [0u8; IPV4_HEADER_LEN];
            h.encode(&mut buf).unwrap();
            prop_assert_eq!(Ipv4Header::parse(&buf).unwrap(), h);
        }

        #[test]
        fn incremental_ttl_equals_full_recompute(
            src in any::<u32>(), dst in any::<u32>(), ttl in 2u8..=255,
        ) {
            let h = Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), proto::UDP, ttl, 4);
            let mut buf = [0u8; IPV4_HEADER_LEN];
            h.encode(&mut buf).unwrap();
            decrement_ttl(&mut buf).unwrap();

            let parsed = Ipv4Header::parse(&buf).unwrap();
            prop_assert_eq!(parsed.ttl, ttl - 1);
            prop_assert!(parsed.checksum_ok());
        }
    }
}
