//! ICMP messages the router substrate needs: echo, time exceeded,
//! destination unreachable.
//!
//! The paper's router silently drops TTL-expired and unroutable packets
//! during overload experiments, but a credible router substrate must be able
//! to originate the corresponding ICMP errors; the kernel crate uses these
//! when ICMP generation is enabled.

use crate::checksum::{checksum, verify};
use crate::NetError;

/// Minimum length of an ICMP message (header only).
pub const ICMP_HEADER_LEN: usize = 8;

/// ICMP message kinds supported by the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpKind {
    /// Echo reply (type 0).
    EchoReply {
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// Destination unreachable (type 3) with the given code.
    DestUnreachable {
        /// Unreachable code (0 = net, 1 = host, 3 = port, ...).
        code: u8,
    },
    /// Echo request (type 8).
    EchoRequest {
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
    },
    /// Time exceeded (type 11, code 0 = TTL expired in transit).
    TimeExceeded,
}

impl IcmpKind {
    /// Returns the on-wire (type, code) pair.
    pub fn type_code(self) -> (u8, u8) {
        match self {
            IcmpKind::EchoReply { .. } => (0, 0),
            IcmpKind::DestUnreachable { code } => (3, code),
            IcmpKind::EchoRequest { .. } => (8, 0),
            IcmpKind::TimeExceeded => (11, 0),
        }
    }
}

/// A decoded ICMP message: kind plus the trailing payload bytes
/// (for errors: the offending IP header + 8 bytes, per RFC 792).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IcmpMessage {
    /// What kind of message this is.
    pub kind: IcmpKind,
    /// Payload following the 8-byte ICMP header.
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// Builds a time-exceeded error quoting the offending datagram.
    ///
    /// `original` should be the offending IP header plus at least the first
    /// 8 payload bytes; it is truncated to the RFC-recommended quote length.
    pub fn time_exceeded(original: &[u8]) -> Self {
        IcmpMessage {
            kind: IcmpKind::TimeExceeded,
            payload: original[..original.len().min(28)].to_vec(),
        }
    }

    /// Builds a destination-unreachable error quoting the offending datagram.
    pub fn dest_unreachable(code: u8, original: &[u8]) -> Self {
        IcmpMessage {
            kind: IcmpKind::DestUnreachable { code },
            payload: original[..original.len().min(28)].to_vec(),
        }
    }

    /// Returns the encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        ICMP_HEADER_LEN + self.payload.len()
    }

    /// Encodes the message (with checksum) into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is too small.
    pub fn encode(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        let len = self.encoded_len();
        if buf.len() < len {
            return Err(NetError::Truncated);
        }
        let (ty, code) = self.kind.type_code();
        buf[0] = ty;
        buf[1] = code;
        buf[2] = 0;
        buf[3] = 0;
        let rest = match self.kind {
            IcmpKind::EchoRequest { ident, seq } | IcmpKind::EchoReply { ident, seq } => {
                buf[4..6].copy_from_slice(&ident.to_be_bytes());
                buf[6..8].copy_from_slice(&seq.to_be_bytes());
                ICMP_HEADER_LEN
            }
            IcmpKind::DestUnreachable { .. } | IcmpKind::TimeExceeded => {
                buf[4..8].fill(0);
                ICMP_HEADER_LEN
            }
        };
        buf[rest..len].copy_from_slice(&self.payload);
        let c = checksum(&buf[..len]);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        Ok(len)
    }

    /// Parses and checksum-verifies a message.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] for short buffers, [`NetError::BadChecksum`]
    /// on checksum failure, [`NetError::Malformed`] for unknown types.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < ICMP_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        if !verify(buf) {
            return Err(NetError::BadChecksum);
        }
        let ident = u16::from_be_bytes([buf[4], buf[5]]);
        let seq = u16::from_be_bytes([buf[6], buf[7]]);
        let kind = match (buf[0], buf[1]) {
            (0, 0) => IcmpKind::EchoReply { ident, seq },
            (3, code) => IcmpKind::DestUnreachable { code },
            (8, 0) => IcmpKind::EchoRequest { ident, seq },
            (11, 0) => IcmpKind::TimeExceeded,
            _ => return Err(NetError::Malformed),
        };
        Ok(IcmpMessage {
            kind,
            payload: buf[ICMP_HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    fn echo_request(ident: u16, seq: u16, payload: &[u8]) -> IcmpMessage {
        IcmpMessage {
            kind: IcmpKind::EchoRequest { ident, seq },
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn echo_round_trip() {
        let m = echo_request(0x1234, 7, b"hello");
        let mut buf = vec![0u8; m.encoded_len()];
        let n = m.encode(&mut buf).unwrap();
        assert_eq!(n, 13);
        assert_eq!(IcmpMessage::parse(&buf).unwrap(), m);
    }

    #[test]
    fn time_exceeded_quotes_original() {
        let original = vec![0xaa; 64];
        let m = IcmpMessage::time_exceeded(&original);
        assert_eq!(m.payload.len(), 28, "IP header + 8 bytes");
        let mut buf = vec![0u8; m.encoded_len()];
        m.encode(&mut buf).unwrap();
        assert_eq!(IcmpMessage::parse(&buf).unwrap(), m);
    }

    #[test]
    fn dest_unreachable_codes() {
        let m = IcmpMessage::dest_unreachable(3, &[1, 2, 3]);
        assert_eq!(m.kind.type_code(), (3, 3));
        let mut buf = vec![0u8; m.encoded_len()];
        m.encode(&mut buf).unwrap();
        assert_eq!(IcmpMessage::parse(&buf).unwrap().kind, m.kind);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let m = echo_request(1, 1, b"x");
        let mut buf = vec![0u8; m.encoded_len()];
        m.encode(&mut buf).unwrap();
        buf[8] ^= 0xff;
        assert_eq!(IcmpMessage::parse(&buf), Err(NetError::BadChecksum));
    }

    #[test]
    fn truncated_and_unknown() {
        assert_eq!(IcmpMessage::parse(&[0u8; 4]), Err(NetError::Truncated));
        let m = echo_request(1, 1, b"");
        let mut buf = vec![0u8; m.encoded_len()];
        m.encode(&mut buf).unwrap();
        buf[0] = 42; // Unknown type; fix checksum so we hit the type check.
        buf[2] = 0;
        buf[3] = 0;
        let c = checksum(&buf);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(IcmpMessage::parse(&buf), Err(NetError::Malformed));
    }

    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn round_trip_any_echo(ident in any::<u16>(), seq in any::<u16>(),
                               payload in proptest::collection::vec(any::<u8>(), 0..128)) {
            let m = echo_request(ident, seq, &payload);
            let mut buf = vec![0u8; m.encoded_len()];
            m.encode(&mut buf).unwrap();
            prop_assert_eq!(IcmpMessage::parse(&buf).unwrap(), m);
        }
    }
}
