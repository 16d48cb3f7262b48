//! Ethernet II framing: MAC addresses, EtherTypes, header encode/decode.

use core::fmt;
use core::str::FromStr;

use crate::NetError;

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address (unset).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// A convenient locally administered address: `02:00:00:00:00:<n>`
    /// with the host index spread over the low bytes.
    pub const fn local(n: u32) -> Self {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns the raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, NetError> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts.next().ok_or(NetError::Malformed)?;
            *octet = u8::from_str_radix(part, 16).map_err(|_| NetError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(NetError::Malformed);
        }
        Ok(MacAddr(octets))
    }
}

/// The EtherType field of an Ethernet II frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// Any other value.
    Other(u16),
}

impl EtherType {
    /// Returns the numeric EtherType.
    pub const fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Classifies a numeric EtherType.
    pub const fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A decoded Ethernet II header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
}

/// Length in bytes of an encoded Ethernet II header.
pub const ETHERNET_HEADER_LEN: usize = 14;

impl EthernetHeader {
    /// Parses the header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is shorter than 14 bytes.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]])),
        })
    }

    /// Encodes the header into the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is shorter than 14 bytes.
    pub fn encode(&self, buf: &mut [u8]) -> Result<(), NetError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(NetError::Truncated);
        }
        buf[0..6].copy_from_slice(&self.dst.octets());
        buf[6..12].copy_from_slice(&self.src.octets());
        buf[12..14].copy_from_slice(&self.ethertype.as_u16().to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[test]
    fn mac_display_and_parse() {
        let m = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
        assert_eq!("de:ad:be:ef:00:01".parse::<MacAddr>().unwrap(), m);
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:01:02".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<MacAddr>().is_err());
    }

    #[test]
    fn local_addresses_are_distinct() {
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_ne!(MacAddr::local(1), MacAddr::local(0x0100_0001));
    }

    #[test]
    fn ethertype_round_trip() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Ipv4.as_u16(), 0x0800);
    }

    #[test]
    fn header_encode_parse_round_trip() {
        let h = EthernetHeader {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn truncated_errors() {
        let h = EthernetHeader {
            dst: MacAddr::ZERO,
            src: MacAddr::ZERO,
            ethertype: EtherType::Arp,
        };
        let mut small = [0u8; 13];
        assert_eq!(h.encode(&mut small), Err(NetError::Truncated));
        assert_eq!(EthernetHeader::parse(&small), Err(NetError::Truncated));
    }

    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn round_trip_any_header(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>()) {
            let h = EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: EtherType::from_u16(et),
            };
            let mut buf = [0u8; 20];
            h.encode(&mut buf).unwrap();
            prop_assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
        }
    }
}
