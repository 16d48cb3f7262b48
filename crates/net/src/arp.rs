//! ARP packets and the router's ARP cache.
//!
//! The paper's measurement setup sent packets to a *nonexistent* destination
//! host, fooling the router with a "phantom" entry inserted into its ARP
//! table. [`ArpCache::insert_phantom`] reproduces that trick; entries also
//! support ordinary dynamic insertion with aging.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use livelock_sim::Cycles;

use crate::ethernet::MacAddr;
use crate::NetError;

/// Length in bytes of an Ethernet/IPv4 ARP packet.
pub const ARP_PACKET_LEN: usize = 28;

/// ARP operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

impl ArpOp {
    fn as_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    fn from_u16(v: u16) -> Result<Self, NetError> {
        match v {
            1 => Ok(ArpOp::Request),
            2 => Ok(ArpOp::Reply),
            _ => Err(NetError::Malformed),
        }
    }
}

/// A decoded Ethernet/IPv4 ARP packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Parses an ARP packet.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] for short buffers; [`NetError::Malformed`]
    /// for non-Ethernet/IPv4 hardware/protocol types or unknown opcodes.
    pub fn parse(buf: &[u8]) -> Result<Self, NetError> {
        if buf.len() < ARP_PACKET_LEN {
            return Err(NetError::Truncated);
        }
        let htype = u16::from_be_bytes([buf[0], buf[1]]);
        let ptype = u16::from_be_bytes([buf[2], buf[3]]);
        if htype != 1 || ptype != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(NetError::Malformed);
        }
        let op = ArpOp::from_u16(u16::from_be_bytes([buf[6], buf[7]]))?;
        let mut sender_mac = [0u8; 6];
        sender_mac.copy_from_slice(&buf[8..14]);
        let mut target_mac = [0u8; 6];
        target_mac.copy_from_slice(&buf[18..24]);
        Ok(ArpPacket {
            op,
            sender_mac: MacAddr(sender_mac),
            sender_ip: Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]),
            target_mac: MacAddr(target_mac),
            target_ip: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
        })
    }

    /// Encodes the packet into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] when `buf` is shorter than 28 bytes.
    pub fn encode(&self, buf: &mut [u8]) -> Result<(), NetError> {
        if buf.len() < ARP_PACKET_LEN {
            return Err(NetError::Truncated);
        }
        buf[0..2].copy_from_slice(&1u16.to_be_bytes());
        buf[2..4].copy_from_slice(&0x0800u16.to_be_bytes());
        buf[4] = 6;
        buf[5] = 4;
        buf[6..8].copy_from_slice(&self.op.as_u16().to_be_bytes());
        buf[8..14].copy_from_slice(&self.sender_mac.octets());
        buf[14..18].copy_from_slice(&self.sender_ip.octets());
        buf[18..24].copy_from_slice(&self.target_mac.octets());
        buf[24..28].copy_from_slice(&self.target_ip.octets());
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    mac: MacAddr,
    expires: Cycles,
    phantom: bool,
}

/// An ARP cache mapping IPv4 next hops to MAC addresses.
///
/// # Examples
///
/// ```
/// use livelock_net::arp::ArpCache;
/// use livelock_net::ethernet::MacAddr;
/// use std::net::Ipv4Addr;
///
/// let mut cache = ArpCache::new();
/// let dst = Ipv4Addr::new(10, 1, 0, 2);
/// // The paper's trick: a phantom entry for a nonexistent destination.
/// cache.insert_phantom(dst, MacAddr::local(99));
/// let now = livelock_sim::Cycles::new(1_000);
/// assert_eq!(cache.lookup(dst, now).map(|(mac, _)| mac), Some(MacAddr::local(99)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ArpCache {
    entries: BTreeMap<Ipv4Addr, Entry>,
}

impl ArpCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ArpCache {
            entries: BTreeMap::new(),
        }
    }

    /// Inserts a dynamic entry that expires at `expires`.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr, expires: Cycles) {
        self.entries.insert(
            ip,
            Entry {
                mac,
                expires,
                phantom: false,
            },
        );
    }

    /// Inserts a permanent "phantom" entry, as the paper's measurement setup
    /// did for its nonexistent destination host.
    pub fn insert_phantom(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.entries.insert(
            ip,
            Entry {
                mac,
                expires: Cycles::MAX,
                phantom: true,
            },
        );
    }

    /// Looks up the MAC for `ip`, honouring expiry at time `now`, and
    /// returns it with the time the entry expires ([`Cycles::MAX`] for a
    /// phantom).
    pub fn lookup(&self, ip: Ipv4Addr, now: Cycles) -> Option<(MacAddr, Cycles)> {
        self.entries
            .get(&ip)
            .filter(|e| e.phantom || e.expires > now)
            .map(|e| (e.mac, e.expires))
    }

    /// Returns the number of live entries (without expiring).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: MacAddr::local(1),
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: MacAddr::ZERO,
            target_ip: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn packet_round_trip() {
        let p = pkt();
        let mut buf = [0u8; ARP_PACKET_LEN];
        p.encode(&mut buf).unwrap();
        assert_eq!(ArpPacket::parse(&buf).unwrap(), p);
    }

    #[test]
    fn reply_round_trip() {
        let mut p = pkt();
        p.op = ArpOp::Reply;
        p.target_mac = MacAddr::local(2);
        let mut buf = [0u8; ARP_PACKET_LEN];
        p.encode(&mut buf).unwrap();
        assert_eq!(ArpPacket::parse(&buf).unwrap(), p);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(ArpPacket::parse(&[0u8; 27]), Err(NetError::Truncated));
        let mut buf = [0u8; ARP_PACKET_LEN];
        pkt().encode(&mut buf).unwrap();
        let mut bad = buf;
        bad[0] = 9; // Unknown hardware type.
        assert_eq!(ArpPacket::parse(&bad), Err(NetError::Malformed));
        let mut bad = buf;
        bad[7] = 9; // Unknown opcode.
        assert_eq!(ArpPacket::parse(&bad), Err(NetError::Malformed));
        assert_eq!(pkt().encode(&mut [0u8; 10]), Err(NetError::Truncated));
    }

    #[test]
    fn cache_dynamic_expiry() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 7);
        c.insert(ip, MacAddr::local(7), Cycles::new(100));
        let entry = Some((MacAddr::local(7), Cycles::new(100)));
        assert_eq!(c.lookup(ip, Cycles::new(99)), entry);
        assert_eq!(c.lookup(ip, Cycles::new(100)), None, "expired at expiry");
    }

    #[test]
    fn phantom_never_expires() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 1, 0, 2);
        c.insert_phantom(ip, MacAddr::local(99));
        assert_eq!(
            c.lookup(ip, Cycles::MAX),
            Some((MacAddr::local(99), Cycles::MAX))
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_overwrites() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 8);
        c.insert(ip, MacAddr::local(1), Cycles::new(10));
        c.insert(ip, MacAddr::local(2), Cycles::new(20));
        let entry = Some((MacAddr::local(2), Cycles::new(20)));
        assert_eq!(c.lookup(ip, Cycles::new(15)), entry);
        assert_eq!(c.len(), 1);
    }
}
