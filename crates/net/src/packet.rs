//! The packet buffer carried through the simulated kernel.
//!
//! A [`Packet`] is a two-word owning handle to a slot ([`PacketBody`])
//! holding a full Ethernet frame as wire bytes plus simulation metadata:
//! a unique id and provenance timestamps used for latency accounting.
//! Helper constructors build complete, checksummed
//! UDP-in-IPv4-in-Ethernet frames like the paper's load generator.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};

use livelock_sim::Cycles;

use crate::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::icmp::IcmpMessage;
use crate::ipv4::{self, Ipv4Header, IPV4_HEADER_LEN};
use crate::pool::{FrameBuf, FramePool};
use crate::udp::{self, UdpHeader, UDP_HEADER_LEN};
use crate::NetError;

/// Minimum Ethernet frame length (without FCS), per IEEE 802.3.
pub const MIN_FRAME_LEN: usize = 60;
/// Maximum Ethernet frame length (without FCS).
pub const MAX_FRAME_LEN: usize = 1514;

/// A unique, monotonically assigned packet identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// The 5-tuple identifying a transport flow — the same fields (in the
/// same order) the multiqueue NIC's RSS hash consumes, so one key
/// serves both queue steering and per-flow accounting.
///
/// Plain `Copy` data: carrying it in a packet's slot costs nothing on
/// the zero-allocation forwarding path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// IPv4 source address, native-endian `u32` (as `Ipv4Addr::to_bits`).
    pub src_ip: u32,
    /// IPv4 destination address, native-endian `u32`.
    pub dst_ip: u32,
    /// IP protocol number (`ipv4::proto::*`).
    pub proto: u8,
    /// Transport source port (0 for protocols without ports).
    pub src_port: u16,
    /// Transport destination port (0 for protocols without ports).
    pub dst_port: u16,
}

impl FlowKey {
    /// Parses the 5-tuple out of Ethernet frame bytes; see
    /// [`Packet::flow_key`].
    pub(crate) fn parse(frame: &[u8]) -> Option<FlowKey> {
        if EthernetHeader::parse(frame).ok()?.ethertype != EtherType::Ipv4 {
            return None;
        }
        // Bound the datagram from the one parsed header's total-length
        // field: `Packet::ip_datagram` would parse (and checksum) the
        // same header a second time.
        let ip = Ipv4Header::parse(&frame[ETHERNET_HEADER_LEN..]).ok()?;
        let end = ETHERNET_HEADER_LEN + ip.total_len as usize;
        if frame.len() < end {
            return None;
        }
        let seg = &frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..end];
        let (src_port, dst_port) = match ip.protocol {
            ipv4::proto::UDP => {
                let udp = udp::UdpHeader::parse(seg).ok()?;
                (udp.src_port, udp.dst_port)
            }
            // TCP's fixed header is 20 bytes and opens with the ports.
            ipv4::proto::TCP if seg.len() < 20 => return None,
            ipv4::proto::TCP => (
                u16::from_be_bytes([seg[0], seg[1]]),
                u16::from_be_bytes([seg[2], seg[3]]),
            ),
            _ => (0, 0),
        };
        Some(FlowKey {
            src_ip: ip.src.into(),
            dst_ip: ip.dst.into(),
            proto: ip.protocol,
            src_port,
            dst_port,
        })
    }
}

/// Per-packet lifecycle timestamps, one per stage boundary of the receive
/// path. Stamps live in the packet's slot (plain `Copy` data), so
/// recording them costs nothing on the zero-allocation forwarding path.
///
/// Every field starts at `Cycles::MAX` ("never") and is written at most
/// once as the packet crosses that boundary. Consecutive boundaries
/// telescope: the per-stage residencies derived from them sum exactly to
/// the packet's total sojourn time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStamps {
    /// Driver/poller started on the frame (it leaves the RX ring at the
    /// end of that processing chunk).
    pub ring_deq: Cycles,
    /// IP forwarding began (head of ipintrq under interrupts; same as
    /// `ring_deq` for a process-to-completion polled path).
    pub fwd_start: Cycles,
    /// IP forwarding finished: routing decision made, packet handed to the
    /// next queue (output, screend, or socket).
    pub fwd_done: Cycles,
    /// Enqueued on the screend or socket queue (`Cycles::MAX` when the
    /// path has neither).
    pub sq_enq: Cycles,
    /// Dequeued from the screend or socket queue (filter verdict reached /
    /// application consumed the datagram).
    pub sq_deq: Cycles,
    /// Enqueued on the output interface queue.
    pub out_enq: Cycles,
    /// Frame began serializing onto the output wire.
    pub tx_start: Cycles,
}

impl StageStamps {
    /// All stamps unset.
    pub const UNSET: StageStamps = StageStamps {
        ring_deq: Cycles::MAX,
        fwd_start: Cycles::MAX,
        fwd_done: Cycles::MAX,
        sq_enq: Cycles::MAX,
        sq_deq: Cycles::MAX,
        out_enq: Cycles::MAX,
        tx_start: Cycles::MAX,
    };

    /// Returns `true` if `stamp` has been written.
    pub fn is_set(stamp: Cycles) -> bool {
        stamp != Cycles::MAX
    }
}

impl Default for StageStamps {
    fn default() -> Self {
        StageStamps::UNSET
    }
}

/// A packet's slot: everything a packet is — simulation metadata and
/// the full Ethernet frame as wire bytes — in one heap object that a
/// [`FramePool`] recycles whole. Code reaches it through the [`Packet`]
/// handle, which dereferences here; a field added to a packet belongs in
/// this struct, where it costs nothing per hop.
#[derive(Clone, Debug)]
pub struct PacketBody {
    /// Unique id, assigned by the creator.
    pub id: PacketId,
    /// Full Ethernet frame bytes (headers + payload, no FCS). Write
    /// through it, never replace it: a pooled slot's `Vec` is the pool's
    /// preallocated buffer ([`FramePool::take`] debug-asserts it comes
    /// back).
    pub frame: Vec<u8>,
    /// Time the frame finished arriving on the input wire (set by the wire
    /// model; `Cycles::MAX` until then).
    pub arrived_at: Cycles,
    /// Time the packet was taken off the receive ring by the host.
    pub dequeued_at: Cycles,
    /// Lifecycle stage-boundary timestamps for latency accounting.
    pub stamps: StageStamps,
    /// The transport 5-tuple the frame carries, so drop and delivery
    /// sites never re-parse it. A [`PacketFactory`](crate::gen::PacketFactory)
    /// stamps it from its template; otherwise the kernel parses it at RX
    /// arrival when per-flow observability is on (`None` until then, and
    /// for non-IP frames). Whoever edits the frame's addresses or ports
    /// after the stamp re-parses it ([`Packet::flow_key`]).
    pub flow: Option<FlowKey>,
    /// The priority class the admission path assigned (`None` until the
    /// kernel's classifier runs, and always `None` when classification
    /// is off). Private to this crate: other crates read it through
    /// [`Packet::class`], and the one write is
    /// [`Classifier::stamp`](crate::classify::Classifier::stamp), which
    /// computes the class it writes.
    pub(crate) class: Option<crate::classify::TrafficClass>,
}

impl PacketBody {
    /// A slot holding `frame` with pristine metadata. The one place that
    /// names every field, so a new field cannot miss its reset value.
    pub(crate) fn new(frame: Vec<u8>) -> Self {
        PacketBody {
            id: PacketId(0),
            frame,
            arrived_at: Cycles::MAX,
            dequeued_at: Cycles::MAX,
            stamps: StageStamps::UNSET,
            flow: None,
            class: None,
        }
    }

    /// An empty slot whose frame reserves `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PacketBody::new(Vec::with_capacity(capacity))
    }

    /// Returns a recycled slot to the state of a new one holding `len`
    /// zero bytes, keeping the frame's allocation.
    pub(crate) fn reset(&mut self, len: usize) {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.resize(len, 0);
        *self = PacketBody::new(frame);
    }

    /// Makes this slot a copy of `src`, metadata and bytes, keeping the
    /// frame's allocation.
    pub(crate) fn copy_from(&mut self, src: &PacketBody) {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.extend_from_slice(&src.frame);
        *self = PacketBody { frame, ..*src };
    }
}

/// A packet travelling through the simulation: an owning, two-word
/// handle to its [`PacketBody`] slot — what the paper's kernel passes
/// from ring to `ipintrq` to `screend` to the output queue is an mbuf
/// pointer, and so is this. Moving a packet between rings, queues and
/// events moves the handle; the metadata and bytes stay where they are
/// and are read and written through `Deref` (`pkt.stamps.ring_deq = ..`,
/// `pkt.flow`, `pkt.frame[..]`).
///
/// The slot is either a plain heap object or on loan from a
/// [`FramePool`], recycled automatically when the packet dies. A clone
/// is a full copy (metadata and bytes) in a slot of its own, drawn from
/// the same pool when the original is pooled.
#[derive(Clone)]
pub struct Packet(FrameBuf);

// A packet is moved at every hop: keep it a handle, and keep what is
// queued beside it (`screend_q`'s interface index) in one more word.
const _: () = assert!(std::mem::size_of::<Packet>() <= 16);
const _: () = assert!(std::mem::size_of::<(usize, Packet)>() <= 24);

impl Deref for Packet {
    type Target = PacketBody;
    fn deref(&self) -> &PacketBody {
        self.0.body()
    }
}

impl DerefMut for Packet {
    fn deref_mut(&mut self) -> &mut PacketBody {
        self.0.body_mut()
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("body", &**self)
            .field("pooled", &self.0.is_pooled())
            .finish()
    }
}

impl Packet {
    /// Wraps frame bytes (a plain `Vec<u8>` or a pooled [`FrameBuf`]),
    /// padding to the Ethernet minimum.
    pub fn from_frame(id: PacketId, frame: impl Into<FrameBuf>) -> Self {
        let mut frame = frame.into();
        if frame.len() < MIN_FRAME_LEN {
            frame.resize(MIN_FRAME_LEN, 0);
        }
        let mut pkt = Packet(frame);
        pkt.id = id;
        pkt
    }

    /// The priority class the admission path assigned, if any. There is
    /// no setter: a class comes from a classifier
    /// ([`Classifier::stamp`](crate::classify::Classifier::stamp)), never
    /// from a caller's say-so.
    ///
    /// ```compile_fail
    /// use livelock_net::{Packet, PacketId, TrafficClass};
    ///
    /// let mut pkt = Packet::from_frame(PacketId(0), vec![0u8; 60]);
    /// pkt.set_class(TrafficClass::Control);
    /// ```
    pub fn class(&self) -> Option<crate::classify::TrafficClass> {
        self.class
    }

    /// Parses the transport 5-tuple from the frame bytes: `None` for
    /// non-IPv4 frames, malformed headers, or truncated transport
    /// headers; ports are 0 for protocols other than UDP/TCP.
    ///
    /// This reads the wire bytes every call; the key a packet carries is
    /// [`PacketBody::flow`].
    pub fn flow_key(&self) -> Option<FlowKey> {
        FlowKey::parse(&self.frame)
    }

    /// Builds a complete UDP/IPv4/Ethernet frame with valid checksums.
    ///
    /// This is the datagram shape the paper's source host generated:
    /// `udp_ipv4(.., payload = &[0; 4])` yields a minimum-size frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_ipv4(
        id: PacketId,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        ttl: u8,
        payload: &[u8],
    ) -> Self {
        let frame = udp_frame(
            src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, ttl, payload,
        );
        Packet::from_frame(id, frame)
    }

    /// Like [`Packet::udp_ipv4`], but the frame buffer comes from `pool`
    /// (and returns to it when the packet dies).
    #[allow(clippy::too_many_arguments)]
    pub fn udp_ipv4_in(
        pool: &FramePool,
        id: PacketId,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        ttl: u8,
        payload: &[u8],
    ) -> Self {
        let udp_len = UDP_HEADER_LEN + payload.len();
        let total = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + udp_len;
        let mut frame = pool.take(total.max(MIN_FRAME_LEN));
        let encoded = encode_udp_frame(
            &mut frame, src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, ttl, payload,
        );
        debug_assert!(encoded.is_ok(), "buffer sized for all headers");
        Packet::from_frame(id, frame)
    }

    /// Builds a complete ICMP/IPv4/Ethernet frame with valid checksums
    /// in a buffer from `pool` (used by the router to originate Time
    /// Exceeded / Destination Unreachable errors).
    pub fn icmp_ipv4_in(
        pool: &FramePool,
        id: PacketId,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ttl: u8,
        msg: &IcmpMessage,
    ) -> Self {
        let icmp_len = msg.encoded_len();
        let total = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + icmp_len;
        let mut frame = pool.take(total.max(MIN_FRAME_LEN));
        let encoded =
            encode_icmp_frame(&mut frame, src_mac, dst_mac, src_ip, dst_ip, ttl, msg, icmp_len);
        debug_assert!(encoded.is_ok(), "buffer sized for all headers");
        Packet::from_frame(id, frame)
    }

    /// Returns the frame length in bytes (without FCS).
    pub fn len(&self) -> usize {
        self.frame.len()
    }

    /// Returns `true` if the frame is empty (never true for valid packets).
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Parses the Ethernet header.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::Truncated`] from the header parser.
    pub fn ethernet(&self) -> Result<EthernetHeader, NetError> {
        EthernetHeader::parse(&self.frame)
    }

    /// Parses and validates the IPv4 header, when the EtherType is IPv4.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when the frame is not IPv4; otherwise
    /// whatever [`Ipv4Header::parse`] reports.
    pub fn ipv4(&self) -> Result<Ipv4Header, NetError> {
        let eth = self.ethernet()?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(NetError::Malformed);
        }
        Ipv4Header::parse(&self.frame[ETHERNET_HEADER_LEN..])
    }

    /// Returns the bytes of the IP datagram (header + payload), bounded by
    /// the IP total-length field.
    ///
    /// # Errors
    ///
    /// Same as [`Packet::ipv4`], plus [`NetError::Truncated`] when the frame
    /// is shorter than the IP total length claims.
    pub fn ip_datagram(&self) -> Result<&[u8], NetError> {
        let ip = self.ipv4()?;
        let end = ETHERNET_HEADER_LEN + ip.total_len as usize;
        if self.frame.len() < end {
            return Err(NetError::Truncated);
        }
        Ok(&self.frame[ETHERNET_HEADER_LEN..end])
    }

    /// Mutable access to the IP header bytes for forwarding mutations.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when the frame has no room for an IP header.
    pub fn ip_header_bytes_mut(&mut self) -> Result<&mut [u8], NetError> {
        let end = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
        if self.frame.len() < end {
            return Err(NetError::Truncated);
        }
        Ok(&mut self.frame[ETHERNET_HEADER_LEN..end])
    }

    /// Truncates the frame to `len` bytes (no-op when already shorter).
    /// Fault injection uses this to produce runt frames; unlike
    /// [`Packet::from_frame`] the result is *not* re-padded to the
    /// Ethernet minimum — that is the point.
    pub fn truncate(&mut self, len: usize) {
        if len < self.frame.len() {
            self.frame.resize(len, 0);
        }
    }

    /// Rewrites the Ethernet source/destination for the output link.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] for an impossible short frame.
    pub fn set_link_addrs(&mut self, src: MacAddr, dst: MacAddr) -> Result<(), NetError> {
        let eth = self.ethernet()?;
        EthernetHeader {
            dst,
            src,
            ethertype: eth.ethertype,
        }
        .encode(&mut self.frame)
    }
}

/// The wire bytes [`Packet::udp_ipv4`] wraps, padded to the Ethernet
/// minimum: one allocation and no packet slot, for callers that keep the
/// bytes (the generator's frame templates).
#[allow(clippy::too_many_arguments)]
pub(crate) fn udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    payload: &[u8],
) -> Vec<u8> {
    let udp_len = UDP_HEADER_LEN + payload.len();
    let total = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + udp_len;
    let mut frame = vec![0u8; total.max(MIN_FRAME_LEN)];
    let encoded = encode_udp_frame(
        &mut frame, src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, ttl, payload,
    );
    debug_assert!(encoded.is_ok(), "buffer sized for all headers");
    frame
}

/// Encodes a UDP/IPv4/Ethernet frame into `frame`. The constructors
/// size the buffer from the same arithmetic, so the error arm is
/// unreachable there — but the codecs report honestly instead of
/// panicking, and the callers debug-assert success.
#[allow(clippy::too_many_arguments)]
fn encode_udp_frame(
    frame: &mut [u8],
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    payload: &[u8],
) -> Result<(), NetError> {
    let udp_len = UDP_HEADER_LEN + payload.len();
    let seg_start = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    if frame.len() < seg_start + udp_len {
        return Err(NetError::Truncated);
    }
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .encode(frame)?;

    let ip = Ipv4Header::new(src_ip, dst_ip, ipv4::proto::UDP, ttl, udp_len as u16);
    ip.encode(&mut frame[ETHERNET_HEADER_LEN..])?;

    UdpHeader::new(src_port, dst_port, payload.len() as u16).encode(&mut frame[seg_start..])?;
    frame[seg_start + UDP_HEADER_LEN..seg_start + udp_len].copy_from_slice(payload);
    udp::fill_checksum(src_ip, dst_ip, &mut frame[seg_start..seg_start + udp_len])?;
    Ok(())
}

/// ICMP sibling of [`encode_udp_frame`]; same contract.
#[allow(clippy::too_many_arguments)]
fn encode_icmp_frame(
    frame: &mut [u8],
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ttl: u8,
    msg: &IcmpMessage,
    icmp_len: usize,
) -> Result<(), NetError> {
    let start = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    if frame.len() < start + icmp_len {
        return Err(NetError::Truncated);
    }
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .encode(frame)?;

    let ip = Ipv4Header::new(src_ip, dst_ip, ipv4::proto::ICMP, ttl, icmp_len as u16);
    ip.encode(&mut frame[ETHERNET_HEADER_LEN..])?;

    msg.encode(&mut frame[start..start + icmp_len])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    fn sample(payload: &[u8]) -> Packet {
        Packet::udp_ipv4(
            PacketId(1),
            MacAddr::local(1),
            MacAddr::local(2),
            SRC_IP,
            DST_IP,
            5000,
            9,
            32,
            payload,
        )
    }

    #[test]
    fn min_udp_packet_is_min_frame() {
        // 4-byte payload, as in the paper: 14 + 20 + 8 + 4 = 46 < 60, padded.
        let p = sample(&[0u8; 4]);
        assert_eq!(p.len(), MIN_FRAME_LEN);
    }

    #[test]
    fn headers_parse_back() {
        let p = sample(b"ping");
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        assert_eq!(eth.src, MacAddr::local(1));
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.src, SRC_IP);
        assert_eq!(ip.dst, DST_IP);
        assert_eq!(ip.protocol, ipv4::proto::UDP);
        assert_eq!(ip.total_len, 32);
        let dgram = p.ip_datagram().unwrap();
        assert_eq!(dgram.len(), 32);
        let udp_hdr = UdpHeader::parse(&dgram[IPV4_HEADER_LEN..]).unwrap();
        assert_eq!(udp_hdr.src_port, 5000);
        assert_eq!(udp_hdr.dst_port, 9);
        assert_eq!(udp_hdr.payload_len(), 4);
    }

    #[test]
    fn udp_checksum_valid_despite_padding() {
        let p = sample(&[1, 2, 3, 4]);
        let dgram = p.ip_datagram().unwrap();
        assert!(udp::verify_checksum(
            SRC_IP,
            DST_IP,
            &dgram[IPV4_HEADER_LEN..]
        ));
    }

    #[test]
    fn forwarding_mutations() {
        let mut p = sample(&[0u8; 4]);
        ipv4::decrement_ttl(p.ip_header_bytes_mut().unwrap()).unwrap();
        assert_eq!(p.ipv4().unwrap().ttl, 31);
        p.set_link_addrs(MacAddr::local(9), MacAddr::local(10))
            .unwrap();
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.src, MacAddr::local(9));
        assert_eq!(eth.dst, MacAddr::local(10));
        assert_eq!(eth.ethertype, EtherType::Ipv4, "ethertype preserved");
        // IP payload untouched by the link-layer rewrite.
        assert!(p.ipv4().unwrap().checksum_ok());
    }

    #[test]
    fn non_ip_frame_rejected_by_ipv4_accessor() {
        let mut frame = vec![0u8; MIN_FRAME_LEN];
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(1),
            ethertype: EtherType::Arp,
        }
        .encode(&mut frame)
        .unwrap();
        let p = Packet::from_frame(PacketId(2), frame);
        assert_eq!(p.ipv4(), Err(NetError::Malformed));
    }

    #[test]
    fn short_frames_pad_up() {
        let p = Packet::from_frame(PacketId(3), vec![0u8; 10]);
        assert_eq!(p.len(), MIN_FRAME_LEN);
        assert!(!p.is_empty());
    }

    #[test]
    fn icmp_frame_round_trips() {
        use crate::icmp::{IcmpKind, IcmpMessage};
        let msg = IcmpMessage::time_exceeded(&[0xabu8; 40]);
        let p = Packet::icmp_ipv4_in(
            &FramePool::for_frames(1),
            PacketId(9),
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            SRC_IP,
            32,
            &msg,
        );
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.protocol, ipv4::proto::ICMP);
        let dgram = p.ip_datagram().unwrap();
        let parsed = IcmpMessage::parse(&dgram[IPV4_HEADER_LEN..]).unwrap();
        assert_eq!(parsed.kind, IcmpKind::TimeExceeded);
        assert_eq!(parsed.payload.len(), 28);
    }

    #[test]
    fn flow_key_parses_udp_5_tuple() {
        let p = sample(&[0u8; 4]);
        let key = p.flow_key().expect("valid UDP frame has a flow");
        assert_eq!(key.src_ip, u32::from(SRC_IP));
        assert_eq!(key.dst_ip, u32::from(DST_IP));
        assert_eq!(key.proto, ipv4::proto::UDP);
        assert_eq!(key.src_port, 5000);
        assert_eq!(key.dst_port, 9);
        // Parsing is stateless: the cached field is untouched.
        assert_eq!(p.flow, None);
    }

    #[test]
    fn flow_key_none_for_non_ip() {
        let mut frame = vec![0u8; MIN_FRAME_LEN];
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(1),
            ethertype: EtherType::Arp,
        }
        .encode(&mut frame)
        .unwrap();
        let p = Packet::from_frame(PacketId(7), frame);
        assert_eq!(p.flow_key(), None);
    }

    #[test]
    fn flow_key_portless_for_icmp() {
        use crate::icmp::IcmpMessage;
        let msg = IcmpMessage::time_exceeded(&[0u8; 28]);
        let p = Packet::icmp_ipv4_in(
            &FramePool::for_frames(1),
            PacketId(8),
            MacAddr::local(1),
            MacAddr::local(2),
            SRC_IP,
            DST_IP,
            32,
            &msg,
        );
        let key = p.flow_key().expect("valid ICMP frame has a flow");
        assert_eq!(key.proto, ipv4::proto::ICMP);
        assert_eq!((key.src_port, key.dst_port), (0, 0));
    }

    #[test]
    fn flow_key_reads_tcp_ports_and_rejects_a_short_segment() {
        let tcp_frame = |seg: &[u8]| {
            let mut frame = vec![0u8; ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + seg.len()];
            EthernetHeader {
                dst: MacAddr::local(2),
                src: MacAddr::local(1),
                ethertype: EtherType::Ipv4,
            }
            .encode(&mut frame)
            .unwrap();
            Ipv4Header::new(SRC_IP, DST_IP, ipv4::proto::TCP, 32, seg.len() as u16)
                .encode(&mut frame[ETHERNET_HEADER_LEN..])
                .unwrap();
            frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..].copy_from_slice(seg);
            Packet::from_frame(PacketId(9), frame)
        };
        // src port 5555 (0x15b3), dst port 22, then the rest of the
        // 20-byte fixed header (data offset 5, SYN).
        let mut seg = [0u8; 20];
        seg[..4].copy_from_slice(&[0x15, 0xb3, 0x00, 0x16]);
        seg[12] = 5 << 4;
        seg[13] = 0x02;
        let key = tcp_frame(&seg).flow_key().expect("whole fixed header");
        assert_eq!(key.proto, ipv4::proto::TCP);
        assert_eq!((key.src_port, key.dst_port), (5555, 22));
        assert_eq!(tcp_frame(&seg[..19]).flow_key(), None);
    }

    #[test]
    fn large_payload_exceeds_min() {
        let p = sample(&[0u8; 1000]);
        assert_eq!(
            p.len(),
            ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + 1000
        );
        assert!(p.len() <= MAX_FRAME_LEN);
    }
}

#[cfg(test)]
mod robustness {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    #[cfg(feature = "proptest")]
    proptest! {
        /// Parsing arbitrary bytes as a frame never panics — every layer
        /// returns an error instead. (The router feeds whatever the wire
        /// delivers into these parsers.)
        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let p = Packet::from_frame(PacketId(0), data);
            let _ = p.ethernet();
            let _ = p.ipv4();
            let _ = p.ip_datagram();
            let mut p2 = p.clone();
            let _ = p2.ip_header_bytes_mut().map(crate::ipv4::decrement_ttl);
            let _ = p2.set_link_addrs(MacAddr::ZERO, MacAddr::BROADCAST);
        }

        /// Same for every header codec on raw buffers.
        #[test]
        fn codecs_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = crate::ethernet::EthernetHeader::parse(&data);
            let _ = crate::ipv4::Ipv4Header::parse(&data);
            let _ = crate::udp::UdpHeader::parse(&data);
            let _ = crate::arp::ArpPacket::parse(&data);
            let _ = crate::icmp::IcmpMessage::parse(&data);
            let _ = crate::filter::PacketMeta::from_ip_datagram(&data);
        }
    }
}
