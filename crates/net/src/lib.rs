#![warn(missing_docs)]

//! Byte-level network substrate for the receive-livelock reproduction.
//!
//! The paper's router-under-test forwards real IP/UDP packets between two
//! Ethernets. To keep the per-packet code paths honest (parse, validate,
//! decrement TTL, fix the checksum, route, re-encapsulate) this crate
//! implements the wire formats and forwarding data structures from scratch:
//!
//! - [`ethernet`], [`arp`], [`ipv4`], [`udp`], [`icmp`] — header
//!   encode/decode with real byte layouts and checksums ([`checksum`]).
//! - [`packet`] — the packet carried through the simulated kernel: a
//!   two-word handle to a slot holding the frame bytes and provenance
//!   timestamps for latency measurement (the mbuf-pointer analogue).
//! - [`pool`] — a freelist of recycled packet slots, so steady-state
//!   forwarding allocates no heap memory per packet (the mbuf-cluster
//!   analogue).
//! - [`queue`] — bounded drop-tail queues (`ipintrq`, interface output
//!   queues, the screend queue) with drop accounting.
//! - [`route`] — a longest-prefix-match routing table (binary trie).
//! - [`arp::ArpCache`] — next-hop resolution, including the paper's
//!   "phantom" ARP entry trick.
//! - [`filter`] — the 5-tuple rule predicate and screend's first-match
//!   packet filter over it.
//! - [`classify`] — deterministic, order-independent 5-tuple →
//!   priority-class mapping (control / realtime / bulk) over the same
//!   predicate, for the priority-aware receive path.
//! - [`gen`] — the deterministic traffic source (the paper's constant
//!   rate with ±20 % jitter) and trace replay.
//! - [`mutate`] — deterministic in-flight frame damage (bit flips, DMA
//!   scribbles, runts, mangled headers) for fault injection, each aimed at
//!   a specific validation layer.
//! - [`phy`] — physical-layer constants (Ethernet serialization times; the
//!   14,880 pkts/s maximum rate the paper cites).

pub mod arp;
pub mod checksum;
pub mod classify;
pub mod ethernet;
pub mod filter;
pub mod gen;
pub mod icmp;
pub mod ipv4;
pub mod mutate;
pub mod packet;
pub mod phy;
pub mod pool;
pub mod queue;
pub mod route;
pub mod udp;

pub use arp::ArpCache;
pub use classify::{Classifier, MatchRule, TrafficClass};
pub use ethernet::{EtherType, EthernetHeader, MacAddr};
pub use filter::{Action, Filter, FlowMatch, Rule};
pub use ipv4::Ipv4Header;
pub use mutate::Mutation;
pub use packet::{FlowKey, Packet, PacketId, StageStamps};
pub use pool::{FrameBuf, FramePool, PoolStats};
pub use queue::DropTailQueue;
pub use route::RouteTable;
pub use udp::UdpHeader;

/// Errors produced while parsing or building packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The buffer is shorter than the header demands.
    Truncated,
    /// A checksum failed verification.
    BadChecksum,
    /// A version, type or length field holds an unsupported value.
    Malformed,
    /// The TTL reached zero during forwarding.
    TtlExpired,
    /// No route matched the destination.
    NoRoute,
    /// The next hop could not be resolved to a link-layer address.
    NoArpEntry,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            NetError::Truncated => "buffer truncated",
            NetError::BadChecksum => "bad checksum",
            NetError::Malformed => "malformed header",
            NetError::TtlExpired => "TTL expired",
            NetError::NoRoute => "no route to destination",
            NetError::NoArpEntry => "no ARP entry for next hop",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for NetError {}
