//! The 5-tuple rule vocabulary, and screend's packet filter over it.
//!
//! The paper's with-screend experiments run Mogul's `screend` \[7] — a
//! user-mode program consulted once per packet — configured to *accept all*
//! packets. A [`FlowMatch`] is the predicate such screening firewalls used —
//! protocol, source / destination prefixes and port ranges — checked
//! against the [`FlowKey`] a packet carries. Two reductions share it: the
//! [`Filter`] renders the first matching rule's verdict, and the
//! [`Classifier`](crate::classify::Classifier) assigns the most specific
//! matching rule's class. The filter parses rules like
//!
//! ```text
//! deny udp from 10.0.0.0/8 to any port 53
//! accept ip from any to any
//! ```

use std::net::Ipv4Addr;

use crate::ipv4::proto;
use crate::packet::FlowKey;

/// The verdict a rule (or the whole filter) renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward the packet.
    Accept,
    /// Drop the packet.
    Deny,
}

/// Which IP protocols a rule matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoMatch {
    /// Any IP protocol.
    Any,
    /// UDP only.
    Udp,
    /// TCP only.
    Tcp,
    /// ICMP only.
    Icmp,
    /// An explicit protocol number.
    Number(u8),
}

impl ProtoMatch {
    fn matches(self, protocol: u8) -> bool {
        match self {
            ProtoMatch::Any => true,
            ProtoMatch::Udp => protocol == proto::UDP,
            ProtoMatch::Tcp => protocol == proto::TCP,
            ProtoMatch::Icmp => protocol == proto::ICMP,
            ProtoMatch::Number(n) => protocol == n,
        }
    }
}

/// An address predicate: a prefix (`any` = `0.0.0.0/0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Network address (host bits ignored).
    pub prefix: Ipv4Addr,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl PrefixMatch {
    /// The match-anything prefix.
    pub const ANY: PrefixMatch = PrefixMatch {
        prefix: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    fn matches(self, addr: u32) -> bool {
        // A zero-length prefix shifts the mask out entirely.
        let mask = u32::MAX
            .checked_shl(32 - u32::from(self.len.min(32)))
            .unwrap_or(0);
        (addr ^ u32::from(self.prefix)) & mask == 0
    }
}

/// A port predicate: an inclusive range. `ANY` matches every flow; any
/// other range matches only protocols with ports (UDP and TCP).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortMatch {
    /// Lowest matching port.
    pub lo: u16,
    /// Highest matching port.
    pub hi: u16,
}

impl PortMatch {
    /// The match-anything port range.
    pub const ANY: PortMatch = PortMatch {
        lo: 0,
        hi: u16::MAX,
    };

    /// A single-port predicate.
    pub const fn exactly(p: u16) -> Self {
        PortMatch { lo: p, hi: p }
    }

    fn is_any(self) -> bool {
        self.lo == 0 && self.hi == u16::MAX
    }

    fn matches(self, port: u16, has_ports: bool) -> bool {
        self.is_any() || (has_ports && self.lo <= port && port <= self.hi)
    }
}

/// A predicate over a flow's 5-tuple: every field must match the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowMatch {
    /// Protocol predicate.
    pub protocol: ProtoMatch,
    /// Source address predicate.
    pub src: PrefixMatch,
    /// Destination address predicate.
    pub dst: PrefixMatch,
    /// Source port predicate.
    pub src_port: PortMatch,
    /// Destination port predicate.
    pub dst_port: PortMatch,
}

impl FlowMatch {
    /// Matches every flow.
    pub const ANY: FlowMatch = FlowMatch {
        protocol: ProtoMatch::Any,
        src: PrefixMatch::ANY,
        dst: PrefixMatch::ANY,
        src_port: PortMatch::ANY,
        dst_port: PortMatch::ANY,
    };

    /// Whether `key`'s flow satisfies every field. A flow whose protocol
    /// has no ports (its key's ports are 0) fails any constrained port
    /// predicate.
    pub fn matches(&self, key: &FlowKey) -> bool {
        let has_ports = matches!(key.proto, proto::UDP | proto::TCP);
        self.protocol.matches(key.proto)
            && self.src.matches(key.src_ip)
            && self.dst.matches(key.dst_ip)
            && self.src_port.matches(key.src_port, has_ports)
            && self.dst_port.matches(key.dst_port, has_ports)
    }

    /// How constrained the predicate is: the number of its fields that
    /// do not match everything (0 for [`FlowMatch::ANY`], at most 5).
    pub fn specificity(&self) -> u32 {
        u32::from(self.protocol != ProtoMatch::Any)
            + u32::from(self.src.len > 0)
            + u32::from(self.dst.len > 0)
            + u32::from(!self.src_port.is_any())
            + u32::from(!self.dst_port.is_any())
    }
}

/// One filter rule; rules are evaluated first-match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Verdict when the rule matches.
    pub action: Action,
    /// The flows the rule matches.
    pub flow: FlowMatch,
}

impl Rule {
    /// The paper's experimental configuration: accept every packet.
    pub const ACCEPT_ALL: Rule = Rule {
        action: Action::Accept,
        flow: FlowMatch::ANY,
    };
}

/// A first-match packet filter; packets no rule matches are denied.
///
/// # Examples
///
/// ```
/// use livelock_net::filter::{Action, Filter, Rule};
///
/// let f = Filter::parse(
///     "deny udp from 10.0.0.0/8 to any port 53\n\
///      accept ip from any to any",
/// ).unwrap();
/// assert_eq!(f.rules().len(), 2);
/// let accept_all = Filter::accept_all();
/// assert_eq!(accept_all.rules(), &[Rule::ACCEPT_ALL]);
/// ```
#[derive(Clone, Debug)]
pub struct Filter {
    rules: Vec<Rule>,
}

/// A parse failure: the offending line number (1-based) and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Filter {
    /// Creates a filter from explicit rules; unmatched packets are denied.
    pub fn new(rules: Vec<Rule>) -> Self {
        Filter { rules }
    }

    /// The paper's experimental configuration: a single accept-all rule.
    pub fn accept_all() -> Self {
        Filter::new(vec![Rule::ACCEPT_ALL])
    }

    /// Returns the rule list.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Renders a verdict for a packet's flow key: the first matching
    /// rule's, or deny when none matches. A packet with no key (a
    /// non-IPv4 or malformed frame) is denied, matching screend's
    /// fail-closed behaviour.
    pub fn evaluate(&self, key: Option<&FlowKey>) -> Action {
        key.and_then(|k| self.rules.iter().find(|r| r.flow.matches(k)))
            .map_or(Action::Deny, |r| r.action)
    }

    /// Parses a rule file: one rule per line, `#` comments, blank lines
    /// ignored.
    ///
    /// Grammar per line:
    ///
    /// ```text
    /// (accept|deny) (ip|udp|tcp|icmp|proto N)
    ///     from (any|ADDR[/LEN]) [port P[-Q]]
    ///     to   (any|ADDR[/LEN]) [port P[-Q]]
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut rules = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            rules.push(parse_rule(stripped).map_err(|message| ParseError { line, message })?);
        }
        Ok(Filter::new(rules))
    }
}

fn parse_prefix(tok: &str) -> Result<PrefixMatch, String> {
    if tok == "any" {
        return Ok(PrefixMatch::ANY);
    }
    let (addr_s, len_s) = match tok.split_once('/') {
        Some((a, l)) => (a, Some(l)),
        None => (tok, None),
    };
    let prefix: Ipv4Addr = addr_s
        .parse()
        .map_err(|_| format!("bad address {addr_s:?}"))?;
    let len = match len_s {
        Some(l) => l
            .parse::<u8>()
            .ok()
            .filter(|&l| l <= 32)
            .ok_or_else(|| format!("bad prefix length {l:?}"))?,
        None => 32,
    };
    Ok(PrefixMatch { prefix, len })
}

fn parse_ports(tok: &str) -> Result<PortMatch, String> {
    if let Some((lo, hi)) = tok.split_once('-') {
        let lo = lo.parse::<u16>().map_err(|_| format!("bad port {lo:?}"))?;
        let hi = hi.parse::<u16>().map_err(|_| format!("bad port {hi:?}"))?;
        if lo > hi {
            return Err(format!("empty port range {tok:?}"));
        }
        Ok(PortMatch { lo, hi })
    } else {
        let p = tok
            .parse::<u16>()
            .map_err(|_| format!("bad port {tok:?}"))?;
        Ok(PortMatch::exactly(p))
    }
}

fn parse_rule(line: &str) -> Result<Rule, String> {
    let mut toks = line.split_whitespace().peekable();
    let action = match toks.next() {
        Some("accept") => Action::Accept,
        Some("deny") => Action::Deny,
        other => return Err(format!("expected accept/deny, got {other:?}")),
    };
    let protocol = match toks.next() {
        Some("ip") => ProtoMatch::Any,
        Some("udp") => ProtoMatch::Udp,
        Some("tcp") => ProtoMatch::Tcp,
        Some("icmp") => ProtoMatch::Icmp,
        Some("proto") => {
            let n = toks
                .next()
                .and_then(|t| t.parse::<u8>().ok())
                .ok_or("expected protocol number after 'proto'")?;
            ProtoMatch::Number(n)
        }
        other => return Err(format!("expected protocol, got {other:?}")),
    };

    let expect_kw =
        |kw: &str, toks: &mut std::iter::Peekable<std::str::SplitWhitespace>| match toks.next() {
            Some(t) if t == kw => Ok(()),
            other => Err(format!("expected {kw:?}, got {other:?}")),
        };

    expect_kw("from", &mut toks)?;
    let src = parse_prefix(toks.next().ok_or("expected source address")?)?;
    let mut src_port = PortMatch::ANY;
    if toks.peek() == Some(&"port") {
        toks.next();
        src_port = parse_ports(toks.next().ok_or("expected port after 'port'")?)?;
    }

    expect_kw("to", &mut toks)?;
    let dst = parse_prefix(toks.next().ok_or("expected destination address")?)?;
    let mut dst_port = PortMatch::ANY;
    if toks.peek() == Some(&"port") {
        toks.next();
        dst_port = parse_ports(toks.next().ok_or("expected port after 'port'")?)?;
    }

    if let Some(extra) = toks.next() {
        return Err(format!("unexpected trailing token {extra:?}"));
    }

    Ok(Rule {
        action,
        flow: FlowMatch {
            protocol,
            src,
            dst,
            src_port,
            dst_port,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{Classifier, MatchRule, TrafficClass};
    use crate::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
    use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
    use crate::packet::{Packet, PacketId};
    use crate::MacAddr;
    use proptest::prelude::*;

    fn udp(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> FlowKey {
        FlowKey {
            src_ip: src.into(),
            dst_ip: dst.into(),
            proto: proto::UDP,
            src_port,
            dst_port,
        }
    }

    fn portless(protocol: u8) -> FlowKey {
        FlowKey {
            proto: protocol,
            src_port: 0,
            dst_port: 0,
            ..udp(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 0, 0)
        }
    }

    /// An Ethernet frame (`ethertype`) whose IPv4 datagram carries
    /// `protocol` with `seg` as its payload.
    fn frame(
        ethertype: EtherType,
        protocol: u8,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        seg: &[u8],
    ) -> Packet {
        let mut frame = vec![0u8; ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + seg.len()];
        EthernetHeader {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype,
        }
        .encode(&mut frame)
        .unwrap();
        Ipv4Header::new(src, dst, protocol, 32, seg.len() as u16)
            .encode(&mut frame[ETHERNET_HEADER_LEN..])
            .unwrap();
        frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..].copy_from_slice(seg);
        Packet::from_frame(PacketId(0), frame)
    }

    #[test]
    fn accept_all_accepts_everything() {
        let f = Filter::accept_all();
        let k = udp(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 1, 2);
        assert_eq!(f.evaluate(Some(&k)), Action::Accept);
        assert_eq!(f.evaluate(Some(&portless(proto::ICMP))), Action::Accept);
    }

    #[test]
    fn filter_sees_tcp_ports() {
        // A 20-byte SYN segment, 5555 (0x15b3) -> 22, keyed the way the
        // kernel keys every arrival.
        let mut seg = [0u8; 20];
        seg[..4].copy_from_slice(&[0x15, 0xb3, 0x00, 0x16]);
        seg[12] = 5 << 4;
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 2));
        let key = frame(EtherType::Ipv4, proto::TCP, src, dst, &seg).flow_key();
        let f = Filter::parse("accept tcp from any port 5555 to any port 22").unwrap();
        assert_eq!(f.evaluate(key.as_ref()), Action::Accept);
        let f = Filter::parse("accept udp from any port 5555 to any port 22").unwrap();
        assert_eq!(f.evaluate(key.as_ref()), Action::Deny);
    }

    #[test]
    fn first_match_semantics() {
        let f = Filter::parse(
            "deny udp from 10.0.0.0/8 to any port 53\n\
             accept ip from any to any",
        )
        .unwrap();
        let (inside, outside, dns) = (
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(11, 1, 1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
        );
        assert_eq!(f.evaluate(Some(&udp(inside, dns, 4000, 53))), Action::Deny);
        assert_eq!(
            f.evaluate(Some(&udp(inside, dns, 4000, 80))),
            Action::Accept
        );
        assert_eq!(
            f.evaluate(Some(&udp(outside, dns, 4000, 53))),
            Action::Accept
        );
    }

    #[test]
    fn default_action_applies() {
        let f = Filter::new(vec![]);
        let k = udp(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 1, 1);
        assert_eq!(f.evaluate(Some(&k)), Action::Deny);
    }

    #[test]
    fn garbage_is_denied() {
        let garbage = Packet::from_frame(PacketId(0), vec![0u8; 5]);
        assert_eq!(
            Filter::accept_all().evaluate(garbage.flow_key().as_ref()),
            Action::Deny
        );
    }

    #[test]
    fn port_ranges() {
        let f = Filter::parse(
            "accept udp from any to any port 9000-9999\n\
             deny ip from any to any",
        )
        .unwrap();
        let (a, b) = (Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(f.evaluate(Some(&udp(a, b, 5, 9500))), Action::Accept);
        assert_eq!(f.evaluate(Some(&udp(a, b, 5, 8999))), Action::Deny);
    }

    #[test]
    fn icmp_does_not_match_port_constrained_rule() {
        // Port 0 is inside the range, but ICMP has no ports to match.
        let f = Filter::parse(
            "accept icmp from any to any port 0-53\n\
             deny ip from any to any",
        )
        .unwrap();
        assert_eq!(f.evaluate(Some(&portless(proto::ICMP))), Action::Deny);
    }

    #[test]
    fn parser_errors_name_the_line() {
        let err = Filter::parse("accept ip from any to any\nbogus line").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(Filter::parse("accept udp from any to any extra").is_err());
        assert!(Filter::parse("accept udp from any").is_err());
        assert!(Filter::parse("accept udp from 1.2.3.4/99 to any").is_err());
        assert!(Filter::parse("accept udp from any port 9-5 to any").is_err());
        assert!(Filter::parse("permit ip from any to any").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let f = Filter::parse(
            "# a comment\n\
             \n\
             accept ip from any to any # trailing comment\n",
        )
        .unwrap();
        assert_eq!(f.rules().len(), 1);
    }

    #[test]
    fn host_rule_without_mask() {
        let f = Filter::parse(
            "deny ip from 10.0.0.5 to any\n\
             accept ip from any to any",
        )
        .unwrap();
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        assert_eq!(
            f.evaluate(Some(&udp(Ipv4Addr::new(10, 0, 0, 5), dst, 1, 1))),
            Action::Deny
        );
        assert_eq!(
            f.evaluate(Some(&udp(Ipv4Addr::new(10, 0, 0, 6), dst, 1, 1))),
            Action::Accept
        );
    }

    #[test]
    fn proto_number_rule() {
        let f = Filter::parse("accept proto 89 from any to any\ndeny ip from any to any").unwrap();
        assert_eq!(f.evaluate(Some(&portless(89))), Action::Accept);
    }

    /// The header fields a rule can see, decoded straight from the frame
    /// bytes at their fixed offsets: protocol, source, destination, and
    /// the ports when the protocol has them. `None` when the frame
    /// carries no 5-tuple — not IPv4, or a UDP/TCP header cut short.
    type Headers = (u8, u32, u32, Option<(u16, u16)>);

    fn decode(frame: &[u8]) -> Option<Headers> {
        let be16 = |i: usize| u16::from_be_bytes([frame[i], frame[i + 1]]);
        let be32 =
            |i: usize| u32::from_be_bytes([frame[i], frame[i + 1], frame[i + 2], frame[i + 3]]);
        if be16(12) != 0x0800 {
            return None;
        }
        let (ip, seg) = (ETHERNET_HEADER_LEN, ETHERNET_HEADER_LEN + IPV4_HEADER_LEN);
        let seg_len = usize::from(be16(ip + 2)) - IPV4_HEADER_LEN;
        let protocol = frame[ip + 9];
        let ports = match protocol {
            proto::UDP if seg_len < 8 => return None,
            proto::TCP if seg_len < 20 => return None,
            proto::UDP | proto::TCP => Some((be16(seg), be16(seg + 2))),
            _ => None,
        };
        Some((protocol, be32(ip + 12), be32(ip + 16), ports))
    }

    /// The rule semantics, written out against decoded headers.
    fn oracle_matches(m: &FlowMatch, (protocol, src, dst, ports): Headers) -> bool {
        let proto_ok = match m.protocol {
            ProtoMatch::Any => true,
            ProtoMatch::Udp => protocol == 17,
            ProtoMatch::Tcp => protocol == 6,
            ProtoMatch::Icmp => protocol == 1,
            ProtoMatch::Number(n) => protocol == n,
        };
        let prefix_ok = |p: PrefixMatch, a: u32| {
            p.len == 0 || a >> (32 - p.len) == u32::from(p.prefix) >> (32 - p.len)
        };
        let port_ok = |r: PortMatch, pick: fn((u16, u16)) -> u16| {
            r == PortMatch::ANY || ports.is_some_and(|ps| (r.lo..=r.hi).contains(&pick(ps)))
        };
        proto_ok
            && prefix_ok(m.src, src)
            && prefix_ok(m.dst, dst)
            && port_ok(m.src_port, |ps| ps.0)
            && port_ok(m.dst_port, |ps| ps.1)
    }

    fn constrained_fields(m: &FlowMatch) -> usize {
        [
            m.protocol != ProtoMatch::Any,
            m.src.len > 0,
            m.dst.len > 0,
            m.src_port != PortMatch::ANY,
            m.dst_port != PortMatch::ANY,
        ]
        .into_iter()
        .filter(|&b| b)
        .count()
    }

    const ADDRS: [Ipv4Addr; 3] = [
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 1, 0, 2),
        Ipv4Addr::new(192, 168, 1, 1),
    ];
    const PORTS: [u16; 4] = [5000, 5001, 9, 22];

    /// A frame of kind 0 UDP, 1 TCP, 2 ICMP, 3 protocol 89, 4 ARP (non-IP),
    /// 5 UDP cut to 4 bytes, 6 TCP cut to 12.
    fn draw_frame((kind, src, dst, sp, dp): (u8, usize, usize, usize, usize)) -> Packet {
        let (src, dst) = (ADDRS[src], ADDRS[dst]);
        let mut seg = [0u8; 20];
        seg[..2].copy_from_slice(&PORTS[sp].to_be_bytes());
        seg[2..4].copy_from_slice(&PORTS[dp].to_be_bytes());
        seg[5] = 8; // UDP length; TCP's sequence number.
        match kind {
            0 => frame(EtherType::Ipv4, proto::UDP, src, dst, &seg[..8]),
            1 => frame(EtherType::Ipv4, proto::TCP, src, dst, &seg),
            2 => frame(EtherType::Ipv4, proto::ICMP, src, dst, &seg[..8]),
            3 => frame(EtherType::Ipv4, 89, src, dst, &seg[..8]),
            4 => frame(EtherType::Arp, proto::UDP, src, dst, &seg[..8]),
            5 => frame(EtherType::Ipv4, proto::UDP, src, dst, &seg[..4]),
            _ => frame(EtherType::Ipv4, proto::TCP, src, dst, &seg[..12]),
        }
    }

    /// A predicate over a deliberately tiny domain, so rules and keys
    /// actually collide; the `0-22` range holds the portless keys' 0.
    /// An index past a field's options leaves it unconstrained, so half
    /// the fields match everything and overlapping rules are common.
    fn draw_match((protocol, src, dst, sp, dp): (usize, usize, usize, usize, usize)) -> FlowMatch {
        let prefixes = [
            PrefixMatch::ANY,
            PrefixMatch {
                prefix: Ipv4Addr::new(10, 0, 0, 0),
                len: 8,
            },
            PrefixMatch {
                prefix: Ipv4Addr::new(10, 1, 0, 0),
                len: 16,
            },
            PrefixMatch {
                prefix: Ipv4Addr::new(10, 0, 0, 1),
                len: 32,
            },
        ];
        let ports = [
            PortMatch::ANY,
            PortMatch::exactly(5000),
            PortMatch { lo: 5000, hi: 5001 },
            PortMatch { lo: 0, hi: 22 },
        ];
        FlowMatch {
            protocol: [
                ProtoMatch::Any,
                ProtoMatch::Udp,
                ProtoMatch::Tcp,
                ProtoMatch::Icmp,
                ProtoMatch::Number(89),
            ]
            .get(protocol)
            .copied()
            .unwrap_or(ProtoMatch::Any),
            src: prefixes.get(src).copied().unwrap_or(PrefixMatch::ANY),
            dst: prefixes.get(dst).copied().unwrap_or(PrefixMatch::ANY),
            src_port: ports.get(sp).copied().unwrap_or(PortMatch::ANY),
            dst_port: ports.get(dp).copied().unwrap_or(PortMatch::ANY),
        }
    }

    proptest! {
        /// Both reductions over the key the kernel stamps agree with the
        /// rules matched against the headers decoded here: the filter
        /// takes the first match (deny when none, or when the frame has
        /// no key), the classifier the most specific match with class
        /// priority as the tie-break (the default class when none, or
        /// when the frame has no key) — and no rotation or reversal of
        /// the rule list changes a class.
        #[test]
        fn rules_over_the_stamped_key_match_the_decoded_headers(
            raw_frame in (0u8..7, 0usize..3, 0usize..3, 0usize..4, 0usize..4),
            raw_rules in proptest::collection::vec(
                ((0usize..10, 0usize..8, 0usize..8, 0usize..8, 0usize..8), any::<bool>(), 0usize..3),
                0..8,
            ),
            default_i in 0usize..3,
            rot in 0usize..6,
        ) {
            let mut pkt = draw_frame(raw_frame);
            pkt.flow = pkt.flow_key();
            let headers = decode(&pkt.frame);
            prop_assert_eq!(pkt.flow.is_some(), headers.is_some());

            let rules: Vec<(FlowMatch, Action, TrafficClass)> = raw_rules
                .into_iter()
                .map(|(m, accept, c)| {
                    let action = if accept { Action::Accept } else { Action::Deny };
                    (draw_match(m), action, TrafficClass::ALL[c])
                })
                .collect();
            let default = TrafficClass::ALL[default_i];
            let hits = |h: Headers| rules.iter().filter(move |r| oracle_matches(&r.0, h));
            let verdict = headers
                .and_then(|h| hits(h).next())
                .map_or(Action::Deny, |r| r.1);
            let class = headers
                .and_then(|h| hits(h).max_by_key(|r| (constrained_fields(&r.0), std::cmp::Reverse(r.2.index()))))
                .map_or(default, |r| r.2);

            let filter = Filter::new(rules.iter().map(|&(flow, action, _)| Rule { action, flow }).collect());
            prop_assert_eq!(filter.evaluate(pkt.flow.as_ref()), verdict);
            let accept_all = if headers.is_some() { Action::Accept } else { Action::Deny };
            prop_assert_eq!(Filter::accept_all().evaluate(pkt.flow.as_ref()), accept_all);

            let mut class_rules: Vec<MatchRule> =
                rules.iter().map(|&(flow, _, class)| MatchRule { flow, class }).collect();
            prop_assert_eq!(Classifier::new(class_rules.clone(), default).stamp(&mut pkt), class);
            prop_assert_eq!(pkt.class(), Some(class));
            let n = class_rules.len().max(1);
            class_rules.rotate_left(rot % n);
            prop_assert_eq!(Classifier::new(class_rules.clone(), default).stamp(&mut pkt), class);
            class_rules.reverse();
            prop_assert_eq!(Classifier::new(class_rules, default).stamp(&mut pkt), class);
        }

        #[test]
        fn accept_all_never_denies_valid_udp(
            src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(),
        ) {
            let mut seg = [0u8; 8];
            seg[..2].copy_from_slice(&sp.to_be_bytes());
            seg[2..4].copy_from_slice(&dp.to_be_bytes());
            seg[5] = 8; // UDP length.
            let pkt = frame(EtherType::Ipv4, proto::UDP, Ipv4Addr::from(src), Ipv4Addr::from(dst), &seg);
            let key = pkt.flow_key();
            prop_assert_eq!(key, Some(udp(Ipv4Addr::from(src), Ipv4Addr::from(dst), sp, dp)));
            prop_assert_eq!(Filter::accept_all().evaluate(key.as_ref()), Action::Accept);
        }

        #[test]
        fn prefix_match_agrees_with_mask_arithmetic(
            prefix in any::<u32>(), len in 0u8..=32, addr in any::<u32>(),
        ) {
            let pm = PrefixMatch { prefix: Ipv4Addr::from(prefix), len };
            let mask = if len == 0 { 0u32 } else { u32::MAX << (32 - len) };
            let expect = (addr & mask) == (prefix & mask);
            prop_assert_eq!(pm.matches(addr), expect);
        }
    }
}
