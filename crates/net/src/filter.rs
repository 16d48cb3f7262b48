//! A screend-style packet-filter rule engine.
//!
//! The paper's with-screend experiments run Mogul's `screend` \[7] — a
//! user-mode program consulted once per packet — configured to *accept all*
//! packets. This module implements a first-match rule engine with the
//! predicate vocabulary such screening firewalls used: protocol, source /
//! destination prefixes, and port ranges, plus a text parser for rules like
//!
//! ```text
//! deny udp from 10.0.0.0/8 to any port 53
//! accept ip from any to any
//! ```

use std::net::Ipv4Addr;

use crate::ipv4::{proto, Ipv4Header, IPV4_HEADER_LEN};
use crate::udp::UdpHeader;

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

    /// Creates a prefix predicate.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(prefix: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        PrefixMatch { prefix, len }
    }

    fn matches(self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.len);
        (u32::from(addr) & mask) == (u32::from(self.prefix) & mask)
    }
}

/// A port predicate (inclusive range; `ANY` matches everything, including
/// protocols without ports).
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

    fn matches(self, port: Option<u16>) -> bool {
        match port {
            Some(p) => self.lo <= p && p <= self.hi,
            // Portless packets only match an unconstrained predicate.
            None => self.is_any(),
        }
    }
}

/// One filter rule; rules are evaluated first-match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Verdict when the rule matches.
    pub action: Action,
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

impl Rule {
    /// The paper's experimental configuration: accept every packet.
    pub const ACCEPT_ALL: Rule = Rule {
        action: Action::Accept,
        protocol: ProtoMatch::Any,
        src: PrefixMatch::ANY,
        dst: PrefixMatch::ANY,
        src_port: PortMatch::ANY,
        dst_port: PortMatch::ANY,
    };

    fn matches(&self, meta: &PacketMeta) -> bool {
        self.protocol.matches(meta.protocol)
            && self.src.matches(meta.src)
            && self.dst.matches(meta.dst)
            && self.src_port.matches(meta.src_port)
            && self.dst_port.matches(meta.dst_port)
    }
}

/// The fields of a packet a screening rule can see.
#[derive(Clone, Copy, Debug)]
pub struct PacketMeta {
    /// IP protocol number.
    pub protocol: u8,
    /// Source IP.
    pub src: Ipv4Addr,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Source port, when the protocol has ports.
    pub src_port: Option<u16>,
    /// Destination port, when the protocol has ports.
    pub dst_port: Option<u16>,
}

impl PacketMeta {
    /// Extracts screening metadata from an IP datagram (header + payload).
    ///
    /// Returns `None` if the datagram cannot be parsed at all; transport
    /// ports are best-effort (absent for non-UDP/TCP or truncated packets).
    pub fn from_ip_datagram(dgram: &[u8]) -> Option<Self> {
        let ip = Ipv4Header::parse(dgram).ok()?;
        let mut meta = PacketMeta {
            protocol: ip.protocol,
            src: ip.src,
            dst: ip.dst,
            src_port: None,
            dst_port: None,
        };
        if (ip.protocol == proto::UDP || ip.protocol == proto::TCP)
            && dgram.len() >= IPV4_HEADER_LEN + 4
        {
            // UDP and TCP both start with src/dst ports.
            if let Ok(udp_hdr) = UdpHeader::parse(&dgram[IPV4_HEADER_LEN..]) {
                meta.src_port = Some(udp_hdr.src_port);
                meta.dst_port = Some(udp_hdr.dst_port);
            } else {
                let b = &dgram[IPV4_HEADER_LEN..];
                meta.src_port = Some(u16::from_be_bytes([b[0], b[1]]));
                meta.dst_port = Some(u16::from_be_bytes([b[2], b[3]]));
            }
        }
        Some(meta)
    }
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
    evaluated: u64,
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
        Filter {
            rules,
            evaluated: 0,
        }
    }

    /// The paper's experimental configuration: a single accept-all rule.
    pub fn accept_all() -> Self {
        Filter::new(vec![Rule::ACCEPT_ALL])
    }

    /// Returns the rule list.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Returns how many packets have been evaluated.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Renders a verdict for an IP datagram (header + payload bytes).
    ///
    /// Unparseable datagrams are denied, matching screend's fail-closed
    /// behaviour.
    pub fn evaluate(&mut self, dgram: &[u8]) -> Action {
        self.evaluated += 1;
        let Some(meta) = PacketMeta::from_ip_datagram(dgram) else {
            return Action::Deny;
        };
        self.evaluate_meta(&meta)
    }

    /// Renders a verdict for pre-extracted metadata: the first matching
    /// rule's, or deny when none matches.
    pub fn evaluate_meta(&self, meta: &PacketMeta) -> Action {
        for rule in &self.rules {
            if rule.matches(meta) {
                return rule.action;
            }
        }
        Action::Deny
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
    Ok(PrefixMatch::new(prefix, len))
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
        protocol,
        src,
        dst,
        src_port,
        dst_port,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use crate::MacAddr;
    use proptest::prelude::*;

    fn udp_dgram(src: Ipv4Addr, dst: Ipv4Addr, sp: u16, dp: u16) -> Vec<u8> {
        let p = Packet::udp_ipv4(
            PacketId(0),
            MacAddr::local(1),
            MacAddr::local(2),
            src,
            dst,
            sp,
            dp,
            32,
            &[0u8; 4],
        );
        p.ip_datagram().unwrap().to_vec()
    }

    #[test]
    fn accept_all_accepts_everything() {
        let mut f = Filter::accept_all();
        let d = udp_dgram(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 1, 2);
        assert_eq!(f.evaluate(&d), Action::Accept);
        assert_eq!(f.evaluated(), 1);
    }

    #[test]
    fn filter_sees_tcp_ports() {
        // The port fallback must read TCP ports: a 20-byte SYN segment,
        // 5555 (0x15b3) -> 22, seq 1, data offset 5, window 512.
        let seg: [u8; 20] = [
            0x15, 0xb3, 0x00, 0x16, 0, 0, 0, 1, 0, 0, 0, 0, 0x50, 0x02, 0x02, 0x00, 0, 0, 0, 0,
        ];
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 2));
        let mut dgram = vec![0u8; IPV4_HEADER_LEN + seg.len()];
        Ipv4Header::new(src, dst, proto::TCP, 32, seg.len() as u16)
            .encode(&mut dgram)
            .unwrap();
        dgram[IPV4_HEADER_LEN..].copy_from_slice(&seg);

        let meta = PacketMeta::from_ip_datagram(&dgram).unwrap();
        assert_eq!(meta.src_port, Some(5555));
        assert_eq!(meta.dst_port, Some(22));
        assert_eq!(meta.protocol, proto::TCP);
    }

    #[test]
    fn first_match_semantics() {
        let mut f = Filter::parse(
            "deny udp from 10.0.0.0/8 to any port 53\n\
             accept ip from any to any",
        )
        .unwrap();
        let dns = udp_dgram(
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            4000,
            53,
        );
        let other = udp_dgram(
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            4000,
            80,
        );
        let outside = udp_dgram(
            Ipv4Addr::new(11, 1, 1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            4000,
            53,
        );
        assert_eq!(f.evaluate(&dns), Action::Deny);
        assert_eq!(f.evaluate(&other), Action::Accept);
        assert_eq!(f.evaluate(&outside), Action::Accept);
    }

    #[test]
    fn default_action_applies() {
        let mut f = Filter::new(vec![]);
        let d = udp_dgram(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 1, 1);
        assert_eq!(f.evaluate(&d), Action::Deny);
    }

    #[test]
    fn garbage_is_denied() {
        let mut f = Filter::accept_all();
        assert_eq!(f.evaluate(&[0u8; 5]), Action::Deny);
    }

    #[test]
    fn port_ranges() {
        let mut f = Filter::parse(
            "accept udp from any to any port 9000-9999\n\
             deny ip from any to any",
        )
        .unwrap();
        let inside = udp_dgram(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            5,
            9500,
        );
        let below = udp_dgram(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            5,
            8999,
        );
        assert_eq!(f.evaluate(&inside), Action::Accept);
        assert_eq!(f.evaluate(&below), Action::Deny);
    }

    #[test]
    fn icmp_does_not_match_port_constrained_rule() {
        let f = Filter::parse(
            "accept icmp from any to any port 53\n\
             deny ip from any to any",
        )
        .unwrap();
        let meta = PacketMeta {
            protocol: proto::ICMP,
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            src_port: None,
            dst_port: None,
        };
        assert_eq!(f.evaluate_meta(&meta), Action::Deny);
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
        let mut f = Filter::parse(
            "deny ip from 10.0.0.5 to any\n\
             accept ip from any to any",
        )
        .unwrap();
        let hit = udp_dgram(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(2, 2, 2, 2), 1, 1);
        let miss = udp_dgram(Ipv4Addr::new(10, 0, 0, 6), Ipv4Addr::new(2, 2, 2, 2), 1, 1);
        assert_eq!(f.evaluate(&hit), Action::Deny);
        assert_eq!(f.evaluate(&miss), Action::Accept);
    }

    #[test]
    fn proto_number_rule() {
        let f = Filter::parse("accept proto 89 from any to any\ndeny ip from any to any").unwrap();
        let ospf = PacketMeta {
            protocol: 89,
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            src_port: None,
            dst_port: None,
        };
        assert_eq!(f.evaluate_meta(&ospf), Action::Accept);
    }

    proptest! {
        #[test]
        fn accept_all_never_denies_valid_udp(
            src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(),
        ) {
            let mut f = Filter::accept_all();
            let d = udp_dgram(Ipv4Addr::from(src), Ipv4Addr::from(dst), sp, dp);
            prop_assert_eq!(f.evaluate(&d), Action::Accept);
        }

        #[test]
        fn prefix_match_agrees_with_mask_arithmetic(
            prefix in any::<u32>(), len in 0u8..=32, addr in any::<u32>(),
        ) {
            let pm = PrefixMatch::new(Ipv4Addr::from(prefix), len);
            let mask = if len == 0 { 0u32 } else { u32::MAX << (32 - len) };
            let expect = (addr & mask) == (prefix & mask);
            prop_assert_eq!(pm.matches(Ipv4Addr::from(addr)), expect);
        }
    }
}
