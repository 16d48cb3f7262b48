//! Deterministic priority classification of transport flows.
//!
//! The paper's §8 future-work discussion (and ROADMAP item 1) calls for
//! per-class differentiation under overload: a high-priority control flow
//! must keep its latency SLO while bulk traffic absorbs the shedding.
//! This module supplies the first half of that design — a pure,
//! order-independent mapping from a packet's transport 5-tuple to a
//! [`TrafficClass`] — leaving the mechanism that *acts* on the class
//! (per-priority NIC rings, strict-priority drain, the shed controller)
//! to the kernel crate.
//!
//! Determinism contract: classification is a function of the flow key and
//! the rule *set*, never of rule *order*. A rule set is matched by
//! specificity (most constrained rule wins) with class priority as the
//! tie-break, so shuffling the rules cannot change any packet's class.

use crate::packet::{FlowKey, Packet};

/// The three service classes, in strict priority order.
///
/// `Control` outranks `Realtime` outranks `Bulk`: the polled kernel
/// drains receive work in this order, and the admission gate sheds in
/// the reverse order (`Bulk` first, `Control` never).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Routing updates, management traffic: smallest share, strictest SLO.
    Control,
    /// Latency-sensitive media/telemetry streams.
    Realtime,
    /// Throughput-oriented transfers: first to be shed under overload.
    Bulk,
}

impl TrafficClass {
    /// All classes, highest priority first (the drain order).
    pub const ALL: [TrafficClass; 3] =
        [TrafficClass::Control, TrafficClass::Realtime, TrafficClass::Bulk];

    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index: 0 = highest priority. Usable directly as an array
    /// index and as the strict-priority drain order.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Control => 0,
            TrafficClass::Realtime => 1,
            TrafficClass::Bulk => 2,
        }
    }

    /// Stable lower-case label for CSV columns, fold frames and reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Realtime => "realtime",
            TrafficClass::Bulk => "bulk",
        }
    }
}

/// One match rule: every populated field must equal the flow key's for
/// the rule to match. An empty rule (all `None`) matches everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchRule {
    /// IP protocol number to match (`ipv4::proto::*`), or any.
    pub proto: Option<u8>,
    /// Transport source port to match, or any.
    pub src_port: Option<u16>,
    /// Transport destination port to match, or any.
    pub dst_port: Option<u16>,
    /// The class a matching flow is assigned.
    pub class: TrafficClass,
}

impl MatchRule {
    /// A rule matching any flow of `class` (specificity 0).
    pub const fn any(class: TrafficClass) -> MatchRule {
        MatchRule {
            proto: None,
            src_port: None,
            dst_port: None,
            class,
        }
    }

    /// A rule matching one transport source port.
    pub const fn src_port(port: u16, class: TrafficClass) -> MatchRule {
        MatchRule {
            proto: None,
            src_port: Some(port),
            dst_port: None,
            class,
        }
    }

    /// A rule matching one transport destination port.
    pub const fn dst_port(port: u16, class: TrafficClass) -> MatchRule {
        MatchRule {
            proto: None,
            src_port: None,
            dst_port: Some(port),
            class,
        }
    }

    /// Whether the rule matches `key`.
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.proto.is_none_or(|p| p == key.proto)
            && self.src_port.is_none_or(|p| p == key.src_port)
            && self.dst_port.is_none_or(|p| p == key.dst_port)
    }

    /// How constrained the rule is: the number of populated fields.
    /// More-specific rules beat less-specific ones.
    pub fn specificity(&self) -> u32 {
        self.proto.is_some() as u32
            + self.src_port.is_some() as u32
            + self.dst_port.is_some() as u32
    }
}

/// The deterministic flow classifier: a rule set plus a default class
/// for flows (and portless/unparseable frames) no rule matches.
///
/// Match semantics are order-independent by construction: among the
/// matching rules, the highest specificity wins, and ties go to the
/// highest-priority class (lowest [`TrafficClass::index`]). Both
/// reductions are commutative and associative, so any permutation of
/// the same rule set classifies every key identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classifier {
    rules: Vec<MatchRule>,
    default_class: TrafficClass,
}

impl Classifier {
    /// Builds a classifier from a rule set and default class.
    pub fn new(rules: Vec<MatchRule>, default_class: TrafficClass) -> Classifier {
        Classifier {
            rules,
            default_class,
        }
    }

    /// The rules (as given; order carries no meaning).
    pub fn rules(&self) -> &[MatchRule] {
        &self.rules
    }

    /// The fallback class for unmatched flows.
    pub fn default_class(&self) -> TrafficClass {
        self.default_class
    }

    /// Classifies one flow key: most-specific matching rule, class
    /// priority as tie-break, default class when nothing matches.
    pub fn classify(&self, key: &FlowKey) -> TrafficClass {
        let mut best: Option<(u32, TrafficClass)> = None;
        for r in &self.rules {
            if !r.matches(key) {
                continue;
            }
            let cand = (r.specificity(), r.class);
            best = Some(match best {
                None => cand,
                Some((s, c)) => {
                    if cand.0 > s || (cand.0 == s && cand.1.index() < c.index()) {
                        cand
                    } else {
                        (s, c)
                    }
                }
            });
        }
        best.map_or(self.default_class, |(_, c)| c)
    }

    /// Classifies an optional flow key: frames that never parsed to a
    /// 5-tuple fall into the default class.
    pub fn classify_opt(&self, key: Option<&FlowKey>) -> TrafficClass {
        key.map_or(self.default_class, |k| self.classify(k))
    }

    /// Classifies `pkt` by its flow `key` (as
    /// [`classify_opt`](Self::classify_opt)) and stamps the class on the
    /// packet — the only write to [`Packet::class`] there is — returning
    /// it for the caller's per-class books.
    pub fn stamp(&self, pkt: &mut Packet, key: Option<&FlowKey>) -> TrafficClass {
        let class = self.classify_opt(key);
        pkt.class = Some(class);
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src_port: u16, dst_port: u16) -> FlowKey {
        FlowKey {
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            proto: 17,
            src_port,
            dst_port,
        }
    }

    #[test]
    fn class_indices_are_dense_and_ordered_by_priority() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert!(TrafficClass::Control.index() < TrafficClass::Bulk.index());
    }

    #[test]
    fn most_specific_rule_wins_regardless_of_order() {
        let a = MatchRule::src_port(7000, TrafficClass::Control);
        let b = MatchRule::any(TrafficClass::Bulk);
        let fwd = Classifier::new(vec![a, b], TrafficClass::Bulk);
        let rev = Classifier::new(vec![b, a], TrafficClass::Bulk);
        let k = key(7000, 9);
        assert_eq!(fwd.classify(&k), TrafficClass::Control);
        assert_eq!(rev.classify(&k), TrafficClass::Control);
        assert_eq!(fwd.classify(&key(7001, 9)), TrafficClass::Bulk);
    }

    #[test]
    fn specificity_tie_goes_to_higher_priority_class() {
        let a = MatchRule::src_port(5000, TrafficClass::Realtime);
        let b = MatchRule::dst_port(9, TrafficClass::Control);
        let k = key(5000, 9); // Both match with specificity 1.
        for rules in [vec![a, b], vec![b, a]] {
            let c = Classifier::new(rules, TrafficClass::Bulk);
            assert_eq!(c.classify(&k), TrafficClass::Control);
        }
    }

    #[test]
    fn unmatched_and_unparsed_fall_to_default() {
        let c = Classifier::new(
            vec![MatchRule::src_port(7000, TrafficClass::Control)],
            TrafficClass::Bulk,
        );
        assert_eq!(c.classify(&key(1, 2)), TrafficClass::Bulk);
        assert_eq!(c.classify_opt(None), TrafficClass::Bulk);
        assert_eq!(c.classify_opt(Some(&key(7000, 2))), TrafficClass::Control);
        // Stamping writes the class it computed, and only then.
        let mut pkt = Packet::from_frame(crate::packet::PacketId(0), vec![0u8; 60]);
        assert_eq!(pkt.class(), None);
        assert_eq!(c.stamp(&mut pkt, Some(&key(7000, 2))), TrafficClass::Control);
        assert_eq!(pkt.class(), Some(TrafficClass::Control));
    }

    #[test]
    fn proto_constraint_participates_in_matching() {
        let r = MatchRule {
            proto: Some(6),
            src_port: None,
            dst_port: None,
            class: TrafficClass::Realtime,
        };
        let c = Classifier::new(vec![r], TrafficClass::Bulk);
        let mut k = key(1, 2);
        assert_eq!(c.classify(&k), TrafficClass::Bulk); // proto 17
        k.proto = 6;
        assert_eq!(c.classify(&k), TrafficClass::Realtime);
        assert_eq!(r.specificity(), 1);
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Decodes a drawn tuple into a rule over a deliberately tiny
        /// field domain (two protos, four src ports, three dst ports) so
        /// rules and keys actually collide — unconstrained u16 ports
        /// would almost never exercise the overlapping-rule tie-breaks.
        fn rule(raw: (u8, u8, u8, usize)) -> MatchRule {
            let (proto, src, dst, class) = raw;
            MatchRule {
                proto: [None, Some(6), Some(17)][proto as usize],
                src_port: if src == 0 { None } else { Some(6_999 + u16::from(src)) },
                dst_port: if dst == 0 { None } else { Some(8 + u16::from(dst)) },
                class: TrafficClass::ALL[class],
            }
        }

        proptest! {
            /// Every frame maps to exactly one class, independent of the
            /// order the match rules were written in: rotating or
            /// reversing the rule list never changes a classification
            /// (most-specific rule wins; specificity ties break to the
            /// lowest class index, a property of the *set*, not the
            /// list).
            #[test]
            fn classification_is_rule_order_independent(
                raw_rules in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4, 0usize..3), 0..6),
                default_i in 0usize..3,
                raw_key in (0u8..2, 7_000u16..7_004, 9u16..12),
                rot in 0usize..6,
            ) {
                let rules: Vec<MatchRule> = raw_rules.into_iter().map(rule).collect();
                let default = TrafficClass::ALL[default_i];
                let k = FlowKey {
                    src_ip: 0x0a00_0001,
                    dst_ip: 0x0a00_0002,
                    proto: [6, 17][raw_key.0 as usize],
                    src_port: raw_key.1,
                    dst_port: raw_key.2,
                };
                let got = Classifier::new(rules.clone(), default).classify(&k);

                let mut rotated = rules.clone();
                rotated.rotate_left(rot % rules.len().max(1));
                prop_assert_eq!(
                    Classifier::new(rotated, default).classify(&k),
                    got,
                    "rotation changed the class"
                );

                let mut reversed = rules;
                reversed.reverse();
                prop_assert_eq!(
                    Classifier::new(reversed, default).classify(&k),
                    got,
                    "reversal changed the class"
                );
            }
        }
    }
}
