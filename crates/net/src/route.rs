//! A longest-prefix-match IPv4 routing table (binary trie).
//!
//! The router-under-test needs a real route lookup on every forwarded
//! packet. This is a path-compressed-free, straightforward binary trie —
//! the structure BSD `radix.c` approximates — with longest-prefix-match
//! semantics, default routes, and deletion.

use std::net::Ipv4Addr;

/// The interface index type used throughout the simulation.
pub type IfaceId = usize;

/// What a route resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NextHop {
    /// The output interface.
    pub iface: IfaceId,
    /// The IP of the next gateway, or `None` when the destination is
    /// directly attached (deliver to the destination's own MAC).
    pub gateway: Option<Ipv4Addr>,
}

#[derive(Clone, Debug, Default)]
struct Node {
    children: [Option<Box<Node>>; 2],
    entry: Option<NextHop>,
}

/// An IPv4 longest-prefix-match routing table.
///
/// # Examples
///
/// ```
/// use livelock_net::route::{NextHop, RouteTable};
/// use std::net::Ipv4Addr;
///
/// let mut rt = RouteTable::new();
/// rt.insert(Ipv4Addr::new(10, 1, 0, 0), 16, NextHop { iface: 1, gateway: None });
/// rt.insert(Ipv4Addr::new(0, 0, 0, 0), 0, NextHop { iface: 0, gateway: Some(Ipv4Addr::new(10, 0, 0, 254)) });
/// let hop = rt.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
/// assert_eq!(hop.iface, 1);
/// let hop = rt.lookup(Ipv4Addr::new(192, 168, 0, 1)).unwrap();
/// assert_eq!(hop.iface, 0, "falls back to the default route");
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    root: Node,
    len: usize,
}

fn bit(addr: u32, depth: u8) -> usize {
    ((addr >> (31 - depth)) & 1) as usize
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Inserts (or replaces) a route for `prefix/len`.
    ///
    /// Host bits beyond the prefix length are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn insert(&mut self, prefix: Ipv4Addr, len: u8, hop: NextHop) {
        assert!(len <= 32, "prefix length out of range");
        let addr = u32::from(prefix);
        let mut node = &mut self.root;
        for depth in 0..len {
            let b = bit(addr, depth);
            node = node.children[b].get_or_insert_with(Box::default);
        }
        if node.entry.replace(hop).is_none() {
            self.len += 1;
        }
    }

    /// Looks up the longest-prefix-match next hop for `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<NextHop> {
        let addr = u32::from(dst);
        let mut node = &self.root;
        let mut best = node.entry;
        for depth in 0..32 {
            let b = bit(addr, depth);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if node.entry.is_some() {
                        best = node.entry;
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Returns the number of installed routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    fn hop(iface: IfaceId) -> NextHop {
        NextHop {
            iface,
            gateway: None,
        }
    }

    #[test]
    fn empty_table_matches_nothing() {
        let rt = RouteTable::new();
        assert_eq!(rt.lookup(Ipv4Addr::new(1, 2, 3, 4)), None);
        assert!(rt.is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, hop(1));
        rt.insert(Ipv4Addr::new(10, 1, 0, 0), 16, hop(2));
        rt.insert(Ipv4Addr::new(10, 1, 2, 0), 24, hop(3));
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 9, 9, 9)).unwrap().iface, 1);
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 1, 9, 9)).unwrap().iface, 2);
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 1, 2, 9)).unwrap().iface, 3);
        assert_eq!(rt.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
        assert_eq!(rt.len(), 3);
    }

    #[test]
    fn default_route() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::UNSPECIFIED, 0, hop(0));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(255, 255, 255, 255)).unwrap().iface,
            0
        );
        assert_eq!(rt.lookup(Ipv4Addr::new(0, 0, 0, 0)).unwrap().iface, 0);
    }

    #[test]
    fn host_route_is_most_specific() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, hop(1));
        rt.insert(Ipv4Addr::new(10, 0, 0, 5), 32, hop(7));
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 0, 0, 5)).unwrap().iface, 7);
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 0, 0, 6)).unwrap().iface, 1);
    }

    #[test]
    fn host_bits_ignored_on_insert() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 1, 2, 3), 16, hop(4));
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 1, 200, 200)).unwrap().iface, 4);
    }

    #[test]
    fn replace_does_not_grow_the_table() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, hop(1));
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, hop(2));
        assert_eq!(rt.len(), 1, "replace does not grow the table");
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap().iface, 2);
    }

    #[test]
    fn gateway_is_preserved() {
        let mut rt = RouteTable::new();
        let gw = Ipv4Addr::new(10, 0, 0, 254);
        rt.insert(
            Ipv4Addr::new(172, 16, 0, 0),
            12,
            NextHop {
                iface: 3,
                gateway: Some(gw),
            },
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(172, 17, 0, 1)).unwrap().gateway,
            Some(gw)
        );
    }

    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn trie_agrees_with_linear_scan(
            routes in proptest::collection::vec((any::<u32>(), 0u8..=32, 0usize..4), 1..40),
            probes in proptest::collection::vec(any::<u32>(), 1..50),
        ) {
            let mut rt = RouteTable::new();
            // Linear-scan reference model: (masked prefix, len, iface),
            // later inserts replace earlier ones with identical prefix/len.
            let mut model: Vec<(u32, u8, usize)> = Vec::new();
            for &(p, len, iface) in &routes {
                let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
                let masked = p & mask;
                rt.insert(Ipv4Addr::from(p), len, hop(iface));
                model.retain(|&(mp, ml, _)| !(mp == masked && ml == len));
                model.push((masked, len, iface));
            }
            for &probe in &probes {
                let expect = model
                    .iter()
                    .filter(|&&(mp, ml, _)| {
                        let mask = if ml == 0 { 0 } else { u32::MAX << (32 - ml) };
                        probe & mask == mp
                    })
                    .max_by_key(|&&(_, ml, _)| ml)
                    .map(|&(_, _, iface)| iface);
                let got = rt.lookup(Ipv4Addr::from(probe)).map(|h| h.iface);
                prop_assert_eq!(got, expect);
            }
        }
    }
}
