//! The zero-allocation per-flow metrics registry.
//!
//! Livelock is not uniform across traffic: under overload some flows keep
//! a trickle of service while others starve outright, and an aggregate
//! delivered-rate curve cannot show which. [`FlowRegistry`] attributes
//! every wire arrival, drop and delivery to its 5-tuple flow — the same
//! 5-tuple (in the same order) the multiqueue NIC's RSS hash consumes —
//! so a trial can report per-flow goodput, per-flow drop taxonomy and
//! per-flow latency next to the aggregates.
//!
//! The registry is a fixed-size open-addressed table allocated once at
//! build time: recording never allocates, and a run with more flows than
//! slots counts the excess in [`FlowRegistry::overflow_arrivals`] instead
//! of growing. It exists only when
//! [`KernelConfig::observe`](crate::config::KernelConfig::observe) is set;
//! every mutation path goes through [`KernelStats`](crate::stats::KernelStats)
//! hooks that are no-ops when it is absent, so the disabled configuration
//! is bit-identical to a build without the observability layer.

use livelock_machine::nic::rss_hash;
use livelock_net::{FlowKey, TrafficClass};
use livelock_sim::{Cycles, Freq, HdrHistogram};

use crate::stats::{DropReason, DropStats};

/// Everything one flow did in a trial.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowStats {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// The flow's RSS hash ([`rss_hash`]): the registry buckets by the
    /// same number the multiqueue NIC steers by.
    pub hash: u64,
    /// Wire arrivals attributed to this flow.
    pub arrived: u64,
    /// Packets of this flow delivered (transmitted on an output wire or
    /// consumed by the local application).
    pub delivered: u64,
    /// Per-cause drops attributed to this flow.
    pub drops: DropStats,
    /// Wire-to-delivery latency distribution of this flow's delivered
    /// packets.
    pub latency: HdrHistogram,
    /// Cycle timestamp of the flow's first delivery (`None` until one).
    pub first_delivery: Option<Cycles>,
    /// Cycle timestamp of the flow's most recent delivery.
    pub last_delivery: Option<Cycles>,
    /// The traffic class the classifier assigned this flow (`None` when
    /// classification is off). A deterministic classifier maps a
    /// 5-tuple to exactly one class, so the stamp never flaps.
    pub class: Option<TrafficClass>,
}

impl FlowStats {
    fn new(key: FlowKey, hash: u64) -> Self {
        FlowStats {
            key,
            hash,
            arrived: 0,
            delivered: 0,
            drops: DropStats::new(),
            latency: HdrHistogram::new(),
            first_delivery: None,
            last_delivery: None,
            class: None,
        }
    }

    /// Folds another flow's records into this one (same key;
    /// commutative, for SMP per-CPU merges).
    fn absorb(&mut self, other: &FlowStats) {
        debug_assert_eq!(self.key, other.key, "absorb mixes flows");
        self.arrived = self.arrived.saturating_add(other.arrived);
        self.delivered = self.delivered.saturating_add(other.delivered);
        self.drops.merge(&other.drops);
        self.latency.merge(&other.latency);
        self.first_delivery = match (self.first_delivery, other.first_delivery) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_delivery = self.last_delivery.max(other.last_delivery);
        self.class = self.class.or(other.class);
    }
}

/// Entries in [`FlowRegistry`]'s key → slot memo (a power of two).
const MEMO_ENTRIES: usize = 16;

/// The memo entry for `key`: an xor-fold of its addresses and ports.
/// Flows that differ only in a port (every generated flow set) land in
/// distinct entries for up to [`MEMO_ENTRIES`] consecutive ports.
fn memo_index(key: FlowKey) -> usize {
    let ports = u32::from(key.src_port) << 16 | u32::from(key.dst_port);
    let x = key.src_ip ^ key.dst_ip ^ ports;
    let x = x ^ (x >> 16);
    (x ^ (x >> 8)) as usize & (MEMO_ENTRIES - 1)
}

/// Distinct flows a kernel's registry — and its livelock detector's
/// starvation watch — tracks; later flows count as overflow instead of
/// growing the table.
pub(crate) const FLOW_SLOTS: usize = 128;

/// Fixed-size per-flow metrics table, keyed by 5-tuple via the NIC's RSS
/// hash with linear probing. All storage is allocated in
/// [`FlowRegistry::new`]; recording never allocates.
#[derive(Clone, Debug)]
pub struct FlowRegistry {
    slots: Vec<Option<FlowStats>>,
    occupied: usize,
    overflow_arrivals: u64,
    unattributed_arrivals: u64,
    /// Direct-mapped `(key, slot)` memo indexed by [`memo_index`]: a hit
    /// resolves a flow with no hash and no probe. Flows are never
    /// evicted, so an entry stays right for the registry's lifetime.
    memo: [Option<(FlowKey, usize)>; MEMO_ENTRIES],
}

/// Equality is over the recorded contents; the memo is an
/// implementation detail, not part of the value.
impl PartialEq for FlowRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.occupied == other.occupied
            && self.overflow_arrivals == other.overflow_arrivals
            && self.unattributed_arrivals == other.unattributed_arrivals
    }
}

impl FlowRegistry {
    /// Creates an empty registry with capacity for `slots` distinct flows
    /// (at least one).
    pub fn new(slots: usize) -> Self {
        FlowRegistry {
            slots: vec![None; slots.max(1)],
            occupied: 0,
            overflow_arrivals: 0,
            unattributed_arrivals: 0,
            memo: [None; MEMO_ENTRIES],
        }
    }

    /// Finds (or inserts) the slot for `key`: the memo, else a linear
    /// probe from the RSS hash's home bucket. `None` when the table is
    /// full and the key is not already present.
    fn slot_for(&mut self, key: FlowKey) -> Option<usize> {
        let m = memo_index(key);
        if let Some((k, i)) = self.memo[m] {
            if k == key {
                return Some(i);
            }
        }
        let hash = rss_hash(&key);
        let i = self.probe(key, hash)?;
        if self.slots[i].is_none() {
            self.slots[i] = Some(FlowStats::new(key, hash));
            self.occupied += 1;
        }
        self.memo[m] = Some((key, i));
        Some(i)
    }

    /// Linear probe for `key` from its home bucket: the slot holding it,
    /// else the first empty slot on its path, else `None` (table full).
    fn probe(&self, key: FlowKey, hash: u64) -> Option<usize> {
        let cap = self.slots.len();
        let mut i = (hash % cap as u64) as usize;
        for _ in 0..cap {
            match &self.slots[i] {
                Some(s) if s.key != key => {}
                _ => return Some(i),
            }
            i += 1;
            if i == cap {
                i = 0;
            }
        }
        None
    }

    /// Records one wire arrival. `None` keys (non-IP or malformed frames)
    /// count as unattributed; keys that find the table full count as
    /// overflow — so attributed + unattributed + overflow arrivals always
    /// equals the kernel's total arrival count.
    pub fn record_arrival(&mut self, key: Option<FlowKey>) {
        match key {
            None => self.unattributed_arrivals += 1,
            Some(k) => match self.slot_for(k) {
                Some(i) => {
                    if let Some(s) = &mut self.slots[i] {
                        s.arrived += 1;
                    }
                }
                None => self.overflow_arrivals += 1,
            },
        }
    }

    /// Stamps `key`'s flow with the traffic class the classifier
    /// assigned it (no-op for unattributed or overflowed flows). The
    /// classifier is deterministic over the 5-tuple, so repeated stamps
    /// always agree.
    pub fn note_class(&mut self, key: Option<FlowKey>, class: TrafficClass) {
        if let Some(i) = key.and_then(|k| self.slot_for(k)) {
            if let Some(s) = &mut self.slots[i] {
                s.class = Some(class);
            }
        }
    }

    /// Attributes one drop to `key`'s flow (no-op for unattributed or
    /// overflowed flows — the aggregate [`DropStats`] still counts them).
    pub fn record_drop(&mut self, key: Option<FlowKey>, reason: DropReason) {
        if let Some(i) = key.and_then(|k| self.slot_for(k)) {
            if let Some(s) = &mut self.slots[i] {
                s.drops.record(reason);
            }
        }
    }

    /// Attributes one delivery to `key`'s flow: bumps its delivered
    /// count, records the wire-to-delivery sojourn `[arrived, end)` in
    /// its latency histogram, and advances its first/last delivery
    /// timestamps.
    pub fn record_delivery(
        &mut self,
        key: Option<FlowKey>,
        arrived: Cycles,
        end: Cycles,
        freq: Freq,
    ) {
        if let Some(i) = key.and_then(|k| self.slot_for(k)) {
            if let Some(s) = &mut self.slots[i] {
                s.delivered += 1;
                s.latency.record(freq.nanos_from_cycles(end.saturating_sub(arrived)));
                s.first_delivery = Some(s.first_delivery.map_or(end, |f| f.min(end)));
                s.last_delivery = Some(s.last_delivery.map_or(end, |l| l.max(end)));
            }
        }
    }

    /// Distinct flows currently tracked.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` when no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Slot capacity the registry was built with.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Arrivals whose flow found the table full.
    pub fn overflow_arrivals(&self) -> u64 {
        self.overflow_arrivals
    }

    /// Arrivals with no parseable 5-tuple (ARP, malformed, non-IP).
    pub fn unattributed_arrivals(&self) -> u64 {
        self.unattributed_arrivals
    }

    /// Arrivals attributed to some tracked flow.
    pub fn attributed_arrivals(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.arrived)
            .sum()
    }

    /// Conservation view: attributed + unattributed + overflow — always
    /// equal to the number of [`FlowRegistry::record_arrival`] calls.
    pub fn total_arrivals(&self) -> u64 {
        self.attributed_arrivals() + self.unattributed_arrivals + self.overflow_arrivals
    }

    /// The stats slot at table index `i` (detector iteration: slot
    /// indices are stable for the registry's lifetime — flows are never
    /// evicted).
    pub fn slot(&self, i: usize) -> Option<&FlowStats> {
        self.slots.get(i).and_then(|s| s.as_ref())
    }

    /// The tracked stats for `key`, if present.
    pub fn get(&self, key: FlowKey) -> Option<&FlowStats> {
        self.slot(self.probe(key, rss_hash(&key))?)
    }

    /// Every tracked flow, sorted by 5-tuple — a canonical order
    /// independent of hash placement, so merged registries compare and
    /// print identically regardless of merge order.
    pub fn per_flow(&self) -> Vec<&FlowStats> {
        let mut out: Vec<&FlowStats> = self.slots.iter().flatten().collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// Folds another registry into this one, key by key (SMP
    /// aggregation). Commutative up to [`FlowRegistry::per_flow`] order:
    /// merging A into B and B into A yield the same sorted flow list.
    /// Flows that cannot be placed (table full) surrender their arrivals
    /// to the overflow count, preserving arrival conservation.
    pub fn merge(&mut self, other: &FlowRegistry) {
        for s in other.slots.iter().flatten() {
            match self.slot_for(s.key) {
                Some(i) => {
                    if let Some(mine) = &mut self.slots[i] {
                        mine.absorb(s);
                    }
                }
                None => self.overflow_arrivals += s.arrived,
            }
        }
        self.overflow_arrivals += other.overflow_arrivals;
        self.unattributed_arrivals += other.unattributed_arrivals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livelock_sim::Nanos;

    fn key(port: u16) -> FlowKey {
        FlowKey {
            src_ip: 0x0a000002,
            dst_ip: 0x0a010063,
            proto: 17,
            src_port: port,
            dst_port: 9,
        }
    }

    #[test]
    fn arrivals_conserve_across_attribution_classes() {
        let mut r = FlowRegistry::new(2);
        r.record_arrival(Some(key(1)));
        r.record_arrival(Some(key(1)));
        r.record_arrival(Some(key(2)));
        r.record_arrival(Some(key(3))); // table full -> overflow
        r.record_arrival(None); // ARP -> unattributed
        assert_eq!(r.len(), 2);
        assert_eq!(r.attributed_arrivals(), 3);
        assert_eq!(r.overflow_arrivals(), 1);
        assert_eq!(r.unattributed_arrivals(), 1);
        assert_eq!(r.total_arrivals(), 5);
        assert_eq!(r.get(key(1)).unwrap().arrived, 2);
    }

    #[test]
    fn delivery_records_latency_and_first_last() {
        let freq = Freq::mhz(1_000); // 1 cycle == 1 ns
        let mut r = FlowRegistry::new(8);
        r.record_arrival(Some(key(7)));
        r.record_delivery(Some(key(7)), Cycles::new(100), Cycles::new(400), freq);
        r.record_delivery(Some(key(7)), Cycles::new(500), Cycles::new(600), freq);
        let s = r.get(key(7)).unwrap();
        assert_eq!(s.delivered, 2);
        assert_eq!(s.first_delivery, Some(Cycles::new(400)));
        assert_eq!(s.last_delivery, Some(Cycles::new(600)));
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.min(), Nanos::new(100));
    }

    #[test]
    fn drops_attribute_per_flow() {
        let mut r = FlowRegistry::new(8);
        r.record_arrival(Some(key(4)));
        r.record_drop(Some(key(4)), DropReason::IpintrqFull);
        r.record_drop(None, DropReason::RxRingFull); // silently unattributed
        let s = r.get(key(4)).unwrap();
        assert_eq!(s.drops.get(DropReason::IpintrqFull), 1);
        assert_eq!(s.drops.total(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let freq = Freq::mhz(1_000);
        let build = |ports: &[u16]| {
            let mut r = FlowRegistry::new(16);
            for (n, &p) in ports.iter().enumerate() {
                r.record_arrival(Some(key(p)));
                r.record_delivery(
                    Some(key(p)),
                    Cycles::new(10),
                    Cycles::new(20 + n as u64 * 10),
                    freq,
                );
            }
            r.record_arrival(None);
            r
        };
        let a = build(&[3, 1, 2]);
        let b = build(&[2, 5, 1]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Hash placement may differ; the canonical sorted view must not.
        let fa: Vec<FlowStats> = ab.per_flow().into_iter().cloned().collect();
        let fb: Vec<FlowStats> = ba.per_flow().into_iter().cloned().collect();
        assert_eq!(fa, fb);
        assert_eq!(ab.total_arrivals(), ba.total_arrivals());
        assert_eq!(ab.unattributed_arrivals(), 2);
    }

    #[test]
    fn merge_overflow_preserves_arrival_conservation() {
        let mut a = FlowRegistry::new(1);
        a.record_arrival(Some(key(1)));
        let mut b = FlowRegistry::new(1);
        b.record_arrival(Some(key(2)));
        let total = a.total_arrivals() + b.total_arrivals();
        a.merge(&b);
        assert_eq!(a.total_arrivals(), total, "arrivals survive a full merge");
        assert_eq!(a.overflow_arrivals(), 1);
    }

    /// The registry's placement without its memo: a linear probe stepping
    /// by `%`, inserting at the first empty slot.
    fn reference_slot(table: &mut [Option<FlowKey>], key: FlowKey) -> Option<usize> {
        let cap = table.len();
        let home = (rss_hash(&key) % cap as u64) as usize;
        for probe in 0..cap {
            let i = (home + probe) % cap;
            match table[i] {
                Some(k) if k == key => return Some(i),
                Some(_) => continue,
                None => {
                    table[i] = Some(key);
                    return Some(i);
                }
            }
        }
        None
    }

    #[test]
    fn memo_placement_equals_a_memo_less_probe() {
        // 200 keys differing in address and ports (more than any table
        // here holds), drawn in a random interleaving so memo entries
        // collide and keys overflow once the table is full.
        let keys: Vec<FlowKey> = (0..200u32)
            .map(|n| FlowKey {
                src_ip: 0x0a00_0000 | (n % 7),
                dst_ip: 0x0a01_0063,
                proto: 17,
                src_port: 5_000 + (n * 13 % 200) as u16,
                dst_port: 9 + (n % 3) as u16,
            })
            .collect();
        let mut rng = 0xf10e5_u64;
        for cap in [1, 7, 128] {
            let mut r = FlowRegistry::new(cap);
            let mut table = vec![None; cap];
            let (mut overflow, mut unattributed) = (0, 0);
            let mut arrived = vec![0u64; cap];
            for step in 0..20_000 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = (rng >> 33) as usize % (keys.len() + 1);
                let Some(&key) = keys.get(draw) else {
                    r.record_arrival(None);
                    unattributed += 1;
                    continue;
                };
                r.record_arrival(Some(key));
                let want = reference_slot(&mut table, key);
                match want {
                    Some(i) => arrived[i] += 1,
                    None => overflow += 1,
                }
                let at = r
                    .slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|s| s.key == key));
                assert_eq!(at, want, "cap {cap} step {step}");
                assert_eq!(
                    r.slot_for(key),
                    want,
                    "cap {cap} step {step}: repeat lookup"
                );
            }
            assert_eq!(r.len(), cap, "cap {cap}: the stream fills the table");
            assert_eq!(r.overflow_arrivals(), overflow, "cap {cap}");
            assert_eq!(r.unattributed_arrivals(), unattributed, "cap {cap}");
            for (i, &n) in arrived.iter().enumerate() {
                assert_eq!(r.slot(i).map_or(0, |s| s.arrived), n, "cap {cap} slot {i}");
                assert_eq!(r.slot(i).map(|s| s.key), table[i], "cap {cap} slot {i}");
            }
            for &key in &keys {
                let home = table.iter().position(|k| *k == Some(key));
                assert_eq!(r.get(key).map(|s| s.key), home.map(|_| key), "cap {cap}");
            }
        }
    }

    #[test]
    fn per_flow_sorts_by_key() {
        let mut r = FlowRegistry::new(32);
        for p in [9, 2, 77, 4] {
            r.record_arrival(Some(key(p)));
        }
        let ports: Vec<u16> = r.per_flow().iter().map(|s| s.key.src_port).collect();
        assert_eq!(ports, [2, 4, 9, 77]);
    }
}
