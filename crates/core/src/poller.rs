//! The round-robin polling scheduler with packet quotas (paper §6.4).
//!
//! In the modified kernel, interrupt handlers only mark their device
//! "needs service" and wake the polling thread. The thread then asks this
//! scheduler what to do next; it answers with (device, direction, quota)
//! actions in round-robin order over every registered device's receive and
//! transmit sides, "to prevent a single input stream from monopolizing the
//! CPU". Callbacks report back whether the device still has pending work.

use core::fmt;

/// Identifies a registered event source (one network device).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub usize);

/// Which half of a device an action services.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PollDirection {
    /// Handle received packets (paper: the received-packet callback).
    Receive,
    /// Handle transmit completions and refill the transmit ring.
    Transmit,
}

/// A per-callback packet quota (paper §6.6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quota {
    /// Process at most this many packets per callback. The paper found
    /// "a quota of between 10 and 20 packets yields stable and near-optimum
    /// behavior" on its hardware.
    Limited(u32),
    /// No quota — the configuration that livelocks in Figure 6-3.
    Unlimited,
}

impl Quota {
    /// Returns the numeric limit, if any.
    pub fn limit(self) -> Option<u32> {
        match self {
            Quota::Limited(n) => Some(n),
            Quota::Unlimited => None,
        }
    }

    /// Returns `true` when `processed` packets exhaust this quota.
    pub fn exhausted_by(self, processed: u32) -> bool {
        match self {
            Quota::Limited(n) => processed >= n,
            Quota::Unlimited => false,
        }
    }
}

impl fmt::Display for Quota {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quota::Limited(n) => write!(f, "{n}"),
            Quota::Unlimited => f.write_str("infinity"),
        }
    }
}

/// One scheduling decision: run this device's callback in this direction,
/// processing at most `quota` packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollAction {
    /// The device to service.
    pub source: SourceId,
    /// Receive or transmit side.
    pub dir: PollDirection,
    /// How many packets the callback may handle before returning.
    pub quota: Quota,
}

#[derive(Clone, Copy, Debug, Default)]
struct SourceState {
    rx_pending: bool,
    tx_pending: bool,
}

/// The round-robin poll scheduler.
///
/// # Examples
///
/// ```
/// use livelock_core::poller::{PollDirection, Poller, Quota};
///
/// let mut p = Poller::new(Quota::Limited(10), Quota::Limited(10));
/// let eth0 = p.register();
/// let eth1 = p.register();
/// p.request(eth0, PollDirection::Receive);
/// p.request(eth1, PollDirection::Receive);
/// let a = p.next_action().unwrap();
/// assert_eq!(a.source, eth0);
/// // The callback reports "still more work pending".
/// p.complete(a.source, a.dir, 10, true);
/// // Round-robin: eth1 is served before eth0 comes around again.
/// assert_eq!(p.next_action().unwrap().source, eth1);
/// ```
#[derive(Clone, Debug)]
pub struct Poller {
    sources: Vec<SourceState>,
    rx_quota: Quota,
    tx_quota: Quota,
    /// Next slot to examine; slots are (source, direction) pairs laid out as
    /// `source * 2 + {0: rx, 1: tx}`.
    cursor: usize,
    rx_inhibited: bool,
    packets_reported: u64,
}

impl Poller {
    /// Creates a scheduler with the given receive and transmit quotas.
    pub fn new(rx_quota: Quota, tx_quota: Quota) -> Self {
        Poller {
            sources: Vec::new(),
            rx_quota,
            tx_quota,
            cursor: 0,
            rx_inhibited: false,
            packets_reported: 0,
        }
    }

    /// Registers a device (paper: "at boot time, the modified interface
    /// drivers register themselves with the polling system").
    pub fn register(&mut self) -> SourceId {
        self.sources.push(SourceState::default());
        SourceId(self.sources.len() - 1)
    }

    /// Marks a device as needing service (called from the interrupt stub).
    ///
    /// # Panics
    ///
    /// Panics on an unregistered source.
    pub fn request(&mut self, source: SourceId, dir: PollDirection) {
        let s = &mut self.sources[source.0];
        match dir {
            PollDirection::Receive => s.rx_pending = true,
            PollDirection::Transmit => s.tx_pending = true,
        }
    }

    /// Inhibits (or resumes) receive actions. Transmit actions are not
    /// affected — the paper's feedback and cycle-limit mechanisms inhibit
    /// "input processing but not output processing".
    pub fn set_rx_inhibited(&mut self, inhibited: bool) {
        self.rx_inhibited = inhibited;
    }

    /// Picks the next (device, direction) to service, round-robin, or
    /// `None` when nothing serviceable is pending.
    pub fn next_action(&mut self) -> Option<PollAction> {
        let slots = self.sources.len() * 2;
        if slots == 0 {
            return None;
        }
        // Slots wrap by compare: `cursor < slots` always holds.
        let next = |slot: usize| if slot + 1 == slots { 0 } else { slot + 1 };
        let mut slot = self.cursor;
        for _ in 0..slots {
            let source = SourceId(slot / 2);
            let dir = if slot % 2 == 0 {
                PollDirection::Receive
            } else {
                PollDirection::Transmit
            };
            if !self.slot_serviceable(source, dir) {
                slot = next(slot);
                continue;
            }
            self.cursor = next(slot);
            let quota = match dir {
                PollDirection::Receive => self.rx_quota,
                PollDirection::Transmit => self.tx_quota,
            };
            return Some(PollAction { source, dir, quota });
        }
        None
    }

    fn slot_serviceable(&self, source: SourceId, dir: PollDirection) -> bool {
        let s = &self.sources[source.0];
        match dir {
            PollDirection::Receive => s.rx_pending && !self.rx_inhibited,
            PollDirection::Transmit => s.tx_pending,
        }
    }

    /// Reports a finished callback: how many packets it handled and whether
    /// the device still has work in that direction.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered source.
    pub fn complete(&mut self, source: SourceId, dir: PollDirection, processed: u32, more: bool) {
        self.packets_reported += u64::from(processed);
        let s = &mut self.sources[source.0];
        match dir {
            PollDirection::Receive => s.rx_pending = more,
            PollDirection::Transmit => s.tx_pending = more,
        }
    }

    /// Returns `true` while any serviceable work is pending (decides whether
    /// the polling thread keeps running or re-enables interrupts and
    /// sleeps).
    pub fn any_serviceable(&self) -> bool {
        (0..self.sources.len()).any(|i| {
            self.slot_serviceable(SourceId(i), PollDirection::Receive)
                || self.slot_serviceable(SourceId(i), PollDirection::Transmit)
        })
    }

    /// Returns `true` when the device has pending work in `dir`.
    pub fn is_pending(&self, source: SourceId, dir: PollDirection) -> bool {
        let s = &self.sources[source.0];
        match dir {
            PollDirection::Receive => s.rx_pending,
            PollDirection::Transmit => s.tx_pending,
        }
    }

    /// Returns the configured quota for a direction.
    pub fn quota(&self, dir: PollDirection) -> Quota {
        match dir {
            PollDirection::Receive => self.rx_quota,
            PollDirection::Transmit => self.tx_quota,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn poller_with(n: usize) -> (Poller, Vec<SourceId>) {
        let mut p = Poller::new(Quota::Limited(5), Quota::Limited(5));
        let ids = (0..n).map(|_| p.register()).collect();
        (p, ids)
    }

    #[test]
    fn empty_poller_yields_nothing() {
        let mut p = Poller::new(Quota::Unlimited, Quota::Unlimited);
        assert_eq!(p.next_action(), None);
        assert!(p.sources.is_empty());
    }

    #[test]
    fn quota_properties() {
        assert!(Quota::Limited(5).exhausted_by(5));
        assert!(!Quota::Limited(5).exhausted_by(4));
        assert!(!Quota::Unlimited.exhausted_by(u32::MAX));
        assert_eq!(Quota::Limited(7).limit(), Some(7));
        assert_eq!(Quota::Unlimited.limit(), None);
        assert_eq!(Quota::Limited(10).to_string(), "10");
        assert_eq!(Quota::Unlimited.to_string(), "infinity");
    }

    #[test]
    fn rx_before_tx_within_a_source() {
        let (mut p, ids) = poller_with(1);
        p.request(ids[0], PollDirection::Transmit);
        p.request(ids[0], PollDirection::Receive);
        assert_eq!(p.next_action().unwrap().dir, PollDirection::Receive);
        p.complete(ids[0], PollDirection::Receive, 5, false);
        assert_eq!(p.next_action().unwrap().dir, PollDirection::Transmit);
    }

    #[test]
    fn round_robin_across_sources() {
        let (mut p, ids) = poller_with(3);
        for &id in &ids {
            p.request(id, PollDirection::Receive);
        }
        // Every source stays pending; each round serves them in order.
        for round in 0..4 {
            for &id in &ids {
                let a = p.next_action().unwrap();
                assert_eq!(a.source, id, "round {round}");
                assert_eq!(a.dir, PollDirection::Receive);
                p.complete(a.source, a.dir, 5, true);
            }
        }
    }

    #[test]
    fn completion_with_no_more_work_clears_pending() {
        let (mut p, ids) = poller_with(1);
        p.request(ids[0], PollDirection::Receive);
        let a = p.next_action().unwrap();
        p.complete(a.source, a.dir, 3, false);
        assert!(!p.is_pending(ids[0], PollDirection::Receive));
        assert_eq!(p.next_action(), None);
        assert_eq!(p.packets_reported, 3);
    }

    #[test]
    fn rx_inhibit_skips_receive_but_not_transmit() {
        let (mut p, ids) = poller_with(2);
        p.request(ids[0], PollDirection::Receive);
        p.request(ids[1], PollDirection::Transmit);
        p.set_rx_inhibited(true);
        let a = p.next_action().unwrap();
        assert_eq!(a.dir, PollDirection::Transmit);
        assert_eq!(a.source, ids[1]);
        p.complete(a.source, a.dir, 1, false);
        assert_eq!(p.next_action(), None, "rx still inhibited");
        assert!(
            p.is_pending(ids[0], PollDirection::Receive),
            "inhibited rx work is still pending"
        );
        assert!(!p.any_serviceable());
        p.set_rx_inhibited(false);
        assert_eq!(p.next_action().unwrap().source, ids[0]);
    }

    #[test]
    fn request_is_idempotent() {
        let (mut p, ids) = poller_with(1);
        p.request(ids[0], PollDirection::Receive);
        p.request(ids[0], PollDirection::Receive);
        let a = p.next_action().unwrap();
        p.complete(a.source, a.dir, 5, false);
        assert_eq!(p.next_action(), None, "double request != double service");
    }

    proptest! {
        /// Fairness: with every slot always pending, over S*k consecutive
        /// actions every (source, direction) slot is served exactly k times,
        /// and no slot is ever served twice before another pending slot is
        /// served once in between rounds.
        #[test]
        fn fair_service_under_saturation(n_sources in 1usize..8, rounds in 1usize..20) {
            let (mut p, ids) = poller_with(n_sources);
            for &id in &ids {
                p.request(id, PollDirection::Receive);
                p.request(id, PollDirection::Transmit);
            }
            let slots = n_sources * 2;
            let mut served = vec![0u32; slots];
            for _ in 0..slots * rounds {
                let a = p.next_action().unwrap();
                let slot = a.source.0 * 2 + matches!(a.dir, PollDirection::Transmit) as usize;
                served[slot] += 1;
                p.complete(a.source, a.dir, 1, true);
            }
            for (slot, &count) in served.iter().enumerate() {
                prop_assert_eq!(count, rounds as u32, "slot {}", slot);
            }
        }

        /// No starvation: a slot that becomes pending is served within one
        /// full rotation (2 * num_sources actions).
        #[test]
        fn bounded_service_delay(n_sources in 2usize..8, victim in 0usize..8) {
            let victim = victim % n_sources;
            let (mut p, ids) = poller_with(n_sources);
            // Everyone else is persistently busy.
            for (i, &id) in ids.iter().enumerate() {
                if i != victim {
                    p.request(id, PollDirection::Receive);
                    p.request(id, PollDirection::Transmit);
                }
            }
            // Let the poller run a few arbitrary actions first.
            for _ in 0..3 {
                if let Some(a) = p.next_action() {
                    p.complete(a.source, a.dir, 1, true);
                }
            }
            p.request(ids[victim], PollDirection::Receive);
            let budget = n_sources * 2;
            let mut found = false;
            for _ in 0..budget {
                let a = p.next_action().unwrap();
                if a.source == ids[victim] && a.dir == PollDirection::Receive {
                    found = true;
                    break;
                }
                p.complete(a.source, a.dir, 1, true);
            }
            prop_assert!(found, "victim not served within one rotation");
        }
    }
}
