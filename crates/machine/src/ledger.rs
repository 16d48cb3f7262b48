//! The conserved CPU-cycle ledger: every executed cycle attributed to
//! exactly one execution class.
//!
//! The paper's accounting argument (§6.2, Figure 6-1) is that under
//! overload the unmodified kernel spends ~100% of the CPU in
//! receive-interrupt context while useful output drops to zero. The
//! [`UsageReport`](crate::cpu::UsageReport) already splits cycles by
//! interrupt source and thread id, but those are *machine* identities;
//! this module adds the *semantic* classification the paper reasons in
//! ([`CpuClass`]) and a [`CycleLedger`] with a telescoping invariant:
//! the per-class totals sum **exactly** to elapsed virtual time. Nothing
//! is sampled and nothing is estimated — a ledger is a read of the
//! executor's one cycle book (its rows summed by class), so it cannot be
//! charged, only taken ([`EnvState::ledger`](crate::cpu::EnvState::ledger))
//! or built whole from nine totals ([`CycleLedger::from_totals`]).

use livelock_sim::Cycles;

/// The execution class a cycle is charged to. One and only one class per
/// cycle; the mapping from machine identities (interrupt sources, thread
/// ids) to classes is declared at registration time via
/// [`EnvState::set_ctx_class`](crate::cpu::EnvState::set_ctx_class).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuClass {
    /// Receive-interrupt handlers (device RX, the livelock driver).
    RxIntr,
    /// Transmit-completion interrupt handlers.
    TxIntr,
    /// The hardware clock interrupt.
    ClockIntr,
    /// The network software interrupt (`softnet`, IP forwarding in the
    /// unmodified kernel).
    SoftIntNet,
    /// The modified kernel's polling thread.
    PollThread,
    /// The user-mode `screend` packet-filter process.
    Screend,
    /// Other user processes (the UDP server, the Figure 7-1 compute job).
    UserProc,
    /// Everything else in the kernel: context-switch overhead, softclock,
    /// unclassified handlers and threads.
    KernelOther,
    /// The idle loop.
    Idle,
}

impl CpuClass {
    /// Number of classes.
    pub const COUNT: usize = 9;

    /// All classes, in ledger index order.
    pub const ALL: [CpuClass; CpuClass::COUNT] = [
        CpuClass::RxIntr,
        CpuClass::TxIntr,
        CpuClass::ClockIntr,
        CpuClass::SoftIntNet,
        CpuClass::PollThread,
        CpuClass::Screend,
        CpuClass::UserProc,
        CpuClass::KernelOther,
        CpuClass::Idle,
    ];

    /// The ledger slot for this class (its position in [`CpuClass::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short stable label, used as CSV column name and trace track name.
    pub const fn label(self) -> &'static str {
        match self {
            CpuClass::RxIntr => "rx_intr",
            CpuClass::TxIntr => "tx_intr",
            CpuClass::ClockIntr => "clock_intr",
            CpuClass::SoftIntNet => "softint_net",
            CpuClass::PollThread => "poll_thread",
            CpuClass::Screend => "screend",
            CpuClass::UserProc => "user_proc",
            CpuClass::KernelOther => "kernel_other",
            CpuClass::Idle => "idle",
        }
    }
}

/// Conserved per-class cycle totals.
///
/// The invariant — Σ over classes == elapsed cycles — is the same
/// telescoping discipline as the kernel's `stage_residencies`: because
/// every row of the executor's cycle book belongs to exactly one class,
/// the sum cannot drift from virtual time.
///
/// # Examples
///
/// ```
/// use livelock_machine::{CpuClass, CycleLedger};
/// use livelock_sim::Cycles;
///
/// let mut totals = [Cycles::ZERO; CpuClass::COUNT];
/// totals[CpuClass::RxIntr.index()] = Cycles::new(750);
/// totals[CpuClass::Idle.index()] = Cycles::new(250);
/// let l = CycleLedger::from_totals(totals);
/// assert_eq!(l.total(), Cycles::new(1000));
/// assert!((l.share(CpuClass::RxIntr) - 0.75).abs() < 1e-12);
/// ```
///
/// A ledger is a value: nothing outside the executor's book adds cycles
/// to one.
///
/// ```compile_fail
/// use livelock_machine::{CpuClass, CycleLedger};
/// use livelock_sim::Cycles;
///
/// let mut l = CycleLedger::new();
/// l.charge(CpuClass::RxIntr, Cycles::new(750));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleLedger {
    by_class: [Cycles; CpuClass::COUNT],
}

impl CycleLedger {
    /// Creates an empty ledger.
    pub const fn new() -> Self {
        CycleLedger {
            by_class: [Cycles::ZERO; CpuClass::COUNT],
        }
    }

    /// The ledger holding these per-class totals ([`CpuClass::ALL`]
    /// order).
    pub const fn from_totals(by_class: [Cycles; CpuClass::COUNT]) -> Self {
        CycleLedger { by_class }
    }

    /// Cycles charged to `class` so far.
    pub fn get(&self, class: CpuClass) -> Cycles {
        self.by_class[class.index()]
    }

    /// Sum over all classes. Equals elapsed virtual time when the ledger
    /// is charged by the executor.
    pub fn total(&self) -> Cycles {
        self.by_class.iter().copied().sum()
    }

    /// Fraction of the total charged to `class` (0.0 on an empty ledger).
    pub fn share(&self, class: CpuClass) -> f64 {
        self.get(class).fraction_of(self.total())
    }

    /// Per-class shares in [`CpuClass::ALL`] order; sums to 1.0 (or all
    /// zeros on an empty ledger).
    pub fn shares(&self) -> [f64; CpuClass::COUNT] {
        let total = self.total();
        let mut out = [0.0; CpuClass::COUNT];
        for (slot, cy) in out.iter_mut().zip(self.by_class) {
            *slot = cy.fraction_of(total);
        }
        out
    }

    /// The ledger of cycles accumulated since `earlier` (a snapshot of
    /// this ledger at a previous time): pointwise difference. Used for
    /// measurement-window deltas.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot of
    /// this ledger (any class would go negative).
    pub fn since(&self, earlier: &CycleLedger) -> CycleLedger {
        let mut out = CycleLedger::new();
        for (i, slot) in out.by_class.iter_mut().enumerate() {
            *slot = self.by_class[i] - earlier.by_class[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn ledger(charges: &[(CpuClass, u64)]) -> CycleLedger {
        let mut by_class = [Cycles::ZERO; CpuClass::COUNT];
        for &(class, n) in charges {
            by_class[class.index()] += cy(n);
        }
        CycleLedger::from_totals(by_class)
    }

    #[test]
    fn index_matches_all_order() {
        for (i, c) in CpuClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = CpuClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CpuClass::COUNT);
    }

    #[test]
    fn charges_accumulate_and_conserve() {
        let l = ledger(&[
            (CpuClass::RxIntr, 100),
            (CpuClass::RxIntr, 50),
            (CpuClass::UserProc, 30),
            (CpuClass::Idle, 20),
        ]);
        assert_eq!(l.get(CpuClass::RxIntr), cy(150));
        assert_eq!(l.total(), cy(200));
        let shares = l.shares();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to 1, got {sum}");
    }

    #[test]
    fn empty_ledger_has_zero_shares() {
        let l = CycleLedger::new();
        assert_eq!(l.total(), Cycles::ZERO);
        assert_eq!(l.share(CpuClass::Idle), 0.0);
        assert!(l.shares().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn since_is_pointwise_difference() {
        let snapshot = ledger(&[(CpuClass::RxIntr, 100)]);
        let a = ledger(&[(CpuClass::RxIntr, 140), (CpuClass::Idle, 60)]);
        let d = a.since(&snapshot);
        assert_eq!(d.get(CpuClass::RxIntr), cy(40));
        assert_eq!(d.get(CpuClass::Idle), cy(60));
        assert_eq!(d.total(), cy(100));
    }
}
