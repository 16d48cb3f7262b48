//! The interrupt controller: per-source priority, enable masks, pending
//! latches.
//!
//! Semantics mirror real hardware: posting a disabled source *latches* the
//! request (it is delivered when the source is re-enabled), and the CPU
//! takes the highest-IPL enabled pending source whose level preempts the
//! current one. Latch-while-masked is what makes the modified kernel's
//! "re-enable interrupts only when no work is pending" protocol race-free.

use livelock_sim::Counter;

use crate::ipl::Ipl;

/// Identifies a registered interrupt source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntrSrc(pub usize);

#[derive(Clone, Debug)]
struct Source {
    name: &'static str,
    ipl: Ipl,
    enabled: bool,
    pending: bool,
    taken: Counter,
}

/// The machine's interrupt controller.
///
/// # Examples
///
/// ```
/// use livelock_machine::intr::IntrController;
/// use livelock_machine::ipl::Ipl;
///
/// let mut ic = IntrController::new();
/// let rx = ic.register("rx0", Ipl::IMP);
/// ic.post(rx);
/// // A CPU running at spl0 takes it; one running at splimp does not.
/// assert_eq!(ic.take(Ipl::IMP), None);
/// assert_eq!(ic.take(Ipl::NONE), Some((rx, Ipl::IMP)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct IntrController {
    sources: Vec<Source>,
    /// Bit `i` set ⟺ `sources[i]` is pending *and* enabled, i.e. deliverable
    /// at a low enough IPL. The executor polls [`IntrController::take`]
    /// at every chunk boundary, and the common answer is "nothing": a
    /// single zero-test covers it. Caps the
    /// controller at 64 sources (the machine registers a handful).
    ready: u64,
}

impl IntrController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        IntrController::default()
    }

    /// Registers an interrupt source at the given IPL, enabled.
    pub fn register(&mut self, name: &'static str, ipl: Ipl) -> IntrSrc {
        assert!(self.sources.len() < 64, "at most 64 interrupt sources");
        self.sources.push(Source {
            name,
            ipl,
            enabled: true,
            pending: false,
            taken: Counter::new(),
        });
        IntrSrc(self.sources.len() - 1)
    }

    /// Posts (asserts) an interrupt request. Latched even while the source
    /// is disabled; coalesces with an already-pending request, as interrupt
    /// lines do.
    pub fn post(&mut self, src: IntrSrc) {
        let s = &mut self.sources[src.0];
        s.pending = true;
        if s.enabled {
            self.ready |= 1 << src.0;
        }
    }

    /// Enables or disables delivery for a source. Disabling does not clear
    /// a pending request.
    pub fn set_enabled(&mut self, src: IntrSrc, enabled: bool) {
        let s = &mut self.sources[src.0];
        s.enabled = enabled;
        if enabled && s.pending {
            self.ready |= 1 << src.0;
        } else {
            self.ready &= !(1 << src.0);
        }
    }

    /// Returns `true` while the source is unmasked.
    pub fn is_enabled(&self, src: IntrSrc) -> bool {
        self.sources[src.0].enabled
    }

    /// Returns `true` when a request is latched for the source.
    pub fn is_pending(&self, src: IntrSrc) -> bool {
        self.sources[src.0].pending
    }

    /// Clears a latched request without delivering it (used by handlers
    /// that poll their device and notice the cause is already serviced).
    pub fn acknowledge(&mut self, src: IntrSrc) {
        self.sources[src.0].pending = false;
        self.ready &= !(1 << src.0);
    }

    /// Whether [`take`](Self::take) would deliver a source at
    /// `current_ipl`: some enabled pending source preempts it. Changes
    /// nothing.
    pub fn preempts(&self, current_ipl: Ipl) -> bool {
        let mut bits = self.ready;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.sources[i].ipl.preempts(current_ipl) {
                return true;
            }
        }
        false
    }

    /// Delivers the highest-IPL enabled pending source that preempts
    /// `current_ipl`, clearing its latch. Ties are broken by registration
    /// order (lower index first), deterministically.
    pub fn take(&mut self, current_ipl: Ipl) -> Option<(IntrSrc, Ipl)> {
        if self.ready == 0 {
            return None;
        }
        // Walk only the ready bits (ascending index), keeping the first
        // source seen at each strictly-higher IPL: highest IPL wins, ties
        // go to the lower registration index.
        let mut best: Option<usize> = None;
        let mut bits = self.ready;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let s = &self.sources[i];
            if s.ipl.preempts(current_ipl) {
                match best {
                    Some(b) if self.sources[b].ipl >= s.ipl => {}
                    _ => best = Some(i),
                }
            }
        }
        let i = best?;
        let s = &mut self.sources[i];
        s.pending = false;
        s.taken.inc();
        self.ready &= !(1 << i);
        Some((IntrSrc(i), s.ipl))
    }

    /// Returns the source's IPL.
    pub fn ipl_of(&self, src: IntrSrc) -> Ipl {
        self.sources[src.0].ipl
    }

    /// Returns the source's diagnostic name.
    pub fn name_of(&self, src: IntrSrc) -> &'static str {
        self.sources[src.0].name
    }

    /// Every source's diagnostic name, in registration order: source
    /// `i`'s is the `i`-th.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.sources.iter().map(|s| s.name)
    }

    /// Number of times the source was delivered to the CPU.
    pub fn taken_count(&self, src: IntrSrc) -> u64 {
        self.sources[src.0].taken.get()
    }

    /// Total interrupts delivered across all sources.
    pub fn total_taken(&self) -> u64 {
        self.sources.iter().map(|s| s.taken.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (IntrController, IntrSrc, IntrSrc, IntrSrc) {
        let mut ic = IntrController::new();
        let rx = ic.register("rx0", Ipl::IMP);
        let soft = ic.register("softnet", Ipl::SOFTNET);
        let clock = ic.register("clock", Ipl::CLOCK);
        (ic, rx, soft, clock)
    }

    #[test]
    fn takes_highest_ipl_first() {
        let (mut ic, rx, soft, clock) = setup();
        ic.post(soft);
        ic.post(clock);
        ic.post(rx);
        assert_eq!(ic.take(Ipl::NONE), Some((clock, Ipl::CLOCK)));
        assert_eq!(ic.take(Ipl::NONE), Some((rx, Ipl::IMP)));
        assert_eq!(ic.take(Ipl::NONE), Some((soft, Ipl::SOFTNET)));
        assert_eq!(ic.take(Ipl::NONE), None);
    }

    #[test]
    fn respects_current_ipl() {
        let (mut ic, rx, soft, _) = setup();
        ic.post(rx);
        ic.post(soft);
        // At SPLIMP, neither an IMP nor a SOFTNET source preempts.
        assert_eq!(ic.take(Ipl::IMP), None);
        // Dropping to SPLNET lets the IMP source in, not the SOFTNET one.
        assert_eq!(ic.take(Ipl::SOFTNET), Some((rx, Ipl::IMP)));
        assert_eq!(ic.take(Ipl::SOFTNET), None);
    }

    #[test]
    fn latch_while_disabled() {
        let (mut ic, rx, _, _) = setup();
        ic.set_enabled(rx, false);
        ic.post(rx);
        assert!(ic.is_pending(rx));
        assert_eq!(ic.take(Ipl::NONE), None, "masked");
        ic.set_enabled(rx, true);
        assert_eq!(
            ic.take(Ipl::NONE),
            Some((rx, Ipl::IMP)),
            "delivered on unmask"
        );
        assert!(!ic.is_pending(rx));
    }

    #[test]
    fn posts_coalesce() {
        let (mut ic, rx, _, _) = setup();
        ic.post(rx);
        ic.post(rx);
        ic.post(rx);
        assert!(ic.take(Ipl::NONE).is_some());
        assert_eq!(ic.take(Ipl::NONE), None, "one delivery for many posts");
        assert_eq!(ic.taken_count(rx), 1);
    }

    #[test]
    fn same_ipl_ties_break_by_registration_order() {
        let mut ic = IntrController::new();
        let a = ic.register("rx0", Ipl::IMP);
        let b = ic.register("rx1", Ipl::IMP);
        ic.post(b);
        ic.post(a);
        assert_eq!(ic.take(Ipl::NONE), Some((a, Ipl::IMP)));
        assert_eq!(ic.take(Ipl::NONE), Some((b, Ipl::IMP)));
    }

    #[test]
    fn acknowledge_clears_without_delivery() {
        let (mut ic, rx, _, _) = setup();
        ic.post(rx);
        ic.acknowledge(rx);
        assert_eq!(ic.take(Ipl::NONE), None);
        assert_eq!(ic.taken_count(rx), 0);
    }

    #[test]
    fn metadata_accessors() {
        let (ic, rx, soft, _) = setup();
        assert_eq!(ic.ipl_of(rx), Ipl::IMP);
        assert_eq!(ic.name_of(soft), "softnet");
        assert!(ic.sources[rx.0].enabled);
    }

    #[test]
    fn ready_tracking_survives_mask_latch_ack_interleavings() {
        let (mut ic, rx, soft, _) = setup();
        // Latched-while-masked then acknowledged: enabling must NOT deliver.
        ic.set_enabled(rx, false);
        ic.post(rx);
        ic.acknowledge(rx);
        ic.set_enabled(rx, true);
        assert_eq!(ic.take(Ipl::NONE), None);
        // Re-disabling an armed source hides it; re-enabling restores it.
        ic.post(soft);
        ic.set_enabled(soft, false);
        assert_eq!(ic.take(Ipl::NONE), None);
        ic.set_enabled(soft, true);
        assert_eq!(ic.take(Ipl::NONE), Some((soft, Ipl::SOFTNET)));
    }

    #[test]
    fn preempts_answers_what_take_would_do() {
        let (mut ic, rx, soft, clock) = setup();
        let levels = [Ipl::NONE, Ipl::SOFTNET, Ipl::IMP, Ipl::CLOCK];
        // Each step changes the controller; after each, `preempts` must
        // agree with `take` on a clone at every level, and leave the
        // controller untouched.
        let steps: [&dyn Fn(&mut IntrController); 8] = [
            &|_| {},
            &|ic| ic.post(soft),
            &|ic| ic.set_enabled(soft, false),
            &|ic| ic.post(rx),
            &|ic| ic.set_enabled(soft, true),
            &|ic| ic.acknowledge(rx),
            &|ic| ic.post(clock),
            &|ic| {
                ic.take(Ipl::NONE);
            },
        ];
        for step in steps {
            step(&mut ic);
            for ipl in levels {
                let (ready, taken) = (ic.ready, ic.total_taken());
                let want = ic.clone().take(ipl).is_some();
                assert_eq!(ic.preempts(ipl), want, "at {ipl}");
                assert_eq!((ic.ready, ic.total_taken()), (ready, taken));
            }
        }
    }

    #[test]
    fn total_taken_sums() {
        let (mut ic, rx, soft, _) = setup();
        ic.post(rx);
        ic.take(Ipl::NONE);
        ic.post(soft);
        ic.take(Ipl::NONE);
        assert_eq!(ic.total_taken(), 2);
    }
}
