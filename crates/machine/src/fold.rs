//! Collapsed-stack folding of the cycle book: `(cpu, class, stage)`
//! cycle totals that render directly as `inferno`-compatible folded
//! text (`cpu0;rx_intr;rx_pkt 12345` — one line per stack, semicolon
//! frames, space, sample count).
//!
//! A fold is a *read* of the executor's one cycle book
//! ([`EnvState::fold`](crate::cpu::EnvState::fold)): its cells keyed by
//! the row's class and the chunk's workload `tag` — the *stage*
//! dimension the kernel already threads through every chunk it issues.
//! Nothing is kept on the charge path for it, so taking one perturbs
//! nothing.
//!
//! Stacks are keyed `(cpu, class, stage)` in an ordered map, so
//! iteration order — and therefore the folded text — is deterministic
//! and byte-identical across `--jobs` counts and reruns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cpu::CpuId;
use crate::ledger::CpuClass;
use livelock_sim::Cycles;

/// Cycle totals keyed by `(cpu, class, stage-tag)`.
///
/// `stage` is the workload-defined chunk tag (`Chunk::tag`); tag `0`
/// covers cycles the executor spends outside any workload chunk
/// (scheduling overhead and the idle loop). The workload crate owns
/// the tag→label mapping; rendering takes it as a closure so this
/// crate stays ignorant of kernel stage names.
///
/// A fold is built whole — collected from `(cpu, class, tag, cycles)`
/// stacks, or [merged](Self::merge) from other folds — never charged.
///
/// # Examples
///
/// ```
/// use livelock_machine::{CpuClass, CpuId, CycleFold};
/// use livelock_sim::Cycles;
///
/// let f: CycleFold = [
///     (CpuId(0), CpuClass::RxIntr, 2, Cycles::new(750)),
///     (CpuId(0), CpuClass::Idle, 0, Cycles::new(250)),
/// ]
/// .into_iter()
/// .collect();
/// let txt = f.folded(|tag| if tag == 2 { "rx_pkt" } else { "(none)" });
/// assert_eq!(txt, "cpu0;rx_intr;rx_pkt 750\ncpu0;idle;(none) 250\n");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleFold {
    /// `(cpu, class index, tag) -> cycles`; zero stacks are never stored.
    stacks: BTreeMap<(usize, usize, u64), Cycles>,
}

impl CycleFold {
    /// Creates an empty fold.
    pub fn new() -> Self {
        CycleFold::default()
    }

    /// Sum over all stacks; equals the ledger total (and therefore
    /// elapsed virtual time) when taken from an executor.
    pub fn total(&self) -> Cycles {
        self.stacks.values().copied().sum()
    }

    /// Number of distinct `(cpu, class, stage)` stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// True when the fold holds no cycles.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Merges another fold into this one (pointwise sum). Commutative
    /// and associative, so per-CPU folds can merge in any order.
    pub fn merge(&mut self, other: &CycleFold) {
        self.add(other.iter());
    }

    /// Iterates stacks in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (CpuId, CpuClass, u64, Cycles)> + '_ {
        self.stacks
            .iter()
            .map(|(&(cpu, class, tag), &cy)| (CpuId(cpu), CpuClass::ALL[class], tag, cy))
    }

    /// Adds stacks pointwise. Private: outside this module a fold is
    /// collected or merged, not charged.
    fn add(&mut self, stacks: impl Iterator<Item = (CpuId, CpuClass, u64, Cycles)>) {
        for (cpu, class, tag, cy) in stacks {
            if cy != Cycles::ZERO {
                *self
                    .stacks
                    .entry((cpu.0, class.index(), tag))
                    .or_insert(Cycles::ZERO) += cy;
            }
        }
    }

    /// Renders the fold as `inferno`-style collapsed stacks, one line
    /// per `(cpu, class, stage)` with the cycle count as the sample
    /// weight. `tag_label` maps workload chunk tags to frame names;
    /// labels are sanitized (`;` and whitespace replaced) so the
    /// folded grammar can't be corrupted by a label.
    pub fn folded(&self, tag_label: impl Fn(u64) -> &'static str) -> String {
        let mut out = String::new();
        for (cpu, class, tag, cy) in self.iter() {
            let label = tag_label(tag);
            let _ = write!(out, "cpu{};{};", cpu.0, class.label());
            for ch in label.chars() {
                out.push(match ch {
                    ';' | ' ' | '\t' | '\n' => '_',
                    c => c,
                });
            }
            let _ = writeln!(out, " {}", cy.raw());
        }
        out
    }
}

/// Collects `(cpu, class, tag, cycles)` stacks, summing repeats and
/// omitting zeros.
impl FromIterator<(CpuId, CpuClass, u64, Cycles)> for CycleFold {
    fn from_iter<I: IntoIterator<Item = (CpuId, CpuClass, u64, Cycles)>>(stacks: I) -> Self {
        let mut fold = CycleFold::new();
        fold.add(stacks.into_iter());
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn label(tag: u64) -> &'static str {
        match tag {
            0 => "(exec)",
            2 => "rx_pkt",
            4 => "softnet_pkt",
            _ => "other",
        }
    }

    fn fold(stacks: &[(usize, CpuClass, u64, u64)]) -> CycleFold {
        stacks
            .iter()
            .map(|&(cpu, class, tag, n)| (CpuId(cpu), class, tag, cy(n)))
            .collect()
    }

    #[test]
    fn charges_accumulate_per_stack() {
        let f = fold(&[
            (0, CpuClass::RxIntr, 2, 100),
            (0, CpuClass::RxIntr, 2, 50),
            (0, CpuClass::SoftIntNet, 4, 30),
        ]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.total(), cy(180));
    }

    #[test]
    fn zero_charges_create_no_stacks() {
        let f = fold(&[(0, CpuClass::Idle, 0, 0)]);
        assert!(f.is_empty());
        assert_eq!(f.folded(label), "");
    }

    #[test]
    fn folded_text_is_sorted_and_stable() {
        let f = fold(&[
            (1, CpuClass::SoftIntNet, 4, 7),
            (0, CpuClass::RxIntr, 2, 9),
            (0, CpuClass::Idle, 0, 3),
        ]);
        let txt = f.folded(label);
        assert_eq!(
            txt,
            "cpu0;rx_intr;rx_pkt 9\ncpu0;idle;(exec) 3\ncpu1;softint_net;softnet_pkt 7\n"
        );
    }

    #[test]
    fn labels_are_sanitized() {
        let f = fold(&[(0, CpuClass::UserProc, 99, 1)]);
        let txt = f.folded(|_| "a;b c");
        assert_eq!(txt, "cpu0;user_proc;a_b_c 1\n");
    }

    #[test]
    fn merge_is_order_independent() {
        let a = fold(&[(0, CpuClass::RxIntr, 2, 10), (1, CpuClass::Idle, 0, 5)]);
        let b = fold(&[(0, CpuClass::RxIntr, 2, 4), (1, CpuClass::UserProc, 15, 6)]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), cy(25));
    }
}
