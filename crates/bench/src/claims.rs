//! The paper's claims as one table.
//!
//! Every claim the reproduction checks is one [`Claim`] row of
//! [`CLAIMS`]: an id, the paper section it comes from, the process that
//! exits with its code, and its check. A check reads one kind of
//! evidence: an (unmodified, polled) pair of trials at one x, plus the
//! polled kernel's drained end state when the run has one
//! ([`Evidence`]). Only the claims that need a whole sweep — the paper's
//! 6-x verdicts, S-1's MLFRR scaling, O-1's monotone onset and a few
//! baseline comparisons — read the rendered figure instead.
//!
//! `figures` evaluates the rows each [`Figure`](crate::Figure) lists;
//! `livelock chaos` and `livelock observe` evaluate every row they own.
//! All three go through [`evaluate`] and [`report`], and the exit code
//! is the smallest violated row's. `simlint --exit-codes` prints what
//! each code means; README embeds [`markdown_table`].

use lint::registry::codes;
use livelock_core::analysis::{classify, mlfrr, LivelockVerdict};
use livelock_kernel::experiment::{ChaosReport, ClassSummary, TrialResult};
use livelock_kernel::telemetry::ObsEvent;
use livelock_machine::CpuClass;
use livelock_net::classify::TrafficClass;
use livelock_sim::{Cycles, Nanos};

use crate::{fmt_x, o1_flows, p1_classify_config, p1_flows, RenderedFigure};
use Check::{Every, Last, Sweep};
use TrafficClass::{Bulk, Control, Realtime};

/// The owner of the figure claims (a registry owner).
pub const FIGURES: &str = "figures";
/// The owner of the fault-storm claims.
pub const CHAOS: &str = "livelock chaos";
/// The owner of the online-detection claims.
pub const OBSERVE: &str = "livelock observe";

/// What a claim is checked against at one x: the unmodified and the
/// polled kernel's trials, and the polled kernel's drained end state
/// when the run drained one.
#[derive(Clone, Copy)]
pub struct Evidence<'a> {
    /// The swept x: the offered rate, or a figure's storm intensity.
    pub x: f64,
    /// The unmodified kernel's trial.
    pub unmod: &'a TrialResult,
    /// The polled kernel's trial.
    pub polled: &'a TrialResult,
    /// The polled kernel's drained end state (chaos runs only).
    pub drained: Option<Drained<'a>>,
}

/// A chaos run's drained end state.
#[derive(Clone, Copy)]
pub struct Drained<'a> {
    /// The polled kernel's report after the drain window.
    pub polled: &'a ChaosReport,
    /// Faults the storm scheduled.
    pub scheduled_faults: u64,
}

/// What a claim's check reads and where: a violation message, or none.
#[derive(Clone, Copy)]
pub enum Check {
    /// Every x of every (unmodified, polled) pair.
    Every(fn(&Evidence) -> Option<String>),
    /// The last x of every pair.
    Last(fn(&Evidence) -> Option<String>),
    /// The whole rendered sweep (figures only).
    Sweep(fn(&RenderedFigure) -> Vec<String>),
}

/// One row of [`CLAIMS`].
pub struct Claim {
    /// Unique id: the figure or subcommand, then what is claimed.
    pub id: &'static str,
    /// The paper section the claim comes from.
    pub section: &'static str,
    /// The process that exits with [`Claim::exit`] when the claim fails.
    pub owner: &'static str,
    /// The exit code, registered under `owner`.
    pub exit: i32,
    /// The check.
    pub check: Check,
}

const fn claim(
    id: &'static str,
    section: &'static str,
    owner: &'static str,
    exit: i32,
    check: Check,
) -> Claim {
    Claim { id, section, owner, exit, check }
}

/// The evidence a claim set runs over.
#[derive(Clone, Copy)]
pub enum Run<'a> {
    /// A rendered figure: its pairs' evidence at every x, and the sweep.
    Figure(&'a RenderedFigure),
    /// One (unmodified, polled) pair: a `chaos` or `observe` run.
    Pair(Evidence<'a>),
}

/// One failed claim.
pub struct Violation {
    /// The row that failed.
    pub claim: &'static Claim,
    /// What the evidence showed.
    pub message: String,
}

/// Every claim, in precedence order: per owner, ascending exit code.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    claim("6-x shape-verdicts", "§6", FIGURES, codes::FIGURES_SHAPE, Sweep(shape_verdicts)),
    claim("L-1 polled-p99-under-half", "§4.3", FIGURES, codes::FIGURES_LATENCY, Last(|e| at_most("polled p99 us (half the unmodified p99)", us(e.polled.latency_p99), us(e.unmod.latency_p99) / 2.0))),
    claim("C-1 ledger-conserved", "§3", FIGURES, codes::FIGURES_CPU, Every(ledger_conserved)),
    claim("C-1 unmod-rx-intr-over-90pct", "§3", FIGURES, codes::FIGURES_CPU, Last(|e| at_least("unmodified rx-intr %", share(e.unmod, RX), 90.0))),
    claim("C-1 unmod-delivery-collapses", "§3", FIGURES, codes::FIGURES_CPU, Last(|e| at_most("unmodified pkts/s (1% of offered)", e.unmod.delivered_pps, 0.01 * e.unmod.offered_pps))),
    claim("C-1 unmod-user-idle-under-5pct", "§3", FIGURES, codes::FIGURES_CPU, Last(|e| at_most("unmodified user+idle %", share(e.unmod, USER_IDLE), 5.0))),
    claim("C-1 polled-user-idle-over-35pct", "§7", FIGURES, codes::FIGURES_CPU, Last(|e| at_least("polled user+idle % (the 50% cycle limit's floor)", share(e.polled, USER_IDLE), 35.0))),
    claim("C-1 polled-rx-intr-under-5pct", "§6.2", FIGURES, codes::FIGURES_CPU, Every(|e| at_most("polled rx-intr % (interrupts only initiate polling)", share(e.polled, RX), 5.0))),
    claim("R-1 polled-keeps-delivering", "§6.6.1", FIGURES, codes::FIGURES_FAULT, Every(polled_delivers)),
    claim("R-1 polled-fault-free-plateau", "§6.6.1", FIGURES, codes::FIGURES_FAULT, Sweep(|r| at_least("fault-free polled pkts/s", r.series()[0][0].polled.delivered_pps, 1_500.0).into_iter().collect())),
    claim("R-1 polled-degrades-gracefully", "§6.6.1", FIGURES, codes::FIGURES_FAULT, Sweep(|r| {
        let s = &r.series()[0];
        at_least("polled pkts/s at the heaviest storm (half the fault-free)", s[s.len() - 1].polled.delivered_pps, 0.5 * s[0].polled.delivered_pps).into_iter().collect()
    })),
    claim("R-1 polled-beats-unmod", "§6.6.1", FIGURES, codes::FIGURES_FAULT, Last(|e| at_most("unmodified pkts/s (the polled)", e.unmod.delivered_pps, e.polled.delivered_pps))),
    claim("S-1 ledger-conserved", "§3", FIGURES, codes::FIGURES_SMP, Every(ledger_conserved)),
    claim("S-1 mlfrr-scaling", "§8", FIGURES, codes::FIGURES_SMP, Sweep(mlfrr_scaling)),
    claim("O-1 onset-monotone", "§4", FIGURES, codes::FIGURES_OBSERVE, Sweep(onset_monotone)),
    claim("O-1 unmod-onset", "§4", FIGURES, codes::FIGURES_OBSERVE, Last(unmod_onset)),
    claim("O-1 no-polled-onset", "§6.6.1", FIGURES, codes::FIGURES_OBSERVE, Every(no_polled_onset)),
    claim("O-1 starvation-bounded", "§6.6.1", FIGURES, codes::FIGURES_OBSERVE, Every(|e| at_most("polled starved flows (the unmodified)", starved(e.polled) as f64, starved(e.unmod) as f64))),
    claim("O-1 starvation-contrast", "§4", FIGURES, codes::FIGURES_OBSERVE, Last(starvation_contrast)),
    claim("P-1 control-slo", "§8", FIGURES, codes::FIGURES_PRIORITY, Every(|e| at_most("Control p99 us (the SLO)", us(class(e.polled, Control).latency_p99), us(p1_classify_config().slo_p99)))),
    claim("P-1 class-books", "§8", FIGURES, codes::FIGURES_PRIORITY, Every(|e| {
        let bad = e.polled.per_class().iter().find(|s| s.shed + s.delivered > s.arrived)?;
        Some(format!("class {} shed {} + delivered {} exceeds arrived {}", bad.class.label(), bad.shed, bad.delivered, bad.arrived))
    })),
    claim("P-1 control-never-shed", "§8", FIGURES, codes::FIGURES_PRIORITY, Every(|e| at_most("Control packets shed", class(e.polled, Control).shed as f64, 0.0))),
    claim("P-1 unmod-collapses", "§8", FIGURES, codes::FIGURES_PRIORITY, Last(|e| at_most("unmodified pkts/s (10% of offered)", e.unmod.delivered_pps, 0.10 * e.x))),
    claim("P-1 control-share", "§8", FIGURES, codes::FIGURES_PRIORITY, Last(|e| at_least("Control pkts/s (90% of its share)", class(e.polled, Control).delivered_pps, 0.9 * e.x / p1_flows().len() as f64))),
    claim("P-1 p99-contrast", "§8", FIGURES, codes::FIGURES_PRIORITY, Sweep(|r| {
        // Once livelocked the unmodified kernel delivers nothing and its
        // p99 reads 0, so each kernel is judged by its worst point.
        let worst = |f: fn(&Evidence) -> Nanos| r.series()[0].iter().map(|e| us(f(e))).fold(0.0, f64::max);
        let control = worst(|e| class(e.polled, Control).latency_p99);
        at_least("worst unmodified p99 us (twice the worst Control p99)", worst(|e| e.unmod.latency_p99), 2.0 * control.max(1.0)).into_iter().collect()
    })),
    claim("P-1 bulk-sheds", "§8", FIGURES, codes::FIGURES_PRIORITY, Last(|e| at_least("Bulk packets shed", class(e.polled, Bulk).shed as f64, 1.0))),
    claim("P-1 shed-order", "§8", FIGURES, codes::FIGURES_PRIORITY, Last(|e| at_most("Realtime packets shed (the Bulk)", class(e.polled, Realtime).shed as f64, class(e.polled, Bulk).shed as f64))),
    claim("chaos polled-keeps-delivering", "§6.6.1", CHAOS, codes::CHAOS_NO_DELIVERY, Every(polled_delivers)),
    claim("chaos gate-open", "§6.6.1", CHAOS, codes::CHAOS_GATE_INHIBITED, Every(|e| e.drained.filter(|d| !d.polled.gate_open_at_end).map(|d| format!("polled interrupt gate ended the run inhibited (bits {:#04x})", d.polled.gate_bits)))),
    claim("chaos screend-drained", "§6.6.1", CHAOS, codes::CHAOS_SCREEND_BACKLOG, Every(|e| at_most("packets in the screend queue after the drain", e.drained?.polled.screend_q_len as f64, 0.0))),
    claim("chaos ledger-closed", "§3", CHAOS, codes::CHAOS_LEDGER_LEAK, Every(|e| at_most("packets the ledger leaves unaccounted", e.drained?.polled.in_flight as f64, 0.0))),
    claim("chaos faults-fired", "§6.6.1", CHAOS, codes::CHAOS_FAULTS_MISSING, Every(|e| {
        let (fired, scheduled) = (e.polled.fault.injected, e.drained?.scheduled_faults);
        (fired != scheduled).then(|| format!("only {fired} of {scheduled} scheduled faults fired"))
    })),
    claim("chaos unmod-livelocks", "§4", CHAOS, codes::CHAOS_NOT_LIVELOCKED, Every(|e| {
        let (u, p) = (e.unmod.delivered_pps, e.polled.delivered_pps);
        (u >= 0.05 * p.max(1.0)).then(|| format!("unmodified kernel is not livelocked under the storm ({u:.0} vs polled {p:.0} pkts/s) — is --rate below its collapse point?"))
    })),
    claim("chaos no-polled-inversion", "§8", CHAOS, codes::CHAOS_PRIORITY_INVERSION, Every(|e| at_most("polled priority-inversion events", inversions(e.polled) as f64, 0.0))),
    claim("chaos unmod-inversion", "§8", CHAOS, codes::CHAOS_NO_INVERSION_CONTRAST, Every(|e| {
        // Only a classified run can show inversion.
        (!e.unmod.per_class().is_empty() && inversions(e.unmod) == 0).then(|| "unmodified kernel produced no priority-inversion event — is --rate below its collapse point?".to_string())
    })),
    claim("observe unmod-onset", "§4", OBSERVE, codes::OBSERVE_NO_ONSET, Every(unmod_onset)),
    claim("observe no-polled-onset", "§6.6.1", OBSERVE, codes::OBSERVE_FALSE_ONSET, Every(no_polled_onset)),
    claim("observe starvation-contrast", "§4", OBSERVE, codes::OBSERVE_STARVATION, Every(starvation_contrast)),
    claim("observe flow-ledgers-close", "§3", OBSERVE, codes::OBSERVE_FLOW_LEDGER, Every(flow_ledgers_close)),
];

/// Evaluates every row `select` keeps, in table order, over `run`.
pub fn evaluate(select: impl Fn(&Claim) -> bool, run: Run) -> Vec<Violation> {
    let series = match run {
        Run::Figure(r) => r.series(),
        Run::Pair(e) => vec![vec![e]],
    };
    let at = |f: fn(&Evidence) -> Option<String>| {
        move |e: &Evidence| Some(format!("at {}: {}", fmt_x(e.x), f(e)?))
    };
    let mut out = Vec::new();
    for claim in CLAIMS.iter().filter(|c| select(c)) {
        let found: Vec<String> = match (claim.check, run) {
            (Every(f), _) => series.iter().flatten().filter_map(at(f)).collect(),
            (Last(f), _) => series.iter().filter_map(|s| s.last()).filter_map(at(f)).collect(),
            (Sweep(f), Run::Figure(r)) => f(r),
            (Sweep(_), Run::Pair(_)) => Vec::new(),
        };
        out.extend(found.into_iter().map(|message| Violation { claim, message }));
    }
    out
}

/// Prints each violation to stderr and returns the exit code a run ends
/// with: the smallest violated row's, or 0 when every claim held.
pub fn report(violations: &[Violation]) -> i32 {
    for v in violations {
        eprintln!("claim {} (exit {}) violated: {}", v.claim.id, v.claim.exit, v.message);
    }
    violations.iter().map(|v| v.claim.exit).min().unwrap_or(0)
}

/// The table as the markdown block README embeds between its
/// `claims:begin`/`claims:end` markers.
pub fn markdown_table() -> String {
    let mut out = String::from("| claim | paper | owner | exit |\n|---|---|---|---|\n");
    for c in CLAIMS {
        out.push_str(&format!("| {} | {} | `{}` | {} |\n", c.id, c.section, c.owner, c.exit));
    }
    out
}

impl RenderedFigure {
    /// Each (unmodified, polled) curve pair's evidence, in x order.
    pub fn series(&self) -> Vec<Vec<Evidence<'_>>> {
        let trial = |c: usize, i: usize| &self.curves[c].trials[i];
        (self.pairs.iter())
            .map(|&(u, p)| {
                (self.xs.iter().enumerate())
                    .map(|(i, &x)| Evidence {
                        x,
                        unmod: trial(u, i),
                        polled: trial(p, i),
                        drained: None,
                    })
                    .collect()
            })
            .collect()
    }
}

/// The first livelock-onset event's cycle stamp.
pub fn onset(t: &TrialResult) -> Option<Cycles> {
    events(t, "livelock-onset").next().map(|ev| ev.at)
}

/// Priority-inversion events.
pub fn inversions(t: &TrialResult) -> usize {
    events(t, "priority-inversion").count()
}

fn events<'a>(t: &'a TrialResult, label: &'a str) -> impl Iterator<Item = &'a ObsEvent> {
    t.events.iter().filter(move |ev| ev.kind.label() == label)
}

/// Distinct flows the detector flagged as starved.
pub(crate) fn starved(t: &TrialResult) -> usize {
    events(t, "flow-starved").count()
}

/// `got` must be at least `min`.
fn at_least(what: &str, got: f64, min: f64) -> Option<String> {
    (got < min).then(|| format!("{what} is {got:.1}, expected >= {min:.1}"))
}

/// `got` must be at most `max`.
fn at_most(what: &str, got: f64, max: f64) -> Option<String> {
    (got > max).then(|| format!("{what} is {got:.1}, expected <= {max:.1}"))
}

pub(crate) const RX: &[CpuClass] = &[CpuClass::RxIntr];
pub(crate) const USER_IDLE: &[CpuClass] = &[CpuClass::UserProc, CpuClass::Idle];

/// The summed ledger share of `classes`, in percent.
pub(crate) fn share(t: &TrialResult, classes: &[CpuClass]) -> f64 {
    let agg = t.aggregate().cpu_share;
    classes.iter().map(|c| agg[c.index()]).sum::<f64>() * 100.0
}

fn us(t: Nanos) -> f64 {
    t.as_micros_f64()
}

/// One class's books (all zero when classification was off).
pub(crate) fn class(t: &TrialResult, c: TrafficClass) -> ClassSummary {
    let zero = ClassSummary {
        class: c,
        arrived: 0,
        delivered: 0,
        shed: 0,
        delivered_pps: 0.0,
        latency_mean: Nanos::ZERO,
        latency_p99: Nanos::ZERO,
    };
    t.per_class().iter().find(|s| s.class == c).cloned().unwrap_or(zero)
}

/// The verdict the paper draws for curve `label` of figure `id`, if it
/// draws one. In 6-6 the queue-state feedback "prevents livelock" at
/// every quota, infinity included.
fn expected_verdict(id: &str, label: &str) -> Option<LivelockVerdict> {
    use LivelockVerdict::{Livelock, StablePlateau};
    let label = label.to_lowercase();
    let has = |s: &str| label.contains(s);
    match id {
        "6-1" if has("with screend") => Some(Livelock),
        "6-3" if has("no quota") => Some(Livelock),
        "6-3" if has("quota = 5") => Some(StablePlateau),
        "6-4" if has("unmodified") || has("no feedback") => Some(Livelock),
        "6-4" if has("w/feedback") => Some(StablePlateau),
        "6-5" if has("infinity") => Some(Livelock),
        "6-5" if ["= 5", "= 10", "= 20"].into_iter().any(has) => Some(StablePlateau),
        "6-6" => Some(StablePlateau),
        _ => None,
    }
}

fn shape_verdicts(r: &RenderedFigure) -> Vec<String> {
    let mut v = Vec::new();
    for c in &r.curves {
        let got = classify(&c.points(), 0.10, 0.80);
        if let Some(want) = expected_verdict(r.id, &c.label).filter(|&w| w != got) {
            v.push(format!("fig {}: {} expected {want:?}, got {got:?}", r.id, c.label));
        }
    }
    v
}

fn ledger_conserved(e: &Evidence) -> Option<String> {
    let cpus = [e.unmod, e.polled].into_iter().flat_map(TrialResult::per_cpu);
    let bad: Vec<String> = cpus
        .filter_map(|c| {
            let sum: f64 = c.cpu_share.iter().sum();
            ((sum - 1.0).abs() > 1e-9).then(|| format!("cpu {:?} shares sum to {sum}", c.cpu))
        })
        .collect();
    (!bad.is_empty()).then(|| format!("cycle ledger not conserved: {}", bad.join(", ")))
}

fn polled_delivers(e: &Evidence) -> Option<String> {
    let stormed = e.drained.is_none_or(|d| d.scheduled_faults > 0);
    (stormed && e.polled.delivered_pps <= 0.0)
        .then(|| "polled kernel delivers nothing (fault-induced livelock)".to_string())
}

/// The polled path's MLFRR scales (≥ 1.7× at 2 CPUs, ≥ 2.5× at 4: RSS
/// steering and per-CPU queues buy parallel capacity); the shared-queue
/// path's does not (≤ 1.2× and ≤ 1.3×: one `ipintrq` and its lock
/// serialize the IP layer). The pairs are 1, 2 and 4 CPUs.
fn mlfrr_scaling(r: &RenderedFigure) -> Vec<String> {
    let series = r.series();
    let m = |pick: for<'a> fn(&Evidence<'a>) -> &'a TrialResult| {
        [0, 1, 2].map(|k| {
            let points: Vec<_> = series[k].iter().map(|e| pick(e).point()).collect();
            mlfrr(&points, 0.95).unwrap_or(0.0)
        })
    };
    let (u, p) = (m(|e| e.unmod), m(|e| e.polled));
    if u[0] <= 0.0 || p[0] <= 0.0 {
        return vec![format!(
            "single-CPU MLFRRs must be positive (unmod {:.0}, polled {:.0})",
            u[0], p[0]
        )];
    }
    let mut v = Vec::new();
    for (name, m, want) in [
        ("polled", p, [1.7..=f64::INFINITY, 2.5..=f64::INFINITY]),
        ("shared-queue", u, [0.0..=1.2, 0.0..=1.3]),
    ] {
        for (k, want) in want.into_iter().enumerate() {
            let (cpus, x) = (2 << k, m[k + 1] / m[0]);
            if !want.contains(&x) {
                v.push(format!(
                    "{name} MLFRR scales {x:.2}x at {cpus} CPUs ({:.0}/{:.0}), want {want:?}",
                    m[k + 1],
                    m[0]
                ));
            }
        }
    }
    v
}

/// No onset at the lightest rate, and once a rate livelocks every heavier
/// rate does too.
fn onset_monotone(r: &RenderedFigure) -> Vec<String> {
    let s = &r.series()[0];
    let mut v = Vec::new();
    if onset(s[0].unmod).is_some() {
        v.push(format!(
            "unmodified kernel reports livelock onset at {:.0} pkts/s, below the screend MLFRR",
            s[0].x
        ));
    }
    if let Some(first) = s.iter().position(|e| onset(e.unmod).is_some()) {
        for e in s[first..].iter().filter(|e| onset(e.unmod).is_none()) {
            v.push(format!(
                "unmodified kernel livelocks at {:.0} pkts/s but not at the heavier {:.0} pkts/s",
                s[first].x, e.x
            ));
        }
    }
    v
}

fn unmod_onset(e: &Evidence) -> Option<String> {
    onset(e.unmod).is_none().then(|| "unmodified kernel produced no livelock-onset event — is the rate below the screend MLFRR?".to_string())
}

fn no_polled_onset(e: &Evidence) -> Option<String> {
    let at = onset(e.polled)?;
    Some(format!("polled kernel with feedback reports livelock onset at cycle {}", at.raw()))
}

/// Livelock serves nothing, so the per-flow watch must fire broadly on
/// the unmodified kernel — at least half the tracked flows — and strictly
/// less on the polled one.
fn starvation_contrast(e: &Evidence) -> Option<String> {
    let (u, p, n) = (starved(e.unmod), starved(e.polled), o1_flows().len());
    (u < n / 2 || p >= u.max(1)).then(|| format!("unmodified kernel starved {u} of {n} tracked flows, polled {p}: expected at least half under livelock and strictly fewer under polling"))
}

/// After the drain every flow's arrivals are delivered or attributed to
/// a drop, and no arrival leaked to overflow or went unattributed.
fn flow_ledgers_close(e: &Evidence) -> Option<String> {
    let mut bad = Vec::new();
    for (name, t) in [("unmodified", e.unmod), ("polled", e.polled)] {
        let Some(reg) = &t.flows else {
            bad.push(format!("{name} trial carried no flow registry"));
            continue;
        };
        if reg.overflow_arrivals() + reg.unattributed_arrivals() != 0 {
            bad.push(format!(
                "{name} registry leaked arrivals: {} overflow, {} unattributed",
                reg.overflow_arrivals(),
                reg.unattributed_arrivals()
            ));
        }
        for s in t.per_flow().into_iter().filter(|s| s.arrived != s.delivered + s.drops.total()) {
            bad.push(format!(
                "{name} flow {} ledger does not close: {} arrived != {} delivered + {} dropped",
                s.key.src_port,
                s.arrived,
                s.delivered,
                s.drops.total()
            ));
        }
    }
    (!bad.is_empty()).then(|| bad.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{figure_table, Figure, Sweep};
    use livelock_kernel::experiment::{CpuStats, SweepResult};
    use livelock_kernel::flows::FlowRegistry;
    use livelock_kernel::telemetry::ObsEventKind;
    use livelock_machine::CpuId;

    fn event(kind: ObsEventKind) -> ObsEvent {
        ObsEvent { at: Cycles::new(100), cpu: CpuId(0), kind }
    }
    const ONSET: ObsEventKind = ObsEventKind::LivelockOnset { arrived: 10, delivered: 0 };
    const STARVED: ObsEventKind = ObsEventKind::FlowStarved { flow_hash: 7, windows: 3 };
    const INVERSION: ObsEventKind = ObsEventKind::PriorityInversion { arrived: 10 };

    fn books(class: TrafficClass, arrived: u64, delivered_pps: f64, shed: u64) -> ClassSummary {
        let p99 = Nanos::from_millis(1);
        let delivered = delivered_pps as u64;
        ClassSummary {
            class,
            arrived,
            delivered,
            shed,
            delivered_pps,
            latency_mean: p99,
            latency_p99: p99,
        }
    }

    /// A synthetic trial at `rate` delivering `delivered`, with ledger
    /// `shares` (the rest idle) and a 1 ms p99.
    fn trial(rate: f64, delivered: f64, shares: &[(CpuClass, f64)]) -> TrialResult {
        let mut cpu_share = [0.0; CpuClass::COUNT];
        for &(c, s) in shares {
            cpu_share[c.index()] = s;
        }
        cpu_share[CpuClass::Idle.index()] = 1.0 - shares.iter().map(|s| s.1).sum::<f64>();
        let cpu = CpuStats {
            cpu: CpuId(0),
            cpu_share,
            user_cpu_frac: 0.0,
            interrupts_taken: 0,
            events_dispatched: 0,
            steals_published: 0,
            steals_taken: 0,
        };
        TrialResult {
            offered_pps: rate,
            delivered_pps: delivered,
            transmitted: 0,
            rx_ring_drops: 0,
            ipintrq_drops: 0,
            screend_q_drops: 0,
            screend_denied: 0,
            socket_q_drops: 0,
            app_delivered: 0,
            app_delivered_pps: 0.0,
            ifq_drops: 0,
            latency_mean: Nanos::ZERO,
            latency_p99: Nanos::from_millis(1),
            latency_jitter: Nanos::ZERO,
            latency: Default::default(),
            drops: Default::default(),
            per_cpu: vec![cpu],
            timeline: None,
            pool: Default::default(),
            fault: Default::default(),
            flows: Some(FlowRegistry::new(128)),
            events: Vec::new(),
            fold: None,
            classes: Vec::new(),
        }
    }

    /// The livelocking kernel every claim expects: it delivers only up to
    /// 2 000 pkts/s, lives in receive interrupts, starves all eight flows
    /// and shows onset past 1 000 pkts/s and one priority inversion.
    fn unmod(rate: f64) -> TrialResult {
        let delivered = if rate <= 2_000.0 { rate } else { 0.0 };
        let mut t =
            trial(rate, delivered, &[(CpuClass::RxIntr, 0.92), (CpuClass::KernelOther, 0.07)]);
        t.latency_p99 = Nanos::from_millis(50);
        t.events = vec![event(STARVED); 8];
        t.events.push(event(INVERSION));
        if rate > 1_000.0 {
            t.events.push(event(ONSET));
        }
        t.classes = TrafficClass::ALL.map(|c| books(c, 0, 0.0, 0)).to_vec();
        t
    }

    /// The polled kernel every claim expects: a plateau at `cap`, little
    /// receive-interrupt time, Control served in full and Bulk shed.
    fn polled(rate: f64, cap: f64) -> TrialResult {
        let shares =
            [(CpuClass::RxIntr, 0.03), (CpuClass::UserProc, 0.5), (CpuClass::PollThread, 0.37)];
        let mut t = trial(rate, rate.min(cap), &shares);
        t.fault.injected = 96;
        let arrived = rate as u64;
        t.classes = vec![
            books(Control, arrived, rate / 8.0, 0),
            books(Realtime, arrived, 0.0, 0),
            books(Bulk, arrived, 0.0, 10),
        ];
        t
    }

    /// Delivered rate of a throughput curve at `x`: a plateau at 4 000
    /// pkts/s, or a collapse past it.
    fn shaped(x: f64, livelock: bool) -> f64 {
        if livelock && x > 4_000.0 {
            0.0
        } else {
            x.min(4_000.0)
        }
    }

    /// Evidence every claim of `fig` holds on: each pair's curves get the
    /// kernels above (the k-th pair's polled plateau at 4 000·2^k, so
    /// S-1's pairs scale), every other curve the shape its row expects.
    fn world(fig: &Figure) -> RenderedFigure {
        let rate = |x: f64| match fig.sweep {
            Sweep::Rate => x,
            Sweep::Storm { rate_pps } => rate_pps,
        };
        let curves = (fig.curves.iter().enumerate())
            .map(|(c, curve)| {
                let unmod_of = fig.pairs.iter().position(|p| p.0 == c);
                let polled_of = fig.pairs.iter().position(|p| p.1 == c);
                let expect = expected_verdict(fig.id, &curve.label);
                let trials = (fig.xs.iter())
                    .map(|&x| match (unmod_of, polled_of) {
                        (Some(_), _) => unmod(rate(x)),
                        (_, Some(k)) => polled(rate(x), 4_000.0 * f64::from(1 << k)),
                        _ => trial(x, shaped(x, expect == Some(LivelockVerdict::Livelock)), &[]),
                    })
                    .collect();
                SweepResult { label: curve.label.clone(), trials }
            })
            .collect();
        RenderedFigure {
            id: fig.id,
            caption: fig.caption,
            xs: fig.xs.clone(),
            curves,
            axes: fig.curves.iter().map(|c| c.axis).collect(),
            sweep: fig.sweep,
            pairs: fig.pairs.clone(),
        }
    }

    /// Applies `f` to every pair's unmodified (or polled) trial at the x
    /// indices `at(i, n)` picks.
    fn edit(
        r: &mut RenderedFigure,
        polled: bool,
        at: fn(usize, usize) -> bool,
        f: impl Fn(&mut TrialResult),
    ) {
        let n = r.xs.len();
        for (u, p) in r.pairs.clone() {
            let c = if polled { p } else { u };
            for (i, t) in r.curves[c].trials.iter_mut().enumerate() {
                if at(i, n) {
                    f(t);
                }
            }
        }
    }

    fn all(_: usize, _: usize) -> bool {
        true
    }
    fn first(i: usize, _: usize) -> bool {
        i == 0
    }
    fn second(i: usize, _: usize) -> bool {
        i == 1
    }
    fn last(i: usize, n: usize) -> bool {
        i + 1 == n
    }

    fn moved(t: &mut TrialResult, from: CpuClass, to: CpuClass, share: f64) {
        let s = &mut t.per_cpu[0].cpu_share;
        s[from.index()] -= share;
        s[to.index()] += share;
    }

    fn class_mut(t: &mut TrialResult, c: TrafficClass) -> &mut ClassSummary {
        t.classes.iter_mut().find(|s| s.class == c).expect("classified")
    }

    fn drop_events(t: &mut TrialResult, kind: ObsEventKind) {
        t.events.retain(|ev| ev.kind.label() != kind.label());
    }

    /// A chaos run's drained end state that every chaos claim holds on.
    struct Drain {
        report: ChaosReport,
        scheduled: u64,
    }

    /// Breaks exactly claim `id` in `r` (and, for chaos claims, `d`).
    fn seed(id: &str, r: &mut RenderedFigure, d: &mut Drain) {
        use CpuClass::{Idle, KernelOther, PollThread, RxIntr, UserProc};
        match id {
            "6-x shape-verdicts" => {
                let c = (r.curves.iter())
                    .position(|c| expected_verdict(r.id, &c.label).is_some())
                    .expect("a curve with a verdict");
                let livelock =
                    expected_verdict(r.id, &r.curves[c].label) != Some(LivelockVerdict::Livelock);
                let xs = r.xs.clone();
                for (t, x) in r.curves[c].trials.iter_mut().zip(xs) {
                    t.delivered_pps = shaped(x, livelock);
                }
            }
            "L-1 polled-p99-under-half" => {
                edit(r, true, last, |t| t.latency_p99 = Nanos::from_millis(50))
            }
            "C-1 ledger-conserved" | "S-1 ledger-conserved" => {
                edit(r, true, all, |t| t.per_cpu[0].cpu_share[Idle.index()] += 0.5)
            }
            "C-1 unmod-rx-intr-over-90pct" => {
                edit(r, false, last, |t| moved(t, RxIntr, KernelOther, 0.5))
            }
            "C-1 unmod-delivery-collapses" => {
                edit(r, false, last, |t| t.delivered_pps = t.offered_pps)
            }
            "C-1 unmod-user-idle-under-5pct" => {
                edit(r, false, last, |t| moved(t, KernelOther, Idle, 0.07))
            }
            "C-1 polled-user-idle-over-35pct" => {
                edit(r, true, last, |t| moved(t, UserProc, PollThread, 0.4))
            }
            "C-1 polled-rx-intr-under-5pct" => {
                edit(r, true, first, |t| moved(t, PollThread, RxIntr, 0.1))
            }
            "R-1 polled-keeps-delivering" => edit(r, true, second, |t| t.delivered_pps = 0.0),
            "R-1 polled-fault-free-plateau" => edit(r, true, first, |t| t.delivered_pps = 1_000.0),
            "R-1 polled-degrades-gracefully" => edit(r, true, last, |t| t.delivered_pps = 1_000.0),
            "R-1 polled-beats-unmod" => edit(r, false, last, |t| t.delivered_pps = 5_000.0),
            "S-1 mlfrr-scaling" => {
                edit(r, true, all, |t| t.delivered_pps = t.offered_pps.min(4_000.0))
            }
            "O-1 onset-monotone" => edit(r, false, first, |t| t.events.push(event(ONSET))),
            "O-1 unmod-onset" | "observe unmod-onset" => {
                edit(r, false, all, |t| drop_events(t, ONSET))
            }
            "O-1 no-polled-onset" | "observe no-polled-onset" => {
                edit(r, true, last, |t| t.events.push(event(ONSET)))
            }
            "O-1 starvation-bounded" => {
                edit(r, true, first, |t| t.events = vec![event(STARVED); 9])
            }
            "O-1 starvation-contrast" => edit(r, false, last, |t| drop(t.events.drain(..6))),
            "P-1 control-slo" => {
                edit(r, true, first, |t| class_mut(t, Control).latency_p99 = Nanos::from_millis(6))
            }
            "P-1 class-books" => edit(r, true, first, |t| class_mut(t, Bulk).arrived = 0),
            "P-1 control-never-shed" => edit(r, true, first, |t| class_mut(t, Control).shed = 1),
            "P-1 unmod-collapses" => edit(r, false, last, |t| t.delivered_pps = t.offered_pps),
            "P-1 control-share" => {
                edit(r, true, last, |t| class_mut(t, Control).delivered_pps = 0.0)
            }
            "P-1 p99-contrast" => edit(r, false, all, |t| t.latency_p99 = Nanos::from_millis(1)),
            "P-1 bulk-sheds" => edit(r, true, last, |t| class_mut(t, Bulk).shed = 0),
            "P-1 shed-order" => edit(r, true, last, |t| class_mut(t, Realtime).shed = 20),
            "chaos polled-keeps-delivering" => edit(r, true, all, |t| t.delivered_pps = 0.0),
            "chaos gate-open" => d.report.gate_open_at_end = false,
            "chaos screend-drained" => d.report.screend_q_len = 1,
            "chaos ledger-closed" => d.report.in_flight = 1,
            "chaos faults-fired" => d.scheduled += 1,
            "chaos unmod-livelocks" => edit(r, false, all, |t| t.delivered_pps = 4_000.0),
            "chaos no-polled-inversion" => edit(r, true, all, |t| t.events.push(event(INVERSION))),
            "chaos unmod-inversion" => edit(r, false, all, |t| drop_events(t, INVERSION)),
            "observe starvation-contrast" => edit(r, false, all, |t| drop_events(t, STARVED)),
            "observe flow-ledgers-close" => edit(r, true, all, |t| t.flows = None),
            other => panic!("no seeded violation for claim {other}"),
        }
    }

    /// One loop over the table: for each row, evidence that holds every
    /// claim evaluated alongside it yields nothing, and the same evidence
    /// with only that row broken yields exactly that row and its exit —
    /// through the evaluator and reporter the binaries call.
    #[test]
    fn every_claim_fires_on_a_seeded_violation() {
        let table = figure_table();
        // `chaos` and `observe` judge one pair at 12 000 pkts/s.
        let pair =
            Figure { xs: vec![12_000.0], pairs: vec![(0, 1)], claims: &[], ..table[6].clone() };
        for (claim, fig) in CLAIMS.iter().flat_map(|c| {
            let listing: Vec<&Figure> = table.iter().filter(|f| f.claims.contains(&c.id)).collect();
            let contexts = if listing.is_empty() { vec![&pair] } else { listing };
            contexts.into_iter().map(move |f| (c, f))
        }) {
            // A figure judges the claims it lists; `chaos` and `observe`
            // every claim they own.
            let select = |c: &Claim| {
                fig.claims.contains(&c.id) || (fig.claims.is_empty() && c.owner == claim.owner)
            };
            let judge = |r: &RenderedFigure, d: &Drain| {
                if claim.owner == FIGURES {
                    return evaluate(select, Run::Figure(r));
                }
                let mut e = r.series()[0][0];
                if claim.owner == CHAOS {
                    e.drained = Some(Drained { polled: &d.report, scheduled_faults: d.scheduled });
                }
                evaluate(select, Run::Pair(e))
            };
            let mut r = world(fig);
            let result = r.curves[0].trials[0].clone();
            let drained = ChaosReport {
                result,
                gate_open_at_end: true,
                gate_bits: 0,
                screend_q_len: 0,
                in_flight: 0,
                timeout_resumes: 0,
            };
            let mut d = Drain { report: drained, scheduled: 96 };
            let clean = judge(&r, &d);
            let ids = |v: &[Violation]| v.iter().map(|v| v.claim.id).collect::<Vec<_>>();
            assert!(
                clean.is_empty(),
                "{} in {}: clean evidence violates {:?}",
                claim.id,
                fig.id,
                ids(&clean)
            );
            seed(claim.id, &mut r, &mut d);
            let found = judge(&r, &d);
            assert!(
                !found.is_empty() && found.iter().all(|v| v.claim.id == claim.id),
                "{} in {}: seeded evidence violates {:?}",
                claim.id,
                fig.id,
                ids(&found)
            );
            assert_eq!(report(&found), claim.exit, "{}", claim.id);
        }
    }

    /// Table ↔ registry, both ways: every row's exit is registered under
    /// its owner, and every code `figures`, `livelock chaos` and
    /// `livelock observe` exit with on a failed claim is some row's exit.
    /// Every figure claim is listed by a figure, and no other claim is.
    #[test]
    fn claims_and_registry_agree() {
        let registered = |owner: &str, code: i32| {
            lint::registry::STATIC_ENTRIES.iter().any(|e| e.owner == owner && e.code == code)
        };
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(
                registered(c.owner, c.exit),
                "{}: exit {} is not registered under `{}`",
                c.id,
                c.exit,
                c.owner
            );
            assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "{} appears twice", c.id);
            let listed = figure_table().iter().any(|f| f.claims.contains(&c.id));
            assert_eq!(
                listed,
                c.owner == FIGURES,
                "{}: only figure claims are listed, and each is",
                c.id
            );
        }
        for e in lint::registry::STATIC_ENTRIES
            .iter()
            .filter(|e| [FIGURES, CHAOS, OBSERVE].contains(&e.owner))
        {
            if e.code != codes::FIGURES_IO {
                assert!(
                    CLAIMS.iter().any(|c| c.owner == e.owner && c.exit == e.code),
                    "`{}` exit {} has no claim",
                    e.owner,
                    e.code
                );
            }
        }
        // Precedence: per owner, the table runs in ascending exit order.
        for w in CLAIMS.windows(2) {
            assert!(
                w[0].owner != w[1].owner || w[0].exit <= w[1].exit,
                "{} before {}",
                w[0].id,
                w[1].id
            );
        }
    }

    #[test]
    fn readme_embeds_the_claims_table() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README readable");
        let begin = readme
            .find("<!-- claims:begin")
            .and_then(|i| readme[i..].find("-->\n").map(|j| i + j + 4))
            .expect("claims begin marker");
        let end = readme.find("<!-- claims:end -->").expect("claims end marker");
        let table = markdown_table();
        assert!(
            readme[begin..end] == table,
            "README claims table is stale; replace the block with:\n{table}"
        );
    }
}
