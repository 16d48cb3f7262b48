//! `bench` — the repo's one benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin bench -- \
//!     --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! Runs one workload in a single process, checks every output, and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object. Without `--workload` it runs all five in
//! order. `--trace 1` is the separate traced run that gives the
//! per-layer numbers; end-to-end metrics come from the untraced run
//! only. See `README.md` beside this crate.

mod calib;
mod check;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use livelock_kernel::experiment::{run_trial, TrialSpec};
use livelock_kernel::par::{default_jobs, Parallelism};
use livelock_machine::SchedulerKind;

use calib::{raw_seconds, Clock};
use check::unit_violations;
use metrics::Report;
use stats::median;
use trace::Tracer;
use workloads::{Counts, Features, Outcome, Unit, Workload, TRIAL_PACKETS, WORKLOAD_NAMES};

/// `run_seconds` in `BENCHMARK.json`; the default without `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Share of `--seconds` the traced run spends on passes of its own
/// workload; the layer loops that follow have fixed operation counts.
const TRACED_PASS_SHARE: f64 = 0.3;

/// How many times the traced run times each (kernel, rate, feature)
/// combination of the on/off differentials; each ratio is the median.
const DIFFERENTIAL_ROUNDS: usize = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag}: missing {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("name")?;
                if !WORKLOAD_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "--workload: unknown workload {name:?} (want one of {})",
                        WORKLOAD_NAMES.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                let v = value("number")?;
                parsed.seed = v.parse().map_err(|_| format!("--seed: bad number {v:?}"))?;
            }
            "--seconds" => {
                let v = value("number")?;
                parsed.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 600.0 => s,
                    _ => return Err(format!("--seconds: bad duration {v:?} (want 0 < s <= 600)")),
                };
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The checkout root: the working directory when it holds the repo (the
/// driver runs the command from there), else the crate's parent.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("results").is_dir() && cwd.join("benchmark").is_dir() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// A workload ready to time: its units, and what each unit's output is
/// checked against.
struct Prepared {
    workload: Workload,
    /// `results/<fig>.csv` for each figure unit.
    committed: Vec<Option<String>>,
    /// The warm-up pass's outcomes, which every later pass must
    /// reproduce bit for bit.
    warm_up: Vec<Outcome>,
}

/// Builds the workload's specs and loads the committed CSVs its figures
/// must reproduce.
fn load(name: &str, seed: u64, root: &Path) -> Result<(Workload, Vec<Option<String>>), String> {
    let workload =
        workloads::build(name, seed).ok_or_else(|| format!("unknown workload {name}"))?;
    let committed = workload
        .units
        .iter()
        .map(|unit| match unit {
            Unit::Figure(f) => check::committed_csv(root, f.id)
                .map(Some)
                .map_err(|e| format!("results CSV for figure {}: {e}", f.id)),
            Unit::Trial { .. } => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    Ok((workload, committed))
}

/// Set-up: [`load`], then the warm-up pass, whose outputs become the
/// reference every later pass must reproduce. Returns the warm-up pass's
/// timings too, and the whole set-up's normalised seconds.
fn prepare(
    name: &str,
    seed: u64,
    root: &Path,
    clock: &mut Clock,
    tracer: &mut Tracer,
) -> Result<(Prepared, PassSample, f64), String> {
    let (loaded, load_s) = clock.time(|| load(name, seed, root));
    let (workload, committed) = loaded?;
    let (sample, outcomes) = run_pass(&workload, SERIAL, clock, tracer);
    let setup_s = load_s + sample.norm_s();
    let prepared = Prepared {
        workload,
        committed,
        warm_up: outcomes.into_iter().flatten().collect(),
    };
    Ok((prepared, sample, setup_s))
}

/// One unit's timing in one pass.
struct UnitSample {
    norm_s: f64,
    counts: Counts,
}

/// One pass's timings.
struct PassSample {
    units: Vec<UnitSample>,
    raw_wall_s: f64,
}

impl PassSample {
    fn norm_s(&self) -> f64 {
        self.units.iter().map(|u| u.norm_s).sum()
    }

    fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for u in &self.units {
            total.add(&u.counts);
        }
        total
    }

    fn norm_ns_per_pkt(&self) -> f64 {
        self.norm_s() * 1e9 / self.counts().packets as f64
    }
}

/// Tallies of checked units.
#[derive(Default)]
struct Tally {
    attempted: u64,
    violations: Vec<String>,
    failed: u64,
}

impl Tally {
    fn record(&mut self, label: &str, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            self.violations
                .extend(bad.into_iter().map(|b| format!("{label}: {b}")));
        }
    }
}

/// How a pass runs its units.
#[derive(Clone, Copy)]
struct PassMode {
    par: Parallelism,
    /// Force this event-queue backend on the units that allow it, and
    /// skip the ones that do not.
    scheduler: Option<SchedulerKind>,
}

const SERIAL: PassMode = PassMode {
    par: Parallelism::Serial,
    scheduler: None,
};

/// Runs one pass: every unit in order, each in its own span and its own
/// calibration bracket. Units the mode skips keep their place with a
/// zero sample and no outcome.
fn run_pass(
    workload: &Workload,
    mode: PassMode,
    clock: &mut Clock,
    tracer: &mut Tracer,
) -> (PassSample, Vec<Option<Outcome>>) {
    tracer.span("pass", |tracer| {
        let mut sample = PassSample {
            units: Vec::with_capacity(workload.units.len()),
            raw_wall_s: 0.0,
        };
        let mut outcomes = Vec::with_capacity(workload.units.len());
        for unit in &workload.units {
            if matches!((mode.scheduler, unit), (Some(_), Unit::Figure(f)) if !f.scheduler_selectable()) {
                sample.units.push(UnitSample {
                    norm_s: 0.0,
                    counts: Counts::default(),
                });
                outcomes.push(None);
                continue;
            }
            let ((outcome, raw_s), scale) = clock.measure(|| {
                tracer.span(&unit.label(), |_| {
                    let (outcome, raw_s) = raw_seconds(|| unit.run(mode.par, mode.scheduler));
                    let c = outcome.counts;
                    let counts = vec![("packets", c.packets), ("events", c.events), ("delivered", c.delivered)];
                    ((outcome, raw_s), counts)
                })
            });
            sample.raw_wall_s += raw_s;
            sample.units.push(UnitSample {
                norm_s: raw_s * scale,
                counts: outcome.counts,
            });
            outcomes.push(Some(outcome));
        }
        let c = sample.counts();
        ((sample, outcomes), vec![("packets", c.packets), ("events", c.events)])
    })
}

/// Checks a pass's outcomes against the prepared references.
fn check_pass<'a>(
    p: &Prepared,
    outcomes: impl IntoIterator<Item = Option<&'a Outcome>>,
    tally: &mut Tally,
) {
    let refs = p.workload.units.iter().zip(&p.warm_up).zip(&p.committed);
    for (((unit, warm_up), committed), got) in refs.zip(outcomes) {
        if let Some(got) = got {
            tally.record(
                &unit.label(),
                unit_violations(unit, got, warm_up, committed.as_deref()),
            );
        }
    }
}

/// [`run_pass`], then [`check_pass`] once the clock has stopped.
fn pass(
    p: &Prepared,
    mode: PassMode,
    clock: &mut Clock,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> PassSample {
    let (sample, outcomes) = run_pass(&p.workload, mode, clock, tracer);
    check_pass(p, outcomes.iter().map(Option::as_ref), tally);
    sample
}

/// `VmHWM` from `/proc/self/status`, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(name: &str, seed: u64, seconds: f64, root: &Path) -> Result<Report, String> {
    let mut clock = Clock::new();
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();

    // Set-up, several times over so its median is steady. Every warm-up
    // pass is checked like a timed pass, against the first one (whose
    // own rerun check is vacuous; its invariant and CSV checks are not).
    let (prepared, _, first_s) = prepare(name, seed, root, &mut clock, &mut tracer)?;
    check_pass(&prepared, prepared.warm_up.iter().map(Some), &mut tally);
    let mut setups = vec![first_s];
    while setups.len() < prepared.workload.setup_runs {
        let (again, _, setup_s) = prepare(name, seed, root, &mut clock, &mut tracer)?;
        check_pass(&prepared, again.warm_up.iter().map(Some), &mut tally);
        setups.push(setup_s);
    }

    let measuring = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || measuring.elapsed().as_secs_f64() < seconds {
        passes.push(pass(&prepared, SERIAL, &mut clock, &mut tracer, &mut tally));
    }

    let per_pass: Vec<f64> = passes.iter().map(PassSample::norm_ns_per_pkt).collect();
    let per_unit: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.units)
        .map(|u| u.norm_s * 1e9 / u.counts.packets as f64)
        .collect();
    let tail = stats::tail(&per_unit);
    let totals = passes[0].counts();
    let raw: Vec<f64> = passes.iter().map(|p| p.raw_wall_s).collect();
    println!(
        "{name}: {} passes, raw pass wall {:.4} s (median), calibration {:.2} ms (median of {})",
        passes.len(),
        median(&raw),
        median(clock.calibrations()) * 1e3,
        clock.calibrations().len()
    );
    println!(
        "{name}: norm_ns_per_pkt_tail is p{} over {} (unit, pass) samples",
        tail.percentile, tail.samples
    );
    print_sim_facts(name, &totals);
    print_violations(name, &tally);
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("norm_ns_per_pkt".into(), median(&per_pass)),
            ("norm_ns_per_pkt_tail".into(), tail.value),
            ("setup_s".into(), median(&setups)),
            ("peak_rss_mb".into(), peak_rss_mb()?),
        ],
    })
}

fn print_sim_facts(name: &str, c: &Counts) {
    println!(
        "{name}: sim_delivered_frac {:.6}, sim_latency_p99_us {:.1}, events/pkt {:.4}, sim_digest {:016x}",
        c.delivered as f64 / c.packets as f64,
        c.p99_ns as f64 / 1e3,
        c.events as f64 / c.packets as f64,
        c.digest
    );
}

fn print_violations(name: &str, tally: &Tally) {
    for v in tally.violations.iter().take(20) {
        println!("{name}: CHECK FAILED: {v}");
    }
    if tally.violations.len() > 20 {
        println!("{name}: ... and {} more", tally.violations.len() - 20);
    }
}

/// The traced run: passes of the workload with a span around every
/// unit, then the workload-independent layer measurements.
fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    root: &Path,
) -> Result<(Report, Tracer), String> {
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let metrics = tracer.span("run", |tracer| {
        (
            traced_metrics(name, seed, seconds, root, tracer, &mut tally),
            vec![],
        )
    })?;
    print_violations(name, &tally);
    Ok((
        Report {
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        },
        tracer,
    ))
}

fn traced_metrics(
    name: &str,
    seed: u64,
    seconds: f64,
    root: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let mut clock = Clock::new();
    let mut out = Vec::new();
    tracer.set_enabled(false);
    let (prepared, _, _) = prepare(name, seed, root, &mut clock, tracer)?;
    check_pass(&prepared, prepared.warm_up.iter().map(Some), tally);

    // Rounds of three passes — tracing off, the heap backend, tracing
    // on — adjacent, so each ratio is paired. The heap pass's outputs
    // are checked against the (calendar) warm-up pass like any other.
    let heap = PassMode {
        scheduler: Some(SchedulerKind::Heap),
        ..SERIAL
    };
    let (mut plain, mut heaped, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    while plain.is_empty() || measuring.elapsed().as_secs_f64() < seconds * TRACED_PASS_SHARE {
        tracer.set_enabled(false);
        plain.push(pass(&prepared, SERIAL, &mut clock, tracer, tally));
        heaped.push(pass(&prepared, heap, &mut clock, tracer, tally));
        tracer.set_enabled(true);
        traced.push(pass(&prepared, SERIAL, &mut clock, tracer, tally));
    }
    workload_metrics(&plain, &heaped, &traced, &mut out);
    print_sim_facts(name, &traced[0].counts());

    tracer.span("layer.loops", |tracer| {
        let mut loops = layers::Loops {
            clock: &mut clock,
            tracer,
            out: Vec::new(),
        };
        loops.run_all();
        out.append(&mut loops.out);
        ((), vec![])
    });
    tracer.span("layer.trials", |tracer| {
        trial_layers(
            &prepared, &traced, seed, &mut clock, tracer, tally, &mut out,
        );
        ((), vec![])
    });
    tracer.span("layer.figures", |tracer| {
        (
            figure_layers(
                &prepared, &traced, root, &mut clock, tracer, tally, &mut out,
            ),
            vec![],
        )
    })?;
    tracer.span("layer.lint", |_| {
        (lint_layer(root, &mut clock, &mut out), vec![])
    })?;

    let raw: Vec<f64> = plain.iter().chain(&traced).map(|p| p.raw_wall_s).collect();
    out.push(("driver.pass_wall_s".into(), median(&raw)));
    out.push(("driver.calib_ms".into(), median(clock.calibrations()) * 1e3));
    Ok(out)
}

/// The per-layer metrics that come from the workload's own passes.
fn workload_metrics(
    plain: &[PassSample],
    heaped: &[PassSample],
    traced: &[PassSample],
    out: &mut Vec<(String, f64)>,
) {
    let c = traced[0].counts();
    let pkts = c.packets as f64;
    out.push(("sim.delivered_frac".into(), c.delivered as f64 / pkts));
    out.push(("sim.latency_p99_us".into(), c.p99_ns as f64 / 1e3));
    out.push(("net.pool.misses".into(), c.pool_misses as f64));
    out.push(("machine.events_per_pkt".into(), c.events as f64 / pkts));
    out.push(("machine.intrs_per_pkt".into(), c.intrs as f64 / pkts));
    let per_event: Vec<f64> = traced
        .iter()
        .map(|s| s.norm_s() * 1e9 / c.events as f64)
        .collect();
    out.push(("machine.norm_ns_per_event".into(), median(&per_event)));
    out.push(("kernel.ring_drop_frac".into(), c.ring_drops as f64 / pkts));
    out.push(("kernel.queue_drop_frac".into(), c.queue_drops as f64 / pkts));
    // Calendar ÷ heap over the units the heap pass ran, round by round.
    let ratios: Vec<f64> = plain
        .iter()
        .zip(heaped)
        .map(|(cal, heap)| {
            let both = cal
                .units
                .iter()
                .zip(&heap.units)
                .filter(|(_, h)| h.counts.packets > 0);
            let (c, h) = both.fold((0.0, 0.0), |(c, h), (cu, hu)| {
                (c + cu.norm_s, h + hu.norm_s)
            });
            c / h
        })
        .collect();
    out.push(("kernel.sched.calendar_vs_heap".into(), median(&ratios)));
    let overheads: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| t.norm_s() / p.norm_s() - 1.0)
        .collect();
    out.push(("driver.trace_overhead_frac".into(), median(&overheads)));
}

/// Times one trial in its own span and bracket, checks its invariants,
/// and returns normalised ns per packet.
fn time_trial(
    label: &str,
    spec: &TrialSpec,
    clock: &mut Clock,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> f64 {
    let norm_s = tracer.span(label, |_| {
        let (r, norm_s) = clock.time(|| run_trial(spec));
        tally.record(label, check::trial_violations(spec, &r));
        let events = r.aggregate().events_dispatched;
        (
            norm_s,
            vec![("packets", spec.n_packets as u64), ("events", events)],
        )
    });
    norm_s * 1e9 / spec.n_packets as f64
}

/// Per-layer metrics that need whole trials: one number per trial of
/// the four trial workloads, the on/off differentials of the
/// observability features, and the fixed-cost and SMP-cost ratios.
fn trial_layers(
    p: &Prepared,
    traced: &[PassSample],
    seed: u64,
    clock: &mut Clock,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Vec<(String, f64)>,
) {
    // This workload's own trials were timed by its traced passes; the
    // other workloads' trials run once here.
    for (i, unit) in p.workload.units.iter().enumerate() {
        if let Unit::Trial { label, .. } = unit {
            let samples: Vec<f64> = traced
                .iter()
                .map(|s| s.units[i].norm_s * 1e9 / s.units[i].counts.packets as f64)
                .collect();
            out.push((metrics::trial_metric(label), median(&samples)));
        }
    }
    for unit in workloads::all_trials(seed) {
        let Unit::Trial { label, spec } = &unit else {
            continue;
        };
        if !p.workload.units.iter().any(|u| u.label() == *label) {
            out.push((
                metrics::trial_metric(label),
                time_trial(label, spec, clock, tracer, tally),
            ));
        }
    }

    // What each observability feature costs: the same traffic with the
    // feature on ÷ with everything off, one ratio per (kernel, rate).
    let variants = [
        (
            "kernel.latency.overhead_frac",
            Features {
                latency: true,
                ..Features::NONE
            },
        ),
        (
            "kernel.telemetry.overhead_frac",
            Features {
                telemetry: true,
                ..Features::NONE
            },
        ),
        (
            "kernel.observe.overhead_frac",
            Features {
                observe: true,
                ..Features::NONE
            },
        ),
        (
            "kernel.classes.overhead_frac",
            Features {
                classes: true,
                ..Features::NONE
            },
        ),
        ("kernel.all_on.overhead_frac", Features::ALL),
    ];
    let mut overheads: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for _round in 0..DIFFERENTIAL_ROUNDS {
        for base in workloads::observed_bases() {
            for rate in workloads::OBSERVED_RATES {
                let spec = |on| workloads::observed_spec(rate, seed, base.clone(), on);
                let off = time_trial(
                    "observed.all_off",
                    &spec(Features::NONE),
                    clock,
                    tracer,
                    tally,
                );
                for ((name, on), ratios) in variants.iter().zip(&mut overheads) {
                    ratios.push(time_trial(name, &spec(*on), clock, tracer, tally) / off - 1.0);
                }
            }
        }
    }
    for ((name, _), ratios) in variants.iter().zip(&overheads) {
        out.push(((*name).into(), median(ratios)));
    }

    // Per-trial fixed cost: ten 10 k-packet trials against one 100 k,
    // at a rate one CPU forwards in full.
    let polled = |ncpus| workloads::polled(10).ncpus(ncpus).build();
    let at = |n_packets, config| TrialSpec {
        rate_pps: 4_000.0,
        n_packets,
        seed,
        ..TrialSpec::new(config)
    };
    let short_spec = at(TRIAL_PACKETS / 10, polled(1));
    let short_s = tracer.span("short_x10", |_| {
        let ((), norm_s) = clock.time(|| {
            for _ in 0..10 {
                std::hint::black_box(run_trial(&short_spec));
            }
        });
        (norm_s, vec![("packets", TRIAL_PACKETS as u64)])
    });
    let long = time_trial(
        "long_x1",
        &at(TRIAL_PACKETS, polled(1)),
        clock,
        tracer,
        tally,
    );
    out.push((
        "kernel.short_vs_long".into(),
        short_s * 1e9 / TRIAL_PACKETS as f64 / long,
    ));
    // What the SMP machinery costs when one CPU could carry the load.
    let four = time_trial(
        "smp_4cpu",
        &at(TRIAL_PACKETS, polled(4)),
        clock,
        tracer,
        tally,
    );
    out.push(("kernel.smp.cost_ratio_4v1".into(), four / long));
}

/// Per-figure normalised times, and what `--jobs` buys on this box.
fn figure_layers(
    p: &Prepared,
    traced: &[PassSample],
    root: &Path,
    clock: &mut Clock,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    // On `figure_set` the traced passes already timed every figure.
    // Elsewhere one serial pass of the figure set does, and doubles as
    // the reference the parallel pass must reproduce.
    let here;
    let (figures, serial): (&Prepared, Vec<&PassSample>) = if p.workload.name == "figure_set" {
        (p, traced.iter().collect())
    } else {
        here = prepare("figure_set", 0, root, clock, tracer)?;
        check_pass(&here.0, here.0.warm_up.iter().map(Some), tally);
        (&here.0, vec![&here.1])
    };
    for (i, unit) in figures.workload.units.iter().enumerate() {
        if let Unit::Figure(f) = unit {
            let ms: Vec<f64> = serial.iter().map(|s| s.units[i].norm_s * 1e3).collect();
            out.push((metrics::figure_metric(f.id), median(&ms)));
        }
    }
    let jobs = PassMode {
        par: Parallelism::Jobs(default_jobs()),
        ..SERIAL
    };
    let parallel = pass(figures, jobs, clock, tracer, tally);
    let serial_s = median(&serial.iter().map(|s| s.norm_s()).collect::<Vec<_>>());
    out.push((
        "kernel.par.jobs_speedup".into(),
        serial_s / parallel.norm_s(),
    ));
    Ok(())
}

/// `lint::lint_workspace` over the repo: what `scripts/ci.sh` pays.
fn lint_layer(root: &Path, clock: &mut Clock, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let baseline = lint::baseline::Baseline::load(&root.join("crates/lint/baseline.txt"))
        .map_err(|e| format!("lint baseline: {e}"))?;
    let (scan, norm_s) = clock.time(|| lint::lint_workspace(root, &baseline));
    let scan = scan.map_err(|e| format!("lint scan: {e}"))?;
    out.push(("lint.workspace_scan_ms".into(), norm_s * 1e3));
    out.push(("lint.files_scanned".into(), scan.files_scanned as f64));
    Ok(())
}

fn run_one(name: &str, args: &Args, root: &Path) -> Result<(), String> {
    let (report, schema) = if args.trace {
        let (report, tracer) = run_traced(name, args.seed, args.seconds, root)?;
        let path = root.join("benchmark/out/trace.json");
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{name}: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (report, metrics::per_layer())
    } else {
        (
            run_untraced(name, args.seed, args.seconds, root)?,
            metrics::end_to_end(),
        )
    };
    let line = report.to_json(&schema)?;
    for (metric, unit) in &schema {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == metric) {
            println!("{name}: {metric} = {v} {unit}");
        }
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            eprintln!("usage: bench [--workload <name>] [--seed S] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOAD_NAMES.to_vec(),
    };
    for name in names {
        if let Err(e) = run_one(name, &args, &root) {
            eprintln!("bench: {name}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "smp4",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("smp4"), 7, 15.0, false)
        );
        assert!(
            parse(&["--workload", "smp4", "--trace", "1"])
                .expect("valid")
                .trace
        );
    }

    #[test]
    fn a_bare_trace_flag_means_on_and_defaults_apply() {
        let a = parse(&["--trace", "--workload", "fastpath"]).expect("valid");
        assert!(a.trace);
        assert_eq!((a.seed, a.seconds), (1, DEFAULT_SECONDS));
        assert!(parse(&[]).expect("valid").workload.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
