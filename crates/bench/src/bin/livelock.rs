//! `livelock` — the command-line face of the reproduction.
//!
//! `livelock <subcommand> [--flag value]...`; run it bare, or with a bad
//! flag, for the usage — one line per subcommand, generated from the
//! flag lists [`subcommand`] parses against. `configs` lists the kernel
//! configurations `--config` names.
//!
//! `trial` runs one paper-style measurement and prints the full breakdown,
//! including the conserved CPU-cycle ledger's per-class shares
//! (`--latency` adds per-stage latency quantiles and a drop-reason table;
//! `--timeline out.csv` enables the clock-tick telemetry sampler and
//! writes its time-series as CSV; `--chrome-trace out.json` records the
//! machine's scheduling trace and writes Chrome-trace / Perfetto JSON for
//! `chrome://tracing` or <https://ui.perfetto.dev>; `--events out.jsonl`
//! enables the observability layer and streams the online livelock
//! detector's typed events as JSONL; `--flamegraph out.folded` writes the
//! machine's per-(cpu, class, stage) cycle fold as collapsed-stack text
//! for `inferno-flamegraph` / `flamegraph.pl`);
//! `sweep` prints the (input rate, output rate) series a figure would
//! plot (`--latency` adds a p99-latency column per config); `mlfrr`
//! searches for the Maximum Loss Free Receive Rate by
//! multisection (with `--jobs N`, each round probes N rates concurrently).
//! `--jobs` defaults to the host's available parallelism; results are
//! identical for every job count.
//!
//! `chaos` runs a deterministic seeded fault storm (lost and spurious
//! interrupts, packet corruption, overrun bursts, link flaps, screend
//! stalls and crashes) against the polled-with-feedback kernel and the
//! unmodified kernel, then evaluates its graceful-degradation claims;
//! `chaos --priority` runs the same storm with the P-1 flow classifier and
//! the observability layer on both kernels (classes are *observed* on the
//! unmodified kernel but only *enforced* on the polled one) and adds the
//! priority-isolation claims. `observe` runs the online livelock detector
//! against both kernels at one overload rate (an eight-flow flood through
//! screend) and evaluates the detection claims. Both exit with the
//! smallest violated claim's code (`livelock_bench::claims`; README's
//! claims table lists the rows behind each), or 2
//! (`livelock_bench::exit::LivelockExit::Usage`) on bad arguments.

use livelock_bench::claims::{self, ClaimExit, Drained, Evidence, Run};
use livelock_bench::exit::{Exit, LivelockExit};
use livelock_core::analysis::{
    classify, mlfrr_multisection, multisection_rounds, overload_stability, SweepPoint,
};
use livelock_core::poller::Quota;
use livelock_kernel::config::{KernelConfig, LocalDeliveryConfig};
use livelock_kernel::experiment::{
    paper_rates, run_chaos_trial, run_trial, run_trial_traced, TrialResult, TrialSpec,
};
use livelock_kernel::experiment::sweep;
use livelock_kernel::par::{default_jobs, par_map, Parallelism};
use livelock_kernel::stats::{DropReason, Stage};
use livelock_machine::CpuClass;
use livelock_sim::Nanos;

/// Every named kernel configuration: its name, what it is, and the kernel.
#[rustfmt::skip]
fn configs() -> Vec<(&'static str, &'static str, KernelConfig)> {
    let b = KernelConfig::builder;
    let polled = |q| b().polled(q);
    let polled_screend = |q| polled(Quota::Limited(q)).screend(Default::default());
    let end_system = LocalDeliveryConfig { feedback: true };
    vec![
        ("unmodified", "4.2BSD interrupt-driven path (Figure 6-1)", b().build()),
        ("screend", "unmodified + user-mode screend filter", b().screend(Default::default()).build()),
        ("no-polling", "modified kernel acting unmodified (Figure 6-3)", b().no_polling().build()),
        ("polled", "modified kernel, polling, quota 10", polled(Quota::Limited(10)).build()),
        ("polled-q5", "polling, quota 5", polled(Quota::Limited(5)).build()),
        ("polled-q100", "polling, quota 100", polled(Quota::Limited(100)).build()),
        ("no-quota", "polling without a quota (livelocks, Figure 6-3)", polled(Quota::Unlimited).build()),
        ("feedback", "polling + screend + queue-state feedback (Figure 6-4)", polled_screend(10).feedback(Default::default()).build()),
        ("no-feedback", "polling + screend, feedback off (livelocks)", polled_screend(10).build()),
        ("rate-limited", "unmodified + 2000/s interrupt rate limit (§5.1)", b().intr_rate_limit(2_000.0, 4).build()),
        ("cycle-25", "polling + 25% CPU cycle limit + user process (§7)", polled(Quota::Limited(5)).cycle_limit(0.25).user_process(true).build()),
        ("cycle-50", "polling + 50% CPU cycle limit + user process", polled(Quota::Limited(5)).cycle_limit(0.50).user_process(true).build()),
        ("end-system", "UDP/RPC server, modified kernel + socket feedback", polled(Quota::Limited(10)).local_delivery(end_system).ip_forwarding(false).build()),
    ]
}

fn config_by_name(name: &str) -> Option<KernelConfig> {
    configs().into_iter().find(|c| c.0 == name).map(|c| c.2)
}

struct Args {
    flags: Vec<(String, String)>,
}

/// A subcommand's body: its exit status, or a usage error.
type Handler = fn(&Args) -> Result<Exit, String>;

/// The longest offered load a trial spec may describe: one simulated
/// day. Idle clock ticks still cost host time (~0.25 ms per simulated
/// second), so a tiny positive rate would run for hours; the longest
/// canonical trial spans 20 s (10 000 packets at 500 pkts/s).
const MAX_SPAN_SECS: f64 = 86_400.0;

/// Rejects a spec whose offered load — `n_packets` at the slowest of
/// `rates` — spans more than [`MAX_SPAN_SECS`] of simulated time. The
/// message names `--{flag}`, the flag that set the rates.
fn check_span(flag: &str, rates: &[f64], n_packets: usize) -> Result<(), String> {
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let secs = n_packets as f64 / slowest;
    if secs > MAX_SPAN_SECS {
        return Err(format!(
            "--{flag}: {n_packets} packets at {slowest} pkts/s span {secs:.0} s, \
             over the {MAX_SPAN_SECS:.0} s a trial may simulate"
        ));
    }
    Ok(())
}

/// Every subcommand, in usage order: its name, known flags and body.
#[rustfmt::skip]
const SUBCOMMANDS: [(&str, &[&str], Handler); 6] = [
    ("configs", &[], |_| {
        cmd_configs();
        Ok(Exit::SUCCESS)
    }),
    ("trial", &[
        "config", "rate", "packets", "seed", "latency", "ncpus", "steal", "timeline",
        "chrome-trace", "events", "flamegraph",
    ], |args| cmd_trial(args).map(|()| Exit::SUCCESS)),
    ("sweep", &["config", "rates", "packets", "jobs", "latency", "ncpus", "steal"], |args| {
        cmd_sweep(args).map(|()| Exit::SUCCESS)
    }),
    ("mlfrr", &["config", "loss-free", "packets", "jobs"], |args| cmd_mlfrr(args).map(|()| Exit::SUCCESS)),
    ("chaos", &["seed", "rate", "packets", "intensity", "priority"], cmd_chaos),
    ("observe", &["rate", "packets", "seed"], cmd_observe),
];

/// A subcommand's known flags and body (`None`: no such subcommand).
fn subcommand(cmd: &str) -> Option<(&'static [&'static str], Handler)> {
    SUBCOMMANDS
        .iter()
        .find(|&&(name, ..)| name == cmd)
        .map(|&(_, flags, run)| (flags, run))
}

/// The usage text: one line per subcommand, generated from the flag
/// lists [`subcommand`] parses against so it cannot drift from them.
fn usage() -> String {
    let mut out = String::from("usage:");
    for (cmd, flags, _) in SUBCOMMANDS {
        out.push_str("\n  livelock ");
        out.push_str(cmd);
        for flag in flags {
            let value = if Args::BOOL_FLAGS.contains(flag) {
                ""
            } else {
                " V"
            };
            out.push_str(&format!(" [--{flag}{value}]"));
        }
    }
    out
}

impl Args {
    /// Flags that take no value.
    const BOOL_FLAGS: &'static [&'static str] = &["latency", "steal", "priority"];

    /// Parses `--name value` pairs (and bare [`BOOL_FLAGS`](Self::BOOL_FLAGS)),
    /// rejecting any flag not in `known`: a mistyped flag is an error, not
    /// a silently ignored default.
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if !known.contains(&name) {
                let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown flag --{name} (this subcommand takes: {})",
                    if known.is_empty() {
                        "no flags".to_string()
                    } else {
                        known.join(" ")
                    }
                ));
            }
            if Self::BOOL_FLAGS.contains(&name) {
                flags.push((name.to_string(), String::new()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            Self::check_spec_value(name, value)?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    /// The trial-spec flags every subcommand shares must describe a trial
    /// that can run: a degenerate rate or packet count is a usage error
    /// here, not a panic inside the trial pipeline.
    fn check_spec_value(name: &str, value: &str) -> Result<(), String> {
        let bad = |v: &str| format!("--{name}: bad number {v:?}");
        match name {
            "rate" | "rates" => {
                Self::parse_rates(name, value)?;
            }
            "packets" => {
                let n: usize = value.parse().map_err(|_| bad(value))?;
                if n == 0 {
                    return Err("--packets: must be at least 1, got 0".to_string());
                }
            }
            "loss-free" => {
                let frac: f64 = value.parse().map_err(|_| bad(value))?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(format!(
                        "--loss-free: must be a fraction in (0, 1], got {frac}"
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The comma-separated offered rates of `--rate` / `--rates`, each
    /// finite and positive.
    fn parse_rates(name: &str, value: &str) -> Result<Vec<f64>, String> {
        value
            .split(',')
            .map(|v| {
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("--{name}: bad number {v:?}"))?;
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("--{name}: must be positive, got {rate}"));
                }
                if rate.is_infinite() {
                    return Err(format!("--{name}: must be finite, got {rate}"));
                }
                Ok(rate)
            })
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The number `--name` gives, or `default` when it is absent.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }
}

fn cmd_configs() {
    println!("{:<14} description", "name");
    for (name, desc, _) in configs() {
        println!("{name:<14} {desc}");
    }
}

/// Ring capacity for `--chrome-trace`: enough records for a full
/// 10,000-packet trial (each packet is a handful of scheduling events).
const TRACE_CAPACITY: usize = 1 << 20;

/// Applies `--ncpus N` / `--steal` to a parsed config: the SMP topology
/// (per-CPU executors fed by a multiqueue RSS NIC, see DESIGN.md §12).
fn apply_topology(cfg: &mut KernelConfig, args: &Args) -> Result<(), String> {
    let ncpus = args.num::<usize>("ncpus", 1)?;
    if ncpus == 0 || ncpus > 8 {
        return Err(format!("--ncpus: want 1..=8, got {ncpus}"));
    }
    cfg.topology.ncpus = ncpus;
    cfg.topology.steal = args.has("steal");
    Ok(())
}

fn cmd_trial(args: &Args) -> Result<(), String> {
    let name = args.get("config").unwrap_or("polled");
    let mut cfg = config_by_name(name).ok_or_else(|| format!("unknown config {name:?}"))?;
    apply_topology(&mut cfg, args)?;
    let timeline_path = args.get("timeline");
    let trace_path = args.get("chrome-trace");
    let events_path = args.get("events");
    let flamegraph_path = args.get("flamegraph");
    cfg.telemetry = timeline_path.is_some();
    cfg.observe = events_path.is_some() || flamegraph_path.is_some();
    let freq = cfg.cost.freq;
    let spec = TrialSpec {
        rate_pps: args.num::<f64>("rate", 8_000.0)?,
        n_packets: args.num::<usize>("packets", 10_000)?,
        seed: args.num::<u64>("seed", 1)?,
        ..TrialSpec::new(cfg)
    };
    check_span("rate", &[spec.rate_pps], spec.n_packets)?;
    let (r, chrome_json) = match trace_path {
        Some(_) => {
            let (r, json) = run_trial_traced(&spec, TRACE_CAPACITY);
            (r, Some(json))
        }
        None => (run_trial(&spec), None),
    };
    if let Some(path) = timeline_path {
        let tl = r
            .timeline
            .as_ref()
            .ok_or("telemetry produced no timeline despite being enabled")?;
        std::fs::write(path, tl.to_csv(freq))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {} telemetry samples to {path}", tl.len());
    }
    if let (Some(path), Some(json)) = (trace_path, &chrome_json) {
        std::fs::write(path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = events_path {
        let mut out = String::new();
        for ev in &r.events {
            out.push_str(&ev.to_json(freq));
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {} observability events to {path}", r.events.len());
    }
    if let Some(path) = flamegraph_path {
        let fold = r
            .fold
            .as_ref()
            .ok_or("observability produced no cycle fold despite being enabled")?;
        std::fs::write(path, fold.folded(livelock_kernel::tag_label))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote collapsed-stack cycle fold to {path}");
    }
    println!("config          {name}");
    println!("offered         {:>10.0} pkts/s", r.offered_pps);
    println!("delivered       {:>10.0} pkts/s", r.delivered_pps);
    println!("transmitted     {:>10}", r.transmitted);
    println!("rx-ring drops   {:>10}  (free)", r.rx_ring_drops);
    println!("ipintrq drops   {:>10}", r.ipintrq_drops);
    println!("screend-q drops {:>10}", r.screend_q_drops);
    println!("ifqueue drops   {:>10}", r.ifq_drops);
    println!("socket-q drops  {:>10}", r.socket_q_drops);
    println!(
        "app delivered   {:>10}  ({:.0} op/s)",
        r.app_delivered, r.app_delivered_pps
    );
    println!("latency mean    {:>10}", r.latency_mean);
    println!("latency p99     {:>10}", r.latency_p99);
    let agg = r.aggregate();
    println!("interrupts      {:>10}", agg.interrupts_taken);
    println!("user CPU        {:>9.1}%", agg.user_cpu_frac * 100.0);
    println!("CPU by class (window, conserved ledger)");
    for c in CpuClass::ALL {
        let share = agg.cpu_share[c.index()];
        if share >= 0.0005 {
            println!("  {:<13} {:>9.1}%", c.label(), share * 100.0);
        }
    }
    if r.per_cpu().len() > 1 {
        println!("per-CPU (busy%, interrupts, steals out/in)");
        for cpu in r.per_cpu() {
            println!(
                "  cpu{:<2} busy {:>5.1}%  intrs {:>8}  steals {:>6}/{:<6}",
                cpu.cpu.0,
                (1.0 - cpu.cpu_share[CpuClass::Idle.index()]) * 100.0,
                cpu.interrupts_taken,
                cpu.steals_published,
                cpu.steals_taken,
            );
        }
    }
    if args.has("latency") {
        print_latency_breakdown(&r);
    }
    Ok(())
}

/// The `--latency` report: per-stage sojourn quantiles for delivered
/// packets, then every drop attributed to its reason.
fn print_latency_breakdown(r: &TrialResult) {
    println!();
    println!(
        "latency (us)  {:>10} {:>10} {:>10} {:>10} {:>10}  {:>8}",
        "p50", "p90", "p99", "p99.9", "max", "count"
    );
    let row = |name: &str, h: &livelock_sim::HdrHistogram| {
        if h.is_empty() {
            return;
        }
        println!(
            "  {name:<11} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}  {:>8}",
            h.quantile(0.50).as_micros_f64(),
            h.quantile(0.90).as_micros_f64(),
            h.quantile(0.99).as_micros_f64(),
            h.quantile(0.999).as_micros_f64(),
            h.max().as_micros_f64(),
            h.count(),
        );
    };
    row("total", &r.latency.total);
    for s in Stage::ALL {
        row(s.label(), r.latency.stage(s));
    }
    println!();
    println!("drops by reason");
    if r.drops.total() == 0 {
        println!("  (none)");
    }
    for reason in DropReason::ALL {
        let n = r.drops.get(reason);
        if n > 0 {
            println!("  {:<18} {n:>10}", reason.label());
        }
    }
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let names: Vec<&str> = args
        .get("config")
        .unwrap_or("unmodified,polled")
        .split(',')
        .collect();
    let rates = match args.get("rates") {
        None => paper_rates(),
        Some(s) => Args::parse_rates("rates", s)?,
    };
    let n_packets = args.num::<usize>("packets", 3_000)?;
    check_span("rates", &rates, n_packets)?;
    let jobs = args.num::<usize>("jobs", default_jobs())?;
    let latency = args.has("latency");

    let mut results = Vec::new();
    for name in &names {
        let mut cfg = config_by_name(name).ok_or_else(|| format!("unknown config {name:?}"))?;
        apply_topology(&mut cfg, args)?;
        let base = TrialSpec {
            n_packets,
            ..TrialSpec::new(cfg)
        };
        eprintln!("sweeping {name}...");
        results.push(sweep(name, &base, &rates, Parallelism::Jobs(jobs)));
    }

    print!("{:>10}", "input_pps");
    for s in &results {
        print!("{:>14}", s.label);
    }
    if latency {
        for s in &results {
            print!("{:>18}", format!("{}_p99us", s.label));
        }
    }
    println!();
    for (i, rate) in rates.iter().enumerate() {
        print!("{rate:>10.0}");
        for s in &results {
            print!("{:>14.0}", s.trials[i].delivered_pps);
        }
        if latency {
            for s in &results {
                print!("{:>18.1}", s.trials[i].latency_p99.as_micros_f64());
            }
        }
        println!();
    }
    println!();
    for s in &results {
        let pts = s.points();
        println!(
            "{:<14} stability {:.2}, verdict {:?}",
            s.label,
            overload_stability(&pts),
            classify(&pts, 0.10, 0.80)
        );
    }
    Ok(())
}

fn cmd_mlfrr(args: &Args) -> Result<(), String> {
    let name = args.get("config").unwrap_or("polled");
    let cfg = config_by_name(name).ok_or_else(|| format!("unknown config {name:?}"))?;
    let loss_free = args.num::<f64>("loss-free", 0.98)?;
    let n_packets = args.num::<usize>("packets", 3_000)?;
    let jobs = args.num::<usize>("jobs", default_jobs())?;
    let lo = 100.0f64;
    let hi = 14_000.0f64;
    check_span("packets", &[lo], n_packets)?;

    // Multisection on the offered rate for the highest loss-free point:
    // each round probes `jobs` bracketing rates concurrently, shrinking
    // the bracket (jobs + 1)x per round where bisection manages 2x.
    let probe = |rates: &[f64]| -> Vec<SweepPoint> {
        let pts = par_map(rates, jobs, |&rate| {
            let r = run_trial(&TrialSpec {
                rate_pps: rate,
                n_packets,
                ..TrialSpec::new(cfg.clone())
            });
            SweepPoint::new(r.offered_pps, r.delivered_pps)
        });
        for (rate, p) in rates.iter().zip(&pts) {
            eprintln!(
                "  {rate:>8.0} pkts/s -> delivered {:>8.0} ({:.1}%)",
                p.delivered,
                100.0 * p.delivered / p.offered
            );
        }
        pts
    };
    // Ensure the bracket is valid.
    let p = &probe(&[lo])[0];
    if p.delivered < loss_free * p.offered {
        return Err(format!("lossy even at {lo} pkts/s; nothing to search"));
    }
    // Match classic 12-round bisection precision (~3.4 pkts/s here).
    let rounds = multisection_rounds(jobs, 12);
    let m = mlfrr_multisection((lo, hi), jobs, rounds, loss_free, probe);
    println!(
        "MLFRR({name}, loss-free ≥ {:.0}%) ≈ {:.0} pkts/s",
        loss_free * 100.0,
        m
    );
    Ok(())
}

/// The largest `chaos --intensity`: a storm schedules 48 faults per
/// unit, so the cap keeps a plan to tens of thousands of events where an
/// unbounded value would schedule until memory ran out.
const MAX_INTENSITY: f64 = 1_000.0;

/// The seeded fault-storm run: both kernels face the identical storm and
/// the `livelock chaos` claims judge the pair.
fn cmd_chaos(args: &Args) -> Result<Exit, String> {
    let seed = args.num::<u64>("seed", 0xC4A05)?;
    let priority = args.has("priority");
    // The default rate sits deep in the unmodified kernel's livelock
    // region, so the run demonstrates the contrast the paper is about:
    // the polled kernel rides out the same storm the unmodified kernel
    // cannot even survive fault-free. The --priority default sits lower:
    // cross-class inversion needs the unmodified kernel still serving a
    // Bulk trickle while Control starves — at deep collapse it serves
    // nothing at all, which is livelock, not inversion.
    let rate = args.num::<f64>("rate", if priority { 5_000.0 } else { 12_000.0 })?;
    let n_packets = args.num::<usize>("packets", 6_000)?;
    let intensity = args.num::<f64>("intensity", 2.0)?;
    if !(0.0..=MAX_INTENSITY).contains(&intensity) {
        return Err(format!("--intensity: want 0..={MAX_INTENSITY}, got {intensity}"));
    }
    check_span("rate", &[rate], n_packets)?;

    // Both kernels route through screend and face the identical storm:
    // the middle 80% of the trial, clear of warm-up and tail.
    let mut polled_cfg = config_by_name("feedback").ok_or("missing feedback config")?;
    let mut unmod_cfg = config_by_name("screend").ok_or("missing screend config")?;
    if priority {
        // The P-1 classifier plus the observability layer on both
        // kernels: the unmodified kernel observes classes without
        // enforcing them, which is exactly the inversion the polled
        // kernel's priority rings and shed gate must prevent. The SLO is
        // storm-aware: a screend crash parks even a perfectly-isolated
        // Control packet for up to ~8 ms of restart, so the fault-free
        // P-1 SLO would flag fault downtime as inversion on any kernel.
        // (The unmodified kernel's verdict does not depend on this: it
        // fires the starved-outright clause, which has no SLO in it.)
        let mut classes = livelock_bench::p1_classify_config();
        classes.slo_p99 = Nanos::from_millis(25);
        polled_cfg.classes = Some(classes.clone());
        unmod_cfg.classes = Some(classes);
        polled_cfg.observe = true;
        unmod_cfg.observe = true;
    }
    let plan = livelock_bench::storm_plan(seed, intensity, polled_cfg.cost.freq, rate, n_packets)
        .ok_or_else(|| {
            format!("--packets: {n_packets} at {rate} pkts/s is under 2 ms of load, too short for a storm")
        })?;
    let n_faults = plan.len() as u64;
    eprintln!(
        "chaos: seed {seed:#x}, intensity {intensity}, {n_faults} faults over \
         {n_packets} packets at {rate:.0} pkts/s"
    );

    let run = |cfg: KernelConfig| {
        let mut spec = TrialSpec {
            rate_pps: rate,
            n_packets,
            flows: priority.then(livelock_bench::p1_flows),
            ..TrialSpec::new(cfg)
        };
        if !plan.is_empty() {
            spec.config.faults = Some(plan.clone());
        }
        run_chaos_trial(&spec)
    };
    let polled = run(polled_cfg);
    let unmod = run(unmod_cfg);

    let f = &polled.result.fault;
    println!("{:<26} {:>12} {:>12}", "", "polled", "unmodified");
    let row = |name: &str, a: String, b: String| println!("{name:<26} {a:>12} {b:>12}");
    row(
        "delivered pkts/s",
        format!("{:.0}", polled.result.delivered_pps),
        format!("{:.0}", unmod.result.delivered_pps),
    );
    row(
        "transmitted",
        polled.result.transmitted.to_string(),
        unmod.result.transmitted.to_string(),
    );
    row(
        "faults injected",
        f.injected.to_string(),
        unmod.result.fault.injected.to_string(),
    );
    println!();
    println!("polled-kernel fault/recovery counters");
    for (name, n) in [
        ("lost interrupts", f.lost_intrs),
        ("spurious interrupts", f.spurious_intrs),
        ("mutated frames", f.mutated_frames),
        ("storm frames", f.storm_frames),
        ("clock jitters", f.clock_jitters),
        ("link flaps", f.link_flaps),
        ("link-down losses", f.link_down_losses),
        ("screend stalls", f.screend_stalls),
        ("screend crashes", f.screend_crashes),
        ("crash-flushed packets", f.crash_flushed),
        ("stall recoveries", f.stall_recoveries),
        ("interrupt reposts", f.intr_reposts),
        ("watchdog unwedges", f.watchdog_unwedges),
        ("feedback timeout resumes", polled.timeout_resumes),
    ] {
        println!("  {name:<24} {n:>10}");
    }
    println!();

    if priority {
        println!("per-class books (delivered pkts/s, shed)");
        for (name, r) in [("polled", &polled.result), ("unmodified", &unmod.result)] {
            print!("  {name:<11}");
            for c in r.per_class() {
                print!(
                    "  {} {:>5.0}/s shed {:<6}",
                    c.class.label(),
                    c.delivered_pps,
                    c.shed
                );
            }
            println!();
        }
        let p_inv = claims::inversions(&polled.result);
        let u_inv = claims::inversions(&unmod.result);
        println!("priority-inversion events: polled {p_inv}, unmodified {u_inv}");
        println!();
    }
    let evidence = Evidence {
        x: rate,
        unmod: &unmod.result,
        polled: &polled.result,
        drained: Some(Drained {
            polled: &polled,
            scheduled_faults: n_faults,
        }),
    };
    let violations = claims::evaluate(|c| matches!(c.exit, ClaimExit::Chaos(_)), Run::Pair(evidence));
    if violations.is_empty() {
        println!(
            "all graceful-degradation invariants hold: delivery sustained, \
             gate open, screend queue drained, ledger conserved, \
             unmodified kernel livelocked under the same storm{}",
            if priority {
                ", Control isolated from inversion on the classified kernel only"
            } else {
                ""
            }
        );
    }
    Ok(claims::report(&violations).map_or(Exit::SUCCESS, Exit::from))
}

/// The online-detection run: both kernels face the identical eight-flow
/// overload through screend with the observability layer on, the typed
/// event streams and per-flow ledgers are printed, and the `livelock
/// observe` claims judge the pair.
fn cmd_observe(args: &Args) -> Result<Exit, String> {
    // The default rate sits past the screend path's MLFRR, where the
    // unmodified kernel livelocks and the polled kernel holds its
    // plateau — the separation the detector exists to time-stamp.
    let rate = args.num::<f64>("rate", 12_000.0)?;
    let n_packets = args.num::<usize>("packets", 6_000)?;
    check_span("rate", &[rate], n_packets)?;
    let seed = args.num::<u64>("seed", 1)?;

    let flows = livelock_bench::o1_flows();
    let run = |name: &str| -> Result<TrialResult, String> {
        let mut cfg = config_by_name(name).ok_or_else(|| format!("missing {name} config"))?;
        cfg.observe = true;
        // The drained chaos-trial harness, fault-free: after its drain
        // window every accepted packet has either been delivered or
        // attributed to a drop, so the per-flow ledgers close exactly.
        Ok(run_chaos_trial(&TrialSpec {
            rate_pps: rate,
            n_packets,
            seed,
            flows: Some(flows.clone()),
            ..TrialSpec::new(cfg)
        })
        .result)
    };
    let unmod = run("screend")?;
    let polled = run("feedback")?;
    let freq = config_by_name("screend").ok_or("missing screend config")?.cost.freq;

    for (name, r) in [("unmodified+screend", &unmod), ("polled+feedback", &polled)] {
        println!("{name}: delivered {:.0} pkts/s, {} events", r.delivered_pps, r.events.len());
        for ev in &r.events {
            println!("  {}", ev.to_json(freq));
        }
        println!(
            "  {:<6} {:>8} {:>10} {:>8} {:>12}",
            "flow", "arrived", "delivered", "dropped", "p99_us"
        );
        for s in r.per_flow() {
            println!(
                "  {:<6} {:>8} {:>10} {:>8} {:>12.1}",
                s.key.src_port,
                s.arrived,
                s.delivered,
                s.drops.total(),
                if s.latency.is_empty() {
                    0.0
                } else {
                    s.latency.quantile(0.99).as_micros_f64()
                },
            );
        }
        println!();
    }

    if let Some(at) = claims::onset(&unmod) {
        println!(
            "unmodified livelock onset at cycle {} ({:.1} us into the trial)",
            at.raw(),
            freq.nanos_from_cycles(at).as_micros_f64()
        );
    }
    let evidence = Evidence {
        x: rate,
        unmod: &unmod,
        polled: &polled,
        drained: None,
    };
    let violations = claims::evaluate(|c| matches!(c.exit, ClaimExit::Observe(_)), Run::Pair(evidence));
    if violations.is_empty() {
        println!(
            "all online-detection claims hold: onset timed on the unmodified kernel, \
             none on the polled kernel, starvation contained, per-flow ledgers closed"
        );
    }
    Ok(claims::report(&violations).map_or(Exit::SUCCESS, Exit::from))
}

fn main() -> Exit {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return LivelockExit::Usage.into();
    };
    let result = match subcommand(cmd) {
        None => Err(format!("unknown command {cmd:?}")),
        Some((known, run)) => Args::parse(rest, known).and_then(|args| run(&args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{}", usage());
        LivelockExit::Usage.into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, raw: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, subcommand(cmd).expect("a subcommand").0)
    }

    #[test]
    fn a_mistyped_flag_is_an_error_naming_it() {
        let err = parse("trial", &["--cpus", "4"])
            .err()
            .expect("--cpus is no flag");
        assert!(err.contains("--cpus"), "{err}");
        assert!(
            err.contains("--ncpus"),
            "the message lists what is accepted: {err}"
        );
        let args = parse("trial", &["--ncpus", "4", "--steal"]).expect("--ncpus is");
        assert_eq!(args.get("ncpus"), Some("4"));
        assert!(args.has("steal"));
    }

    #[test]
    fn a_degenerate_trial_spec_is_an_error_naming_the_flag() {
        for (cmd, raw, flag) in [
            ("trial", ["--packets", "0"], "--packets"),
            ("chaos", ["--packets", "0"], "--packets"),
            ("mlfrr", ["--packets", "-3"], "--packets"),
            ("trial", ["--rate", "0"], "--rate"),
            ("trial", ["--rate", "nan"], "--rate"),
            ("chaos", ["--rate", "inf"], "--rate"),
            ("observe", ["--rate", "-1"], "--rate"),
            ("sweep", ["--rates", "0"], "--rates"),
            ("sweep", ["--rates", "1000,x"], "--rates"),
            ("chaos", ["--intensity", "inf"], "--intensity"),
            ("chaos", ["--intensity", "nan"], "--intensity"),
            ("chaos", ["--packets", "5"], "--packets"),
            ("mlfrr", ["--loss-free", "nan"], "--loss-free"),
            ("mlfrr", ["--loss-free", "-1"], "--loss-free"),
            ("mlfrr", ["--loss-free", "0"], "--loss-free"),
            ("mlfrr", ["--loss-free", "2"], "--loss-free"),
            // Positive but so slow the offered load outlasts a simulated
            // day: each used to run for minutes to hours.
            ("trial", ["--rate", "1e-6"], "--rate"),
            ("sweep", ["--rates", "1000,0.01"], "--rates"),
            ("chaos", ["--rate", "0.001"], "--rate"),
        ] {
            // Parse, then the subcommand's own checks: every row is
            // refused before a trial runs.
            let run = subcommand(cmd).expect("a subcommand").1;
            let err = parse(cmd, &raw).and_then(|a| run(&a)).expect_err("a degenerate spec");
            assert!(err.starts_with(flag), "{cmd} {raw:?}: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
        assert_eq!(
            parse("observe", &["--rate", "0"]).err().as_deref(),
            Some("--rate: must be positive, got 0"),
            "the message observe always gave"
        );
        let args = parse("sweep", &["--rates", "1000,2500.5", "--packets", "1"]).expect("fine");
        assert_eq!(args.get("rates"), Some("1000,2500.5"));
    }

    #[test]
    fn usage_is_one_line_per_subcommand_with_its_flags() {
        let usage = usage();
        assert_eq!(usage.lines().count(), 1 + SUBCOMMANDS.len());
        assert!(usage.contains("\n  livelock sweep [--config V] [--rates V] [--packets V]"));
        assert!(
            usage.contains(" [--steal] [--timeline V] "),
            "bare boolean flags"
        );
    }

    #[test]
    fn flags_are_per_subcommand() {
        assert!(parse("sweep", &["--jobs", "2"]).is_ok());
        assert!(
            parse("trial", &["--jobs", "2"]).is_err(),
            "trial has no --jobs"
        );
        assert!(parse("chaos", &["--priority"]).is_ok());
        assert!(parse("observe", &["--priority"]).is_err());
        assert!(parse("configs", &["--config", "polled"]).is_err());
        assert!(subcommand("figures").is_none());
    }
}
