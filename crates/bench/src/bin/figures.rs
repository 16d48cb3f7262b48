//! Regenerates every figure of the paper's evaluation and writes the data
//! series as text tables (stdout) and CSV files (`results/`).
//!
//! ```text
//! cargo run --release -p livelock-bench --bin figures [--quick] [--fig 6-4] [--jobs N]
//! ```
//!
//! `--quick` uses 2,000-packet trials instead of the paper's 10,000 (about
//! 5x faster, slightly noisier). `--fig <id>` renders a single figure.
//! `--jobs N` fans trials across N worker threads (default: the host's
//! available parallelism); every trial is independently seeded, so the
//! output is byte-identical for every job count.
//!
//! The binary is one loop over `livelock_bench::figure_table()`: render,
//! print, write the CSV, evaluate the row's claims. Exit status
//! (`livelock_bench::exit::FiguresExit`): 0 on success; when claims
//! failed, the smallest failing claim's exit (README's claims table lists
//! the rows behind each code); otherwise 1 when the arguments are bad or
//! a CSV could not be written.

use std::fs;
use std::path::Path;

use livelock_bench::claims::{self, Run};
use livelock_bench::exit::{Exit, FiguresExit};
use livelock_bench::{figure_table, render_figure, PAPER_TRIAL_PACKETS};
use livelock_kernel::par::{default_jobs, Parallelism};

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    only: Option<String>,
    jobs: Option<usize>,
}

/// Parses `figures`' arguments against the table's ids. Free of process
/// concerns (exit, stderr) so the rejection paths are unit-testable.
fn parse_args(argv: &[String], ids: &[&str]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--fig" => {
                let given = it.next().map_or("", String::as_str);
                if !ids.contains(&given) {
                    let ids = ids.join(", ");
                    return Err(format!("--fig: unknown figure {given:?} (valid: {ids})"));
                }
                args.only = Some(given.to_string());
            }
            "--jobs" => {
                let given = it.next().map_or("", String::as_str);
                match given.parse() {
                    Ok(n) if n >= 1 => args.jobs = Some(n),
                    _ => return Err(format!("--jobs: bad thread count {given:?}")),
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?} (valid: --quick, --fig <id>, --jobs <n>)"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> Exit {
    let table = figure_table();
    let ids: Vec<&str> = table.iter().map(|f| f.id).collect();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &ids) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("figures: {e}");
            return FiguresExit::Io.into();
        }
    };
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    let n_packets = if args.quick { 2_000 } else { PAPER_TRIAL_PACKETS };

    // I/O failures are collected, not fatal: a read-only results/ dir
    // should not abort the remaining figures' rendering and claims.
    let mut io_errors = Vec::new();
    let out_dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(out_dir) {
        io_errors.push(format!("cannot create {}: {e}", out_dir.display()));
    }
    let mut violations = Vec::new();
    for fig in table.iter().filter(|f| args.only.as_deref().is_none_or(|id| id == f.id)) {
        eprintln!(
            "rendering figure {} ({n_packets} packets/trial, {jobs} jobs)...",
            fig.id
        );
        let rendered = render_figure(fig, n_packets, Parallelism::Jobs(jobs));
        print!("{}", rendered.to_table());
        print!("{}", rendered.shape_summary());
        println!();
        let path = out_dir.join(format!("fig{}.csv", fig.id.replace('-', "_")));
        match fs::write(&path, rendered.to_csv()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => io_errors.push(format!("{}: {e}", path.display())),
        }
        violations.extend(claims::evaluate(|c| fig.claims.contains(&c.id), Run::Figure(&rendered)));
    }

    if !io_errors.is_empty() {
        eprintln!("CSV WRITE FAILURES:");
        for w in &io_errors {
            eprintln!("  {w}");
        }
    }
    if let Some(exit) = claims::report(&violations) {
        return exit.into();
    }
    eprintln!("every rendered figure meets its claims");
    if io_errors.is_empty() {
        Exit::SUCCESS
    } else {
        FiguresExit::Io.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let ids: Vec<&str> = figure_table().iter().map(|f| f.id).collect();
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_args(&argv, &ids)
    }

    #[test]
    fn an_unknown_figure_id_is_an_error_listing_the_table() {
        let err = parse(&["--fig", "9-9"]).unwrap_err();
        for fig in figure_table() {
            assert!(err.contains(fig.id), "{err} should list {}", fig.id);
        }
        assert!(parse(&["--fig"]).is_err(), "--fig needs a value");
    }

    #[test]
    fn a_mistyped_flag_is_an_error_naming_it() {
        let err = parse(&["--figg", "6-1"]).unwrap_err();
        assert!(err.contains("--figg") && err.contains("--fig <id>"), "{err}");
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "four"]).is_err());
    }

    #[test]
    fn every_table_id_and_flag_parses() {
        let args = parse(&["--quick", "--fig", "P-1", "--jobs", "4"]).unwrap();
        let want = Args {
            quick: true,
            only: Some("P-1".into()),
            jobs: Some(4),
        };
        assert_eq!(args, want);
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }
}
