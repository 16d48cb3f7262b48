//! The `simlint` binary: lint the workspace, gate CI.
//!
//! Usage: `cargo run -p lint [-- flags]` or `target/release/simlint`.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::baseline::Baseline;
use lint::files::find_workspace_root;
use lint::registry::codes;
use lint::{fix, registry, report, rules};

const USAGE: &str = "\
simlint — static-analysis gate for the receive-livelock workspace

USAGE:
    simlint [OPTIONS]

OPTIONS:
    --json              emit the machine-readable JSON report
    --format <FMT>      report format: human (default), json, or sarif
    --fix               apply mechanical fixes (suppression
                        normalization)
    --dry-run           with --fix: print the would-be diff, write
                        nothing; exit 4 if any fix is pending
    --write-baseline    rewrite the baseline file to absorb all current
                        findings (then exit 0); review the diff before
                        committing — the baseline should only shrink
    --baseline <PATH>   baseline file (default: crates/lint/baseline.txt)
    --root <PATH>       workspace root (default: walk up from the cwd)
    --list-rules        print every rule with its exit code and exit
    --exit-codes        print the workspace exit-code registry as the
                        markdown table embedded in README.md and exit

EXIT CODES:
    0 clean   2 usage   3 I/O error   4 fixable (--fix --dry-run)
    9 multiple rules   10..22 one code per rule (see --list-rules);
    the full cross-binary registry is `--exit-codes`
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Opts {
    format: Format,
    write_baseline: bool,
    baseline: Option<PathBuf>,
    root: Option<PathBuf>,
    list_rules: bool,
    exit_codes: bool,
    fix: bool,
    dry_run: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        format: Format::Human,
        write_baseline: false,
        baseline: None,
        root: None,
        list_rules: false,
        exit_codes: false,
        fix: false,
        dry_run: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.format = Format::Json,
            "--format" => {
                opts.format = match args.next().ok_or("--format needs a value")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--fix" => opts.fix = true,
            "--dry-run" => opts.dry_run = true,
            "--write-baseline" => opts.write_baseline = true,
            "--list-rules" => opts.list_rules = true,
            "--exit-codes" => opts.exit_codes = true,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline needs a path")?.into());
            }
            "--root" => opts.root = Some(args.next().ok_or("--root needs a path")?.into()),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.dry_run && !opts.fix {
        return Err("--dry-run only makes sense with --fix".to_string());
    }
    Ok(opts)
}

/// Clamps an i32 exit code into `ExitCode` without panicking; codes
/// that do not fit a u8 collapse to the multiple-rules code.
fn to_exit(code: i32) -> ExitCode {
    u8::try_from(code).map_or_else(
        |_| to_exit(rules::EXIT_MULTIPLE_RULES),
        ExitCode::from,
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simlint: {e}\n\n{USAGE}");
            return to_exit(codes::SIMLINT_USAGE);
        }
    };

    if opts.list_rules {
        for r in rules::all_rules() {
            println!("{:>3}  {:<22} {}", r.exit_code(), r.id(), r.describe());
        }
        println!(
            "{:>3}  {:<22} malformed `// simlint: allow(rule): reason` directive",
            rules::EXIT_BAD_SUPPRESSION,
            rules::BAD_SUPPRESSION_RULE
        );
        return ExitCode::SUCCESS;
    }

    if opts.exit_codes {
        print!("{}", registry::markdown_table());
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("simlint: could not find a workspace root (pass --root)");
            return to_exit(codes::SIMLINT_IO);
        }
    };

    if opts.fix {
        let outcome = match fix::fix_workspace(&root, opts.dry_run) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simlint: fix failed: {e}");
                return to_exit(codes::SIMLINT_IO);
            }
        };
        if outcome.files.is_empty() {
            println!("simlint: nothing to fix");
            return ExitCode::SUCCESS;
        }
        if opts.dry_run {
            print!("{}", outcome.diff);
            println!(
                "simlint: {} pending fix(es) in {} file(s) — run --fix to apply",
                outcome.edit_count(),
                outcome.files.len()
            );
            return to_exit(codes::SIMLINT_FIXABLE);
        }
        for (file, n) in &outcome.files {
            println!("simlint: fixed {file} ({n} edit(s))");
        }
        return ExitCode::SUCCESS;
    }

    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("crates/lint/baseline.txt"));

    if opts.write_baseline {
        // Lint against an empty baseline, then absorb everything active.
        let result = match lint::lint_workspace(&root, &Baseline::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simlint: scan failed: {e}");
                return to_exit(codes::SIMLINT_IO);
            }
        };
        let text = Baseline::render(&result.fresh);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("simlint: cannot write {}: {e}", baseline_path.display());
            return to_exit(codes::SIMLINT_IO);
        }
        println!(
            "simlint: wrote {} entr{} to {}",
            result.fresh.len(),
            if result.fresh.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("simlint: cannot read {}: {e}", baseline_path.display());
            return to_exit(codes::SIMLINT_IO);
        }
    };
    let result = match lint::lint_workspace(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return to_exit(codes::SIMLINT_IO);
        }
    };

    match opts.format {
        Format::Json => print!("{}", report::json(&result)),
        Format::Sarif => print!("{}", report::sarif(&result)),
        Format::Human => print!("{}", report::human(&result)),
    }
    to_exit(report::exit_code(&result))
}
