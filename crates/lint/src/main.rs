//! The `simlint` binary: lint the workspace, gate CI.
//!
//! Usage: `cargo run -p lint [-- flags]` or `target/release/simlint`.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::baseline::Baseline;
use lint::files::find_workspace_root;
use lint::registry::codes;
use lint::{registry, report, rules};

const USAGE: &str = "\
simlint — static-analysis gate for the receive-livelock workspace

USAGE:
    simlint [OPTIONS]

OPTIONS:
    --json              emit the machine-readable JSON report instead of
                        the human one
    --write-baseline    rewrite the baseline file to absorb all current
                        findings (then exit 0); review the diff before
                        committing — the baseline should only shrink
    --baseline <PATH>   baseline file (default: crates/lint/baseline.txt)
    --root <PATH>       workspace root (default: walk up from the cwd)
    --list-rules        print every rule with its exit code and exit
    --exit-codes        print the workspace exit-code registry as the
                        markdown table embedded in README.md and exit

EXIT CODES:
    0 clean   2 usage   3 I/O error
    9 multiple rules   10..22 one code per rule (see --list-rules);
    the full cross-binary registry is `--exit-codes`
";

#[derive(Default)]
struct Opts {
    json: bool,
    write_baseline: bool,
    baseline: Option<PathBuf>,
    root: Option<PathBuf>,
    list_rules: bool,
    exit_codes: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
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

    if opts.json {
        print!("{}", report::json(&result));
    } else {
        print!("{}", report::human(&result));
    }
    to_exit(report::exit_code(&result))
}
