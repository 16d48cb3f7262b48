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
    --root <PATH>       workspace root (default: walk up from the cwd)
    --list-rules        print every rule with its exit code and exit
    --exit-codes        print the workspace exit-code registry as the
                        markdown table embedded in README.md and exit

EXIT CODES:
    0 clean   2 usage   3 I/O error
    9 multiple rules   16, 20, 21 one code per rule (see --list-rules);
    the full cross-binary registry is `--exit-codes`
";

#[derive(Default)]
struct Opts {
    json: bool,
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
            "--list-rules" => opts.list_rules = true,
            "--exit-codes" => opts.exit_codes = true,
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

    let result = match lint::lint_workspace(&root, &Baseline) {
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
