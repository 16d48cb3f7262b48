//! The `simlint` binary: lint the workspace, gate CI.
//!
//! Usage: `cargo run -p lint [-- flags]` or `target/release/simlint`.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::baseline::Baseline;
use lint::files::find_workspace_root;
use lint::{report, rules};

/// Exit code for a usage error (unknown flag).
const EXIT_USAGE: i32 = 2;
/// Exit code for an unreadable workspace.
const EXIT_IO: i32 = 3;

const USAGE: &str = "\
simlint — static-analysis gate for the receive-livelock workspace

USAGE:
    simlint [OPTIONS]

OPTIONS:
    --json              emit the machine-readable JSON report instead of
                        the human one
    --root <PATH>       workspace root (default: walk up from the cwd)
    --list-rules        print every rule with its exit code and exit

EXIT CODES:
    0 clean   2 usage   3 I/O error
    9 multiple rules   16, 20 one code per rule (see --list-rules)
";

#[derive(Default)]
struct Opts {
    json: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    help: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => opts.root = Some(args.next().ok_or("--root needs a path")?.into()),
            "-h" | "--help" => opts.help = true,
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
            return to_exit(EXIT_USAGE);
        }
    };

    if opts.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

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

    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("simlint: could not find a workspace root (pass --root)");
            return to_exit(EXIT_IO);
        }
    };

    let result = match lint::lint_workspace(&root, &Baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return to_exit(EXIT_IO);
        }
    };

    if opts.json {
        print!("{}", report::json(&result));
    } else {
        print!("{}", report::human(&result));
    }
    to_exit(report::exit_code(&result))
}
