//! Exit codes reach the OS, and every code that is not a claim is
//! written down once and checked both ways.
//!
//! The bins' codes are the enums of `livelock_bench::exit`; here they
//! are read back from real processes. `scripts/ci.sh` owns its codes in
//! a header comment (`# exit N — name — meaning`), which must list
//! exactly the codes the script can execute. README's exit-code block is
//! generated from that header and the two enum codes that are not
//! claims (claims are README's claims block).

use std::path::{Path, PathBuf};
use std::process::Command;

use livelock_bench::exit::{FiguresExit, LivelockExit};
use livelock_kernel::telemetry::starve_floor;
use livelock_machine::cost::CostModel;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn ci_script() -> String {
    std::fs::read_to_string(repo_root().join("scripts/ci.sh")).expect("scripts/ci.sh readable")
}

/// Runs a bin from a scratch cwd (so nothing lands in `results/`) and
/// returns its exit status.
fn status(bin: &str, args: &[&str]) -> Option<i32> {
    let cwd = std::env::temp_dir();
    let out = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("bin runs");
    out.status.code()
}

#[test]
fn every_exit_reaches_the_os() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let livelock = env!("CARGO_BIN_EXE_livelock");
    let io = Some(i32::from(FiguresExit::Io.code()));
    let usage = Some(i32::from(LivelockExit::Usage.code()));
    assert_eq!(status(figures, &["--fig", "9-9"]), io, "figures --fig 9-9");
    assert_eq!(status(livelock, &[]), usage, "bare livelock");
    assert_eq!(
        status(livelock, &["trial", "--packets", "0"]),
        usage,
        "trial --packets 0"
    );
    assert_eq!(status(livelock, &["bogus"]), usage, "livelock bogus");
}

/// `livelock observe` refuses a run too short for any flow to starve
/// (usage, exit 2) and, at the default rate and seed, every claim holds
/// from the detector's floor on.
#[test]
fn observe_accepts_exactly_from_the_starvation_floor() {
    let livelock = env!("CARGO_BIN_EXE_livelock");
    let floor = starve_floor(&CostModel::calibrated(), 12_000.0);
    assert_eq!(floor, 385, "four 8 ms windows at 12 000 pkts/s");
    let observe = |n: usize| status(livelock, &["observe", "--packets", &n.to_string()]);
    let usage = Some(i32::from(LivelockExit::Usage.code()));
    assert_eq!(observe(floor - 1), usage, "observe --packets {}", floor - 1);
    assert_eq!(observe(floor), Some(0), "observe --packets {floor}");
}

/// One `# exit N — name — meaning` row of ci.sh's header.
struct HeaderRow {
    code: i32,
    name: String,
    meaning: String,
}

fn header_rows(script: &str) -> Vec<HeaderRow> {
    script
        .lines()
        .take_while(|l| l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.strip_prefix("# exit ")?.splitn(3, " — ");
            Some(HeaderRow {
                code: parts.next()?.parse().ok()?,
                name: parts.next()?.to_string(),
                meaning: parts.next()?.to_string(),
            })
        })
        .collect()
}

/// Every `exit N` the script can actually execute, as `(1-based line,
/// code)`. Comments are stripped (quote-aware, so a `#` inside a string
/// survives) and `exit` only counts in command position — as the first
/// word of a line or right after a control operator — so prose like
/// `echo "rejects bad flags with exit 2"` never matches.
fn shell_exit_codes(text: &str) -> Vec<(usize, i32)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let words: Vec<&str> = strip_shell_comment(line).split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let command_position = i == 0
                || matches!(
                    words[i - 1],
                    "||" | "&&" | ";" | "then" | "do" | "else" | "{" | "("
                );
            if *w != "exit" || !command_position {
                continue;
            }
            let code = words
                .get(i + 1)
                .map(|n| n.trim_end_matches([';', ')', '}']).parse());
            if let Some(Ok(n)) = code {
                out.push((idx + 1, n));
            }
        }
    }
    out
}

/// Truncates a shell line at its comment, tracking quote state so `#`
/// inside a string (or `$#`) does not count.
fn strip_shell_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let (mut in_single, mut in_double) = (false, false);
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'#' if !in_single && !in_double && (i == 0 || bytes[i - 1].is_ascii_whitespace()) => {
                return &line[..i];
            }
            _ => {}
        }
    }
    line
}

/// The header and the executable exits, both ways: every nonzero `exit
/// N` has a header row, and every header row's code is executed. Rows
/// run in ascending code order, one per code.
fn header_problems(script: &str) -> Vec<String> {
    let rows = header_rows(script);
    let found = shell_exit_codes(script);
    let mut problems = Vec::new();
    for &(line, code) in found.iter().filter(|&&(_, c)| c != 0) {
        if !rows.iter().any(|r| r.code == code) {
            problems.push(format!(
                "ci.sh:{line}: `exit {code}` has no `# exit {code} — …` header row"
            ));
        }
    }
    for r in &rows {
        if !found.iter().any(|&(_, c)| c == r.code) {
            problems.push(format!(
                "header row `exit {}` ({}): ci.sh never exits {}",
                r.code, r.name, r.code
            ));
        }
    }
    if rows.windows(2).any(|w| w[0].code >= w[1].code) {
        problems.push("header rows must run in strictly ascending code order".to_string());
    }
    problems
}

#[test]
fn ci_header_lists_exactly_the_codes_ci_exits_with() {
    let script = ci_script();
    assert_eq!(header_problems(&script), Vec::<String>::new());
    let codes: Vec<i32> = header_rows(&script).iter().map(|r| r.code).collect();
    assert_eq!(codes, (1..=12).collect::<Vec<_>>());

    // Both directions bite: a code the header lacks, and a row no
    // command backs.
    let unlisted = format!("{script}\nfalse || exit 13\n");
    assert_eq!(
        header_problems(&unlisted).len(),
        1,
        "exit 13 is not in the header"
    );
    let dropped: Vec<String> = (script.lines())
        .map(|l| {
            if l.starts_with('#') {
                l.to_string()
            } else {
                l.replace("exit 12", "exit 1")
            }
        })
        .collect();
    let problems = header_problems(&dropped.join("\n"));
    assert!(
        problems.iter().any(|p| p.contains("never exits 12")),
        "{problems:?}"
    );
}

#[test]
fn shell_exit_parsing_is_command_position_and_comment_aware() {
    let script = "#!/bin/sh\n\
                  # the gate uses exit 99 for nothing\n\
                  echo \"rejects bad flags with exit 2\"\n\
                  grep -q x file || exit 3\n\
                  if bad; then\n    exit 4\nfi\n\
                  run && exit 0\n\
                  printf '%s' 'exit 5'   # exit 6 in a trailing comment\n";
    assert_eq!(shell_exit_codes(script), vec![(4, 3), (6, 4), (8, 0)]);
}

/// README's exit-code block: ci.sh's header, then the bins' codes that
/// are not claims.
fn exit_code_table(script: &str) -> String {
    let mut out = String::from("| owner | code | name | meaning |\n|---|---|---|---|\n");
    let row = |owner: &str, code: i32, name: &str, meaning: &str| {
        format!("| `{owner}` | {code} | {name} | {meaning} |\n")
    };
    for r in header_rows(script) {
        out.push_str(&row("ci.sh", r.code, &r.name, &r.meaning));
    }
    let (io, usage) = (FiguresExit::Io, LivelockExit::Usage);
    out.push_str(&row("figures", io.code().into(), "io", io.meaning()));
    out.push_str(&row(
        "livelock",
        usage.code().into(),
        "usage",
        usage.meaning(),
    ));
    out
}

#[test]
fn readme_embeds_the_exit_code_table() {
    let table = exit_code_table(&ci_script());
    livelock_bench::check_doc_block("README.md", "exit-codes", &table).unwrap_or_else(|e| panic!("{e}"));
}
