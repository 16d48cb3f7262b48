//! The exit-code registry: one table for every process exit code in the
//! workspace.
//!
//! The workspace has grown a constellation of per-gate exit codes —
//! `ci.sh` maps each CI gate to a number, `figures` maps each figure's
//! shape check, `livelock chaos`/`observe` map each violated invariant,
//! and `simlint` maps each rule. Before this table the numbers lived in
//! comments and drifted: the same code meant different things to
//! different owners, and a deleted gate could leave its documented code
//! behind. Now every code is registered here with an owner and a
//! meaning; the `exit-code-registry` rule (exit 21) cross-checks the
//! table against reality in both directions:
//!
//! * every `process::exit`/`ExitCode::from` numeric literal in scanned
//!   Rust and every `exit N` command in `scripts/ci.sh` must be
//!   registered (bins reference the [`codes`] constants instead of
//!   literals);
//! * every registered constant must still be referenced somewhere, and
//!   every registered `ci.sh` code must still appear in the script —
//!   stale entries fail the gate.
//!
//! `simlint --exit-codes` renders the table as the markdown block
//! embedded in README.md. Codes are unique per owner, not globally:
//! `livelock chaos` and `livelock observe` reuse 3–6 with different
//! meanings, which is exactly the ambiguity the owner column resolves.

use std::collections::BTreeSet;
use std::path::Path;

use crate::files::FileInfo;
use crate::rules;
use crate::Finding;

/// Named constants for every Rust-side exit code. Bins use these
/// instead of numeric literals so the registry can tell a live code
/// from a stale one by reference.
pub mod codes {
    /// figures: I/O or argument failure (unwritable results/, unknown flag or id).
    pub const FIGURES_IO: i32 = 1;
    /// figures: a throughput figure violates the paper's qualitative shape.
    pub const FIGURES_SHAPE: i32 = 2;
    /// figures: the L-1 latency gate failed (polled p99 not below unmodified).
    pub const FIGURES_LATENCY: i32 = 3;
    /// figures: the C-1 CPU-share gate failed (ledger shares off-claim).
    pub const FIGURES_CPU: i32 = 4;
    /// figures: the R-1 fault gate failed (graceful degradation violated).
    pub const FIGURES_FAULT: i32 = 5;
    /// figures: the S-1 SMP gate failed (MLFRR scaling off-claim).
    pub const FIGURES_SMP: i32 = 6;
    /// figures: the O-1 online-detection gate failed.
    pub const FIGURES_OBSERVE: i32 = 7;
    /// figures: the P-1 priority-isolation gate failed.
    pub const FIGURES_PRIORITY: i32 = 8;

    /// livelock: usage error (unknown subcommand or malformed flags).
    pub const LIVELOCK_USAGE: i32 = 2;

    /// livelock chaos: polled kernel delivered nothing under the storm.
    pub const CHAOS_NO_DELIVERY: i32 = 3;
    /// livelock chaos: interrupt gate ended the run inhibited.
    pub const CHAOS_GATE_INHIBITED: i32 = 4;
    /// livelock chaos: screend queue not drained after the drain window.
    pub const CHAOS_SCREEND_BACKLOG: i32 = 5;
    /// livelock chaos: conservation ledger left packets unaccounted.
    pub const CHAOS_LEDGER_LEAK: i32 = 6;
    /// livelock chaos: fewer faults fired than were scheduled.
    pub const CHAOS_FAULTS_MISSING: i32 = 7;
    /// livelock chaos: unmodified kernel failed to livelock under the storm.
    pub const CHAOS_NOT_LIVELOCKED: i32 = 8;
    /// livelock chaos --priority: classified kernel showed priority inversion.
    pub const CHAOS_PRIORITY_INVERSION: i32 = 9;
    /// livelock chaos --priority: unmodified kernel showed no inversion contrast.
    pub const CHAOS_NO_INVERSION_CONTRAST: i32 = 10;

    /// livelock observe: unmodified kernel produced no livelock-onset event.
    pub const OBSERVE_NO_ONSET: i32 = 3;
    /// livelock observe: polled kernel falsely reported livelock onset.
    pub const OBSERVE_FALSE_ONSET: i32 = 4;
    /// livelock observe: starvation-watch contrast failed.
    pub const OBSERVE_STARVATION: i32 = 5;
    /// livelock observe: per-flow ledger leaked or did not close.
    pub const OBSERVE_FLOW_LEDGER: i32 = 6;

    /// simlint: usage error (unknown flag).
    pub const SIMLINT_USAGE: i32 = 2;
    /// simlint: I/O error (unreadable workspace).
    pub const SIMLINT_IO: i32 = 3;
}

/// One registered exit code.
#[derive(Clone, Debug)]
pub struct ExitEntry {
    /// The process (or subcommand) that exits with this code.
    pub owner: &'static str,
    /// Short kebab-case name (the constant's name for Rust-side codes).
    pub name: &'static str,
    /// The exit code. Unique per owner; 0 (success) is never registered.
    pub code: i32,
    /// What the code means, one line.
    pub meaning: &'static str,
    /// The `codes::` constant backing this entry, if it is a Rust-side
    /// code whose references the staleness check can count.
    pub constant: Option<&'static str>,
}

const fn e(
    owner: &'static str,
    name: &'static str,
    code: i32,
    meaning: &'static str,
    constant: Option<&'static str>,
) -> ExitEntry {
    ExitEntry {
        owner,
        name,
        code,
        meaning,
        constant,
    }
}

/// The static half of the registry: every exit code except simlint's
/// rule codes (those are generated from the rule registry so the two
/// can never drift).
pub const STATIC_ENTRIES: &[ExitEntry] = &[
    // ci.sh gates (checked as `exit N` literals in the script).
    e("ci.sh", "build-test-io", 1, "build/test failure, unwritable CSVs, any figure CSV differing across job counts or from its committed copy, or bad arguments", None),
    e("ci.sh", "figure-shape", 2, "a rendered figure violates the paper's qualitative throughput shape", None),
    e("ci.sh", "latency-gate", 3, "figure L-1 latency gate failed (polled p99 not well below unmodified at overload)", None),
    e("ci.sh", "cpu-share-gate", 4, "figure C-1 CPU-share gate failed (cycle-ledger shares off-claim)", None),
    e("ci.sh", "fault-gate", 5, "figure R-1 fault gate failed (graceful-degradation claim violated)", None),
    e("ci.sh", "chaos-smoke", 6, "the chaos smoke run failed (see `livelock chaos` codes)", None),
    e("ci.sh", "static-analysis", 7, "static analysis: simlint or clippy (a finding, clippy missing, or the seeded violations not caught)", None),
    e("ci.sh", "bench-smoke", 8, "the benchmark smoke failed (a checked unit failed, or a workload's sim_digest differs from the committed BENCH_PR<N>.json)", None),
    e("ci.sh", "smp-gate", 9, "figure S-1 SMP gate failed (MLFRR scaling or per-CPU ledger conservation), or the 4-CPU chrome-trace smoke did", None),
    e("ci.sh", "observe-gate", 10, "figure O-1 online-detection gate failed (onset/starvation claims), or the event-stream/flamegraph rerun smoke (byte-identical reruns, same table as unobserved) did", None),
    e("ci.sh", "observe-smoke", 11, "the observe smoke failed (see `livelock observe` codes)", None),
    e("ci.sh", "priority-gate", 12, "figure P-1 priority-isolation gate failed (Control SLO or shedding order)", None),
    // figures binary.
    e("figures", "io-or-args", codes::FIGURES_IO, "unknown flag or figure id, bad --jobs, unwritable results/ directory, or collected CSV write errors", Some("FIGURES_IO")),
    e("figures", "shape", codes::FIGURES_SHAPE, "a throughput figure violates the paper's qualitative shape", Some("FIGURES_SHAPE")),
    e("figures", "latency", codes::FIGURES_LATENCY, "figure L-1: polled p99 forwarding latency not well below unmodified at overload", Some("FIGURES_LATENCY")),
    e("figures", "cpu-share", codes::FIGURES_CPU, "figure C-1: conserved cycle ledger violates the CPU-share claims", Some("FIGURES_CPU")),
    e("figures", "fault", codes::FIGURES_FAULT, "figure R-1: seeded fault storm violates graceful degradation", Some("FIGURES_FAULT")),
    e("figures", "smp", codes::FIGURES_SMP, "figure S-1: MLFRR scaling or per-CPU ledger conservation off-claim", Some("FIGURES_SMP")),
    e("figures", "observe", codes::FIGURES_OBSERVE, "figure O-1: online-detection claims violated", Some("FIGURES_OBSERVE")),
    e("figures", "priority", codes::FIGURES_PRIORITY, "figure P-1: priority-isolation claims violated", Some("FIGURES_PRIORITY")),
    // livelock binary (shared usage path).
    e("livelock", "usage", codes::LIVELOCK_USAGE, "unknown subcommand or malformed flags (any subcommand)", Some("LIVELOCK_USAGE")),
    // livelock chaos invariants.
    e("livelock chaos", "no-delivery", codes::CHAOS_NO_DELIVERY, "polled kernel delivered nothing (fault-induced livelock)", Some("CHAOS_NO_DELIVERY")),
    e("livelock chaos", "gate-inhibited", codes::CHAOS_GATE_INHIBITED, "interrupt gate ended the run inhibited", Some("CHAOS_GATE_INHIBITED")),
    e("livelock chaos", "screend-backlog", codes::CHAOS_SCREEND_BACKLOG, "screend queue still holds packets after the drain window", Some("CHAOS_SCREEND_BACKLOG")),
    e("livelock chaos", "ledger-leak", codes::CHAOS_LEDGER_LEAK, "conservation ledger leaves packets unaccounted", Some("CHAOS_LEDGER_LEAK")),
    e("livelock chaos", "faults-missing", codes::CHAOS_FAULTS_MISSING, "fewer faults fired than were scheduled", Some("CHAOS_FAULTS_MISSING")),
    e("livelock chaos", "not-livelocked", codes::CHAOS_NOT_LIVELOCKED, "unmodified kernel is not livelocked under the same storm", Some("CHAOS_NOT_LIVELOCKED")),
    e("livelock chaos", "priority-inversion", codes::CHAOS_PRIORITY_INVERSION, "--priority: classified polled kernel produced a priority-inversion event", Some("CHAOS_PRIORITY_INVERSION")),
    e("livelock chaos", "no-inversion-contrast", codes::CHAOS_NO_INVERSION_CONTRAST, "--priority: unmodified kernel produced no inversion (contrast missing)", Some("CHAOS_NO_INVERSION_CONTRAST")),
    // livelock observe invariants.
    e("livelock observe", "no-onset", codes::OBSERVE_NO_ONSET, "unmodified kernel produced no livelock-onset event", Some("OBSERVE_NO_ONSET")),
    e("livelock observe", "false-onset", codes::OBSERVE_FALSE_ONSET, "polled kernel with feedback reported livelock onset", Some("OBSERVE_FALSE_ONSET")),
    e("livelock observe", "starvation", codes::OBSERVE_STARVATION, "starvation-watch contrast failed between kernels", Some("OBSERVE_STARVATION")),
    e("livelock observe", "flow-ledger", codes::OBSERVE_FLOW_LEDGER, "per-flow ledger leaked arrivals or did not close", Some("OBSERVE_FLOW_LEDGER")),
    // simlint's non-rule codes (the rule codes are generated below).
    e("simlint", "usage", codes::SIMLINT_USAGE, "usage error (unknown flag)", Some("SIMLINT_USAGE")),
    e("simlint", "io", codes::SIMLINT_IO, "I/O error (unreadable workspace)", Some("SIMLINT_IO")),
];

/// Owned form of an entry, for the generated simlint rule codes.
#[derive(Clone, Debug)]
pub struct Entry {
    /// See [`ExitEntry::owner`].
    pub owner: String,
    /// See [`ExitEntry::name`].
    pub name: String,
    /// See [`ExitEntry::code`].
    pub code: i32,
    /// See [`ExitEntry::meaning`].
    pub meaning: String,
    /// See [`ExitEntry::constant`].
    pub constant: Option<String>,
}

/// The full registry: the static table plus one generated entry per
/// simlint rule (so the rule registry and this table cannot drift),
/// sorted by (owner, code).
pub fn entries() -> Vec<Entry> {
    let mut out: Vec<Entry> = STATIC_ENTRIES
        .iter()
        .map(|e| Entry {
            owner: e.owner.to_string(),
            name: e.name.to_string(),
            code: e.code,
            meaning: e.meaning.to_string(),
            constant: e.constant.map(str::to_string),
        })
        .collect();
    for r in rules::all_rules() {
        out.push(Entry {
            owner: "simlint".to_string(),
            name: r.id().to_string(),
            code: r.exit_code(),
            meaning: r.describe().to_string(),
            constant: None,
        });
    }
    out.push(Entry {
        owner: "simlint".to_string(),
        name: rules::BAD_SUPPRESSION_RULE.to_string(),
        code: rules::EXIT_BAD_SUPPRESSION,
        meaning: "malformed `// simlint: allow(rule): reason` directive".to_string(),
        constant: None,
    });
    out.push(Entry {
        owner: "simlint".to_string(),
        name: "multiple-rules".to_string(),
        code: rules::EXIT_MULTIPLE_RULES,
        meaning: "fresh findings across multiple rules".to_string(),
        constant: None,
    });
    out.sort_by(|a, b| (a.owner.as_str(), a.code).cmp(&(b.owner.as_str(), b.code)));
    out
}

/// Renders the registry as the markdown table embedded in README.md
/// (regenerate with `simlint --exit-codes`).
pub fn markdown_table() -> String {
    let mut out = String::from("| owner | code | name | meaning |\n|---|---|---|---|\n");
    for e in entries() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            e.owner, e.code, e.name, e.meaning
        ));
    }
    out
}

/// Registry self-consistency problems (duplicate codes per owner,
/// duplicate names, registered success codes). Empty on a healthy
/// table; reported under the `exit-code-registry` rule.
pub fn consistency_problems() -> Vec<String> {
    let mut problems = Vec::new();
    let all = entries();
    for (i, a) in all.iter().enumerate() {
        if a.code == 0 {
            problems.push(format!(
                "entry `{}`/{} registers exit code 0 — success is never registered",
                a.owner, a.name
            ));
        }
        for b in &all[i + 1..] {
            if a.owner == b.owner && a.code == b.code {
                problems.push(format!(
                    "owner `{}` registers code {} twice (`{}` and `{}`)",
                    a.owner, a.code, a.name, b.name
                ));
            }
            if a.owner == b.owner && a.name == b.name {
                problems.push(format!(
                    "owner `{}` registers name `{}` twice (codes {} and {})",
                    a.owner, a.name, a.code, b.code
                ));
            }
        }
    }
    problems
}

/// Where the registry lives (the one file exempt from the constant
/// liveness check — the definitions themselves are not references).
pub const REGISTRY_PATH: &str = "crates/lint/src/registry.rs";

/// The workspace half of the `exit-code-registry` rule. Runs once per
/// workspace lint, after the per-file rules — registry drift is never
/// suppressible:
///
/// * registry self-consistency ([`consistency_problems`]);
/// * constant liveness: every entry backed by a [`codes`] constant must
///   be referenced somewhere outside the registry itself;
/// * `scripts/ci.sh` cross-check: every command-position `exit N` in
///   the script is registered under owner `ci.sh`, and every registered
///   `ci.sh` code still appears in the script.
///
/// A tree without `scripts/ci.sh` (fixtures, scratch copies of a
/// subtree) simply skips the script cross-check.
pub fn check_workspace(root: &Path, sources: &[(FileInfo, String)]) -> Vec<Finding> {
    let rule = rules::EXIT_CODE_REGISTRY_RULE;
    let mut out = Vec::new();
    for p in consistency_problems() {
        out.push(Finding {
            rule: rule.to_string(),
            file: REGISTRY_PATH.to_string(),
            line: 0,
            snippet: "registry-consistency".to_string(),
            message: p,
        });
    }
    let all = entries();
    for entry in &all {
        let Some(constant) = &entry.constant else {
            continue;
        };
        let live = sources
            .iter()
            .any(|(info, src)| info.rel_path != REGISTRY_PATH && src.contains(constant.as_str()));
        if !live {
            out.push(Finding {
                rule: rule.to_string(),
                file: REGISTRY_PATH.to_string(),
                line: 0,
                snippet: format!("codes::{constant}"),
                message: format!(
                    "stale registry entry `{}`/{}: constant `{constant}` is referenced nowhere outside the registry — delete the entry or wire the exit path back up",
                    entry.owner, entry.name
                ),
            });
        }
    }
    let ci = root.join("scripts").join("ci.sh");
    if let Ok(text) = std::fs::read_to_string(&ci) {
        let found = shell_exit_codes(&text);
        let registered: BTreeSet<i32> = all
            .iter()
            .filter(|e| e.owner == "ci.sh")
            .map(|e| e.code)
            .collect();
        for &(line, code) in &found {
            if code != 0 && !registered.contains(&code) {
                out.push(Finding {
                    rule: rule.to_string(),
                    file: "scripts/ci.sh".to_string(),
                    line,
                    snippet: format!("exit {code}"),
                    message: format!(
                        "unregistered ci.sh exit code {code}: add it to crates/lint/src/registry.rs with an owner and meaning"
                    ),
                });
            }
        }
        let present: BTreeSet<i32> = found.iter().map(|&(_, c)| c).collect();
        for entry in all.iter().filter(|e| e.owner == "ci.sh") {
            if !present.contains(&entry.code) {
                out.push(Finding {
                    rule: rule.to_string(),
                    file: REGISTRY_PATH.to_string(),
                    line: 0,
                    snippet: format!("ci.sh {}", entry.code),
                    message: format!(
                        "stale registry entry `ci.sh`/{}: scripts/ci.sh no longer exits with code {} — delete the entry",
                        entry.name, entry.code
                    ),
                });
            }
        }
    }
    out
}

/// Every `exit N` that `scripts/ci.sh` can actually execute, as
/// `(1-based line, code)`. Comments are stripped (quote-aware, so a `#`
/// inside a string survives) and `exit` only counts in command position
/// — as the first word of a line or right after a control operator —
/// so prose like `echo "rejects bad flags with exit 2"` never matches.
pub fn shell_exit_codes(text: &str) -> Vec<(u32, i32)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let code_part = strip_shell_comment(line);
        let words: Vec<&str> = code_part.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            if *w != "exit" {
                continue;
            }
            let command_position = i == 0
                || matches!(
                    words[i - 1],
                    "||" | "&&" | ";" | "then" | "do" | "else" | "{" | "("
                );
            if !command_position {
                continue;
            }
            if let Some(next) = words.get(i + 1) {
                let trimmed = next.trim_end_matches([';', ')', '}']);
                if let Ok(n) = trimmed.parse::<i32>() {
                    out.push((idx as u32 + 1, n));
                }
            }
        }
    }
    out
}

/// Truncates a shell line at its comment, tracking quote state so `#`
/// inside a string (or `$#`) does not count.
fn strip_shell_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'#' if !in_single && !in_double => {
                let after_dollar = i > 0 && bytes[i - 1] == b'$';
                let word_start = i == 0 || bytes[i - 1].is_ascii_whitespace();
                if word_start && !after_dollar {
                    return &line[..i];
                }
            }
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let problems = consistency_problems();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn simlint_rule_codes_are_generated_not_duplicated() {
        let all = entries();
        let simlint: Vec<&Entry> = all.iter().filter(|e| e.owner == "simlint").collect();
        // Every rule id appears exactly once with the rule's exit code.
        for r in rules::all_rules() {
            let hits: Vec<&&Entry> = simlint.iter().filter(|e| e.name == r.id()).collect();
            assert_eq!(hits.len(), 1, "rule {} registered once", r.id());
            assert_eq!(hits[0].code, r.exit_code());
        }
        // The static simlint codes never collide with the rule codes.
        let mut codes: Vec<i32> = simlint.iter().map(|e| e.code).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n, "simlint exit codes collide");
    }

    #[test]
    fn owners_disambiguate_overlapping_codes() {
        let all = entries();
        let chaos3 = all
            .iter()
            .find(|e| e.owner == "livelock chaos" && e.code == 3)
            .unwrap();
        let observe3 = all
            .iter()
            .find(|e| e.owner == "livelock observe" && e.code == 3)
            .unwrap();
        assert_ne!(chaos3.meaning, observe3.meaning);
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
        let codes = shell_exit_codes(script);
        assert_eq!(codes, vec![(4, 3), (6, 4), (8, 0)], "{codes:?}");
    }

    #[test]
    fn markdown_table_lists_every_entry() {
        let table = markdown_table();
        for e in entries() {
            assert!(
                table.contains(&format!("| `{}` | {} | {} |", e.owner, e.code, e.name)),
                "missing {}/{}",
                e.owner,
                e.name
            );
        }
        assert!(table.starts_with("| owner | code | name | meaning |"));
    }

    #[test]
    fn readme_embeds_the_generated_table() {
        // README carries the table between markers so `simlint
        // --exit-codes` is the single source of truth; regenerate with
        // that flag if this fails.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint sits two levels below the root");
        let readme =
            std::fs::read_to_string(root.join("README.md")).expect("README readable");
        let begin = readme
            .find("do not edit by hand) -->\n")
            .map(|i| i + "do not edit by hand) -->\n".len())
            .expect("exit-codes begin marker present");
        let end = readme.find("<!-- exit-codes:end -->").expect("end marker present");
        assert_eq!(
            readme[begin..end],
            markdown_table(),
            "README exit-code table is stale: rerun `simlint --exit-codes`"
        );
    }
}
