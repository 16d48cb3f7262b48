//! simlint — the workspace's static-analysis layer.
//!
//! The reproduction rests on discipline the compiler cannot see. Two
//! parts of it are clippy lints (`clippy.toml` and `scripts/ci.sh`): the
//! simulation replays byte-identically, and library code does not panic.
//! simlint checks the two that clippy cannot: unit-named values carry
//! their newtype, and every exit code is registered. It lexes the
//! workspace's Rust sources with a comment/string-aware tokenizer,
//! classifies each file by crate and target kind, and runs a rule engine
//! over the token streams.
//!
//! The pipeline per file:
//!
//! 1. [`tokenizer`] lexes the source (literals and comments can never
//!    trigger rules);
//! 2. [`regions`] marks `#[cfg(test)]` spans, which every rule exempts;
//! 3. each [`rules::Rule`] scans the tokens, scoped by the file's place
//!    in the workspace ([`files::FileInfo`]);
//! 4. [`suppress`] applies inline `// simlint: allow(rule): reason`
//!    directives (reason mandatory).
//!
//! See `DESIGN.md` ("The static-analysis layer") for the rule-by-rule
//! rationale and `scripts/ci.sh` for the gate (exit 7).

pub mod baseline;
pub mod files;
pub mod regions;
pub mod registry;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod tokenizer;

use std::io;
use std::path::Path;

use baseline::Baseline;
use files::FileInfo;
use rules::{Rule, BAD_SUPPRESSION_RULE};

/// One finished finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`unit-discipline`, …).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Matched tokens, normalized.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// The findings of one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings that stand.
    pub active: Vec<Finding>,
    /// Findings silenced by a well-formed inline suppression.
    pub suppressed: Vec<Finding>,
}

/// Lints one source text as if it lived at `info`'s path. This is the
/// whole engine for a single file; the workspace run and the fixture
/// tests both go through it.
pub fn lint_source(info: &FileInfo, src: &str, rules: &[Box<dyn Rule>]) -> FileLint {
    let lexed = tokenizer::tokenize(src);
    let test_regions = regions::test_regions(&lexed.toks);
    let ids = rules::rule_ids();
    let sup = suppress::parse(&lexed.lint_comments, &ids);

    let mut out = FileLint::default();
    for bad in &sup.bad {
        out.active.push(Finding {
            rule: BAD_SUPPRESSION_RULE.to_string(),
            file: info.rel_path.clone(),
            line: bad.line,
            snippet: "simlint:".to_string(),
            message: format!("malformed simlint directive: {}", bad.problem),
        });
    }
    for rule in rules {
        for rf in rule.check(info, &lexed.toks) {
            if test_regions.contains(rf.tok) {
                continue;
            }
            let finding = Finding {
                rule: rule.id().to_string(),
                file: info.rel_path.clone(),
                line: rf.line,
                snippet: rf.snippet,
                message: rf.message,
            };
            if sup.covers(rule.id(), rf.line) {
                out.suppressed.push(finding);
            } else {
                out.active.push(finding);
            }
        }
    }
    out
}

/// The result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Findings that fail the gate (not suppressed).
    pub fresh: Vec<Finding>,
    /// Findings silenced by inline suppressions.
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints every scanned file under `root`. The [`Baseline`] is empty and
/// absorbs nothing (see its module).
pub fn lint_workspace(root: &Path, _baseline: &Baseline) -> io::Result<WorkspaceLint> {
    let sources = files::scan_workspace(root)?;
    let rules = rules::all_rules();
    let mut fresh = Vec::new();
    let mut suppressed = Vec::new();
    for (info, src) in &sources {
        let mut fl = lint_source(info, src, &rules);
        fresh.append(&mut fl.active);
        suppressed.append(&mut fl.suppressed);
    }
    // Workspace-level registry cross-checks: never suppressible.
    fresh.extend(registry::check_workspace(root, &sources));
    sort_findings(&mut fresh);
    sort_findings(&mut suppressed);
    Ok(WorkspaceLint {
        fresh,
        suppressed,
        files_scanned: sources.len(),
    })
}

/// Deterministic reporting order: file, then line, then rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.snippet).cmp(&(&b.file, b.line, &b.rule, &b.snippet))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(path: &str) -> FileInfo {
        FileInfo::classify(path).expect("classifiable")
    }

    #[test]
    fn suppression_with_reason_silences_one_line() {
        let src = "struct S {\n    // simlint: allow(unit-discipline): fixture invariant\n    a_ns: u64,\n}\nstruct T { b_ns: u64 }";
        let fl = lint_source(&info("crates/net/src/filter.rs"), src, &rules::all_rules());
        assert_eq!(fl.suppressed.len(), 1);
        assert_eq!(fl.suppressed[0].line, 3);
        assert_eq!(fl.active.len(), 1, "the unsuppressed declaration stands");
        assert_eq!(fl.active[0].line, 5);
    }

    #[test]
    fn suppression_without_reason_is_its_own_finding() {
        let src = "// simlint: allow(unit-discipline)\nfn f(t_ns: u64) -> u64 { t_ns }";
        let fl = lint_source(&info("crates/net/src/filter.rs"), src, &rules::all_rules());
        let rules_hit: Vec<&str> = fl.active.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules_hit.contains(&"bad-suppression"));
        assert!(
            rules_hit.contains(&"unit-discipline"),
            "a malformed allow suppresses nothing"
        );
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(t_ns: u64) { std::process::exit(42); }\n}";
        for path in [
            "crates/kernel/src/telemetry.rs",
            "crates/bench/src/bin/figures.rs",
        ] {
            let fl = lint_source(&info(path), src, &rules::all_rules());
            assert!(
                fl.active.is_empty(),
                "{path}: every rule exempts test code: {:?}",
                fl.active
            );
        }
    }

    #[test]
    fn findings_sort_deterministically() {
        let mut fs = vec![
            Finding {
                rule: "b".into(),
                file: "z.rs".into(),
                line: 1,
                snippet: "s".into(),
                message: String::new(),
            },
            Finding {
                rule: "a".into(),
                file: "a.rs".into(),
                line: 9,
                snippet: "s".into(),
                message: String::new(),
            },
            Finding {
                rule: "a".into(),
                file: "a.rs".into(),
                line: 2,
                snippet: "s".into(),
                message: String::new(),
            },
        ];
        sort_findings(&mut fs);
        assert_eq!(fs[0].file, "a.rs");
        assert_eq!(fs[0].line, 2);
        assert_eq!(fs[2].file, "z.rs");
    }
}
