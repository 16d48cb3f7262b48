//! simlint — the workspace's static-analysis layer.
//!
//! The reproduction rests on discipline the compiler cannot see: the
//! whole simulation replays byte-identically, library code does not
//! panic, unit-named values carry their newtype, and every exit code is
//! registered. simlint turns those conventions into
//! checked invariants: it lexes the workspace's Rust sources with a
//! comment/string-aware tokenizer, classifies each file by crate and
//! target kind, and runs a rule engine over the token streams.
//!
//! The pipeline per file:
//!
//! 1. [`tokenizer`] lexes the source (literals and comments can never
//!    trigger rules);
//! 2. [`regions`] marks `#[cfg(test)]` spans, which some rules exempt;
//! 3. each [`rules::Rule`] scans the tokens, scoped by the file's place
//!    in the workspace ([`files::FileInfo`]);
//! 4. [`suppress`] applies inline `// simlint: allow(rule): reason`
//!    directives (reason mandatory);
//! 5. [`baseline`] absorbs grandfathered findings so the gate holds the
//!    line at "no new violations".
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
    /// Rule id (`panic-freedom`, …).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Matched tokens, normalized; also the baseline key.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// The findings of one file, before baseline filtering.
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
            if rule.exempt_test_code() && test_regions.contains(rf.tok) {
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
    /// Findings that fail the gate (not suppressed, not baselined).
    pub fresh: Vec<Finding>,
    /// Findings absorbed by the baseline.
    pub baselined: Vec<Finding>,
    /// Findings silenced by inline suppressions.
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints every scanned file under `root` and applies the baseline.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> io::Result<WorkspaceLint> {
    let sources = files::scan_workspace(root)?;
    let rules = rules::all_rules();
    let mut all_active = Vec::new();
    let mut suppressed = Vec::new();
    let files_scanned = sources.len();
    for (info, src) in &sources {
        let mut fl = lint_source(info, src, &rules);
        all_active.append(&mut fl.active);
        suppressed.append(&mut fl.suppressed);
    }
    sort_findings(&mut all_active);
    sort_findings(&mut suppressed);
    let (mut fresh, baselined, stale) = baseline.partition_stale(all_active);
    // Unspent baseline entries are findings of their own (exit 22): a
    // burned-down violation must leave the baseline or it could silently
    // absorb a reintroduction. Key format: rule<TAB>file<TAB>snippet.
    for k in stale {
        let mut parts = k.splitn(3, '\t');
        let rule = parts.next().unwrap_or("").to_string();
        let file = parts.next().unwrap_or("").to_string();
        let snippet = parts.next().unwrap_or("").to_string();
        fresh.push(Finding {
            rule: rules::STALE_BASELINE_RULE.to_string(),
            file,
            line: 0,
            snippet: format!("{rule}\t{snippet}"),
            message: format!(
                "stale baseline entry: no `{rule}` finding with snippet `{snippet}` exists any more — delete the line from crates/lint/baseline.txt"
            ),
        });
    }
    // Workspace-level registry cross-checks land here, also past the
    // baseline: exit-code drift is never grandfathered.
    fresh.extend(registry::check_workspace(root, &sources));
    sort_findings(&mut fresh);
    Ok(WorkspaceLint {
        fresh,
        baselined,
        suppressed,
        files_scanned,
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
        let src = "fn f(o: Option<u8>) -> u8 {\n    // simlint: allow(panic-freedom): fixture invariant\n    o.unwrap()\n}\nfn g(o: Option<u8>) -> u8 { o.unwrap() }";
        let fl = lint_source(&info("crates/net/src/filter.rs"), src, &rules::all_rules());
        assert_eq!(fl.suppressed.len(), 1);
        assert_eq!(fl.suppressed[0].line, 3);
        assert_eq!(fl.active.len(), 1, "the unsuppressed unwrap stands");
        assert_eq!(fl.active[0].line, 5);
    }

    #[test]
    fn suppression_without_reason_is_its_own_finding() {
        let src = "// simlint: allow(panic-freedom)\nfn f(o: Option<u8>) -> u8 { o.unwrap() }";
        let fl = lint_source(&info("crates/net/src/filter.rs"), src, &rules::all_rules());
        let rules_hit: Vec<&str> = fl.active.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules_hit.contains(&"bad-suppression"));
        assert!(
            rules_hit.contains(&"panic-freedom"),
            "a malformed allow suppresses nothing"
        );
    }

    #[test]
    fn test_region_exemption_honors_per_rule_flag() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { o.unwrap(); }\n}";
        let fl = lint_source(&info("crates/kernel/src/telemetry.rs"), src, &rules::all_rules());
        assert!(
            fl.active.is_empty(),
            "the panic rule exempts test code: {:?}",
            fl.active
        );
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
