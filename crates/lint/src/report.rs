//! Human and JSON reporting, and the exit-code contract.
//!
//! Exit codes (`simlint --list-rules` prints the rule codes):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean (every finding suppressed) |
//! | 2    | usage error |
//! | 3    | I/O error (unreadable workspace) |
//! | 9    | fresh findings across multiple rules |
//! | 16   | bad-suppression |
//! | 20   | unit-discipline |
//!
//! `scripts/ci.sh` collapses any non-zero simlint exit into its own
//! exit 7; the per-rule codes are for humans and tooling running the
//! binary directly.

use std::collections::BTreeMap;

use crate::rules::{exit_code_for, EXIT_MULTIPLE_RULES};
use crate::{Finding, WorkspaceLint};

/// The exit code a lint result maps to.
pub fn exit_code(result: &WorkspaceLint) -> i32 {
    let mut rules: Vec<&str> = result.fresh.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    rules.dedup();
    match rules.as_slice() {
        [] => 0,
        [one] => exit_code_for(one),
        _ => EXIT_MULTIPLE_RULES,
    }
}

/// Per-rule counts of a finding list.
pub fn counts_by_rule(findings: &[Finding]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule.clone()).or_insert(0) += 1;
    }
    counts
}

/// Renders the human-readable report.
pub fn human(result: &WorkspaceLint) -> String {
    let mut out = String::new();
    for f in &result.fresh {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    match: {}\n",
            f.file, f.line, f.rule, f.message, f.snippet
        ));
    }
    if result.fresh.is_empty() {
        out.push_str(&format!(
            "simlint: clean — {} files scanned, {} suppressed\n",
            result.files_scanned,
            result.suppressed.len()
        ));
    } else {
        out.push_str(&format!(
            "simlint: {} fresh finding(s) in {} files scanned ({} suppressed):\n",
            result.fresh.len(),
            result.files_scanned,
            result.suppressed.len()
        ));
        for (rule, n) in counts_by_rule(&result.fresh) {
            out.push_str(&format!("    {rule}: {n}\n"));
        }
    }
    out
}

/// Renders the machine-readable report (self-contained JSON, no deps).
pub fn json(result: &WorkspaceLint) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in result.fresh.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}",
            quote(&f.rule),
            quote(&f.file),
            f.line,
            quote(&f.snippet),
            quote(&f.message)
        ));
    }
    if !result.fresh.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"counts\": {");
    for (i, (rule, n)) in counts_by_rule(&result.fresh).iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", quote(rule), n));
    }
    out.push_str(&format!(
        "}},\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"exit_code\": {}\n}}\n",
        result.files_scanned,
        result.suppressed.len(),
        exit_code(result)
    ));
    out
}

/// Minimal JSON string escaping.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: "crates/net/src/x.rs".to_string(),
            line: 3,
            snippet: "t_ns: u64".to_string(),
            message: "a \"quoted\" message".to_string(),
        }
    }

    fn result(rules: &[&str]) -> WorkspaceLint {
        WorkspaceLint {
            fresh: rules.iter().map(|r| finding(r)).collect(),
            suppressed: vec![],
            files_scanned: 10,
        }
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(exit_code(&result(&[])), 0);
        assert_eq!(exit_code(&result(&["unit-discipline"])), 20);
        assert_eq!(exit_code(&result(&["bad-suppression"])), 16);
        assert_eq!(
            exit_code(&result(&["bad-suppression", "unit-discipline"])),
            9
        );
    }

    #[test]
    fn human_report_lists_findings_and_counts() {
        let r = result(&["unit-discipline", "unit-discipline"]);
        let h = human(&r);
        assert!(h.contains("crates/net/src/x.rs:3: [unit-discipline]"));
        assert!(h.contains("unit-discipline: 2"));
        let clean = human(&result(&[]));
        assert!(clean.contains("clean"));
    }

    #[test]
    fn json_is_escaped_and_self_describing() {
        let j = json(&result(&["unit-discipline"]));
        assert!(j.contains("\"a \\\"quoted\\\" message\""));
        assert!(j.contains("\"exit_code\": 20"));
        assert!(j.contains("\"files_scanned\": 10"));
        let empty = json(&result(&[]));
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"exit_code\": 0"));
    }
}
