//! Inline suppressions: `// simlint: allow(rule): reason`.
//!
//! A suppression silences findings of one named rule on its own line or
//! on the line directly below it (so it can sit as a trailing comment or
//! on the preceding line). The reason is mandatory — an allow without a
//! justification is itself reported, as rule `bad-suppression`, because
//! an unexplained exemption is exactly the kind of silent convention this
//! tool exists to remove.

use crate::tokenizer::LintComment;

/// One parsed suppression directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line the directive sits on.
    pub line: u32,
}

/// A directive that mentioned `simlint:` but did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadSuppression {
    /// 1-based line of the malformed directive.
    pub line: u32,
    /// Why it was rejected.
    pub problem: String,
}

/// The parsed suppressions of one file.
#[derive(Clone, Debug, Default)]
pub struct Suppressions {
    /// Well-formed directives.
    pub allows: Vec<Suppression>,
    /// Malformed directives (reported as findings).
    pub bad: Vec<BadSuppression>,
}

impl Suppressions {
    /// Is a finding of `rule` at `line` suppressed? A directive covers
    /// its own line and the following line.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }
}

/// Parses every `simlint:` comment of a file. `known_rules` validates the
/// rule name so a typo cannot silently allow nothing.
pub fn parse(comments: &[LintComment], known_rules: &[&str]) -> Suppressions {
    let mut out = Suppressions::default();
    for c in comments {
        // Doc comments (`///` and `//!` — their text starts with the
        // third `/` or the `!`) are documentation: they may quote the
        // directive syntax verbatim without being directives.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(at) = c.text.find("simlint:") else {
            continue;
        };
        let body = c.text[at + "simlint:".len()..].trim();
        if body.is_empty() {
            // Prose that happens to end with the marker (docs about the
            // tool); nothing follows, so it cannot be an attempted
            // directive.
            continue;
        }
        match parse_directive(body, known_rules) {
            Ok((rule, reason)) => out.allows.push(Suppression {
                rule,
                reason,
                line: c.line,
            }),
            Err(problem) => out.bad.push(BadSuppression {
                line: c.line,
                problem,
            }),
        }
    }
    out
}

fn parse_directive(body: &str, known_rules: &[&str]) -> Result<(String, String), String> {
    let rest = body
        .strip_prefix("allow")
        .ok_or_else(|| format!("expected `allow(rule): reason`, got `{body}`"))?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `(` in allow directive".to_string())?;
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() {
        return Err("empty rule name in allow(...)".to_string());
    }
    if !known_rules.contains(&rule.as_str()) {
        return Err(format!("unknown rule `{rule}`"));
    }
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix(':')
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err(format!("allow({rule}) needs a reason: `allow({rule}): why`"));
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["unit-discipline", "other-rule"];

    fn comment(text: &str, line: u32) -> LintComment {
        LintComment {
            text: text.to_string(),
            line,
        }
    }

    #[test]
    fn well_formed_directive_parses() {
        let s = parse(
            &[comment(" simlint: allow(unit-discipline): invariant upheld by caller", 7)],
            RULES,
        );
        assert!(s.bad.is_empty());
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].rule, "unit-discipline");
        assert_eq!(s.allows[0].reason, "invariant upheld by caller");
        assert!(s.covers("unit-discipline", 7), "own line");
        assert!(s.covers("unit-discipline", 8), "next line");
        assert!(!s.covers("unit-discipline", 9));
        assert!(!s.covers("other-rule", 7), "other rules unaffected");
    }

    #[test]
    fn missing_reason_is_rejected() {
        let s = parse(&[comment(" simlint: allow(unit-discipline)", 3)], RULES);
        assert!(s.allows.is_empty());
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].problem.contains("reason"));

        let s = parse(&[comment(" simlint: allow(unit-discipline):   ", 3)], RULES);
        assert_eq!(s.bad.len(), 1, "blank reason is still missing");
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let s = parse(&[comment(" simlint: allow(units): oops", 3)], RULES);
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].problem.contains("unknown rule"));
    }

    #[test]
    fn garbage_directive_is_rejected() {
        let s = parse(&[comment(" simlint: disable everything", 3)], RULES);
        assert_eq!(s.bad.len(), 1);
    }

    #[test]
    fn doc_comments_quoting_the_syntax_are_prose() {
        // Outer doc comment: the text starts with the third slash.
        let s = parse(&[comment("/ simlint: usage error (unknown flag).", 3)], RULES);
        assert!(s.allows.is_empty());
        assert!(s.bad.is_empty());
        // Inner doc comment: the text starts with the bang.
        let s = parse(&[comment("! quote `// simlint: allow(rule): reason` here", 3)], RULES);
        assert!(s.bad.is_empty());
        // A doc comment cannot suppress either.
        let s = parse(&[comment("/ simlint: allow(unit-discipline): not a directive", 3)], RULES);
        assert!(s.allows.is_empty());
    }

    #[test]
    fn trailing_mention_with_nothing_after_it_is_prose() {
        let s = parse(&[comment(" doc comments may talk about simlint:", 3)], RULES);
        assert!(s.allows.is_empty());
        assert!(s.bad.is_empty());
    }
}
