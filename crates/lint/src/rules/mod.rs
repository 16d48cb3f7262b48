//! The rule registry and the token-matching helpers rules share.
//!
//! Every rule encodes one invariant the paper's design depends on that
//! neither rustc nor clippy can check (determinism and panic-freedom are
//! clippy lints, configured in `clippy.toml` and `scripts/ci.sh`). Rules
//! work on the lexed token stream of one file plus that file's place in
//! the workspace; they return raw findings which the engine then filters
//! through `#[cfg(test)]` regions and inline suppressions.

use crate::files::FileInfo;
use crate::tokenizer::Tok;

mod exitcodes;
mod units;

pub use exitcodes::{EXIT_CODE_REGISTRY, EXIT_CODE_REGISTRY_RULE};
pub use units::EXIT_UNIT_DISCIPLINE;

/// A match a rule reported, before exemption filtering.
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Index of the first matched token (for test-region lookup).
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// The matched tokens, normalized.
    pub snippet: String,
    /// Human explanation tying the finding to the invariant.
    pub message: String,
}

/// One checked invariant.
pub trait Rule {
    /// Stable kebab-case identifier (used in `allow(...)`).
    fn id(&self) -> &'static str;
    /// Process exit code when this rule (alone) has fresh findings.
    fn exit_code(&self) -> i32;
    /// One-line description for `--list-rules` and docs.
    fn describe(&self) -> &'static str;
    /// Scans one file. Rules scope themselves: out-of-scope files simply
    /// return no findings.
    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding>;
}

/// Exit code when fresh findings span several rules.
pub const EXIT_MULTIPLE_RULES: i32 = 9;
/// Exit code for malformed `simlint:` directives.
pub const EXIT_BAD_SUPPRESSION: i32 = 16;
/// Rule id for malformed `simlint:` directives (engine-reported).
pub const BAD_SUPPRESSION_RULE: &str = "bad-suppression";

/// Instantiates every rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(units::UnitDiscipline),
        Box::new(exitcodes::ExitCodeRegistry),
    ]
}

/// Every suppressible rule id (the `allow(...)` vocabulary).
pub fn rule_ids() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.id()).collect()
}

/// Maps a rule id to its exit code (including the engine's own rule).
pub fn exit_code_for(rule: &str) -> i32 {
    if rule == BAD_SUPPRESSION_RULE {
        return EXIT_BAD_SUPPRESSION;
    }
    all_rules()
        .iter()
        .find(|r| r.id() == rule)
        .map_or(EXIT_MULTIPLE_RULES, |r| r.exit_code())
}

// ---- shared matching helpers ----

/// Is `toks[i..]` the path separator `::`?
pub(crate) fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(':')) && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Matches `segs[0] :: segs[1] :: …` starting at token `i`. Returns the
/// index one past the match.
pub(crate) fn path_match(toks: &[Tok], i: usize, segs: &[&str]) -> Option<usize> {
    let mut at = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !is_path_sep(toks, at) {
                return None;
            }
            at += 2;
        }
        if !toks.get(at).is_some_and(|t| t.is_ident(seg)) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

/// Builds a finding at token index `i`.
pub(crate) fn raw(toks: &[Tok], i: usize, snippet: impl Into<String>, message: impl Into<String>) -> RawFinding {
    RawFinding {
        tok: i,
        line: toks[i].line,
        snippet: snippet.into(),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    #[test]
    fn path_match_walks_separators() {
        let toks = tokenize("std::time::Instant::now()").toks;
        assert_eq!(path_match(&toks, 0, &["std", "time", "Instant", "now"]), Some(10));
        // Suffix match starting at `Instant`.
        let at = toks.iter().position(|t| t.is_ident("Instant")).unwrap();
        assert!(path_match(&toks, at, &["Instant", "now"]).is_some());
        assert!(path_match(&toks, 0, &["std", "thread"]).is_none());
    }

    #[test]
    fn exit_codes_are_distinct() {
        let rules = all_rules();
        let mut codes: Vec<i32> = rules.iter().map(|r| r.exit_code()).collect();
        codes.push(EXIT_MULTIPLE_RULES);
        codes.push(EXIT_BAD_SUPPRESSION);
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate exit codes");
        assert!(codes.iter().all(|&c| c != 0 && c != 1 && c != 2 && c != 7));
    }
}
