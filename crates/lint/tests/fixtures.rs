//! Fixture-based self-tests of the engine: inline suppressions, and the
//! tokenizer's blindness to trigger text in strings and comments, with
//! the fixtures linted *as if* they lived at a workspace path. The
//! fixtures under `crates/lint/fixtures/` are never scanned by a
//! workspace run (only `src/` and `tests/` are), so they can contain
//! violations freely.

use lint::files::FileInfo;
use lint::rules::all_rules;
use lint::{lint_source, FileLint};

fn lint_at(path: &str, src: &str) -> FileLint {
    let info = FileInfo::classify(path).unwrap_or_else(|| panic!("unclassifiable path {path}"));
    lint_source(&info, src, &all_rules())
}

fn rules_hit(fl: &FileLint) -> Vec<&str> {
    let mut rules: Vec<&str> = fl.active.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

const SUPPRESSIONS: &str = include_str!("../fixtures/suppressions.rs");
const STRINGS_AND_COMMENTS: &str = include_str!("../fixtures/strings_and_comments.rs");

/// A bench binary: every rule is in scope there.
const BIN: &str = "crates/bench/src/bin/fixture.rs";

#[test]
fn suppressions_silence_with_reason_and_fail_without() {
    let fl = lint_at(BIN, SUPPRESSIONS);
    let suppressed: Vec<&str> = fl.suppressed.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(
        suppressed,
        vec!["unit-discipline", "exit-code-registry"],
        "{:?}",
        fl.suppressed
    );
    // The reasonless allow and the unknown rule are findings themselves,
    // and the reasonless one suppresses nothing.
    let bad_sup = fl
        .active
        .iter()
        .filter(|f| f.rule == "bad-suppression")
        .count();
    assert_eq!(bad_sup, 2, "{:?}", fl.active);
    assert_eq!(rules_hit(&fl), vec!["bad-suppression", "unit-discipline"]);
    assert!(
        fl.active
            .iter()
            .any(|f| f.rule == "unit-discipline" && f.snippet == "t_ns: u64"),
        "{:?}",
        fl.active
    );
}

#[test]
fn trigger_text_in_strings_and_comments_is_invisible() {
    // Linted as a binary, where every per-file rule is in scope.
    let fl = lint_at(BIN, STRINGS_AND_COMMENTS);
    assert!(fl.active.is_empty(), "{:?}", fl.active);
    assert!(fl.suppressed.is_empty(), "{:?}", fl.suppressed);
}
