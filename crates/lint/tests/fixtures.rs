//! Fixture-based self-tests: each rule must flag its known-bad snippet
//! and stay quiet on the known-good one, with the fixtures linted *as if*
//! they lived at representative workspace paths. The fixtures under
//! `crates/lint/fixtures/` are never scanned by a workspace run (the lint
//! crate skips itself), so they can contain violations freely.

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

const DETERMINISM_BAD: &str = include_str!("../fixtures/determinism_bad.rs");
const DETERMINISM_GOOD: &str = include_str!("../fixtures/determinism_good.rs");
const PANICS_BAD: &str = include_str!("../fixtures/panics_bad.rs");
const PANICS_GOOD: &str = include_str!("../fixtures/panics_good.rs");
const SUPPRESSIONS: &str = include_str!("../fixtures/suppressions.rs");
const STRINGS_AND_COMMENTS: &str = include_str!("../fixtures/strings_and_comments.rs");

#[test]
fn determinism_bad_is_flagged_good_is_clean() {
    let bad = lint_at("crates/sim/src/fixture.rs", DETERMINISM_BAD);
    assert_eq!(rules_hit(&bad), vec!["determinism"]);
    assert!(
        bad.active.len() >= 5,
        "HashMap, HashSet, Instant::now, spawn, sleep: {:?}",
        bad.active
    );
    let good = lint_at("crates/sim/src/fixture.rs", DETERMINISM_GOOD);
    assert!(good.active.is_empty(), "{:?}", good.active);
}

#[test]
fn determinism_collections_scope_is_library_code_in_deterministic_crates() {
    // A bench binary may use HashMap; wall-clock time is still banned there.
    let bench = lint_at("crates/bench/src/bin/figures.rs", DETERMINISM_BAD);
    assert!(
        !bench
            .active
            .iter()
            .any(|f| f.snippet == "HashMap" || f.snippet == "HashSet"),
        "{:?}",
        bench.active
    );
    assert!(
        bench.active.iter().any(|f| f.snippet.contains("Instant")),
        "wall-clock time is nondeterministic everywhere: {:?}",
        bench.active
    );
    // The parallel executor is the one sanctioned thread user; nothing
    // is sanctioned to read a wall clock.
    let par = lint_at("crates/kernel/src/par.rs", DETERMINISM_BAD);
    assert!(
        !par.active.iter().any(|f| f.snippet.contains("thread")),
        "{:?}",
        par.active
    );
    assert!(
        par.active.iter().any(|f| f.snippet.contains("Instant")),
        "{:?}",
        par.active
    );
}

#[test]
fn panic_freedom_bad_is_flagged_good_is_clean() {
    let bad = lint_at("crates/net/src/fixture.rs", PANICS_BAD);
    assert_eq!(rules_hit(&bad), vec!["panic-freedom"]);
    assert_eq!(
        bad.active.len(),
        4,
        "unwrap, expect, panic!, todo!: {:?}",
        bad.active
    );
    let good = lint_at("crates/net/src/fixture.rs", PANICS_GOOD);
    assert!(
        good.active.is_empty(),
        "error returns + test-module unwrap: {:?}",
        good.active
    );
}

#[test]
fn suppressions_silence_with_reason_and_fail_without() {
    let fl = lint_at("crates/net/src/fixture.rs", SUPPRESSIONS);
    assert_eq!(fl.suppressed.len(), 1, "{:?}", fl.suppressed);
    assert_eq!(fl.suppressed[0].rule, "panic-freedom");
    // The reasonless allow and the unknown rule are findings themselves,
    // and the reasonless one suppresses nothing.
    let bad_sup = fl
        .active
        .iter()
        .filter(|f| f.rule == "bad-suppression")
        .count();
    assert_eq!(bad_sup, 2, "{:?}", fl.active);
    assert!(
        fl.active.iter().any(|f| f.rule == "panic-freedom"),
        "{:?}",
        fl.active
    );
}

#[test]
fn trigger_text_in_strings_and_comments_is_invisible() {
    // Linted as library code of a deterministic crate, where every
    // per-file rule but the bin-only exit-code check is in scope.
    let fl = lint_at("crates/net/src/fixture.rs", STRINGS_AND_COMMENTS);
    assert!(fl.active.is_empty(), "{:?}", fl.active);
    assert!(fl.suppressed.is_empty(), "{:?}", fl.suppressed);
}
