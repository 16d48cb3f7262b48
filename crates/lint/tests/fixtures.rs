//! The unit check on whole files in a small tree: trigger text inside
//! comments and literals is invisible, and only an [`ALLOWED`] entry
//! silences a raw declaration.

use std::fs;
use std::path::Path;

use lint::baseline::Baseline;
use lint::{lint_workspace, Finding, WorkspaceLint, ALLOWED};

/// Lints a fresh tree that holds only `files`, as (relative path, text).
fn lint_tree(name: &str, files: &[(&str, &str)]) -> WorkspaceLint {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("a parent")).expect("scratch dir");
        fs::write(path, text).expect("scratch file");
    }
    let ws = lint_workspace(&root, &Baseline).expect("scratch tree readable");
    fs::remove_dir_all(&root).expect("scratch tree removed");
    ws
}

const STRINGS_AND_COMMENTS: &str = r##"// The rule's trigger text appears here only inside comments, strings
// and doc examples:
//
// fn f(t_ns: u64) {} struct S { deadline_cycles: u64 }

/// Doc example:
/// ```
/// let delay_us: f64 = 1.0;
/// ```
fn clean() -> &'static str {
    let a = "fn f(t_ns: u64) in a string";
    let b = r#"struct S { x_ms: u32 }"#;
    let c = "let d_us: f64 = 1.0; \"quoted\"";
    let _ = (a, b, c);
    /* block comment: fn g(t_cycles: u64) {}
       nested /* h_us: u32 */ still a comment */
    "ok"
}
"##;

const SUPPRESSIONS: &str = "struct Suppressed {
    // simlint: allow(unit-discipline): a comment is no allow-list entry
    skew_cycles: i64,
}

fn suppressed_param(
    skew_ns: i64, // simlint: allow(unit-discipline): nor is a trailing one
) -> i64 {
    skew_ns
}

// simlint: allow(unit-discipline)
fn missing_reason(t_ns: u64) -> u64 {
    t_ns
}
";

#[test]
fn trigger_text_in_strings_and_comments_is_invisible() {
    let ws = lint_tree("lint-strings-and-comments", &[("crates/net/src/strings_and_comments.rs", STRINGS_AND_COMMENTS)]);
    assert_eq!((ws.fresh, ws.suppressed, ws.files_scanned), (vec![], vec![], 1));
}

/// The same file fails in full anywhere but at the path of an
/// [`ALLOWED`] entry, where that entry's binding, and only it, is absorbed.
#[test]
fn suppressions_silence_with_reason_and_fail_without() {
    const FAULT: &str = "crates/machine/src/fault.rs";
    assert!(ALLOWED.contains(&(FAULT, "skew_cycles")));
    let ws = lint_tree("lint-suppressions", &[(FAULT, SUPPRESSIONS), ("crates/kernel/src/suppressions.rs", SUPPRESSIONS)]);
    let found = |fs: &[Finding]| -> Vec<String> { fs.iter().map(|f| format!("{}:{} {}", f.file, f.line, f.name)).collect() };
    let fresh = [
        "crates/kernel/src/suppressions.rs:3 skew_cycles",
        "crates/kernel/src/suppressions.rs:7 skew_ns",
        "crates/kernel/src/suppressions.rs:13 t_ns",
        "crates/machine/src/fault.rs:7 skew_ns",
        "crates/machine/src/fault.rs:13 t_ns",
    ];
    assert_eq!(found(&ws.fresh), fresh);
    assert_eq!(found(&ws.suppressed), ["crates/machine/src/fault.rs:3 skew_cycles"]);
}
