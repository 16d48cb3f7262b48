//! Rule `panic-freedom`: library crates do not panic.
//!
//! A panic inside the simulation substrate kills a whole trial — under
//! `kernel::par` it kills the worker and poisons the run. Library code in
//! the deterministic crates returns errors instead; `unwrap`/`expect`
//! belongs in tests, examples, and binaries where a crash is an acceptable
//! failure report. Grandfathered call sites live in the baseline;
//! genuinely-justified invariants carry an inline
//! `// simlint: allow(panic-freedom): why`.

use crate::files::{FileInfo, TargetKind};
use crate::tokenizer::Tok;

use super::{bang_macro, method_call, raw, RawFinding, Rule, DETERMINISTIC_CRATES};

/// Methods that panic on their failure case.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];
/// Macros that unconditionally panic.
const PANICKY_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

pub struct PanicFreedom;

impl Rule for PanicFreedom {
    fn id(&self) -> &'static str {
        "panic-freedom"
    }

    fn exit_code(&self) -> i32 {
        14
    }

    fn exempt_test_code(&self) -> bool {
        true
    }

    fn describe(&self) -> &'static str {
        "no unwrap()/expect()/panic! in deterministic library crates outside #[cfg(test)]"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        // The linter holds itself to the same bar: a panic in the gate
        // reads as a rule violation, not a finding.
        let in_scope = DETERMINISTIC_CRATES.contains(&file.crate_name.as_str())
            || file.crate_name == "lint";
        if file.kind != TargetKind::Lib || !in_scope {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..toks.len() {
            for m in PANICKY_METHODS {
                if method_call(toks, i, m) {
                    out.push(raw(
                        toks,
                        i,
                        format!(".{m}("),
                        format!(
                            "`.{m}()` in library code panics the trial; return an error, or \
                             justify the invariant with `// simlint: allow(panic-freedom): why`"
                        ),
                    ));
                }
            }
            for m in PANICKY_MACROS {
                if bang_macro(toks, i, m) {
                    out.push(raw(
                        toks,
                        i,
                        format!("{m}!"),
                        format!("`{m}!` in library code aborts the trial; return an error instead"),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        PanicFreedom.check(
            &FileInfo::classify(path).expect("classifiable"),
            &tokenize(src).toks,
        )
    }

    #[test]
    fn flags_unwrap_expect_and_panic_macros() {
        let f = run(
            "crates/net/src/filter.rs",
            "let x = o.unwrap(); let y = r.expect(\"msg\"); panic!(\"boom\"); todo!();",
        );
        let snippets: Vec<&str> = f.iter().map(|r| r.snippet.as_str()).collect();
        assert_eq!(snippets, vec![".unwrap(", ".expect(", "panic!", "todo!"]);
    }

    #[test]
    fn unwrap_or_and_expect_err_are_different_idents() {
        let f = run(
            "crates/net/src/filter.rs",
            "let x = o.unwrap_or(0); let y = o.unwrap_or_else(f); let e = r.expect_err(\"m\");",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bins_tests_and_nondeterministic_crates_are_out_of_scope() {
        let src = "x.unwrap(); panic!();";
        assert!(run("crates/bench/src/bin/figures.rs", src).is_empty());
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("tests/cross_crate.rs", src).is_empty());
        assert!(run("crates/machine/tests/engine_properties.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_examples_never_trigger() {
        let src = "/// ```\n/// let x = q.pop().unwrap();\n/// ```\nfn pop() {}";
        assert!(run("crates/sim/src/lib.rs", src).is_empty());
    }
}
