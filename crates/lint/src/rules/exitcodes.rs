//! exit-code-registry: every process exit code is registered, named,
//! and alive.
//!
//! The per-file half of the rule (this file) bans raw numeric exit
//! codes in binaries: `std::process::exit(3)` and `ExitCode::from(9)`
//! must go through [`crate::registry::codes`] constants, because a
//! number the registry cannot see is a number the registry cannot keep
//! honest.
//! Exit 0 (success) is always allowed.
//!
//! The workspace half — cross-checking `scripts/ci.sh` literals and
//! constant liveness against the registry — runs in
//! [`crate::lint_workspace`] via [`crate::registry::check_workspace`],
//! because it needs the whole source set and a non-Rust file.

use crate::files::{FileInfo, TargetKind};
use crate::rules::{is_path_sep, path_match, raw, RawFinding, Rule};
use crate::tokenizer::{Tok, TokKind};

/// The exit-code-registry rule.
pub struct ExitCodeRegistry;

/// Exit code for exit-code-registry findings.
pub const EXIT_CODE_REGISTRY: i32 = 21;

/// Rule id (shared with the workspace-level half).
pub const EXIT_CODE_REGISTRY_RULE: &str = "exit-code-registry";

impl Rule for ExitCodeRegistry {
    fn id(&self) -> &'static str {
        EXIT_CODE_REGISTRY_RULE
    }

    fn exit_code(&self) -> i32 {
        EXIT_CODE_REGISTRY
    }

    fn describe(&self) -> &'static str {
        "process exit codes go through registry constants, never raw literals"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        // Only binaries exit; library code returning status ints is the
        // bins' problem at the call site.
        if file.kind != TargetKind::Bin {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..toks.len() {
            // `process::exit(<num>)` — the path prefix keeps a user fn
            // named `exit` out of scope.
            if toks[i].is_ident("exit")
                && i >= 3
                && is_path_sep(toks, i - 2)
                && toks[i - 3].is_ident("process")
            {
                if let Some(n) = literal_arg(toks, i + 1) {
                    if n != "0" {
                        out.push(raw(
                            toks,
                            i,
                            format!("process::exit({n})"),
                            format!(
                                "raw exit code {n}: use a `lint::registry::codes` constant so the registry can track it"
                            ),
                        ));
                    }
                }
            }
            // `ExitCode::from(<num>)`.
            if path_match(toks, i, &["ExitCode", "from"]).is_some() {
                if let Some(n) = literal_arg(toks, i + 4) {
                    if n != "0" {
                        out.push(raw(
                            toks,
                            i,
                            format!("ExitCode::from({n})"),
                            format!(
                                "raw exit code {n}: use a `lint::registry::codes` constant so the registry can track it"
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// The numeric literal directly inside `( … )` at `open`, if the
/// argument is a single literal token.
fn literal_arg(toks: &[Tok], open: usize) -> Option<String> {
    if toks.get(open).is_some_and(|t| t.is_punct('('))
        && toks.get(open + 1).is_some_and(|t| t.kind == TokKind::Num)
        && toks.get(open + 2).is_some_and(|t| t.is_punct(')'))
    {
        Some(toks[open + 1].text.clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn findings(path: &str, src: &str) -> Vec<RawFinding> {
        let info = FileInfo::classify(path).unwrap();
        ExitCodeRegistry.check(&info, &tokenize(src).toks)
    }

    #[test]
    fn raw_exit_literals_in_bins_are_flagged() {
        let fs = findings(
            "crates/bench/src/bin/figures.rs",
            "fn main() { std::process::exit(3); }",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        let fs = findings(
            "crates/bench/src/bin/figures.rs",
            "fn main() -> ExitCode { ExitCode::from(9) }",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn constants_variables_and_zero_are_clean() {
        let src = "fn main() { std::process::exit(codes::FIGURES_SHAPE); \
                    std::process::exit(code); std::process::exit(0); }";
        let fs = findings("crates/bench/src/bin/figures.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn libraries_and_user_exit_fns_are_out_of_scope() {
        let fs = findings("crates/kernel/src/config.rs", "fn f() { std::process::exit(3); }");
        assert!(fs.is_empty(), "lib files do not exit");
        let fs = findings("crates/bench/src/bin/figures.rs", "fn f() { exit(3); }");
        assert!(fs.is_empty(), "a bare exit() is not process::exit");
    }
}
