//! Rule `determinism`: the simulation must replay byte-identically.
//!
//! Two sub-checks:
//!
//! 1. **No wall-clock or ad-hoc threading.** `Instant::now`, `SystemTime`,
//!    and `std::thread` primitives introduce host-dependent values and
//!    scheduling. The only sanctioned concurrency is `kernel::par`'s
//!    scoped work queue (whose results are order-restored). Nothing in
//!    the workspace is sanctioned to read a wall clock: host time is
//!    measured from outside, by `benchmark/` (its own package, not
//!    scanned).
//! 2. **No iteration-order-dependent containers in deterministic
//!    crates.** `HashMap`/`HashSet` iteration order depends on the
//!    hasher's random seed; one `for` loop over such a map inside the
//!    simulation pipeline can silently reorder CSV rows. The
//!    deterministic crates use `BTreeMap`/`BTreeSet`/`Vec` instead.

use crate::files::{FileInfo, TargetKind};
use crate::tokenizer::Tok;

use super::{path_match, raw, RawFinding, Rule, DETERMINISTIC_CRATES};

/// The one file allowed to use `std::thread`: the sanctioned parallelism
/// module. The wall-clock check has no allow-list at all.
const THREAD_EXEMPT: &str = "crates/kernel/src/par.rs";

/// `thread::<name>` calls that introduce host scheduling.
const THREAD_FNS: &[&str] = &["spawn", "scope", "sleep", "park", "yield_now", "Builder"];

pub struct Determinism;

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn exit_code(&self) -> i32 {
        10
    }

    fn exempt_test_code(&self) -> bool {
        // Tests feed the same deterministic pipeline (figure byte-identity
        // is asserted *by* tests), so they get no wall-clock either.
        false
    }

    fn describe(&self) -> &'static str {
        "no wall-clock anywhere, no threads outside kernel::par; no HashMap/HashSet in \
         deterministic crates"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        let mut out = Vec::new();
        self.check_time_and_threads(toks, file.rel_path == THREAD_EXEMPT, &mut out);
        // The linter's own reports must be deterministic too (rule order,
        // baselines, and the registry table are all diffed in CI).
        let ordered_scope = DETERMINISTIC_CRATES.contains(&file.crate_name.as_str())
            || file.crate_name == "lint";
        if ordered_scope && file.kind == TargetKind::Lib {
            self.check_ordered_containers(toks, &mut out);
        }
        out
    }
}

impl Determinism {
    fn check_time_and_threads(&self, toks: &[Tok], may_thread: bool, out: &mut Vec<RawFinding>) {
        let mut i = 0;
        while i < toks.len() {
            if let Some(end) = path_match(toks, i, &["Instant", "now"]) {
                out.push(raw(
                    toks,
                    i,
                    "Instant::now",
                    "wall-clock read: simulation time must come from sim::Cycles, not the host \
                     (host time is benchmark/'s business, measured from outside)",
                ));
                i = end;
                continue;
            }
            if toks[i].is_ident("SystemTime") {
                out.push(raw(
                    toks,
                    i,
                    "SystemTime",
                    "wall-clock read: SystemTime is host-dependent and breaks replay byte-identity",
                ));
                i += 1;
                continue;
            }
            if may_thread {
                i += 1;
                continue;
            }
            if let Some(end) = path_match(toks, i, &["std", "thread"]) {
                out.push(raw(
                    toks,
                    i,
                    "std::thread",
                    "ad-hoc threading: host scheduling is nondeterministic; use kernel::par's \
                     order-restoring work queue",
                ));
                i = end;
                continue;
            }
            if let Some(&f) = THREAD_FNS
                .iter()
                .find(|f| path_match(toks, i, &["thread", f]).is_some())
            {
                out.push(raw(
                    toks,
                    i,
                    format!("thread::{f}"),
                    "ad-hoc threading: host scheduling is nondeterministic; use kernel::par's \
                     order-restoring work queue",
                ));
                i = path_match(toks, i, &["thread", f]).unwrap_or(i + 1);
                continue;
            }
            i += 1;
        }
    }

    fn check_ordered_containers(&self, toks: &[Tok], out: &mut Vec<RawFinding>) {
        for (i, t) in toks.iter().enumerate() {
            for name in ["HashMap", "HashSet"] {
                if t.is_ident(name) {
                    out.push(raw(
                        toks,
                        i,
                        name,
                        format!(
                            "{name} iteration order depends on a random hasher seed and can \
                             break figure byte-identity; use BTreeMap/BTreeSet/Vec"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn lib_file(path: &str) -> FileInfo {
        FileInfo::classify(path).expect("classifiable")
    }

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        Determinism.check(&lib_file(path), &tokenize(src).toks)
    }

    #[test]
    fn flags_wall_clock_and_threads() {
        let f = run(
            "crates/net/src/gen.rs",
            "let t = std::time::Instant::now(); let s = SystemTime::now(); std::thread::spawn(|| {});",
        );
        let snippets: Vec<&str> = f.iter().map(|r| r.snippet.as_str()).collect();
        assert!(snippets.contains(&"Instant::now"));
        assert!(snippets.contains(&"SystemTime"));
        assert!(snippets.contains(&"std::thread"));
    }

    #[test]
    fn thread_fn_without_std_prefix_is_flagged_once() {
        let f = run("crates/core/src/gate.rs", "thread::sleep(d);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, "thread::sleep");
    }

    #[test]
    fn par_may_thread_and_nothing_may_read_a_wall_clock() {
        assert!(run("crates/kernel/src/par.rs", "std::thread::scope(|s| {});").is_empty());
        // The thread exemption is not a time exemption, and no target
        // kind is a timing path: host time is measured by benchmark/.
        for path in [
            "crates/kernel/src/par.rs",
            "crates/bench/src/bin/figures.rs",
            "examples/ablation.rs",
            "tests/alloc_count.rs",
        ] {
            let f = run(path, "let t = Instant::now();");
            assert_eq!(f.len(), 1, "{path}");
            assert_eq!(f[0].snippet, "Instant::now");
        }
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_lib_code() {
        assert_eq!(run("crates/net/src/filter.rs", "use std::collections::HashMap;").len(), 1);
        assert_eq!(run("crates/sim/src/rng.rs", "let s: HashSet<u8>;").len(), 1);
        // bench crate and test targets are out of the container check's scope.
        assert!(run("crates/bench/src/lib.rs", "use std::collections::HashMap;").is_empty());
        assert!(run("tests/cross_crate.rs", "let s = std::collections::HashSet::new();").is_empty());
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = r#"// Instant::now() in prose
            let s = "HashMap and SystemTime and thread::spawn";"#;
        assert!(run("crates/net/src/gen.rs", src).is_empty());
    }
}
