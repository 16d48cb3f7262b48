//! Rule `class-discipline`: traffic classes are stamped and shed in one
//! place.
//!
//! The priority layer (DESIGN.md §14) proves a per-class conservation
//! law: each class's delivered + shed never exceeds its arrivals, and
//! the three classes sum to the aggregate books. That only holds
//! because exactly one module — the kernel's admission gate — stamps a
//! packet's class ([`Packet::set_class`]) and records the typed
//! [`DropReason::ClassShed`]. A second stamping site could reclassify a
//! packet after its arrival was counted under another class; a second
//! shed site could record a class drop the admission books never saw.
//! (The field behind the setter is `pub(crate)` in `net`, so the setter
//! is the only write path another crate has.)
//! Consumers read classes through `TrialResult::per_class()` instead.

use crate::files::FileInfo;
use crate::tokenizer::Tok;

use super::{method_call, raw, RawFinding, Rule};

/// The only file that may stamp a class onto a packet: the classifier /
/// admission-gate module.
const STAMP_FILES: &[&str] = &["crates/kernel/src/router/classify.rs"];

/// The only files that may name `ClassShed`: the drop-reason owner, the
/// admission gate that records it, and the experiment harness that folds
/// it into the per-class summaries.
const SHED_FILES: &[&str] = &[
    "crates/kernel/src/stats.rs",
    "crates/kernel/src/router/classify.rs",
    "crates/kernel/src/experiment.rs",
];

pub struct ClassDiscipline;

impl Rule for ClassDiscipline {
    fn id(&self) -> &'static str {
        "class-discipline"
    }

    fn exit_code(&self) -> i32 {
        19
    }

    fn exempt_test_code(&self) -> bool {
        // Tests assert on shed counters and stamped classes; reading
        // them cannot break the books.
        true
    }

    fn describe(&self) -> &'static str {
        "classes are stamped and ClassShed recorded only in the admission gate"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        let stamp_ok = STAMP_FILES.contains(&file.rel_path.as_str());
        let shed_ok = SHED_FILES.contains(&file.rel_path.as_str());
        if stamp_ok && shed_ok {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !stamp_ok && method_call(toks, i, "set_class") {
                out.push(raw(
                    toks,
                    i,
                    ".set_class(",
                    "packet class stamped outside the admission gate: only \
                     router/classify.rs may classify, or a packet's class can \
                     change after its arrival was booked under another class",
                ));
            }
            if !shed_ok && t.is_ident("ClassShed") {
                out.push(raw(
                    toks,
                    i,
                    "ClassShed",
                    "ClassShed named outside its owner files: only the admission \
                     gate sheds by class; read shed counts through \
                     TrialResult::per_class() so the class books stay conserved",
                ));
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
        ClassDiscipline.check(
            &FileInfo::classify(path).expect("classifiable"),
            &tokenize(src).toks,
        )
    }

    #[test]
    fn flags_stamping_outside_the_gate() {
        let f = run(
            "crates/kernel/src/router/mod.rs",
            "pkt.set_class(TrafficClass::Bulk);",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, ".set_class(");
    }

    #[test]
    fn flags_class_shed_outside_owner_files() {
        let f = run(
            "crates/bench/src/lib.rs",
            "stats.record_drop_for(DropReason::ClassShed { class }, key);",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, "ClassShed");
    }

    #[test]
    fn owner_files_are_allowed() {
        let src = "pkt.set_class(c); s.record_drop_for(DropReason::ClassShed { class }, k);";
        assert!(run("crates/kernel/src/router/classify.rs", src).is_empty());
        assert!(run(
            "crates/kernel/src/stats.rs",
            "DropReason::ClassShed { class } => {}",
        )
        .is_empty());
        assert!(run(
            "crates/kernel/src/experiment.rs",
            "r.drops.get(DropReason::ClassShed { class })",
        )
        .is_empty());
    }

    #[test]
    fn unrelated_idents_do_not_match() {
        let f = run(
            "crates/bench/src/lib.rs",
            "let set_class = 1; set_class(x); r.per_class(); shed.class_shed();",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn current_sources_respect_the_boundary() {
        // Self-check against the live tree: nothing outside the gate
        // stamps a class, nothing outside the owner files sheds one.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        for crate_dir in ["machine", "core", "kernel", "net", "sim", "bench"] {
            let src_dir = root.join("crates").join(crate_dir).join("src");
            let mut stack = vec![src_dir];
            while let Some(dir) = stack.pop() {
                let Ok(entries) = std::fs::read_dir(&dir) else { continue };
                for e in entries.flatten() {
                    let p = e.path();
                    if p.is_dir() {
                        stack.push(p);
                    } else if p.extension().is_some_and(|x| x == "rs") {
                        let rel = p
                            .strip_prefix(&root)
                            .expect("under root")
                            .to_string_lossy()
                            .replace('\\', "/");
                        let src = std::fs::read_to_string(&p).expect("source readable");
                        let f = run(&rel, &src);
                        assert!(f.is_empty(), "{rel} breaks class discipline: {f:?}");
                    }
                }
            }
        }
    }
}
