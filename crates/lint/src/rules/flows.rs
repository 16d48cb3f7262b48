//! Rule `flow-discipline`: per-flow metrics only via the stats hooks.
//!
//! The per-flow observability layer (DESIGN.md §13) proves a conservation
//! law: attributed + unattributed + overflow arrivals equal the kernel's
//! arrival count, and a drained trial closes every flow's ledger exactly
//! (arrived == delivered + drops). That law holds because every mutation
//! of the [`FlowRegistry`] funnels through the `KernelStats` hooks
//! (`record_arrival`, `record_delivery`, `record_drop_for`), which keep the
//! aggregate and per-flow books in lockstep. A module that named the
//! registry type directly — or called the attribution hooks from outside
//! the kernel — could record a flow event the aggregates never saw,
//! silently breaking the audit the whole layer rests on.

use crate::files::FileInfo;
use crate::tokenizer::Tok;

use super::{method_call, raw, RawFinding, Rule};

/// The only files allowed to name `FlowRegistry`: its definition, the
/// stats hooks that wrap it, the detector that watches it, the
/// experiment harness that merges and exports it, the router that
/// builds it, and the crate root that re-exports it.
const REGISTRY_FILES: &[&str] = &[
    "crates/kernel/src/flows.rs",
    "crates/kernel/src/stats.rs",
    "crates/kernel/src/telemetry.rs",
    "crates/kernel/src/experiment.rs",
    "crates/kernel/src/router/mod.rs",
    "crates/kernel/src/lib.rs",
];

/// The sanctioned attribution hooks; callable only inside the kernel
/// crate (consumers read `TrialResult::per_flow()` instead).
const HOOK_METHODS: &[&str] = &["record_arrival", "record_delivery", "record_drop_for"];

pub struct FlowDiscipline;

impl Rule for FlowDiscipline {
    fn id(&self) -> &'static str {
        "flow-discipline"
    }

    fn exit_code(&self) -> i32 {
        18
    }

    fn exempt_test_code(&self) -> bool {
        // A test mutating the registry around the hooks breaks the same
        // conservation audit the rule protects.
        false
    }

    fn describe(&self) -> &'static str {
        "per-flow metrics mutate only through the KernelStats attribution hooks"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        let registry_ok = REGISTRY_FILES.contains(&file.rel_path.as_str());
        let hooks_ok = file.rel_path.starts_with("crates/kernel/src/");
        if registry_ok && hooks_ok {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !registry_ok && t.is_ident("FlowRegistry") {
                out.push(raw(
                    toks,
                    i,
                    "FlowRegistry",
                    "per-flow registry named outside its owner files: mutate flows \
                     through the KernelStats hooks and read them through \
                     TrialResult::per_flow() so the arrival conservation audit holds"
                        .to_string(),
                ));
            }
            if !hooks_ok {
                if let Some(&name) = HOOK_METHODS.iter().find(|m| method_call(toks, i, m)) {
                    out.push(raw(
                        toks,
                        i,
                        format!(".{name}("),
                        format!(
                            "flow attribution hook `{name}` called outside the kernel: \
                             only the kernel may attribute arrivals, drops and deliveries, \
                             or the per-flow ledger diverges from the aggregate books"
                        ),
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
        FlowDiscipline.check(
            &FileInfo::classify(path).expect("classifiable"),
            &tokenize(src).toks,
        )
    }

    #[test]
    fn flags_registry_outside_owner_files() {
        let f = run(
            "crates/bench/src/lib.rs",
            "let mut reg = FlowRegistry::new(8); reg.per_flow();",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, "FlowRegistry");
    }

    #[test]
    fn flags_hooks_outside_the_kernel() {
        let f = run(
            "crates/bench/src/bin/figures.rs",
            "stats.record_arrival(t, k); stats.record_delivery(&p, t, fr, true); s.record_drop_for(r, k);",
        );
        let snippets: Vec<&str> = f.iter().map(|r| r.snippet.as_str()).collect();
        assert_eq!(
            snippets,
            [".record_arrival(", ".record_delivery(", ".record_drop_for("]
        );
    }

    #[test]
    fn owner_files_and_kernel_callers_are_allowed() {
        for path in REGISTRY_FILES {
            assert!(
                run(path, "let r = FlowRegistry::new(128);").is_empty(),
                "{path} owns the registry"
            );
        }
        assert!(
            run(
                "crates/kernel/src/router/forwarding.rs",
                "self.stats.record_drop_for(DropReason::NoRoute, flow);",
            )
            .is_empty(),
            "kernel modules may call the hooks"
        );
    }

    #[test]
    fn unrelated_idents_do_not_match() {
        let f = run(
            "crates/bench/src/lib.rs",
            "let record_arrival = 3; registry.per_flow(); r.overflow_arrivals();",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn current_sources_respect_the_boundary() {
        // Self-check against the live tree: nothing outside the owner
        // files names the registry, nothing outside the kernel calls the
        // attribution hooks.
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
                        assert!(f.is_empty(), "{rel} breaks flow discipline: {f:?}");
                    }
                }
            }
        }
    }
}
