//! Rule `interrupt-discipline`: interrupts only initiate polling.
//!
//! The paper's central fix (§6.2) is that interrupt handlers do no
//! protocol work: they mask the device, mark it pending, and wake the
//! polling thread — nothing else. The interrupt-context module
//! (`machine::intr`) therefore must not reference upper-layer packet
//! processing: IP input, queue insertion, router forwarding, or the
//! screend path. One call from interrupt context into those layers is
//! how the unmodified kernel livelocks.

use crate::files::FileInfo;
use crate::tokenizer::Tok;

use super::{is_path_sep, raw, RawFinding, Rule};

/// Modules that run in (or directly service) interrupt context.
const INTERRUPT_CONTEXT_FILES: &[&str] = &["crates/machine/src/intr.rs"];

/// Upper-layer identifiers interrupt context must never reference.
const UPPER_LAYER_IDENTS: &[&str] = &["ipv4", "livelock_net", "forwarding", "screend", "ipintrq"];

pub struct InterruptDiscipline;

impl Rule for InterruptDiscipline {
    fn id(&self) -> &'static str {
        "interrupt-discipline"
    }

    fn exit_code(&self) -> i32 {
        12
    }

    fn exempt_test_code(&self) -> bool {
        // Tests of these modules exercise the same boundary; a test that
        // wires protocol work into the handler would "pass" its way into
        // exactly the coupling the rule forbids.
        false
    }

    fn describe(&self) -> &'static str {
        "interrupt-context modules may not call into upper-layer packet processing"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        if !INTERRUPT_CONTEXT_FILES.contains(&file.rel_path.as_str()) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if let Some(&name) = UPPER_LAYER_IDENTS.iter().find(|n| t.is_ident(n)) {
                out.push(raw(
                    toks,
                    i,
                    name,
                    format!(
                        "interrupt context references upper layer `{name}`: handlers may \
                         only mask the device, mark it pending, and wake the poller (§6.2)"
                    ),
                ));
                continue;
            }
            // `queue` as a *path segment* (net::queue::…, queue::PacketQueue)
            // is upper-layer; a local variable named `queue` is not.
            if t.is_ident("queue")
                && (is_path_sep(toks, i + 1) || (i >= 2 && is_path_sep(toks, i - 2)))
            {
                out.push(raw(
                    toks,
                    i,
                    "queue::",
                    "interrupt context references the packet-queue layer: enqueueing is \
                     the poller's job, not the handler's (§6.2)",
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
        InterruptDiscipline.check(
            &FileInfo::classify(path).expect("classifiable"),
            &tokenize(src).toks,
        )
    }

    #[test]
    fn flags_upper_layer_calls_in_interrupt_modules() {
        let f = run(
            "crates/machine/src/intr.rs",
            "use livelock_net::ipv4::Ipv4Header; fn h() { forwarding::forward(p); }",
        );
        let snippets: Vec<&str> = f.iter().map(|r| r.snippet.as_str()).collect();
        assert!(snippets.contains(&"livelock_net"));
        assert!(snippets.contains(&"ipv4"));
        assert!(snippets.contains(&"forwarding"));
    }

    #[test]
    fn queue_as_path_segment_is_flagged_but_variable_is_not() {
        let bad = run("crates/machine/src/intr.rs", "let q = queue::PacketQueue::new();");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].snippet, "queue::");
        let ok = run("crates/machine/src/intr.rs", "let queue = Vec::new(); queue.push(1);");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn other_files_are_out_of_scope() {
        assert!(run(
            "crates/kernel/src/router/forwarding.rs",
            "use livelock_net::ipv4::Ipv4Header;"
        )
        .is_empty());
    }

    #[test]
    fn current_interrupt_modules_mention_nothing_upper_layer() {
        // Self-check against the real sources this rule guards.
        for path in super::INTERRUPT_CONTEXT_FILES {
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("workspace root")
                .to_path_buf();
            let src = std::fs::read_to_string(root.join(path)).expect("interrupt module readable");
            assert!(run(path, &src).is_empty(), "{path} violates interrupt discipline");
        }
    }
}
