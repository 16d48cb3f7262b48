//! unit-discipline: a binding named for a time unit is declared with
//! that unit's type.
//!
//! The simulator crosses cycles, nanoseconds, microseconds and
//! milliseconds everywhere, and a mixed base corrupts a figure that
//! still plots plausibly. `livelock_sim`'s `Cycles` and `Nanos` make the
//! mix a type error — `Cycles + Nanos`, `Cycles < Nanos` and
//! `charge(_, Nanos)` do not compile — but only for values that travel
//! as the newtypes. This rule closes that gap at the declaration: a
//! struct field, fn parameter or typed `let` whose name carries a
//! time-unit suffix may not have a bare numeric primitive as its type.
//! rustc checks every operator after that.
//!
//! Two places are out of scope, each for a reason:
//!
//! * `crates/sim/src/time.rs` is where raw numbers enter the newtypes
//!   (`Nanos::from_micros(us: u64)`, `Freq::cycles_from_millis(ms: u64)`):
//!   the named gates have to take the bare number.
//! * `crates/core/` is dependency-free by design, so it has no `Cycles`
//!   to take, and it works in one base only (cycles).

use crate::files::FileInfo;
use crate::rules::{is_path_sep, raw, RawFinding, Rule};
use crate::tokenizer::{Tok, TokKind};

/// The unit-named-declaration rule.
pub struct UnitDiscipline;

/// Exit code for unit-discipline findings.
pub const EXIT_UNIT_DISCIPLINE: i32 = 20;

/// Name suffixes that declare a time base (`deadline_ns`, or just `ns`).
const UNIT_SUFFIXES: &[&str] = &[
    "_cycles", "_cy", "_ns", "_nanos", "_us", "_micros", "_ms", "_millis", "_secs",
];

/// The types a unit-named binding may not be declared with.
const BARE_NUMERIC: &[&str] = &["u64", "i64", "u32", "i32", "usize", "f64", "f32"];

fn names_a_unit(name: &str) -> bool {
    UNIT_SUFFIXES
        .iter()
        .any(|s| name == &s[1..] || name.ends_with(s))
}

impl Rule for UnitDiscipline {
    fn id(&self) -> &'static str {
        "unit-discipline"
    }

    fn exit_code(&self) -> i32 {
        EXIT_UNIT_DISCIPLINE
    }

    fn exempt_test_code(&self) -> bool {
        true
    }

    fn describe(&self) -> &'static str {
        "a binding named for a time unit (_cycles/_ns/_us/_ms) is declared Cycles/Nanos, not a bare number"
    }

    fn check(&self, file: &FileInfo, toks: &[Tok]) -> Vec<RawFinding> {
        if file.rel_path == "crates/sim/src/time.rs" || file.rel_path.starts_with("crates/core/") {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, w) in toks.windows(3).enumerate() {
            let (name, ty) = (&w[0], &w[2]);
            // `name: u64::MAX` in a struct literal is a value, not a type.
            if w[1].is_punct(':')
                && BARE_NUMERIC.contains(&ty.text.as_str())
                && !is_path_sep(toks, i + 3)
                && name.kind == TokKind::Ident
                && names_a_unit(&name.text)
            {
                out.push(raw(
                    toks,
                    i,
                    format!("{}: {}", name.text, ty.text),
                    format!(
                        "`{}` is named for a time unit but declared `{}`: declare it `Cycles` or \
                         `Nanos` (livelock_sim) so rustc checks every operator it meets",
                        name.text, ty.text
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::all_rules;

    #[test]
    fn unit_named_declarations_need_the_newtype() {
        const KERNEL: &str = "crates/kernel/src/gate.rs";
        for (path, src, want) in [
            (KERNEL, "struct S { x_ns: u64 }", vec!["x_ns: u64"]),
            (KERNEL, "fn f(t_cycles: u64) {}", vec!["t_cycles: u64"]),
            (KERNEL, "fn f() { let d_us: f64 = 1.0; }", vec!["d_us: f64"]),
            (KERNEL, "fn f(t_ns: u64, mut ms: i64) {}", vec!["t_ns: u64", "ms: i64"]),
            (KERNEL, "struct S { x_ns: Nanos }", vec![]),
            (KERNEL, "fn f(t: Cycles, rate_hz: f64, timeout_ticks: u32) {}", vec![]),
            (KERNEL, "fn f() { let s = S { x_ns: u64::MAX }; let bonus = 1u64; }", vec![]),
            (
                KERNEL,
                "#[cfg(test)]\nmod tests { struct S { x_ns: u64 } fn f(t_cycles: u64) { let d_us: f64 = 1.0; } }",
                vec![],
            ),
            ("crates/core/src/cycle_limit.rs", "fn new(period_cycles: u64) {}", vec![]),
            ("crates/sim/src/time.rs", "fn from_micros(us: u64) {}", vec![]),
            (
                KERNEL,
                "struct S {\n    // simlint: allow(unit-discipline): a signed offset\n    skew_cycles: i64,\n}",
                vec![],
            ),
        ] {
            let info = FileInfo::classify(path).expect("classifiable");
            let fl = crate::lint_source(&info, src, &all_rules());
            let got: Vec<&str> = fl.active.iter().map(|f| f.snippet.as_str()).collect();
            assert_eq!(got, want, "{path}: {src}");
            assert!(fl.active.iter().all(|f| f.rule == "unit-discipline"), "{:?}", fl.active);
        }
    }
}
