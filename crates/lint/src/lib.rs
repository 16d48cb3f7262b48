//! The workspace's unit discipline: a binding named for a time unit is
//! declared with that unit's type.
//!
//! The simulator crosses cycles, nanoseconds, microseconds and
//! milliseconds everywhere, and a mixed base corrupts a figure that
//! still plots plausibly. `livelock_sim`'s `Cycles` and `Nanos` make the
//! mix a type error — `Cycles + Nanos`, `Cycles < Nanos` and
//! `charge(_, Nanos)` do not compile — but only for values that travel
//! as the newtypes. This check closes that gap at the declaration: a
//! struct field, fn parameter or typed `let` whose name is or ends in a
//! time unit (`_cycles`, `_ns`, `_us`, `_ms`, …, or the bare word) may
//! not be declared a bare number (`u64`, `f64`, …). rustc checks every
//! operator after that.
//!
//! The scan is textual: comments and string/char literals are blanked,
//! every item under a `#[cfg(test)]`-style or `#[test]` attribute is cut
//! (a test may build fixtures any way it likes), and `name : type` is
//! matched across whitespace and newlines. `name: u64::MAX` in a struct
//! literal is a value, not a type, and does not match.
//!
//! Two places are out of scope, each for a reason:
//!
//! * `crates/sim/src/time.rs` is where raw numbers enter the newtypes
//!   (`Nanos::from_micros(us: u64)`, `Freq::cycles_from_millis(ms: u64)`):
//!   the named gates have to take the bare number.
//! * `crates/core/` is dependency-free by design, so it has no `Cycles`
//!   to take, and it works in one base only (cycles).
//!
//! Sanctioned exceptions are [`ALLOWED`]; the tier-1 test
//! `tests/seeded_violations.rs::pristine_copy_is_clean` fails on any
//! other finding, and on an entry that no longer fires.

pub mod baseline;

use std::{fs, io, path::Path};

/// Name suffixes that declare a time base (`deadline_ns`, or just `ns`).
const UNIT_SUFFIXES: &[&str] = &["_cycles", "_cy", "_ns", "_nanos", "_us", "_micros", "_ms", "_millis", "_secs"];

/// The types a unit-named binding may not be declared with.
const BARE_NUMERIC: &[&str] = &["u64", "i64", "u32", "i32", "usize", "f64", "f32"];

/// The sanctioned exceptions, as (workspace-relative file, binding).
pub const ALLOWED: &[(&str, &str)] = &[
    // `FaultKind::ClockJitter`'s skew is a signed offset, and `Cycles` is
    // unsigned and saturating.
    ("crates/machine/src/fault.rs", "skew_cycles"),
];

/// One unit-named binding declared as a bare number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the binding's name.
    pub line: usize,
    /// The binding's name.
    pub name: String,
    /// The bare numeric type it is declared with.
    pub ty: String,
}

/// The result of checking the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Findings that fail the check.
    pub fresh: Vec<Finding>,
    /// Findings that are [`ALLOWED`] exceptions.
    pub suppressed: Vec<Finding>,
    /// Number of files walked (out-of-scope files included).
    pub files_scanned: usize,
}

/// Checks every `.rs` file under `root`'s `crates/*/{src,tests}` (the
/// vendored `proptest` stand-in skipped), `tests/` and `examples/`, in
/// path order. The [`baseline::Baseline`] is empty and absorbs nothing.
pub fn lint_workspace(root: &Path, _baseline: &baseline::Baseline) -> io::Result<WorkspaceLint> {
    let mut dirs = vec![root.join("tests"), root.join("examples")];
    for krate in fs::read_dir(root.join("crates"))? {
        let krate = krate?.path();
        if !krate.ends_with("proptest") {
            dirs.extend([krate.join("src"), krate.join("tests")]);
        }
    }
    let mut paths = Vec::new();
    while let Some(dir) = dirs.pop() {
        // A crate without `tests/` is no error.
        for entry in fs::read_dir(&dir).into_iter().flatten() {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut out = WorkspaceLint { files_scanned: paths.len(), ..WorkspaceLint::default() };
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        for f in lint_source(&rel, &fs::read_to_string(&path)?) {
            let allowed = ALLOWED.contains(&(f.file.as_str(), f.name.as_str()));
            if allowed { &mut out.suppressed } else { &mut out.fresh }.push(f);
        }
    }
    Ok(out)
}

/// Checks one source text as if it lived at `rel_path`, [`ALLOWED`]
/// bindings included.
fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    if rel_path == "crates/sim/src/time.rs" || rel_path.starts_with("crates/core/") {
        return Vec::new();
    }
    let code = code_of(src);
    // Every single `:` (a `::` leaves an empty name or type), with the
    // word on each side.
    let declaration = |(i, _): (usize, &str)| {
        let (before, after) = (code[..i].trim_end(), code[i + 1..].trim_start());
        let name = &before[before.rfind(|c| !is_word(c)).map_or(0, |p| p + 1)..];
        let ty = &after[..after.find(|c| !is_word(c)).unwrap_or(after.len())];
        let bare = BARE_NUMERIC.contains(&ty) && !after[ty.len()..].trim_start().starts_with("::");
        (bare && UNIT_SUFFIXES.iter().any(|s| name == &s[1..] || name.ends_with(s))).then(|| Finding {
            file: rel_path.to_string(),
            line: 1 + before[..before.len() - name.len()].matches('\n').count(),
            name: name.to_string(),
            ty: ty.to_string(),
        })
    };
    code.match_indices(':').filter_map(declaration).collect()
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The index just past the first `pat` at or after `from`, or the end.
fn past(b: &[u8], from: usize, pat: &[u8]) -> usize {
    let at = b.get(from..).and_then(|t| t.windows(pat.len()).position(|w| w == pat));
    at.map_or(b.len(), |p| from + p + pat.len())
}

/// Overwrites every byte of `span` but newlines with a space.
fn blank(span: &mut [u8]) {
    span.iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
}

/// `src` with every comment, every string, byte-string and char literal,
/// and every test item blanked, lines kept.
///
/// A `'` opens a char literal only when an escape, or one char and a
/// closing `'`, follows; otherwise it begins a lifetime or a label. A
/// test item carries `#[test]` or a `cfg` naming `test` and no `not`
/// (`cfg(not(test))` guards production code); it runs, past stacked
/// attributes, to its first `;` outside brackets or to the `}` closing
/// its first brace block.
fn code_of(src: &str) -> String {
    let mut b = src.as_bytes().to_vec();
    let mut i = 0;
    while i < b.len() {
        let end = match (b[i], b.get(i + 1)) {
            (b'/', Some(b'/')) => past(&b, i, b"\n"),
            (b'/', Some(b'*')) => {
                let (mut j, mut depth) = (i + 2, 1);
                while depth > 0 && j < b.len() {
                    let (open, close) = (b[j..].starts_with(b"/*"), b[j..].starts_with(b"*/"));
                    depth += i32::from(open) - i32::from(close);
                    j += if open || close { 2 } else { 1 };
                }
                j
            }
            // A raw string is `r`, `br` or `cr`, hashes and a quote; it
            // ends at a quote and as many hashes.
            (b'"', _) => {
                let hashes = b[..i].iter().rev().take_while(|&&c| c == b'#').count();
                let prefix = b[..i - hashes].rsplit(|&c| !is_word(char::from(c))).next();
                if matches!(prefix, Some(b"r" | b"br" | b"cr")) {
                    past(&b, i + 1, &[&b"\""[..], &vec![b'#'; hashes]].concat())
                } else {
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'"' {
                        j += 1 + usize::from(b[j] == b'\\');
                    }
                    j + 1
                }
            }
            (b'\'', Some(b'\\')) => past(&b, i + 3, b"'"),
            (b'\'', _) => match src[i + 1..].chars().next().map(char::len_utf8) {
                Some(n) if b.get(i + 1 + n) == Some(&b'\'') => i + 2 + n,
                _ => i + 1,
            },
            _ => i,
        };
        let end = end.min(b.len());
        blank(&mut b[i..end]);
        i = end.max(i + 1);
    }
    let mut i = 0;
    while let Some(at) = b[i..].windows(2).position(|w| w == b"#[").map(|p| i + p) {
        i = past(&b, at, b"]");
        let attr = String::from_utf8_lossy(&b[at..i]);
        let words: Vec<&str> = attr.split(|c| !is_word(c)).filter(|w| !w.is_empty()).collect();
        if words == ["test"] || words.first() == Some(&"cfg") && words.contains(&"test") && !words.contains(&"not") {
            let mut depth = 0;
            while let Some(&c) = b.get(i) {
                i += 1;
                depth += i32::from(b"([{".contains(&c)) - i32::from(b")]}".contains(&c));
                if depth <= 0 && (c == b';' || c == b'}') {
                    break;
                }
            }
            blank(&mut b[at..i]);
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const KERNEL: &str = "crates/kernel/src/gate.rs";
    pub(crate) const BIN: &str = "crates/bench/src/bin/figures.rs";

    /// Checks each `(path, source, findings)` row, a finding written
    /// `line name: type`; [`ALLOWED`] findings are left out.
    pub(crate) fn check(rows: &[(&str, &str, &[&str])]) {
        for &(path, src, want) in rows {
            let got: Vec<String> = lint_source(path, src)
                .into_iter()
                .filter(|f| !ALLOWED.contains(&(f.file.as_str(), f.name.as_str())))
                .map(|f| format!("{} {}: {}", f.line, f.name, f.ty))
                .collect();
            assert_eq!(got, want, "{path}: {src}");
        }
    }

    /// The allow-list names a file and a binding; a comment allows nothing.
    #[test]
    fn suppression_with_reason_silences_one_line() {
        check(&[
            ("crates/machine/src/fault.rs", "struct S { skew_cycles: i64, lag_ns: u64 }", &["1 lag_ns: u64"]),
            (KERNEL, "struct S {\n    // simlint: allow(unit-discipline): a signed offset\n    skew_cycles: i64,\n}", &["3 skew_cycles: i64"]),
        ]);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let t_ns: u64 = 0; }\n}\nfn after(d_us: f64) {}";
        check(&[(KERNEL, src, &["7 d_us: f64"])]);
    }
}

/// The rule itself: what it flags and the two places out of its scope.
#[cfg(test)]
mod rules {
    mod units {
        mod tests {
            use crate::tests::{check, KERNEL};

            #[test]
            fn unit_named_declarations_need_the_newtype() {
                check(&[
                    (KERNEL, "struct S { x_ns: u64 }", &["1 x_ns: u64"]),
                    (KERNEL, "fn f(t_cycles: u64) {}", &["1 t_cycles: u64"]),
                    (KERNEL, "fn f() { let d_us: f64 = 1.0; }", &["1 d_us: f64"]),
                    (KERNEL, "fn f(t_ns: u64, mut ms: i64) {}", &["1 t_ns: u64", "1 ms: i64"]),
                    (KERNEL, "fn f(\n    t_ns:\n    u64,\n) {}", &["2 t_ns: u64"]),
                    (KERNEL, "\npub fn seeded_raw_time(t_ns: u64) -> u64 { t_ns }\n", &["2 t_ns: u64"]),
                    (KERNEL, "struct S { x_ns: Nanos }", &[]),
                    (KERNEL, "fn f(t: Cycles, rate_hz: f64, timeout_ticks: u32) {}", &[]),
                    (KERNEL, "fn f() { let s = S { x_ns: u64::MAX }; let bonus = 1u64; }", &[]),
                    ("crates/core/src/cycle_limit.rs", "fn new(period_cycles: u64) {}", &[]),
                    ("crates/sim/src/time.rs", "fn from_micros(us: u64) {}", &[]),
                ]);
            }
        }
    }
}

/// Comments and string, byte-string and char literals are blanked;
/// lifetimes and labels are not.
#[cfg(test)]
mod tokenizer {
    mod tests {
        use crate::tests::{check, BIN};

        #[test]
        fn skips_line_and_block_comments() {
            check(&[
                (BIN, "// fn f(t_ns: u64) {} struct S { deadline_cycles: u64 }\nfn g() {}", &[]),
                (BIN, "//! inner doc: t_ns: u64\n/// ```\n/// let delay_us: f64 = 1.0;\n/// ```\nfn clean() {}", &[]),
                (BIN, "/* block: fn g(t_cycles: u64) {}\n   still */ fn after(t_ns: u64) {}", &["2 t_ns: u64"]),
            ]);
        }

        #[test]
        fn skips_string_contents() {
            let src = "fn clean() {\n    let a = \"fn f(t_ns: u64) in a string\";\n    let c = \"let d_us: f64 = 1.0; \\\"quoted\\\"\";\n}";
            check(&[(BIN, src, &[])]);
        }

        #[test]
        fn skips_raw_strings_with_hashes() {
            check(&[(BIN, "let b = r#\"struct S { x_ms: u32 } \" still \"#; fn g(t_ns: u64) {}", &["1 t_ns: u64"])]);
        }

        #[test]
        fn lifetimes_are_not_char_literals() {
            check(&[(BIN, "fn f<'a, 'b>(x: &'a str, y: &'_ [u8], t_ns: u64) {}", &["1 t_ns: u64"])]);
        }

        #[test]
        fn escaped_char_literals() {
            check(&[(BIN, r"let b = '\\'; let n = '\n'; fn g(t_us: u32) {}", &["1 t_us: u32"])]);
        }

        #[test]
        fn line_numbers_advance() {
            let src = "fn a(x_ns: u64) {}\n\nfn b(\n    y_ms: u32) {}\n/*\n*/ fn c(z_us: f64) {}";
            check(&[(BIN, src, &["1 x_ns: u64", "4 y_ms: u32", "6 z_us: f64"])]);
        }

        #[test]
        fn byte_strings_and_raw_idents() {
            let src = r##"let a = b"t_ns: u64"; let r#fn = 1; let c = b'x'; let s = br#"x_ms: u32"#; fn g(d_ns: u64) {}"##;
            check(&[(BIN, src, &["1 d_ns: u64"])]);
        }

        #[test]
        fn multiline_strings_track_lines() {
            check(&[(BIN, "let s = \"line\nbreak\";\nfn f(t_ns: u64) {}", &["3 t_ns: u64"])]);
        }

        #[test]
        fn escaped_quote_char_literal_does_not_desync() {
            check(&[(BIN, r"let q = '\''; let d_ns: u64 = 0;", &["1 d_ns: u64"])]);
        }

        #[test]
        fn multichar_escapes_in_char_literals() {
            check(&[(BIN, r"let e = '\u{1F600}'; let h = '\x41'; let m = '—'; fn g(t_us: u32) {}", &["1 t_us: u32"])]);
        }

        #[test]
        fn lifetimes_chars_and_labels_mixed_on_one_line() {
            let src = "fn f<'a>(x: &'a str, t_ns: u64) -> char { 'l: loop { break 'l; } if true { 'b' } else { 'a' } }";
            check(&[(BIN, src, &["1 t_ns: u64"])]);
        }

        #[test]
        fn nested_block_comments_to_depth_three() {
            check(&[
                (BIN, "/* nested /* h_us: u32 */ still */ fn after(t_ns: u64) {}", &["1 t_ns: u64"]),
                (BIN, "fn f(a_ns: u64) {} /* 1 /* 2 /* 3 */ 2 */ 1 */ fn g(b_ns: u64) {} /**/ /***/\n/* open /* t_ns: u64", &["1 a_ns: u64", "1 b_ns: u64"]),
            ]);
        }
    }
}

/// A test item carries `#[test]` or a `cfg` naming `test` and no `not`,
/// and runs, past stacked attributes, to its first `;` outside brackets
/// or the `}` closing its first brace block.
#[cfg(test)]
mod regions {
    mod tests {
        use crate::tests::{check, KERNEL};

        #[test]
        fn cfg_test_mod_is_a_region() {
            let src = "#[cfg(test)]\nmod tests { struct S { x_ns: u64 } fn f(t_cycles: u64) { let d_us: f64 = 1.0; } }\nfn prod(d_ms: u32) {}";
            check(&[(KERNEL, src, &["3 d_ms: u32"])]);
        }

        #[test]
        fn test_fn_attribute_is_a_region() {
            check(&[(KERNEL, "#[test]\nfn check(t_ns: u64) {}\nfn prod(d_ms: u32) {}", &["3 d_ms: u32"])]);
        }

        #[test]
        fn cfg_any_with_test_counts() {
            check(&[(KERNEL, "#[cfg(any(test, doctest))] mod m { fn f(t_ns: u64) {} }", &[])]);
        }

        #[test]
        fn cfg_feature_is_not_a_region() {
            check(&[
                (KERNEL, "#[cfg(feature = \"smoketest\")] fn f(t_ns: u64) {}", &["1 t_ns: u64"]),
                (KERNEL, "#[cfg(not(test))] fn f(t_ns: u64) {}", &["1 t_ns: u64"]),
            ]);
        }

        #[test]
        fn semicolon_items_and_tricky_depths() {
            let src = "#[cfg(test)] use std::collections::HashMap;\nfn prod(x: [u8; 2], t_ns: u64) {}";
            check(&[(KERNEL, src, &["2 t_ns: u64"])]);
        }

        #[test]
        fn stacked_attributes_extend_to_item() {
            let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f(t_ns: u64) {} }\nfn after(d_us: f64) {}";
            check(&[(KERNEL, src, &["4 d_us: f64"])]);
        }
    }
}

/// The walk: `crates/*/{src,tests}` but `proptest`, `tests/` and
/// `examples/`, `.rs` files only, in path order.
#[cfg(test)]
mod files {
    mod tests {
        use crate::{baseline::Baseline, lint_workspace};
        use std::fs;

        #[test]
        fn vendored_is_skipped_and_the_linter_lints_itself() {
            let root = std::env::temp_dir().join(format!("lint-walk-{}", std::process::id()));
            for rel in [
                "tests/w.rs",
                "examples/e.rs",
                "crates/proptest/src/lib.rs",
                "crates/lint/src/lib.rs",
                "crates/kernel/src/a/b.rs",
                "crates/kernel/src/notes.txt",
                "crates/kernel/tests/t.rs",
                "crates/kernel/benches/b.rs",
                "scripts/s.rs",
            ] {
                let path = root.join(rel);
                fs::create_dir_all(path.parent().expect("a parent")).expect("scratch dir");
                fs::write(path, "fn f(t_ns: u64) {}\n").expect("scratch file");
            }
            let ws = lint_workspace(&root, &Baseline);
            fs::remove_dir_all(&root).expect("scratch tree removed");
            let ws = ws.expect("scratch tree readable");
            let files: Vec<&str> = ws.fresh.iter().map(|f| f.file.as_str()).collect();
            let want = ["crates/kernel/src/a/b.rs", "crates/kernel/tests/t.rs", "crates/lint/src/lib.rs", "examples/e.rs", "tests/w.rs"];
            assert_eq!(files, want);
            assert_eq!(ws.files_scanned, want.len());
        }
    }
}
