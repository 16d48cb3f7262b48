//! Autofix: mechanical rewrites for the findings that have exactly one
//! right answer.
//!
//! `simlint --fix` applies one fixer, **suppression normalization**:
//! well-formed but oddly-spaced `simlint:` directives are rewritten to
//! the canonical `// simlint: allow(rule): reason`. Malformed directives
//! (missing reason, unknown rule) are *not* touched: inventing a
//! justification is exactly what the bad-suppression rule exists to
//! prevent.
//!
//! Fixes are computed as character-span edits against the lexer's
//! comment spans, so directive text inside a string can never be
//! rewritten by accident. Running the fixer twice is a no-op by
//! construction: a canonical directive round-trips to itself.
//! `--fix --dry-run` prints the would-be diff and exits with
//! [`crate::registry::codes::SIMLINT_FIXABLE`] if any edit is pending —
//! CI uses that as the "the tree is fully fixed" gate.

use std::io;
use std::path::Path;

use crate::files;
use crate::rules;
use crate::suppress;
use crate::tokenizer;

/// One span rewrite, in character offsets into the source.
#[derive(Clone, Debug)]
pub struct Edit {
    /// Start character offset (inclusive).
    pub start: usize,
    /// End character offset (exclusive).
    pub end: usize,
    /// Replacement text.
    pub replacement: String,
    /// What this edit does, one line (for the dry-run report).
    pub note: String,
}

/// Computes every fix for one file. Edits are returned sorted and
/// non-overlapping (one per directive comment, in source order).
pub fn fixes_for(src: &str) -> Vec<Edit> {
    let lexed = tokenizer::tokenize(src);
    let mut edits = Vec::new();
    let ids = rules::rule_ids();
    for c in &lexed.lint_comments {
        if !c.line_comment {
            continue;
        }
        let Some(at) = c.text.find("simlint:") else {
            continue;
        };
        if !c.text[..at].trim().is_empty() {
            // Prose-prefixed mention; not a directive to normalize.
            continue;
        }
        let parsed = suppress::parse(std::slice::from_ref(c), &ids);
        let Some(s) = parsed.allows.first() else {
            continue;
        };
        let canonical = format!("// simlint: allow({}): {}", s.rule, s.reason);
        let current = slice_chars(src, c.span.0, c.span.1);
        if current != canonical {
            edits.push(Edit {
                start: c.span.0,
                end: c.span.1,
                replacement: canonical,
                note: format!("normalize simlint directive for `{}`", s.rule),
            });
        }
    }
    edits
}

/// The source text between two character offsets.
fn slice_chars(src: &str, start: usize, end: usize) -> String {
    src.chars().take(end).skip(start).collect()
}

/// Applies sorted, non-overlapping character-span edits.
pub fn apply(src: &str, edits: &[Edit]) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut at = 0usize;
    for e in edits {
        out.extend(&chars[at..e.start.min(chars.len())]);
        out.push_str(&e.replacement);
        at = e.end.min(chars.len());
    }
    out.extend(&chars[at..]);
    out
}

/// The outcome of a workspace fix run.
#[derive(Debug, Default)]
pub struct FixOutcome {
    /// `(file, edit count)` per file with pending or applied fixes.
    pub files: Vec<(String, usize)>,
    /// The (would-be) changes, as a minimal line diff.
    pub diff: String,
}

impl FixOutcome {
    /// Total number of edits across files.
    pub fn edit_count(&self) -> usize {
        self.files.iter().map(|(_, n)| n).sum()
    }
}

/// Fixes the whole workspace. With `dry_run` nothing is written; the
/// diff describes what `--fix` would change.
pub fn fix_workspace(root: &Path, dry_run: bool) -> io::Result<FixOutcome> {
    let sources = files::scan_workspace(root)?;
    let mut out = FixOutcome::default();
    for (info, src) in &sources {
        let edits = fixes_for(src);
        if edits.is_empty() {
            continue;
        }
        let fixed = apply(src, &edits);
        out.diff.push_str(&line_diff(&info.rel_path, src, &fixed));
        out.files.push((info.rel_path.clone(), edits.len()));
        if !dry_run {
            std::fs::write(root.join(&info.rel_path), &fixed)?;
        }
    }
    Ok(out)
}

/// A minimal line diff: common prefix and suffix trimmed, the changed
/// middle shown as `-`/`+` lines with 1-based line numbers.
fn line_diff(file: &str, old: &str, new: &str) -> String {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let mut lo = 0usize;
    while lo < a.len() && lo < b.len() && a[lo] == b[lo] {
        lo += 1;
    }
    let mut hi = 0usize;
    while hi < a.len() - lo && hi < b.len() - lo && a[a.len() - 1 - hi] == b[b.len() - 1 - hi] {
        hi += 1;
    }
    let mut out = format!("--- {file}\n");
    for (i, line) in a[lo..a.len() - hi].iter().enumerate() {
        out.push_str(&format!("-{:>5} {line}\n", lo + i + 1));
    }
    for (i, line) in b[lo..b.len() - hi].iter().enumerate() {
        out.push_str(&format!("+{:>5} {line}\n", lo + i + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(src: &str) -> String {
        apply(src, &fixes_for(src))
    }

    #[test]
    fn directive_text_in_strings_is_untouched() {
        let src = "let s = \"//simlint:allow(panic-freedom):ok\";";
        assert_eq!(fix(src), src);
    }

    #[test]
    fn suppressions_normalize_to_canonical_spacing() {
        let src = "//simlint:   allow( panic-freedom )  :  caller checked\nx.unwrap();";
        let got = fix(src);
        assert_eq!(
            got,
            "// simlint: allow(panic-freedom): caller checked\nx.unwrap();"
        );
    }

    #[test]
    fn malformed_and_prose_directives_are_left_alone() {
        let src = "// simlint: allow(panic-freedom)\nfn f() {}";
        assert_eq!(fix(src), src, "no invented reason");
        let src = "// docs may mention simlint: allow(panic-freedom): like this\nfn f() {}";
        assert_eq!(fix(src), src, "prose prefix");
    }

    #[test]
    fn fixing_is_idempotent() {
        let src = "let c = q;\n//simlint: allow(panic-freedom):ok\nx.unwrap();";
        let once = fix(src);
        assert_ne!(once, src);
        assert_eq!(fix(&once), once);
        assert!(fixes_for(&once).is_empty());
    }

    #[test]
    fn line_diff_trims_common_context() {
        let d = line_diff("f.rs", "a\nb\nc\n", "a\nB\nc\n");
        assert_eq!(d, "--- f.rs\n-    2 b\n+    2 B\n");
    }
}
