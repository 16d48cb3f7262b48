//! Detection of `#[cfg(test)]` / `#[test]` regions in a token stream.
//!
//! Every rule exempts test code: a test may construct fixtures in ways
//! production code must not. A "test region" is the token span of any item carrying
//! a `#[cfg(test)]`-style or `#[test]` attribute — usually a whole
//! `mod tests { … }` block.

use crate::tokenizer::Tok;

/// Half-open token-index ranges covered by test-only code.
#[derive(Clone, Debug, Default)]
pub struct TestRegions {
    ranges: Vec<(usize, usize)>,
}

impl TestRegions {
    /// Returns `true` when token index `i` falls inside a test region.
    pub fn contains(&self, i: usize) -> bool {
        self.ranges.iter().any(|&(s, e)| s <= i && i < e)
    }
}

/// Computes the test regions of a token stream.
pub fn test_regions(toks: &[Tok]) -> TestRegions {
    let mut regions = TestRegions::default();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching_bracket(toks, i + 1) {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&toks[i + 2..attr_end]) {
                if let Some(item_end) = item_end(toks, attr_end + 1) {
                    regions.ranges.push((i, item_end + 1));
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Does the attribute body mark test-only code? Matches `test`,
/// `cfg(test)`, and `cfg(any(test, …))`; does not match
/// `cfg(feature = "…")` or strings (strings never lex into tokens).
fn attr_is_test(body: &[Tok]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        // `cfg(not(test))` guards *production* code: the conservative
        // reading of any `not` in the predicate is "not a test region".
        Some(t) if t.is_ident("cfg") => {
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"))
        }
        _ => false,
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the last token of the item starting at `start` (skipping any
/// further attributes): either a top-level `;` or the `}` closing the
/// item's brace block. Depth is tracked over `()`, `[]`, and `{}` so a
/// `;` inside `[u8; 2]` or a nested block never ends the item early.
fn item_end(toks: &[Tok], mut start: usize) -> Option<usize> {
    // Skip stacked attributes: #[cfg(test)] #[allow(dead_code)] mod m {…}
    while toks.get(start).is_some_and(|t| t.is_punct('#'))
        && toks.get(start + 1).is_some_and(|t| t.is_punct('['))
    {
        start = matching_bracket(toks, start + 1)? + 1;
    }
    let mut depth = 0i32;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return Some(i);
        } else if t.is_punct('{') && depth == 0 {
            // Match the brace block.
            let mut braces = 0i32;
            for (j, u) in toks.iter().enumerate().skip(i) {
                if u.is_punct('{') {
                    braces += 1;
                } else if u.is_punct('}') {
                    braces -= 1;
                    if braces == 0 {
                        return Some(j);
                    }
                }
            }
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn regions_of(src: &str) -> (Vec<Tok>, TestRegions) {
        let lexed = tokenize(src);
        let r = test_regions(&lexed.toks);
        (lexed.toks, r)
    }

    fn ident_in_test(toks: &[Tok], regions: &TestRegions, name: &str) -> bool {
        let i = toks.iter().position(|t| t.is_ident(name)).expect("ident present");
        regions.contains(i)
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn inner() { helper(); } }\nfn after() {}";
        let (toks, r) = regions_of(src);
        assert_eq!(r.ranges.len(), 1);
        assert!(ident_in_test(&toks, &r, "helper"));
        assert!(!ident_in_test(&toks, &r, "prod"));
        assert!(!ident_in_test(&toks, &r, "after"));
    }

    #[test]
    fn test_fn_attribute_is_a_region() {
        let src = "#[test]\nfn check() { probe(); }\nfn prod() { other(); }";
        let (toks, r) = regions_of(src);
        assert!(ident_in_test(&toks, &r, "probe"));
        assert!(!ident_in_test(&toks, &r, "other"));
    }

    #[test]
    fn cfg_any_with_test_counts() {
        let src = "#[cfg(any(test, doctest))] mod m { inner(); }";
        let (toks, r) = regions_of(src);
        assert!(ident_in_test(&toks, &r, "inner"));
    }

    #[test]
    fn cfg_feature_is_not_a_region() {
        // `feature = "smoketest"` must not register: the string "test"
        // inside a literal never lexes into a token.
        let src = "#[cfg(feature = \"smoketest\")] mod m { inner(); }";
        let (_, r) = regions_of(src);
        assert!(r.ranges.is_empty());
    }

    #[test]
    fn semicolon_items_and_tricky_depths() {
        let src = "#[cfg(test)] use std::collections::HashMap;\nfn prod() { let x: [u8; 2] = [0, 1]; probe(); }";
        let (toks, r) = regions_of(src);
        assert_eq!(r.ranges.len(), 1);
        assert!(ident_in_test(&toks, &r, "HashMap"));
        assert!(!ident_in_test(&toks, &r, "probe"));
    }

    #[test]
    fn stacked_attributes_extend_to_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() { probe(); } }";
        let (toks, r) = regions_of(src);
        assert!(ident_in_test(&toks, &r, "probe"));
    }
}
