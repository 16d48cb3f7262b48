// Fixture: the rule's trigger text appears here, but only inside
// comments, strings, and doc examples — a lexical matcher that is not
// comment/string-aware would drown in false positives on this file.
//
// fn f(t_ns: u64) {} struct S { deadline_cycles: u64 }

/// Doc example, never compiled by simlint:
/// ```
/// let delay_us: f64 = 1.0;
/// ```
fn clean() -> &'static str {
    let a = "fn f(t_ns: u64) in a string";
    let b = r#"struct S { x_ms: u32 }"#;
    let c = "let d_us: f64 = 1.0; \"quoted\"";
    let _ = (a, b, c);
    /* block comment: fn g(t_cycles: u64) {}
       nested /* h_us: u32 */ still a comment */
    "ok"
}
