// Fixture: every rule's trigger text appears here, but only inside
// comments, strings, and doc examples — a lexical matcher that is not
// comment/string-aware would drown in false positives on this file.
//
// fn f(t_ns: u64) {} struct S { deadline_cycles: u64 }
// std::process::exit(42); ExitCode::from(9)

/// Doc example, never compiled by simlint:
/// ```
/// let delay_us: f64 = 1.0;
/// std::process::exit(3);
/// ```
fn clean() -> &'static str {
    let a = "fn f(t_ns: u64) and std::process::exit(42) in a string";
    let b = r#"struct S { x_ms: u32 } ExitCode::from(9)"#;
    let c = "let d_us: f64 = 1.0; process::exit(\"quoted\")";
    let _ = (a, b, c);
    /* block comment: fn g(t_cycles: u64) {} std::process::exit(5);
       nested /* ExitCode::from(7) */ still a comment */
    "ok"
}
