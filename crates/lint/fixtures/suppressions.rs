// Fixture: two well-formed suppressions (each silences the next line)
// and two malformed ones (missing reason / unknown rule), which are
// findings in their own right.
struct Suppressed {
    // simlint: allow(unit-discipline): fixture demonstrates a justified exception
    skew_cycles: i64,
}

fn suppressed_exit() {
    // simlint: allow(exit-code-registry): fixture demonstrates a justified exception
    std::process::exit(42);
}

// simlint: allow(unit-discipline)
fn missing_reason(t_ns: u64) -> u64 {
    t_ns
}

// simlint: allow(no-such-rule): the rule name is wrong
fn unknown_rule() {}
