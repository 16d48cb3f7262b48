// Fixture: two well-formed suppressions (each silences its own or the
// next line) and two malformed ones (missing reason / unknown rule), which are
// findings in their own right.
struct Suppressed {
    // simlint: allow(unit-discipline): fixture demonstrates a justified exception
    skew_cycles: i64,
}

fn suppressed_param(
    skew_ns: i64, // simlint: allow(unit-discipline): a trailing allow covers its own line
) -> i64 {
    skew_ns
}

// simlint: allow(unit-discipline)
fn missing_reason(t_ns: u64) -> u64 {
    t_ns
}

// simlint: allow(no-such-rule): the rule name is wrong
fn unknown_rule() {}
