//! `livelock trial --latency` asks the kernel for the per-stage latency
//! breakdown and prints it; a plain `trial` keeps only the total sojourn,
//! so it prints no stage table but the same latency figures.

use std::process::Command;

use livelock_kernel::stats::Stage;

/// Runs `livelock trial <args>` from a scratch cwd and returns its stdout.
fn trial(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_livelock"))
        .arg("trial")
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("livelock runs");
    assert!(out.status.success(), "trial {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The last column of the first line whose first word is `name`.
fn last_number(report: &str, name: &str) -> Option<u64> {
    report
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|n| n.parse().ok())
}

#[test]
fn the_stage_table_is_printed_exactly_on_request() {
    let run = ["--config", "unmodified", "--rate", "12000"];
    let plain = trial(&run);
    let tracked = trial(&[&run[..], &["--latency"]].concat());

    let transmitted = last_number(&tracked, "transmitted").expect("transmitted line");
    assert!(transmitted > 0, "{tracked}");
    for s in Stage::ALL {
        assert_eq!(
            last_number(&tracked, s.label()),
            Some(transmitted),
            "stage {} row counts every transmitted packet:\n{tracked}",
            s.label()
        );
    }

    // The breakdown is appended: everything before it, the p99 line
    // included, is the plain report byte for byte.
    assert!(tracked.starts_with(&plain), "plain:\n{plain}\ntracked:\n{tracked}");
    assert!(plain.lines().any(|l| l.starts_with("latency p99")));
    assert!(!plain.contains("latency (us)"), "{plain}");
    for s in Stage::ALL {
        assert_eq!(last_number(&plain, s.label()), None, "{plain}");
    }
}
