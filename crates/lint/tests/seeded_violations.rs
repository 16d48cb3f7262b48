//! Seed-and-verify: each of the new rules (20, 21, 22) fires its exact
//! exit code on a planted violation, and a pristine copy exits 0.
//!
//! The harness copies the real workspace's sources into a scratch tree
//! under the system temp dir, plants exactly one violation, lints the
//! scratch tree through the library API, and asserts on
//! `report::exit_code` — the same value the `simlint` process exits
//! with. Copying the live tree (rather than a synthetic fixture) keeps
//! the exit-code registry's liveness cross-checks satisfied, so a
//! seeded run fails for the seeded reason and nothing else.

use std::fs;
use std::path::{Path, PathBuf};

use lint::baseline::Baseline;
use lint::{report, rules};

/// The real workspace root (two levels up from this crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

/// Copies everything the linter scans (plus `scripts/ci.sh` and the
/// baseline) into a fresh scratch tree and returns its path.
fn scratch_copy(tag: &str) -> PathBuf {
    let root = repo_root();
    let dst = std::env::temp_dir().join(format!(
        "simlint-seed-{}-{tag}",
        std::process::id()
    ));
    if dst.exists() {
        fs::remove_dir_all(&dst).expect("stale scratch tree removed");
    }
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir).expect("crates/ readable") {
        let krate = entry.expect("dir entry").path();
        if !krate.is_dir() {
            continue;
        }
        let name = krate.file_name().unwrap_or_default().to_string_lossy().to_string();
        for sub in ["src", "tests"] {
            copy_rs_tree(
                &krate.join(sub),
                &dst.join("crates").join(&name).join(sub),
            );
        }
    }
    copy_rs_tree(&root.join("tests"), &dst.join("tests"));
    copy_rs_tree(&root.join("examples"), &dst.join("examples"));
    fs::create_dir_all(dst.join("scripts")).expect("scripts dir");
    fs::copy(root.join("scripts/ci.sh"), dst.join("scripts/ci.sh")).expect("ci.sh copied");
    fs::copy(
        root.join("crates/lint/baseline.txt"),
        dst.join("crates/lint/baseline.txt"),
    )
    .expect("baseline copied");
    dst
}

fn copy_rs_tree(src: &Path, dst: &Path) {
    if !src.is_dir() {
        return;
    }
    fs::create_dir_all(dst).expect("scratch subdir");
    for entry in fs::read_dir(src).expect("source dir readable") {
        let p = entry.expect("dir entry").path();
        let name = p.file_name().unwrap_or_default().to_owned();
        if p.is_dir() {
            copy_rs_tree(&p, &dst.join(name));
        } else if p.extension().is_some_and(|e| e == "rs" || e == "txt") {
            fs::copy(&p, dst.join(name)).expect("file copied");
        }
    }
}

/// Lints a scratch tree and returns the process exit code it maps to.
fn lint_exit(root: &Path) -> (i32, Vec<String>) {
    let baseline =
        Baseline::load(&root.join("crates/lint/baseline.txt")).expect("baseline loads");
    let result = lint::lint_workspace(root, &baseline).expect("scan succeeds");
    let rules_hit: Vec<String> = result.fresh.iter().map(|f| f.rule.clone()).collect();
    (report::exit_code(&result), rules_hit)
}

fn append(path: &Path, text: &str) {
    let mut src = fs::read_to_string(path).expect("seed target readable");
    src.push_str(text);
    fs::write(path, src).expect("seed written");
}

#[test]
fn pristine_copy_is_clean() {
    let dir = scratch_copy("clean");
    let (code, rules_hit) = lint_exit(&dir);
    assert_eq!(code, 0, "pristine scratch tree must lint clean: {rules_hit:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_unit_violation_exits_20() {
    let dir = scratch_copy("units");
    append(
        &dir.join("crates/sim/src/lib.rs"),
        "\npub fn seeded_raw_time(t_ns: u64) -> u64 { t_ns }\n",
    );
    let (code, rules_hit) = lint_exit(&dir);
    assert_eq!(rules_hit, vec!["unit-discipline".to_string()], "exactly the seeded finding");
    assert_eq!(code, rules::EXIT_UNIT_DISCIPLINE);
    assert_eq!(code, 20);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_raw_exit_code_exits_21() {
    let dir = scratch_copy("exitcodes");
    append(
        &dir.join("crates/bench/src/bin/figures.rs"),
        "\nfn seeded_raw_exit() { std::process::exit(42); }\n",
    );
    let (code, rules_hit) = lint_exit(&dir);
    assert_eq!(
        rules_hit,
        vec!["exit-code-registry".to_string()],
        "exactly the seeded finding"
    );
    assert_eq!(code, rules::EXIT_CODE_REGISTRY);
    assert_eq!(code, 21);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unregistered_ci_exit_also_exits_21() {
    let dir = scratch_copy("cish");
    let ci = dir.join("scripts/ci.sh");
    let mut text = fs::read_to_string(&ci).expect("ci.sh readable");
    text.push_str("\nfalse || exit 99\n");
    fs::write(&ci, text).expect("ci.sh seeded");
    let (code, rules_hit) = lint_exit(&dir);
    assert_eq!(rules_hit, vec!["exit-code-registry".to_string()]);
    assert_eq!(code, 21);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_stale_baseline_exits_22() {
    let dir = scratch_copy("stale");
    append(
        &dir.join("crates/lint/baseline.txt"),
        "panic-freedom\tcrates/sim/src/lib.rs\t.unwrap(\n",
    );
    let (code, rules_hit) = lint_exit(&dir);
    assert_eq!(rules_hit, vec!["stale-baseline".to_string()], "exactly the seeded finding");
    assert_eq!(code, rules::EXIT_STALE_BASELINE);
    assert_eq!(code, 22);
    fs::remove_dir_all(&dir).ok();
}
