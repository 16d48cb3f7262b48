//! The unit check over whole trees: the real workspace is clean, and a
//! copy of it with one planted violation fails for that violation alone.

use std::fs;
use std::path::{Path, PathBuf};

use lint::baseline::Baseline;
use lint::{lint_workspace, Finding, ALLOWED};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn show(fs: &[Finding]) -> Vec<String> {
    fs.iter().map(|f| format!("{}:{}: `{}: {}`", f.file, f.line, f.name, f.ty)).collect()
}

/// Copies every `.rs` file under `src` to the same place under `dst`.
fn copy_rs_tree(src: &Path, dst: &Path) {
    for entry in fs::read_dir(src).into_iter().flatten() {
        let path = entry.expect("dir entry").path();
        let to = dst.join(path.file_name().expect("a file name"));
        if path.is_dir() && !path.ends_with("target") {
            copy_rs_tree(&path, &to);
        } else if path.extension().is_some_and(|e| e == "rs") {
            fs::create_dir_all(dst).expect("scratch dir");
            fs::copy(&path, &to).expect("file copied");
        }
    }
}

#[test]
fn pristine_copy_is_clean() {
    let ws = lint_workspace(&repo_root(), &Baseline).expect("workspace readable");
    assert!(
        ws.fresh.is_empty(),
        "unit-named bindings declared as bare numbers; declare them `Cycles` or `Nanos` \
         (livelock_sim), or add an ALLOWED entry with its reason: {:#?}",
        show(&ws.fresh)
    );
    // Like an `#[expect]`, an entry that no longer fires is stale.
    let fired: Vec<(&str, &str)> = ws.suppressed.iter().map(|f| (f.file.as_str(), f.name.as_str())).collect();
    assert_eq!(fired, ALLOWED, "each ALLOWED entry matches exactly one declaration: {:#?}", show(&ws.suppressed));
    assert!(ws.files_scanned > 0);
}

/// Plants `seeded_raw_time(t_ns: u64)` at the end of a copy of the
/// kernel's `lib.rs`: the copy has exactly that one fresh finding, at
/// the planted line. (The name dates from when the check was a binary
/// that exited 20 on this rule.)
#[test]
fn seeded_unit_violation_exits_20() {
    let root = repo_root();
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-seeded");
    let _ = fs::remove_dir_all(&copy);
    for dir in ["crates", "tests", "examples"] {
        copy_rs_tree(&root.join(dir), &copy.join(dir));
    }
    let lib = copy.join("crates/kernel/src/lib.rs");
    let mut src = fs::read_to_string(&lib).expect("kernel lib.rs copied");
    src.push_str("\npub fn seeded_raw_time(t_ns: u64) -> u64 {\n    t_ns\n}\n");
    fs::write(&lib, &src).expect("violation planted");

    let ws = lint_workspace(&copy, &Baseline).expect("copy readable");
    let planted = format!("crates/kernel/src/lib.rs:{}: `t_ns: u64`", src.lines().count() - 2);
    assert_eq!(show(&ws.fresh), [planted]);
    assert_eq!(ws.suppressed.len(), ALLOWED.len());
    fs::remove_dir_all(&copy).expect("copy removed");
}
