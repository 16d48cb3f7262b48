//! Workspace discovery and file classification.
//!
//! The linter does not parse `Cargo.toml`s; the workspace layout is
//! simple and stable enough to walk directly. Every scanned file is
//! classified by owning crate and target kind, which (with its path) is
//! what the rules scope themselves by.
//!
//! The vendored `proptest` drop-in is not scanned: it is a registry
//! stand-in with its own idioms. The linter scans itself — a gate that
//! exempts its own enforcement code is the first place drift hides.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which compilation target a file belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// Library code (`src/**`, excluding `src/bin`).
    Lib,
    /// A binary (`src/bin/**`).
    Bin,
    /// An integration test (`tests/**`, including the workspace-level
    /// `tests/` directory wired into the kernel crate).
    Test,
    /// An example (`examples/**`).
    Example,
}

/// One scanned source file with its place in the workspace.
#[derive(Clone, Debug)]
pub struct FileInfo {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/net/src/filter.rs`).
    pub rel_path: String,
    /// Owning crate's directory name (`net`, `kernel`, `bench`, …).
    pub crate_name: String,
    /// Target kind.
    pub kind: TargetKind,
}

impl FileInfo {
    /// Classifies a workspace-relative path. Returns `None` for paths the
    /// linter does not scan.
    pub fn classify(rel_path: &str) -> Option<FileInfo> {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_name, kind) = match parts.as_slice() {
            // A crate-root main.rs is the crate's default binary.
            ["crates", krate, "src", "bin", ..] | ["crates", krate, "src", "main.rs"] => {
                (*krate, TargetKind::Bin)
            }
            ["crates", krate, "src", ..] => (*krate, TargetKind::Lib),
            ["crates", krate, "tests", ..] => (*krate, TargetKind::Test),
            // The workspace-level tests/ and examples/ are targets of the
            // kernel crate (see crates/kernel/Cargo.toml).
            ["tests", ..] => ("kernel", TargetKind::Test),
            ["examples", ..] => ("kernel", TargetKind::Example),
            _ => return None,
        };
        if SKIPPED_CRATES.contains(&crate_name) {
            return None;
        }
        Some(FileInfo {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
        })
    }
}

/// Crates never scanned: vendored registry stand-ins.
pub const SKIPPED_CRATES: &[&str] = &["proptest"];

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Walks the workspace and returns every `.rs` file the linter scans, as
/// `(FileInfo, source)` pairs, in deterministic path order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<(FileInfo, String)>> {
    let mut rel_paths: Vec<String> = Vec::new();
    let crates_dir = root.join("crates");
    for krate in sorted_dir(&crates_dir)? {
        let name = krate.file_name().unwrap_or_default().to_string_lossy().to_string();
        if SKIPPED_CRATES.contains(&name.as_str()) {
            continue;
        }
        for sub in ["src", "tests"] {
            collect_rs(&krate.join(sub), root, &mut rel_paths)?;
        }
    }
    collect_rs(&root.join("tests"), root, &mut rel_paths)?;
    collect_rs(&root.join("examples"), root, &mut rel_paths)?;
    rel_paths.sort();

    let mut out = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        if let Some(info) = FileInfo::classify(&rel) {
            let src = fs::read_to_string(root.join(&rel))?;
            out.push((info, src));
        }
    }
    Ok(out)
}

fn sorted_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    Ok(entries)
}

/// Recursively collects `.rs` files under `dir` (if it exists) as
/// workspace-relative forward-slash paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_lib_files_by_crate() {
        for (path, krate) in [
            ("crates/net/src/filter.rs", "net"),
            ("crates/kernel/src/router/mod.rs", "kernel"),
            ("crates/sim/src/lib.rs", "sim"),
        ] {
            let f = FileInfo::classify(path).unwrap();
            assert_eq!((f.crate_name.as_str(), f.kind), (krate, TargetKind::Lib));
            assert_eq!(f.rel_path, path);
        }
    }

    #[test]
    fn classifies_bins_tests_benches() {
        let f = FileInfo::classify("crates/bench/src/bin/figures.rs").unwrap();
        assert_eq!(f.kind, TargetKind::Bin);
        let f = FileInfo::classify("crates/machine/tests/engine_properties.rs").unwrap();
        assert_eq!(f.kind, TargetKind::Test);
        // The workspace has no bench targets (host time is measured by
        // benchmark/, outside it), so `benches/` is not a scanned place.
        assert!(FileInfo::classify("crates/bench/benches/fig6_1.rs").is_none());
    }

    #[test]
    fn workspace_level_tests_belong_to_kernel() {
        let f = FileInfo::classify("tests/cross_crate.rs").unwrap();
        assert_eq!(f.crate_name, "kernel");
        assert_eq!(f.kind, TargetKind::Test);
        let f = FileInfo::classify("examples/quickstart.rs").unwrap();
        assert_eq!(f.kind, TargetKind::Example);
    }

    #[test]
    fn vendored_is_skipped_and_the_linter_lints_itself() {
        assert!(FileInfo::classify("crates/proptest/src/lib.rs").is_none());
        assert!(FileInfo::classify("target/debug/build/foo.rs").is_none());
        let f = FileInfo::classify("crates/lint/src/main.rs").unwrap();
        assert_eq!(f.crate_name, "lint");
        assert_eq!(f.kind, TargetKind::Bin);
    }
}
