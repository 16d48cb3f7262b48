//! The baseline that is no longer there.
//!
//! The unit-discipline check once grandfathered pre-existing findings in
//! a checked-in baseline file. The file held no entry for many releases
//! and is gone; the one sanctioned exception is an entry of
//! [`crate::ALLOWED`]. [`Baseline`] survives as a field-less type only
//! because the standalone `benchmark/` crate calls [`Baseline::load`] and
//! passes the result to [`crate::lint_workspace`].

use std::io;
use std::path::Path;

/// An empty baseline: it absorbs no finding.
#[derive(Clone, Copy, Debug, Default)]
pub struct Baseline;

impl Baseline {
    /// Returns the empty baseline. `path` is not read.
    pub fn load(_path: &Path) -> io::Result<Baseline> {
        Ok(Baseline)
    }
}
