//! The baseline that is no longer there.
//!
//! simlint once grandfathered pre-existing findings in a checked-in
//! baseline file. The file held no entry for many releases and is gone,
//! with its format, its writer and the rule that failed on stale
//! entries. [`Baseline`] survives as a field-less type only because the
//! standalone `benchmark/` crate calls [`Baseline::load`] and passes the
//! result to [`crate::lint_workspace`]; `TelemetryConfig` is kept the
//! same way.

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
