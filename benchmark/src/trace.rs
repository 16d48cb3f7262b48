//! Spans around the benchmark's own calls into each layer, kept in
//! memory and written out once when the run ends.
//!
//! The tree is `run → pass → trial|figure` and `run → layer → loop`.
//! Spans are recorded from outside the layers; spans inside the
//! simulator are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval with the span that caused it and the
/// counts taken at the same boundary.
pub struct Span {
    /// Index in the tracer (also its id in the file).
    pub id: usize,
    /// The enclosing span; `None` for the run itself.
    pub parent: Option<usize>,
    /// What ran.
    pub name: String,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created; NaN while open.
    pub end_s: f64,
    /// Work counted at this boundary (`packets`, `events`, `ops`, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// Collects spans. A disabled tracer records nothing, so the untraced
/// run pays one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; the traced run switches it per pass to
    /// measure what tracing itself costs.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `work` inside a span named `name`, child of the innermost
    /// open span. `work` returns its result and the counts to attach.
    pub fn span<R>(
        &mut self,
        name: &str,
        work: impl FnOnce(&mut Tracer) -> (R, Vec<(&'static str, u64)>),
    ) -> R {
        if !self.enabled {
            return work(self).0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            counts: Vec::new(),
        });
        self.open.push(id);
        let (out, counts) = work(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.counts = counts;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of
    /// `{id, parent, name, start_s, end_s, counts}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"counts\": {{",
                s.id, s.name, s.start_s, s.end_s
            );
            for (k, (name, n)) in s.counts.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {n}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Writes [`Tracer::to_json`] to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        t.span("run", |t| {
            t.span("pass", |t| {
                t.span("trial", |_| ((), vec![("packets", 7)]));
                ((), vec![])
            });
            t.span("layer", |_| ((), vec![]));
            ((), vec![])
        });
        let parents: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("run", None),
                ("pass", Some(0)),
                ("trial", Some(1)),
                ("layer", Some(0))
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_s >= s.start_s));
        assert!(t.to_json().contains("\"counts\": {\"packets\": 7}"));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| (41 + 1, vec![])), 42);
        assert!(t.spans().is_empty());
    }
}
