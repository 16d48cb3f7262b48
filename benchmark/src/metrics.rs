//! The metric schema: every name this benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a unit test compares them).

use std::fmt::Write as _;

use crate::workloads::{all_trials, figure_ids};

/// Metrics of the untraced run, `(name, unit)`. Host times are
/// normalised to the reference machine (see `calib`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("norm_ns_per_pkt", "ns/pkt"),
    ("norm_ns_per_pkt_tail", "ns/pkt"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with fixed names, `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 44] = [
    ("sim.heap.hold_ns", "ns"),
    ("sim.calendar.hold_ns", "ns"),
    ("sim.heap.hold_ns_100k", "ns"),
    ("sim.calendar.hold_ns_100k", "ns"),
    ("sim.calendar.smp_pattern_ns", "ns"),
    ("sim.hdr.record_ns", "ns"),
    ("sim.delivered_frac", "frac"),
    ("sim.latency_p99_us", "sim_us"),
    ("net.factory.ns_per_pkt", "ns"),
    ("net.parse.ns_per_pkt", "ns"),
    ("net.fwd_prims.ns_per_pkt", "ns"),
    ("net.queue.ns_per_op", "ns"),
    ("net.flow_key.ns", "ns"),
    ("net.classify.ns", "ns"),
    ("net.pool.misses", "count"),
    ("machine.engine.ns_per_event", "ns"),
    ("machine.engine.ns_per_intr", "ns"),
    ("machine.nic.ns_per_pkt", "ns"),
    ("machine.cluster.ns_per_slice", "ns"),
    ("machine.events_per_pkt", "1/pkt"),
    ("machine.intrs_per_pkt", "1/pkt"),
    ("machine.norm_ns_per_event", "ns"),
    ("core.poller.ns_per_action", "ns"),
    ("core.feedback.ns_per_depth", "ns"),
    ("core.cycle_limit.ns_per_record", "ns"),
    ("kernel.build.us", "us"),
    ("kernel.short_vs_long", "ratio"),
    ("kernel.stats.delivery_ns", "ns"),
    ("kernel.flows.ns_per_pkt", "ns"),
    ("kernel.latency.overhead_frac", "frac"),
    ("kernel.telemetry.overhead_frac", "frac"),
    ("kernel.observe.overhead_frac", "frac"),
    ("kernel.classes.overhead_frac", "frac"),
    ("kernel.all_on.overhead_frac", "frac"),
    ("kernel.sched.calendar_vs_heap", "ratio"),
    ("kernel.smp.cost_ratio_4v1", "ratio"),
    ("kernel.par.jobs_speedup", "ratio"),
    ("kernel.ring_drop_frac", "frac"),
    ("kernel.queue_drop_frac", "frac"),
    ("lint.workspace_scan_ms", "ms"),
    ("lint.files_scanned", "count"),
    ("driver.pass_wall_s", "s"),
    ("driver.calib_ms", "ms"),
    ("driver.trace_overhead_frac", "frac"),
];

/// The name of a trial's own per-layer metric.
pub fn trial_metric(label: &str) -> String {
    format!("kernel.trial.{label}.norm_ns_per_pkt")
}

/// The name of a figure's own per-layer metric.
pub fn figure_metric(id: &str) -> String {
    format!("bench.fig.{id}.norm_ms")
}

/// Every metric of the traced run, `(name, unit)`: the fixed ones, one
/// per trial of the four trial workloads, one per figure.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    all.extend(
        all_trials(1)
            .iter()
            .map(|u| (trial_metric(&u.label()), "ns/pkt")),
    );
    all.extend(figure_ids().into_iter().map(|id| (figure_metric(id), "ms")));
    all
}

/// One run's result, as the last line of standard output carries it.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Units (trials or figures) run and checked.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// `(name, value)` in schema order.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// The one-line JSON object. `schema` gives the names that must be
    /// present and their units; an `Err` names a metric that is missing,
    /// extra, or not a finite number.
    pub fn to_json(&self, schema: &[(String, &'static str)]) -> Result<String, String> {
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !schema.iter().any(|(s, _)| s == n))
        {
            return Err(format!("metric {name} is not in the schema"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}, not a finite number"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The end-to-end schema in [`Report::to_json`]'s shape.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of one array of `BENCHMARK.json`.
    /// The file is flat and hand-written, so scanning for the keys is
    /// enough; no JSON parser is needed.
    fn declared(json: &str, array: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string opens") + 1;
            let len = rest[open..].find('"').expect("string closes");
            rest[open..open + len].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    fn owned(schema: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        schema
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_printed() {
        let json = benchmark_json();
        assert_eq!(declared(&json, "end_to_end"), owned(end_to_end()));
        assert_eq!(declared(&json, "per_layer"), owned(per_layer()));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_workloads() {
        let json = benchmark_json();
        let start = json.find("\"workloads\"").expect("workloads present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        for name in crate::workloads::WORKLOAD_NAMES {
            assert!(
                body.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(
            body.matches("\"name\"").count(),
            crate::workloads::WORKLOAD_NAMES.len()
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            assert!(ok_name(&name), "bad name {name}");
            assert!(ok_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn output_lists_every_schema_metric_and_nothing_else() {
        let schema = end_to_end();
        let mut report = Report {
            correct: true,
            attempted: 8,
            failed: 0,
            metrics: schema.iter().map(|(n, _)| (n.clone(), 1.5)).collect(),
        };
        let line = report.to_json(&schema).expect("complete report");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in &schema {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert_eq!(line.matches("\"value\"").count(), schema.len());

        report.metrics.push(("stray".into(), 1.0));
        assert!(
            report.to_json(&schema).is_err(),
            "an undeclared metric must be refused"
        );
        report.metrics.truncate(schema.len() - 1);
        assert!(
            report.to_json(&schema).is_err(),
            "a missing metric must be refused"
        );
        report
            .metrics
            .push((schema[schema.len() - 1].0.clone(), f64::NAN));
        assert!(report.to_json(&schema).is_err(), "NaN must be refused");
    }
}
