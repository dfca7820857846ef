//! The metric catalog, the per-run report, and its renderings: the
//! `metric <workload> <name> <value> <unit>` lines, the detailed JSON
//! result file, and the one-line JSON summary that ends standard output.
//!
//! Every run of every workload reports every metric of its mode: all
//! end-to-end metrics untraced, all per-layer metrics traced. A layer a
//! workload never enters reports a share or count of 0, never a missing
//! row, so the same columns compare across workloads and commits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Trace;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name (also the key in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the compiler sees, measured with tracing off. An
/// operation is one map request (map-*), one served request (serve-zipf),
/// or one port of the compiler to a new accelerator (train-port).
pub const END_TO_END: [Metric; 6] = [
    m("op_p50_ms", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("ii_over_mii", "ratio", "lower"),
    m("mapped_frac", "fraction", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Suffix of the per-layer metrics that give a span's self time as a
/// share of the summed operation time.
pub const SHARE: &str = ".share";

/// What the traced runs measure, layer by layer. The `<span>.share` rows
/// name every span the workloads record, plus `unattributed`: operation
/// time no layer span covers. The shares of one run add up to 1.
pub const PER_LAYER: [Metric; 41] = [
    m("core.predict_labels.share", "fraction", "lower"),
    m("mapper.mii.share", "fraction", "lower"),
    m("mapper.attempt_feasible.share", "fraction", "lower"),
    m("mapper.attempt_infeasible.share", "fraction", "lower"),
    m("serve.queue.share", "fraction", "lower"),
    m("serve.transport.share", "fraction", "lower"),
    m("serve.handle.hit_memory.share", "fraction", "lower"),
    m("serve.handle.hit_disk.share", "fraction", "lower"),
    m("serve.handle.computed.share", "fraction", "lower"),
    m("serve.handle.coalesced.share", "fraction", "lower"),
    m("dfg.generate.share", "fraction", "lower"),
    m("labels.generate.share", "fraction", "lower"),
    m("labels.filter.share", "fraction", "lower"),
    m("gnn.train.share", "fraction", "lower"),
    m("gnn.evaluate.share", "fraction", "lower"),
    m("unattributed.share", "fraction", "lower"),
    m("mapper.router_invocations_per_map", "count", "lower"),
    m("mapper.proposals_per_map", "count", "lower"),
    m("mapper.router_per_proposal", "ratio", "lower"),
    m("mapper.ii_attempts_per_map", "count", "lower"),
    m("mapper.useful_attempt_ratio", "ratio", "higher"),
    m("mapper.infeasible_router_share", "fraction", "lower"),
    m("mapper.infeasible_time_share", "fraction", "lower"),
    m("mapper.lane_win_share.constructive", "fraction", "higher"),
    m("mapper.lane_win_share.sa", "fraction", "higher"),
    m("mapper.lane_win_share.evolutionary", "fraction", "higher"),
    m("mapper.lane_router_share.constructive", "fraction", "lower"),
    m("mapper.lane_router_share.sa", "fraction", "lower"),
    m("mapper.lane_router_share.evolutionary", "fraction", "lower"),
    m("serve.hit_memory_frac", "fraction", "higher"),
    m("serve.hit_disk_frac", "fraction", "higher"),
    m("serve.miss_frac", "fraction", "lower"),
    m("serve.coalesced_frac", "fraction", "higher"),
    m("labels.filter_kept_frac", "fraction", "higher"),
    m("labels.iter_gen_router_invocations", "count", "lower"),
    m("gnn.label_accuracy", "fraction", "higher"),
    m("arch.distance_index_bytes", "bytes", "lower"),
    m("core.request_parse_us", "us", "lower"),
    m("labels.attributes_us", "us", "lower"),
    m("core.predict_labels_us", "us", "lower"),
    m("trace.overhead", "fraction", "lower"),
];

/// Per-layer counters of the serving layer: 0 where nothing is served.
pub const SERVE_COUNTERS: [&str; 4] = [
    "serve.hit_memory_frac",
    "serve.hit_disk_frac",
    "serve.miss_frac",
    "serve.coalesced_frac",
];

/// Per-layer counters of the training pipeline: 0 where nothing trains.
pub const PORT_COUNTERS: [&str; 3] = [
    "labels.filter_kept_frac",
    "labels.iter_gen_router_invocations",
    "gnn.label_accuracy",
];

/// The span names behind the `<span>.share` rows, `unattributed` last.
pub fn share_spans() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().filter_map(|m| m.name.strip_suffix(SHARE))
}

/// How many failure messages a report keeps verbatim.
const KEPT_FAILURES: usize = 20;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, panics, overload, check rejections.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Free-form observations for the result file.
    pub notes: Vec<String>,
    /// The span log of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Records an observation.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics of a mode, in catalog order, or the names missing.
    pub fn select(&self, catalog: &[Metric]) -> Result<Vec<(Metric, f64)>, Vec<&'static str>> {
        let mut missing = Vec::new();
        let mut out = Vec::new();
        for metric in catalog {
            match self.values.get(metric.name) {
                Some(&v) if v.is_finite() => out.push((*metric, v)),
                _ => missing.push(metric.name),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints for the value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_metrics(metrics: &[(Metric, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(metric, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(metric.name),
                json_num(*v),
                json_str(metric.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line summary that ends standard output.
pub fn summary_line(report: &Report, metrics: &[(Metric, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        json_metrics(metrics)
    )
}

/// The detailed result file: the summary fields plus every value the run
/// measured, its notes and its first failures.
pub fn result_json(
    workload: &str,
    seed: u64,
    traced: bool,
    report: &Report,
    metrics: &[(Metric, f64)],
) -> String {
    let all: Vec<String> = report
        .values
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let strings = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"all_values\": {{{}}}, \
         \"notes\": [{}], \"failures\": [{}]}}\n",
        json_str(workload),
        report.correct(),
        report.attempted,
        report.failed,
        json_metrics(metrics),
        all.join(", "),
        strings(&report.notes),
        strings(&report.failures),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    /// `BENCHMARK.json` lists exactly the catalog, with the same units and
    /// directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn summary_is_one_json_line_with_full_digits() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("op_p50_ms", 1.0 / 3.0);
        let metrics = report.select(&END_TO_END[..1]).unwrap();
        let line = summary_line(&report, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        assert_eq!(report.select(&END_TO_END).unwrap_err().len(), 5);
    }
}
