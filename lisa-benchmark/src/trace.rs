//! Spans recorded around the calls into each layer, the event tally that
//! turns the program's own `lisa-events` stream into work counters, and
//! the per-layer self-time table.
//!
//! Spans live in memory while a workload runs and are written out as JSON
//! lines when it ends. Each operation of a workload (a map, a served
//! request, a port) is one root span named `op`; its descendants are
//! named `<layer>.<what>` after the crate doing the work. A span's self
//! time is its duration minus the part of it that its children cover, and
//! a root's self time is the `unattributed` row, so the rows of the table
//! always add up to the summed operation latencies. Time the program
//! reports only as a sum over many operations is carved out of the self
//! time of the spans that enclose it, which keeps that sum.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lisa_events::{Observer, PipelineEvent};

/// Name of every operation's root span.
pub const OP: &str = "op";

/// Row name of the time inside operations that no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the enclosing span, `None` for an operation root.
    pub parent: Option<usize>,
    /// `op` or `<layer>.<what>`.
    pub name: &'static str,
    /// Start, in seconds since the trace began.
    pub start: f64,
    /// End, in seconds since the trace began.
    pub end: f64,
    /// The operation this span belongs to.
    pub request: usize,
    /// Work counters measured inside the span.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Time known only as a sum: `seconds` over `calls`, all of it inside
/// spans named `from`.
#[derive(Debug, Clone, PartialEq)]
pub struct Carved {
    /// The row that gives up the time.
    pub from: &'static str,
    /// The row that receives it.
    pub name: &'static str,
    /// Calls the sum covers.
    pub calls: usize,
    /// The summed time, seconds.
    pub seconds: f64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    carved: Vec<Carved>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
            carved: Vec::new(),
        }
    }

    /// Moves `seconds`, summed over `calls`, out of the self time of the
    /// `from` row into a row `name`.
    pub fn carve(&mut self, from: &'static str, name: &'static str, calls: usize, seconds: f64) {
        self.carved.push(Carved {
            from,
            name,
            calls,
            seconds,
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: usize,
        counters: Vec<(&'static str, u64)>,
    ) -> usize {
        assert!(
            parent.is_none_or(|p| p < self.spans.len()),
            "a parent span is recorded before its children"
        );
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            parent,
            name,
            start: at(start),
            end: at(end),
            request,
            counters,
        });
        self.spans.len() - 1
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed root-span durations, seconds.
    pub fn op_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{:?},\"end_s\":{:?},\"request\":{},\"counters\":{{{}}}}}",
                s.name,
                s.start,
                s.end,
                s.request,
                counters.join(",")
            );
        }
        for c in &self.carved {
            let _ = writeln!(
                out,
                "{{\"carved\":\"{}\",\"from\":\"{}\",\"calls\":{},\"total_s\":{:?}}}",
                c.name, c.from, c.calls, c.seconds
            );
        }
        out
    }

    /// Per-name self-time table; the rows add up to the summed root
    /// durations.
    pub fn table(&self) -> LayerTable {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        let mut total = 0.0;
        for (s, covered) in self.spans.iter().zip(covered) {
            let name = if s.parent.is_none() {
                total += s.duration();
                UNATTRIBUTED
            } else {
                s.name
            };
            let row = rows.entry(name).or_default();
            row.calls += 1;
            row.total += s.duration();
            row.own += s.duration() - covered;
        }
        for c in &self.carved {
            rows.entry(c.from).or_default().own -= c.seconds;
            let row = rows.entry(c.name).or_default();
            row.calls += c.calls;
            row.total += c.seconds;
            row.own += c.seconds;
        }
        LayerTable { rows, total }
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    /// Number of spans.
    pub calls: usize,
    /// Summed durations, seconds.
    pub total: f64,
    /// Summed self times, seconds.
    pub own: f64,
}

/// The per-layer breakdown of a traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Rows by span name (`unattributed` for root self time).
    pub rows: BTreeMap<&'static str, Row>,
    /// Summed operation latencies, seconds.
    pub total: f64,
}

impl LayerTable {
    /// Self time of the `name` row as a share of the total (0 when the
    /// row is absent).
    pub fn share(&self, name: &str) -> f64 {
        match self.rows.get(name) {
            Some(row) if self.total > 0.0 => row.own / self.total,
            _ => 0.0,
        }
    }

    /// Renders the table: calls, total, self time, self time per call and
    /// share per row, then the sum of the rows.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "layer {workload} {:<26} {:>8} {:>12} {:>12} {:>12} {:>7}",
            "row", "calls", "total_ms", "self_ms", "self_ms/call", "share"
        );
        let mut sum = 0.0;
        for (name, r) in &self.rows {
            sum += r.own;
            let _ = writeln!(
                out,
                "layer {workload} {name:<26} {:>8} {:>12.3} {:>12.3} {:>12.4} {:>7.4}",
                r.calls,
                r.total * 1e3,
                r.own * 1e3,
                r.own * 1e3 / r.calls as f64,
                self.share(name),
            );
        }
        let _ = writeln!(
            out,
            "layer {workload} {:<26} {:>8} {:>12.3} {:>12.3} {:>12} {:>7.4}",
            "sum of rows",
            "",
            self.total * 1e3,
            sum * 1e3,
            "",
            if self.total > 0.0 {
                sum / self.total
            } else {
                0.0
            },
        );
        out
    }
}

/// Counters the program reports through its own event stream, summed
/// while an observer is attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// `route_edge` calls on the admitted path, all lanes.
    pub router_invocations: u64,
    /// Movements proposed, all lanes.
    pub proposals: u64,
    /// Router calls per lane index (the portfolio's chain/lane index).
    pub router_by_lane: BTreeMap<usize, u64>,
    /// Winning lane name of each won II race.
    pub wins: Vec<&'static str>,
    /// Finished pipeline stages with their start and end instants.
    pub stages: Vec<(&'static str, Instant, Instant)>,
    /// Labelled DFGs the §V-C filter judged, and how many it kept.
    pub filter: (u64, u64),
    /// Requests the serving engine answered, per disposition: how many,
    /// and their summed time inside `ServeEngine::handle`.
    pub handled: BTreeMap<&'static str, (usize, Duration)>,
    /// Time spent inside this observer.
    pub observing: Duration,
}

/// An observer summing the events the benchmark reads; every other event
/// is dropped on arrival.
#[derive(Debug, Default)]
pub struct TallyObserver {
    state: Mutex<(Tally, BTreeMap<&'static str, Instant>)>,
}

impl TallyObserver {
    /// Returns the tally so far and starts a new one.
    pub fn take(&self) -> Tally {
        std::mem::take(&mut self.state.lock().expect("tally lock").0)
    }
}

impl Observer for TallyObserver {
    fn event(&self, event: &PipelineEvent) {
        let now = Instant::now();
        let mut guard = self.state.lock().expect("tally lock");
        let (tally, started) = &mut *guard;
        match event {
            PipelineEvent::SaFilterSummary {
                chain,
                proposals,
                router_invocations,
                ..
            } => {
                tally.router_invocations += router_invocations;
                tally.proposals += proposals;
                *tally.router_by_lane.entry(*chain).or_default() += router_invocations;
            }
            PipelineEvent::StrategyLaneWon { strategy, .. } => tally.wins.push(strategy),
            PipelineEvent::StageStarted { stage } => {
                started.insert(stage, now);
            }
            PipelineEvent::StageFinished { stage, .. } => {
                let start = started.remove(stage).unwrap_or(now);
                tally.stages.push((stage, start, now));
            }
            PipelineEvent::FilterDecision { accepted, .. } => {
                tally.filter.0 += 1;
                tally.filter.1 += u64::from(*accepted);
            }
            PipelineEvent::ServeResponded {
                disposition,
                duration,
                ..
            } => {
                let (calls, total) = tally.handled.entry(disposition).or_default();
                *calls += 1;
                *total += *duration;
            }
            _ => {}
        }
        tally.observing += now.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_add_up_to_the_operation_total() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let ms = |n| t0 + Duration::from_millis(n);
        let root = trace.record(None, OP, ms(0), ms(10), 0, vec![]);
        let child = trace.record(Some(root), "mapper.attempt", ms(1), ms(7), 0, vec![]);
        trace.record(Some(child), "mapper.router", ms(2), ms(4), 0, vec![]);
        trace.record(Some(root), "core.predict_labels", ms(7), ms(9), 0, vec![]);
        let table = trace.table();
        assert!((table.total - 0.010).abs() < 1e-9);
        let sum: f64 = table.rows.values().map(|r| r.own).sum();
        assert!((sum - table.total).abs() < 1e-9);
        assert!((table.share(UNATTRIBUTED) - 0.2).abs() < 1e-9);
        assert!((table.share("mapper.attempt") - 0.4).abs() < 1e-9);
        assert_eq!(table.share("absent"), 0.0);
        assert_eq!(trace.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn carved_time_moves_between_rows_and_keeps_the_total() {
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let ms = |n| t0 + Duration::from_millis(n);
        for (i, start) in [0, 20].into_iter().enumerate() {
            let root = trace.record(None, OP, ms(start), ms(start + 10), i, vec![]);
            trace.record(
                Some(root),
                "serve.transport",
                ms(start + 2),
                ms(start + 10),
                i,
                vec![],
            );
        }
        trace.carve("serve.transport", "serve.handle.hit_memory", 2, 0.005);
        let table = trace.table();
        assert!((table.rows["serve.transport"].own - 0.011).abs() < 1e-9);
        let handle = table.rows["serve.handle.hit_memory"];
        assert_eq!(handle.calls, 2);
        assert!((handle.own - 0.005).abs() < 1e-9);
        let sum: f64 = table.rows.values().map(|r| r.own).sum();
        assert!((sum - table.total).abs() < 1e-9);
        assert_eq!(trace.to_jsonl().lines().count(), 5);
    }
}
