//! Ready-made [`Observer`] implementations.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::{LabelGenResult, Observer, PipelineEvent};

/// Buffers every event in memory: for tests, and for stages that replay
/// events from worker threads in a fixed order.
#[derive(Default)]
pub struct RecordingObserver {
    events: Mutex<Vec<PipelineEvent>>,
}

impl RecordingObserver {
    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<PipelineEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl Observer for RecordingObserver {
    fn event(&self, event: &PipelineEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Human-readable progress lines on stderr.
///
/// By default the chatty per-iteration events (annealer snapshots,
/// per-epoch losses, per-round label-gen progress) are suppressed and
/// only stage/DFG-level milestones print; [`StderrObserver::verbose`]
/// prints everything — including the per-temperature annealer lines that
/// the removed `LISA_SA_DEBUG` env var used to produce.
#[derive(Debug, Default)]
pub struct StderrObserver {
    verbose: bool,
}

impl StderrObserver {
    /// Milestone lines only.
    pub fn new() -> Self {
        StderrObserver { verbose: false }
    }

    /// Every event, including per-temperature annealer snapshots.
    pub fn verbose() -> Self {
        StderrObserver { verbose: true }
    }

    fn render(&self, event: &PipelineEvent) -> Option<String> {
        match event {
            PipelineEvent::StageStarted { stage } => Some(format!("[lisa] stage {stage} ...")),
            PipelineEvent::StageFinished { stage, duration } => Some(format!(
                "[lisa] stage {stage} done in {:.2}s",
                duration.as_secs_f64()
            )),
            PipelineEvent::DfgGenerated {
                index,
                nodes,
                edges,
            } => self
                .verbose
                .then(|| format!("[lisa]   dfg {index}: {nodes} nodes, {edges} edges")),
            PipelineEvent::LabelGenRound {
                dfg_index,
                round,
                ii,
                routing_cells,
                improved,
            } => self.verbose.then(|| match ii {
                Some(ii) => format!(
                    "[lisa]   dfg {dfg_index} round {round}: II={ii} routing={routing_cells}{}",
                    if *improved { " (improved)" } else { "" }
                ),
                None => format!("[lisa]   dfg {dfg_index} round {round}: unmapped"),
            }),
            PipelineEvent::LabelGenFinished {
                dfg_index,
                result,
                resumed,
            } => {
                let suffix = if *resumed { " [resumed]" } else { "" };
                Some(match result {
                    LabelGenResult::Mapped {
                        best_ii,
                        mii,
                        candidates,
                    } => format!(
                        "[lisa]   dfg {dfg_index}: II={best_ii} (MII={mii}), {candidates} candidates{suffix}"
                    ),
                    LabelGenResult::Unmappable => {
                        format!("[lisa]   dfg {dfg_index}: unmappable{suffix}")
                    }
                })
            }
            PipelineEvent::FilterDecision {
                dfg_index,
                accepted,
                quality,
            } => self.verbose.then(|| {
                format!(
                    "[lisa]   dfg {dfg_index}: filter {} (e={quality:.3})",
                    if *accepted { "accept" } else { "reject" }
                )
            }),
            PipelineEvent::EpochLoss {
                network,
                epoch,
                loss,
            } => self
                .verbose
                .then(|| format!("[lisa]   {network} epoch {epoch}: loss {loss:.6}")),
            PipelineEvent::SaSnapshot {
                chain,
                ii,
                temp,
                cost,
                unplaced,
                unrouted,
                accepted,
                attempted,
            } => self.verbose.then(|| {
                format!(
                    "[sa] chain {chain} ii={ii} temp={temp:.4} cost={cost:.2} \
                     unplaced={unplaced} unrouted={unrouted} acc={accepted}/{attempted}"
                )
            }),
            PipelineEvent::ServeEnqueued {
                request,
                queue_depth,
            } => self
                .verbose
                .then(|| format!("[serve] request {request}: enqueued (queue {queue_depth})")),
            PipelineEvent::ServeCacheProbe { request, key, tier } => self
                .verbose
                .then(|| format!("[serve] request {request}: cache {key:016x} -> {tier}")),
            PipelineEvent::ServeAnnealStarted { request } => self
                .verbose
                .then(|| format!("[serve] request {request}: annealing")),
            PipelineEvent::ServeResponded {
                request,
                disposition,
                duration,
            } => Some(format!(
                "[serve] request {request}: {disposition} in {:.1}ms",
                duration.as_secs_f64() * 1e3
            )),
            // Per-movement training pairs are far too chatty even for
            // verbose mode; they belong in JSONL logs.
            PipelineEvent::SaMovementSample { .. } => None,
            PipelineEvent::SaFilterSummary {
                chain,
                ii,
                proposals,
                admitted,
                rejected,
                audited,
                false_rejects,
                router_invocations,
                audit_router_invocations,
            } => self.verbose.then(|| {
                format!(
                    "[sa] chain {chain} ii={ii} filter: proposals={proposals} \
                     admitted={admitted} rejected={rejected} audited={audited} \
                     false_rejects={false_rejects} router_invocations={router_invocations} \
                     audit_router_invocations={audit_router_invocations}"
                )
            }),
            PipelineEvent::StrategyLaneWon {
                ii,
                lane,
                strategy,
                cost,
            } => self.verbose.then(|| {
                format!("[portfolio] ii={ii} lane {lane} ({strategy}) won at cost {cost:.2}")
            }),
        }
    }
}

impl Observer for StderrObserver {
    fn event(&self, event: &PipelineEvent) {
        if let Some(line) = self.render(event) {
            eprintln!("{line}");
        }
    }
}

/// Writes one JSON object per event to a line-oriented log (JSONL).
///
/// Events from parallel annealer chains interleave in arrival order; the
/// determinism contract covers trained weights and mappings, not log
/// ordering.
pub struct JsonlObserver {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlObserver {
    /// Creates (truncating) the log file at `path`.
    pub fn to_file(path: &Path) -> io::Result<Self> {
        Ok(JsonlObserver::to_writer(Box::new(File::create(path)?)))
    }

    /// Wraps an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlObserver {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.writer.lock().unwrap().flush()
    }
}

impl Observer for JsonlObserver {
    fn event(&self, event: &PipelineEvent) {
        let mut writer = self.writer.lock().unwrap();
        // A full log is diagnostics, not data: ignore write errors.
        let _ = writeln!(writer, "{}", event.to_json());
    }
}

impl Drop for JsonlObserver {
    fn drop(&mut self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
    }
}

/// Fans each event out to several observers, in order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Arc<dyn Observer>>,
}

impl MultiObserver {
    /// An observer forwarding to all of `observers`.
    pub fn new(observers: Vec<Arc<dyn Observer>>) -> Self {
        MultiObserver { observers }
    }
}

impl Observer for MultiObserver {
    fn event(&self, event: &PipelineEvent) {
        for observer in &self.observers {
            observer.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn recording_observer_drains_on_take() {
        let rec = RecordingObserver::default();
        rec.event(&PipelineEvent::StageStarted { stage: "x" });
        assert_eq!(rec.take().len(), 1);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn stderr_observer_filters_chatty_events_unless_verbose() {
        let quiet = StderrObserver::new();
        let verbose = StderrObserver::verbose();
        let snapshot = PipelineEvent::SaSnapshot {
            chain: 0,
            ii: 2,
            temp: 1.0,
            cost: 5.0,
            unplaced: 1,
            unrouted: 2,
            accepted: 3,
            attempted: 9,
        };
        assert!(quiet.render(&snapshot).is_none());
        assert!(verbose.render(&snapshot).unwrap().contains("acc=3/9"));
        let milestone = PipelineEvent::StageFinished {
            stage: "TrainNets",
            duration: Duration::from_millis(1500),
        };
        assert!(quiet.render(&milestone).unwrap().contains("TrainNets"));
    }

    #[test]
    fn jsonl_observer_writes_one_line_per_event() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let obs = JsonlObserver::to_writer(Box::new(SharedBuf(buf.clone())));
        obs.event(&PipelineEvent::StageStarted { stage: "a" });
        obs.event(&PipelineEvent::EpochLoss {
            network: "spatial",
            epoch: 3,
            loss: 0.25,
        });
        obs.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage_started\""));
        assert!(lines[1].contains("\"loss\":0.25"));
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(RecordingObserver::default());
        let b = Arc::new(RecordingObserver::default());
        let multi = MultiObserver::new(vec![a.clone(), b.clone()]);
        multi.event(&PipelineEvent::StageStarted { stage: "m" });
        assert_eq!(a.take().len(), 1);
        assert_eq!(b.take().len(), 1);
    }
}
