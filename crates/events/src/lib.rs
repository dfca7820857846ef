//! Structured observability for the LISA training pipeline.
//!
//! Every long-running stage of the framework — synthetic DFG generation,
//! iterative label generation, GNN training, the annealer itself — emits
//! [`PipelineEvent`]s through an [`EventSink`] handle instead of printing
//! ad-hoc `eprintln!` lines or reading debug environment variables. A
//! sink is a cheap clonable handle around an [`Observer`]; the null sink
//! costs one branch per event, so hot paths stay observable without a
//! measurable tax when nobody is listening.
//!
//! The crate sits below every other workspace member (it depends only on
//! `std`), so the mapper, the GNN stack, the label generator, and the
//! end-to-end pipeline all speak the same event vocabulary.
//!
//! Shipped observers:
//!
//! * [`StderrObserver`] — human-readable progress lines (the replacement
//!   for the bench harness's ad-hoc `eprintln!` calls and the old
//!   `LISA_SA_DEBUG` env-var path);
//! * [`JsonlObserver`] — one JSON object per line, for machine-readable
//!   experiment logs;
//! * [`MultiObserver`] — fans one event out to several observers.
//!
//! # Example
//!
//! ```
//! use lisa_events::{EventSink, PipelineEvent, RecordingObserver};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(RecordingObserver::default());
//! let sink = EventSink::new(recorder.clone());
//! sink.emit(PipelineEvent::StageStarted { stage: "GenerateDfgs" });
//! assert_eq!(recorder.take().len(), 1);
//! ```

mod event;
mod observers;

pub use event::{LabelGenResult, PipelineEvent};
pub use observers::{JsonlObserver, MultiObserver, RecordingObserver, StderrObserver};

use std::fmt;
use std::sync::Arc;

/// Receives every event a pipeline run produces. Implementations must be
/// thread-safe: the parallel II search and the label generator emit from
/// worker threads.
pub trait Observer: Send + Sync {
    /// Handles one event. Called synchronously from the emitting stage;
    /// keep it cheap (buffer, don't block).
    fn event(&self, event: &PipelineEvent);
}

/// A cheap, clonable handle to an optional [`Observer`].
///
/// The default (null) sink drops every event after a single branch, so
/// the observability layer can be threaded through hot paths
/// unconditionally.
#[derive(Clone, Default)]
pub struct EventSink(Option<Arc<dyn Observer>>);

impl EventSink {
    /// The null sink: every event is discarded.
    pub fn null() -> Self {
        EventSink(None)
    }

    /// A sink forwarding to the given observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        EventSink(Some(observer))
    }

    /// Whether anyone is listening. Stages may skip building expensive
    /// event payloads when this is `false`.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Emits one event (no-op on the null sink).
    pub fn emit(&self, event: PipelineEvent) {
        self.forward(&event);
    }

    /// Passes a borrowed event on (no-op on the null sink): for observers
    /// that relay the events they do not keep, without cloning them.
    pub fn forward(&self, event: &PipelineEvent) {
        if let Some(observer) = &self.0 {
            observer.event(event);
        }
    }
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_active() {
            "EventSink(active)"
        } else {
            "EventSink(null)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_discards_and_reports_inactive() {
        let sink = EventSink::null();
        assert!(!sink.is_active());
        sink.emit(PipelineEvent::StageStarted { stage: "x" });
    }

    #[test]
    fn active_sink_forwards_events() {
        let recorder = Arc::new(RecordingObserver::default());
        let sink = EventSink::new(recorder.clone());
        assert!(sink.is_active());
        sink.emit(PipelineEvent::StageStarted { stage: "a" });
        sink.emit(PipelineEvent::StageFinished {
            stage: "a",
            duration: std::time::Duration::from_millis(3),
        });
        let events = recorder.take();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            PipelineEvent::StageStarted { stage: "a" }
        ));
    }

    #[test]
    fn clones_share_the_observer() {
        let recorder = Arc::new(RecordingObserver::default());
        let sink = EventSink::new(recorder.clone());
        let clone = sink.clone();
        clone.emit(PipelineEvent::StageStarted { stage: "b" });
        assert_eq!(recorder.take().len(), 1);
    }

    #[test]
    fn debug_formats_by_activity() {
        assert_eq!(format!("{:?}", EventSink::null()), "EventSink(null)");
        let sink = EventSink::new(Arc::new(RecordingObserver::default()));
        assert_eq!(format!("{sink:?}"), "EventSink(active)");
    }
}
