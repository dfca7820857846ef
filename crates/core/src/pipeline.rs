//! The staged training pipeline behind [`Lisa::train_for`].
//!
//! Training (paper Fig. 2, left and middle columns) is decomposed into
//! five explicit stages:
//!
//! 1. [`Stage::GenerateDfgs`] — synthesise the raw training DFGs (§V-A);
//! 2. [`Stage::GenerateLabels`] — the iterative label generation (§V-B),
//!    the time-dominant step;
//! 3. [`Stage::FilterAndSplit`] — the §V-C quality filter and the
//!    train/holdout split;
//! 4. [`Stage::TrainNets`] — the four GNN label networks (§IV-B, §VI-B);
//! 5. [`Stage::Evaluate`] — the Table II holdout accuracy row.
//!
//! [`LisaConfig::parallelism`] is the pipeline's one worker budget. Label
//! generation streams DFGs through the in-order fan-out
//! ([`par_stream`]): workers pull DFG indices from one shared cursor and
//! the calling thread appends each finished entry in index order. The
//! four label networks train side by side through [`par_map`], each on
//! one thread. Neither the artifacts, the trained weights nor the order
//! of the training events depend on the worker count; at 1 every stage
//! runs inline on the calling thread.
//!
//! Each stage consumes and produces plain data, reports through the
//! [`EventSink`], and — when a checkpoint directory is configured —
//! persists its artifact in a versioned text format:
//!
//! | artifact | format | written by |
//! |---|---|---|
//! | [`DFGS_FILE`] | `lisa-dfg-set v1` | GenerateDfgs |
//! | [`DATASET_FILE`] | `lisa-dataset v1` | GenerateLabels (incremental) |
//! | [`MODEL_FILE`] | `lisa-model v1` | Evaluate |
//!
//! The dataset artifact is flushed entry-by-entry, so a run killed during
//! label generation leaves a recoverable prefix: the next run with the
//! same configuration parses it leniently, verifies every recovered DFG
//! against the regenerated ones (a config or seed mismatch is a
//! [`TrainError::ResumeMismatch`], never silent corruption), and picks up
//! at the first missing entry. Because per-DFG label generation is
//! deterministic and floats round-trip byte-identically, a resumed run
//! exports the same model bytes as a cold run (pinned by
//! `tests/pipeline.rs`).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_dfg::{random, text as dfg_text, Dfg};
use lisa_events::{EventSink, LabelGenResult, Observer, PipelineEvent, RecordingObserver};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::TrainReport;
use lisa_labels::attributes::{DUMMY_ATTR_DIM, EDGE_ATTR_DIM, NODE_ATTR_DIM};
use lisa_labels::dataset::{self, DatasetEntry, DatasetParseError, DatasetWriter};
use lisa_labels::{filter, generate_labels_with, TrainingSet};
use lisa_mapper::portfolio::{par_map, par_stream};
use lisa_mapper::GuidanceLabels;

use crate::compiled::CompiledModel;
use crate::framework::Lisa;
use crate::report::TrainingStats;
use crate::LisaConfig;

/// Checkpoint artifact: the generated DFG set (`lisa-dfg-set v1`).
pub const DFGS_FILE: &str = "dfgs.lisa-dfg";
/// Checkpoint artifact: the labelled dataset (`lisa-dataset v1`),
/// flushed one entry at a time.
pub const DATASET_FILE: &str = "labels.lisa-dataset";
/// Checkpoint artifact: the trained model (`lisa-model v1`).
pub const MODEL_FILE: &str = "model.lisa-model";

/// The five stages of the training pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Synthetic DFG generation (§V-A).
    GenerateDfgs,
    /// Iterative label generation (§V-B).
    GenerateLabels,
    /// Quality filter and train/holdout split (§V-C).
    FilterAndSplit,
    /// GNN training (§IV-B, §VI-B).
    TrainNets,
    /// Table II holdout evaluation.
    Evaluate,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 5] = [
        Stage::GenerateDfgs,
        Stage::GenerateLabels,
        Stage::FilterAndSplit,
        Stage::TrainNets,
        Stage::Evaluate,
    ];

    /// Stable snake_case name, used in stage events and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Stage::GenerateDfgs => "generate_dfgs",
            Stage::GenerateLabels => "generate_labels",
            Stage::FilterAndSplit => "filter_and_split",
            Stage::TrainNets => "train_nets",
            Stage::Evaluate => "evaluate",
        }
    }

    /// Parses a stage name; accepts the canonical [`Stage::name`] plus a
    /// short alias (`dfgs`, `labels`, `filter`, `train`, `eval`).
    pub fn from_name(s: &str) -> Option<Stage> {
        match s {
            "generate_dfgs" | "dfgs" => Some(Stage::GenerateDfgs),
            "generate_labels" | "labels" => Some(Stage::GenerateLabels),
            "filter_and_split" | "filter" => Some(Stage::FilterAndSplit),
            "train_nets" | "train" => Some(Stage::TrainNets),
            "evaluate" | "eval" => Some(Stage::Evaluate),
            _ => None,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a training run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// No labelled DFG survived the §V-C filter — there is nothing to
    /// train on. Carries the counts so callers can suggest a fix
    /// (more DFGs, looser filter, bigger fabric).
    EmptyDataset {
        /// DFGs generated in total.
        generated: usize,
        /// DFGs that produced labels at all (before the filter).
        labelled: usize,
    },
    /// A checkpoint file could not be read or written.
    Io(io::Error),
    /// The dataset checkpoint's header was unreadable (lenient recovery
    /// only requires the three header lines).
    Dataset(DatasetParseError),
    /// The checkpoint disagrees with this run's configuration, so
    /// resuming from it would silently produce a different model.
    ResumeMismatch {
        /// Human-readable description of the disagreement.
        reason: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset {
                generated,
                labelled,
            } => write!(
                f,
                "no labelled DFG survived the filter ({labelled} of {generated} generated DFGs \
                 were labelled); generate more DFGs, loosen the filter, or enlarge the fabric"
            ),
            TrainError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            TrainError::Dataset(e) => write!(f, "dataset checkpoint: {e}"),
            TrainError::ResumeMismatch { reason } => {
                write!(f, "checkpoint does not match this configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Io(e) => Some(e),
            TrainError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Io(e)
    }
}

impl From<DatasetParseError> for TrainError {
    fn from(e: DatasetParseError) -> Self {
        TrainError::Dataset(e)
    }
}

/// The staged training pipeline. [`Lisa::train_for`] is a thin wrapper
/// over `Pipeline::new(acc, config).run()`; build one directly to attach
/// an observer, checkpoint/resume through a directory, or stop after an
/// intermediate stage.
///
/// # Example
///
/// ```no_run
/// use lisa_arch::Accelerator;
/// use lisa_core::{LisaConfig, Pipeline};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let acc = Accelerator::cgra("4x4", 4, 4);
/// let lisa = Pipeline::new(&acc, LisaConfig::fast())
///     .with_checkpoint_dir("checkpoints/4x4")
///     .run()?
///     .expect("no stop_after configured");
/// println!("accuracy: {:?}", lisa.stats().accuracy);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pipeline<'a> {
    acc: &'a Accelerator,
    config: LisaConfig,
    sink: EventSink,
    checkpoint: Option<PathBuf>,
    stop_after: Option<Stage>,
}

impl<'a> Pipeline<'a> {
    /// A pipeline with no observer and no checkpointing — exactly the
    /// behaviour of [`Lisa::train_for`].
    pub fn new(acc: &'a Accelerator, config: LisaConfig) -> Self {
        Pipeline {
            acc,
            config,
            sink: EventSink::null(),
            checkpoint: None,
            stop_after: None,
        }
    }

    /// Streams [`PipelineEvent`]s to `sink` (threaded down into the label
    /// generator, the annealer, and the GNN training loops). Events are
    /// pure observations: the trained model is identical with any sink.
    pub fn with_observer(mut self, sink: EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Persists stage artifacts under `dir` (created on demand) and
    /// resumes label generation from a recoverable [`DATASET_FILE`]
    /// prefix left by an earlier (possibly killed) run.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Stops after `stage` completes (and its artifact is flushed);
    /// [`Pipeline::run`] then returns `Ok(None)`. Used to checkpoint the
    /// expensive label-generation step on its own.
    pub fn stop_after(mut self, stage: Stage) -> Self {
        self.stop_after = Some(stage);
        self
    }

    /// Runs the stages in order. Returns `Ok(None)` when a
    /// [`Pipeline::stop_after`] bound ended the run early, otherwise the
    /// trained [`Lisa`].
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyDataset`] when nothing survives the filter;
    /// I/O, parse, and mismatch errors from checkpointing and resume.
    pub fn run(self) -> Result<Option<Lisa>, TrainError> {
        let dfgs = self.timed(Stage::GenerateDfgs, || self.generate_dfgs())?;
        if self.stop_after == Some(Stage::GenerateDfgs) {
            return Ok(None);
        }
        let entries = self.timed(Stage::GenerateLabels, || self.generate_labels(&dfgs))?;
        if self.stop_after == Some(Stage::GenerateLabels) {
            return Ok(None);
        }
        let split = self.timed(Stage::FilterAndSplit, || self.filter_and_split(&entries))?;
        if self.stop_after == Some(Stage::FilterAndSplit) {
            return Ok(None);
        }
        let nets = self.timed(Stage::TrainNets, || Ok(self.train_nets(&split.train)))?;
        if self.stop_after == Some(Stage::TrainNets) {
            return Ok(None);
        }
        let lisa = self.timed(Stage::Evaluate, || self.evaluate(dfgs.len(), &split, nets))?;
        Ok(Some(lisa))
    }

    /// Runs one stage body between its started/finished events.
    fn timed<T>(
        &self,
        stage: Stage,
        body: impl FnOnce() -> Result<T, TrainError>,
    ) -> Result<T, TrainError> {
        self.sink.emit(PipelineEvent::StageStarted {
            stage: stage.name(),
        });
        let started = Instant::now();
        let out = body()?;
        self.sink.emit(PipelineEvent::StageFinished {
            stage: stage.name(),
            duration: started.elapsed(),
        });
        Ok(out)
    }

    /// Stage 1: raw DFG generation (§V-A).
    fn generate_dfgs(&self) -> Result<Vec<Dfg>, TrainError> {
        let dfgs = random::generate_dataset(
            &self.config.dfg,
            self.config.seed,
            self.config.training_dfgs,
        );
        if self.sink.is_active() {
            for (index, dfg) in dfgs.iter().enumerate() {
                self.sink.emit(PipelineEvent::DfgGenerated {
                    index,
                    nodes: dfg.node_count(),
                    edges: dfg.edge_count(),
                });
            }
        }
        if let Some(dir) = &self.checkpoint {
            fs::create_dir_all(dir)?;
            fs::write(dir.join(DFGS_FILE), dfg_text::write_dfg_set(&dfgs))?;
        }
        Ok(dfgs)
    }

    /// Stage 2: iterative label generation with incremental
    /// checkpointing and resume.
    ///
    /// Up to `parallelism` workers pull the missing DFG indices from one
    /// shared cursor ([`par_stream`]); the calling thread appends and
    /// flushes each finished entry in index order as soon as every
    /// earlier entry is in, so the checkpoint is always a prefix — the
    /// same bytes at any worker count — and a slow DFG holds back only
    /// the appends, never the other workers. Per-DFG generation is
    /// independent and seeded via the config, so the worker count never
    /// changes the entries. Each DFG's progress events
    /// ([`PipelineEvent::LabelGenRound`], [`PipelineEvent::LabelGenFinished`])
    /// are held by a [`ProgressBuffer`] and emitted with its entry, so
    /// they too arrive in index order at any worker count.
    fn generate_labels(&self, dfgs: &[Dfg]) -> Result<Vec<DatasetEntry>, TrainError> {
        let mut entries: Vec<DatasetEntry> = Vec::new();
        let mut writer = None;
        if let Some(dir) = &self.checkpoint {
            fs::create_dir_all(dir)?;
            let path = dir.join(DATASET_FILE);
            entries = self.recover_entries(&path, dfgs)?;
            // Reopen crash-safely: truncate only the torn tail in place,
            // or atomically replace via tmp+rename — never truncate and
            // re-append, which would destroy the checkpoint if this run
            // were killed mid-rewrite.
            writer = Some(DatasetWriter::resume(
                &path,
                self.acc.name(),
                dfgs.len(),
                &entries,
            )?);
        }
        if self.sink.is_active() {
            for (dfg_index, entry) in entries.iter().enumerate() {
                self.sink.emit(PipelineEvent::LabelGenFinished {
                    dfg_index,
                    result: entry_result(entry),
                    resumed: true,
                });
            }
        }
        let missing: Vec<usize> = (entries.len()..dfgs.len()).collect();
        let active = self.sink.is_active();
        par_stream(
            self.config.parallelism,
            missing,
            |_, i| {
                let dfg = &dfgs[i];
                let progress = Arc::new(ProgressBuffer {
                    downstream: self.sink.clone(),
                    held: RecordingObserver::default(),
                });
                let sink = if active {
                    EventSink::new(progress.clone())
                } else {
                    EventSink::null()
                };
                let outcome = generate_labels_with(dfg, self.acc, &self.config.iter_gen, i, &sink);
                let entry = DatasetEntry {
                    dfg: dfg.clone(),
                    outcome,
                };
                (entry, progress.held.take())
            },
            |_, (entry, progress)| {
                for event in progress {
                    self.sink.emit(event);
                }
                if let Some(w) = &mut writer {
                    w.append(&entry)?;
                }
                entries.push(entry);
                Ok::<(), TrainError>(())
            },
        )?;
        Ok(entries)
    }

    /// Parses a (possibly truncated) dataset checkpoint and verifies it
    /// against this run's configuration: the accelerator name, the
    /// planned entry count, and every recovered DFG must match what the
    /// run would generate itself.
    fn recover_entries(&self, path: &Path, dfgs: &[Dfg]) -> Result<Vec<DatasetEntry>, TrainError> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let recovered = dataset::parse_dataset_partial(&text)?;
        if recovered.accelerator != self.acc.name() {
            return Err(TrainError::ResumeMismatch {
                reason: format!(
                    "checkpoint targets accelerator `{}`, this run targets `{}`",
                    recovered.accelerator,
                    self.acc.name()
                ),
            });
        }
        if recovered.declared_count != dfgs.len() || recovered.entries.len() > dfgs.len() {
            return Err(TrainError::ResumeMismatch {
                reason: format!(
                    "checkpoint plans {} entries ({} present), this run generates {}",
                    recovered.declared_count,
                    recovered.entries.len(),
                    dfgs.len()
                ),
            });
        }
        for (i, entry) in recovered.entries.iter().enumerate() {
            if entry.dfg != dfgs[i] {
                return Err(TrainError::ResumeMismatch {
                    reason: format!(
                        "entry {i}'s DFG differs from the regenerated DFG \
                         (different dfg config or seed?)"
                    ),
                });
            }
        }
        Ok(recovered.entries)
    }

    /// Stage 3: the §V-C filter and the train/holdout split.
    fn filter_and_split(&self, entries: &[DatasetEntry]) -> Result<SplitSets, TrainError> {
        let mut labelled: Vec<(&Dfg, &GuidanceLabels)> = Vec::new();
        let mut labelled_count = 0;
        for (dfg_index, entry) in entries.iter().enumerate() {
            let Some(generated) = &entry.outcome else {
                continue;
            };
            labelled_count += 1;
            let accepted = filter::accept(generated, &self.config.filter);
            if self.sink.is_active() {
                self.sink.emit(PipelineEvent::FilterDecision {
                    dfg_index,
                    accepted,
                    quality: filter::quality(generated, &self.config.filter),
                });
            }
            if accepted {
                labelled.push((&entry.dfg, &generated.labels));
            }
        }
        if labelled.is_empty() {
            return Err(TrainError::EmptyDataset {
                generated: entries.len(),
                labelled: labelled_count,
            });
        }

        // Split by graph, so no leakage between sample types. A fifth of
        // the graphs is held out for the Table II accuracy evaluation.
        const HOLDOUT_FRACTION: f64 = 0.2;
        let holdout_len = ((labelled.len() as f64) * HOLDOUT_FRACTION).round() as usize;
        let holdout_len = holdout_len.min(labelled.len().saturating_sub(1));
        let (train_graphs, holdout_graphs) = labelled.split_at(labelled.len() - holdout_len);

        let mut train = TrainingSet::new();
        for (dfg, labels) in train_graphs {
            train.push(dfg, labels);
        }
        let mut holdout = TrainingSet::new();
        for (dfg, labels) in holdout_graphs {
            holdout.push(dfg, labels);
        }
        Ok(SplitSets {
            train,
            holdout,
            labelled: labelled_count,
            kept: train_graphs.len() + holdout_graphs.len(),
            holdout_graphs: holdout_graphs.len(),
        })
    }

    /// Stage 4: the four label networks (§IV-B, §VI-B), trained side by
    /// side on up to `parallelism` workers ([`par_map`]), schedule_order
    /// first because it takes longest. Each network trains on one thread
    /// with its own store and shuffle stream, so its weights do not
    /// depend on the worker count. With an active sink each network's
    /// events are buffered and emitted after the join in network order
    /// (schedule_order, same_level, spatial, temporal), so the event
    /// stream does not depend on it either.
    fn train_nets(&self, train_set: &TrainingSet) -> TrainedNets {
        let train_cfg = &self.config.train;
        let seed = self.config.seed;
        let mut schedule_net = ScheduleOrderNet::new(NODE_ATTR_DIM, seed ^ 0x1);
        let mut same_level_net = EdgeMlp::new(DUMMY_ATTR_DIM, seed ^ 0x2);
        let mut spatial_net = SpatialNet::new(EDGE_ATTR_DIM, seed ^ 0x3);
        let mut temporal_net = EdgeMlp::new(EDGE_ATTR_DIM, seed ^ 0x4);

        let jobs: Vec<TrainJob<'_>> = vec![
            Box::new(|sink| {
                schedule_net.train_observed(
                    &train_set.node_graphs,
                    train_cfg,
                    "schedule_order",
                    sink,
                )
            }),
            Box::new(|sink| {
                same_level_net.train_observed(&train_set.same_level, train_cfg, "same_level", sink)
            }),
            Box::new(|sink| {
                spatial_net.train_observed(&train_set.spatial, train_cfg, "spatial", sink)
            }),
            Box::new(|sink| {
                temporal_net.train_observed(&train_set.temporal, train_cfg, "temporal", sink)
            }),
        ];
        let active = self.sink.is_active();
        let trained = par_map(self.config.parallelism, jobs, |_, train| {
            let buffer = Arc::new(RecordingObserver::default());
            let sink = if active {
                EventSink::new(buffer.clone())
            } else {
                EventSink::null()
            };
            let report = train(&sink);
            (report.final_loss(), buffer.take())
        });
        // A non-finite loss (empty split, diverged net) records as None
        // so it renders "n/a" instead of leaking NaN into tables.
        let mut final_losses = [None; 4];
        for (slot, (loss, events)) in final_losses.iter_mut().zip(trained) {
            *slot = finite(loss);
            for event in events {
                self.sink.emit(event);
            }
        }
        TrainedNets {
            schedule_net,
            same_level_net,
            spatial_net,
            temporal_net,
            final_losses,
        }
    }

    /// Stage 5: the Table II holdout accuracy, the final [`Lisa`]
    /// assembly, and the model artifact.
    fn evaluate(
        &self,
        dfgs_generated: usize,
        split: &SplitSets,
        nets: TrainedNets,
    ) -> Result<Lisa, TrainError> {
        let eval_set = if split.holdout.is_empty() {
            &split.train
        } else {
            &split.holdout
        };
        // Frozen once: the holdout is scored with the plans the
        // instance then serves.
        let compiled = CompiledModel::freeze(
            &nets.schedule_net,
            &nets.same_level_net,
            &nets.spatial_net,
            &nets.temporal_net,
        );
        let accuracy = compiled.accuracy(eval_set);
        let stats = TrainingStats {
            dfgs_generated,
            dfgs_labelled: split.labelled,
            dfgs_kept: split.kept,
            dfgs_holdout: split.holdout_graphs,
            final_losses: nets.final_losses,
            accuracy,
        };
        let lisa = Lisa::from_parts(
            self.acc.name().to_string(),
            self.config.clone(),
            nets.schedule_net,
            nets.same_level_net,
            nets.spatial_net,
            nets.temporal_net,
            compiled,
            stats,
        );
        if let Some(dir) = &self.checkpoint {
            fs::create_dir_all(dir)?;
            fs::write(dir.join(MODEL_FILE), lisa.export_model())?;
        }
        Ok(lisa)
    }
}

/// The sink of one label-generation worker: holds the DFG's progress
/// events (`LabelGenRound`, `LabelGenFinished`) for the in-order consumer
/// and passes the annealer's events straight on, so a DFG never buffers
/// its per-movement samples.
struct ProgressBuffer {
    downstream: EventSink,
    held: RecordingObserver,
}

impl Observer for ProgressBuffer {
    fn event(&self, event: &PipelineEvent) {
        match event {
            PipelineEvent::LabelGenRound { .. } | PipelineEvent::LabelGenFinished { .. } => {
                self.held.event(event);
            }
            _ => self.downstream.forward(event),
        }
    }
}

/// Output of [`Stage::FilterAndSplit`].
struct SplitSets {
    train: TrainingSet,
    holdout: TrainingSet,
    labelled: usize,
    kept: usize,
    holdout_graphs: usize,
}

/// One label network's training run, handed the sink its events go to.
type TrainJob<'a> = Box<dyn FnOnce(&EventSink) -> TrainReport + Send + 'a>;

/// Output of [`Stage::TrainNets`].
struct TrainedNets {
    schedule_net: ScheduleOrderNet,
    same_level_net: EdgeMlp,
    spatial_net: SpatialNet,
    temporal_net: EdgeMlp,
    final_losses: [Option<f64>; 4],
}

/// Keeps a measured, finite metric; maps NaN/inf to "no data".
fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// The [`LabelGenResult`] summarising one dataset entry.
fn entry_result(entry: &DatasetEntry) -> LabelGenResult {
    match &entry.outcome {
        Some(g) => LabelGenResult::Mapped {
            best_ii: g.best_ii,
            mii: g.mii,
            candidates: g.candidate_count,
        },
        None => LabelGenResult::Unmappable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(format!("{stage}"), stage.name());
        }
        assert_eq!(Stage::from_name("labels"), Some(Stage::GenerateLabels));
        assert_eq!(Stage::from_name("eval"), Some(Stage::Evaluate));
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn stages_are_ordered() {
        for pair in Stage::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn train_error_messages_are_actionable() {
        let e = TrainError::EmptyDataset {
            generated: 12,
            labelled: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("3 of 12"), "{msg}");
        let m = TrainError::ResumeMismatch {
            reason: "x".to_string(),
        };
        assert!(m.to_string().contains("does not match"), "{m}");
    }
}
