//! Integration tests for the staged training pipeline: checkpoint
//! artifacts, kill-and-resume byte-identity, and typed failures.

use std::path::PathBuf;
use std::sync::Arc;

use lisa::arch::Accelerator;
use lisa::core::{
    Lisa, LisaConfig, Pipeline, Stage, TrainError, DATASET_FILE, DFGS_FILE, MODEL_FILE,
};
use lisa::events::{EventSink, PipelineEvent, RecordingObserver};

/// A pipeline config small enough to run three times in one test.
fn tiny_config() -> LisaConfig {
    LisaConfig {
        training_dfgs: 6,
        ..LisaConfig::fast()
    }
}

/// [`tiny_config`] with an explicit worker budget.
fn tiny_config_at(parallelism: usize) -> LisaConfig {
    LisaConfig {
        parallelism,
        ..tiny_config()
    }
}

/// Fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lisa-pipeline-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resumed_run_exports_a_byte_identical_model() {
    let acc = Accelerator::cgra("4x4", 4, 4);

    // Reference: one cold, uncheckpointed, single-worker run.
    let cold = Pipeline::new(&acc, tiny_config_at(1))
        .run()
        .unwrap()
        .expect("cold run completes");
    let cold_model = cold.export_model();
    for parallelism in [1, 4] {
        kill_and_resume(&acc, tiny_config_at(parallelism), &cold_model);
    }
}

/// Checkpoints a run through the label stage, chops its dataset file
/// mid-entry, as a kill during a flush would, resumes it, and checks
/// that the resumed model is `cold_model`.
fn kill_and_resume(acc: &Accelerator, config: LisaConfig, cold_model: &str) {
    let parallelism = config.parallelism;
    let dir = scratch(&format!("resume-{parallelism}"));
    let stopped = Pipeline::new(acc, config.clone())
        .with_checkpoint_dir(&dir)
        .stop_after(Stage::GenerateLabels)
        .run()
        .unwrap();
    assert!(stopped.is_none(), "stop_after returns no model");
    let dataset_path = dir.join(DATASET_FILE);
    let full = std::fs::read_to_string(&dataset_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let cut = lines.len() * 3 / 5;
    std::fs::write(&dataset_path, format!("{}\n", lines[..cut].join("\n"))).unwrap();

    // Resume and observe which entries were recovered vs regenerated.
    let recorder = Arc::new(RecordingObserver::default());
    let resumed = Pipeline::new(acc, config)
        .with_checkpoint_dir(&dir)
        .with_observer(EventSink::new(recorder.clone()))
        .run()
        .unwrap()
        .expect("resumed run completes");

    assert_eq!(
        resumed.export_model(),
        cold_model,
        "{parallelism} workers: resumed model differs from the cold run"
    );
    // The Evaluate stage persisted the same bytes.
    assert_eq!(
        std::fs::read_to_string(dir.join(MODEL_FILE)).unwrap(),
        cold_model
    );
    let events = recorder.take();
    let resumed_entries = events
        .iter()
        .filter(|e| matches!(e, PipelineEvent::LabelGenFinished { resumed: true, .. }))
        .count();
    let fresh_entries = events
        .iter()
        .filter(|e| matches!(e, PipelineEvent::LabelGenFinished { resumed: false, .. }))
        .count();
    assert!(resumed_entries >= 1, "no entry was recovered");
    assert!(fresh_entries >= 1, "no entry was regenerated");
    assert_eq!(resumed_entries + fresh_entries, 6);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_a_kill_at_any_rewrite_point() {
    // Regression for the checkpoint crash window: resume used to truncate
    // the dataset file and re-append the recovered entries, so a kill
    // between the truncate and the last re-append destroyed the
    // checkpoint. Now the rewrite either truncates only the torn tail in
    // place or goes through an atomic rename, so a kill at any point —
    // including immediately after a resume opened the file — leaves a
    // recoverable dataset that still trains to a byte-identical model.
    let acc = Accelerator::cgra("4x4", 4, 4);
    let config = tiny_config();
    let cold_model = Pipeline::new(&acc, config.clone())
        .run()
        .unwrap()
        .expect("cold run completes")
        .export_model();

    let dir = scratch("crash-window");
    Pipeline::new(&acc, config.clone())
        .with_checkpoint_dir(&dir)
        .stop_after(Stage::GenerateLabels)
        .run()
        .unwrap();
    let dataset_path = dir.join(DATASET_FILE);
    let full = std::fs::read_to_string(&dataset_path).unwrap();

    // Kill points: header only, an exact entry boundary, and mid-entry;
    // each resumed on one worker and on four.
    let boundary = full[full.len() / 3..]
        .find("end entry\n")
        .map(|i| full.len() / 3 + i + "end entry\n".len())
        .expect("dataset has an entry boundary");
    let header_len = full.match_indices('\n').nth(2).map(|(i, _)| i + 1).unwrap();
    for parallelism in [1, 4] {
        for (label, cut) in [
            ("header-only", header_len),
            ("entry-boundary", boundary),
            ("mid-entry", boundary + 37),
        ] {
            std::fs::write(&dataset_path, &full[..cut]).unwrap();

            // Simulate a resume that is itself killed right after
            // reopening the checkpoint, before appending anything: the
            // file must stay recoverable for the next attempt.
            let recovered = lisa::labels::parse_dataset_partial(
                &std::fs::read_to_string(&dataset_path).unwrap(),
            )
            .unwrap();
            let writer =
                lisa::labels::DatasetWriter::resume(&dataset_path, "4x4", 6, &recovered.entries)
                    .unwrap();
            drop(writer);

            let resumed = Pipeline::new(&acc, tiny_config_at(parallelism))
                .with_checkpoint_dir(&dir)
                .run()
                .unwrap()
                .expect("resumed run completes");
            assert_eq!(
                resumed.export_model(),
                cold_model,
                "kill point {label}, {parallelism} workers: resumed model differs from the cold run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_run_leaves_complete_artifacts() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dir = scratch("artifacts");
    let lisa = Pipeline::new(&acc, tiny_config())
        .with_checkpoint_dir(&dir)
        .run()
        .unwrap()
        .expect("run completes");

    let dfgs =
        lisa::dfg::text::parse_dfg_set(&std::fs::read_to_string(dir.join(DFGS_FILE)).unwrap())
            .unwrap();
    assert_eq!(dfgs.len(), 6);
    let dataset =
        lisa::labels::parse_dataset(&std::fs::read_to_string(dir.join(DATASET_FILE)).unwrap())
            .unwrap();
    assert!(dataset.is_complete());
    assert_eq!(dataset.accelerator, "4x4");
    for (entry, dfg) in dataset.entries.iter().zip(&dfgs) {
        assert_eq!(&entry.dfg, dfg, "dataset and DFG artifacts disagree");
    }
    let model_text = std::fs::read_to_string(dir.join(MODEL_FILE)).unwrap();
    assert_eq!(model_text, lisa.export_model());
    let restored = Lisa::import_model(&tiny_config(), &model_text).unwrap();
    assert_eq!(restored.accelerator_name(), "4x4");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_surviving_dataset_is_a_typed_error() {
    // A 1x1 fabric with a capped config depth cannot map the 6-12 node
    // training DFGs, so nothing survives and training must fail loudly.
    let acc = Accelerator::cgra("1x1", 1, 1).with_max_ii(2);
    let err = Lisa::train_for(&acc, &tiny_config()).unwrap_err();
    match err {
        TrainError::EmptyDataset {
            generated,
            labelled,
        } => {
            assert_eq!(generated, 6);
            assert_eq!(labelled, 0);
        }
        other => panic!("expected EmptyDataset, got {other}"),
    }
}

#[test]
fn resume_rejects_a_mismatched_checkpoint() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dir = scratch("mismatch");
    Pipeline::new(&acc, tiny_config())
        .with_checkpoint_dir(&dir)
        .stop_after(Stage::GenerateLabels)
        .run()
        .unwrap();

    // A different seed regenerates different DFGs: resuming must refuse
    // rather than silently splice datasets from two different runs.
    let other_seed = LisaConfig {
        seed: 777,
        ..tiny_config()
    };
    let err = Pipeline::new(&acc, other_seed)
        .with_checkpoint_dir(&dir)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, TrainError::ResumeMismatch { .. }),
        "expected ResumeMismatch, got {err}"
    );

    // A different accelerator must be refused too.
    let other_acc = Accelerator::cgra("3x3", 3, 3);
    let err = Pipeline::new(&other_acc, tiny_config())
        .with_checkpoint_dir(&dir)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, TrainError::ResumeMismatch { .. }),
        "expected ResumeMismatch, got {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observer_does_not_change_the_trained_model() {
    let acc = Accelerator::cgra("3x3", 3, 3);
    let config = tiny_config();
    let silent = Pipeline::new(&acc, config.clone()).run().unwrap().unwrap();
    let recorder = Arc::new(RecordingObserver::default());
    let observed = Pipeline::new(&acc, config)
        .with_observer(EventSink::new(recorder.clone()))
        .run()
        .unwrap()
        .unwrap();
    assert_eq!(silent.export_model(), observed.export_model());

    // The stage events bracket the run in order.
    let events = recorder.take();
    let stages: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::StageStarted { stage } => Some(*stage),
            _ => None,
        })
        .collect();
    let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(stages, expected);
    assert!(events
        .iter()
        .any(|e| matches!(e, PipelineEvent::EpochLoss { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, PipelineEvent::FilterDecision { .. })));
}

#[test]
fn dataset_checkpoint_bytes_do_not_depend_on_parallelism() {
    // Workers finish DFGs out of order; the calling thread appends them
    // in index order, so the checkpoint is the same file at any worker
    // count.
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dataset_at = |parallelism: usize| {
        let dir = scratch(&format!("dataset-bytes-{parallelism}"));
        Pipeline::new(&acc, tiny_config_at(parallelism))
            .with_checkpoint_dir(&dir)
            .stop_after(Stage::GenerateLabels)
            .run()
            .unwrap();
        let bytes = std::fs::read(dir.join(DATASET_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let sequential = dataset_at(1);
    assert!(!sequential.is_empty());
    assert!(
        sequential == dataset_at(4),
        "the dataset checkpoint differs between 1 and 4 workers"
    );
}

#[test]
fn epoch_loss_stream_does_not_depend_on_parallelism() {
    // The four networks train side by side, but their epoch losses reach
    // the observer in network order, epochs ascending, at any worker
    // count. The DFGs' labels are generated side by side too, and their
    // progress events reach it in DFG order.
    let acc = Accelerator::cgra("3x3", 3, 3);
    let streams_at = |parallelism: usize| {
        let recorder = Arc::new(RecordingObserver::default());
        Pipeline::new(&acc, tiny_config_at(parallelism))
            .with_observer(EventSink::new(recorder.clone()))
            .run()
            .unwrap()
            .unwrap();
        let (epoch_losses, label_gen): (Vec<_>, Vec<_>) = recorder
            .take()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    PipelineEvent::EpochLoss { .. }
                        | PipelineEvent::LabelGenRound { .. }
                        | PipelineEvent::LabelGenFinished { .. }
                )
            })
            .partition(|e| matches!(e, PipelineEvent::EpochLoss { .. }));
        (epoch_losses, label_gen)
    };
    let (sequential, label_gen) = streams_at(1);
    assert_eq!((sequential.clone(), label_gen.clone()), streams_at(4));
    let finished: Vec<usize> = label_gen
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::LabelGenFinished { dfg_index, .. } => Some(*dfg_index),
            _ => None,
        })
        .collect();
    assert_eq!(
        finished,
        (0..tiny_config().training_dfgs).collect::<Vec<_>>()
    );

    let epochs = tiny_config().train.epochs;
    let order: Vec<(&str, usize)> = sequential
        .iter()
        .map(|e| match e {
            PipelineEvent::EpochLoss { network, epoch, .. } => (*network, *epoch),
            _ => unreachable!("filtered to epoch losses"),
        })
        .collect();
    let expected: Vec<(&str, usize)> = ["schedule_order", "same_level", "spatial", "temporal"]
        .into_iter()
        .flat_map(|network| (0..epochs).map(move |epoch| (network, epoch)))
        .collect();
    assert_eq!(order, expected);
}
