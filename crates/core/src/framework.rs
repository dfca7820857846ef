//! The end-to-end LISA framework (paper Fig. 2).
//!
//! [`Lisa::train_for`] runs the left and middle columns of Fig. 2 for one
//! accelerator: generate synthetic DFGs, derive labels with the iterative
//! mapping method, filter them, and train the four GNN label networks.
//! The resulting [`Lisa`] instance then serves the right column: given a
//! new DFG, [`Lisa::predict_labels`] derives the labels in milliseconds
//! and [`Lisa::map_capped`] runs the label-aware simulated annealing with
//! them.

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_labels::attributes::{DUMMY_ATTR_DIM, EDGE_ATTR_DIM, NODE_ATTR_DIM};
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{GuidanceLabels, LabelSaMapper, Mapping, MappingOutcome, StrategySpec};

use crate::compiled::CompiledModel;
use crate::pipeline::{Pipeline, TrainError};
use crate::report::{LabelAccuracy, TrainingStats};
use crate::request::fnv1a64;
use crate::LisaConfig;

/// A LISA instance trained for one accelerator.
///
/// # Example
///
/// ```no_run
/// use lisa_arch::Accelerator;
/// use lisa_core::{Lisa, LisaConfig};
/// use lisa_dfg::polybench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let acc = Accelerator::cgra("4x4", 4, 4);
/// let lisa = Lisa::train_for(&acc, &LisaConfig::default())?;
/// let dfg = polybench::kernel("gemm")?;
/// let (outcome, _mapping) = lisa.map_capped(&dfg, &acc, acc.max_ii());
/// println!("gemm on 4x4: II = {:?}", outcome.ii);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lisa {
    accelerator_name: String,
    config: LisaConfig,
    schedule_net: ScheduleOrderNet,
    same_level_net: EdgeMlp,
    spatial_net: SpatialNet,
    temporal_net: EdgeMlp,
    /// The four networks frozen into tape-free plans at construction;
    /// every label prediction this instance serves runs on these.
    compiled: CompiledModel,
    /// FNV-1a 64 of the model's `lisa-model v1` text, taken once when
    /// the instance is built or imported (see [`Lisa::digest`]).
    digest: u64,
    stats: TrainingStats,
}

impl Lisa {
    /// Trains LISA for an accelerator: Fig. 2's training-data generation
    /// and GNN-model construction, plus the Table II holdout evaluation.
    ///
    /// This is the unobserved, uncheckpointed run of the staged
    /// [`Pipeline`]; build one directly to attach an observer or to
    /// checkpoint and resume.
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyDataset`] when no labelled DFG survives the
    /// §V-C filter — nothing to train on.
    pub fn train_for(acc: &Accelerator, config: &LisaConfig) -> Result<Lisa, TrainError> {
        let lisa = Pipeline::new(acc, config.clone())
            .run()?
            .expect("pipeline without stop_after runs to completion");
        Ok(lisa)
    }

    /// Assembles an instance from trained parts (the pipeline's final
    /// stage), with `compiled` frozen from the four networks, and takes
    /// its digest from one export.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        accelerator_name: String,
        config: LisaConfig,
        schedule_net: ScheduleOrderNet,
        same_level_net: EdgeMlp,
        spatial_net: SpatialNet,
        temporal_net: EdgeMlp,
        compiled: CompiledModel,
        stats: TrainingStats,
    ) -> Lisa {
        let mut lisa = Lisa {
            accelerator_name,
            config,
            schedule_net,
            same_level_net,
            spatial_net,
            temporal_net,
            compiled,
            digest: 0,
            stats,
        };
        lisa.digest = fnv1a64(lisa.export_model().as_bytes());
        lisa
    }

    /// Name of the accelerator this instance was trained for.
    pub fn accelerator_name(&self) -> &str {
        &self.accelerator_name
    }

    /// FNV-1a 64 of this model's `lisa-model v1` text: of the text
    /// [`Lisa::import_model`] parsed, or of [`Lisa::export_model`] for a
    /// model the pipeline trained. For a file `export_model` wrote the two
    /// agree. Taken once, so callers keying caches by the model (the
    /// serving daemon) need not re-serialise it.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Training statistics, including the Table II accuracy row.
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// Derives the four guidance labels for a new DFG with the trained
    /// GNNs (Fig. 2 right: milliseconds instead of the iterative method's
    /// minutes). Runs on the networks' compiled plans, frozen when the
    /// instance was built — no tape, no graph dispatch — with output
    /// bit-identical to the networks' training forward.
    ///
    /// Predictions are post-processed for mapper consumption: spatial
    /// distances are clamped to ≥ 0 and temporal distances to ≥ 1
    /// (causality).
    pub fn predict_labels(&self, dfg: &Dfg) -> GuidanceLabels {
        self.compiled.predict(dfg)
    }

    /// The inference-time mapper for `dfg`: the label-aware annealer on
    /// the labels this model predicts for it, racing `strategy`'s lanes,
    /// with the configured annealer parameters and `seed`. Attach a
    /// movement filter or an observer to it before driving its II search.
    pub fn mapper(&self, dfg: &Dfg, seed: u64, strategy: &StrategySpec) -> LabelSaMapper {
        LabelSaMapper::new(self.predict_labels(dfg), self.config.sa.clone(), seed)
            .with_strategy(strategy.clone())
    }

    /// Serialises the trained model (the four label networks) to the
    /// sectioned text format of [`crate::ModelImportError`]'s module.
    /// Training statistics are not persisted.
    pub fn export_model(&self) -> String {
        crate::model_io::assemble(
            &self.accelerator_name,
            [
                self.schedule_net.export_weights(),
                self.same_level_net.export_weights(),
                self.spatial_net.export_weights(),
                self.temporal_net.export_weights(),
            ],
        )
    }

    /// Reconstructs a trained model from [`Self::export_model`] output
    /// and records the FNV-1a 64 of `text` as its [`Lisa::digest`].
    /// The configuration supplies the inference-time annealer parameters;
    /// training statistics are reset (the model was not trained here).
    ///
    /// # Errors
    ///
    /// Fails on malformed input or architecture mismatch.
    pub fn import_model(config: &LisaConfig, text: &str) -> Result<Lisa, crate::ModelImportError> {
        let (accelerator_name, parts) = crate::model_io::disassemble(text)?;
        let mut schedule_net = ScheduleOrderNet::new(NODE_ATTR_DIM, 0);
        let mut same_level_net = EdgeMlp::new(DUMMY_ATTR_DIM, 0);
        let mut spatial_net = SpatialNet::new(EDGE_ATTR_DIM, 0);
        let mut temporal_net = EdgeMlp::new(EDGE_ATTR_DIM, 0);
        let wrap = |section: &'static str| {
            move |source| crate::ModelImportError::BadWeights { section, source }
        };
        schedule_net
            .import_weights(&parts[0])
            .map_err(wrap("schedule_order"))?;
        same_level_net
            .import_weights(&parts[1])
            .map_err(wrap("same_level"))?;
        spatial_net
            .import_weights(&parts[2])
            .map_err(wrap("spatial"))?;
        temporal_net
            .import_weights(&parts[3])
            .map_err(wrap("temporal"))?;
        let compiled =
            CompiledModel::freeze(&schedule_net, &same_level_net, &spatial_net, &temporal_net);
        Ok(Lisa {
            accelerator_name,
            config: config.clone(),
            schedule_net,
            same_level_net,
            spatial_net,
            temporal_net,
            compiled,
            digest: fnv1a64(text.as_bytes()),
            stats: TrainingStats {
                dfgs_generated: 0,
                dfgs_labelled: 0,
                dfgs_kept: 0,
                dfgs_holdout: 0,
                final_losses: [None; 4],
                accuracy: LabelAccuracy { values: [None; 4] },
            },
        })
    }

    /// Maps a DFG with GNN-predicted labels and the label-aware SA, driving
    /// the ascending II search up to `max_ii` with the configured seed,
    /// strategy and parallelism. Returns the outcome metrics and, on
    /// success, the mapping.
    pub fn map_capped<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        max_ii: u32,
    ) -> (MappingOutcome, Option<Mapping<'a>>) {
        self.map_request(
            dfg,
            acc,
            self.config.seed,
            max_ii,
            &self.config.strategy,
            self.config.parallelism,
        )
    }

    /// Maps with an explicit seed, II cap, strategy mix, and worker
    /// budget — the pool-friendly entry point: `&self` is shared
    /// read-only, so one warm model can serve many concurrent requests,
    /// each with its own seed, lane mix, and thread budget, without
    /// cloning the networks.
    pub fn map_request<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        seed: u64,
        max_ii: u32,
        strategy: &StrategySpec,
        parallelism: usize,
    ) -> (MappingOutcome, Option<Mapping<'a>>) {
        let mapper = self.mapper(dfg, seed, strategy);
        IiSearch {
            max_ii: Some(max_ii),
        }
        .run(&mapper, dfg, acc, parallelism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;
    use lisa_labels::TrainingSet;
    use lisa_mapper::MovementScorer;
    use std::sync::Arc;

    fn trained_fast() -> (Lisa, Accelerator) {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        (lisa, acc)
    }

    #[test]
    fn end_to_end_training_and_mapping() {
        let (lisa, acc) = trained_fast();
        assert_eq!(lisa.accelerator_name(), "4x4");
        let stats = lisa.stats();
        assert!(stats.dfgs_kept > 0, "no training DFGs survived");
        assert!(stats.dfgs_labelled >= stats.dfgs_kept);

        let dfg = polybench::kernel("doitgen").unwrap();
        let labels = lisa.predict_labels(&dfg);
        assert!(labels.matches(&dfg));
        assert!(labels.temporal.iter().all(|&t| t >= 1.0));
        assert!(labels.spatial.iter().all(|&s| s >= 0.0));

        let (outcome, mapping) = lisa.map_capped(&dfg, &acc, 8);
        assert!(outcome.mapped(), "LISA should map doitgen on 4x4");
        mapping.unwrap().verify().unwrap();
    }

    /// Admits everything whose first feature is below one half — enough
    /// to exercise both gate outcomes on real movements.
    #[derive(Debug)]
    struct HalfScorer;

    impl MovementScorer for HalfScorer {
        fn admit(&self, features: &[f64], _temp: f64) -> bool {
            features.first().copied().unwrap_or(0.0) < 0.5
        }
    }

    #[test]
    fn filtered_mapping_verifies_and_is_thread_count_invariant() {
        let (lisa, acc) = trained_fast();
        let dfg = polybench::kernel("doitgen").unwrap();
        let mapper = lisa
            .mapper(&dfg, 2022, &StrategySpec::default())
            .with_movement_filter(Arc::new(HalfScorer));
        let search = IiSearch { max_ii: Some(8) };
        let (outcome, mapping) = search.run(&mapper, &dfg, &acc, 1);
        assert!(outcome.mapped(), "filtered LISA should still map doitgen");
        let seq = mapping.unwrap();
        seq.verify().unwrap();
        let (outcome4, mapping4) = search.run(&mapper, &dfg, &acc, 4);
        assert_eq!(outcome.ii, outcome4.ii);
        assert_eq!(format!("{seq:?}"), format!("{:?}", mapping4.unwrap()));
    }

    #[test]
    fn accuracy_values_are_fractions() {
        let (lisa, _) = trained_fast();
        for v in lisa.stats().accuracy.values {
            let v = v.expect("non-empty holdout yields a measured accuracy");
            assert!((0.0..=1.0).contains(&v), "accuracy {v} out of range");
        }
    }

    #[test]
    fn empty_eval_split_reports_not_applicable() {
        // Regression: a fully-filtered (empty) eval split used to feed the
        // 0.0 empty-input sentinel straight into the Table II row, which
        // reads as "0% accurate". It must render "n/a" instead.
        let schedule = ScheduleOrderNet::new(NODE_ATTR_DIM, 1);
        let same_level = EdgeMlp::new(DUMMY_ATTR_DIM, 2);
        let spatial = SpatialNet::new(EDGE_ATTR_DIM, 3);
        let temporal = EdgeMlp::new(EDGE_ATTR_DIM, 4);
        let empty = TrainingSet::default();
        let acc =
            CompiledModel::freeze(&schedule, &same_level, &spatial, &temporal).accuracy(&empty);
        assert_eq!(acc.values, [None; 4]);
        let row = acc.table_row("4x4");
        assert!(row.contains("n/a"), "row was {row:?}");
        assert!(!row.contains("0.000"), "row was {row:?}");
    }

    #[test]
    fn imported_model_has_no_fake_metrics() {
        let (lisa, _) = trained_fast();
        let restored = Lisa::import_model(&LisaConfig::fast(), &lisa.export_model()).unwrap();
        assert_eq!(restored.stats().accuracy.values, [None; 4]);
        assert_eq!(restored.stats().final_losses, [None; 4]);
        assert_eq!(restored.stats().losses_summary(), "[n/a n/a n/a n/a]");
    }

    #[test]
    fn deterministic_training() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let a = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        let b = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        let dfg = polybench::kernel("doitgen").unwrap();
        assert_eq!(a.predict_labels(&dfg), b.predict_labels(&dfg));
    }

    #[test]
    fn training_is_parallelism_invariant() {
        // The determinism contract at the framework level: the worker
        // budget spreads label generation across DFGs and changes wall
        // clock, never the trained model or the mapping.
        let acc = Accelerator::cgra("3x3", 3, 3);
        let sequential = LisaConfig {
            parallelism: 1,
            ..LisaConfig::fast()
        };
        let parallel = LisaConfig {
            parallelism: 4,
            ..LisaConfig::fast()
        };
        let a = Lisa::train_for(&acc, &sequential).unwrap();
        let b = Lisa::train_for(&acc, &parallel).unwrap();
        assert_eq!(a.export_model(), b.export_model());
        let dfg = polybench::kernel("doitgen").unwrap();
        assert_eq!(a.predict_labels(&dfg), b.predict_labels(&dfg));
        let (oa, _) = a.map_capped(&dfg, &acc, 8);
        let (ob, _) = b.map_capped(&dfg, &acc, 8);
        assert_eq!(oa.ii, ob.ii);
        assert_eq!(oa.routing_cells, ob.routing_cells);
        assert_eq!(oa.attempts, ob.attempts);
    }
}

#[cfg(test)]
mod model_io_tests {
    use super::*;
    use lisa_dfg::polybench;

    #[test]
    fn export_import_roundtrip_preserves_predictions() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        let text = lisa.export_model();
        let restored = Lisa::import_model(&LisaConfig::fast(), &text).unwrap();
        assert_eq!(restored.accelerator_name(), "3x3");
        let dfg = polybench::kernel("gemm").unwrap();
        assert_eq!(lisa.predict_labels(&dfg), restored.predict_labels(&dfg));
    }

    #[test]
    fn imported_digest_matches_the_export_it_was_read_from() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        let text = lisa.export_model();
        assert_eq!(lisa.digest(), fnv1a64(text.as_bytes()));
        let restored = Lisa::import_model(&LisaConfig::fast(), &text).unwrap();
        assert_eq!(restored.digest(), fnv1a64(text.as_bytes()));
        assert_eq!(
            restored.digest(),
            fnv1a64(restored.export_model().as_bytes())
        );
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(Lisa::import_model(&LisaConfig::fast(), "not a model").is_err());
    }

    #[test]
    fn import_rejects_dimension_mismatched_weights() {
        // A structurally valid model whose schedule_order dump comes from
        // a different architecture (wrong input width) must fail with
        // BadWeights naming the section — never panic or load silently.
        let wrong = ScheduleOrderNet::new(NODE_ATTR_DIM + 1, 9).export_weights();
        let ok_sl = EdgeMlp::new(DUMMY_ATTR_DIM, 0).export_weights();
        let ok_sp = SpatialNet::new(EDGE_ATTR_DIM, 0).export_weights();
        let ok_tp = EdgeMlp::new(EDGE_ATTR_DIM, 0).export_weights();
        let text = crate::model_io::assemble("4x4", [wrong, ok_sl, ok_sp, ok_tp]);
        let err = Lisa::import_model(&LisaConfig::fast(), &text).unwrap_err();
        assert!(
            matches!(
                err,
                crate::ModelImportError::BadWeights {
                    section: "schedule_order",
                    ..
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn import_rejects_swapped_sections() {
        // Spatial weights in the temporal slot: shapes differ, so the
        // mismatch must surface as BadWeights for that section.
        let acc = Accelerator::cgra("3x3", 3, 3);
        let lisa = Lisa::train_for(&acc, &LisaConfig::fast()).unwrap();
        let text = lisa.export_model();
        let swapped = text
            .replace("=== spatial ===", "=== HOLD ===")
            .replace("=== temporal ===", "=== spatial ===")
            .replace("=== HOLD ===", "=== temporal ===");
        let err = Lisa::import_model(&LisaConfig::fast(), &swapped).unwrap_err();
        assert!(
            matches!(err, crate::ModelImportError::BadWeights { .. }),
            "unexpected error: {err}"
        );
    }
}
