//! Frozen inference for the four label networks.
//!
//! A trained [`crate::Lisa`] never mutates its networks again, so
//! [`CompiledModel::freeze`] lowers each network into a flat, tape-free
//! op sequence (`lisa-gnn`'s compiled plans) once, at construction time.
//! [`CompiledModel::predict`] then derives a DFG's labels with no graph
//! dispatch and no per-call parameter copies, bit-identical to each
//! network's training forward (pinned by `lisa-gnn`'s plan tests). The
//! pipeline scores the Table II holdout with the same plans
//! ([`CompiledModel::accuracy`]) before it hands them to the instance.

use lisa_dfg::Dfg;
use lisa_gnn::dataset::{ContextEdgeSample, NodeGraphSample};
use lisa_gnn::metrics::{try_accuracy, LabelKind};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::{CompiledEdgeMlp, CompiledScheduleOrder, CompiledSpatial, PlanScratch};
use lisa_labels::attributes::DfgAttributes;
use lisa_labels::TrainingSet;
use lisa_mapper::GuidanceLabels;

use crate::report::LabelAccuracy;

/// The four label networks frozen into compiled inference plans.
#[derive(Debug, Clone)]
pub(crate) struct CompiledModel {
    schedule: CompiledScheduleOrder,
    same_level: CompiledEdgeMlp,
    spatial: CompiledSpatial,
    temporal: CompiledEdgeMlp,
}

impl CompiledModel {
    /// Snapshots the current weights of the four networks into plans.
    pub(crate) fn freeze(
        schedule: &ScheduleOrderNet,
        same_level: &EdgeMlp,
        spatial: &SpatialNet,
        temporal: &EdgeMlp,
    ) -> CompiledModel {
        CompiledModel {
            schedule: schedule.compile(),
            same_level: same_level.compile(),
            spatial: spatial.compile(),
            temporal: temporal.compile(),
        }
    }

    /// Derives the four guidance labels for a DFG (Fig. 2 right).
    ///
    /// Predictions are post-processed for mapper consumption: spatial
    /// distances are clamped to ≥ 0 and temporal distances to ≥ 1
    /// (causality).
    pub(crate) fn predict(&self, dfg: &Dfg) -> GuidanceLabels {
        // One warm scratch serves every prediction of this call; its
        // buffers are sized by the first prediction per shape and
        // reused thereafter.
        PlanScratch::with(|scratch| {
            let attrs = DfgAttributes::generate(dfg);
            let node_sample = NodeGraphSample {
                node_attrs: attrs.node.clone(),
                neighbors: DfgAttributes::adjacency(dfg),
                targets: vec![0.0; dfg.node_count()],
            };
            let schedule_order = self.schedule.predict(scratch, &node_sample);

            let same_level = attrs
                .dummy_edges
                .iter()
                .zip(&attrs.dummy)
                .map(|(d, a)| (d.a, d.b, self.same_level.predict(scratch, a).max(0.0)))
                .collect();

            let mut spatial = Vec::with_capacity(dfg.edge_count());
            let mut temporal = Vec::with_capacity(dfg.edge_count());
            for e in dfg.edge_ids() {
                let ctx = ContextEdgeSample {
                    attrs: attrs.edge[e.index()].clone(),
                    neighbor_attrs: attrs.edge_neighborhood(dfg, e),
                    target: 0.0,
                };
                let sp = self.spatial.predict(scratch, &ctx).max(0.0);
                // Physical consistency: a value moves at most one hop per
                // cycle, so the expected temporal distance can never be
                // below the expected spatial distance (extracted training
                // labels satisfy this by construction; predictions must
                // too).
                let tp = self
                    .temporal
                    .predict(scratch, &attrs.edge[e.index()])
                    .max(1.0)
                    .max(sp);
                spatial.push(sp);
                temporal.push(tp);
            }

            GuidanceLabels {
                schedule_order,
                same_level,
                spatial,
                temporal,
            }
        })
    }
    /// The Table II accuracy row of the four networks on `set`, swept
    /// with one warm scratch. An empty split yields `None` for its
    /// label, rendered "n/a" instead of a fake 0.0 score.
    pub(crate) fn accuracy(&self, set: &TrainingSet) -> LabelAccuracy {
        let (order_preds, order_truths, sl_preds, sp_preds, tp_preds) =
            PlanScratch::with(|scratch| {
                let mut order_preds = Vec::new();
                let mut order_truths = Vec::new();
                for g in &set.node_graphs {
                    order_preds.extend(self.schedule.predict(scratch, g));
                    order_truths.extend(g.targets.iter().copied());
                }
                let sl_preds: Vec<f64> = set
                    .same_level
                    .iter()
                    .map(|s| self.same_level.predict(scratch, &s.attrs))
                    .collect();
                let sp_preds: Vec<f64> = set
                    .spatial
                    .iter()
                    .map(|s| self.spatial.predict(scratch, s))
                    .collect();
                let tp_preds: Vec<f64> = set
                    .temporal
                    .iter()
                    .map(|s| self.temporal.predict(scratch, &s.attrs))
                    .collect();
                (order_preds, order_truths, sl_preds, sp_preds, tp_preds)
            });
        let sl_truths: Vec<f64> = set.same_level.iter().map(|s| s.target).collect();
        let sp_truths: Vec<f64> = set.spatial.iter().map(|s| s.target).collect();
        let tp_truths: Vec<f64> = set.temporal.iter().map(|s| s.target).collect();
        LabelAccuracy {
            values: [
                try_accuracy(LabelKind::ScheduleOrder, &order_preds, &order_truths),
                try_accuracy(LabelKind::SameLevel, &sl_preds, &sl_truths),
                try_accuracy(LabelKind::Spatial, &sp_preds, &sp_truths),
                try_accuracy(LabelKind::Temporal, &tp_preds, &tp_truths),
            ],
        }
    }
}
