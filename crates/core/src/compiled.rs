//! Frozen inference for the four label networks.
//!
//! A trained [`crate::Lisa`] never mutates its networks again, so
//! [`CompiledModel::freeze`] lowers each network into a flat, tape-free
//! op sequence (`lisa-gnn`'s compiled plans) once, at construction time.
//! [`CompiledModel::predict`] then derives a DFG's labels with no graph
//! dispatch and no per-call parameter copies, bit-identical to each
//! network's training forward (pinned by `lisa-gnn`'s plan tests).

use lisa_dfg::Dfg;
use lisa_gnn::dataset::{ContextEdgeSample, NodeGraphSample};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::{CompiledEdgeMlp, CompiledScheduleOrder, CompiledSpatial, PlanScratch};
use lisa_labels::attributes::DfgAttributes;
use lisa_mapper::GuidanceLabels;

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
}
