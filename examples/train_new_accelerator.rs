//! The Fig. 2 pipeline, step by step, for a *new* accelerator — here a
//! 3×5 CGRA that appears nowhere in the paper. This walks the three
//! stages explicitly instead of calling `Lisa::train_for`, so you can see
//! (and customise) each piece. The packaged equivalent — with progress
//! events, checkpointed artifacts, and resume — is
//! `lisa_core::Pipeline`.
//!
//! Run with: `cargo run --release --example train_new_accelerator`

use lisa_arch::Accelerator;
use lisa_dfg::{polybench, random, RandomDfgConfig};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::{PlanScratch, TrainConfig};
use lisa_labels::attributes::{DUMMY_ATTR_DIM, EDGE_ATTR_DIM, NODE_ATTR_DIM};
use lisa_labels::{filter, generate_labels, FilterConfig, IterGenConfig, TrainingSet};
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = Accelerator::cgra("3x5", 3, 5);
    println!("target: {acc}");

    // ── Stage 1: training-data generation (paper §V) ────────────────────
    // Synthetic DFGs, labelled by the iterative partial-label-aware SA,
    // filtered by e = O + σ·N.
    let dfg_config = RandomDfgConfig::default();
    let raw = random::generate_dataset(&dfg_config, 99, 24);
    println!("stage 1: generated {} raw DFGs", raw.len());

    let iter_config = IterGenConfig::fast();
    let filter_config = FilterConfig::default();
    let mut training = TrainingSet::new();
    let mut kept = 0;
    for dfg in &raw {
        if let Some(generated) = generate_labels(dfg, &acc, &iter_config) {
            if filter::accept(&generated, &filter_config) {
                training.push(dfg, &generated.labels);
                kept += 1;
            }
        }
    }
    println!(
        "stage 1: {kept} DFGs survived the label filter \
         ({} node graphs, {} edge samples)",
        training.node_graphs.len(),
        training.temporal.len()
    );

    // ── Stage 2: GNN model construction (paper §IV) ─────────────────────
    let train_cfg = TrainConfig {
        epochs: 60,
        ..TrainConfig::paper()
    };
    let mut schedule_net = ScheduleOrderNet::new(NODE_ATTR_DIM, 1);
    let mut same_level_net = EdgeMlp::new(DUMMY_ATTR_DIM, 2);
    let mut spatial_net = SpatialNet::new(EDGE_ATTR_DIM, 3);
    let mut temporal_net = EdgeMlp::new(EDGE_ATTR_DIM, 4);
    let r1 = schedule_net.train(&training.node_graphs, &train_cfg);
    let r2 = same_level_net.train(&training.same_level, &train_cfg);
    let r3 = spatial_net.train(&training.spatial, &train_cfg);
    let r4 = temporal_net.train(&training.temporal, &train_cfg);
    println!(
        "stage 2: final losses  label1 {:.3}  label2 {:.3}  label3 {:.3}  label4 {:.3}",
        r1.final_loss(),
        r2.final_loss(),
        r3.final_loss(),
        r4.final_loss()
    );

    // ── Stage 3: label-aware mapping of a real kernel (paper §III) ──────
    // Derive labels for a new DFG with the trained nets, frozen into
    // compiled inference plans, and map. (The `Lisa` facade bundles
    // exactly this; shown inline for transparency.)
    let (schedule_plan, same_level_plan) = (schedule_net.compile(), same_level_net.compile());
    let (spatial_plan, temporal_plan) = (spatial_net.compile(), temporal_net.compile());
    let mut scratch = PlanScratch::new();
    let dfg = polybench::kernel("mvt")?;
    let attrs = lisa_labels::DfgAttributes::generate(&dfg);
    let node_sample = lisa_gnn::dataset::NodeGraphSample {
        node_attrs: attrs.node.clone(),
        neighbors: lisa_labels::DfgAttributes::adjacency(&dfg),
        targets: vec![0.0; dfg.node_count()],
    };
    let labels = GuidanceLabels {
        schedule_order: schedule_plan.predict(&mut scratch, &node_sample),
        same_level: attrs
            .dummy_edges
            .iter()
            .zip(&attrs.dummy)
            .map(|(d, a)| (d.a, d.b, same_level_plan.predict(&mut scratch, a).max(0.0)))
            .collect(),
        spatial: dfg
            .edge_ids()
            .map(|e| {
                let ctx = lisa_gnn::dataset::ContextEdgeSample {
                    attrs: attrs.edge[e.index()].clone(),
                    neighbor_attrs: attrs.edge_neighborhood(&dfg, e),
                    target: 0.0,
                };
                spatial_plan.predict(&mut scratch, &ctx).max(0.0)
            })
            .collect(),
        temporal: dfg
            .edge_ids()
            .map(|e| {
                temporal_plan
                    .predict(&mut scratch, &attrs.edge[e.index()])
                    .max(1.0)
            })
            .collect(),
    };
    let mapper = LabelSaMapper::new(labels, SaParams::fast(), 7);
    let outcome = IiSearch { max_ii: Some(12) }.run(&mapper, &dfg, &acc, 1).0;
    println!(
        "stage 3: {} on {} -> II {:?} in {:.2?}",
        dfg.name(),
        acc.name(),
        outcome.ii,
        outcome.compile_time
    );
    Ok(())
}
