//! Benches for GNN label inference and training (paper §VI-B: the trained
//! model generates labels "very fast" compared to the iterative method —
//! these benches quantify that).

use lisa_bench::timing::Suite;
use lisa_dfg::polybench;
use lisa_gnn::dataset::{ContextEdgeSample, EdgeSample, NodeGraphSample};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::{PlanScratch, TrainConfig};
use lisa_labels::attributes::{DfgAttributes, EDGE_ATTR_DIM, NODE_ATTR_DIM};

fn schedule_sample() -> NodeGraphSample {
    let dfg = polybench::kernel("syr2k").unwrap();
    let attrs = DfgAttributes::generate(&dfg);
    NodeGraphSample {
        node_attrs: attrs.node.clone(),
        neighbors: DfgAttributes::adjacency(&dfg),
        targets: vec![0.0; dfg.node_count()],
    }
}

fn schedule_train_set(count: usize) -> Vec<NodeGraphSample> {
    let base = schedule_sample();
    (0..count)
        .map(|i| {
            let targets = (0..base.len()).map(|v| ((v + i) % 7) as f64).collect();
            NodeGraphSample {
                targets,
                ..base.clone()
            }
        })
        .collect()
}

fn edge_train_set(count: usize) -> Vec<EdgeSample> {
    (0..count)
        .map(|i| EdgeSample {
            attrs: vec![f64::from((i % 7) as u32); EDGE_ATTR_DIM],
            target: f64::from((i % 5) as u32),
        })
        .collect()
}

fn spatial_train_set(count: usize) -> Vec<ContextEdgeSample> {
    (0..count)
        .map(|i| ContextEdgeSample {
            attrs: vec![f64::from((i % 5) as u32) + 0.5; EDGE_ATTR_DIM],
            neighbor_attrs: (0..(i % 4) + 1)
                .map(|k| vec![f64::from(k as u32) + 0.5; EDGE_ATTR_DIM])
                .collect(),
            target: f64::from((i % 3) as u32),
        })
        .collect()
}

fn main() {
    let mut suite = Suite::from_args("gnn");
    let train_cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::paper()
    };

    // Inference throughput (predictions/sec = 1e9 / median_ns). The
    // predict entries run the serving path — compiled plans on the
    // thread's warm scratch.
    let net_plan = ScheduleOrderNet::new(NODE_ATTR_DIM, 0).compile();
    let sample = schedule_sample();
    suite.bench("schedule_order/predict_syr2k", || {
        PlanScratch::with(|s| std::hint::black_box(net_plan.predict(s, &sample)));
    });

    let mlp_plan = EdgeMlp::new(EDGE_ATTR_DIM, 0).compile();
    let attrs = vec![1.0; EDGE_ATTR_DIM];
    suite.bench("edge_mlp/predict", || {
        PlanScratch::with(|s| std::hint::black_box(mlp_plan.predict(s, &attrs)));
    });

    let spatial_plan = SpatialNet::new(EDGE_ATTR_DIM, 0).compile();
    let ctx = &spatial_train_set(8)[3];
    suite.bench("spatial/predict", || {
        PlanScratch::with(|s| std::hint::black_box(spatial_plan.predict(s, ctx)));
    });

    // Training-epoch throughput: one full epoch over a fixed set, fresh
    // net per iteration so Adam state never carries across iterations.
    let schedule_samples = schedule_train_set(8);
    suite.bench("schedule_order/train_epoch_8", || {
        let mut net = ScheduleOrderNet::new(NODE_ATTR_DIM, 1);
        std::hint::black_box(net.train(&schedule_samples, &train_cfg));
    });

    let edge_samples = edge_train_set(64);
    suite.bench("edge_mlp/train_epoch_64", || {
        let mut net = EdgeMlp::new(EDGE_ATTR_DIM, 1);
        std::hint::black_box(net.train(&edge_samples, &train_cfg));
    });

    let spatial_samples = spatial_train_set(48);
    suite.bench("spatial/train_epoch_48", || {
        let mut net = SpatialNet::new(EDGE_ATTR_DIM, 1);
        std::hint::black_box(net.train(&spatial_samples, &train_cfg));
    });

    suite.finish();
}
