//! Training numerics are pinned.
//!
//! The trainer splits each batch into fixed micro-batch units and adds
//! each unit's gradient sink to the store in ascending unit order. These
//! tests train each model once and compare the byte-exact serialised
//! weights against a golden FNV-1a digest, so they pin the summation tree
//! across revisions.
//!
//! The datasets deliberately include the edge cases of the forward and
//! backward passes: empty neighbourhoods (ν = 1, no gradient into `Wν`),
//! neighbourhoods whose sum is exactly zero (the guarded reciprocal),
//! isolated graph nodes (zero pooled columns), and a last batch that ends
//! in a partial micro-batch.

use lisa_gnn::dataset::{ContextEdgeSample, EdgeSample, NodeGraphSample};
use lisa_gnn::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};
use lisa_gnn::TrainConfig;

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 25,
        batch_size: 16,
        shuffle_seed: 5,
        ..TrainConfig::paper()
    }
}

/// Checks the FNV-1a 64 digest of a trained model's serialised weights
/// against `golden`.
fn assert_pinned(golden: u64, weights: &str) {
    let digest = weights.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(digest, golden, "trained weights moved: {digest:#018x}");
}

#[test]
fn edge_mlp_training_is_pinned() {
    // 53 samples in batches of 16: the last batch is one partial
    // micro-batch of 5.
    let samples: Vec<EdgeSample> = (0..53)
        .map(|i| EdgeSample {
            attrs: vec![f64::from(i % 5), f64::from(i % 3), 0.25 * f64::from(i % 7)],
            target: f64::from(i % 4),
        })
        .collect();
    let mut net = EdgeMlp::new(3, 2);
    net.train(&samples, &config());
    assert_pinned(0x2176_18d9_51f1_85c4, &net.export_weights());
}

#[test]
fn schedule_order_training_is_pinned() {
    let samples: Vec<NodeGraphSample> = (0..24)
        .map(|c| {
            let n = 3 + c % 4;
            let mut node_attrs: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64, 1.0, (n - i) as f64])
                .collect();
            let mut neighbors = vec![Vec::new(); n];
            for i in 0..n - 1 {
                neighbors[i].push(i + 1);
                neighbors[i + 1].push(i);
            }
            let mut targets: Vec<f64> = (0..n).map(|i| i as f64).collect();
            // Every third graph gains an isolated node.
            if c % 3 == 0 {
                node_attrs.push(vec![0.5, -1.0, 2.0]);
                neighbors.push(Vec::new());
                targets.push(0.0);
            }
            NodeGraphSample {
                node_attrs,
                neighbors,
                targets,
            }
        })
        .collect();
    let mut net = ScheduleOrderNet::new(3, 2);
    net.train(&samples, &config());
    assert_pinned(0x63f0_2f00_995f_3c88, &net.export_weights());
}

#[test]
fn spatial_training_is_pinned() {
    // Every fourth sample has an empty neighbourhood; the five extra
    // samples have neighbourhoods summing to exactly zero. 41 samples in
    // batches of 16 end in a partial micro-batch of 1.
    let samples: Vec<ContextEdgeSample> = (0..41)
        .map(|i| {
            let a = f64::from((i % 4) as u32) + 0.5;
            let neighbor_attrs = if i < 36 {
                (0..i % 4).map(|k| vec![a + k as f64, 1.0]).collect()
            } else {
                vec![vec![a, 1.0], vec![-a, -1.0]]
            };
            ContextEdgeSample {
                attrs: vec![a, f64::from((i % 3) as u32)],
                neighbor_attrs,
                target: f64::from((i % 5) as u32),
            }
        })
        .collect();
    let mut net = SpatialNet::new(2, 2);
    net.train(&samples, &config());
    assert_pinned(0xe0cc_c508_e552_e776, &net.export_weights());
}
