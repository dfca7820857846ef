//! The schedule-order network of Eq. 1–2 (label 1).
//!
//! Four message-passing layers; each layer aggregates neighbour messages
//! with a (mean, max, min) pooling triple, projects them with `W1`
//! (Eq. 1), and updates the node state as `h' = W2 (W3 h + m)` (Eq. 2).
//! In the first layer the message is `W0 × Attributes(v)` and the state is
//! an embedding of the attributes, following the paper's initialisation
//! ("the schedule order h⁰ is the ASAP value and m¹ is W1 × Attributes(v)")
//! generalised to `hidden_dim` channels. A linear readout produces the
//! scalar schedule order.

use std::sync::Arc;

use lisa_events::EventSink;

use super::column_stack;
use crate::dataset::NodeGraphSample;
use crate::ops::{Ops, Tape};
use crate::plan::ProgramBuilder;
use crate::train::{run_training, TrainConfig, TrainReport};
use crate::{CsrAdjacency, ParamId, ParamStore, Tensor};

/// Weights of one message-passing layer.
#[derive(Debug, Clone, Copy)]
struct Layer {
    /// Eq. 1 — projects the concatenated (mean, max, min) pooled messages.
    w1: ParamId,
    /// Eq. 2 — outer update projection.
    w2: ParamId,
    /// Eq. 2 — state projection.
    w3: ParamId,
}

/// The node-level GNN predicting schedule order.
///
/// # Example
///
/// ```
/// use lisa_gnn::models::ScheduleOrderNet;
/// use lisa_gnn::dataset::NodeGraphSample;
/// use lisa_gnn::PlanScratch;
///
/// let net = ScheduleOrderNet::new(3, 0);
/// let sample = NodeGraphSample {
///     node_attrs: vec![vec![0.0, 1.0, 2.0], vec![1.0, 0.0, 1.0]],
///     neighbors: vec![vec![1], vec![0]],
///     targets: vec![0.0, 1.0],
/// };
/// let preds = net.compile().predict(&mut PlanScratch::new(), &sample);
/// assert_eq!(preds.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleOrderNet {
    store: ParamStore,
    /// First-layer message projection (attributes → hidden).
    w0: ParamId,
    /// Attribute embedding for the initial state.
    embed: ParamId,
    layers: Vec<Layer>,
    readout: ParamId,
    attr_dim: usize,
}

/// Number of message-passing layers ("a network consisting of four
/// layers", §IV-B).
pub const LAYER_COUNT: usize = 4;

impl ScheduleOrderNet {
    /// Creates the network for nodes with `attr_dim` attributes. The
    /// hidden width equals the attribute width.
    ///
    /// # Panics
    ///
    /// Panics if `attr_dim` is zero.
    pub fn new(attr_dim: usize, seed: u64) -> Self {
        assert!(attr_dim > 0, "attribute dimension must be positive");
        let hidden_dim = attr_dim;
        let mut store = ParamStore::new(seed);
        let w0 = store.alloc(hidden_dim, attr_dim);
        let embed = store.alloc(hidden_dim, attr_dim);
        let layers = (0..LAYER_COUNT)
            .map(|_| Layer {
                w1: store.alloc(hidden_dim, 3 * hidden_dim),
                w2: store.alloc(hidden_dim, hidden_dim),
                w3: store.alloc(hidden_dim, hidden_dim),
            })
            .collect();
        let readout = store.alloc(1, hidden_dim);
        ScheduleOrderNet {
            store,
            w0,
            embed,
            layers,
            readout,
            attr_dim,
        }
    }

    /// The expected node-attribute dimension.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// Total learnable weights.
    pub fn weight_count(&self) -> usize {
        self.store.weight_count()
    }

    /// Serialises the learned weights (see [`crate::io`]).
    pub fn export_weights(&self) -> String {
        crate::io::store_to_text(&self.store)
    }

    /// Restores weights exported by [`Self::export_weights`] from a model
    /// of the same architecture.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or architecture mismatch; the model is
    /// unchanged on error.
    pub fn import_weights(&mut self, text: &str) -> Result<(), crate::io::ParseParamsError> {
        crate::io::load_store_from_text(&mut self.store, text)
    }

    /// Column-stacks the sample's node attributes into an
    /// `attr_dim × n` batch matrix.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent samples or mismatched attribute dimension.
    fn sample_matrix(&self, sample: &NodeGraphSample) -> Tensor {
        assert!(sample.is_consistent(), "inconsistent sample");
        column_stack(self.attr_dim, sample.node_attrs.iter().map(Vec::as_slice))
    }

    /// The network's one forward definition, over all nodes of a graph
    /// at once; returns the 1×n prediction row.
    fn forward<O: Ops>(&self, o: &mut O) -> O::Var {
        let w0 = o.weight(self.w0);
        let embed = o.weight(self.embed);
        let x = o.input();
        let mut h = o.matmul(embed, x);
        let mut m = o.matmul(w0, x);
        for layer in &self.layers {
            let w1 = o.weight(layer.w1);
            let w2 = o.weight(layer.w2);
            let w3 = o.weight(layer.w3);
            // Eq. 1: aggregate neighbour messages with the fused
            // (mean, max, min) gather; isolated nodes get zero columns.
            let pooled = o.gather_pool(m);
            let mv = o.matmul(w1, pooled);
            // Eq. 2: h' = W2 (W3 h + m').
            let w3h = o.matmul(w3, h);
            let inner = o.add(w3h, mv);
            h = o.matmul(w2, inner);
            m = mv;
        }
        let r = o.weight(self.readout);
        o.matmul(r, h)
    }

    /// Reference for the compiled plan's bit-identity tests: the
    /// training forward on a fresh tape.
    #[cfg(test)]
    pub(crate) fn forward_one(&self, sample: &NodeGraphSample) -> Vec<f64> {
        let mut g = crate::Graph::new();
        let adj = CsrAdjacency::from_neighbors(&sample.neighbors);
        let tape = Tape::new(&mut g, &self.store, self.sample_matrix(sample));
        let out = self.forward(&mut tape.with_adjacency(&adj));
        g.value(out).data().to_vec()
    }

    /// Freezes the current weights into a tape-free inference plan (see
    /// [`crate::CompiledScheduleOrder`]); predictions are bit-identical
    /// to the training forward. Later training of `self` does not affect
    /// the returned plan.
    pub fn compile(&self) -> crate::CompiledScheduleOrder {
        let mut p = ProgramBuilder::new(&self.store);
        let y = self.forward(&mut p);
        crate::CompiledScheduleOrder::new(p.finish(y), self.attr_dim)
    }

    /// Trains on graph samples; the per-sample loss is the mean squared
    /// error over that sample's nodes.
    pub fn train(&mut self, samples: &[NodeGraphSample], config: &TrainConfig) -> TrainReport {
        self.train_observed(samples, config, "schedule_order", &EventSink::null())
    }

    /// Like [`ScheduleOrderNet::train`], emitting a per-epoch loss event
    /// to `sink` under the caller-supplied `network` name.
    pub fn train_observed(
        &mut self,
        samples: &[NodeGraphSample],
        config: &TrainConfig,
        network: &'static str,
        sink: &EventSink,
    ) -> TrainReport {
        let net = self.clone();
        // Per-sample batch matrices, CSR adjacencies, and targets are
        // shuffle-invariant: build them once and share them across
        // epochs (CSR rows and targets are Arc-backed).
        let prepared: Vec<(Tensor, CsrAdjacency, Arc<[f64]>, f64)> = samples
            .iter()
            .map(|s| {
                (
                    net.sample_matrix(s),
                    CsrAdjacency::from_neighbors(&s.neighbors),
                    s.targets.clone().into(),
                    1.0 / s.len().max(1) as f64,
                )
            })
            .collect();
        // Micro-batch of 1: batching is across the nodes within a sample.
        run_training(
            &mut self.store,
            samples.len(),
            config,
            1,
            network,
            sink,
            |g, store, unit| {
                let (x, adj, targets, inv_n) = &prepared[unit[0]];
                let p = net.forward(&mut Tape::new(g, store, x.clone()).with_adjacency(adj));
                g.row_squared_error(p, targets.clone(), *inv_n)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanScratch;

    fn predict(net: &ScheduleOrderNet, sample: &NodeGraphSample) -> Vec<f64> {
        net.compile().predict(&mut PlanScratch::new(), sample)
    }

    /// Chain graphs where the target equals the node's depth, recoverable
    /// from attribute 0 (which we set to the depth).
    fn chain_samples(count: usize) -> Vec<NodeGraphSample> {
        (0..count)
            .map(|c| {
                let n = 4 + c % 3;
                let node_attrs: Vec<Vec<f64>> = (0..n)
                    .map(|i| vec![i as f64, 1.0, (n - i) as f64])
                    .collect();
                let mut neighbors = vec![Vec::new(); n];
                for i in 0..n - 1 {
                    neighbors[i].push(i + 1);
                    neighbors[i + 1].push(i);
                }
                let targets = (0..n).map(|i| i as f64).collect();
                NodeGraphSample {
                    node_attrs,
                    neighbors,
                    targets,
                }
            })
            .collect()
    }

    #[test]
    fn output_shape_matches_nodes() {
        let net = ScheduleOrderNet::new(3, 0);
        let s = &chain_samples(1)[0];
        assert_eq!(predict(&net, s).len(), s.len());
    }

    #[test]
    fn training_reduces_loss() {
        let samples = chain_samples(12);
        let mut net = ScheduleOrderNet::new(3, 3);
        let cfg = TrainConfig {
            epochs: 120,
            lr: 3e-3,
            weight_decay: 0.0,
            ..TrainConfig::paper()
        };
        let report = net.train(&samples, &cfg);
        assert!(report.improved());
        assert!(
            report.final_loss() < report.epoch_losses[0] * 0.5,
            "loss only went {} -> {}",
            report.epoch_losses[0],
            report.final_loss()
        );
    }

    #[test]
    fn learns_depth_roughly() {
        let samples = chain_samples(12);
        let mut net = ScheduleOrderNet::new(3, 4);
        let cfg = TrainConfig {
            epochs: 250,
            lr: 3e-3,
            weight_decay: 0.0,
            ..TrainConfig::paper()
        };
        net.train(&samples, &cfg);
        let preds = predict(&net, &samples[0]);
        for (i, p) in preds.iter().enumerate() {
            assert!(
                (p - i as f64).abs() < 1.2,
                "node {i}: predicted {p}, want ~{i}"
            );
        }
    }

    #[test]
    fn isolated_nodes_are_handled() {
        let net = ScheduleOrderNet::new(2, 0);
        let s = NodeGraphSample {
            node_attrs: vec![vec![1.0, 2.0]],
            neighbors: vec![vec![]],
            targets: vec![0.0],
        };
        let preds = predict(&net, &s);
        assert!(preds[0].is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let s = &chain_samples(1)[0];
        let a = predict(&ScheduleOrderNet::new(3, 11), s);
        let b = predict(&ScheduleOrderNet::new(3, 11), s);
        assert_eq!(a, b);
    }
}
