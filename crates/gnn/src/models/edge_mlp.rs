//! The edge-attribute MLP of Eq. 3 / Eq. 7 (labels 2 and 4).
//!
//! "We use multilayer perceptron (MLP), consisting of two convolution
//! layers and one activation layer, to process the edge attributes. [...]
//! We set the number of hidden channels equal to the number of edge
//! attributes. We use ReLU as the activation layer." A final 1-channel
//! readout produces the scalar label value.

use std::sync::Arc;

use lisa_events::EventSink;

use super::column_stack;
use crate::dataset::EdgeSample;
use crate::ops::{Ops, Tape};
use crate::plan::ProgramBuilder;
use crate::train::{run_training, TrainConfig, TrainReport};
use crate::{ParamId, ParamStore, Tensor};

/// Samples per micro-batch tape. Part of the numeric contract, like the
/// batch size: changing it moves the trained weights.
const MICRO_BATCH: usize = 8;

/// A two-layer perceptron over edge attributes with a scalar readout.
///
/// # Example
///
/// ```
/// use lisa_gnn::models::EdgeMlp;
/// use lisa_gnn::dataset::EdgeSample;
/// use lisa_gnn::{PlanScratch, TrainConfig};
///
/// // Learn target = attrs[0] + attrs[1].
/// let samples: Vec<EdgeSample> = (0..32)
///     .map(|i| {
///         let a = f64::from(i % 4);
///         let b = f64::from(i % 3);
///         EdgeSample { attrs: vec![a, b], target: a + b }
///     })
///     .collect();
/// let mut net = EdgeMlp::new(2, 7);
/// let config = TrainConfig { epochs: 400, lr: 5e-3, weight_decay: 0.0, ..TrainConfig::paper() };
/// let report = net.train(&samples, &config);
/// assert!(report.improved());
/// let pred = net.compile().predict(&mut PlanScratch::new(), &[2.0, 1.0]);
/// assert!((pred - 3.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct EdgeMlp {
    store: ParamStore,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    readout: ParamId,
    attr_dim: usize,
}

impl EdgeMlp {
    /// Creates the network for edges with `attr_dim` attributes; hidden
    /// width equals `attr_dim` per the paper.
    ///
    /// # Panics
    ///
    /// Panics if `attr_dim` is zero.
    pub fn new(attr_dim: usize, seed: u64) -> Self {
        assert!(attr_dim > 0, "attribute dimension must be positive");
        let mut store = ParamStore::new(seed);
        let w1 = store.alloc(attr_dim, attr_dim);
        let b1 = store.alloc_with(Tensor::zeros(attr_dim, 1));
        let w2 = store.alloc(attr_dim, attr_dim);
        let b2 = store.alloc_with(Tensor::zeros(attr_dim, 1));
        let readout = store.alloc(1, attr_dim);
        EdgeMlp {
            store,
            w1,
            b1,
            w2,
            b2,
            readout,
            attr_dim,
        }
    }

    /// The expected attribute dimension.
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

    /// The network's one forward definition, over a batch of `B`
    /// column-stacked samples; returns the 1×B prediction row.
    fn forward<O: Ops>(&self, o: &mut O) -> O::Var {
        let x = o.input();
        let w1 = o.weight(self.w1);
        let b1 = o.weight(self.b1);
        let h = o.matmul(w1, x);
        let h = o.add_cols(h, b1);
        let h = o.relu(h);
        let w2 = o.weight(self.w2);
        let b2 = o.weight(self.b2);
        let h = o.matmul(w2, h);
        let h = o.add_cols(h, b2);
        let r = o.weight(self.readout);
        o.matmul(r, h)
    }

    /// Reference for the compiled plan's bit-identity tests: the
    /// training forward on a fresh tape, for one attribute vector.
    #[cfg(test)]
    pub(crate) fn forward_one(&self, attrs: &[f64]) -> f64 {
        let mut g = crate::Graph::new();
        let x = column_stack(self.attr_dim, std::iter::once(attrs));
        let y = self.forward(&mut Tape::new(&mut g, &self.store, x));
        g.value(y).item()
    }

    /// Freezes the current weights into a tape-free inference plan (see
    /// [`crate::CompiledEdgeMlp`]); predictions are bit-identical to the
    /// training forward. Later training of `self` does not affect the
    /// returned plan.
    pub fn compile(&self) -> crate::CompiledEdgeMlp {
        let mut p = ProgramBuilder::new(&self.store);
        let y = self.forward(&mut p);
        crate::CompiledEdgeMlp::new(p.finish(y), self.attr_dim)
    }

    /// Trains on the samples with MSE loss.
    pub fn train(&mut self, samples: &[EdgeSample], config: &TrainConfig) -> TrainReport {
        self.train_observed(samples, config, "edge_mlp", &EventSink::null())
    }

    /// Like [`EdgeMlp::train`], emitting a per-epoch loss event to `sink`.
    /// `network` names this net in the events (an `EdgeMlp` backs both the
    /// same-level and temporal networks, so the caller must say which).
    pub fn train_observed(
        &mut self,
        samples: &[EdgeSample],
        config: &TrainConfig,
        network: &'static str,
        sink: &EventSink,
    ) -> TrainReport {
        let net = self.clone();
        run_training(
            &mut self.store,
            samples.len(),
            config,
            MICRO_BATCH,
            network,
            sink,
            |g, store, unit| {
                let x = column_stack(
                    net.attr_dim,
                    unit.iter().map(|&i| samples[i].attrs.as_slice()),
                );
                let targets: Arc<[f64]> = unit.iter().map(|&i| samples[i].target).collect();
                let p = net.forward(&mut Tape::new(g, store, x));
                g.row_squared_error(p, targets, 1.0)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanScratch;

    fn linear_dataset(n: usize) -> Vec<EdgeSample> {
        (0..n)
            .map(|i| {
                let a = f64::from((i % 5) as u32);
                let b = f64::from((i % 3) as u32);
                let c = f64::from((i % 7) as u32) * 0.5;
                EdgeSample {
                    attrs: vec![a, b, c],
                    target: 2.0 * a - b + c,
                }
            })
            .collect()
    }

    #[test]
    fn fits_linear_function() {
        let data = linear_dataset(60);
        let mut net = EdgeMlp::new(3, 1);
        let cfg = TrainConfig {
            epochs: 400,
            lr: 5e-3,
            weight_decay: 0.0,
            ..TrainConfig::paper()
        };
        let report = net.train(&data, &cfg);
        assert!(report.final_loss() < 0.1, "loss {}", report.final_loss());
        let plan = net.compile();
        let mut scratch = PlanScratch::new();
        for s in &data[..10] {
            assert!((plan.predict(&mut scratch, &s.attrs) - s.target).abs() < 1.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = linear_dataset(20);
        let cfg = TrainConfig::fast();
        let mut a = EdgeMlp::new(3, 9);
        let mut b = EdgeMlp::new(3, 9);
        a.train(&data, &cfg);
        b.train(&data, &cfg);
        let mut scratch = PlanScratch::new();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(
            a.compile().predict(&mut scratch, &x),
            b.compile().predict(&mut scratch, &x)
        );
    }

    #[test]
    fn weight_count_matches_architecture() {
        let net = EdgeMlp::new(4, 0);
        // w1 16 + b1 4 + w2 16 + b2 4 + readout 4 = 44.
        assert_eq!(net.weight_count(), 44);
    }
}
