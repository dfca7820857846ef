//! The spatial-mapping-distance network of Eq. 4–6 (label 3).
//!
//! Eq. 4 projects the edge's own attributes: `h¹ = W1 · attrs`.
//! Eq. 5 builds a normalisation vector ν from the *reciprocals* of four
//! aggregations (mean, sum, max, min) over the attribute vectors of the
//! edges connected to the parent and child nodes; zero denominators yield
//! factor 1. Eq. 6 combines: `h² = W2 h¹ + ν · W3 h¹`.
//!
//! The paper leaves ν's contraction implicit; we realise `ν ·` as a learnt
//! scalar gate: the four reciprocal aggregates are concatenated and
//! projected to a scalar by `Wν`, which then scales `W3 h¹`. A final
//! linear readout produces the scalar distance.

use std::sync::Arc;

use lisa_events::EventSink;

use super::column_stack;
use crate::dataset::ContextEdgeSample;
use crate::ops::{Ops, Tape};
use crate::plan::ProgramBuilder;
use crate::train::{run_training, TrainConfig, TrainReport};
use crate::{ParamId, ParamStore};

/// Samples per micro-batch tape. Part of the numeric contract, like the
/// batch size: changing it moves the trained weights.
const MICRO_BATCH: usize = 8;

/// The edge-level network with neighbourhood normalisation.
///
/// # Example
///
/// ```
/// use lisa_gnn::models::SpatialNet;
/// use lisa_gnn::dataset::ContextEdgeSample;
/// use lisa_gnn::PlanScratch;
///
/// let net = SpatialNet::new(2, 0);
/// let sample = ContextEdgeSample {
///     attrs: vec![1.0, 2.0],
///     neighbor_attrs: vec![vec![1.0, 2.0], vec![0.5, 0.0]],
///     target: 1.0,
/// };
/// assert!(net.compile().predict(&mut PlanScratch::new(), &sample).is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SpatialNet {
    store: ParamStore,
    w1: ParamId,
    w2: ParamId,
    w3: ParamId,
    w_nu: ParamId,
    readout: ParamId,
    attr_dim: usize,
}

impl SpatialNet {
    /// Creates the network for edges with `attr_dim` attributes.
    ///
    /// # Panics
    ///
    /// Panics if `attr_dim` is zero.
    pub fn new(attr_dim: usize, seed: u64) -> Self {
        assert!(attr_dim > 0, "attribute dimension must be positive");
        let mut store = ParamStore::new(seed);
        let w1 = store.alloc(attr_dim, attr_dim);
        let w2 = store.alloc(attr_dim, attr_dim);
        let w3 = store.alloc(attr_dim, attr_dim);
        let w_nu = store.alloc(1, 4 * attr_dim);
        let readout = store.alloc(1, attr_dim);
        SpatialNet {
            store,
            w1,
            w2,
            w3,
            w_nu,
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
    /// column-stacked edges and their neighbourhoods; returns the 1×B
    /// prediction row.
    fn forward<O: Ops>(&self, o: &mut O) -> O::Var {
        // Eq. 4: h¹ = W1 · attrs.
        let x = o.input();
        let w1 = o.weight(self.w1);
        let h1 = o.matmul(w1, x);
        // Eq. 5: one scalar gate per edge.
        let w_nu = o.weight(self.w_nu);
        let nu = o.nu_gate(w_nu);
        // Eq. 6: h² = W2 h¹ + ν · (W3 h¹).
        let w2 = o.weight(self.w2);
        let w3 = o.weight(self.w3);
        let a = o.matmul(w2, h1);
        let b = o.matmul(w3, h1);
        let gated = o.scale_cols(nu, b);
        let h2 = o.add(a, gated);
        let r = o.weight(self.readout);
        o.matmul(r, h2)
    }

    /// Reference for the compiled plan's bit-identity tests: the
    /// training forward on a fresh tape, for one edge.
    #[cfg(test)]
    pub(crate) fn forward_one(&self, sample: &ContextEdgeSample) -> f64 {
        let mut g = crate::Graph::new();
        let x = column_stack(self.attr_dim, std::iter::once(sample.attrs.as_slice()));
        let hoods = [sample.neighbor_attrs.as_slice()];
        let y = self.forward(&mut Tape::new(&mut g, &self.store, x).with_neighborhoods(&hoods));
        g.value(y).item()
    }

    /// Freezes the current weights into a tape-free inference plan (see
    /// [`crate::CompiledSpatial`]); predictions are bit-identical to the
    /// training forward. Later training of `self` does not affect the
    /// returned plan.
    pub fn compile(&self) -> crate::CompiledSpatial {
        let mut p = ProgramBuilder::new(&self.store);
        let y = self.forward(&mut p);
        crate::CompiledSpatial::new(p.finish(y), self.attr_dim)
    }

    /// Trains on the samples with MSE loss.
    pub fn train(&mut self, samples: &[ContextEdgeSample], config: &TrainConfig) -> TrainReport {
        self.train_observed(samples, config, "spatial", &EventSink::null())
    }

    /// Like [`SpatialNet::train`], emitting a per-epoch loss event to
    /// `sink` under the caller-supplied `network` name.
    pub fn train_observed(
        &mut self,
        samples: &[ContextEdgeSample],
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
                let hoods: Vec<&[Vec<f64>]> = unit
                    .iter()
                    .map(|&i| samples[i].neighbor_attrs.as_slice())
                    .collect();
                let targets: Arc<[f64]> = unit.iter().map(|&i| samples[i].target).collect();
                let p = net.forward(&mut Tape::new(g, store, x).with_neighborhoods(&hoods));
                g.row_squared_error(p, targets, 1.0)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RECIP_EPS;
    use crate::{Graph, PlanScratch, Tensor};

    fn predict(net: &SpatialNet, sample: &ContextEdgeSample) -> f64 {
        net.compile().predict(&mut PlanScratch::new(), sample)
    }

    fn synth_samples(n: usize) -> Vec<ContextEdgeSample> {
        (0..n)
            .map(|i| {
                let a = f64::from((i % 4) as u32) + 0.5;
                let b = f64::from((i % 3) as u32);
                // Distance grows with attrs and neighbourhood crowding.
                let crowd = f64::from((i % 5) as u32) + 1.0;
                let neighbor_attrs = (0..(i % 5) + 1).map(|k| vec![a + k as f64, b]).collect();
                ContextEdgeSample {
                    attrs: vec![a, b],
                    neighbor_attrs,
                    target: 0.5 * a + 0.3 * crowd,
                }
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss() {
        let samples = synth_samples(48);
        let mut net = SpatialNet::new(2, 2);
        let cfg = TrainConfig {
            epochs: 200,
            lr: 5e-3,
            weight_decay: 0.0,
            ..TrainConfig::paper()
        };
        let report = net.train(&samples, &cfg);
        assert!(report.improved());
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "no improvement: {:?}",
            (report.epoch_losses[0], report.final_loss())
        );
    }

    /// Plain-loop Eq. 5, written independently of the shared forward
    /// routine: each pooling folds the neighbours in list order from the
    /// first one, the mean scales the sum by `1/len`, each aggregate gets
    /// the guarded reciprocal, and `Wν` contracts them from `+0.0` in
    /// ascending order.
    fn reference_nu(w_nu: &[f64], hood: &[Vec<f64>]) -> f64 {
        let Some((first, rest)) = hood.split_first() else {
            return 1.0;
        };
        let fold = |f: fn(f64, f64) -> f64| -> Vec<f64> {
            (0..first.len())
                .map(|k| rest.iter().fold(first[k], |acc, a| f(acc, a[k])))
                .collect()
        };
        let sum = fold(|a, b| a + b);
        let mean: Vec<f64> = sum.iter().map(|v| v * (1.0 / hood.len() as f64)).collect();
        let aggregates = [mean, sum, fold(f64::max), fold(f64::min)].concat();
        let mut acc = 0.0;
        for (w, v) in w_nu.iter().zip(aggregates) {
            acc += w * if v.abs() < RECIP_EPS { 1.0 } else { 1.0 / v };
        }
        acc
    }

    /// Plain-loop Eq. 4–6 prediction around [`reference_nu`].
    fn reference_predict(net: &SpatialNet, s: &ContextEdgeSample) -> f64 {
        let matvec = |id: ParamId, x: &[f64]| -> Vec<f64> {
            let w: &Tensor = net.store.value(id);
            (0..w.rows())
                .map(|r| {
                    let mut acc = 0.0;
                    for (k, &v) in x.iter().enumerate() {
                        acc += w.get(r, k) * v;
                    }
                    acc
                })
                .collect()
        };
        let h1 = matvec(net.w1, &s.attrs);
        let nu = reference_nu(net.store.value(net.w_nu).data(), &s.neighbor_attrs);
        let a = matvec(net.w2, &h1);
        let b = matvec(net.w3, &h1);
        let h2: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y * nu).collect();
        matvec(net.readout, &h2)[0]
    }

    #[test]
    fn nu_gate_and_plan_match_plain_loop_reference_bitwise() {
        let net = SpatialNet::new(2, 31);
        let edge = |neighbor_attrs: Vec<Vec<f64>>| ContextEdgeSample {
            attrs: vec![0.5, -1.5],
            neighbor_attrs,
            target: 0.0,
        };
        let samples = [
            edge(vec![]),
            // Mean and sum are exactly zero: the reciprocal guard.
            edge(vec![vec![3.0, -1.0], vec![-3.0, 1.0]]),
            edge(vec![vec![1.0, 2.0], vec![0.5, -1.0], vec![1.5, 0.25]]),
            edge(vec![vec![0.7, 0.2]]),
        ];
        let hoods: Vec<&[Vec<f64>]> = samples
            .iter()
            .map(|s| s.neighbor_attrs.as_slice())
            .collect();
        let mut g = Graph::new();
        let w_nu = g.param(&net.store, net.w_nu);
        let nu = g.nu_gate(w_nu, &hoods);
        let plan = net.compile();
        let mut scratch = PlanScratch::new();
        for (j, s) in samples.iter().enumerate() {
            let expected = reference_nu(net.store.value(net.w_nu).data(), &s.neighbor_attrs);
            assert_eq!(g.value(nu).get(j, 0).to_bits(), expected.to_bits(), "ν {j}");
            assert_eq!(
                plan.predict(&mut scratch, s).to_bits(),
                reference_predict(&net, s).to_bits(),
                "prediction {j}"
            );
        }
    }

    #[test]
    fn handles_empty_neighborhood() {
        let net = SpatialNet::new(2, 0);
        let s = ContextEdgeSample {
            attrs: vec![1.0, 1.0],
            neighbor_attrs: vec![],
            target: 0.0,
        };
        assert!(predict(&net, &s).is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let s = &synth_samples(1)[0];
        let a = predict(&SpatialNet::new(2, 4), s);
        let b = predict(&SpatialNet::new(2, 4), s);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "attribute dimension mismatch")]
    fn wrong_dim_panics() {
        let net = SpatialNet::new(3, 0);
        let s = ContextEdgeSample {
            attrs: vec![1.0],
            neighbor_attrs: vec![],
            target: 0.0,
        };
        let _ = predict(&net, &s);
    }
}
