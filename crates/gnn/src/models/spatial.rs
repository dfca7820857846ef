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

use crate::dataset::ContextEdgeSample;
use crate::train::{run_training, TrainConfig, TrainReport};
use crate::{Graph, ParamId, ParamStore, Tensor, VarId};

/// Samples per micro-batch tape. Part of the numeric contract (fixed
/// per model, never derived from the thread count) so parallel training
/// stays bit-identical to sequential.
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

    /// Eq. 5 for one sample: the learnt scalar gate over the reciprocal
    /// neighbourhood aggregates (1 for an empty neighbourhood).
    fn nu_scalar(&self, g: &mut Graph, store: &ParamStore, sample: &ContextEdgeSample) -> VarId {
        if sample.neighbor_attrs.is_empty() {
            return g.input(Tensor::scalar(1.0));
        }
        let vars: Vec<VarId> = sample
            .neighbor_attrs
            .iter()
            .map(|a| {
                assert_eq!(a.len(), self.attr_dim, "neighbour dimension mismatch");
                g.input(Tensor::vector(a.clone()))
            })
            .collect();
        let mean = g.pool_mean(vars.clone());
        let sum = g.pool_sum(vars.clone());
        let max = g.pool_max(vars.clone());
        let min = g.pool_min(vars);
        let rm = g.recip(mean);
        let rs = g.recip(sum);
        let rx = g.recip(max);
        let rn = g.recip(min);
        let cat = g.concat(vec![rm, rs, rx, rn]);
        let w_nu = g.param(store, self.w_nu);
        g.matvec(w_nu, cat)
    }

    /// Batched forward over `B` samples; returns the 1×B prediction row.
    /// Column `j` is bit-identical to the historical per-sample
    /// matvec/scale chain for sample `j` — the ν gates are still built
    /// per sample (neighbourhoods are ragged) and gathered into one
    /// column vector that gates `W3 H¹` via `scale_cols`.
    fn forward(&self, g: &mut Graph, store: &ParamStore, samples: &[&ContextEdgeSample]) -> VarId {
        // Eq. 4, batched.
        let mut data = vec![0.0; self.attr_dim * samples.len()];
        for (j, s) in samples.iter().enumerate() {
            assert_eq!(s.attrs.len(), self.attr_dim, "attribute dimension mismatch");
            for (r, &v) in s.attrs.iter().enumerate() {
                data[r * samples.len() + j] = v;
            }
        }
        let x = g.input(Tensor::from_vec(self.attr_dim, samples.len(), data));
        let w1 = g.param(store, self.w1);
        let h1 = g.matmul(w1, x);

        // Eq. 5: one scalar gate per sample, stacked into a B×1 column.
        let nus: Vec<VarId> = samples
            .iter()
            .map(|s| self.nu_scalar(g, store, s))
            .collect();
        let nu = g.concat(nus);

        // Eq. 6: h² = W2 h¹ + ν · (W3 h¹).
        let w2 = g.param(store, self.w2);
        let w3 = g.param(store, self.w3);
        let a = g.matmul(w2, h1);
        let b = g.matmul(w3, h1);
        let gated = g.scale_cols(nu, b);
        let h2 = g.add(a, gated);

        let r = g.param(store, self.readout);
        g.matmul(r, h2)
    }

    /// Reference for the compiled plan's bit-identity tests: the
    /// training forward on a fresh tape, for one edge.
    #[cfg(test)]
    pub(crate) fn forward_one(&self, sample: &ContextEdgeSample) -> f64 {
        let mut g = Graph::new();
        let y = self.forward(&mut g, &self.store, &[sample]);
        g.value(y).item()
    }

    /// Freezes the current weights into a tape-free inference plan (see
    /// [`crate::CompiledSpatial`]); predictions are bit-identical to the
    /// training forward. Later training of `self` does not affect the
    /// returned plan.
    pub fn compile(&self) -> crate::CompiledSpatial {
        let mut p = crate::plan::ProgramBuilder::new();
        let w1 = p.weight(&self.store, self.w1);
        let w2 = p.weight(&self.store, self.w2);
        let w3 = p.weight(&self.store, self.w3);
        let readout = p.weight(&self.store, self.readout);
        // Eq. 4 then Eq. 6; the ν gate itself runs outside the op
        // sequence (ragged per-sample input) and feeds ScaleColsNu.
        let h1 = p.matmul(w1, crate::plan::ProgramBuilder::INPUT);
        let a = p.matmul(w2, h1);
        let b = p.matmul(w3, h1);
        let gated = p.scale_cols_nu(b);
        let h2 = p.add(a, gated);
        let y = p.matmul(readout, h2);
        crate::CompiledSpatial::new(
            p.finish(y),
            self.store.value(self.w_nu).clone(),
            self.attr_dim,
        )
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
                let unit_samples: Vec<&ContextEdgeSample> =
                    unit.iter().map(|&i| &samples[i]).collect();
                let targets: Arc<[f64]> = unit.iter().map(|&i| samples[i].target).collect();
                let p = net.forward(g, store, &unit_samples);
                g.row_squared_error(p, targets, 1.0)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanScratch;

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
