//! Shared training configuration and the deterministic minibatch loop.
//!
//! Each shuffled batch is split into fixed-size **micro-batch units**
//! (the unit size is a property of the model). Every unit builds one
//! forward/backward pass on a reused tape into a reused [`ParamGrads`]
//! sink, which is then added to the store, so the per-batch gradient is
//! reduced in ascending unit order. The unit boundaries and that order
//! are the numeric contract: the trained weights are pinned by digest in
//! `tests/determinism.rs`.

use lisa_events::{EventSink, PipelineEvent};
use lisa_rng::Rng;

use crate::{Adam, Graph, ParamGrads, ParamStore, VarId};

/// Hyperparameters of a training run. Training runs on the calling
/// thread; these fields and the model's micro-batch size determine the
/// trained weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset (paper §VI-B: 500).
    pub epochs: usize,
    /// Gradient-accumulation batch size.
    pub batch_size: usize,
    /// Learning rate (paper: 0.001).
    pub lr: f64,
    /// Weight decay (paper: 0.0005).
    pub weight_decay: f64,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
}

impl TrainConfig {
    /// The paper's training recipe.
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 500,
            batch_size: 32,
            lr: 1e-3,
            weight_decay: 5e-4,
            shuffle_seed: 0,
        }
    }

    /// Reduced recipe for tests.
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 60,
            ..TrainConfig::paper()
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::paper()
    }
}

/// Per-run training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainReport {
    /// Mean loss of the final epoch.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }

    /// Whether the loss improved from first to last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// Generic minibatch loop: `loss_fn(graph, store, unit)` must build the
/// batched forward pass for the unit's samples and return the **sum** of
/// their losses as a scalar var (gradients are averaged over the full
/// batch here, exactly as the historical per-sample loop did).
///
/// `micro_batch` fixes how many samples share one tape; it is part of the
/// numeric contract, like `batch_size`. One Adam step runs per batch.
///
/// `network` names the model in the [`PipelineEvent::EpochLoss`] events
/// emitted to `sink` after each epoch; it is caller-supplied because the
/// same model type can back several logical networks (e.g. `EdgeMlp`
/// serves both `same_level` and `temporal`). Events are pure
/// observations: they never alter the training trajectory.
pub(crate) fn run_training(
    store: &mut ParamStore,
    sample_count: usize,
    config: &TrainConfig,
    micro_batch: usize,
    network: &'static str,
    sink: &EventSink,
    loss_fn: impl Fn(&mut Graph, &ParamStore, &[usize]) -> VarId,
) -> TrainReport {
    let mut adam = Adam::new(config.lr, config.weight_decay);
    let mut rng = Rng::seed_from_u64(config.shuffle_seed);
    let mut order: Vec<usize> = (0..sample_count).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    // One tape and one gradient sink for the whole run: reset() and
    // reset_like() keep their buffers.
    let mut graph = Graph::new();
    let mut grads = ParamGrads::zeros_like(store);
    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size.max(1)) {
            store.zero_grads();
            // Each unit's gradient is summed in its own sink, then added
            // to the store: the ascending-unit reduction that fixes the
            // floating-point summation tree.
            for unit in batch.chunks(micro_batch.max(1)) {
                graph.reset();
                grads.reset_like(store);
                let loss = loss_fn(&mut graph, store, unit);
                epoch_loss += graph.value(loss).item();
                graph.backward_into(loss, &mut grads);
                store.add_grads(&grads);
            }
            store.scale_grads(1.0 / batch.len() as f64);
            adam.step(store);
        }
        let mean_loss = epoch_loss / sample_count.max(1) as f64;
        epoch_losses.push(mean_loss);
        if sink.is_active() {
            sink.emit(PipelineEvent::EpochLoss {
                network,
                epoch,
                loss: mean_loss,
            });
        }
    }
    TrainReport { epoch_losses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn linear_fit(cfg: &TrainConfig) -> (ParamStore, TrainReport) {
        linear_fit_observed(cfg, &EventSink::null())
    }

    /// Learns y = 2a - b from samples, reporting to `sink`.
    fn linear_fit_observed(cfg: &TrainConfig, sink: &EventSink) -> (ParamStore, TrainReport) {
        let mut store = ParamStore::new(0);
        let w = store.alloc(1, 2);
        let data: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| {
                let a = f64::from(i % 7) - 3.0;
                let b = f64::from(i % 5) - 2.0;
                (vec![a, b], 2.0 * a - b)
            })
            .collect();
        let report = run_training(
            &mut store,
            data.len(),
            cfg,
            1,
            "linear",
            sink,
            |g, s, unit| {
                let i = unit[0];
                let wv = g.param(s, w);
                let x = g.input(Tensor::vector(data[i].0.clone()));
                let y = g.matmul(wv, x);
                g.row_squared_error(y, vec![data[i].1].into(), 1.0)
            },
        );
        (store, report)
    }

    #[test]
    fn training_fits_a_linear_map() {
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 8,
            lr: 0.02,
            weight_decay: 0.0,
            shuffle_seed: 1,
        };
        let (store, report) = linear_fit(&cfg);
        assert!(report.improved());
        assert!(report.final_loss() < 1e-3, "loss {}", report.final_loss());
        let weights = store.value(crate::params::param_id_for_io(0)).data();
        assert!((weights[0] - 2.0).abs() < 0.05);
        assert!((weights[1] + 1.0).abs() < 0.05);
    }

    #[test]
    fn observer_receives_one_epoch_loss_per_epoch() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;

        let cfg = TrainConfig {
            epochs: 7,
            batch_size: 8,
            lr: 0.02,
            weight_decay: 0.0,
            shuffle_seed: 1,
        };
        let recorder = Arc::new(RecordingObserver::default());
        let sink = EventSink::new(recorder.clone());
        let (_, report) = linear_fit_observed(&cfg, &sink);
        let events = recorder.take();
        assert_eq!(events.len(), cfg.epochs);
        for (epoch, event) in events.iter().enumerate() {
            assert_eq!(
                *event,
                PipelineEvent::EpochLoss {
                    network: "linear",
                    epoch,
                    loss: report.epoch_losses[epoch],
                }
            );
        }
    }

    #[test]
    fn observer_does_not_change_the_trajectory() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;

        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 0.02,
            weight_decay: 1e-4,
            shuffle_seed: 5,
        };
        let (silent, silent_report) = linear_fit(&cfg);
        let sink = EventSink::new(Arc::new(RecordingObserver::default()));
        let (observed, observed_report) = linear_fit_observed(&cfg, &sink);
        let id = crate::params::param_id_for_io(0);
        assert_eq!(silent.value(id).data(), observed.value(id).data());
        assert_eq!(silent_report, observed_report);
    }

    #[test]
    fn report_statistics() {
        let r = TrainReport {
            epoch_losses: vec![3.0, 2.0, 1.0],
        };
        assert_eq!(r.final_loss(), 1.0);
        assert!(r.improved());
        let empty = TrainReport {
            epoch_losses: vec![],
        };
        assert!(empty.final_loss().is_nan());
        assert!(!empty.improved());
    }
}
