//! End-to-end configuration of the LISA framework.

use lisa_dfg::RandomDfgConfig;
use lisa_gnn::TrainConfig;
use lisa_labels::{FilterConfig, IterGenConfig};
use lisa_mapper::{SaParams, StrategySpec};

/// Configuration of the full train-for-accelerator pipeline (paper Fig. 2:
/// training-data generation → GNN training → label-aware mapping).
#[derive(Debug, Clone, PartialEq)]
pub struct LisaConfig {
    /// Number of synthetic DFGs generated for training (paper: 1,000 per
    /// accelerator; the default here is CI-scale — see DESIGN.md
    /// "Substitutions").
    pub training_dfgs: usize,
    /// Shape of the synthetic DFGs (§V-A).
    pub dfg: RandomDfgConfig,
    /// Iterative label-generation budget (§V-B).
    pub iter_gen: IterGenConfig,
    /// Label quality filter (§V-C).
    pub filter: FilterConfig,
    /// GNN training recipe (§VI-B).
    pub train: TrainConfig,
    /// Annealer parameters used at inference time (the final label-aware
    /// mapping of new DFGs).
    pub sa: SaParams,
    /// Lanes raced for each II of the inference-time mapping. The
    /// default (`sa`) is the paper's single label-aware annealing chain;
    /// `sa,sa,sa,sa` races four seeds, and `mixed` (`constructive,sa`)
    /// tries the constructive fast path before the chain (see
    /// [`StrategySpec::parse`]).
    pub strategy: StrategySpec,
    /// The pipeline's one worker budget: label generation runs on up to
    /// this many DFGs at once, GNN training trains up to this many of the
    /// four label networks side by side (each on one thread), and the
    /// inference-time II search tries this many speculative IIs per wave.
    /// At 1 everything runs inline on the calling thread. Results and
    /// checkpoint files are byte-identical for every value. Defaults to
    /// the machine's available parallelism.
    pub parallelism: usize,
    /// Master seed; all stages derive their seeds from it.
    pub seed: u64,
}

impl Default for LisaConfig {
    fn default() -> Self {
        LisaConfig {
            training_dfgs: 160,
            dfg: RandomDfgConfig::default(),
            iter_gen: IterGenConfig::default(),
            filter: FilterConfig::default(),
            train: TrainConfig::paper(),
            sa: SaParams::paper(),
            strategy: StrategySpec::default(),
            parallelism: lisa_mapper::portfolio::available_parallelism(),
            seed: 2022,
        }
    }
}

impl LisaConfig {
    /// Drastically reduced pipeline for unit tests: few DFGs, short
    /// annealing, few epochs.
    pub fn fast() -> Self {
        LisaConfig {
            training_dfgs: 12,
            dfg: RandomDfgConfig {
                min_nodes: 6,
                max_nodes: 12,
                ..RandomDfgConfig::default()
            },
            iter_gen: IterGenConfig::fast(),
            train: TrainConfig {
                epochs: 25,
                ..TrainConfig::paper()
            },
            sa: SaParams::fast(),
            ..LisaConfig::default()
        }
    }

    /// Adjusts the synthetic-DFG generator for systolic targets (only
    /// systolic-supported operations).
    pub fn for_systolic(mut self) -> Self {
        self.dfg = RandomDfgConfig::systolic();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = LisaConfig::default();
        assert!(c.training_dfgs > 0);
        assert_eq!(c.train.epochs, 500);
    }

    #[test]
    fn fast_is_smaller() {
        let c = LisaConfig::fast();
        assert!(c.training_dfgs < LisaConfig::default().training_dfgs);
        assert!(c.train.epochs < 500);
    }

    #[test]
    fn systolic_variant_restricts_ops() {
        let c = LisaConfig::fast().for_systolic();
        assert!(c.dfg.interior_ops.iter().all(|op| op.systolic_supported()));
    }
}
