//! Everything the workloads feed the program: fixed inputs (kernels,
//! pinned models, configurations) and the seeded streams derived from
//! `--seed` (kernel order, request seeds, Zipf draws, arrival times).

use std::path::PathBuf;
use std::time::Duration;

use lisa_core::request::fnv1a64;
use lisa_core::{Lisa, LisaConfig, MapRequest};
use lisa_dfg::{Dfg, RandomDfgConfig};
use lisa_gnn::TrainConfig;
use lisa_labels::{FilterConfig, IterGenConfig};
use lisa_mapper::{SaParams, StrategySpec};
use lisa_rng::Rng;

/// Seed of the calibration runs and of the pinned models.
pub const DEFAULT_SEED: u64 = 2022;

/// II cap of every mapping request (`lisa-map`'s default).
pub const MAX_II: u32 = 16;

/// Directory of the pinned mapping models.
pub const MODEL_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/models");

/// Accelerators with a pinned mapping model, and the FNV-1a 64 digest of
/// each model file as `lisa-benchmark --write-models` printed it. The
/// models are fixed inputs, like the kernels, so a change to the training
/// code cannot move the mapping or serving workloads.
pub const PINNED_MODELS: [(&str, u64); 3] = [
    ("4x4", 0x0ade_e780_37c9_ec10),
    ("4x4-lm", 0x2a97_a043_5afa_c76b),
    ("8x8", 0x65eb_4afd_f7c7_addd),
];

/// Path of the pinned model for `accelerator`.
pub fn model_path(accelerator: &str) -> PathBuf {
    PathBuf::from(MODEL_DIR).join(format!("{accelerator}.lisa-model"))
}

/// Checks every pinned model file against its recorded digest.
pub fn verify_pinned_models() -> Result<(), String> {
    for (accelerator, digest) in PINNED_MODELS {
        let path = model_path(accelerator);
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let actual = fnv1a64(&bytes);
        if actual != digest {
            return Err(format!(
                "{} has digest {actual:016x}, expected {digest:016x}; the pinned models \
                 changed (regenerate with --write-models and update PINNED_MODELS)",
                path.display()
            ));
        }
    }
    Ok(())
}

/// The configuration every pinned model is imported with; of it, mapping
/// uses only the annealer parameters.
pub fn import_config() -> LisaConfig {
    LisaConfig::default()
}

/// Reads and imports the pinned model for `accelerator`: the set-up work
/// a mapping service pays at start.
pub fn load_model(accelerator: &str) -> Result<Lisa, String> {
    let path = model_path(accelerator);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Lisa::import_model(&import_config(), &text)
        .map_err(|e| format!("importing {}: {e}", path.display()))
}

/// The porting configuration of the train-port workload and of the
/// pinned models: 32 synthetic DFGs of 8–40 nodes, four iterative
/// label-generation rounds at the paper's annealer schedule with the
/// wall-clock cap raised so it never binds, II cap 12, filter σ 0.1 and
/// θ 0.7, the paper's 500-epoch training recipe, two workers.
pub fn port_config(seed: u64) -> LisaConfig {
    LisaConfig {
        training_dfgs: 32,
        dfg: RandomDfgConfig {
            min_nodes: 8,
            max_nodes: 40,
            ..RandomDfgConfig::default()
        },
        iter_gen: IterGenConfig {
            rounds: 4,
            sa: SaParams {
                time_limit: Duration::from_secs(600),
                ..SaParams::paper()
            },
            max_ii: Some(12),
            ..IterGenConfig::default()
        },
        filter: FilterConfig {
            sigma: 0.1,
            threshold: 0.7,
        },
        train: TrainConfig::paper(),
        parallelism: 2,
        seed,
        ..LisaConfig::default()
    }
}

/// The `lisa-request v1` document of one mapping request.
pub fn request_text(accelerator: &str, seed: u64, strategy: &StrategySpec, dfg: &Dfg) -> String {
    MapRequest {
        accelerator: accelerator.to_string(),
        seed,
        max_ii: MAX_II,
        strategy: strategy.clone(),
        dfg: dfg.clone(),
    }
    .canonical_text()
}

/// An independent random stream for one purpose of one run.
pub fn stream(seed: u64, purpose: &str) -> Rng {
    Rng::seed_from_u64(seed ^ fnv1a64(purpose.as_bytes()))
}

/// One mapping request: an index into the workload's targets plus the
/// request seed handed to the mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapOp {
    /// Index into the workload's `(kernel, accelerator)` targets.
    pub target: usize,
    /// Request seed.
    pub seed: u64,
}

/// `rounds` rounds over `targets` targets: each round visits every target
/// once, in a fresh seeded order, each with a fresh request seed. Whole
/// rounds keep the kernel mix identical however many rounds run.
pub fn map_rounds(rng: &mut Rng, targets: usize, rounds: usize) -> Vec<MapOp> {
    let mut ops = Vec::with_capacity(targets * rounds);
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..targets).collect();
        rng.shuffle(&mut order);
        ops.extend(order.into_iter().map(|target| MapOp {
            target,
            seed: rng.next_u64(),
        }));
    }
    ops
}

/// Zipf(1) over `n` keys with a seeded popularity order.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<usize>,
}

impl Zipf {
    /// Rank `r` (0-based) has weight `1 / (r + 1)`; which key holds each
    /// rank is a seeded permutation.
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64 * total);
                acc
            })
            .collect();
        let mut key_of_rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut key_of_rank);
        Zipf { cdf, key_of_rank }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

/// Due times of `n` Poisson arrivals at `rate` per second, as offsets from
/// the start of the phase.
pub fn poisson_arrivals(rng: &mut Rng, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a = map_rounds(&mut stream(7, "map"), 12, 3);
        assert_eq!(a, map_rounds(&mut stream(7, "map"), 12, 3));
        assert_ne!(a, map_rounds(&mut stream(8, "map"), 12, 3));
        assert_ne!(a, map_rounds(&mut stream(7, "other"), 12, 3));
        for round in a.chunks(12) {
            let mut targets: Vec<usize> = round.iter().map(|op| op.target).collect();
            targets.sort_unstable();
            assert_eq!(targets, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_keys() {
        let mut rng = stream(1, "zipf");
        let zipf = Zipf::new(256, &mut rng);
        let mut counts = vec![0usize; 256];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let top = counts[zipf.key_of_rank[0]];
        let tenth = counts[zipf.key_of_rank[9]];
        assert!(top > 5 * tenth, "top {top} tenth {tenth}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 200);
    }

    #[test]
    fn poisson_arrivals_have_the_requested_rate() {
        let due = poisson_arrivals(&mut stream(3, "arrivals"), 4000, 20.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = 4000.0 / due.last().unwrap().as_secs_f64();
        assert!((rate - 20.0).abs() < 1.0, "rate {rate}");
    }
}
