//! Shared experiment machinery: scales, budgets, mapper protocols.

use std::sync::Arc;
use std::time::Duration;

use lisa_arch::Accelerator;
use lisa_core::{Lisa, LisaConfig, Pipeline};
use lisa_dfg::{Dfg, RandomDfgConfig};
use lisa_events::{EventSink, JsonlObserver, MultiObserver, Observer, StderrObserver};
use lisa_gnn::TrainConfig;
use lisa_labels::{FilterConfig, IterGenConfig};
use lisa_mapper::exact::{ExactMapper, ExactParams};
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{LabelSaMapper, MappingOutcome, SaParams};

/// Experiment scale, selected by the `LISA_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale runs reproducing the qualitative shapes (default).
    Quick,
    /// Full-scale runs closer to the paper's budgets
    /// (`LISA_SCALE=paper`).
    Paper,
}

impl Scale {
    /// Reads `LISA_SCALE` (`"paper"` → [`Scale::Paper`], anything else →
    /// [`Scale::Quick`]).
    pub fn from_env() -> Scale {
        match std::env::var("LISA_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// One benchmark's outcomes under the three mappers.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Exact branch-and-bound (ILP substitute) outcome.
    pub ilp: MappingOutcome,
    /// Vanilla SA outcome (median of three seeded runs, as in §VI).
    pub sa: MappingOutcome,
    /// LISA (GNN labels + label-aware SA) outcome.
    pub lisa: MappingOutcome,
}

/// Central budget/configuration holder for all experiment binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    scale: Scale,
    seed: u64,
}

impl Harness {
    /// Creates a harness at the environment-selected scale.
    pub fn from_env() -> Harness {
        Harness::new(Scale::from_env())
    }

    /// Creates a harness at an explicit scale.
    pub fn new(scale: Scale) -> Harness {
        Harness { scale, seed: 2022 }
    }

    /// The active scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The six paper architectures by key ([`Accelerator::standard`]):
    /// `3x3`, `4x4`, `4x4-lr`, `4x4-lm`, `8x8`, `systolic`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key.
    pub fn architecture(key: &str) -> Accelerator {
        Accelerator::standard(key).unwrap_or_else(|| panic!("unknown architecture key {key:?}"))
    }

    /// Annealer budget for SA and LISA at this scale.
    pub fn sa_params(&self) -> SaParams {
        match self.scale {
            Scale::Quick => SaParams {
                time_limit: Duration::from_secs(3),
                ..SaParams::paper()
            },
            Scale::Paper => SaParams::paper(),
        }
    }

    /// Branch-and-bound budget (per target II) for the ILP substitute.
    pub fn exact_params(&self) -> ExactParams {
        match self.scale {
            Scale::Quick => ExactParams {
                time_limit: Duration::from_millis(1500),
                max_states: 400_000,
            },
            Scale::Paper => ExactParams {
                time_limit: Duration::from_secs(20),
                max_states: 20_000_000,
            },
        }
    }

    /// Cap on the II search, bounding failure-path run times.
    pub fn ii_cap(&self) -> u32 {
        16
    }

    /// LISA training configuration for one accelerator.
    pub fn lisa_config(&self, systolic: bool) -> LisaConfig {
        let dfg = if systolic {
            RandomDfgConfig::systolic()
        } else {
            // Cover the application range including unrolled kernels
            // (34-58 nodes) so label predictions stay in-distribution.
            RandomDfgConfig {
                min_nodes: 8,
                max_nodes: 40,
                ..RandomDfgConfig::default()
            }
        };
        match self.scale {
            Scale::Quick => LisaConfig {
                training_dfgs: 48,
                dfg,
                iter_gen: IterGenConfig {
                    rounds: 4,
                    sa: SaParams {
                        time_limit: Duration::from_secs(2),
                        ..SaParams::paper()
                    },
                    max_ii: Some(12),
                    seed: self.seed,
                },
                // The quick scale cannot afford paper-strength annealing in
                // the label generator, so admit slightly-off-optimal labels
                // rather than starving the networks of data.
                filter: FilterConfig {
                    sigma: 0.1,
                    threshold: 0.7,
                },
                train: TrainConfig {
                    epochs: 120,
                    ..TrainConfig::paper()
                },
                sa: self.sa_params(),
                seed: self.seed,
                ..LisaConfig::default()
            },
            Scale::Paper => LisaConfig {
                training_dfgs: 160,
                dfg,
                iter_gen: IterGenConfig {
                    seed: self.seed,
                    ..IterGenConfig::default()
                },
                sa: self.sa_params(),
                seed: self.seed,
                ..LisaConfig::default()
            },
        }
    }

    /// Trains LISA for an accelerator through the staged pipeline, with
    /// stage progress on stderr. Set `LISA_EVENT_LOG=<path>` to also
    /// capture the full structured event stream as JSONL.
    pub fn train_lisa(&self, acc: &Accelerator) -> Lisa {
        eprintln!("[harness] training LISA for {} ...", acc.name());
        let config = self.lisa_config(acc.is_spatial_only());
        let lisa = Pipeline::new(acc, config)
            .with_observer(Self::event_sink())
            .run()
            .expect("harness training configs yield a non-empty dataset")
            .expect("pipeline without stop_after runs to completion");
        let stats = lisa.stats();
        eprintln!(
            "[harness] trained: {}/{} DFGs kept, accuracy {}",
            stats.dfgs_kept,
            stats.dfgs_generated,
            stats.accuracy.summary()
        );
        lisa
    }

    /// Stderr milestones, teed into a JSONL event log when
    /// `LISA_EVENT_LOG` names a writable path.
    fn event_sink() -> EventSink {
        let stderr: Arc<dyn Observer> = Arc::new(StderrObserver::new());
        match std::env::var("LISA_EVENT_LOG") {
            Ok(path) if !path.is_empty() => {
                match JsonlObserver::to_file(std::path::Path::new(&path)) {
                    Ok(jsonl) => {
                        EventSink::new(Arc::new(MultiObserver::new(vec![stderr, Arc::new(jsonl)])))
                    }
                    Err(e) => {
                        eprintln!("[harness] cannot open LISA_EVENT_LOG {path}: {e}");
                        EventSink::new(stderr)
                    }
                }
            }
            _ => EventSink::new(stderr),
        }
    }

    /// Runs the three mappers on one benchmark. SA follows the paper's
    /// protocol: three seeded runs, median result.
    pub fn run_case(&self, dfg: &Dfg, acc: &Accelerator, lisa: &Lisa) -> CaseResult {
        let cap = self.ii_cap();
        let search = IiSearch { max_ii: Some(cap) };

        let ilp = ExactMapper::new(self.exact_params());
        let ilp_outcome = search.run(&ilp, dfg, acc, 1).0;

        let sa_outcome = self.median_sa(dfg, acc);

        let (lisa_outcome, _) = lisa.map_capped(dfg, acc, cap);

        CaseResult {
            benchmark: dfg.name().to_string(),
            ilp: ilp_outcome,
            sa: sa_outcome,
            lisa: lisa_outcome,
        }
    }

    /// Median-of-three vanilla SA ("we run SA three times [...] and use
    /// the median performance", §VI).
    pub fn median_sa(&self, dfg: &Dfg, acc: &Accelerator) -> MappingOutcome {
        self.median_sa_with(dfg, acc, &self.sa_params())
    }

    /// Like [`Self::median_sa`] but with explicit parameters (used by the
    /// Fig. 13 SA-M ablation).
    pub fn median_sa_with(
        &self,
        dfg: &Dfg,
        acc: &Accelerator,
        params: &SaParams,
    ) -> MappingOutcome {
        let search = IiSearch {
            max_ii: Some(self.ii_cap()),
        };
        let mut outcomes: Vec<MappingOutcome> = (0..3)
            .map(|run| {
                let sa = LabelSaMapper::vanilla(params.clone(), self.seed + run * 101);
                search.run(&sa, dfg, acc, 1).0
            })
            .collect();
        outcomes.sort_by_key(|o| o.ii.unwrap_or(u32::MAX));
        outcomes.swap_remove(1)
    }

    /// The base seed used by all experiment runs.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;

    #[test]
    fn architecture_registry_covers_paper_suite() {
        for key in ["3x3", "4x4", "4x4-lr", "4x4-lm", "8x8", "systolic"] {
            let acc = Harness::architecture(key);
            assert!(acc.pe_count() >= 9);
        }
        assert_eq!(Harness::architecture("4x4-lr").regs_per_pe(), 1);
        assert!(Harness::architecture("systolic").is_spatial_only());
    }

    #[test]
    #[should_panic(expected = "unknown architecture key")]
    fn unknown_key_panics() {
        let _ = Harness::architecture("9x9");
    }

    #[test]
    fn median_sa_returns_a_middle_outcome() {
        let h = Harness::new(Scale::Quick);
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Harness::architecture("4x4");
        let o = h.median_sa(&dfg, &acc);
        assert_eq!(o.mapper, "SA");
        assert!(o.mapped());
    }

    #[test]
    fn scales_differ_in_budget() {
        let q = Harness::new(Scale::Quick);
        let p = Harness::new(Scale::Paper);
        assert!(q.exact_params().time_limit < p.exact_params().time_limit);
        assert!(q.lisa_config(false).training_dfgs < p.lisa_config(false).training_dfgs);
    }
}
