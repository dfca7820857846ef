//! Iterative label generation for GNN training data (paper §V-B).
//!
//! For each raw DFG: initialise labels, map with the *partial* label-aware
//! SA (labels steer only the initial mapping), extract labels from the
//! result, and iterate. Labels are only updated when the new mapping is
//! better (lower II, or equal II with lower routing cost); otherwise the
//! previous labels drive the next round. Every successful round yields a
//! *candidate* label set; the final label combines the candidates that
//! achieve the minimum II with routing cost within 1.15× of the best.

use std::time::Duration;

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_events::{EventSink, LabelGenResult, PipelineEvent};
use lisa_mapper::schedule::{mii, IiSearch};
use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams};

use crate::extract::{average_labels, labels_from_mapping};

/// Routing-cost slack for the second candidate-selection round
/// ("if the routing cost is less than 1.15x of the routing cost of the
/// standard one, the label is a candidate", §V-B).
pub const ROUTING_COST_SLACK: f64 = 1.15;

/// Configuration of the iterative generator. Each round's II search runs
/// on the calling thread; the pipeline spreads label generation across
/// DFGs instead.
#[derive(Debug, Clone, PartialEq)]
pub struct IterGenConfig {
    /// Mapping rounds per DFG.
    pub rounds: usize,
    /// Annealer parameters for the partial label-aware SA.
    pub sa: SaParams,
    /// Cap on the II search (keeps the one-off generation bounded).
    pub max_ii: Option<u32>,
    /// Base RNG seed; each round perturbs it.
    pub seed: u64,
}

impl Default for IterGenConfig {
    fn default() -> Self {
        IterGenConfig {
            rounds: 5,
            sa: SaParams::paper(),
            max_ii: None,
            seed: 0xBADCAFE,
        }
    }
}

impl IterGenConfig {
    /// Reduced budget for tests.
    pub fn fast() -> Self {
        IterGenConfig {
            rounds: 3,
            sa: SaParams {
                time_limit: Duration::from_millis(500),
                ..SaParams::fast()
            },
            max_ii: Some(8),
            seed: 7,
        }
    }
}

/// One candidate label set with the quality of its source mapping.
#[derive(Debug, Clone)]
pub struct LabelCandidate {
    /// The extracted labels.
    pub labels: GuidanceLabels,
    /// II achieved by the mapping the labels came from.
    pub ii: u32,
    /// Routing cells used by that mapping.
    pub routing_cost: usize,
}

/// Result of the iterative generation for one DFG.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedLabels {
    /// The combined final labels (average of selected candidates).
    pub labels: GuidanceLabels,
    /// Best II achieved across rounds.
    pub best_ii: u32,
    /// Theoretical minimum II of the (DFG, accelerator) pair.
    pub mii: u32,
    /// Number of candidates that survived both selection rounds.
    pub candidate_count: usize,
}

/// Runs the iterative generator for one DFG on one accelerator.
///
/// Returns `None` when no round produced a complete mapping — such DFGs
/// cannot contribute training labels (the filter would reject them
/// anyway).
pub fn generate_labels(
    dfg: &Dfg,
    acc: &Accelerator,
    config: &IterGenConfig,
) -> Option<GeneratedLabels> {
    generate_labels_with(dfg, acc, config, 0, &EventSink::null())
}

/// Like [`generate_labels`], emitting a [`PipelineEvent::LabelGenRound`]
/// per mapping round and a closing [`PipelineEvent::LabelGenFinished`] to
/// `sink`, all tagged with `dfg_index`. The sink is also threaded into the
/// underlying annealer, so an active observer additionally sees
/// [`PipelineEvent::SaSnapshot`]s. Events are pure observations: the
/// result is identical to [`generate_labels`] (pinned by test).
pub fn generate_labels_with(
    dfg: &Dfg,
    acc: &Accelerator,
    config: &IterGenConfig,
    dfg_index: usize,
    sink: &EventSink,
) -> Option<GeneratedLabels> {
    let mut current = GuidanceLabels::initial(dfg);
    let mut candidates: Vec<LabelCandidate> = Vec::new();
    let mut best: Option<(u32, usize)> = None;

    for round in 0..config.rounds {
        let seed = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64);
        let mapper = LabelSaMapper::initial_only(current.clone(), config.sa.clone(), seed)
            .with_observer(sink.clone());
        let search = IiSearch {
            max_ii: config.max_ii,
        };
        let (outcome, mapping) = search.run(&mapper, dfg, acc, 1);
        let Some(mapping) = mapping else {
            if sink.is_active() {
                sink.emit(PipelineEvent::LabelGenRound {
                    dfg_index,
                    round,
                    ii: None,
                    routing_cells: 0,
                    improved: false,
                });
            }
            continue; // keep previous labels, try again (paper §V-B)
        };
        let ii = outcome.ii.expect("mapping implies an II");
        let routing_cost = outcome.routing_cells;
        let extracted = labels_from_mapping(&mapping);
        candidates.push(LabelCandidate {
            labels: extracted.clone(),
            ii,
            routing_cost,
        });
        let better = match best {
            None => true,
            Some((bi, bc)) => ii < bi || (ii == bi && routing_cost < bc),
        };
        if sink.is_active() {
            sink.emit(PipelineEvent::LabelGenRound {
                dfg_index,
                round,
                ii: Some(ii),
                routing_cells: routing_cost,
                improved: better,
            });
        }
        if better {
            best = Some((ii, routing_cost));
            current = extracted;
        }
    }

    let generated = best.map(|(best_ii, _)| {
        let selected = select_candidates(&candidates, best_ii);
        let labels = average_labels(
            &selected
                .iter()
                .map(|c| c.labels.clone())
                .collect::<Vec<_>>(),
        );
        GeneratedLabels {
            labels,
            best_ii,
            mii: mii(dfg, acc),
            candidate_count: selected.len(),
        }
    });
    if sink.is_active() {
        let result = match &generated {
            Some(g) => LabelGenResult::Mapped {
                best_ii: g.best_ii,
                mii: g.mii,
                candidates: g.candidate_count,
            },
            None => LabelGenResult::Unmappable,
        };
        sink.emit(PipelineEvent::LabelGenFinished {
            dfg_index,
            result,
            resumed: false,
        });
    }
    generated
}

/// The paper's two selection rounds: keep minimum-II candidates, then those
/// whose routing cost is within [`ROUTING_COST_SLACK`] of the best.
fn select_candidates(candidates: &[LabelCandidate], best_ii: u32) -> Vec<&LabelCandidate> {
    let min_ii: Vec<&LabelCandidate> = candidates.iter().filter(|c| c.ii == best_ii).collect();
    let standard = min_ii
        .iter()
        .map(|c| c.routing_cost)
        .min()
        .expect("at least the best candidate survives");
    min_ii
        .into_iter()
        .filter(|c| (c.routing_cost as f64) <= standard as f64 * ROUTING_COST_SLACK)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;

    #[test]
    fn generates_labels_for_small_kernel() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let gen =
            generate_labels(&dfg, &acc, &IterGenConfig::fast()).expect("doitgen maps on a 4x4");
        assert!(gen.labels.matches(&dfg));
        assert!(gen.best_ii >= gen.mii);
        assert!(gen.candidate_count >= 1);
        // Extracted temporal distances are causal.
        assert!(gen.labels.temporal.iter().all(|&t| t >= 1.0));
    }

    #[test]
    fn impossible_target_returns_none() {
        let dfg = polybench::kernel("syr2k").unwrap();
        // A 1x1 CGRA with II capped below the node count cannot map.
        let acc = Accelerator::cgra("1x1", 1, 1).with_max_ii(2);
        let config = IterGenConfig::fast();
        assert!(generate_labels(&dfg, &acc, &config).is_none());
    }

    #[test]
    fn selection_rounds_filter_costly_candidates() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let base = GuidanceLabels::initial(&dfg);
        let mk = |ii, cost| LabelCandidate {
            labels: base.clone(),
            ii,
            routing_cost: cost,
        };
        let candidates = vec![mk(2, 10), mk(2, 11), mk(2, 20), mk(3, 5)];
        let selected = select_candidates(&candidates, 2);
        // II 3 excluded; cost 20 > 1.15 * 10 excluded.
        assert_eq!(selected.len(), 2);
        assert!(selected.iter().all(|c| c.ii == 2));
    }

    #[test]
    fn observer_sees_rounds_and_a_finish() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;

        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let config = IterGenConfig::fast();
        let recorder = Arc::new(RecordingObserver::default());
        let sink = EventSink::new(recorder.clone());
        let gen = generate_labels_with(&dfg, &acc, &config, 3, &sink).unwrap();
        let events = recorder.take();

        let rounds: Vec<&PipelineEvent> = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::LabelGenRound { .. }))
            .collect();
        assert_eq!(rounds.len(), config.rounds);
        for (i, event) in rounds.iter().enumerate() {
            let PipelineEvent::LabelGenRound {
                dfg_index, round, ..
            } = event
            else {
                unreachable!()
            };
            assert_eq!((*dfg_index, *round), (3, i));
        }
        // SA snapshots from the threaded annealer sink appear too.
        assert!(events
            .iter()
            .any(|e| matches!(e, PipelineEvent::SaSnapshot { .. })));
        assert_eq!(
            *events.last().unwrap(),
            PipelineEvent::LabelGenFinished {
                dfg_index: 3,
                result: LabelGenResult::Mapped {
                    best_ii: gen.best_ii,
                    mii: gen.mii,
                    candidates: gen.candidate_count,
                },
                resumed: false,
            }
        );
    }

    #[test]
    fn observer_reports_unmappable_and_changes_nothing() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;

        let dfg = polybench::kernel("syr2k").unwrap();
        let acc = Accelerator::cgra("1x1", 1, 1).with_max_ii(2);
        let config = IterGenConfig::fast();
        let recorder = Arc::new(RecordingObserver::default());
        let sink = EventSink::new(recorder.clone());
        assert!(generate_labels_with(&dfg, &acc, &config, 0, &sink).is_none());
        let events = recorder.take();
        assert_eq!(
            *events.last().unwrap(),
            PipelineEvent::LabelGenFinished {
                dfg_index: 0,
                result: LabelGenResult::Unmappable,
                resumed: false,
            }
        );
        // Failed rounds still report, with no II.
        assert!(events
            .iter()
            .any(|e| matches!(e, PipelineEvent::LabelGenRound { ii: None, .. })));
    }

    #[test]
    fn observer_does_not_change_the_labels() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;

        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let config = IterGenConfig::fast();
        let silent = generate_labels(&dfg, &acc, &config).unwrap();
        let sink = EventSink::new(Arc::new(RecordingObserver::default()));
        let observed = generate_labels_with(&dfg, &acc, &config, 0, &sink).unwrap();
        assert_eq!(silent, observed);
    }

    #[test]
    fn deterministic_given_config() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let a = generate_labels(&dfg, &acc, &IterGenConfig::fast()).unwrap();
        let b = generate_labels(&dfg, &acc, &IterGenConfig::fast()).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.best_ii, b.best_ii);
    }
}
