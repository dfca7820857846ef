//! The pipeline event vocabulary and its JSONL encoding.

use std::time::Duration;

/// Outcome of the iterative label generator for one DFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelGenResult {
    /// At least one round produced a complete mapping.
    Mapped {
        /// Best II achieved across rounds.
        best_ii: u32,
        /// Theoretical minimum II of the (DFG, accelerator) pair.
        mii: u32,
        /// Candidates surviving both selection rounds.
        candidates: usize,
    },
    /// No round mapped; the DFG contributes no training labels.
    Unmappable,
}

/// One structured event from the training pipeline or its substages.
///
/// Identifiers use plain integers (node/edge/DFG indices) rather than the
/// typed ids of the upper crates, so this enum stays at the bottom of the
/// dependency graph and every layer can emit into the same sink.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineEvent {
    /// A pipeline stage began.
    StageStarted {
        /// Stage name (e.g. `"GenerateLabels"`).
        stage: &'static str,
    },
    /// A pipeline stage completed.
    StageFinished {
        /// Stage name.
        stage: &'static str,
        /// Wall-clock duration of the stage.
        duration: Duration,
    },
    /// One synthetic training DFG was generated.
    DfgGenerated {
        /// Index within the training set.
        index: usize,
        /// Node count.
        nodes: usize,
        /// Edge count.
        edges: usize,
    },
    /// One round of the iterative label generator finished.
    LabelGenRound {
        /// Index of the DFG being labelled.
        dfg_index: usize,
        /// Round number (0-based).
        round: usize,
        /// II achieved this round, if the round mapped.
        ii: Option<u32>,
        /// Routing cells of the round's mapping (0 when unmapped).
        routing_cells: usize,
        /// Whether the round improved on the best mapping so far.
        improved: bool,
    },
    /// The iterative label generator finished one DFG.
    LabelGenFinished {
        /// Index of the labelled DFG.
        dfg_index: usize,
        /// Mapping outcome.
        result: LabelGenResult,
        /// `true` when the outcome was restored from a checkpoint
        /// artifact instead of recomputed.
        resumed: bool,
    },
    /// The §V-C quality filter judged one labelled DFG.
    FilterDecision {
        /// Index of the DFG.
        dfg_index: usize,
        /// Whether it enters the training set.
        accepted: bool,
        /// The quality metric `e = O + σ·N`.
        quality: f64,
    },
    /// One training epoch of a label network completed.
    EpochLoss {
        /// Which network (e.g. `"schedule_order"`).
        network: &'static str,
        /// Epoch number (0-based).
        epoch: usize,
        /// Mean loss of the epoch.
        loss: f64,
    },
    /// A mapping-service request entered the daemon (serve lifecycle:
    /// enqueue → cache-probe → anneal → respond).
    ServeEnqueued {
        /// Monotonic per-daemon request id.
        request: u64,
        /// Requests already waiting for a compute slot.
        queue_depth: usize,
    },
    /// The content-addressed cache was probed for a request.
    ServeCacheProbe {
        /// Request id.
        request: u64,
        /// Hex cache key (FNV-1a 64 of the canonical request text, the
        /// resident model's digest, and the mapper format).
        key: u64,
        /// Which tier answered: `"memory"`, `"disk"`, or `"none"`.
        tier: &'static str,
    },
    /// A cache miss entered the annealer (the expensive path).
    ServeAnnealStarted {
        /// Request id.
        request: u64,
    },
    /// The daemon answered a request.
    ServeResponded {
        /// Request id.
        request: u64,
        /// How it was served: `"hit_memory"`, `"hit_disk"`, `"computed"`,
        /// `"coalesced"`, `"overloaded"`, or `"error"`.
        disposition: &'static str,
        /// Wall-clock time from enqueue to response.
        duration: Duration,
    },
    /// Per-temperature snapshot of a simulated-annealing chain (the
    /// replacement for the `LISA_SA_DEBUG` env-var path).
    SaSnapshot {
        /// Lane index in the race.
        chain: usize,
        /// Target II of the annealing run.
        ii: u32,
        /// Current temperature.
        temp: f64,
        /// Current mapping cost.
        cost: f64,
        /// Unplaced node count.
        unplaced: usize,
        /// Unrouted edge count.
        unrouted: usize,
        /// Accepted movements so far.
        accepted: u32,
        /// Attempted movements so far.
        attempted: u32,
    },
    /// One routed-and-priced SA movement: the training pair for the
    /// predict-then-verify movement filter. Emitted only when a sink is
    /// listening (building the feature vector is skipped otherwise).
    SaMovementSample {
        /// Lane index in the race.
        chain: usize,
        /// Target II of the annealing run.
        ii: u32,
        /// Movement feature vector (`lisa_mapper::predictor` layout).
        features: Vec<f64>,
        /// Exact cost delta `new_cost - old_cost` measured after routing.
        delta_cost: f64,
    },
    /// End-of-lane totals of the movement-filter counters. Emitted once
    /// per lane of a race, with or without a filter attached, so A/B
    /// router-work comparisons read every lane from the same stream.
    SaFilterSummary {
        /// Lane index in the race.
        chain: usize,
        /// Target II of the annealing run.
        ii: u32,
        /// Movements proposed (victims unplaced and re-placed).
        proposals: u64,
        /// Proposals the predictor admitted to routing (with no filter
        /// attached every proposal is admitted).
        admitted: u64,
        /// Proposals the predictor rejected before routing.
        rejected: u64,
        /// Rejected proposals routed anyway for the false-reject audit.
        audited: u64,
        /// Audited rejects the annealer would have accepted.
        false_rejects: u64,
        /// `route_edge` invocations on the admitted path (incl. the
        /// initial construction).
        router_invocations: u64,
        /// `route_edge` invocations spent on the audit (measure-only).
        audit_router_invocations: u64,
    },
    /// The race's winner for one II attempt: which lane produced
    /// the mapping the deterministic winner rule kept.
    StrategyLaneWon {
        /// Target II of the race.
        ii: u32,
        /// Winning lane index.
        lane: usize,
        /// Stable lane name (`sa` or `constructive`).
        strategy: &'static str,
        /// Cost of the winning mapping.
        cost: f64,
    },
}

impl PipelineEvent {
    /// A stable snake_case tag naming the variant (the JSONL `"event"`
    /// field).
    pub fn tag(&self) -> &'static str {
        match self {
            PipelineEvent::StageStarted { .. } => "stage_started",
            PipelineEvent::StageFinished { .. } => "stage_finished",
            PipelineEvent::DfgGenerated { .. } => "dfg_generated",
            PipelineEvent::LabelGenRound { .. } => "label_gen_round",
            PipelineEvent::LabelGenFinished { .. } => "label_gen_finished",
            PipelineEvent::FilterDecision { .. } => "filter_decision",
            PipelineEvent::EpochLoss { .. } => "epoch_loss",
            PipelineEvent::ServeEnqueued { .. } => "serve_enqueued",
            PipelineEvent::ServeCacheProbe { .. } => "serve_cache_probe",
            PipelineEvent::ServeAnnealStarted { .. } => "serve_anneal_started",
            PipelineEvent::ServeResponded { .. } => "serve_responded",
            PipelineEvent::SaSnapshot { .. } => "sa_snapshot",
            PipelineEvent::SaMovementSample { .. } => "sa_movement_sample",
            PipelineEvent::SaFilterSummary { .. } => "sa_filter_summary",
            PipelineEvent::StrategyLaneWon { .. } => "strategy_lane_won",
        }
    }

    /// Encodes the event as a single-line JSON object (the hermetic build
    /// has no serde; the vocabulary is small enough to encode by hand).
    pub fn to_json(&self) -> String {
        let mut fields = vec![format!("\"event\":\"{}\"", self.tag())];
        match self {
            PipelineEvent::StageStarted { stage } => {
                fields.push(format!("\"stage\":\"{stage}\""));
            }
            PipelineEvent::StageFinished { stage, duration } => {
                fields.push(format!("\"stage\":\"{stage}\""));
                fields.push(format!(
                    "\"duration_ms\":{:.3}",
                    duration.as_secs_f64() * 1e3
                ));
            }
            PipelineEvent::DfgGenerated {
                index,
                nodes,
                edges,
            } => {
                fields.push(format!("\"index\":{index}"));
                fields.push(format!("\"nodes\":{nodes}"));
                fields.push(format!("\"edges\":{edges}"));
            }
            PipelineEvent::LabelGenRound {
                dfg_index,
                round,
                ii,
                routing_cells,
                improved,
            } => {
                fields.push(format!("\"dfg_index\":{dfg_index}"));
                fields.push(format!("\"round\":{round}"));
                fields.push(match ii {
                    Some(ii) => format!("\"ii\":{ii}"),
                    None => "\"ii\":null".to_string(),
                });
                fields.push(format!("\"routing_cells\":{routing_cells}"));
                fields.push(format!("\"improved\":{improved}"));
            }
            PipelineEvent::LabelGenFinished {
                dfg_index,
                result,
                resumed,
            } => {
                fields.push(format!("\"dfg_index\":{dfg_index}"));
                match result {
                    LabelGenResult::Mapped {
                        best_ii,
                        mii,
                        candidates,
                    } => {
                        fields.push("\"mapped\":true".to_string());
                        fields.push(format!("\"best_ii\":{best_ii}"));
                        fields.push(format!("\"mii\":{mii}"));
                        fields.push(format!("\"candidates\":{candidates}"));
                    }
                    LabelGenResult::Unmappable => {
                        fields.push("\"mapped\":false".to_string());
                    }
                }
                fields.push(format!("\"resumed\":{resumed}"));
            }
            PipelineEvent::FilterDecision {
                dfg_index,
                accepted,
                quality,
            } => {
                fields.push(format!("\"dfg_index\":{dfg_index}"));
                fields.push(format!("\"accepted\":{accepted}"));
                fields.push(format!("\"quality\":{}", json_f64(*quality)));
            }
            PipelineEvent::EpochLoss {
                network,
                epoch,
                loss,
            } => {
                fields.push(format!("\"network\":\"{network}\""));
                fields.push(format!("\"epoch\":{epoch}"));
                fields.push(format!("\"loss\":{}", json_f64(*loss)));
            }
            PipelineEvent::ServeEnqueued {
                request,
                queue_depth,
            } => {
                fields.push(format!("\"request\":{request}"));
                fields.push(format!("\"queue_depth\":{queue_depth}"));
            }
            PipelineEvent::ServeCacheProbe { request, key, tier } => {
                fields.push(format!("\"request\":{request}"));
                fields.push(format!("\"key\":\"{key:016x}\""));
                fields.push(format!("\"tier\":\"{tier}\""));
            }
            PipelineEvent::ServeAnnealStarted { request } => {
                fields.push(format!("\"request\":{request}"));
            }
            PipelineEvent::ServeResponded {
                request,
                disposition,
                duration,
            } => {
                fields.push(format!("\"request\":{request}"));
                fields.push(format!("\"disposition\":\"{disposition}\""));
                fields.push(format!(
                    "\"duration_ms\":{:.3}",
                    duration.as_secs_f64() * 1e3
                ));
            }
            PipelineEvent::SaSnapshot {
                chain,
                ii,
                temp,
                cost,
                unplaced,
                unrouted,
                accepted,
                attempted,
            } => {
                fields.push(format!("\"chain\":{chain}"));
                fields.push(format!("\"ii\":{ii}"));
                fields.push(format!("\"temp\":{}", json_f64(*temp)));
                fields.push(format!("\"cost\":{}", json_f64(*cost)));
                fields.push(format!("\"unplaced\":{unplaced}"));
                fields.push(format!("\"unrouted\":{unrouted}"));
                fields.push(format!("\"accepted\":{accepted}"));
                fields.push(format!("\"attempted\":{attempted}"));
            }
            PipelineEvent::SaMovementSample {
                chain,
                ii,
                features,
                delta_cost,
            } => {
                fields.push(format!("\"chain\":{chain}"));
                fields.push(format!("\"ii\":{ii}"));
                let xs: Vec<String> = features.iter().map(|&v| json_f64(v)).collect();
                fields.push(format!("\"features\":[{}]", xs.join(",")));
                fields.push(format!("\"delta_cost\":{}", json_f64(*delta_cost)));
            }
            PipelineEvent::SaFilterSummary {
                chain,
                ii,
                proposals,
                admitted,
                rejected,
                audited,
                false_rejects,
                router_invocations,
                audit_router_invocations,
            } => {
                fields.push(format!("\"chain\":{chain}"));
                fields.push(format!("\"ii\":{ii}"));
                fields.push(format!("\"proposals\":{proposals}"));
                fields.push(format!("\"admitted\":{admitted}"));
                fields.push(format!("\"rejected\":{rejected}"));
                fields.push(format!("\"audited\":{audited}"));
                fields.push(format!("\"false_rejects\":{false_rejects}"));
                fields.push(format!("\"router_invocations\":{router_invocations}"));
                fields.push(format!(
                    "\"audit_router_invocations\":{audit_router_invocations}"
                ));
            }
            PipelineEvent::StrategyLaneWon {
                ii,
                lane,
                strategy,
                cost,
            } => {
                fields.push(format!("\"ii\":{ii}"));
                fields.push(format!("\"lane\":{lane}"));
                fields.push(format!("\"strategy\":\"{strategy}\""));
                fields.push(format!("\"cost\":{}", json_f64(*cost)));
            }
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// JSON has no NaN/Infinity literals; encode them as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let events = [
            PipelineEvent::StageStarted { stage: "s" },
            PipelineEvent::StageFinished {
                stage: "s",
                duration: Duration::ZERO,
            },
            PipelineEvent::DfgGenerated {
                index: 0,
                nodes: 1,
                edges: 0,
            },
            PipelineEvent::LabelGenRound {
                dfg_index: 0,
                round: 0,
                ii: None,
                routing_cells: 0,
                improved: false,
            },
            PipelineEvent::LabelGenFinished {
                dfg_index: 0,
                result: LabelGenResult::Unmappable,
                resumed: false,
            },
            PipelineEvent::FilterDecision {
                dfg_index: 0,
                accepted: true,
                quality: 1.0,
            },
            PipelineEvent::EpochLoss {
                network: "n",
                epoch: 0,
                loss: 0.5,
            },
            PipelineEvent::ServeEnqueued {
                request: 1,
                queue_depth: 0,
            },
            PipelineEvent::ServeCacheProbe {
                request: 1,
                key: 0xfeed,
                tier: "memory",
            },
            PipelineEvent::ServeAnnealStarted { request: 1 },
            PipelineEvent::ServeResponded {
                request: 1,
                disposition: "computed",
                duration: Duration::ZERO,
            },
            PipelineEvent::SaSnapshot {
                chain: 0,
                ii: 2,
                temp: 1.0,
                cost: 3.0,
                unplaced: 0,
                unrouted: 1,
                accepted: 2,
                attempted: 4,
            },
            PipelineEvent::SaMovementSample {
                chain: 0,
                ii: 2,
                features: vec![1.0, 2.0],
                delta_cost: -3.5,
            },
            PipelineEvent::SaFilterSummary {
                chain: 0,
                ii: 2,
                proposals: 10,
                admitted: 7,
                rejected: 3,
                audited: 1,
                false_rejects: 0,
                router_invocations: 20,
                audit_router_invocations: 2,
            },
            PipelineEvent::StrategyLaneWon {
                ii: 2,
                lane: 1,
                strategy: "constructive",
                cost: 12.5,
            },
        ];
        let mut tags: Vec<&str> = events.iter().map(PipelineEvent::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), events.len());
    }

    #[test]
    fn json_lines_carry_the_tag_and_fields() {
        let e = PipelineEvent::LabelGenFinished {
            dfg_index: 7,
            result: LabelGenResult::Mapped {
                best_ii: 3,
                mii: 2,
                candidates: 4,
            },
            resumed: true,
        };
        let json = e.to_json();
        assert!(json.starts_with("{\"event\":\"label_gen_finished\""));
        assert!(json.contains("\"dfg_index\":7"));
        assert!(json.contains("\"best_ii\":3"));
        assert!(json.contains("\"resumed\":true"));
        assert!(json.ends_with('}'));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn unmapped_round_encodes_null_ii() {
        let e = PipelineEvent::LabelGenRound {
            dfg_index: 0,
            round: 2,
            ii: None,
            routing_cells: 0,
            improved: false,
        };
        assert!(e.to_json().contains("\"ii\":null"));
    }

    #[test]
    fn movement_sample_encodes_feature_array() {
        let e = PipelineEvent::SaMovementSample {
            chain: 1,
            ii: 3,
            features: vec![0.5, f64::NAN, 2.0],
            delta_cost: -7.25,
        };
        let json = e.to_json();
        assert!(json.starts_with("{\"event\":\"sa_movement_sample\""));
        assert!(json.contains("\"features\":[0.5,null,2]"));
        assert!(json.contains("\"delta_cost\":-7.25"));
    }

    #[test]
    fn filter_summary_carries_every_counter() {
        let e = PipelineEvent::SaFilterSummary {
            chain: 2,
            ii: 4,
            proposals: 100,
            admitted: 40,
            rejected: 60,
            audited: 4,
            false_rejects: 1,
            router_invocations: 250,
            audit_router_invocations: 9,
        };
        let json = e.to_json();
        assert!(json.contains("\"proposals\":100"));
        assert!(json.contains("\"false_rejects\":1"));
        assert!(json.contains("\"router_invocations\":250"));
        assert!(json.contains("\"audit_router_invocations\":9"));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let e = PipelineEvent::EpochLoss {
            network: "edge",
            epoch: 1,
            loss: f64::NAN,
        };
        assert!(e.to_json().contains("\"loss\":null"));
    }
}
