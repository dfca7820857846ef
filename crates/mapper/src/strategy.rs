//! The lane race: heterogeneous search algorithms raced for one II.
//!
//! A [`StrategySpec`] is the one description of a race: its lane list
//! says which algorithm runs in each lane (`sa,sa,sa,sa` is four
//! independently seeded annealers; `mixed` is `constructive,sa`). Every
//! lane runs over the shared substrate — [`Mapping`] (placement +
//! routing with the transaction journal), the Dijkstra router, the
//! `lisa-events` sink, and the optional movement filter. Two lane kinds
//! exist:
//!
//! * [`LaneKind::Sa`] — the annealer ([`crate::sa`]); a one-lane `sa`
//!   race is the paper's single annealing chain;
//! * [`LaneKind::Constructive`] —
//!   [`crate::constructive::ConstructiveStrategy`], a LOCAL-style
//!   low-complexity one-pass mapper that often finishes easy kernels
//!   outright at a tiny fraction of the router work.
//!
//! **Winner rule.** Lanes run one after another on the calling thread.
//! Constructive lanes run first, in lane-index order: they are
//! deterministic and orders of magnitude cheaper than an annealing lane,
//! so a complete constructive mapping wins outright. The annealing lanes
//! then run in lane-index order, and the winner is the lowest-cost
//! complete mapping, ties broken by lane index. Lane seeds derive from
//! the lane *index* via `portfolio::chain_seed`, so the outcome is a pure
//! function of the spec, the seed and the problem. The only thread
//! fan-out inside a request is the wave of II attempts in
//! [`crate::schedule::IiSearch::run`].
//!
//! After each lane returns, the race emits the lane's router-work
//! counters as one [`PipelineEvent::SaFilterSummary`], so A/B
//! measurements read every lane from the same stream.

use std::fmt;

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_events::{EventSink, PipelineEvent};

use crate::constructive::ConstructiveStrategy;
use crate::label_sa::Policy;
use crate::portfolio::chain_seed;
use crate::predictor::{FilterStats, MovementScorer};
use crate::sa::{anneal, mapping_cost, SaParams};
use crate::Mapping;

/// Which search algorithm runs in one lane of a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Simulated annealing.
    Sa,
    /// LOCAL-style one-pass constructive mapping.
    Constructive,
}

impl LaneKind {
    /// The stable lane name used in specs, events, and bench metrics.
    pub fn name(self) -> &'static str {
        match self {
            LaneKind::Sa => "sa",
            LaneKind::Constructive => "constructive",
        }
    }

    fn parse_one(name: &str) -> Option<LaneKind> {
        match name {
            "sa" => Some(LaneKind::Sa),
            "constructive" => Some(LaneKind::Constructive),
            _ => None,
        }
    }
}

/// The lane mix of the `mixed` strategy alias: a constructive scout,
/// then the annealer.
pub const MIXED_LANES: [LaneKind; 2] = [LaneKind::Constructive, LaneKind::Sa];

/// Which lanes race for each II attempt: a non-empty lane list, raced
/// under the winner rule of the module docs.
///
/// Parsed from `lisa-map --strategy`, the `strategy` field of a
/// `lisa-request v1` document, and [`Display`](fmt::Display)ed back in
/// canonical form (`parse` ∘ `to_string` is the identity on parsed
/// specs, which is what the serve cache key relies on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategySpec {
    lanes: Vec<LaneKind>,
}

impl Default for StrategySpec {
    /// One annealing lane: the paper's single annealing chain.
    fn default() -> Self {
        StrategySpec {
            lanes: vec![LaneKind::Sa],
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(lane.name())?;
        }
        Ok(())
    }
}

/// A strategy spec that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    spec: String,
}

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy `{}` (expected sa, constructive, mixed, or a \
             comma-separated lane list)",
            self.spec
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl StrategySpec {
    /// Parses a strategy spec: the `mixed` alias (`constructive,sa`) or
    /// a comma-separated list of lane names (`sa`, `constructive`), one
    /// lane per name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseStrategyError`] naming the unrecognized spec.
    pub fn parse(spec: &str) -> Result<StrategySpec, ParseStrategyError> {
        let trimmed = spec.trim();
        if trimmed == "mixed" {
            return Ok(StrategySpec {
                lanes: MIXED_LANES.to_vec(),
            });
        }
        trimmed
            .split(',')
            .map(|part| LaneKind::parse_one(part.trim()))
            .collect::<Option<Vec<_>>>()
            .map(|lanes| StrategySpec { lanes })
            .ok_or_else(|| ParseStrategyError {
                spec: spec.to_string(),
            })
    }

    /// The lane list, in lane-index order. `_chains` is ignored: the
    /// list says how many lanes run (N annealers are `sa,…,sa`).
    pub fn expand(&self, _chains: usize) -> Vec<LaneKind> {
        self.lanes.clone()
    }
}

/// Races the lanes of `spec` for one II under the winner rule of the
/// module docs and returns the winning mapping. Each annealing lane
/// decides with its own copy of `policy`; lane `i` is seeded with
/// `chain_seed(seed, i, ii)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn race_lanes<'a>(
    spec: &StrategySpec,
    policy: &Policy<'_>,
    params: &SaParams,
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
    sink: &EventSink,
    filter: Option<&dyn MovementScorer>,
) -> Option<Mapping<'a>> {
    let lanes = &spec.lanes;
    let run_lane = |lane: usize| {
        let mut stats = FilterStats::default();
        let mapping = match lanes[lane] {
            LaneKind::Sa => anneal(
                policy.clone(),
                params,
                dfg,
                acc,
                ii,
                chain_seed(seed, lane as u64, ii),
                lane,
                sink,
                filter,
                &mut stats,
            ),
            LaneKind::Constructive => ConstructiveStrategy.run(dfg, acc, ii, &mut stats),
        };
        if sink.is_active() {
            sink.emit(stats.to_event(lane, ii));
        }
        mapping.map(|m| (mapping_cost(&m), lane, m))
    };
    let is_constructive = |lane: &usize| lanes[*lane] == LaneKind::Constructive;

    // A complete constructive lane wins outright; otherwise every
    // annealing lane runs and the cheapest complete mapping wins.
    let winner = (0..lanes.len())
        .filter(is_constructive)
        .find_map(&run_lane)
        .or_else(|| {
            (0..lanes.len())
                .filter(|lane| !is_constructive(lane))
                .filter_map(&run_lane)
                // Strict improvement only: earlier lanes win ties.
                .reduce(|best, next| if next.0 < best.0 { next } else { best })
        });
    winner.map(|(cost, lane, m)| {
        if sink.is_active() {
            sink.emit(PipelineEvent::StrategyLaneWon {
                ii,
                lane,
                strategy: lanes[lane].name(),
                cost,
            });
        }
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_events::RecordingObserver;
    use std::sync::Arc;

    fn lanes(spec: &str) -> Vec<LaneKind> {
        StrategySpec::parse(spec).unwrap().lanes
    }

    #[test]
    fn every_lane_reports_its_counters_even_at_an_ii_the_fabric_rejects() {
        // II 5 is above the fabric's maximum, so no lane can build a
        // mapping; each still reports a (zero) summary, and nobody wins.
        let dfg = lisa_dfg::polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let recorder = Arc::new(RecordingObserver::default());
        let mapping = race_lanes(
            &StrategySpec::parse("mixed").unwrap(),
            &Policy::vanilla(),
            &SaParams::fast(),
            &dfg,
            &acc,
            5,
            7,
            &EventSink::new(recorder.clone()),
            None,
        );
        assert!(mapping.is_none());
        let zero: Vec<PipelineEvent> = (0..MIXED_LANES.len())
            .map(|lane| FilterStats::default().to_event(lane, 5))
            .collect();
        assert_eq!(recorder.take(), zero);
    }

    #[test]
    fn parse_accepts_every_lane_and_the_aliases() {
        use LaneKind::{Constructive, Sa};
        assert_eq!(lanes("sa"), [Sa]);
        assert_eq!(lanes("constructive"), [Constructive]);
        assert_eq!(lanes("mixed"), MIXED_LANES);
        assert_eq!(lanes("constructive, sa ,sa"), [Constructive, Sa, Sa]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "annealing",
            "sa;sa",
            "sa,,sa",
            "mixed,sa",
            "evolutionary",
            "evo",
            "constructive,sa,evolutionary",
        ] {
            assert!(StrategySpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        let err = StrategySpec::parse("warp-drive").unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for spec in [
            "sa",
            "constructive",
            "mixed",
            "sa,sa",
            "constructive,constructive,sa",
        ] {
            let parsed = StrategySpec::parse(spec).unwrap();
            let canonical = parsed.to_string();
            assert_eq!(
                StrategySpec::parse(&canonical).unwrap(),
                parsed,
                "`{spec}` -> `{canonical}` did not round-trip"
            );
            // Canonical form is a fixpoint.
            assert_eq!(
                StrategySpec::parse(&canonical).unwrap().to_string(),
                canonical
            );
        }
        // The alias and its lane list share one canonical text (one
        // cache key).
        assert_eq!(
            StrategySpec::parse("mixed").unwrap().to_string(),
            "constructive,sa"
        );
        assert!(StrategySpec::parse("sa,").is_err());
        assert_eq!(
            StrategySpec::parse(" sa ").unwrap().to_string(),
            StrategySpec::default().to_string()
        );
    }

    #[test]
    fn expand_returns_the_lane_list_whatever_chains_says() {
        for spec in ["sa", "constructive", "mixed", "sa,sa,constructive"] {
            let parsed = StrategySpec::parse(spec).unwrap();
            for chains in [0, 1, 4] {
                assert_eq!(parsed.expand(chains), lanes(spec), "`{spec}` x{chains}");
            }
        }
        assert_eq!(StrategySpec::default().expand(3), [LaneKind::Sa]);
    }
}
