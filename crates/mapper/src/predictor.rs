//! Predict-then-verify movement filtering: the mapper-side contract.
//!
//! The SA inner loop pays a full routing pass to price every proposed
//! movement, even though most proposals are rejected. A cheap learned
//! scorer can look at a movement *after* placement but *before* routing
//! and discard obviously-bad proposals, so the router runs only on the
//! survivors. Crucially the filter is advisory on the reject path only:
//! every movement the annealer *accepts* was routed and priced by the
//! exact incremental cost function, so accepted-state cost is provably
//! exact and mapping quality is unchanged by construction — a filter can
//! cost search progress, never correctness.
//!
//! This module defines the pieces the annealer needs without depending on
//! the learning stack: the [`MovementScorer`] trait (implemented by
//! `lisa-labels`' trained predictor), the [movement feature
//! vector](MOVEMENT_FEATURE_DIM), and the [`FilterStats`] counters that
//! make router work measurable, with their [`PipelineEvent::SaFilterSummary`]
//! form and the [`FilterTotals`] observer that sums them back up. The
//! gating itself lives in `sa.rs`.

use std::sync::{Mutex, PoisonError};

use lisa_arch::PeId;
use lisa_dfg::NodeId;
use lisa_events::{Observer, PipelineEvent};

use crate::mapping::Placement;
use crate::Mapping;

/// Width of the movement feature vector the annealer builds for each
/// proposed movement (`movement_features_into`).
pub const MOVEMENT_FEATURE_DIM: usize = 14;

/// Scores a proposed movement from its feature vector, before routing.
///
/// Implementations must be deterministic pure functions of the feature
/// vector and temperature: every lane of a race, and every II attempt of
/// a parallel II search, shares one immutable scorer, and the
/// determinism of predictor-on runs depends on it.
pub trait MovementScorer: Send + Sync + std::fmt::Debug {
    /// `true` admits the movement to routing; `false` rejects it without
    /// invoking the router (the annealer rolls the placement back).
    ///
    /// `temp` is the annealer's current temperature. A scorer should only
    /// reject movements whose metropolis acceptance at `temp` would be
    /// negligible: simulated annealing *needs* uphill moves while hot,
    /// and a temperature-blind gate starves tight feasibility searches
    /// of exactly the large perturbations that let them converge.
    fn admit(&self, features: &[f64], temp: f64) -> bool;
}

/// Router-work counters for one search lane (or a whole run, after
/// [`FilterStats::merge`]). Maintained with or without a filter
/// attached, so predictor-off baselines report comparable numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Movements proposed (victims unplaced and re-placed).
    pub proposals: u64,
    /// Proposals admitted to routing (every proposal, when no filter is
    /// attached).
    pub admitted: u64,
    /// Proposals the scorer rejected before routing.
    pub rejected: u64,
    /// Rejected proposals routed anyway, measure-only, by the
    /// deterministic false-reject audit.
    pub audited: u64,
    /// Audited rejects the annealer would in fact have accepted.
    pub false_rejects: u64,
    /// `route_edge` invocations on the admitted path, including the
    /// initial mapping construction. Unobserved, a movement's routing
    /// stops once the accept test is sure to reject it, while an observed
    /// lane routes every admitted movement to the end, so an unobserved
    /// count can be lower than the observed one for the same trajectory.
    pub router_invocations: u64,
    /// `route_edge` invocations spent on the audit. Kept separate so A/B
    /// comparisons of admitted-path router work stay fair.
    pub audit_router_invocations: u64,
}

impl FilterStats {
    /// Accumulates another lane's counters.
    pub fn merge(&mut self, other: &FilterStats) {
        self.proposals += other.proposals;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.audited += other.audited;
        self.false_rejects += other.false_rejects;
        self.router_invocations += other.router_invocations;
        self.audit_router_invocations += other.audit_router_invocations;
    }

    /// The counters as the [`PipelineEvent::SaFilterSummary`] of lane
    /// `lane` at target `ii`.
    pub fn to_event(&self, lane: usize, ii: u32) -> PipelineEvent {
        PipelineEvent::SaFilterSummary {
            chain: lane,
            ii,
            proposals: self.proposals,
            admitted: self.admitted,
            rejected: self.rejected,
            audited: self.audited,
            false_rejects: self.false_rejects,
            router_invocations: self.router_invocations,
            audit_router_invocations: self.audit_router_invocations,
        }
    }

    /// The counters a [`PipelineEvent::SaFilterSummary`] carries, or
    /// `None` for any other event.
    pub fn from_event(event: &PipelineEvent) -> Option<FilterStats> {
        match *event {
            PipelineEvent::SaFilterSummary {
                proposals,
                admitted,
                rejected,
                audited,
                false_rejects,
                router_invocations,
                audit_router_invocations,
                ..
            } => Some(FilterStats {
                proposals,
                admitted,
                rejected,
                audited,
                false_rejects,
                router_invocations,
                audit_router_invocations,
            }),
            _ => None,
        }
    }
}

/// An observer summing every [`PipelineEvent::SaFilterSummary`] it sees
/// (all IIs, all lanes) — the aggregate router work of a run.
#[derive(Debug, Default)]
pub struct FilterTotals(Mutex<FilterStats>);

impl FilterTotals {
    /// The totals so far, resetting them to zero.
    pub fn take(&self) -> FilterStats {
        let mut totals = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *totals)
    }
}

impl Observer for FilterTotals {
    fn event(&self, event: &PipelineEvent) {
        if let Some(stats) = FilterStats::from_event(event) {
            let mut totals = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            totals.merge(&stats);
        }
    }
}

/// Builds the movement feature vector: the movement's shape (how many
/// nodes moved, how far), the local placement context of the moved nodes
/// (operation class, degrees, schedule position and slack, distance to
/// placed data neighbours, target-PE congestion), and the global mapping
/// state the movement landed in (unplaced/unrouted fractions, routing
/// occupancy). Called after placement and before routing; reads only.
///
/// Layout (all values normalised to roughly `[0, 1]`; means are over the
/// moved set, pair terms over (moved node, placed data neighbour) pairs):
///
/// | idx | feature |
/// |----:|---------|
/// | 0 | moved nodes / DFG nodes |
/// | 1 | unplaced nodes after placement / DFG nodes |
/// | 2 | unrouted edges before routing / DFG edges |
/// | 3 | routing cells / (PE count · II) |
/// | 4 | mean moved-op code / op-code span |
/// | 5 | mean moved in-degree / max degree seen |
/// | 6 | mean moved out-degree / max degree seen |
/// | 7 | mean moved ASAP level / schedule window |
/// | 8 | mean moved slack (ALAP − placed time) / schedule window |
/// | 9 | mean PE distance to placed data neighbours / fabric diameter |
/// | 10 | max PE distance to placed data neighbours / fabric diameter |
/// | 11 | fraction of neighbour pairs with distance > time gap |
/// | 12 | mean target-PE FU occupancy (busy slots / II) |
/// | 13 | mean displacement (old PE → new PE) / fabric diameter |
pub(crate) fn movement_features_into(
    m: &Mapping<'_>,
    moved: &[NodeId],
    displaced: &[(NodeId, Placement)],
    out: &mut Vec<f64>,
) {
    out.clear();
    let dfg = m.dfg();
    let acc = m.accelerator();
    let ii = m.ii();
    let nodes = dfg.node_count().max(1) as f64;
    let edges = dfg.edge_count().max(1) as f64;
    let window = f64::from(m.schedule_window().max(1));
    let diameter = fabric_diameter(acc).max(1.0);

    out.push(moved.len() as f64 / nodes);
    out.push(m.unplaced_count() as f64 / nodes);
    out.push(m.unrouted_count() as f64 / edges);
    out.push(m.routing_cells() as f64 / (acc.pe_count() as f64 * f64::from(ii.max(1))));

    let mut op_sum = 0.0;
    let mut in_sum = 0.0;
    let mut out_sum = 0.0;
    let mut asap_sum = 0.0;
    let mut slack_sum = 0.0;
    let mut slack_n = 0.0;
    let mut dist_sum = 0.0;
    let mut dist_max = 0.0f64;
    let mut pair_n = 0.0;
    let mut infeasible = 0.0;
    let mut occ_sum = 0.0;
    let mut occ_n = 0.0;
    for &v in moved {
        op_sum += dfg.node(v).op.code() as f64;
        in_sum += dfg.in_degree(v) as f64;
        out_sum += dfg.out_degree(v) as f64;
        asap_sum += f64::from(m.asap_level(v));
        let Some(p) = m.placement(v) else { continue };
        slack_sum += f64::from(m.alap_level(v)) - f64::from(p.time);
        slack_n += 1.0;
        for t in 0..ii.max(1) {
            if !m.fu_free(p.pe, t) {
                occ_sum += 1.0;
            }
        }
        occ_n += f64::from(ii.max(1));
        for n in dfg.predecessors(v).chain(dfg.successors(v)) {
            let Some(np) = m.placement(n) else { continue };
            let d = f64::from(acc.spatial_distance(p.pe, np.pe));
            dist_sum += d;
            dist_max = dist_max.max(d);
            pair_n += 1.0;
            let gap = f64::from(p.time.abs_diff(np.time));
            if d > gap {
                infeasible += 1.0;
            }
        }
    }
    let moved_n = moved.len().max(1) as f64;
    // Op codes and degrees have small integer ranges; a fixed span keeps
    // the scale stable across DFGs.
    out.push(op_sum / moved_n / 16.0);
    out.push(in_sum / moved_n / 8.0);
    out.push(out_sum / moved_n / 8.0);
    out.push(asap_sum / moved_n / window);
    out.push(if slack_n > 0.0 {
        slack_sum / slack_n / window
    } else {
        0.0
    });
    out.push(if pair_n > 0.0 { dist_sum / pair_n } else { 0.0 } / diameter);
    out.push(dist_max / diameter);
    out.push(if pair_n > 0.0 {
        infeasible / pair_n
    } else {
        0.0
    });
    out.push(if occ_n > 0.0 { occ_sum / occ_n } else { 0.0 });

    let mut disp_sum = 0.0;
    let mut disp_n = 0.0;
    for &(v, old) in displaced {
        let Some(new) = m.placement(v) else { continue };
        disp_sum += f64::from(acc.spatial_distance(old.pe, new.pe));
        disp_n += 1.0;
    }
    out.push(if disp_n > 0.0 { disp_sum / disp_n } else { 0.0 } / diameter);

    debug_assert_eq!(out.len(), MOVEMENT_FEATURE_DIM);
}

/// Upper bound on pairwise PE distance, used to normalise distance
/// features. The corner-to-corner distance bounds a mesh exactly; for
/// irregular fabrics it is still a usable scale (never zero).
fn fabric_diameter(acc: &lisa_arch::Accelerator) -> f64 {
    let n = acc.pe_count();
    if n < 2 {
        return 1.0;
    }
    f64::from(acc.spatial_distance(PeId::new(0), PeId::new(n - 1))).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_arch::Accelerator;
    use lisa_dfg::{Dfg, OpKind};

    fn chain() -> Dfg {
        let mut g = Dfg::new("chain3");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Store, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g
    }

    #[test]
    fn feature_vector_has_declared_width_and_is_finite() {
        let dfg = chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        let moved = [NodeId::new(1), NodeId::new(2)];
        let displaced = [(
            NodeId::new(1),
            Placement {
                pe: PeId::new(3),
                time: 2,
            },
        )];
        let mut out = Vec::new();
        movement_features_into(&m, &moved, &displaced, &mut out);
        assert_eq!(out.len(), MOVEMENT_FEATURE_DIM);
        assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        // Node 2 is unplaced: 1 of 3 nodes.
        assert!((out[1] - 1.0 / 3.0).abs() < 1e-12);
        // Both edges unrouted.
        assert!((out[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn features_are_a_pure_function_of_the_state() {
        let dfg = chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        let moved = [NodeId::new(0)];
        let mut a = Vec::new();
        let mut b = Vec::new();
        movement_features_into(&m, &moved, &[], &mut a);
        movement_features_into(&m, &moved, &[], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_movement_is_all_global_state() {
        let dfg = chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let m = Mapping::new(&dfg, &acc, 1).unwrap();
        let mut out = Vec::new();
        movement_features_into(&m, &[], &[], &mut out);
        assert_eq!(out.len(), MOVEMENT_FEATURE_DIM);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn event_round_trip_and_totals_sum_summaries() {
        let stats = FilterStats {
            proposals: 1,
            admitted: 2,
            rejected: 3,
            audited: 4,
            false_rejects: 5,
            router_invocations: 6,
            audit_router_invocations: 7,
        };
        let event = stats.to_event(2, 5);
        assert!(matches!(
            event,
            PipelineEvent::SaFilterSummary {
                chain: 2,
                ii: 5,
                ..
            }
        ));
        assert_eq!(FilterStats::from_event(&event), Some(stats));
        let other = PipelineEvent::StrategyLaneWon {
            ii: 5,
            lane: 2,
            strategy: "sa",
            cost: 0.0,
        };
        assert_eq!(FilterStats::from_event(&other), None);

        let totals = FilterTotals::default();
        totals.event(&event);
        totals.event(&other);
        totals.event(&event);
        let mut twice = stats;
        twice.merge(&stats);
        assert_eq!(totals.take(), twice);
        assert_eq!(totals.take(), FilterStats::default());
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut a = FilterStats {
            proposals: 1,
            admitted: 2,
            rejected: 3,
            audited: 4,
            false_rejects: 5,
            router_invocations: 6,
            audit_router_invocations: 7,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            FilterStats {
                proposals: 2,
                admitted: 4,
                rejected: 6,
                audited: 8,
                false_rejects: 10,
                router_invocations: 12,
                audit_router_invocations: 14,
            }
        );
    }
}
