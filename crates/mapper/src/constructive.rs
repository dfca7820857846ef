//! LOCAL-style constructive lane: a low-complexity one-pass mapper.
//!
//! "LOCAL: Low-Complex Mapping Algorithm for Spatial DNN Accelerators"
//! (PAPERS.md) observes that a large share of real kernels need no
//! search at all: a single greedy placement sweep in a good priority
//! order, followed by one routing pass, already lands a valid mapping.
//! This lane implements that regime check for the lane race. It is the
//! cheapest lane by orders of magnitude — it invokes the router about
//! once per edge, where one annealing chain invokes it thousands of
//! times — so [`crate::strategy`]'s race runs it before the annealing
//! lanes, and a complete constructive mapping wins the race outright
//! (`mixed` is `constructive,sa`: the scout, then one annealer).
//!
//! The lane is fully deterministic — no RNG is drawn anywhere — so one
//! constructive lane is all a race needs: a second would repeat the
//! first's work.

use std::cmp::Reverse;

use lisa_arch::Accelerator;
use lisa_dfg::{Dfg, NodeId};

use crate::predictor::FilterStats;
use crate::sa::{candidate_slots, place_and_route};
use crate::schedule::IiMapper;
use crate::Mapping;

/// Bounded repair sweeps after the first full pass. Each sweep rips up
/// every problematic node (unplaced, or endpoint of an unrouted edge)
/// and re-places the set greedily; two sweeps keep the lane's worst case
/// at a small constant multiple of one pass.
const REPAIR_PASSES: usize = 2;

/// Height-based list order, the classic modulo-scheduling priority:
/// within each ASAP level, long downward paths first, then node id.
/// Height is folded in decreasing-ASAP order — every data successor sits
/// at a strictly higher ASAP level than its predecessor, so this is a
/// valid reverse topological sweep without materializing a topological
/// order.
fn priority_order(m: &Mapping<'_>) -> Vec<NodeId> {
    let dfg = m.dfg();
    let mut by_asap: Vec<NodeId> = dfg.node_ids().collect();
    by_asap.sort_by_key(|n| Reverse((m.asap_level(*n), n.index())));
    let mut height = vec![0u32; dfg.node_count()];
    for &v in &by_asap {
        for s in dfg.data_successors(v) {
            height[v.index()] = height[v.index()].max(height[s.index()] + 1);
        }
    }
    let mut nodes = by_asap;
    nodes.sort_by_key(|n| (m.asap_level(*n), Reverse(height[n.index()]), n.index()));
    nodes
}

/// Greedily places every node of `nodes` that is currently unplaced and
/// routes its edges to already-placed neighbours as it goes: cheapest
/// feasible slot first (earliest time, then summed spatial distance to
/// placed data neighbours, then PE id). A slot whose incident edges
/// don't route is undone and the next candidate tried (see
/// [`place_and_route`]), so a placement never strands an unroutable edge
/// silently. Every `route_edge` call — success or failure — counts as
/// one router invocation.
fn place_pass(m: &mut Mapping<'_>, nodes: &[NodeId], stats: &mut FilterStats) {
    for &node in nodes {
        if m.placement(node).is_some() {
            continue;
        }
        let dfg = m.dfg();
        let mut candidates = candidate_slots(m, node);
        // Each key walks the placed neighbours, so compute it once per
        // candidate; the sort is stable like `sort_by_key`.
        candidates.sort_by_cached_key(|&(pe, t)| {
            let mut dist = 0u32;
            for p in dfg.predecessors(node).chain(dfg.successors(node)) {
                if let Some(pp) = m.placement(p) {
                    dist += m.accelerator().spatial_distance(pe, pp.pe);
                }
            }
            (t, dist, pe.index())
        });
        for (pe, t) in candidates {
            if place_and_route(m, node, pe, t, &mut stats.router_invocations) {
                break;
            }
        }
    }
}

/// The one-pass construction: place every node in priority order with
/// route-as-you-place, then run up to [`REPAIR_PASSES`] rip-up-and-retry
/// sweeps over the problematic set. Returns the (possibly partial)
/// mapping, or `None` only if `ii` is infeasible for the fabric; router
/// work accumulates into `stats`. Deterministic for fixed inputs.
fn construct<'a>(
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    stats: &mut FilterStats,
) -> Option<Mapping<'a>> {
    let mut mapping = Mapping::new(dfg, acc, ii).ok()?;
    let order = priority_order(&mapping);
    place_pass(&mut mapping, &order, stats);
    stats.proposals += 1;
    stats.admitted += 1;
    for _ in 0..REPAIR_PASSES {
        if mapping.is_complete() {
            break;
        }
        // Rip up the problematic set: unplaced nodes plus the endpoints
        // of every unrouted edge (unplacing also unroutes their other
        // incident edges, freeing the congested cells).
        let mut problematic = mapping.unplaced_nodes();
        for e in dfg.edge_ids() {
            if mapping.route(e).is_none() {
                let edge = dfg.edge(e);
                problematic.push(edge.src);
                problematic.push(edge.dst);
            }
        }
        problematic.sort_by_key(|n| n.index());
        problematic.dedup();
        for &n in &problematic {
            mapping.unplace(n);
        }
        place_pass(&mut mapping, &order, stats);
        stats.proposals += 1;
        stats.admitted += 1;
    }
    Some(mapping)
}

/// The constructive lane. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructiveStrategy;

impl ConstructiveStrategy {
    /// Creates the lane (it has no parameters).
    pub fn new() -> Self {
        ConstructiveStrategy
    }

    /// Runs the lane at `ii`: `Some` only when the one-pass construction
    /// (plus bounded repair) lands a complete mapping. Router work
    /// accumulates into `stats`.
    pub fn run<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
        stats: &mut FilterStats,
    ) -> Option<Mapping<'a>> {
        construct(dfg, acc, ii, stats).filter(Mapping::is_complete)
    }
}

/// The lane as a stand-alone mapper for the II search driver: one
/// construction per target II, no events, no filter.
impl IiMapper for ConstructiveStrategy {
    fn name(&self) -> &str {
        "Constructive"
    }

    fn map_at_ii<'a>(
        &mut self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
    ) -> Option<Mapping<'a>> {
        self.run(dfg, acc, ii, &mut FilterStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::IiSearch;
    use lisa_dfg::{analysis, polybench};

    #[test]
    fn construct_is_deterministic_and_verifies_when_complete() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        for kernel in ["gemm", "doitgen", "atax"] {
            let dfg = polybench::kernel(kernel).unwrap();
            let (mut sa, mut sb) = (FilterStats::default(), FilterStats::default());
            let a = construct(&dfg, &acc, 8, &mut sa).unwrap();
            let b = construct(&dfg, &acc, 8, &mut sb).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{kernel} rerun diverged"
            );
            assert_eq!(sa.router_invocations, sb.router_invocations);
            if a.is_complete() {
                a.verify().unwrap();
            }
        }
    }

    #[test]
    fn router_work_is_near_the_edge_count() {
        // The lane's reason to exist: router invocations bounded by a
        // small multiple of the edge count, not the annealer's thousands.
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let mut stats = FilterStats::default();
        construct(&dfg, &acc, 8, &mut stats).unwrap();
        let edges = dfg.edge_ids().count() as u64;
        // Route-as-you-place retries failed slots, so the bound is a
        // small constant multiple of the edge count per sweep.
        assert!(
            stats.router_invocations <= edges * 8 * (1 + REPAIR_PASSES as u64),
            "router_invocations={} for {edges} edges",
            stats.router_invocations
        );
    }

    #[test]
    fn strategy_returns_only_complete_mappings() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let lane = ConstructiveStrategy::new();
        let mut stats = FilterStats::default();
        if let Some(m) = lane.run(&dfg, &acc, 8, &mut stats) {
            assert!(m.is_complete());
            m.verify().unwrap();
        }
        assert!(stats.proposals >= 1);
        // An impossible fabric/II yields None, not a panic.
        let tiny = Accelerator::cgra("1x1", 1, 1);
        assert!(lane.run(&dfg, &tiny, 1, &mut stats).is_none());
    }

    #[test]
    fn priority_order_is_topological_within_levels() {
        let dfg = polybench::kernel("gemm").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let m = Mapping::new(&dfg, &acc, 4).unwrap();
        let order = priority_order(&m);
        let asap = analysis::asap(&dfg);
        for w in order.windows(2) {
            assert!(asap[w[0].index()] <= asap[w[1].index()]);
        }
    }

    #[test]
    fn ii_search_reaches_the_pinned_list_schedule_iis() {
        // The II the list scheduler reaches for every PolyBench kernel on
        // the 4x4, and for doitgen on two fabrics big enough to use the
        // landmark distance oracle.
        let acc = Accelerator::cgra("4x4", 4, 4);
        let expected = [
            ("atax", 4),
            ("bicg", 4),
            ("gemm", 4),
            ("gesummv", 5),
            ("mvt", 5),
            ("symm", 8),
            ("syrk", 4),
            ("syr2k", 10),
            ("trmm", 7),
            ("doitgen", 3),
            ("2mm", 7),
            ("3mm", 5),
        ];
        let lane = ConstructiveStrategy::new();
        for (kernel, ii) in expected {
            let dfg = polybench::kernel(kernel).unwrap();
            let (outcome, mapping) = IiSearch { max_ii: Some(16) }.run(&lane, &dfg, &acc, 1);
            assert_eq!(outcome.ii, Some(ii), "{kernel}");
            mapping.unwrap().verify().unwrap();
        }
        let doitgen = polybench::kernel("doitgen").unwrap();
        for side in [16, 32] {
            let big = Accelerator::cgra(format!("{side}x{side}"), side, side);
            let outcome = IiSearch { max_ii: Some(8) }.run(&lane, &doitgen, &big, 1).0;
            assert_eq!(outcome.ii, Some(3), "doitgen on {side}x{side}");
        }
    }
}
