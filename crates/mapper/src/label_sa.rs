//! The annealing mapper: the paper's SA baseline and the label-aware
//! simulated annealing of Algorithm 1, one mapper with optional labels.
//!
//! The two differ only in three decisions of the annealing core
//! ([`crate::sa`]); the lane's policy makes them. Without labels each
//! is vanilla SA's choice: ASAP placement order, a uniformly random PE
//! candidate, edge-id routing order. With labels the four labels of
//! Table I steer them:
//!
//! 1. **Schedule order** (label 1) sorts unmapped nodes for placement
//!    (line 3).
//! 2. **Same-level association, spatial and temporal mapping distance**
//!    (labels 2–4) define the placement cost of each PE candidate: the sum
//!    of differences between the actual mapping distances and the labels'
//!    expected distances (line 6). Candidates are then drawn through a
//!    normal distribution whose deviation follows
//!    σ = max{1, α·T − Acc} (lines 7–8), so low acceptance rates inject
//!    randomness to break out of dead-end mappings.
//! 3. **Temporal mapping distance** (label 4) prioritises long edges in
//!    routing (line 9): edges that need many routing resources are routed
//!    while resources are still plentiful.
//!
//! The labels are fixed for a map, so the routing order is ranked once
//! when the policy is built. A candidate draw first draws its normal
//! variate (pricing draws no random number, so this is the draw the
//! per-candidate code made after pricing). It gathers the placed
//! neighbours' terms once per node and prices the candidates term by
//! term over candidate columns, grid positions read from the mapping's
//! coordinate table; each candidate still adds its terms with the
//! floating-point operations of the per-candidate formula in the same
//! order, so each cost is bit-identical to it. It then takes the drawn
//! index by `(cost, candidate index)`, the element a stable sort by cost
//! would put there: one scan at either end, selection elsewhere. One
//! buffer per lane holds the lists, so a draw allocates nothing.

use std::sync::Arc;

use lisa_rng::Rng;

use lisa_arch::{Accelerator, PeId};
use lisa_dfg::{analysis, same_level, Dfg, EdgeId, NodeId};
use lisa_events::EventSink;

use crate::predictor::MovementScorer;
use crate::sa::{MoveStats, SaParams};
use crate::schedule::IiMapper;
use crate::strategy::{race_lanes, StrategySpec};
use crate::Mapping;

/// The four mapping-guidance labels of paper Table I, in the exact form
/// the label-aware mapper consumes.
///
/// Produced either by initialisation (§V-B), by extraction from a mapping
/// (training-data generation), or by the trained GNN models (inference).
#[derive(Debug, Clone, PartialEq)]
pub struct GuidanceLabels {
    /// Label 1 — schedule order per node (lower = earlier).
    pub schedule_order: Vec<f64>,
    /// Label 2 — expected spatial distance per same-level pair
    /// (dummy edge), as `(a, b, distance)`.
    pub same_level: Vec<(NodeId, NodeId, f64)>,
    /// Label 3 — expected spatial mapping distance per edge.
    pub spatial: Vec<f64>,
    /// Label 4 — expected temporal mapping distance per edge.
    pub temporal: Vec<f64>,
}

impl GuidanceLabels {
    /// Initial label values per §V-B: schedule order = ASAP, same-level
    /// association = mean shortest distance to the common
    /// ancestor/descendant, spatial distance = 0, temporal distance = 1.
    pub fn initial(dfg: &Dfg) -> Self {
        let asap = analysis::asap(dfg);
        let dummies = same_level::dummy_edges(dfg);
        let same_level = dummies
            .iter()
            .map(|d| {
                let dist = match (d.ancestor, d.descendant) {
                    (Some(a), Some(b)) => (a.mean_dist() + b.mean_dist()) / 2.0,
                    (Some(a), None) => a.mean_dist(),
                    (None, Some(b)) => b.mean_dist(),
                    (None, None) => unreachable!("dummy edges have a common node"),
                };
                (d.a, d.b, dist)
            })
            .collect();
        GuidanceLabels {
            schedule_order: asap.iter().map(|&l| f64::from(l)).collect(),
            same_level,
            spatial: vec![0.0; dfg.edge_count()],
            temporal: vec![1.0; dfg.edge_count()],
        }
    }

    /// Validates shape agreement with a DFG.
    pub fn matches(&self, dfg: &Dfg) -> bool {
        self.schedule_order.len() == dfg.node_count()
            && self.spatial.len() == dfg.edge_count()
            && self.temporal.len() == dfg.edge_count()
    }

    /// Routing priority of a node: the sum of temporal mapping distances
    /// over its incident edges — "the routing resource that a DFG node
    /// needs" (Algorithm 1 line 9).
    pub fn node_routing_need(&self, dfg: &Dfg, node: NodeId) -> f64 {
        dfg.in_edges(node)
            .iter()
            .chain(dfg.out_edges(node))
            .map(|e| self.temporal[e.index()])
            .sum()
    }
}

/// Which decisions the labels steer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelMode {
    /// Full Algorithm 1 (placement order, placement cost, routing order).
    Full,
    /// Only label 4's routing priority on top of vanilla SA — the
    /// "SA with routing priority" ablation of Fig. 12.
    RoutingPriorityOnly,
    /// Labels steer only the initial mapping; movements behave like
    /// vanilla SA. This is the *partial label-aware SA* used when
    /// generating training data (§V-B).
    InitialOnly,
}

/// α of the deviation schedule σ = max{1, α·T − Acc}.
const ALPHA: f64 = 0.05;

/// The three decisions of one annealing lane: placement order
/// (Algorithm 1 line 3), PE-candidate choice (lines 5–8) and routing
/// order (line 9). Wherever the labels do not steer a decision, it makes
/// vanilla SA's choice.
#[derive(Debug, Clone)]
pub(crate) struct Policy<'l> {
    /// The labels and which decisions they steer; `None` is vanilla SA.
    guide: Option<(&'l GuidanceLabels, LabelMode)>,
    /// Same-level partners per node, precomputed for the placement cost.
    partners: Vec<Vec<(NodeId, f64)>>,
    /// Each edge's position in the label routing order (Algorithm 1
    /// line 9), ranked once: the labels do not change within a lane.
    edge_rank: Vec<u32>,
    /// Scratch of every candidate draw of the lane.
    draw: CandidateDraw,
}

/// One placed neighbour's share of a candidate's placement cost, with
/// everything that does not depend on the candidate looked up once.
#[derive(Debug, Clone, Copy)]
struct CostTerm {
    /// The neighbour's grid position, `(row, column)`.
    at: (u32, u32),
    /// Expected spatial distance: label 3 of the edge, or label 2 of a
    /// same-level pair.
    spatial: f64,
    timing: Timing,
}

/// The temporal part of a [`CostTerm`].
#[derive(Debug, Clone, Copy)]
enum Timing {
    /// A placed producer: the actual temporal distance of a candidate at
    /// `t` is `f64::from(t + shift) - time`.
    Producer {
        shift: u32,
        time: f64,
        expected: f64,
    },
    /// A placed consumer: the actual temporal distance is
    /// `due - f64::from(t)`.
    Consumer { due: f64, expected: f64 },
    /// A same-level partner contributes a spatial term only.
    Partner,
}

/// Reusable buffers of the label policy's `choose_candidate`.
#[derive(Debug, Clone, Default)]
struct CandidateDraw {
    terms: Vec<CostTerm>,
    /// Grid position `(row, column)` of each candidate's PE.
    at: Vec<(u32, u32)>,
    /// Time of each candidate.
    times: Vec<u32>,
    /// Placement cost of each candidate.
    costs: Vec<f64>,
    /// `(placement cost, candidate index)` per candidate, for selection.
    order: Vec<(f64, usize)>,
}

/// Penalty for a spatial distance a value cannot cover in the temporal
/// gap: it advances at most one hop per cycle, so such a candidate is
/// physically unroutable whatever the (possibly inaccurate) labels say.
fn infeasible(spatial: f64, temporal: f64) -> f64 {
    if spatial > temporal {
        100.0 * (spatial - temporal)
    } else {
        0.0
    }
}

impl CandidateDraw {
    /// Collects the cost terms of `node`'s placed neighbours, in the order
    /// the placement cost sums them: in-edges, out-edges, same-level
    /// partners.
    fn gather(
        &mut self,
        labels: &GuidanceLabels,
        partners: &[Vec<(NodeId, f64)>],
        m: &Mapping<'_>,
        node: NodeId,
    ) {
        self.terms.clear();
        let dfg = m.dfg();
        let coords = m.pe_coords();
        let ii = m.ii();
        for &e in dfg.in_edges(node) {
            let edge = dfg.edge(e);
            if let Some(p) = m.placement(edge.src) {
                self.terms.push(CostTerm {
                    at: coords[p.pe.index()],
                    spatial: labels.spatial[e.index()],
                    timing: Timing::Producer {
                        shift: edge.kind.distance() * ii,
                        time: f64::from(p.time),
                        expected: labels.temporal[e.index()],
                    },
                });
            }
        }
        for &e in dfg.out_edges(node) {
            let edge = dfg.edge(e);
            if edge.dst == node {
                continue; // self-recurrence counted once above
            }
            if let Some(c) = m.placement(edge.dst) {
                self.terms.push(CostTerm {
                    at: coords[c.pe.index()],
                    spatial: labels.spatial[e.index()],
                    timing: Timing::Consumer {
                        due: f64::from(c.time + edge.kind.distance() * ii),
                        expected: labels.temporal[e.index()],
                    },
                });
            }
        }
        for &(partner, expected) in &partners[node.index()] {
            if let Some(p) = m.placement(partner) {
                self.terms.push(CostTerm {
                    at: coords[p.pe.index()],
                    spatial: expected,
                    timing: Timing::Partner,
                });
            }
        }
    }

    /// Prices every candidate into `costs` from the gathered terms:
    /// Σ |actual − expected| over labels 2, 3, 4 (Algorithm 1 line 6) plus
    /// the infeasibility penalty. Term by term, each adds its share to
    /// every candidate's cost, so every candidate still adds its terms'
    /// shares in the order, and with the operations, of the
    /// per-candidate formula.
    fn price(&mut self, coords: &[(u32, u32)], candidates: &[(PeId, u32)]) {
        let CandidateDraw {
            terms,
            at,
            times,
            costs,
            ..
        } = self;
        at.clear();
        times.clear();
        for &(pe, t) in candidates {
            at.push(coords[pe.index()]);
            times.push(t);
        }
        costs.clear();
        costs.resize(candidates.len(), 0.0);
        for term in terms.iter() {
            let (row, col) = term.at;
            let spatial = |&(r, c): &(u32, u32)| f64::from(r.abs_diff(row) + c.abs_diff(col));
            let columns = at.iter().zip(times.iter()).zip(costs.iter_mut());
            match term.timing {
                Timing::Producer {
                    shift,
                    time,
                    expected,
                } => {
                    for ((at, &t), cost) in columns {
                        let spatial = spatial(at);
                        let temporal = f64::from(t + shift) - time;
                        *cost += (spatial - term.spatial).abs();
                        *cost += (temporal - expected).abs();
                        *cost += infeasible(spatial, temporal);
                    }
                }
                Timing::Consumer { due, expected } => {
                    for ((at, &t), cost) in columns {
                        let spatial = spatial(at);
                        let temporal = due - f64::from(t);
                        *cost += (spatial - term.spatial).abs();
                        *cost += (temporal - expected).abs();
                        *cost += infeasible(spatial, temporal);
                    }
                }
                Timing::Partner => {
                    for ((at, _), cost) in columns {
                        *cost += (spatial(at) - term.spatial).abs();
                    }
                }
            }
        }
    }

    /// The candidate a stable sort of the priced candidates by cost puts
    /// at position `idx`: the `idx`-th smallest by `(cost, candidate
    /// index)`. At either end that is the first of the cheapest or the
    /// last of the dearest, which one scan finds; elsewhere selection.
    fn pick(&mut self, idx: usize) -> usize {
        let costs = &self.costs;
        debug_assert!(costs.iter().all(|c| c.is_finite()), "finite costs");
        if idx == 0 {
            (1..costs.len()).fold(0, |best, i| if costs[i] < costs[best] { i } else { best })
        } else if idx == costs.len() - 1 {
            (1..costs.len()).fold(0, |best, i| if costs[i] >= costs[best] { i } else { best })
        } else {
            self.order.clear();
            self.order.extend(costs.iter().copied().zip(0..));
            nth_by_cost(&mut self.order, idx)
        }
    }
}

/// The candidate index a stable sort of `order` by cost puts at position
/// `idx`. Stable sorting breaks cost ties by candidate index, so that
/// element is the `idx`-th smallest by `(cost, candidate index)`, which
/// selection finds without sorting the rest.
fn nth_by_cost(order: &mut [(f64, usize)], idx: usize) -> usize {
    let (_, nth, _) = order.select_nth_unstable_by(idx, |a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite costs")
            .then(a.1.cmp(&b.1))
    });
    nth.1
}

impl<'l> Policy<'l> {
    /// Vanilla SA's decisions: the paper's SA baseline.
    pub(crate) fn vanilla() -> Self {
        Policy {
            guide: None,
            partners: Vec::new(),
            edge_rank: Vec::new(),
            draw: CandidateDraw::default(),
        }
    }

    fn new(labels: &'l GuidanceLabels, mode: LabelMode, dfg: &Dfg) -> Self {
        let mut partners = vec![Vec::new(); dfg.node_count()];
        for &(a, b, d) in &labels.same_level {
            partners[a.index()].push((b, d));
            partners[b.index()].push((a, d));
        }
        // Route the neediest data first: descending label-4 sum of the
        // producing node, tie-broken by the edge's own label 4, then by id.
        let need: Vec<f64> = dfg
            .node_ids()
            .map(|n| labels.node_routing_need(dfg, n))
            .collect();
        let mut by_priority: Vec<EdgeId> = dfg.edge_ids().collect();
        by_priority.sort_by(|&a, &b| {
            let na = need[dfg.edge(a).src.index()];
            let nb = need[dfg.edge(b).src.index()];
            nb.partial_cmp(&na)
                .expect("finite needs")
                .then_with(|| {
                    labels.temporal[b.index()]
                        .partial_cmp(&labels.temporal[a.index()])
                        .expect("finite labels")
                })
                .then(a.index().cmp(&b.index()))
        });
        let mut edge_rank = vec![0; dfg.edge_count()];
        for (rank, e) in by_priority.iter().enumerate() {
            edge_rank[e.index()] = rank as u32;
        }
        Policy {
            guide: Some((labels, mode)),
            partners,
            edge_rank,
            draw: CandidateDraw::default(),
        }
    }

    /// Placement cost of putting `node` at `(pe, t)`, one candidate at a
    /// time: the reference the gathered-term draw is tested against.
    #[cfg(test)]
    fn placement_cost(&self, m: &Mapping<'_>, node: NodeId, pe: PeId, t: u32) -> f64 {
        let labels = self.placing_labels().expect("a label-guided policy");
        let dfg = m.dfg();
        let acc = m.accelerator();
        let ii = m.ii();
        let mut cost = 0.0;
        for &e in dfg.in_edges(node) {
            let edge = dfg.edge(e);
            if let Some(p) = m.placement(edge.src) {
                let spatial = f64::from(acc.spatial_distance(pe, p.pe));
                cost += (spatial - labels.spatial[e.index()]).abs();
                let temporal = f64::from(t + edge.kind.distance() * ii) - f64::from(p.time);
                cost += (temporal - labels.temporal[e.index()]).abs();
                cost += infeasible(spatial, temporal);
            }
        }
        for &e in dfg.out_edges(node) {
            let edge = dfg.edge(e);
            if edge.dst == node {
                continue; // self-recurrence counted once above
            }
            if let Some(c) = m.placement(edge.dst) {
                let spatial = f64::from(acc.spatial_distance(pe, c.pe));
                cost += (spatial - labels.spatial[e.index()]).abs();
                let temporal = f64::from(c.time + edge.kind.distance() * ii) - f64::from(t);
                cost += (temporal - labels.temporal[e.index()]).abs();
                cost += infeasible(spatial, temporal);
            }
        }
        for &(partner, expected) in &self.partners[node.index()] {
            if let Some(p) = m.placement(partner) {
                let spatial = f64::from(acc.spatial_distance(pe, p.pe));
                cost += (spatial - expected).abs();
            }
        }
        cost
    }

    /// The labels, if they steer placement order and candidate choice.
    fn placing_labels(&self) -> Option<&'l GuidanceLabels> {
        match self.guide {
            Some((labels, LabelMode::Full | LabelMode::InitialOnly)) => Some(labels),
            _ => None,
        }
    }

    /// Marks the end of the initial mapping: from here on the
    /// initial-only mode decides like vanilla SA.
    pub(crate) fn end_initial_mapping(&mut self) {
        if matches!(self.guide, Some((_, LabelMode::InitialOnly))) {
            self.guide = None;
        }
    }

    /// Orders unmapped nodes for placement (Algorithm 1 line 3): by
    /// label 1, or by ASAP level.
    pub(crate) fn order_nodes(&self, mapping: &Mapping<'_>, nodes: &mut [NodeId]) {
        match self.placing_labels() {
            Some(labels) => nodes.sort_by(|a, b| {
                let ka = labels.schedule_order[a.index()];
                let kb = labels.schedule_order[b.index()];
                ka.partial_cmp(&kb)
                    .expect("schedule orders are finite")
                    .then(a.index().cmp(&b.index()))
            }),
            None => nodes.sort_by_key(|n| (mapping.asap_level(*n), n.index())),
        }
    }

    /// Picks one of `candidates` (all feasible `(pe, time)` slots) for
    /// `node` (Algorithm 1 lines 5–8) and returns its index: a normal
    /// draw over the candidates ranked by placement cost, or a uniform
    /// one.
    pub(crate) fn choose_candidate(
        &mut self,
        mapping: &Mapping<'_>,
        node: NodeId,
        candidates: &[(PeId, u32)],
        stats: MoveStats,
        rng: &mut Rng,
    ) -> usize {
        let Some(labels) = self.placing_labels() else {
            return rng.gen_range(0..candidates.len());
        };
        // σ = max{1, α·T − Acc}: low acceptance widens the distribution.
        // Pricing draws no random number, so drawing the variate before
        // it is the same draw.
        let sigma = (ALPHA * f64::from(stats.attempted) - f64::from(stats.accepted)).max(1.0);
        let deviation = sample_normal(rng).abs() * sigma;
        let idx = (deviation.floor() as usize).min(candidates.len() - 1);
        if candidates.len() == 1 {
            return 0;
        }
        let draw = &mut self.draw;
        draw.gather(labels, &self.partners, mapping, node);
        draw.price(mapping.pe_coords(), candidates);
        draw.pick(idx)
    }

    /// Orders unrouted edges for routing (Algorithm 1 line 9): by label
    /// rank, or in the edge-id order the mapping lists them in.
    pub(crate) fn order_edges(&self, edges: &mut [EdgeId]) {
        if self.guide.is_some() {
            // Ranks are distinct, so this is the label order restricted
            // to `edges`.
            edges.sort_unstable_by_key(|e| self.edge_rank[e.index()]);
        }
    }
}

/// Standard-normal sample via Box–Muller.
fn sample_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The simulated-annealing mapper: LISA's label-aware mapping stage, its
/// ablations, and, without labels, the paper's SA baseline.
///
/// # Example
///
/// ```
/// use lisa_dfg::{Dfg, OpKind};
/// use lisa_arch::Accelerator;
/// use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams, schedule::IiMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_node(OpKind::Load, "a");
/// let b = dfg.add_node(OpKind::Store, "b");
/// dfg.add_data_edge(a, b)?;
/// let labels = GuidanceLabels::initial(&dfg);
/// let acc = Accelerator::cgra("2x2", 2, 2);
/// let mut lisa = LabelSaMapper::new(labels, SaParams::fast(), 1);
/// let m = lisa.map_at_ii(&dfg, &acc, 1).expect("maps");
/// assert!(m.is_complete());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LabelSaMapper {
    /// The labels and which decisions they steer; `None` is vanilla SA.
    guide: Option<(GuidanceLabels, LabelMode)>,
    params: SaParams,
    seed: u64,
    name: &'static str,
    strategy: StrategySpec,
    sink: EventSink,
    filter: Option<Arc<dyn MovementScorer>>,
}

impl LabelSaMapper {
    fn build(
        guide: Option<(GuidanceLabels, LabelMode)>,
        params: SaParams,
        seed: u64,
        name: &'static str,
    ) -> Self {
        LabelSaMapper {
            guide,
            params,
            seed,
            name,
            strategy: StrategySpec::default(),
            sink: EventSink::null(),
            filter: None,
        }
    }

    /// Creates a full label-aware mapper (Algorithm 1).
    pub fn new(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        Self::build(Some((labels, LabelMode::Full)), params, seed, "LISA")
    }

    /// Creates the routing-priority-only ablation of Fig. 12.
    pub fn routing_priority_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        let guide = Some((labels, LabelMode::RoutingPriorityOnly));
        Self::build(guide, params, seed, "SA+RP")
    }

    /// Creates the partial label-aware mapper used during training-data
    /// generation: labels guide only the initial mapping (§V-B).
    pub fn initial_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        let guide = Some((labels, LabelMode::InitialOnly));
        Self::build(guide, params, seed, "LISA-partial")
    }

    /// Creates the paper's vanilla SA baseline, which anneals without
    /// labels. It is named `SA`, or `SA-M` at 10× the paper's movements
    /// per temperature (Fig. 13).
    ///
    /// # Example
    ///
    /// ```
    /// use lisa_dfg::{Dfg, OpKind};
    /// use lisa_arch::Accelerator;
    /// use lisa_mapper::{LabelSaMapper, SaParams, schedule::IiMapper};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut dfg = Dfg::new("pair");
    /// let a = dfg.add_node(OpKind::Load, "a");
    /// let b = dfg.add_node(OpKind::Store, "b");
    /// dfg.add_data_edge(a, b)?;
    /// let acc = Accelerator::cgra("2x2", 2, 2);
    /// let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 1);
    /// assert_eq!(sa.name(), "SA");
    /// let mapping = sa.map_at_ii(&dfg, &acc, 1).expect("trivially mappable");
    /// assert!(mapping.is_complete());
    /// # Ok(())
    /// # }
    /// ```
    pub fn vanilla(params: SaParams, seed: u64) -> Self {
        let name = if params.moves_per_temp >= 10 * SaParams::paper().moves_per_temp {
            "SA-M"
        } else {
            "SA"
        };
        Self::build(None, params, seed, name)
    }

    /// Selects the lanes raced per II (see [`StrategySpec`]). The
    /// default, `sa`, is one annealing chain; `sa,sa,sa,sa` races four
    /// independently seeded chains and keeps the deterministic winner,
    /// whose lane 0 is the one-chain mapper.
    pub fn with_strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Streams per-temperature SA snapshots into `sink`. Events never
    /// change the trajectory; the null sink restores silence.
    pub fn with_observer(mut self, sink: EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attaches a predict-then-verify movement filter. One immutable
    /// scorer is shared by every lane; detach by rebuilding the mapper.
    /// The filter-off mapper is byte-identical to the pre-filter
    /// annealer.
    pub fn with_movement_filter(mut self, filter: Arc<dyn MovementScorer>) -> Self {
        self.filter = Some(filter);
        self
    }
}

impl IiMapper for LabelSaMapper {
    fn name(&self) -> &str {
        self.name
    }

    fn map_at_ii<'a>(
        &mut self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
    ) -> Option<Mapping<'a>> {
        let policy = match &self.guide {
            Some((labels, mode)) => {
                assert!(labels.matches(dfg), "labels do not match the DFG shape");
                Policy::new(labels, *mode, dfg)
            }
            None => Policy::vanilla(),
        };
        race_lanes(
            &self.strategy,
            &policy,
            &self.params,
            dfg,
            acc,
            ii,
            self.seed,
            &self.sink,
            self.filter.as_deref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::{polybench, OpKind};

    #[test]
    fn initial_labels_have_correct_shapes() {
        let dfg = polybench::kernel("gemm").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        assert!(labels.matches(&dfg));
        assert!(labels.spatial.iter().all(|&v| v == 0.0));
        assert!(labels.temporal.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn schedule_order_follows_asap_initially() {
        let mut g = Dfg::new("chain");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_data_edge(a, b).unwrap();
        let labels = GuidanceLabels::initial(&g);
        assert!(labels.schedule_order[0] < labels.schedule_order[1]);
    }

    #[test]
    fn lisa_maps_small_graphs() {
        let mut g = Dfg::new("y");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Load, "b");
        let c = g.add_node(OpKind::Add, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_data_edge(c, d).unwrap();
        let labels = GuidanceLabels::initial(&g);
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut lisa = LabelSaMapper::new(labels, SaParams::fast(), 2);
        // II 1 leaves no route-through resources on a fully-occupied 2x2;
        // II 2 is the first feasible interval for this 4-node graph.
        let m = (1..=3)
            .find_map(|ii| lisa.map_at_ii(&g, &acc, ii))
            .expect("maps within II 3");
        m.verify().unwrap();
    }

    #[test]
    fn lisa_maps_polybench_kernel_on_4x4() {
        let dfg = polybench::kernel("gemm").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mut lisa = LabelSaMapper::new(labels, SaParams::fast(), 4);
        let mut ok = false;
        for ii in crate::schedule::mii(&dfg, &acc)..=8 {
            if let Some(m) = lisa.map_at_ii(&dfg, &acc, ii) {
                m.verify().unwrap();
                ok = true;
                break;
            }
        }
        assert!(ok, "gemm should map on 4x4 within II 8");
    }

    #[test]
    fn modes_have_distinct_names() {
        let dfg = polybench::kernel("mvt").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        assert_eq!(
            LabelSaMapper::new(labels.clone(), SaParams::fast(), 0).name(),
            "LISA"
        );
        assert_eq!(
            LabelSaMapper::routing_priority_only(labels.clone(), SaParams::fast(), 0).name(),
            "SA+RP"
        );
        assert_eq!(
            LabelSaMapper::initial_only(labels, SaParams::fast(), 0).name(),
            "LISA-partial"
        );
    }

    #[test]
    #[should_panic(expected = "labels do not match")]
    fn mismatched_labels_panic() {
        let dfg = polybench::kernel("mvt").unwrap();
        let other = polybench::kernel("syr2k").unwrap();
        let labels = GuidanceLabels::initial(&other);
        let acc = Accelerator::cgra("4x4", 4, 4);
        let _ = LabelSaMapper::new(labels, SaParams::fast(), 0).map_at_ii(&dfg, &acc, 2);
    }

    #[test]
    fn routing_need_sums_incident_edges() {
        let mut g = Dfg::new("v");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Store, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        let mut labels = GuidanceLabels::initial(&g);
        labels.temporal = vec![2.0, 5.0];
        assert_eq!(labels.node_routing_need(&g, b), 7.0);
        assert_eq!(labels.node_routing_need(&g, a), 2.0);
    }

    /// The pick before selection replaced the sort: a stable sort by cost,
    /// then the element at `idx`.
    fn stable_sort_pick(order: &[(f64, usize)], idx: usize) -> usize {
        let mut sorted = order.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
        sorted[idx].1
    }

    /// A random partial mapping of a random DFG (recurrences included) on
    /// a fabric drawn from three, with random labels. The labels are not
    /// short binary fractions, so their sums round, and summing the same
    /// terms in another order would change the low bits.
    fn random_partial_mapping<'a>(
        rng: &mut Rng,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
    ) -> (Mapping<'a>, GuidanceLabels) {
        let ii = rng.gen_range(1..=4u32).min(acc.max_ii());
        let mut m = Mapping::new(dfg, acc, ii).unwrap();
        for n in dfg.node_ids() {
            if rng.gen_bool(0.6) {
                let pe = PeId::new(rng.gen_range(0..acc.pe_count()));
                let t = rng.gen_range(0..m.schedule_window());
                let _ = m.place(n, pe, t);
            }
        }
        let mut labels = GuidanceLabels::initial(dfg);
        for v in labels.spatial.iter_mut().chain(&mut labels.temporal) {
            *v = rng.gen_range(0.0..6.0);
        }
        for pair in &mut labels.same_level {
            pair.2 = rng.gen_range(0.0..4.0);
        }
        (m, labels)
    }

    lisa_rng::props! {
        cases = 64;

        /// Picking the `idx`-th candidate by `(cost, index)` returns what
        /// the stable sort returned, at every index (the end scans at 0
        /// and `len − 1`, selection between), with many ties, ties at
        /// both ends among them.
        fn selection_picks_what_the_stable_sort_picked(
            len in 1usize..40,
            distinct in 1u32..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut draw = CandidateDraw {
                costs: (0..len)
                    .map(|_| f64::from(rng.gen_range(0..distinct)) * 0.5)
                    .collect(),
                ..CandidateDraw::default()
            };
            let order: Vec<(f64, usize)> = draw.costs.iter().copied().zip(0..).collect();
            for idx in 0..len {
                assert_eq!(draw.pick(idx), stable_sort_pick(&order, idx), "at {idx}");
                let mut scratch = order.clone();
                assert_eq!(nth_by_cost(&mut scratch, idx), stable_sort_pick(&order, idx));
            }
        }

        /// The column-wise price of every candidate equals the
        /// per-candidate placement cost bit for bit, on random partial
        /// mappings.
        fn gathered_cost_equals_placement_cost(
            fabric in 0usize..3,
            dfg_seed in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let acc = match fabric {
                0 => Accelerator::standard("4x4").unwrap(),
                1 => Accelerator::standard("4x4-lm").unwrap(),
                _ => Accelerator::standard("8x8").unwrap(),
            };
            let dfg = lisa_dfg::random::generate_random_dfg(
                &lisa_dfg::random::RandomDfgConfig::default(),
                dfg_seed,
            );
            let mut rng = Rng::seed_from_u64(seed);
            let (m, labels) = random_partial_mapping(&mut rng, &dfg, &acc);
            let policy = Policy::new(&labels, LabelMode::Full, &dfg);
            let mut draw = CandidateDraw::default();
            for node in m.unplaced_nodes() {
                draw.gather(&labels, &policy.partners, &m, node);
                let candidates = crate::sa::candidate_slots(&m, node);
                draw.price(m.pe_coords(), &candidates);
                assert_eq!(draw.costs.len(), candidates.len());
                for (&(pe, t), got) in candidates.iter().zip(&draw.costs) {
                    let want = policy.placement_cost(&m, node, pe, t);
                    assert_eq!(got.to_bits(), want.to_bits(), "{node:?} at {pe}@{t}");
                }
            }
        }
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
