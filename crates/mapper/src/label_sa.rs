//! Label-aware simulated annealing — the paper's Algorithm 1.
//!
//! The four labels of Table I steer the three policy points of the SA
//! core:
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

use lisa_rng::Rng;

use lisa_arch::{Accelerator, PeId};
use lisa_dfg::{analysis, same_level, Dfg, EdgeId, NodeId};
use lisa_events::EventSink;

use crate::sa::{MoveStats, SaParams, SaPolicy, VanillaPolicy};
use crate::schedule::IiMapper;
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

/// Which parts of the label guidance are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
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

/// Parameters specific to the label-aware mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelSaConfig {
    /// α of the deviation schedule σ = max{1, α·T − Acc}.
    pub alpha: f64,
    /// Which label-guidance mode to run.
    pub mode: LabelMode,
}

impl Default for LabelSaConfig {
    fn default() -> Self {
        LabelSaConfig {
            alpha: 0.05,
            mode: LabelMode::Full,
        }
    }
}

/// The label-aware policy implementing Algorithm 1's decision points.
struct LabelPolicy<'l> {
    labels: &'l GuidanceLabels,
    config: LabelSaConfig,
    /// Same-level partners per node, precomputed for the placement cost.
    partners: Vec<Vec<(NodeId, f64)>>,
    /// Whether the annealer is past the initial mapping (used by
    /// [`LabelMode::InitialOnly`]).
    initial_done: std::cell::Cell<bool>,
}

impl<'l> LabelPolicy<'l> {
    fn new(labels: &'l GuidanceLabels, config: LabelSaConfig, dfg: &Dfg) -> Self {
        let mut partners = vec![Vec::new(); dfg.node_count()];
        for &(a, b, d) in &labels.same_level {
            partners[a.index()].push((b, d));
            partners[b.index()].push((a, d));
        }
        LabelPolicy {
            labels,
            config,
            partners,
            initial_done: std::cell::Cell::new(false),
        }
    }

    /// Placement cost of putting `node` at `(pe, t)`: Σ |actual − expected|
    /// over labels 2, 3, 4 against already-placed neighbours
    /// (Algorithm 1 line 6).
    fn placement_cost(&self, m: &Mapping<'_>, node: NodeId, pe: PeId, t: u32) -> f64 {
        let dfg = m.dfg();
        let acc = m.accelerator();
        let ii = m.ii();
        let mut cost = 0.0;
        // A value advances at most one hop per cycle, so a candidate whose
        // spatial distance to a placed neighbour exceeds the temporal gap
        // is physically unroutable; penalise it regardless of what the
        // (possibly inaccurate) labels suggest.
        let infeasible = |spatial: f64, temporal: f64| {
            if spatial > temporal {
                100.0 * (spatial - temporal)
            } else {
                0.0
            }
        };
        for &e in dfg.in_edges(node) {
            let edge = dfg.edge(e);
            if let Some(p) = m.placement(edge.src) {
                let spatial = f64::from(acc.spatial_distance(pe, p.pe));
                cost += (spatial - self.labels.spatial[e.index()]).abs();
                let temporal = f64::from(t + edge.kind.distance() * ii) - f64::from(p.time);
                cost += (temporal - self.labels.temporal[e.index()]).abs();
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
                cost += (spatial - self.labels.spatial[e.index()]).abs();
                let temporal = f64::from(c.time + edge.kind.distance() * ii) - f64::from(t);
                cost += (temporal - self.labels.temporal[e.index()]).abs();
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

    fn label_guided(&self) -> bool {
        match self.config.mode {
            LabelMode::Full => true,
            LabelMode::RoutingPriorityOnly => false,
            LabelMode::InitialOnly => !self.initial_done.get(),
        }
    }
}

impl SaPolicy for LabelPolicy<'_> {
    fn order_nodes(&self, mapping: &Mapping<'_>, nodes: &mut [NodeId]) {
        if self.label_guided() {
            nodes.sort_by(|a, b| {
                let ka = self.labels.schedule_order[a.index()];
                let kb = self.labels.schedule_order[b.index()];
                ka.partial_cmp(&kb)
                    .expect("schedule orders are finite")
                    .then(a.index().cmp(&b.index()))
            });
        } else {
            VanillaPolicy.order_nodes(mapping, nodes);
        }
    }

    fn choose_candidate(
        &self,
        mapping: &Mapping<'_>,
        node: NodeId,
        candidates: &[(PeId, u32)],
        stats: MoveStats,
        rng: &mut Rng,
    ) -> usize {
        if !self.label_guided() {
            // After the initial mapping, InitialOnly degrades to vanilla;
            // flag the transition for subsequent calls.
            return VanillaPolicy.choose_candidate(mapping, node, candidates, stats, rng);
        }
        let mut order: Vec<(f64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, &(pe, t))| (self.placement_cost(mapping, node, pe, t), i))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
        // σ = max{1, α·T − Acc}: low acceptance widens the distribution.
        let sigma =
            (self.config.alpha * f64::from(stats.attempted) - f64::from(stats.accepted)).max(1.0);
        let draw = sample_normal(rng).abs() * sigma;
        let idx = (draw.floor() as usize).min(order.len() - 1);
        order[idx].1
    }

    fn order_edges(&self, mapping: &Mapping<'_>, edges: &mut [EdgeId]) {
        let dfg = mapping.dfg();
        match self.config.mode {
            LabelMode::InitialOnly if self.initial_done.get() => {
                VanillaPolicy.order_edges(mapping, edges);
            }
            _ => {
                // Route the neediest data first: descending label-4 sum of
                // the producing node, tie-broken by the edge's own label 4.
                edges.sort_by(|&a, &b| {
                    let na = self.labels.node_routing_need(dfg, dfg.edge(a).src);
                    let nb = self.labels.node_routing_need(dfg, dfg.edge(b).src);
                    nb.partial_cmp(&na)
                        .expect("finite needs")
                        .then_with(|| {
                            self.labels.temporal[b.index()]
                                .partial_cmp(&self.labels.temporal[a.index()])
                                .expect("finite labels")
                        })
                        .then(a.index().cmp(&b.index()))
                });
            }
        }
        // The first full pass over the edges marks the end of the initial
        // mapping for InitialOnly mode.
        if self.config.mode == LabelMode::InitialOnly {
            self.initial_done.set(true);
        }
    }
}

/// Standard-normal sample via Box–Muller.
fn sample_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The label-aware simulated-annealing mapper (LISA's mapping stage).
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
    labels: GuidanceLabels,
    params: SaParams,
    config: LabelSaConfig,
    seed: u64,
    name: String,
    strategy: crate::strategy::StrategySpec,
    sink: EventSink,
    filter: Option<std::sync::Arc<dyn crate::predictor::MovementScorer>>,
}

impl LabelSaMapper {
    /// Creates a full label-aware mapper (Algorithm 1).
    pub fn new(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        LabelSaMapper {
            labels,
            params,
            config: LabelSaConfig::default(),
            seed,
            name: "LISA".to_string(),
            strategy: crate::strategy::StrategySpec::default(),
            sink: EventSink::null(),
            filter: None,
        }
    }

    /// Creates the routing-priority-only ablation of Fig. 12.
    pub fn routing_priority_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        LabelSaMapper {
            labels,
            params,
            config: LabelSaConfig {
                mode: LabelMode::RoutingPriorityOnly,
                ..LabelSaConfig::default()
            },
            seed,
            name: "SA+RP".to_string(),
            strategy: crate::strategy::StrategySpec::default(),
            sink: EventSink::null(),
            filter: None,
        }
    }

    /// Creates the partial label-aware mapper used during training-data
    /// generation: labels guide only the initial mapping (§V-B).
    pub fn initial_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        LabelSaMapper {
            labels,
            params,
            config: LabelSaConfig {
                mode: LabelMode::InitialOnly,
                ..LabelSaConfig::default()
            },
            seed,
            name: "LISA-partial".to_string(),
            strategy: crate::strategy::StrategySpec::default(),
            sink: EventSink::null(),
            filter: None,
        }
    }

    /// Selects the lanes raced per II (see [`crate::StrategySpec`]).
    /// The default, `sa`, is one label-aware annealing chain;
    /// `sa,sa,sa,sa` races four independently seeded chains and keeps
    /// the deterministic winner, whose lane 0 is the one-chain mapper.
    pub fn with_strategy(mut self, strategy: crate::strategy::StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Streams per-temperature SA snapshots into `sink`. Events never
    /// change the trajectory; the null sink restores silence.
    pub fn with_observer(mut self, sink: EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attaches a predict-then-verify movement filter (see
    /// [`crate::SaMapper::with_movement_filter`]); all lanes share the
    /// one immutable scorer.
    pub fn with_movement_filter(
        mut self,
        filter: std::sync::Arc<dyn crate::predictor::MovementScorer>,
    ) -> Self {
        self.filter = Some(filter);
        self
    }

    /// The active label set.
    pub fn labels(&self) -> &GuidanceLabels {
        &self.labels
    }

    /// The active guidance mode.
    pub fn mode(&self) -> LabelMode {
        self.config.mode
    }
}

impl IiMapper for LabelSaMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map_at_ii<'a>(
        &mut self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
    ) -> Option<Mapping<'a>> {
        assert!(
            self.labels.matches(dfg),
            "labels do not match the DFG shape"
        );
        // Each lane gets a fresh policy: `LabelPolicy` carries the
        // InitialOnly transition flag, which must not leak across lanes.
        crate::strategy::race_lanes(
            &self.strategy,
            || LabelPolicy::new(&self.labels, self.config, dfg),
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
