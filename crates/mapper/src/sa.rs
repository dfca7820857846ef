//! The annealing core of [`crate::LabelSaMapper`], shared by the paper's
//! SA baseline and the label-aware variant (Algorithm 1).
//!
//! The skeleton follows the paper's description of SA-based approaches
//! (§III-B): create an initial mapping, then repeatedly *unmap* a few nodes
//! and remap them (a *movement*), accepting worse mappings with a
//! temperature-controlled probability to escape local minima. The paper's
//! SA baseline and LISA differ **only** in three decisions — placement
//! order, PE-candidate choice, and routing order — which the lane's
//! policy ([`crate::label_sa`]) makes; everything else is here.
//!
//! That includes the candidate listing the policy chooses from, which the
//! constructive lane and the exact mapper share: each supporting PE's
//! first two free times in the node's window, by PE and then time. It is
//! read from the mapping's free-FU bitset a word of 64 PEs at a time;
//! `reference::candidate_slots`, the per-cell scan it replaced, stays in
//! tests as its oracle.

use std::time::{Duration, Instant};

use lisa_rng::Rng;

use lisa_arch::{Accelerator, PeId};
use lisa_dfg::{Dfg, EdgeId, NodeId};
use lisa_events::{EventSink, PipelineEvent};

use crate::label_sa::Policy;
use crate::mapping::Placement;
use crate::predictor::{movement_features_into, FilterStats, MovementScorer};
use crate::Mapping;

/// Tuning parameters of the annealer.
#[derive(Debug, Clone, PartialEq)]
pub struct SaParams {
    /// Movements attempted at each temperature (paper §VI-C: 50 for SA and
    /// LISA; 500 for the SA-M ablation).
    pub moves_per_temp: u32,
    /// Starting temperature.
    pub initial_temp: f64,
    /// Multiplicative cooling factor per temperature level.
    pub cooling: f64,
    /// Annealing stops when the temperature falls below this.
    pub min_temp: f64,
    /// Wall-clock budget per target II ("not exceed time limitation",
    /// Algorithm 1 line 1).
    pub time_limit: Duration,
}

/// Most nodes one movement unmaps; each movement draws its count from
/// `1..=MAX_UNMAP`.
const MAX_UNMAP: usize = 3;

impl SaParams {
    /// Paper-scale parameters: 50 movements per temperature.
    pub fn paper() -> Self {
        SaParams {
            moves_per_temp: 50,
            initial_temp: 60.0,
            cooling: 0.95,
            min_temp: 0.4,
            time_limit: Duration::from_secs(10),
        }
    }

    /// The SA-M ablation of Fig. 13: 10× movements at each temperature.
    pub fn sa_m() -> Self {
        SaParams {
            moves_per_temp: 500,
            ..SaParams::paper()
        }
    }

    /// Reduced budget for unit tests and doctests.
    pub fn fast() -> Self {
        SaParams {
            moves_per_temp: 25,
            initial_temp: 30.0,
            cooling: 0.85,
            min_temp: 1.0,
            time_limit: Duration::from_secs(2),
        }
    }
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams::paper()
    }
}

/// Running movement statistics, read by the label policy's deviation
/// schedule σ = max{1, α·T − Acc} (Algorithm 1 line 7).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MoveStats {
    /// Attempted movements so far (the paper's `T`).
    pub(crate) attempted: u32,
    /// Accepted movements so far (the paper's `Acc`).
    pub(crate) accepted: u32,
}

/// Cost of a (possibly partial) mapping: unplaced nodes and unrouted edges
/// dominate; routing cells break ties so tighter routings win, and a small
/// makespan term keeps schedules compact (late placements starve their
/// successors of causal slots). O(1): every term is a running counter the
/// `Mapping` maintains through its mutators.
pub(crate) fn mapping_cost(m: &Mapping<'_>) -> f64 {
    cost_with_free_routes(m, 0)
}

/// [`mapping_cost`] with `free` of the unrouted edges counted as routed
/// on no new cell: a lower bound on the cost once they are routed, since
/// routing changes no placement and frees no cell. The same expression
/// as `mapping_cost`, so equal counters give equal costs.
fn cost_with_free_routes(m: &Mapping<'_>, free: usize) -> f64 {
    1000.0 * m.unplaced_count() as f64
        + 100.0 * (m.unrouted_count() - free) as f64
        + m.routing_cells() as f64
        + 0.01 * m.lateness() as f64
}

/// The Metropolis test of one movement: accept a cost of `new_cost` when
/// `new_cost <= cost`, else with probability `exp((cost − new_cost) /
/// temp)`, drawing one uniform variate for that. The variate is drawn
/// where the test first needs it: at the test, or earlier, when the
/// movement's routing pass proves the test will draw it (see
/// [`route_all`]). Routing draws no random number, so either way it is
/// the same draw of the same stream.
struct AcceptTest {
    cost: f64,
    temp: f64,
    variate: Option<f64>,
}

impl AcceptTest {
    fn new(cost: f64, temp: f64) -> Self {
        AcceptTest {
            cost,
            temp,
            variate: None,
        }
    }

    fn probability(&self, new_cost: f64) -> f64 {
        ((self.cost - new_cost) / self.temp).exp().clamp(0.0, 1.0)
    }

    /// Whether a movement that cannot complete, and whose cost will be
    /// at least `lower_bound`, is sure to be rejected. Such a movement
    /// reaches the test, and when `lower_bound > cost` the test draws its
    /// variate `u`, so it is drawn here; the movement is rejected for
    /// sure when `u` fails even the bound's (larger) probability.
    fn rejects_from(&mut self, lower_bound: f64, rng: &mut Rng) -> bool {
        if lower_bound <= self.cost {
            return false;
        }
        let u = *self.variate.get_or_insert_with(|| rng.gen());
        u >= self.probability(lower_bound)
    }

    /// The test itself: `new_cost <= cost || rng.gen_bool(p)`, with the
    /// variate drawn early if [`rejects_from`](Self::rejects_from) drew it.
    fn accepts(&mut self, new_cost: f64, rng: &mut Rng) -> bool {
        new_cost <= self.cost
            || self.variate.take().unwrap_or_else(|| rng.gen()) < self.probability(new_cost)
    }
}

/// All feasible `(pe, time)` slots for `node`, bounded by its placed data
/// neighbours: after every placed predecessor, before every placed
/// successor. If the bounds conflict, the lower bound wins and the
/// offending successor edges simply fail to route (and cost accordingly).
pub(crate) fn candidate_slots(m: &Mapping<'_>, node: NodeId) -> Vec<(PeId, u32)> {
    let mut out = Vec::new();
    candidate_slots_into(m, node, &mut out);
    out
}

/// The times `lo..=hi` a candidate of `node` may take. Times fold modulo
/// II, so sweeping 2·II consecutive cycles visits every slot of a PE
/// twice; the listing keeps only the earliest two free times per PE so
/// schedules stay compact (late placements starve their successors of
/// causal slots and deadlock the annealer).
fn candidate_window(m: &Mapping<'_>, node: NodeId) -> (u32, u32) {
    let dfg = m.dfg();
    // A node can never execute before its data depth; this keeps
    // placements causal even when a policy orders children first.
    let mut lo = m.asap_level(node);
    for p in dfg.data_predecessors(node) {
        if let Some(pp) = m.placement(p) {
            lo = lo.max(pp.time + 1);
        }
    }
    let mut hi = m.schedule_window() - 1;
    for s in dfg.data_successors(node) {
        if let Some(sp) = m.placement(s) {
            hi = hi.min(sp.time.saturating_sub(1));
        }
    }
    if lo > hi {
        hi = m.schedule_window() - 1;
    }
    (lo, hi.min(lo + m.ii().max(2) * 2))
}

/// Allocation-free variant of [`candidate_slots`]: clears `out` and
/// refills it. The annealer evaluates candidates for every remapped node
/// of every movement, so hot paths reuse one buffer.
///
/// The list is each supporting PE's first two free times in the window,
/// by PE and then time. It is read from the mapping's free-FU bitset 64
/// PEs at a time: walking the window's times in order, a PE's first and
/// second hit are its first two free times (the window spans up to
/// 2·max(II, 2) + 1 cycles, so the second may be the first's slot one
/// period later). `reference::candidate_slots` keeps the per-cell scan
/// this replaced, and a property holds the two equal.
fn candidate_slots_into(m: &Mapping<'_>, node: NodeId, out: &mut Vec<(PeId, u32)>) {
    out.clear();
    let (lo, hi) = candidate_window(m, node);
    let ii = m.ii();
    let lo_slot = m.mrrg().slot(lo);
    for (w, &support) in m.support_words(node).iter().enumerate() {
        if support == 0 {
            continue;
        }
        // PEs with a first free time (`one`) and those still short of a
        // second (`short`); `first`/`second` hold the times by bit.
        let (mut one, mut short) = (0u64, support);
        let mut first = [0u32; 64];
        let mut second = [0u32; 64];
        let mut slot = lo_slot;
        for t in lo..=hi {
            let hits = m.free_fu_word(slot, w) & short;
            for b in bits(hits & !one) {
                first[b] = t;
            }
            for b in bits(hits & one) {
                second[b] = t;
            }
            short &= !(hits & one);
            one |= hits;
            if short == 0 {
                break;
            }
            slot += 1;
            if slot == ii {
                slot = 0;
            }
        }
        let two = support & !short;
        for b in bits(one) {
            let pe = PeId::new(w * 64 + b);
            out.push((pe, first[b]));
            if two >> b & 1 == 1 {
                out.push((pe, second[b]));
            }
        }
    }
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// What the fast paths replaced, kept as their test oracles (like
/// `router::reference` for the router): the per-cell candidate scan the
/// bitset listing replaced, and the movement engine the journal
/// replaced, which deep-clones the mapping per movement and prices it by
/// rescanning.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`mapping_cost`] recomputed by scanning placements, routes and
    /// the occupancy grid, as every movement paid before the running
    /// counters.
    pub(crate) fn mapping_cost_scan(m: &Mapping<'_>) -> f64 {
        let lateness: u64 = m
            .dfg()
            .node_ids()
            .filter_map(|n| m.placement(n))
            .map(|p| u64::from(p.time))
            .sum();
        1000.0 * m.unplaced_nodes().len() as f64
            + 100.0 * m.unrouted_edges().len() as f64
            + m.routing_cells_scan() as f64
            + 0.01 * lateness as f64
    }

    /// [`super::movement_throughput`] on the pre-journal engine: clone
    /// before each movement, price by [`mapping_cost_scan`], restore the
    /// clone on reject, and route every movement to the end.
    pub(crate) fn movement_throughput(
        dfg: &Dfg,
        acc: &Accelerator,
        ii: u32,
        seed: u64,
        moves: u32,
    ) -> u32 {
        let (mut policy, mut rng, mut mapping, mut bufs) = throughput_start(dfg, acc, ii, seed);
        let temp = SaParams::paper().initial_temp;
        let mut stats = MoveStats::default();
        let mut fstats = FilterStats::default();
        let mut cost = mapping_cost_scan(&mapping);
        let mut improved = 0;
        for _ in 0..moves {
            stats.attempted += 1;
            let snapshot = mapping.clone();
            movement(
                &mut policy,
                &mut mapping,
                &mut bufs,
                stats,
                &mut rng,
                temp,
                None,
                &mut fstats,
                false,
                None,
            );
            let new_cost = mapping_cost_scan(&mapping);
            let accept =
                new_cost <= cost || rng.gen_bool(((cost - new_cost) / temp).exp().clamp(0.0, 1.0));
            if accept {
                if new_cost < cost {
                    stats.accepted += 1;
                    improved += 1;
                }
                cost = new_cost;
            } else {
                mapping = snapshot;
            }
        }
        improved
    }

    /// Probes every supporting PE's FU cell at each time of the window,
    /// in PE order, keeping the first two free times.
    pub(crate) fn candidate_slots(m: &Mapping<'_>, node: NodeId) -> Vec<(PeId, u32)> {
        let mut out = Vec::new();
        let (lo, hi) = candidate_window(m, node);
        let op = m.dfg().node(node).op;
        let acc = m.accelerator();
        for pe in (0..acc.pe_count()).map(PeId::new) {
            if !acc.supports(pe, op) {
                continue;
            }
            let mut kept = 0;
            for t in lo..=hi {
                if m.fu_free(pe, t) {
                    out.push((pe, t));
                    kept += 1;
                    if kept == 2 {
                        break;
                    }
                }
            }
        }
        out
    }
}

/// Places `node` at `(pe, t)` and routes each incident edge whose
/// endpoints are both placed. On the first routing failure the node is
/// unplaced, which also rips up the edges routed so far, so a failed
/// attempt leaves the mapping as it found it. Returns whether the node
/// stayed placed; undo a success with [`Mapping::unplace`]. Every
/// `route_edge` call, success or failure, adds one to `router_calls`.
pub(crate) fn place_and_route(
    m: &mut Mapping<'_>,
    node: NodeId,
    pe: PeId,
    t: u32,
    router_calls: &mut u64,
) -> bool {
    if m.place(node, pe, t).is_err() {
        return false;
    }
    let dfg = m.dfg();
    for &e in dfg.in_edges(node).iter().chain(dfg.out_edges(node)) {
        // A self-loop is listed twice; the first visit routes it.
        if m.route(e).is_some() {
            continue;
        }
        let edge = dfg.edge(e);
        if m.placement(edge.src).is_none() || m.placement(edge.dst).is_none() {
            continue;
        }
        *router_calls += 1;
        if m.route_edge(e).is_err() {
            m.unplace(node);
            return false;
        }
    }
    true
}

/// Reusable per-anneal scratch for the movement loop. Every movement
/// needs a handful of short-lived lists (problematic nodes, victims, the
/// remap set, the unrouted-edge worklist, candidate slots); owning them
/// here turns five-plus heap allocations per movement into none.
#[derive(Debug, Default)]
struct MoveBuffers {
    problematic: Vec<NodeId>,
    victims: Vec<NodeId>,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    candidates: Vec<(PeId, u32)>,
    /// Victims' pre-movement placements (for the displacement feature).
    displaced: Vec<(NodeId, Placement)>,
    /// Movement feature vector, filled when a filter or a sink wants it.
    features: Vec<f64>,
}

/// What the movement loop decided before the accept test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MovementVerdict {
    /// Routed and ready for exact pricing (always, with no filter and no
    /// accept test handed to the routing pass).
    Admitted,
    /// Admitted, but the routing pass stopped where the accept test was
    /// sure to reject; the caller rolls back without pricing.
    CertainReject,
    /// Predictor-rejected before routing; the caller rolls back without
    /// pricing. `audited` marks the deterministic 1-in-16 of rejects that
    /// were routed anyway, measure-only, for the false-reject counter.
    Rejected { audited: bool },
}

/// Audit cadence: the first predictor reject and every 16th after it are
/// routed measure-only, so false-reject rates stay observable at ~6% of
/// the rejected path's router cost. Deterministic — no RNG draw, so the
/// audit never perturbs the trajectory.
const AUDIT_PERIOD: u64 = 16;

/// Plateau bypass: proposals without an accepted strict improvement
/// before the filter starts duty-cycling off. While the chain makes
/// progress the gate stays fully engaged; once it stalls, one
/// `STALL_BURST`-proposal window in every `STALL_PERIOD` runs
/// unfiltered, so the chain keeps the unfiltered annealer's ability to
/// climb out of a local minimum through sequences of worsening moves
/// the predictor would prune. Counter-driven and deterministic — no RNG
/// draw, and with the filter off the counters never change behaviour.
const STALL_ONSET: u32 = 128;
/// Length of one unfiltered burst while stalled.
const STALL_BURST: u32 = 32;
/// One burst in every `STALL_PERIOD` is unfiltered while stalled.
const STALL_PERIOD: u32 = 4;

/// The annealing core of [`crate::LabelSaMapper`]: one lane of a race,
/// seeded with `seed`, deciding with its own copy of `policy`.
/// `lane` tags the emitted [`PipelineEvent::SaSnapshot`]s and
/// [`PipelineEvent::SaMovementSample`]s; the null sink makes the
/// instrumentation free. With `filter` attached, proposals are scored
/// after placement and low scorers are rolled back without invoking the
/// router (predict-then-verify); with `filter` absent the trajectory —
/// every RNG draw — is identical to the pre-filter annealer. Router work
/// accumulates into `fstats`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn anneal<'a>(
    mut policy: Policy<'_>,
    params: &SaParams,
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
    lane: usize,
    sink: &EventSink,
    filter: Option<&dyn MovementScorer>,
    fstats: &mut FilterStats,
) -> Option<Mapping<'a>> {
    let mut rng = Rng::seed_from_u64(seed);
    let start = Instant::now();
    let mut mapping = Mapping::new(dfg, acc, ii).ok()?;
    let mut stats = MoveStats::default();
    let mut bufs = MoveBuffers::default();
    // Building the feature vector costs a scan of the moved set; skip it
    // unless a filter consumes it or a sink captures training pairs.
    let want_features = filter.is_some() || sink.is_active();

    // Initial mapping: every node is unmapped (Algorithm 1, first
    // iteration). Construction is never gated: with nothing placed there
    // is no movement to score.
    bufs.nodes.extend(dfg.node_ids());
    place_nodes(&mut policy, &mut mapping, &mut bufs, stats, &mut rng);
    fstats.router_invocations += route_all(&policy, &mut mapping, &mut bufs, None).0;
    policy.end_initial_mapping();
    let mut cost = mapping_cost(&mapping);
    if mapping.is_complete() {
        return Some(mapping);
    }

    let mut temp = params.initial_temp;
    // Proposals since the last accepted strict improvement, for the
    // plateau bypass (see STALL_ONSET).
    let mut stall: u32 = 0;
    while temp > params.min_temp {
        for _ in 0..params.moves_per_temp {
            if start.elapsed() > params.time_limit {
                return None;
            }
            stats.attempted += 1;
            let bypass = stall >= STALL_ONSET && (stall / STALL_BURST) % STALL_PERIOD == 0;
            let gate = if bypass { None } else { filter };
            // Rejected movements are undone through the journal instead of
            // restoring a pre-movement deep clone; in debug builds a
            // snapshot cross-checks that rollback is byte-identical.
            #[cfg(debug_assertions)]
            let snapshot = format!("{mapping:?}");
            mapping.begin_txn();
            // Unobserved, the routing pass may stop at a certain reject;
            // an observed movement routes to the end, because its
            // `SaMovementSample` carries the exact Δcost.
            let mut test = AcceptTest::new(cost, temp);
            let verdict = movement(
                &mut policy,
                &mut mapping,
                &mut bufs,
                stats,
                &mut rng,
                temp,
                gate,
                fstats,
                want_features,
                (!sink.is_active()).then_some(&mut test),
            );
            let accepted = match verdict {
                MovementVerdict::Rejected { audited } => {
                    // Predictor reject: no routing happened (audits route
                    // measure-only), no pricing, no accept-test RNG draw —
                    // this is exactly the work the filter saves.
                    if audited && mapping_cost(&mapping) <= cost {
                        fstats.false_rejects += 1;
                    }
                    None
                }
                // The accept test drew its variate and rejects.
                MovementVerdict::CertainReject => None,
                MovementVerdict::Admitted => {
                    let new_cost = mapping_cost(&mapping);
                    if want_features && sink.is_active() {
                        sink.emit(PipelineEvent::SaMovementSample {
                            chain: lane,
                            ii,
                            features: bufs.features.clone(),
                            delta_cost: new_cost - cost,
                        });
                    }
                    if mapping.is_complete() {
                        mapping.commit();
                        return Some(mapping);
                    }
                    test.accepts(new_cost, &mut rng).then_some(new_cost)
                }
            };
            if let Some(new_cost) = accepted {
                mapping.commit();
                // The deviation schedule counts only strict improvements:
                // plateau moves must not mask a stuck search, or sigma
                // never widens and the label policy repeats itself. The
                // stall counter follows the same rule — plateau shuffling
                // must not keep the filter engaged on a stuck chain.
                if new_cost < cost {
                    stats.accepted += 1;
                    stall = 0;
                } else {
                    stall = stall.saturating_add(1);
                }
                cost = new_cost;
            } else {
                stall = stall.saturating_add(1);
                mapping.rollback();
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    snapshot,
                    format!("{mapping:?}"),
                    "journal rollback diverged from the pre-movement snapshot"
                );
            }
        }
        if sink.is_active() {
            sink.emit(PipelineEvent::SaSnapshot {
                chain: lane,
                ii,
                temp,
                cost,
                unplaced: mapping.unplaced_count(),
                unrouted: mapping.unrouted_count(),
                accepted: stats.accepted,
                attempted: stats.attempted,
            });
        }
        temp *= params.cooling;
    }
    None
}

/// One SA movement: unmap a few (biased towards problematic) nodes, remap
/// them in policy order, then — unless the filter rejects the re-placed
/// state — retry every unrouted edge in policy order, stopping early if
/// `test` is given and sure to reject. The filter runs after placement
/// and before routing, and consumes no RNG, so the filter-off RNG stream
/// is bit-identical to the pre-filter annealer.
#[allow(clippy::too_many_arguments)]
fn movement(
    policy: &mut Policy<'_>,
    mapping: &mut Mapping<'_>,
    bufs: &mut MoveBuffers,
    stats: MoveStats,
    rng: &mut Rng,
    temp: f64,
    filter: Option<&dyn MovementScorer>,
    fstats: &mut FilterStats,
    want_features: bool,
    test: Option<&mut AcceptTest>,
) -> MovementVerdict {
    let dfg = mapping.dfg();
    // Problematic nodes: endpoints of unrouted edges, plus unplaced nodes.
    mapping.unplaced_nodes_into(&mut bufs.problematic);
    for e in dfg.edge_ids() {
        if mapping.route(e).is_none() {
            let edge = dfg.edge(e);
            bufs.problematic.push(edge.src);
            bufs.problematic.push(edge.dst);
        }
    }
    let problematic = &mut bufs.problematic;
    problematic.sort_by_key(|n| n.index());
    problematic.dedup();

    // Duplicate draws retry until `count` distinct victims are found
    // (capped by the node count so the loop always terminates); earlier
    // versions silently shrank the unmap set on collisions, biasing
    // movements toward smaller perturbations than the drawn count.
    let count = rng.gen_range(1..=MAX_UNMAP).min(dfg.node_count());
    let victims = &mut bufs.victims;
    victims.clear();
    while victims.len() < count {
        let v = if !problematic.is_empty() && rng.gen_bool(0.7) {
            problematic[rng.gen_range(0..problematic.len())]
        } else {
            NodeId::new(rng.gen_range(0..dfg.node_count()))
        };
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    if want_features {
        bufs.displaced.clear();
        for i in 0..bufs.victims.len() {
            if let Some(p) = mapping.placement(bufs.victims[i]) {
                bufs.displaced.push((bufs.victims[i], p));
            }
        }
    }
    for i in 0..bufs.victims.len() {
        mapping.unplace(bufs.victims[i]);
    }
    // Remap everything currently unplaced (victims plus earlier failures).
    mapping.unplaced_nodes_into(&mut bufs.nodes);
    place_nodes(policy, mapping, bufs, stats, rng);
    fstats.proposals += 1;
    if want_features {
        let (nodes, mut features) = (std::mem::take(&mut bufs.nodes), {
            std::mem::take(&mut bufs.features)
        });
        movement_features_into(mapping, &nodes, &bufs.displaced, &mut features);
        bufs.nodes = nodes;
        bufs.features = features;
    }
    if let Some(scorer) = filter {
        if !scorer.admit(&bufs.features, temp) {
            fstats.rejected += 1;
            // Deterministic audit: route a fixed 1-in-AUDIT_PERIOD of
            // rejects anyway so the false-reject rate stays measurable.
            // The caller prices and rolls back; no RNG is drawn.
            if fstats.rejected % AUDIT_PERIOD == 1 {
                fstats.audited += 1;
                fstats.audit_router_invocations += route_all(policy, mapping, bufs, None).0;
                return MovementVerdict::Rejected { audited: true };
            }
            return MovementVerdict::Rejected { audited: false };
        }
    }
    fstats.admitted += 1;
    let (invocations, certain_reject) = route_all(policy, mapping, bufs, test.map(|t| (t, rng)));
    fstats.router_invocations += invocations;
    if certain_reject {
        MovementVerdict::CertainReject
    } else {
        MovementVerdict::Admitted
    }
}

/// Places the nodes in `bufs.nodes` in policy order, consulting the
/// policy for each slot. The caller fills `bufs.nodes`.
fn place_nodes(
    policy: &mut Policy<'_>,
    mapping: &mut Mapping<'_>,
    bufs: &mut MoveBuffers,
    stats: MoveStats,
    rng: &mut Rng,
) {
    policy.order_nodes(mapping, &mut bufs.nodes);
    for i in 0..bufs.nodes.len() {
        let node = bufs.nodes[i];
        candidate_slots_into(mapping, node, &mut bufs.candidates);
        if bufs.candidates.is_empty() {
            continue;
        }
        let idx = policy.choose_candidate(mapping, node, &bufs.candidates, stats, rng);
        let (pe, t) = bufs.candidates[idx];
        mapping
            .place(node, pe, t)
            .expect("candidate slots are feasible by construction");
    }
}

/// Attempts to route every unrouted edge whose endpoints are placed, in
/// policy order. Failures are left unrouted for the cost function.
///
/// With `cut`, the pass stops once the accept test is sure to reject the
/// movement. A movement with an unplaced node or a failed route cannot
/// complete, so it reaches the test; before each further route, the cost
/// with every remaining edge routed on no new cell bounds its cost from
/// below, and [`AcceptTest::rejects_from`] decides on that bound.
///
/// Returns the number of `route_edge` invocations — the unit of router
/// work the movement filter exists to save — and whether the pass
/// stopped at a certain reject.
fn route_all(
    policy: &Policy<'_>,
    mapping: &mut Mapping<'_>,
    bufs: &mut MoveBuffers,
    mut cut: Option<(&mut AcceptTest, &mut Rng)>,
) -> (u64, bool) {
    mapping.unrouted_edges_into(&mut bufs.edges);
    policy.order_edges(&mut bufs.edges);
    let dfg = mapping.dfg();
    bufs.edges.retain(|&e| {
        let edge = dfg.edge(e);
        mapping.placement(edge.src).is_some() && mapping.placement(edge.dst).is_some()
    });
    let mut doomed = mapping.unplaced_count() > 0;
    for i in 0..bufs.edges.len() {
        if let Some((test, rng)) = cut.as_mut().filter(|_| doomed) {
            let remaining = bufs.edges.len() - i;
            if test.rejects_from(cost_with_free_routes(mapping, remaining), rng) {
                return (i as u64, true);
            }
        }
        doomed |= mapping.route_edge(bufs.edges[i]).is_err();
    }
    (bufs.edges.len() as u64, false)
}

/// Runs `moves` SA movements at the paper's initial temperature from a
/// vanilla initial mapping and returns the number of strict improvements
/// accepted: the annealer's hot loop, which the movement benches time.
/// Each rejected movement is rolled back through the journal, and, as in
/// an unobserved annealer, a movement's routing stops at a certain
/// reject. `reference::movement_throughput`, which deep-clones and
/// rescans instead, pins the trajectory in a unit test.
pub fn movement_throughput(dfg: &Dfg, acc: &Accelerator, ii: u32, seed: u64, moves: u32) -> u32 {
    let (mut policy, mut rng, mut mapping, mut bufs) = throughput_start(dfg, acc, ii, seed);
    let temp = SaParams::paper().initial_temp;
    let mut stats = MoveStats::default();
    let mut fstats = FilterStats::default();
    let mut cost = mapping_cost(&mapping);
    let mut improved = 0;
    for _ in 0..moves {
        stats.attempted += 1;
        mapping.begin_txn();
        let mut test = AcceptTest::new(cost, temp);
        let verdict = movement(
            &mut policy,
            &mut mapping,
            &mut bufs,
            stats,
            &mut rng,
            temp,
            None,
            &mut fstats,
            false,
            Some(&mut test),
        );
        let new_cost = mapping_cost(&mapping);
        if verdict == MovementVerdict::Admitted && test.accepts(new_cost, &mut rng) {
            mapping.commit();
            if new_cost < cost {
                stats.accepted += 1;
                improved += 1;
            }
            cost = new_cost;
        } else {
            mapping.rollback();
        }
    }
    improved
}

/// The state [`movement_throughput`] starts from: the vanilla policy,
/// the seeded stream, and every node placed and routed once.
fn throughput_start<'a>(
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
) -> (Policy<'static>, Rng, Mapping<'a>, MoveBuffers) {
    let mut policy = Policy::vanilla();
    let mut rng = Rng::seed_from_u64(seed);
    let mut mapping = Mapping::new(dfg, acc, ii).expect("bench II must be valid");
    let mut bufs = MoveBuffers::default();
    bufs.nodes.extend(dfg.node_ids());
    place_nodes(
        &mut policy,
        &mut mapping,
        &mut bufs,
        MoveStats::default(),
        &mut rng,
    );
    route_all(&policy, &mut mapping, &mut bufs, None);
    (policy, rng, mapping, bufs)
}

/// Runs one vanilla-policy annealing chain with an optional movement
/// filter and returns the mapping (if any) together with the router-work
/// counters. Seeded exactly like lane 0 of [`crate::LabelSaMapper::vanilla`]
/// with the same `seed`, so `anneal_chain(..., None)` reproduces the
/// one-lane mapper byte-for-byte. This is the measurement entry point for the
/// predictor A/B bench and the quality-invariance tests; production
/// paths read the same counters from [`PipelineEvent::SaFilterSummary`].
pub fn anneal_chain<'a>(
    params: &SaParams,
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
    filter: Option<&dyn MovementScorer>,
) -> (Option<Mapping<'a>>, FilterStats) {
    let mut stats = FilterStats::default();
    let mapping = anneal(
        Policy::vanilla(),
        params,
        dfg,
        acc,
        ii,
        crate::portfolio::chain_seed(seed, 0, ii),
        0,
        &EventSink::null(),
        filter,
        &mut stats,
    );
    (mapping, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IiMapper, LabelSaMapper};
    use lisa_dfg::{polybench, OpKind};

    fn small_chain() -> Dfg {
        let mut g = Dfg::new("chain4");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_data_edge(c, d).unwrap();
        g
    }

    #[test]
    fn sa_maps_small_chain_at_ii1() {
        let dfg = small_chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 42);
        let m = sa.map_at_ii(&dfg, &acc, 1).expect("should map");
        assert!(m.is_complete());
        m.verify().unwrap();
    }

    #[test]
    fn sa_maps_fig4_on_3x3() {
        // 10-node DFG on 9 PEs needs II >= 2.
        let mut g = Dfg::new("fig4ish");
        let ids: Vec<NodeId> = (0..10)
            .map(|i| {
                g.add_node(
                    if i < 2 { OpKind::Load } else { OpKind::Add },
                    format!("n{i}"),
                )
            })
            .collect();
        for (s, d) in [
            (0, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (3, 6),
            (3, 7),
            (4, 7),
            (1, 8),
            (4, 8),
            (6, 9),
            (7, 9),
        ] {
            g.add_data_edge(ids[s], ids[d]).unwrap();
        }
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut sa = LabelSaMapper::vanilla(SaParams::paper(), 3);
        let m = (2..=4)
            .find_map(|ii| sa.map_at_ii(&g, &acc, ii))
            .expect("fig4 fits a 3x3 within II 4");
        m.verify().unwrap();
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let dfg = small_chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let m1 = LabelSaMapper::vanilla(SaParams::fast(), 9).map_at_ii(&dfg, &acc, 1);
        let m2 = LabelSaMapper::vanilla(SaParams::fast(), 9).map_at_ii(&dfg, &acc, 1);
        match (m1, m2) {
            (Some(a), Some(b)) => {
                for n in dfg.node_ids() {
                    assert_eq!(a.placement(n), b.placement(n));
                }
            }
            (None, None) => {}
            _ => panic!("nondeterministic outcome"),
        }
    }

    #[test]
    fn sa_fails_when_ii_too_small() {
        // 5 nodes, 1 PE supports them, II 2 -> at most 2 slots: impossible.
        let mut g = Dfg::new("big");
        for i in 0..5 {
            g.add_node(OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("1x1", 1, 1);
        let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 5);
        assert!(sa.map_at_ii(&g, &acc, 2).is_none());
    }

    #[test]
    fn sa_m_naming() {
        assert_eq!(LabelSaMapper::vanilla(SaParams::sa_m(), 0).name(), "SA-M");
        assert_eq!(LabelSaMapper::vanilla(SaParams::paper(), 0).name(), "SA");
    }

    #[test]
    fn sa_maps_a_polybench_kernel() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 11);
        let mut found = None;
        for ii in crate::schedule::mii(&dfg, &acc)..=8 {
            if let Some(m) = sa.map_at_ii(&dfg, &acc, ii) {
                found = Some((ii, m));
                break;
            }
        }
        let (_, m) = found.expect("doitgen maps on 4x4 within II 8");
        m.verify().unwrap();
    }

    #[test]
    fn candidate_slots_respect_neighbour_times() {
        let dfg = small_chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 2).unwrap();
        // Candidates for node 1 must start at time 3.
        let cands = candidate_slots(&m, NodeId::new(1));
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|&(_, t)| t >= 3));
    }

    /// One random mutation: a placement (half of them on a few hot PEs,
    /// so some FUs fill every slot), an unplacement, a route or an
    /// unroute.
    fn random_mutation(m: &mut Mapping<'_>, rng: &mut Rng, hot: usize) {
        let dfg = m.dfg();
        let pes = m.accelerator().pe_count();
        match rng.gen_range(0..4u32) {
            0 | 1 => {
                let n = NodeId::new(rng.gen_range(0..dfg.node_count()));
                let pe = if rng.gen_bool(0.5) {
                    (hot + rng.gen_range(0..4usize)) % pes
                } else {
                    rng.gen_range(0..pes)
                };
                let t = rng.gen_range(0..m.schedule_window());
                let _ = m.place(n, PeId::new(pe), t);
            }
            2 => {
                let placed: Vec<NodeId> = dfg
                    .node_ids()
                    .filter(|&n| m.placement(n).is_some())
                    .collect();
                if !placed.is_empty() && rng.gen_bool(0.5) {
                    m.unplace(placed[rng.gen_range(0..placed.len())]);
                }
            }
            _ => {
                let e = EdgeId::new(rng.gen_range(0..dfg.edge_count().max(1)));
                if e.index() < dfg.edge_count() {
                    if m.route(e).is_some() {
                        m.unroute_edge(e);
                    } else {
                        let _ = m.route_edge(e);
                    }
                }
            }
        }
    }

    lisa_rng::props! {
        cases = 48;

        /// The bitset listing equals the per-cell scan for every node,
        /// through random place / unplace / route / unroute sequences,
        /// inside transactions that roll back or commit and outside them,
        /// on one- and four-word fabrics at IIs up to each one's maximum.
        /// Every settled state verifies, which checks the bitset against
        /// the FU cells.
        fn bitset_candidates_equal_the_cell_scan(
            fabric in 0usize..5,
            ii_pick in 0u32..u32::MAX,
            dfg_seed in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let acc = match fabric {
                0 => Accelerator::standard("4x4").unwrap(),
                1 => Accelerator::standard("4x4-lm").unwrap(),
                2 => Accelerator::standard("8x8").unwrap(),
                3 => Accelerator::standard("systolic").unwrap(),
                _ => Accelerator::cgra("16x16", 16, 16),
            };
            let ii = 1 + ii_pick % acc.max_ii();
            let dfg = lisa_dfg::random::generate_random_dfg(
                &lisa_dfg::random::RandomDfgConfig::default(),
                dfg_seed,
            );
            let mut rng = Rng::seed_from_u64(seed);
            let hot = rng.gen_range(0..acc.pe_count());
            let mut m = Mapping::new(&dfg, &acc, ii).unwrap();
            let same = |m: &Mapping<'_>| {
                for node in dfg.node_ids() {
                    assert_eq!(
                        candidate_slots(m, node),
                        reference::candidate_slots(m, node),
                        "{node:?} at II {ii} on {}",
                        acc.name()
                    );
                }
            };
            for _ in 0..8 {
                let txn = rng.gen_bool(0.5);
                if txn {
                    m.begin_txn();
                }
                for _ in 0..rng.gen_range(1..40u32) {
                    random_mutation(&mut m, &mut rng, hot);
                }
                same(&m);
                if txn {
                    if rng.gen_bool(0.5) {
                        m.rollback();
                    } else {
                        m.commit();
                    }
                }
                m.verify().unwrap();
                same(&m);
            }
        }
    }

    #[test]
    fn movement_engines_follow_identical_trajectories() {
        // The journal engine must replicate the snapshot-clone engine's
        // trajectory exactly: same RNG draws, same accept decisions, same
        // improvement count — this is the rollback-equivalence contract.
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("3x3", 3, 3);
        for seed in [1, 7, 42] {
            let a = reference::movement_throughput(&dfg, &acc, 3, seed, 120);
            let b = movement_throughput(&dfg, &acc, 3, seed, 120);
            assert_eq!(a, b, "engines diverged for seed {seed}");
        }
    }

    #[test]
    fn observer_receives_per_temperature_snapshots() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;
        // An unmappable problem anneals through the full temperature
        // schedule, so every level emits one snapshot.
        let mut g = Dfg::new("big");
        for i in 0..5 {
            g.add_node(OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("1x1", 1, 1);
        let recorder = Arc::new(RecordingObserver::default());
        let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 5)
            .with_observer(lisa_events::EventSink::new(recorder.clone()));
        assert!(sa.map_at_ii(&g, &acc, 2).is_none());
        let events = recorder.take();
        assert!(
            events.iter().any(|e| matches!(
                e,
                lisa_events::PipelineEvent::SaSnapshot {
                    chain: 0,
                    ii: 2,
                    ..
                }
            )),
            "no snapshots emitted"
        );
        // With a sink attached the annealer also journals per-movement
        // training pairs and a final filter summary on the same stream.
        assert!(events.iter().any(|e| matches!(
            e,
            lisa_events::PipelineEvent::SaMovementSample {
                chain: 0,
                ii: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            lisa_events::PipelineEvent::SaFilterSummary {
                chain: 0,
                ii: 2,
                rejected: 0,
                ..
            }
        )));
    }

    #[test]
    fn observer_does_not_change_the_trajectory() {
        use lisa_events::RecordingObserver;
        use std::sync::Arc;
        let dfg = small_chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let silent = LabelSaMapper::vanilla(SaParams::fast(), 9).map_at_ii(&dfg, &acc, 1);
        let observed = LabelSaMapper::vanilla(SaParams::fast(), 9)
            .with_observer(lisa_events::EventSink::new(Arc::new(
                RecordingObserver::default(),
            )))
            .map_at_ii(&dfg, &acc, 1);
        assert_eq!(
            silent.map(|m| format!("{m:?}")),
            observed.map(|m| format!("{m:?}"))
        );
    }

    #[test]
    fn anneal_chain_reproduces_the_sequential_mapper() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let via_mapper = LabelSaMapper::vanilla(SaParams::paper(), 7).map_at_ii(&dfg, &acc, 3);
        let (via_chain, stats) = anneal_chain(&SaParams::paper(), &dfg, &acc, 3, 7, None);
        assert_eq!(
            via_mapper.map(|m| format!("{m:?}")),
            via_chain.map(|m| format!("{m:?}"))
        );
        assert!(stats.router_invocations > 0);
    }

    #[test]
    fn filter_off_counters_admit_every_proposal() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let (_, stats) = anneal_chain(&SaParams::paper(), &dfg, &acc, 3, 42, None);
        assert_eq!(stats.admitted, stats.proposals);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.audited, 0);
        assert_eq!(stats.false_rejects, 0);
        assert_eq!(stats.audit_router_invocations, 0);
        assert!(stats.router_invocations >= stats.proposals);
    }

    /// Rejects every movement whose index (by call count) is odd — a
    /// worst-case-ish filter that exercises the reject path heavily.
    #[derive(Debug, Default)]
    struct RejectOdd(std::sync::atomic::AtomicU64);

    impl crate::predictor::MovementScorer for RejectOdd {
        fn admit(&self, _features: &[f64], _temp: f64) -> bool {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 2 == 0
        }
    }

    #[test]
    fn rejecting_filter_saves_router_work_and_accepted_states_verify() {
        let dfg = polybench::kernel("doitgen").unwrap();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let (off_mapping, off) = anneal_chain(&SaParams::paper(), &dfg, &acc, 3, 42, None);
        let filter = RejectOdd::default();
        let (on_mapping, on) = anneal_chain(&SaParams::paper(), &dfg, &acc, 3, 42, Some(&filter));
        // The exactness argument: whatever the filter rejected, any
        // mapping the gated annealer returns was routed and priced by the
        // exact incremental cost function.
        if let Some(m) = &off_mapping {
            m.verify().unwrap();
        }
        if let Some(m) = &on_mapping {
            m.verify().unwrap();
        }
        assert!(on.rejected > 0, "the filter never fired");
        assert_eq!(on.admitted + on.rejected, on.proposals);
        // 1-in-16 audit cadence, starting at the first reject.
        assert_eq!(on.audited, on.rejected.div_ceil(AUDIT_PERIOD));
        assert!(on.audit_router_invocations > 0);
        // The structural saving: rejected proposals never reach the
        // admitted-path router. (Total run length differs between the two
        // trajectories, so absolute counts are not comparable here; the
        // benches measure the fixed-length A/B.)
        assert!(on.admitted < on.proposals);
        assert_eq!(off.admitted, off.proposals);
    }

    #[test]
    fn cost_decreases_to_zero_on_complete() {
        let dfg = small_chain();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        assert!(mapping_cost(&m) >= 4000.0);
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        m.place(NodeId::new(2), PeId::new(3), 2).unwrap();
        m.place(NodeId::new(3), PeId::new(2), 3).unwrap();
        for e in dfg.edge_ids() {
            m.route_edge(e).unwrap();
        }
        // Complete mapping: only routing-cells and makespan terms remain.
        let lateness = 0.01 * f64::from(0 + 1 + 2 + 3u32);
        assert!((mapping_cost(&m) - (m.routing_cells() as f64 + lateness)).abs() < 1e-9);
    }
}
