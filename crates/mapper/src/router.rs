//! Dijkstra routing over the time-expanded MRRG (paper Algorithm 1,
//! line 11: "Route using Dijkstra's algorithm").
//!
//! A route for a dependency `u@(p, t_u) -> v@(q, t_v)` is a chain of
//! resources occupied at consecutive cycles `t_u + 1 .. t_v - 1`, whose
//! last element can feed the consumer FU at `t_v` (or, when
//! `t_v = t_u + 1`, the producer FU feeds the consumer directly). Every
//! hop advances time by exactly one cycle, so the search is layered: the
//! frontier at layer `k` holds resources reachable at cycle `t_u + k`.
//!
//! Costs are the number of *newly occupied* cells: reusing a cell the same
//! value already holds at the same absolute cycle (fanout prefix sharing)
//! is free, which is what makes multi-consumer nets affordable.
//!
//! **State indexing.** A search state is one resource at one layer, named
//! by the resource's slot offset ([`Mrrg::offset`]) and numbered
//! `layer << shift | offset`, where `2^shift` is the smallest power of two
//! not below the resources per slot. That numbering orders states exactly
//! like the dense `layer * resources_per_slot + offset`, so the heap — one
//! `u64` key per entry, `cost << 32 | state` — pops states in the total
//! order on `(cost, dense index)`, and every route and parent choice is
//! the one the dense numbering makes. An expansion reads successor offsets
//! from the MRRG's move table ([`Mrrg::move_offsets`]), and the cost
//! callback receives an occupancy index, its layer's slot base plus the
//! offset, computed once per layer per search. Resources are built from
//! offsets only when the path is rebuilt.
//!
//! **What a search skips.** Two rules drop work that cannot change the
//! answer; the routes, parents and `None`s stay those of the full search
//! (`router::reference`, compared byte for byte by a property test).
//!
//! 1. *One FU fan-out per PE and layer.* Every state of PE `p` has the
//!    same FU successors, `FU(p)` and the FUs of `p`'s out-neighbours
//!    (pinned in `lisa_arch`'s MRRG tests). Pops come in `(cost, state)`
//!    order, so the first state of `p` popped at a layer is `p`'s
//!    cheapest there, and a later one cannot strictly lower those
//!    successors' costs, which a relax needs. Only the first pop expands
//!    them; an epoch-stamped mark per PE and layer in [`RouterScratch`]
//!    records it.
//! 2. *Registers their own FU dominates.* `FU(p)` at a layer reaches
//!    everything `Reg(p, r)` at that layer reaches — its successors hold
//!    the register and share the FU fan-out — and can feed every
//!    consumer the register can. Its offset is lower, so at equal cost
//!    it pops first. A register relax whose cost is not below `FU(p)`'s
//!    best at that layer is skipped: such a state could set no best
//!    cost, no parent and no goal. Each expansion relaxes its FU
//!    successors before its register successors (a register's table row
//!    lists its hold first), so the FU is queued when the check runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use lisa_arch::{Mrrg, PeId, Resource};

use crate::mapping::RouteStep;

/// Sentinel for "no parent" in [`RouterScratch::parent`].
const NO_PARENT: u32 = u32::MAX;

/// Reusable Dijkstra state. The search arrays are epoch-stamped: a cell is
/// only valid when its epoch matches the current search's, so starting a
/// new search is O(1) and per-search work is O(states touched), not
/// O(state_count). One scratch is owned by each [`crate::Mapping`], so the
/// annealer's millions of `route_edge` calls stop reallocating.
#[derive(Clone, Default)]
pub struct RouterScratch {
    /// Per state, `epoch << 32 | best cost`: one load answers both "seen
    /// in this search?" and "at what cost?".
    best: Vec<u64>,
    parent: Vec<u32>,
    /// Per layer and PE, at `layer * pes + pe`: the epoch of the last
    /// search that expanded the PE's FU successors at that layer (module
    /// docs, "What a search skips").
    fanned: Vec<u32>,
    cur: u32,
    /// `cost << 32 | state` keys, popped smallest first.
    heap: BinaryHeap<Reverse<u64>>,
    /// Occupancy index of each layer's first resource.
    layer_base: Vec<usize>,
}

impl fmt::Debug for RouterScratch {
    /// Opaque by design: scratch contents are transient search state, and
    /// including them in `Mapping`'s debug rendering would break the
    /// byte-identity contracts (rollback equivalence, run determinism).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RouterScratch")
    }
}

impl RouterScratch {
    /// Starts a new search over `state_count` states and `fan_count`
    /// (layer, PE) pairs.
    fn begin(&mut self, state_count: usize, fan_count: usize) {
        if self.best.len() < state_count {
            self.best.resize(state_count, 0);
            self.parent.resize(state_count, NO_PARENT);
        }
        if self.fanned.len() < fan_count {
            self.fanned.resize(fan_count, 0);
        }
        self.heap.clear();
        if self.cur == u32::MAX {
            // Epoch wrap: invalidate everything once, then restart.
            self.best.fill(0);
            self.fanned.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
    }

    fn best(&self, state: usize) -> u32 {
        let stamped = self.best[state];
        if (stamped >> 32) as u32 == self.cur {
            stamped as u32
        } else {
            u32::MAX
        }
    }

    /// Records `cost` (reached from `parent`) as the best for `state` and
    /// queues it, if that is strictly cheaper than its best so far.
    fn relax(&mut self, state: usize, cost: u32, parent: u32) {
        if cost < self.best(state) {
            self.best[state] = (u64::from(self.cur) << 32) | u64::from(cost);
            self.parent[state] = parent;
            self.heap
                .push(Reverse((u64::from(cost) << 32) | state as u64));
        }
    }

    /// Marks the FU successors of a PE at a layer (`layer * pes + pe`)
    /// as expanded; false if this search already did.
    fn first_fan_out(&mut self, layer_pe: usize) -> bool {
        let first = self.fanned[layer_pe] != self.cur;
        self.fanned[layer_pe] = self.cur;
        first
    }
}

/// What one search holds fixed: the fabric, the endpoints, the layer
/// count, the state numbering and the cost callback.
struct Search<'m, 'a, F> {
    mrrg: &'m Mrrg<'a>,
    dst_pe: PeId,
    src_time: u32,
    /// Intermediate layers; layer `k` is cycle `src_time + 1 + k`.
    layers: usize,
    shift: u32,
    /// FU offsets are `0..pes`; each PE has `regs` registers.
    pes: usize,
    regs: usize,
    step_cost: F,
}

impl<F: Fn(usize, u32) -> Option<u32>> Search<'_, '_, F> {
    /// Cone pruning: `hop_distance` is a true lower bound on the link
    /// hops a value still needs, so a state at layer `k` whose PE is
    /// further than the remaining `layers - k` moves (counting the final
    /// consume hop) can never feed the consumer. Pruned states only ever
    /// expand to other pruned states, so surviving costs, heap pop order
    /// (the total order on `(cost, state)`), and the chosen route are
    /// exactly what the unpruned search would produce. This holds for
    /// *any* true lower bound: on big fabrics `hop_distance` comes from a
    /// landmark oracle that may under-estimate far distances, which only
    /// admits extra dead-end states — never changes the route (tested
    /// below against the reference router, which prunes by exact BFS
    /// distances).
    fn reachable(&self, pe: PeId, layer: usize) -> bool {
        self.mrrg.accelerator().hop_distance(pe, self.dst_pe) as usize <= self.layers - layer
    }

    /// Relaxes into `layer` the successors of the resource at `offset`,
    /// owned by `pe` and reached at `cost` from search state `parent`:
    /// its FU successors when `fan_out` holds (rule 1 of the module
    /// docs), then its register successors that their own FU does not
    /// dominate (rule 2).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn expand(
        &self,
        scratch: &mut RouterScratch,
        offset: usize,
        pe: PeId,
        cost: u32,
        parent: u32,
        layer: usize,
        fan_out: bool,
    ) {
        let mrrg = self.mrrg;
        let base = scratch.layer_base[layer];
        let time = self.src_time + 1 + layer as u32;
        // An FU's row lists its FU successors first and its registers
        // last; a register's lists its hold first.
        let row = mrrg.move_offsets(offset);
        let (fus, regs) = if offset < self.pes {
            row.split_at(row.len() - self.regs)
        } else {
            let (hold, fus) = row.split_at(1);
            (fus, hold)
        };
        if fan_out {
            for &next in fus {
                let next = next as usize;
                if !self.reachable(mrrg.offset_pe(next), layer) {
                    continue;
                }
                if let Some(c) = (self.step_cost)(base + next, time) {
                    scratch.relax((layer << self.shift) | next, cost + c, parent);
                }
            }
        }
        // Every register successor belongs to `pe`, whose FU at `layer`
        // this pop or an earlier pop of `pe` has relaxed: a register at
        // no lower cost than that FU's best is dominated.
        if !self.reachable(pe, layer) {
            return;
        }
        let fu_best = scratch.best((layer << self.shift) | pe.index());
        if fu_best <= cost {
            return;
        }
        for &next in regs {
            let next = next as usize;
            if let Some(c) = (self.step_cost)(base + next, time) {
                if cost + c < fu_best {
                    scratch.relax((layer << self.shift) | next, cost + c, parent);
                }
            }
        }
    }
}

/// Finds a minimum-new-cost route.
///
/// `step_cost(cell, time)` prices holding the value on the occupancy cell
/// `cell` (the [`Mrrg::index_at`] of the resource and `time`) during the
/// absolute cycle `time`: `None` when the cell is unusable (occupied by an
/// op or a foreign value), `Some(0)` when the value already holds the cell
/// at the same absolute time (fanout prefix reuse is free), and `Some(1)`
/// for a fresh occupation.
///
/// Returns the intermediate steps (empty when the consumer is directly
/// adjacent one cycle later), or `None` if no conflict-free path exists.
pub fn find_route_in(
    scratch: &mut RouterScratch,
    mrrg: &Mrrg<'_>,
    src_pe: PeId,
    src_time: u32,
    dst_pe: PeId,
    dst_time: u32,
    step_cost: impl Fn(usize, u32) -> Option<u32>,
) -> Option<Vec<RouteStep>> {
    debug_assert!(dst_time > src_time, "router requires causal timing");
    let hops = dst_time - src_time;
    if hops == 1 {
        // Direct consumption: producer FU must be adjacent to consumer.
        return mrrg
            .can_consume(Resource::Fu(src_pe), dst_pe)
            .then(Vec::new);
    }
    let layers = (hops - 1) as usize; // intermediate steps

    // State numbering (module docs): `layer << shift | offset`.
    let shift = usize::BITS - (mrrg.resources_per_slot() - 1).leading_zeros();
    let mask = (1usize << shift) - 1;
    let state_count = layers << shift;
    assert!(
        state_count <= NO_PARENT as usize,
        "router state space exceeds u32"
    );
    let pes = mrrg.accelerator().pe_count();
    scratch.begin(state_count, layers * pes);
    scratch.layer_base.clear();
    scratch
        .layer_base
        .extend((0..layers as u32).map(|layer| mrrg.slot_base(src_time + 1 + layer)));
    let search = Search {
        mrrg,
        dst_pe,
        src_time,
        layers,
        shift,
        pes,
        regs: mrrg.accelerator().regs_per_pe(),
        step_cost,
    };

    // Seed layer 0 (cycle src_time + 1) from the producer FU.
    let src = mrrg.offset(Resource::Fu(src_pe));
    search.expand(scratch, src, src_pe, 0, NO_PARENT, 0, true);

    let acc = mrrg.accelerator();
    let mut goal: Option<usize> = None;
    while let Some(Reverse(key)) = scratch.heap.pop() {
        let cost = (key >> 32) as u32;
        let state = key as u32 as usize;
        if cost > scratch.best(state) {
            continue;
        }
        let layer = state >> shift;
        let offset = state & mask;
        let pe = mrrg.offset_pe(offset);
        if layer == layers - 1 {
            // Last intermediate layer: can it feed the consumer? Pops
            // come off the heap in nondecreasing cost order, so the first
            // consumable state is optimal — nothing later in the heap can
            // strictly improve on it.
            if pe == dst_pe || acc.linked(pe, dst_pe) {
                goal = Some(state);
                break;
            }
            continue;
        }
        let fan_out = scratch.first_fan_out(layer * pes + pe.index());
        search.expand(scratch, offset, pe, cost, state as u32, layer + 1, fan_out);
    }

    let goal = goal?;
    // Reconstruct.
    let mut steps = Vec::with_capacity(layers);
    let mut cur = goal;
    loop {
        steps.push(RouteStep {
            resource: mrrg.resource(cur & mask),
            time: src_time + 1 + (cur >> shift) as u32,
        });
        match scratch.parent[cur] {
            NO_PARENT => break,
            prev => cur = prev as usize,
        }
    }
    steps.reverse();
    Some(steps)
}

/// The router as it was before the offset-indexed rewrite, kept as the
/// oracle the rewrite is tested against: it expands `Resource` successors
/// with [`Mrrg::moves_from_into`], prices `(resource, time)` pairs, keeps
/// a resource per state and a `(cost, dense index)` tuple per heap entry.
/// It prunes by exact hop distances from [`hop_table`], not by the
/// accelerator's index, so it also checks that the landmark oracle's
/// lower bounds change no route.
#[cfg(test)]
mod reference {
    use super::*;
    use lisa_arch::Accelerator;
    use std::collections::VecDeque;

    const NO_PARENT: usize = usize::MAX;

    /// All-pairs minimum hop counts over `acc`'s links by BFS, at
    /// `from * pes + to`, `u32::MAX` when unreachable.
    pub(super) fn hop_table(acc: &Accelerator) -> Vec<u32> {
        let pes = acc.pe_count();
        let mut table = vec![u32::MAX; pes * pes];
        let mut queue = VecDeque::new();
        for src in 0..pes {
            let row = &mut table[src * pes..(src + 1) * pes];
            row[src] = 0;
            queue.push_back(PeId::new(src));
            while let Some(u) = queue.pop_front() {
                for &v in acc.neighbors(u) {
                    if row[v.index()] == u32::MAX {
                        row[v.index()] = row[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        table
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn route(
        mrrg: &Mrrg<'_>,
        exact: &[u32],
        src_pe: PeId,
        src_time: u32,
        dst_pe: PeId,
        dst_time: u32,
        step_cost: impl Fn(Resource, u32) -> Option<u32>,
    ) -> Option<Vec<RouteStep>> {
        let hops = dst_time - src_time;
        if hops == 1 {
            return mrrg
                .can_consume(Resource::Fu(src_pe), dst_pe)
                .then(Vec::new);
        }
        let layers = (hops - 1) as usize;
        let per_slot = mrrg.resources_per_slot();
        let state_count = layers * per_slot;
        let mut best = vec![u32::MAX; state_count];
        let mut parent = vec![NO_PARENT; state_count];
        let mut resource: Vec<Option<Resource>> = vec![None; state_count];
        let mut heap = BinaryHeap::new();
        let mut moves = Vec::new();
        let pes = mrrg.accelerator().pe_count();
        let reachable = |r: Resource, layer: usize| {
            exact[r.pe().index() * pes + dst_pe.index()] as usize <= layers - layer
        };

        mrrg.moves_from_into(Resource::Fu(src_pe), &mut moves);
        for &r in &moves {
            if !reachable(r, 0) {
                continue;
            }
            let Some(cost) = step_cost(r, src_time + 1) else {
                continue;
            };
            let idx = mrrg.offset(r);
            if cost < best[idx] {
                best[idx] = cost;
                resource[idx] = Some(r);
                parent[idx] = NO_PARENT;
                heap.push(Reverse((cost, idx as u32)));
            }
        }
        let mut goal = None;
        while let Some(Reverse((cost, idx))) = heap.pop() {
            let idx = idx as usize;
            if cost > best[idx] {
                continue;
            }
            let layer = idx / per_slot;
            let r = resource[idx].expect("visited states hold a resource");
            let time = src_time + 1 + layer as u32;
            if layer == layers - 1 {
                if mrrg.can_consume(r, dst_pe) {
                    goal = Some(idx);
                    break;
                }
                continue;
            }
            mrrg.moves_from_into(r, &mut moves);
            for &next in &moves {
                if !reachable(next, layer + 1) {
                    continue;
                }
                let Some(c) = step_cost(next, time + 1) else {
                    continue;
                };
                let nidx = (layer + 1) * per_slot + mrrg.offset(next);
                let ncost = cost + c;
                if ncost < best[nidx] {
                    best[nidx] = ncost;
                    resource[nidx] = Some(next);
                    parent[nidx] = idx;
                    heap.push(Reverse((ncost, nidx as u32)));
                }
            }
        }
        let mut cur = goal?;
        let mut steps = Vec::with_capacity(layers);
        loop {
            steps.push(RouteStep {
                resource: resource[cur].expect("path states hold a resource"),
                time: src_time + 1 + (cur / per_slot) as u32,
            });
            match parent[cur] {
                NO_PARENT => break,
                prev => cur = prev,
            }
        }
        steps.reverse();
        Some(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_arch::Accelerator;
    use lisa_rng::Rng;

    fn any_usable(_cell: usize, _t: u32) -> Option<u32> {
        Some(1)
    }

    /// One search on a fresh scratch.
    fn route(
        mrrg: &Mrrg<'_>,
        src_pe: PeId,
        src_time: u32,
        dst_pe: PeId,
        dst_time: u32,
        step_cost: impl Fn(usize, u32) -> Option<u32>,
    ) -> Option<Vec<RouteStep>> {
        let mut scratch = RouterScratch::default();
        find_route_in(
            &mut scratch,
            mrrg,
            src_pe,
            src_time,
            dst_pe,
            dst_time,
            step_cost,
        )
    }

    #[test]
    fn adjacent_direct_route_is_empty() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        let steps = route(&mrrg, PeId::new(0), 0, PeId::new(1), 1, any_usable).unwrap();
        assert!(steps.is_empty());
    }

    #[test]
    fn non_adjacent_one_hop_fails() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        // PE0 and PE3 are diagonal: not linked.
        let r = route(&mrrg, PeId::new(0), 0, PeId::new(3), 1, any_usable);
        assert!(r.is_none());
    }

    #[test]
    fn two_cycle_route_crosses_diagonal() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        let steps = route(&mrrg, PeId::new(0), 0, PeId::new(3), 2, any_usable).unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].time, 1);
        // Intermediate must be FU(1) or FU(2) (a register on PE0 cannot
        // reach PE3, which is not a neighbour of PE0).
        match steps[0].resource {
            Resource::Fu(p) => assert!(p.index() == 1 || p.index() == 2),
            Resource::Reg(_, _) => panic!("register cannot feed diagonal PE"),
        }
    }

    #[test]
    fn slack_route_waits_in_registers() {
        // Same source and destination PE, 3 cycles apart: hold in regs.
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        let steps = route(&mrrg, PeId::new(0), 0, PeId::new(0), 3, any_usable).unwrap();
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn blocked_cells_force_detour_or_failure() {
        let acc = Accelerator::cgra("1x3", 1, 3).with_regs_per_pe(0);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        // 0 -> 2 in 2 cycles must pass FU(1)@1; block it.
        let fu1 = mrrg.index_at(Resource::Fu(PeId::new(1)), 1);
        let blocked = |cell: usize, t: u32| (!(cell == fu1 && t == 1)).then_some(1);
        let route2 = route(&mrrg, PeId::new(0), 0, PeId::new(2), 2, blocked);
        assert!(route2.is_none());
        // With 3 cycles there is still no path avoiding FU(1)@1? The value
        // can wait on FU(0)@1 then FU(1)@2 then consume at 3.
        let route3 = route(&mrrg, PeId::new(0), 0, PeId::new(2), 3, blocked).unwrap();
        assert_eq!(route3.len(), 2);
    }

    #[test]
    fn min_cost_prefers_short_paths() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        // 0 -> 8 in 4 cycles: exactly Manhattan distance, 3 intermediates.
        let steps = route(&mrrg, PeId::new(0), 0, PeId::new(8), 4, any_usable).unwrap();
        assert_eq!(steps.len(), 3);
        // All steps must be FU hops on a monotone staircase.
        for s in &steps {
            assert!(s.resource.is_fu());
        }
    }

    #[test]
    fn systolic_direction_respected() {
        let acc = Accelerator::systolic("s", 3, 3);
        let mrrg = Mrrg::new(&acc, 1).unwrap();
        // Leftward route is impossible at any latency (links forward-only,
        // and at II=1 every wait slot collides with itself; use latency 2).
        let back = route(&mrrg, PeId::new(1), 0, PeId::new(0), 2, any_usable);
        assert!(back.is_none());
        // Forward works.
        let fwd = route(&mrrg, PeId::new(0), 0, PeId::new(1), 1, any_usable);
        assert!(fwd.is_some());
    }

    /// Occupancy of one MRRG cell, as the router's cost callback sees it.
    #[derive(Debug, Clone, Copy)]
    enum Occupant {
        Free,
        /// The routed value already holds the cell at this absolute time.
        Same(u32),
        Foreign,
        Op,
    }

    fn price(occupant: Occupant, time: u32) -> Option<u32> {
        match occupant {
            Occupant::Free => Some(1),
            Occupant::Same(t) => (t == time).then_some(0),
            Occupant::Foreign | Occupant::Op => None,
        }
    }

    lisa_rng::props! {
        cases = 160;

        /// The offset-indexed router returns byte for byte what the
        /// reference router returns, `None` included, over random
        /// occupancy, endpoints and latencies on eight fabrics: 0, 1, 2
        /// and 4 registers per PE, reduced memory, a systolic array, and
        /// the 12×12 on the landmark distance oracle, where the reference's
        /// exact pruning also checks the oracle's lower bounds. Latencies
        /// reach twice the fabric's span, so values wait in registers and
        /// routes run past the oracle's exact radius.
        fn router_matches_the_reference_router(
            fabric in 0usize..8,
            ii in 1u32..7,
            free_weight in 2u32..12,
            seed in 0u64..u64::MAX,
        ) {
            let acc = match fabric {
                0 => Accelerator::standard("4x4").unwrap(),
                1 => Accelerator::standard("4x4-lm").unwrap(),
                2 => Accelerator::standard("8x8").unwrap(),
                3 => Accelerator::systolic("systolic", 4, 4),
                4 => Accelerator::cgra("12x12", 12, 12),
                5 => Accelerator::standard("4x4-lr").unwrap(),
                6 => Accelerator::cgra("3x3-r0", 3, 3).with_regs_per_pe(0),
                _ => Accelerator::cgra("5x5-r2", 5, 5).with_regs_per_pe(2),
            };
            assert_eq!(acc.distance_index_kind() == "oracle", fabric == 4);
            let ii = ii.min(acc.max_ii());
            let mrrg = Mrrg::new(&acc, ii).unwrap();
            let exact = reference::hop_table(&acc);
            let mut rng = Rng::seed_from_u64(seed);
            let per_slot = mrrg.resources_per_slot();
            // Latencies past twice the fabric's span and below the hop
            // distance both occur, so infeasible searches are drawn.
            let max_latency = 2 * (acc.rows() + acc.cols()) as u32 + 8;
            let max_time = 2 * ii + 2 + max_latency;
            let cells: Vec<Occupant> = (0..mrrg.resource_count())
                .map(|cell| match rng.gen_range(0..free_weight + 3) {
                    0 => {
                        // A time in this cell's slot, within the routes drawn below.
                        let slot = (cell / per_slot) as u32;
                        Occupant::Same(slot + ii * rng.gen_range(0..max_time / ii + 1))
                    }
                    1 => Occupant::Foreign,
                    2 => Occupant::Op,
                    _ => Occupant::Free,
                })
                .collect();
            let pes = acc.pe_count();
            let mut scratch = RouterScratch::default();
            for _ in 0..24 {
                let src = PeId::new(rng.gen_range(0..pes));
                let dst = PeId::new(rng.gen_range(0..pes));
                let src_time = rng.gen_range(0..2 * ii + 2);
                let latency = rng.gen_range(1..max_latency + 1);
                let got = find_route_in(
                    &mut scratch,
                    &mrrg,
                    src,
                    src_time,
                    dst,
                    src_time + latency,
                    |cell, t| price(cells[cell], t),
                );
                let want = reference::route(
                    &mrrg,
                    &exact,
                    src,
                    src_time,
                    dst,
                    src_time + latency,
                    |r, t| price(cells[mrrg.index_at(r, t)], t),
                );
                assert_eq!(got, want, "{src}@{src_time} -> {dst}@{}", src_time + latency);
            }
        }
    }
}
