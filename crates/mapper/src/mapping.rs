//! Mapping state: placements, routes, and MRRG occupancy.
//!
//! A [`Mapping`] binds one DFG to one `(accelerator, II)` pair and tracks
//! which MRRG resources are in use. All mappers (SA, label-aware SA, exact
//! branch-and-bound) mutate a `Mapping` through the same four operations —
//! [`place`](Mapping::place), [`unplace`](Mapping::unplace),
//! [`route_edge`](Mapping::route_edge), [`unroute_edge`](Mapping::unroute_edge)
//! — so resource semantics are enforced in exactly one place.
//!
//! Besides the occupancy grid, a mapping keeps a free-FU bitset: one bit
//! per PE and modulo slot, `⌈PEs/64⌉` words per slot, set while that FU
//! cell is free. Every change of an FU cell between free and occupied
//! flips its bit: a placement and an unplacement, a route step that
//! takes a free FU and the release that frees it, and the rollback of
//! each. Candidate listings read it 64 PEs per word; [`Mapping::verify`]
//! checks it against the grid.

use std::fmt;

use lisa_arch::power::Activity;
use lisa_arch::{Accelerator, ArchError, Mrrg, PeId, Resource};
use lisa_dfg::{Dfg, EdgeId, NodeId, OpKind};

use crate::router::{self, RouterScratch};
use crate::MapperError;

/// Where and when a node executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The PE whose FU executes the operation.
    pub pe: PeId,
    /// Absolute schedule time (cycles from iteration start). Resource
    /// occupancy folds this modulo II.
    pub time: u32,
}

/// One occupied step of a route: `resource` holds the value during `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStep {
    /// The occupied resource.
    pub resource: Resource,
    /// Absolute cycle during which the value sits on the resource.
    pub time: u32,
}

/// Occupancy of one `(resource, modulo slot)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Free,
    /// An operation executes here.
    Op(NodeId),
    /// Route traffic: the value produced by `value` passes at absolute
    /// `time`; `refs` edges share the step (net-based fanout reuse).
    Route {
        value: NodeId,
        time: u32,
        refs: u16,
    },
}

/// One reversible mutation, recorded while a transaction is open so
/// [`Mapping::rollback`] can undo it. Deltas are replayed in reverse
/// order, so each stores exactly the state its inverse needs.
#[derive(Debug, Clone)]
enum Delta {
    /// `place(node)` succeeded.
    Place(NodeId),
    /// `unplace(node)` removed this placement (its ripped routes are
    /// journaled separately as `Unroute` deltas by `unroute_edge`).
    Unplace(NodeId, Placement),
    /// `route_edge(edge)` succeeded.
    Route(EdgeId),
    /// `unroute_edge(edge)` released these steps.
    Unroute(EdgeId, Vec<RouteStep>),
}

/// A (possibly partial) mapping of a DFG onto an accelerator at a fixed II.
///
/// # Example
///
/// ```
/// use lisa_dfg::{Dfg, OpKind};
/// use lisa_arch::{Accelerator, PeId};
/// use lisa_mapper::Mapping;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dfg = Dfg::new("t");
/// let a = dfg.add_node(OpKind::Load, "a");
/// let b = dfg.add_node(OpKind::Store, "b");
/// let e = dfg.add_data_edge(a, b)?;
///
/// let acc = Accelerator::cgra("2x2", 2, 2);
/// let mut m = Mapping::new(&dfg, &acc, 1)?;
/// m.place(a, PeId::new(0), 0)?;
/// m.place(b, PeId::new(1), 1)?;
/// m.route_edge(e)?;
/// assert!(m.is_complete());
/// m.verify()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mapping<'a> {
    dfg: &'a Dfg,
    mrrg: Mrrg<'a>,
    window: u32,
    asap: Vec<u32>,
    alap: Vec<u32>,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Vec<RouteStep>>>,
    cells: Vec<Cell>,
    // Incremental cost counters, maintained by every mutator so
    // `mapping_cost` is O(1) instead of rescanning grids per movement.
    unplaced: usize,
    unrouted: usize,
    route_cells: usize,
    lateness: u64,
    // Open-transaction journal (empty outside transactions).
    journal: Vec<Delta>,
    txn: bool,
    scratch: RouterScratch,
    // The free-FU bitset (module docs): slot `s` holds PEs
    // `64·w .. 64·w + 63` in word `s · words + w`.
    free_fus: Vec<u64>,
    pes: PeTable,
}

/// Per-PE facts the candidate listing and pricing read, computed once per
/// mapping: which PEs can execute each node's operation, and every PE's
/// grid position.
#[derive(Clone)]
struct PeTable {
    /// Words of one slot of a PE bitset: `⌈PEs / 64⌉`.
    words: usize,
    /// The supporting-PE bitset of each distinct operation kind, `words`
    /// words each; nodes of one kind share one.
    support: Vec<u64>,
    /// Index into `support`, in words, of each node's bitset.
    support_at: Vec<u32>,
    /// `(row, column)` of each PE.
    coords: Vec<(u32, u32)>,
}

impl PeTable {
    fn new(dfg: &Dfg, acc: &Accelerator) -> Self {
        let words = acc.pe_count().div_ceil(64);
        let mut support = Vec::new();
        let mut kinds: Vec<(OpKind, u32)> = Vec::new();
        let support_at = dfg
            .node_ids()
            .map(|n| {
                let op = dfg.node(n).op;
                if let Some(&(_, at)) = kinds.iter().find(|(k, _)| *k == op) {
                    return at;
                }
                let at = support.len() as u32;
                support.resize(support.len() + words, 0);
                for pe in (0..acc.pe_count()).filter(|&p| acc.supports(PeId::new(p), op)) {
                    support[at as usize + pe / 64] |= 1 << (pe % 64);
                }
                kinds.push((op, at));
                at
            })
            .collect();
        let coords = (0..acc.pe_count())
            .map(|p| {
                let c = acc.coord(PeId::new(p));
                (c.row as u32, c.col as u32)
            })
            .collect();
        PeTable {
            words,
            support,
            support_at,
            coords,
        }
    }
}

impl fmt::Debug for PeTable {
    /// Opaque, like `RouterScratch`: the table is derived from the DFG and
    /// the accelerator, and debug builds render `Mapping` on every
    /// annealing movement.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PeTable")
    }
}

impl<'a> Mapping<'a> {
    /// Extra schedule slack beyond the critical path, in multiples of II.
    /// Placement times live in `[0, critical_path + SLACK_IIS * II)`.
    pub const SLACK_IIS: u32 = 2;

    /// Creates an empty mapping for `dfg` on `acc` at initiation interval
    /// `ii`.
    ///
    /// # Errors
    ///
    /// Fails if the II is zero or exceeds the accelerator's configuration
    /// depth.
    pub fn new(dfg: &'a Dfg, acc: &'a Accelerator, ii: u32) -> Result<Self, ArchError> {
        let mrrg = Mrrg::new(acc, ii)?;
        let cells = vec![Cell::Free; mrrg.resource_count()];
        let asap = lisa_dfg::analysis::asap(dfg);
        let alap = lisa_dfg::analysis::alap(dfg);
        let window = asap.iter().copied().max().map_or(1, |m| m + 1) + Self::SLACK_IIS * ii;
        let pes = PeTable::new(dfg, acc);
        // Every FU starts free; the bits past the last PE stay clear.
        let mut slot_words = vec![u64::MAX; pes.words];
        if let Some(last) = slot_words.last_mut() {
            *last >>= 64 * pes.words - acc.pe_count();
        }
        let free_fus = slot_words.repeat(ii as usize);
        Ok(Mapping {
            dfg,
            mrrg,
            window,
            asap,
            alap,
            placements: vec![None; dfg.node_count()],
            routes: vec![None; dfg.edge_count()],
            cells,
            unplaced: dfg.node_count(),
            unrouted: dfg.edge_count(),
            route_cells: 0,
            lateness: 0,
            journal: Vec::new(),
            txn: false,
            scratch: RouterScratch::default(),
            free_fus,
            pes,
        })
    }

    /// The DFG being mapped.
    pub fn dfg(&self) -> &'a Dfg {
        self.dfg
    }

    /// The accelerator being mapped onto.
    pub fn accelerator(&self) -> &Accelerator {
        self.mrrg.accelerator()
    }

    /// The MRRG underlying this mapping.
    pub fn mrrg(&self) -> &Mrrg<'a> {
        &self.mrrg
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.mrrg.ii()
    }

    /// Exclusive upper bound on schedule times.
    pub fn schedule_window(&self) -> u32 {
        self.window
    }

    /// ASAP level of a node (cached at construction): no schedule can
    /// execute a node earlier than its data depth, so placement candidates
    /// start here regardless of which neighbours are currently placed.
    pub fn asap_level(&self, node: NodeId) -> u32 {
        self.asap[node.index()]
    }

    /// ALAP level of a node (cached at construction). Slack is
    /// `alap_level - asap_level`; policies use it to prioritise
    /// critical-path nodes without recomputing the analysis per movement.
    pub fn alap_level(&self, node: NodeId) -> u32 {
        self.alap[node.index()]
    }

    /// The PEs that can execute `node`'s operation, as a PE bitset: bit
    /// `p % 64` of word `p / 64` is set for PE `p` (a table built with the
    /// mapping).
    pub(crate) fn support_words(&self, node: NodeId) -> &[u64] {
        let at = self.pes.support_at[node.index()] as usize;
        &self.pes.support[at..at + self.pes.words]
    }

    /// Word `word` of modulo slot `slot`'s free-FU bitset, laid out like
    /// [`support_words`](Self::support_words).
    pub(crate) fn free_fu_word(&self, slot: u32, word: usize) -> u64 {
        self.free_fus[slot as usize * self.pes.words + word]
    }

    /// `(row, column)` of every PE, by PE index (a table built with the
    /// mapping, so pricing a candidate divides nothing).
    pub(crate) fn pe_coords(&self) -> &[(u32, u32)] {
        &self.pes.coords
    }

    /// Flips the free bit of `pe`'s FU in `time`'s modulo slot: every
    /// change of an FU cell between free and occupied calls this.
    fn flip_fu(&mut self, pe: PeId, time: u32) {
        let p = pe.index();
        self.free_fus[self.mrrg.slot(time) as usize * self.pes.words + p / 64] ^= 1 << (p % 64);
    }

    /// Number of nodes without a placement (O(1) running counter).
    pub fn unplaced_count(&self) -> usize {
        self.unplaced
    }

    /// Number of edges without a route (O(1) running counter).
    pub fn unrouted_count(&self) -> usize {
        self.unrouted
    }

    /// Sum of placement times over all placed nodes (O(1) running
    /// counter) — the schedule-compactness term of the SA cost.
    pub fn lateness(&self) -> u64 {
        self.lateness
    }

    /// Opens a transaction: subsequent mutations are journaled until
    /// [`commit`](Self::commit) or [`rollback`](Self::rollback).
    /// Transactions do not nest.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_txn(&mut self) {
        assert!(!self.txn, "transactions do not nest");
        debug_assert!(self.journal.is_empty());
        self.txn = true;
    }

    /// Closes the open transaction, keeping all journaled mutations.
    pub fn commit(&mut self) {
        debug_assert!(self.txn, "commit without begin_txn");
        self.journal.clear();
        self.txn = false;
    }

    /// Closes the open transaction, undoing every journaled mutation in
    /// reverse order. Afterwards the mapping is byte-identical to its
    /// state at [`begin_txn`](Self::begin_txn) (the annealer
    /// debug-asserts this against a snapshot clone).
    pub fn rollback(&mut self) {
        debug_assert!(self.txn, "rollback without begin_txn");
        self.txn = false;
        while let Some(delta) = self.journal.pop() {
            match delta {
                Delta::Place(node) => {
                    let p = self.placements[node.index()]
                        .take()
                        .expect("journaled place left a placement");
                    let idx = self.mrrg.fu_index_at(p.pe, p.time);
                    debug_assert_eq!(self.cells[idx], Cell::Op(node));
                    self.cells[idx] = Cell::Free;
                    self.flip_fu(p.pe, p.time);
                    self.unplaced += 1;
                    self.lateness -= u64::from(p.time);
                }
                Delta::Unplace(node, p) => {
                    let idx = self.mrrg.fu_index_at(p.pe, p.time);
                    debug_assert_eq!(self.cells[idx], Cell::Free);
                    self.cells[idx] = Cell::Op(node);
                    self.flip_fu(p.pe, p.time);
                    self.placements[node.index()] = Some(p);
                    self.unplaced -= 1;
                    self.lateness += u64::from(p.time);
                }
                Delta::Route(edge) => {
                    let released = self.release_route(edge);
                    debug_assert!(released.is_some(), "journaled route already released");
                }
                Delta::Unroute(edge, steps) => {
                    let value = self.dfg.edge(edge).src;
                    for s in &steps {
                        let idx = self.mrrg.index_at(s.resource, s.time);
                        match &mut self.cells[idx] {
                            c @ Cell::Free => {
                                *c = Cell::Route {
                                    value,
                                    time: s.time,
                                    refs: 1,
                                };
                                self.route_cells += 1;
                                if let Resource::Fu(pe) = s.resource {
                                    self.flip_fu(pe, s.time);
                                }
                            }
                            Cell::Route {
                                value: v,
                                time: t,
                                refs,
                            } => {
                                debug_assert!(*v == value && *t == s.time);
                                *refs += 1;
                            }
                            Cell::Op(_) => unreachable!("route cell reverted to op"),
                        }
                    }
                    debug_assert!(self.routes[edge.index()].is_none());
                    self.routes[edge.index()] = Some(steps);
                    self.unrouted -= 1;
                }
            }
        }
    }

    /// Current placement of a node, if any.
    pub fn placement(&self, node: NodeId) -> Option<Placement> {
        self.placements[node.index()]
    }

    /// Current route of an edge, if routed.
    pub fn route(&self, edge: EdgeId) -> Option<&[RouteStep]> {
        self.routes[edge.index()].as_deref()
    }

    /// Whether the FU of `pe` is free at `time` (modulo II).
    pub fn fu_free(&self, pe: PeId, time: u32) -> bool {
        self.cells[self.mrrg.fu_index_at(pe, time)] == Cell::Free
    }

    /// Places `node` on `pe` at absolute `time`.
    ///
    /// # Errors
    ///
    /// Fails if the node is already placed, the time is outside the
    /// schedule window, the PE cannot execute the operation, or the FU slot
    /// is occupied. No partial state is left on failure.
    pub fn place(&mut self, node: NodeId, pe: PeId, time: u32) -> Result<(), MapperError> {
        if self.placements[node.index()].is_some() {
            return Err(MapperError::AlreadyPlaced(node));
        }
        if time >= self.window {
            return Err(MapperError::TimeOutOfWindow {
                time,
                window: self.window,
            });
        }
        if !self.mrrg.placeable(pe, self.dfg.node(node).op) {
            return Err(MapperError::Unsupported { node, pe });
        }
        let idx = self.mrrg.fu_index_at(pe, time);
        if self.cells[idx] != Cell::Free {
            return Err(MapperError::SlotOccupied { node, pe, time });
        }
        self.cells[idx] = Cell::Op(node);
        self.flip_fu(pe, time);
        self.placements[node.index()] = Some(Placement { pe, time });
        self.unplaced -= 1;
        self.lateness += u64::from(time);
        if self.txn {
            self.journal.push(Delta::Place(node));
        }
        Ok(())
    }

    /// Removes a node's placement and rips up every route incident to it.
    /// A no-op if the node is not placed.
    pub fn unplace(&mut self, node: NodeId) {
        let Some(p) = self.placements[node.index()].take() else {
            return;
        };
        // `dfg` is a copy of the `&'a Dfg` reference, so the edge slices
        // outlive the `&mut self` calls below — no collect needed.
        let dfg = self.dfg;
        for &e in dfg.in_edges(node) {
            self.unroute_edge(e);
        }
        for &e in dfg.out_edges(node) {
            self.unroute_edge(e);
        }
        let idx = self.mrrg.fu_index_at(p.pe, p.time);
        debug_assert_eq!(self.cells[idx], Cell::Op(node));
        self.cells[idx] = Cell::Free;
        self.flip_fu(p.pe, p.time);
        self.unplaced += 1;
        self.lateness -= u64::from(p.time);
        if self.txn {
            self.journal.push(Delta::Unplace(node, p));
        }
    }

    /// Effective consumer time of an edge: the consumer's schedule time
    /// plus `distance * II` for recurrence edges (the value crosses
    /// `distance` iterations).
    pub fn effective_dst_time(&self, edge: EdgeId) -> Option<u32> {
        let e = self.dfg.edge(edge);
        let dst = self.placements[e.dst.index()]?;
        Some(dst.time + e.kind.distance() * self.ii())
    }

    /// Routes an edge between its placed endpoints with a minimum-cost
    /// conflict-free path (Dijkstra over the time-expanded MRRG). Returns
    /// the number of *newly occupied* resource cells.
    ///
    /// # Errors
    ///
    /// Fails if an endpoint is unplaced, the edge is already routed,
    /// timing is non-causal, or no path exists.
    pub fn route_edge(&mut self, edge: EdgeId) -> Result<usize, MapperError> {
        if self.routes[edge.index()].is_some() {
            return Err(MapperError::AlreadyRouted(edge));
        }
        let e = self.dfg.edge(edge);
        let src = self.placements[e.src.index()].ok_or(MapperError::NotPlaced(e.src))?;
        let _dst = self.placements[e.dst.index()].ok_or(MapperError::NotPlaced(e.dst))?;
        let dst_time = self
            .effective_dst_time(edge)
            .expect("dst placement checked above");
        let dst_pe = self.placements[e.dst.index()].expect("checked").pe;
        if dst_time <= src.time {
            return Err(MapperError::BadTiming {
                edge,
                src_time: src.time,
                dst_time,
            });
        }
        // Split the field borrows so the router mutates the scratch while
        // the cost closure reads the occupancy grid — no per-call
        // `mem::take` of the scratch. A step costs 1 on a free cell, 0 on
        // a cell this value already holds at the same absolute time
        // (fanout reuse), and is refused otherwise.
        let (scratch, cells) = (&mut self.scratch, &self.cells);
        let value = e.src;
        let found = router::find_route_in(
            scratch,
            &self.mrrg,
            src.pe,
            src.time,
            dst_pe,
            dst_time,
            |cell, time| match cells[cell] {
                Cell::Free => Some(1),
                Cell::Op(_) => None,
                Cell::Route {
                    value: v, time: t, ..
                } => (v == value && t == time).then_some(0),
            },
        );
        let steps = found.ok_or(MapperError::NoRoute(edge))?;
        // Commit: the router guarantees per-cell consistency, but a path
        // may wrap onto itself modulo II; verify before mutating. Paths
        // are at most a few steps, so a pairwise scan beats allocating a
        // hash table on every routed edge.
        for (i, a) in steps.iter().enumerate() {
            let a_idx = self.mrrg.index_at(a.resource, a.time);
            for b in &steps[i + 1..] {
                if self.mrrg.index_at(b.resource, b.time) == a_idx && b.time != a.time {
                    return Err(MapperError::NoRoute(edge));
                }
            }
        }
        let mut new_cells = 0;
        for s in &steps {
            let idx = self.mrrg.index_at(s.resource, s.time);
            match &mut self.cells[idx] {
                c @ Cell::Free => {
                    *c = Cell::Route {
                        value: e.src,
                        time: s.time,
                        refs: 1,
                    };
                    new_cells += 1;
                    if let Resource::Fu(pe) = s.resource {
                        self.flip_fu(pe, s.time);
                    }
                }
                Cell::Route { value, time, refs } => {
                    debug_assert!(*value == e.src && *time == s.time);
                    *refs += 1;
                }
                Cell::Op(_) => unreachable!("router never proposes occupied op cells"),
            }
        }
        self.routes[edge.index()] = Some(steps);
        self.unrouted -= 1;
        self.route_cells += new_cells;
        if self.txn {
            self.journal.push(Delta::Route(edge));
        }
        Ok(new_cells)
    }

    /// Releases an edge's route. A no-op if the edge is unrouted.
    pub fn unroute_edge(&mut self, edge: EdgeId) {
        let Some(steps) = self.release_route(edge) else {
            return;
        };
        if self.txn {
            self.journal.push(Delta::Unroute(edge, steps));
        }
    }

    /// Frees an edge's route cells and maintains the counters, without
    /// journaling — shared by [`unroute_edge`](Self::unroute_edge) and
    /// rollback's undo of `Route` deltas. Returns the released steps.
    fn release_route(&mut self, edge: EdgeId) -> Option<Vec<RouteStep>> {
        let steps = self.routes[edge.index()].take()?;
        for s in &steps {
            let idx = self.mrrg.index_at(s.resource, s.time);
            match &mut self.cells[idx] {
                Cell::Route { refs, .. } => {
                    *refs -= 1;
                    if *refs == 0 {
                        self.cells[idx] = Cell::Free;
                        self.route_cells -= 1;
                        if let Resource::Fu(pe) = s.resource {
                            self.flip_fu(pe, s.time);
                        }
                    }
                }
                other => unreachable!("route step cell in state {other:?}"),
            }
        }
        self.unrouted += 1;
        Some(steps)
    }

    /// Nodes without a placement.
    pub fn unplaced_nodes(&self) -> Vec<NodeId> {
        self.dfg
            .node_ids()
            .filter(|n| self.placements[n.index()].is_none())
            .collect()
    }

    /// Edges without a route.
    pub fn unrouted_edges(&self) -> Vec<EdgeId> {
        self.dfg
            .edge_ids()
            .filter(|e| self.routes[e.index()].is_none())
            .collect()
    }

    /// Allocation-free variant of [`unplaced_nodes`](Self::unplaced_nodes):
    /// clears `out` and refills it in the same (id) order. The annealer
    /// calls this every movement, so hot paths reuse one buffer.
    pub fn unplaced_nodes_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.dfg
                .node_ids()
                .filter(|n| self.placements[n.index()].is_none()),
        );
    }

    /// Allocation-free variant of [`unrouted_edges`](Self::unrouted_edges).
    pub fn unrouted_edges_into(&self, out: &mut Vec<EdgeId>) {
        out.clear();
        out.extend(
            self.dfg
                .edge_ids()
                .filter(|e| self.routes[e.index()].is_none()),
        );
    }

    /// Whether every node is placed and every edge routed.
    pub fn is_complete(&self) -> bool {
        self.unplaced == 0 && self.unrouted == 0
    }

    /// Total resource cells occupied by routing — the paper's "routing
    /// cost" used to rank label candidates (§V-B). O(1) running counter;
    /// [`verify`](Self::verify) cross-checks it against a full scan.
    pub fn routing_cells(&self) -> usize {
        self.route_cells
    }

    /// Routing-cell count recomputed by scanning the occupancy grid: the
    /// independent reference `verify` checks the running counter
    /// against.
    pub fn routing_cells_scan(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Route { .. }))
            .count()
    }

    /// Activity counters for the power model (Fig. 10). Route cells are
    /// classified by scanning routes (each unique cell counted once, so
    /// fanout sharing is not double-billed).
    pub fn activity(&self) -> Activity {
        let mut a = Activity::default();
        a.compute_slots = self
            .cells
            .iter()
            .filter(|c| matches!(c, Cell::Op(_)))
            .count();
        // Ordered set (DET001): membership-only here, but the cold
        // reporting paths carry no reason to depend on hash seeding.
        let mut seen = std::collections::BTreeSet::new();
        for route in self.routes.iter().flatten() {
            for s in route {
                let idx = self.mrrg.index_at(s.resource, s.time);
                if seen.insert(idx) {
                    match s.resource {
                        Resource::Fu(_) => a.route_slots += 1,
                        Resource::Reg(_, _) => a.reg_slots += 1,
                    }
                }
            }
        }
        a
    }

    /// The latest schedule time in use (placements only), or 0 if empty.
    pub fn makespan(&self) -> u32 {
        self.placements
            .iter()
            .flatten()
            .map(|p| p.time)
            .max()
            .unwrap_or(0)
    }

    /// Re-checks every mapping invariant from scratch. Intended for tests
    /// and debug assertions; mappers maintain these incrementally.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        // Incremental counters must agree with a from-scratch recount.
        let scanned_unplaced = self.placements.iter().filter(|p| p.is_none()).count();
        if self.unplaced != scanned_unplaced {
            return Err(format!(
                "unplaced counter {} != scan {scanned_unplaced}",
                self.unplaced
            ));
        }
        let scanned_unrouted = self.routes.iter().filter(|r| r.is_none()).count();
        if self.unrouted != scanned_unrouted {
            return Err(format!(
                "unrouted counter {} != scan {scanned_unrouted}",
                self.unrouted
            ));
        }
        let scanned_cells = self.routing_cells_scan();
        if self.route_cells != scanned_cells {
            return Err(format!(
                "route-cell counter {} != scan {scanned_cells}",
                self.route_cells
            ));
        }
        let scanned_lateness: u64 = self
            .placements
            .iter()
            .flatten()
            .map(|p| u64::from(p.time))
            .sum();
        if self.lateness != scanned_lateness {
            return Err(format!(
                "lateness counter {} != scan {scanned_lateness}",
                self.lateness
            ));
        }
        if self.txn || !self.journal.is_empty() {
            return Err("verify called with an open transaction".to_string());
        }
        // The free-FU bitset mirrors the FU cells, and no bit past the
        // last PE is set.
        let (pes, words) = (self.accelerator().pe_count(), self.pes.words);
        for slot in 0..self.ii() {
            for w in 0..words {
                let scanned = (w * 64..pes.min(w * 64 + 64))
                    .filter(|&p| self.fu_free(PeId::new(p), slot))
                    .fold(0u64, |bits, p| bits | 1 << (p % 64));
                let kept = self.free_fu_word(slot, w);
                if kept != scanned {
                    return Err(format!(
                        "free-FU word {w} of slot {slot} is {kept:#x}, cells say {scanned:#x}"
                    ));
                }
            }
        }
        // Placement capability + uniqueness. Ordered map (DET001): only
        // keyed lookups run here, but `verify` reports the *first*
        // violation and must do so identically across processes.
        let mut fu_owner = std::collections::BTreeMap::new();
        for n in self.dfg.node_ids() {
            let Some(p) = self.placements[n.index()] else {
                continue;
            };
            if !self.mrrg.placeable(p.pe, self.dfg.node(n).op) {
                return Err(format!("node {} placed on unsupported {}", n.index(), p.pe));
            }
            if p.time >= self.window {
                return Err(format!("node {} outside window", n.index()));
            }
            let slot = self.mrrg.slot(p.time);
            if let Some(prev) = fu_owner.insert((p.pe, slot), n) {
                return Err(format!(
                    "FU conflict on {} slot {}: nodes {} and {}",
                    p.pe,
                    slot,
                    prev.index(),
                    n.index()
                ));
            }
        }
        // Route structure.
        for eid in self.dfg.edge_ids() {
            let Some(steps) = &self.routes[eid.index()] else {
                continue;
            };
            let e = self.dfg.edge(eid);
            let src = self.placements[e.src.index()]
                .ok_or_else(|| format!("edge {} routed with unplaced src", eid.index()))?;
            let dst = self.placements[e.dst.index()]
                .ok_or_else(|| format!("edge {} routed with unplaced dst", eid.index()))?;
            let dst_time = dst.time + e.kind.distance() * self.ii();
            if dst_time <= src.time {
                return Err(format!("edge {} non-causal", eid.index()));
            }
            let hops = dst_time - src.time;
            if steps.len() as u32 != hops - 1 {
                return Err(format!(
                    "edge {} has {} steps, expected {}",
                    eid.index(),
                    steps.len(),
                    hops - 1
                ));
            }
            // Adjacency chain: producer FU -> steps -> consumer FU.
            let mut prev = Resource::Fu(src.pe);
            let mut t = src.time;
            for s in steps {
                t += 1;
                if s.time != t {
                    return Err(format!(
                        "edge {} step at time {} != {t}",
                        eid.index(),
                        s.time
                    ));
                }
                if !self.mrrg.moves_from(prev).contains(&s.resource) {
                    return Err(format!("edge {} illegal move", eid.index()));
                }
                prev = s.resource;
            }
            if !self.mrrg.can_consume(prev, dst.pe) {
                return Err(format!("edge {} cannot reach consumer", eid.index()));
            }
            // Route cells occupied correctly & FU steps not op-occupied.
            for s in steps {
                match self.cells[self.mrrg.index_at(s.resource, s.time)] {
                    Cell::Route { value, time, .. } if value == e.src && time == s.time => {}
                    other => {
                        return Err(format!(
                            "edge {} step cell in bad state {other:?}",
                            eid.index()
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::OpKind;

    fn chain3() -> Dfg {
        let mut g = Dfg::new("chain");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Store, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g
    }

    #[test]
    fn place_route_complete() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 3).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        m.place(NodeId::new(2), PeId::new(3), 2).unwrap();
        assert_eq!(m.route_edge(EdgeId::new(0)).unwrap(), 0); // adjacent, direct
        assert_eq!(m.route_edge(EdgeId::new(1)).unwrap(), 0);
        assert!(m.is_complete());
        m.verify().unwrap();
        assert_eq!(m.routing_cells(), 0);
    }

    #[test]
    fn distant_route_uses_cells() {
        let dfg = chain3();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        // a at (0,0) t0, b at (2,2) t4: Manhattan distance 4, so 3
        // intermediate hops.
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(8), 4).unwrap();
        m.place(NodeId::new(2), PeId::new(8 - 1), 5).unwrap();
        let new_cells = m.route_edge(EdgeId::new(0)).unwrap();
        assert_eq!(new_cells, 3);
        m.route_edge(EdgeId::new(1)).unwrap();
        m.verify().unwrap();
        assert_eq!(m.routing_cells(), 3);
    }

    #[test]
    fn slot_conflict_rejected() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        // Same PE, time 2 ≡ 0 (mod 2): conflict.
        let err = m.place(NodeId::new(1), PeId::new(0), 2).unwrap_err();
        assert!(matches!(err, MapperError::SlotOccupied { .. }));
        // Different slot is fine.
        m.place(NodeId::new(1), PeId::new(0), 1).unwrap();
    }

    #[test]
    fn non_causal_route_rejected() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 1).unwrap();
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        let err = m.route_edge(EdgeId::new(0)).unwrap_err();
        assert!(matches!(err, MapperError::BadTiming { .. }));
    }

    #[test]
    fn unplace_rips_routes() {
        let dfg = chain3();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(8), 4).unwrap();
        m.place(NodeId::new(2), PeId::new(7), 5).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        m.route_edge(EdgeId::new(1)).unwrap();
        m.unplace(NodeId::new(1));
        assert!(m.route(EdgeId::new(0)).is_none());
        assert!(m.route(EdgeId::new(1)).is_none());
        assert_eq!(m.routing_cells(), 0);
        assert_eq!(m.unplaced_nodes(), vec![NodeId::new(1)]);
        m.verify().unwrap();
    }

    #[test]
    fn fanout_shares_cells() {
        // a feeds b and c, both two hops away along a shared prefix.
        let mut g = Dfg::new("fan");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let e1 = g.add_data_edge(a, b).unwrap();
        let e2 = g.add_data_edge(a, c).unwrap();
        let acc = Accelerator::cgra("1x4", 1, 4);
        let mut m = Mapping::new(&g, &acc, 4).unwrap();
        m.place(a, PeId::new(0), 0).unwrap();
        m.place(b, PeId::new(2), 2).unwrap();
        m.place(c, PeId::new(3), 4).unwrap();
        let n1 = m.route_edge(e1).unwrap();
        assert_eq!(n1, 1); // through FU(1) at t1
                           // Second consumer is further out; b occupies FU(2)@2, so the route
                           // detours (e.g. hold in a register) and shares the FU(1)@1 prefix.
        let n2 = m.route_edge(e2).unwrap();
        assert!(n2 >= 1);
        m.verify().unwrap();
        // Unrouting e1 must keep e2's shared cells alive.
        m.unroute_edge(e1);
        m.verify().unwrap();
    }

    #[test]
    fn recurrence_self_loop_routes_through_registers() {
        let mut g = Dfg::new("acc");
        let x = g.add_node(OpKind::Add, "x");
        let e = g.add_recurrence_edge(x, x, 1).unwrap();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&g, &acc, 2).unwrap();
        m.place(x, PeId::new(0), 0).unwrap();
        // Effective dst time = 0 + 1*2 = 2: one intermediate step at t=1.
        let cells = m.route_edge(e).unwrap();
        assert_eq!(cells, 1);
        m.verify().unwrap();
        let route = m.route(e).unwrap();
        assert_eq!(route.len(), 1);
    }

    #[test]
    fn self_loop_at_ii1_cannot_route_without_slack() {
        // II = 1: value must return to the same FU after 1 cycle; the
        // single register hold path is Fu -> consume next cycle: distance
        // 1*1 = 1 means zero intermediate steps and self-consumption is
        // allowed (p == dest). So this *routes*.
        let mut g = Dfg::new("acc");
        let x = g.add_node(OpKind::Add, "x");
        let e = g.add_recurrence_edge(x, x, 1).unwrap();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&g, &acc, 1).unwrap();
        m.place(x, PeId::new(0), 0).unwrap();
        assert_eq!(m.route_edge(e).unwrap(), 0);
        m.verify().unwrap();
    }

    #[test]
    fn memory_constraint_enforced() {
        let dfg = chain3();
        let acc =
            Accelerator::cgra("2x2", 2, 2).with_memory(lisa_arch::MemoryConnectivity::LeftColumn);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        // Node 0 is a load; PE 1 is column 1.
        let err = m.place(NodeId::new(0), PeId::new(1), 0).unwrap_err();
        assert!(matches!(err, MapperError::Unsupported { .. }));
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
    }

    #[test]
    fn activity_counts() {
        let dfg = chain3();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(8), 4).unwrap();
        m.place(NodeId::new(2), PeId::new(7), 5).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        m.route_edge(EdgeId::new(1)).unwrap();
        let a = m.activity();
        assert_eq!(a.compute_slots, 3);
        assert_eq!(a.route_slots + a.reg_slots, m.routing_cells());
    }

    #[test]
    fn window_bound_enforced() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        let w = m.schedule_window();
        let err = m.place(NodeId::new(0), PeId::new(0), w).unwrap_err();
        assert!(matches!(err, MapperError::TimeOutOfWindow { .. }));
    }

    #[test]
    fn txn_rollback_restores_byte_identical_state() {
        let dfg = chain3();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(8), 4).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        let before = format!("{m:?}");

        m.begin_txn();
        // Unplace rips the route, then remap elsewhere and reroute.
        m.unplace(NodeId::new(1));
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        m.place(NodeId::new(2), PeId::new(2), 2).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        m.route_edge(EdgeId::new(1)).unwrap();
        m.rollback();

        assert_eq!(format!("{m:?}"), before);
        m.verify().unwrap();
    }

    #[test]
    fn txn_commit_keeps_mutations() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 3).unwrap();
        m.begin_txn();
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(1), 1).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        m.commit();
        assert!(m.placement(NodeId::new(0)).is_some());
        assert!(m.route(EdgeId::new(0)).is_some());
        m.verify().unwrap();
    }

    #[test]
    fn counters_match_scans_through_mutations() {
        let dfg = chain3();
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mut m = Mapping::new(&dfg, &acc, 4).unwrap();
        assert_eq!(m.unplaced_count(), 3);
        assert_eq!(m.unrouted_count(), 2);
        m.place(NodeId::new(0), PeId::new(0), 0).unwrap();
        m.place(NodeId::new(1), PeId::new(8), 4).unwrap();
        m.place(NodeId::new(2), PeId::new(7), 5).unwrap();
        m.route_edge(EdgeId::new(0)).unwrap();
        m.route_edge(EdgeId::new(1)).unwrap();
        assert_eq!(m.unplaced_count(), 0);
        assert_eq!(m.unrouted_count(), 0);
        assert_eq!(m.routing_cells(), m.routing_cells_scan());
        assert_eq!(m.lateness(), 9);
        m.verify().unwrap();
        m.unplace(NodeId::new(1));
        assert_eq!(m.unplaced_count(), 1);
        assert_eq!(m.unrouted_count(), 2);
        assert_eq!(m.routing_cells(), 0);
        assert_eq!(m.lateness(), 5);
        m.verify().unwrap();
    }

    #[test]
    fn verify_catches_a_stale_free_fu_bit() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.place(NodeId::new(0), PeId::new(3), 1).unwrap();
        m.verify().unwrap();
        m.flip_fu(PeId::new(3), 1);
        let err = m.verify().unwrap_err();
        assert!(err.contains("free-FU word 0 of slot 1"), "{err}");
    }

    #[test]
    #[should_panic(expected = "transactions do not nest")]
    fn nested_txn_panics() {
        let dfg = chain3();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut m = Mapping::new(&dfg, &acc, 2).unwrap();
        m.begin_txn();
        m.begin_txn();
    }
}
