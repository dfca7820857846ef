//! Exact branch-and-bound mapper — the ILP baseline substitute.
//!
//! The paper compares against CGRA-ME's Integer Linear Programming mapper,
//! which solves placement + routing exactly for one target II and either
//! proves feasibility or exhausts a (generous) time budget. No ILP solver
//! is available offline, so we substitute an exhaustive depth-first search
//! over the identical constraint set (see DESIGN.md "Substitutions"):
//!
//! * it is **exact**: if a feasible mapping at the target II exists and the
//!   budget suffices, it is found, so with the ascending II driver the
//!   achieved II is optimal, like ILP;
//! * it **scales like ILP**: small DFG/architecture combinations solve
//!   quickly, larger ones blow past any realistic budget — reproducing the
//!   Fig. 9/11 behaviour where ILP cannot map most combinations.

use std::time::{Duration, Instant};

use lisa_arch::Accelerator;
use lisa_dfg::{Dfg, NodeId};

use crate::sa::{candidate_slots, place_and_route};
use crate::schedule::IiMapper;
use crate::Mapping;

/// Search-budget parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactParams {
    /// Wall-clock budget per target II (the paper gave ILP two hours per
    /// target II; experiments here default to seconds-scale).
    pub time_limit: Duration,
    /// Hard cap on explored placements, a deterministic secondary budget.
    pub max_states: u64,
}

impl Default for ExactParams {
    fn default() -> Self {
        ExactParams {
            time_limit: Duration::from_secs(5),
            max_states: 2_000_000,
        }
    }
}

impl ExactParams {
    /// Reduced budget for unit tests.
    pub fn fast() -> Self {
        ExactParams {
            time_limit: Duration::from_millis(500),
            max_states: 50_000,
        }
    }
}

/// The exhaustive mapper. Deterministic: no randomness at all.
///
/// # Example
///
/// ```
/// use lisa_dfg::{Dfg, OpKind};
/// use lisa_arch::Accelerator;
/// use lisa_mapper::{exact::{ExactMapper, ExactParams}, schedule::IiMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_node(OpKind::Load, "a");
/// let b = dfg.add_node(OpKind::Store, "b");
/// dfg.add_data_edge(a, b)?;
/// let acc = Accelerator::cgra("2x2", 2, 2);
/// let mut ilp = ExactMapper::new(ExactParams::fast());
/// assert!(ilp.map_at_ii(&dfg, &acc, 1).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactMapper {
    params: ExactParams,
}

impl ExactMapper {
    /// Creates a mapper with the given budget.
    pub fn new(params: ExactParams) -> Self {
        ExactMapper { params }
    }

    /// The search budget.
    pub fn params(&self) -> &ExactParams {
        &self.params
    }
}

struct Search<'m, 'a> {
    mapping: &'m mut Mapping<'a>,
    order: Vec<NodeId>,
    deadline: Instant,
    states_left: u64,
    timed_out: bool,
}

impl Search<'_, '_> {
    /// Depth-first search over placements in topological order. Routes
    /// every edge as soon as both endpoints are placed, so infeasible
    /// branches are cut at the earliest possible depth.
    fn dfs(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return self.mapping.is_complete();
        }
        if self.states_left == 0 || Instant::now() >= self.deadline {
            self.timed_out = true;
            return false;
        }
        let node = self.order[depth];
        let mut candidates = candidate_slots(self.mapping, node);
        // Deterministic order: earliest time first, then PE id — mirrors
        // ILP's preference for tight schedules.
        candidates.sort_by_key(|&(pe, t)| (t, pe.index()));
        for (pe, t) in candidates {
            self.states_left = self.states_left.saturating_sub(1);
            if !place_and_route(self.mapping, node, pe, t, &mut 0) {
                continue;
            }
            if self.dfs(depth + 1) {
                return true;
            }
            self.mapping.unplace(node);
            if self.timed_out {
                return false;
            }
        }
        false
    }
}

impl IiMapper for ExactMapper {
    fn name(&self) -> &str {
        "ILP"
    }

    fn map_at_ii<'a>(
        &mut self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
    ) -> Option<Mapping<'a>> {
        let mut mapping = Mapping::new(dfg, acc, ii).ok()?;
        let order = dfg
            .topological_order()
            .expect("validated DFGs are acyclic over data edges");
        let mut search = Search {
            mapping: &mut mapping,
            order,
            deadline: Instant::now() + self.params.time_limit,
            states_left: self.params.max_states,
            timed_out: false,
        };
        search.dfs(0).then_some(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{mii, IiSearch};
    use lisa_dfg::OpKind;

    fn diamond() -> Dfg {
        let mut g = Dfg::new("diamond");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(c, d).unwrap();
        g
    }

    #[test]
    fn exact_maps_diamond_at_mii() {
        let dfg = diamond();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut ilp = ExactMapper::new(ExactParams::fast());
        let target = mii(&dfg, &acc);
        let m = ilp.map_at_ii(&dfg, &acc, target).expect("diamond maps");
        assert!(m.is_complete());
        m.verify().unwrap();
    }

    #[test]
    fn exact_finds_optimal_ii_via_search() {
        // 5 single-op nodes on a 1x2 CGRA: ResMII = 3.
        let mut g = Dfg::new("five");
        let n0 = g.add_node(OpKind::Load, "n0");
        for i in 1..5 {
            let n = g.add_node(OpKind::Add, format!("n{i}"));
            g.add_data_edge(n0, n).ok();
        }
        let acc = Accelerator::cgra("1x2", 1, 2);
        let ilp = ExactMapper::new(ExactParams::fast());
        let outcome = IiSearch::default().run(&ilp, &g, &acc, 1).0;
        assert_eq!(outcome.ii, Some(3));
    }

    #[test]
    fn exact_respects_infeasibility() {
        // Two ops, 1 PE, II 1: impossible.
        let mut g = Dfg::new("two");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_data_edge(a, b).unwrap();
        let acc = Accelerator::cgra("1x1", 1, 1);
        let mut ilp = ExactMapper::new(ExactParams::fast());
        assert!(ilp.map_at_ii(&g, &acc, 1).is_none());
    }

    #[test]
    fn exact_is_deterministic() {
        let dfg = diamond();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let m1 = ExactMapper::new(ExactParams::fast()).map_at_ii(&dfg, &acc, 2);
        let m2 = ExactMapper::new(ExactParams::fast()).map_at_ii(&dfg, &acc, 2);
        let (a, b) = (m1.unwrap(), m2.unwrap());
        for n in dfg.node_ids() {
            assert_eq!(a.placement(n), b.placement(n));
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // A graph big enough that 1 state cannot solve it.
        let dfg = lisa_dfg::polybench::kernel("syr2k").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mut ilp = ExactMapper::new(ExactParams {
            time_limit: Duration::from_millis(1),
            max_states: 10,
        });
        assert!(ilp.map_at_ii(&dfg, &acc, 2).is_none());
    }

    #[test]
    fn exact_handles_recurrence_self_loop() {
        let mut g = Dfg::new("acc");
        let l = g.add_node(OpKind::Load, "l");
        let x = g.add_node(OpKind::Add, "x");
        let s = g.add_node(OpKind::Store, "s");
        g.add_data_edge(l, x).unwrap();
        g.add_data_edge(x, s).unwrap();
        g.add_recurrence_edge(x, x, 1).unwrap();
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mut ilp = ExactMapper::new(ExactParams::fast());
        let m = ilp.map_at_ii(&g, &acc, 1).expect("self-accumulation maps");
        m.verify().unwrap();
    }
}
