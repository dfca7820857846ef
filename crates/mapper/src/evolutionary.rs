//! Evolutionary lane: a deterministic population mapper.
//!
//! "Evolutionary Mapping of Neural Networks to Spatial Accelerators"
//! (PAPERS.md) shows population-based search covering regimes where a
//! single annealing chain stalls: a population holds several distinct
//! placement basins at once, and crossover moves whole placement
//! *regions* between them instead of re-deriving each from scratch.
//! This lane reuses the annealer's substrate wholesale:
//!
//! * **Crossover** transplants parent B's placements inside an
//!   RNG-chosen time window into a clone of elite parent A — under one
//!   transaction of the journal, so a worsening transplant rolls back to
//!   the parent in O(changes) instead of re-cloning.
//! * **Mutation** is the annealer's own [`movement`] generator at the
//!   coldest temperature (greedy accept), sharing its movement filter
//!   gating and router-work accounting.
//! * **Seeding** borrows the constructive lane's one-pass mapping as
//!   individual 0, so the population starts from a strong incumbent
//!   bound rather than a uniformly random placement.
//!
//! Determinism: every draw comes from the lane's seeded [`Rng`], the
//! population is iterated in index order, and survivors are ranked by
//! `(cost, index)` with [`f64::total_cmp`] — reruns are byte-identical.
//! Like the annealer, the lane returns `Some` only for a *complete*
//! mapping; the wall-clock budget is [`SaParams::time_limit`].

use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_rng::Rng;

use crate::constructive::construct;
use crate::predictor::{FilterStats, MovementScorer};
use crate::sa::{
    mapping_cost, movement, place_nodes, route_all, MoveBuffers, MoveStats, MovementVerdict,
    SaParams, VanillaPolicy,
};
use crate::Mapping;

/// Population shape of the evolutionary lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvoParams {
    /// Individuals per generation.
    pub population: usize,
    /// Survivors copied unchanged into the next generation (the best
    /// `elite` by `(cost, index)`).
    pub elite: usize,
    /// [`movement`] mutations applied to each child per generation.
    pub mutations_per_child: u32,
    /// Generation budget.
    pub generations: u32,
}

impl EvoParams {
    /// Derives a population budget matched to the annealer's: the SA
    /// schedule's total movement count (temperature levels ×
    /// `moves_per_temp`, levels counted by replaying the cooling loop —
    /// no floating-point log) divided across the population's mutations,
    /// clamped to a sane generation range.
    pub fn from_sa(sa: &SaParams) -> Self {
        let population = 6;
        let mutations_per_child = 4;
        let mut levels: u64 = 0;
        let mut t = sa.initial_temp;
        while t > sa.min_temp && levels < 10_000 {
            t *= sa.cooling;
            levels += 1;
        }
        let budget = levels * u64::from(sa.moves_per_temp);
        let generations =
            (budget / (population as u64 * u64::from(mutations_per_child))).clamp(4, 48) as u32;
        EvoParams {
            population,
            elite: 2,
            mutations_per_child,
            generations,
        }
    }
}

/// The evolutionary lane. See the module docs.
pub struct EvolutionaryStrategy {
    sa: SaParams,
    evo: EvoParams,
}

impl EvolutionaryStrategy {
    /// A lane whose population budget is derived from `sa` (which also
    /// supplies the movement parameters and the time limit).
    pub fn new(sa: SaParams) -> Self {
        let evo = EvoParams::from_sa(&sa);
        EvolutionaryStrategy { sa, evo }
    }

    /// A lane with an explicit population shape.
    pub fn with_params(sa: SaParams, evo: EvoParams) -> Self {
        EvolutionaryStrategy { sa, evo }
    }

    /// The derived population shape.
    pub fn params(&self) -> &EvoParams {
        &self.evo
    }

    /// The best complete individual by `(cost, index)`, if any.
    fn best_complete<'a>(individuals: &[(f64, Mapping<'a>)]) -> Option<Mapping<'a>> {
        let mut best: Option<(f64, &Mapping<'a>)> = None;
        for (cost, m) in individuals {
            if !m.is_complete() {
                continue;
            }
            match &best {
                Some((c, _)) if *cost >= *c => {}
                _ => best = Some((*cost, m)),
            }
        }
        best.map(|(_, m)| m.clone())
    }

    /// Runs the lane at `ii` from the lane seed `seed`, gating mutations
    /// through `filter`. Returns the best complete individual, if any;
    /// router work accumulates into `fstats`.
    pub fn run<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
        seed: u64,
        filter: Option<&dyn MovementScorer>,
        fstats: &mut FilterStats,
    ) -> Option<Mapping<'a>> {
        let start = Instant::now();
        let mut rng = Rng::seed_from_u64(seed);
        let policy = VanillaPolicy;
        let mut stats = MoveStats::default();
        let mut bufs = MoveBuffers::default();
        let want_features = filter.is_some();
        let pop = self.evo.population.max(2);
        let elite = self.evo.elite.clamp(1, pop - 1);

        // Individual 0: the constructive lane's one-pass mapping — the
        // incumbent bound. (Also proves `ii` is feasible for the fabric.)
        let mut individuals: Vec<(f64, Mapping<'a>)> = Vec::with_capacity(pop);
        let seeded = construct(dfg, acc, ii, fstats)?;
        individuals.push((mapping_cost(&seeded), seeded));
        // The rest start from random greedy placements, each consuming
        // the lane RNG in index order.
        while individuals.len() < pop {
            let mut m = Mapping::new(dfg, acc, ii).ok()?;
            bufs.nodes.clear();
            bufs.nodes.extend(dfg.node_ids());
            place_nodes(&policy, &mut m, &mut bufs, stats, &mut rng);
            fstats.router_invocations += route_all(&policy, &mut m, &mut bufs);
            individuals.push((mapping_cost(&m), m));
        }
        if let Some(m) = Self::best_complete(&individuals) {
            return Some(m);
        }

        let mut order: Vec<usize> = Vec::with_capacity(pop);
        for _generation in 0..self.evo.generations {
            if start.elapsed() >= self.sa.time_limit {
                return None;
            }
            // Rank by (cost, index): total_cmp keeps the order total and
            // the index tiebreak keeps reruns byte-identical.
            order.clear();
            order.extend(0..pop);
            order.sort_by(|&a, &b| {
                individuals[a]
                    .0
                    .total_cmp(&individuals[b].0)
                    .then(a.cmp(&b))
            });

            let mut next: Vec<(f64, Mapping<'a>)> = Vec::with_capacity(pop);
            for &i in order.iter().take(elite) {
                next.push(individuals[i].clone());
            }
            for slot in elite..pop {
                let (parent_cost, parent_a) = &individuals[order[slot % elite]];
                let (_, parent_b) = &individuals[order[rng.gen_range(0..pop)]];
                let mut cost = *parent_cost;
                let mut child = parent_a.clone();

                // Crossover: transplant parent B's placements inside one
                // time window under a single journal transaction.
                let window = child.schedule_window().max(1);
                let t0 = rng.gen_range(0..window);
                let width = rng.gen_range(1..=window);
                let hi = t0.saturating_add(width).min(window);
                child.begin_txn();
                for n in dfg.node_ids() {
                    if let Some(p) = child.placement(n) {
                        if p.time >= t0 && p.time < hi {
                            child.unplace(n);
                        }
                    }
                }
                for n in dfg.node_ids() {
                    if child.placement(n).is_some() {
                        continue;
                    }
                    if let Some(p) = parent_b.placement(n) {
                        if p.time >= t0 && p.time < hi {
                            let _ = child.place(n, p.pe, p.time);
                        }
                    }
                }
                // Fill the holes the transplant could not cover, then
                // route everything that became routable.
                child.unplaced_nodes_into(&mut bufs.nodes);
                place_nodes(&policy, &mut child, &mut bufs, stats, &mut rng);
                fstats.router_invocations += route_all(&policy, &mut child, &mut bufs);
                let crossed = mapping_cost(&child);
                if crossed <= cost {
                    child.commit();
                    cost = crossed;
                } else {
                    child.rollback();
                }

                // Mutation: the annealer's movement generator at the
                // coldest temperature (greedy accept), filter-gated.
                for _ in 0..self.evo.mutations_per_child {
                    stats.attempted += 1;
                    child.begin_txn();
                    let verdict = movement(
                        &policy,
                        &mut child,
                        &self.sa,
                        &mut bufs,
                        stats,
                        &mut rng,
                        self.sa.min_temp,
                        filter,
                        fstats,
                        want_features,
                    );
                    match verdict {
                        MovementVerdict::Rejected { .. } => child.rollback(),
                        MovementVerdict::Admitted => {
                            let mutated = mapping_cost(&child);
                            if mutated <= cost {
                                if mutated < cost {
                                    stats.accepted += 1;
                                }
                                child.commit();
                                cost = mutated;
                            } else {
                                child.rollback();
                            }
                        }
                    }
                }
                next.push((cost, child));
            }
            individuals = next;
            if let Some(m) = Self::best_complete(&individuals) {
                return Some(m);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::polybench;

    #[test]
    fn budget_derivation_is_clamped_and_deterministic() {
        let paper = EvoParams::from_sa(&SaParams::paper());
        assert_eq!(paper, EvoParams::from_sa(&SaParams::paper()));
        assert!((4..=48).contains(&paper.generations));
        let fast = EvoParams::from_sa(&SaParams::fast());
        assert!((4..=48).contains(&fast.generations));
    }

    #[test]
    fn reruns_are_byte_identical_and_complete_mappings_verify() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let lane = EvolutionaryStrategy::new(SaParams::fast());
        let (mut sa, mut sb) = (FilterStats::default(), FilterStats::default());
        let a = lane.run(&dfg, &acc, 8, 11, None, &mut sa);
        let b = lane.run(&dfg, &acc, 8, 11, None, &mut sb);
        assert_eq!(
            a.as_ref().map(|m| format!("{m:?}")),
            b.as_ref().map(|m| format!("{m:?}"))
        );
        assert_eq!(sa.proposals, sb.proposals);
        assert_eq!(sa.router_invocations, sb.router_invocations);
        if let Some(m) = a {
            assert!(m.is_complete());
            m.verify().unwrap();
        }
    }

    #[test]
    fn distinct_seeds_consume_distinct_trajectories() {
        // II 3 is below what the constructive seed can finish on gemm, so
        // the generational loop (and the lane RNG) actually runs.
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let lane = EvolutionaryStrategy::new(SaParams::fast());
        let (mut s1, mut s2) = (FilterStats::default(), FilterStats::default());
        lane.run(&dfg, &acc, 3, 3, None, &mut s1);
        lane.run(&dfg, &acc, 3, 4, None, &mut s2);
        // Not a strict requirement of the contract, but with the fast
        // budget the two seeds should not do literally identical work.
        assert!(
            s1.router_invocations != s2.router_invocations || s1.proposals != s2.proposals,
            "suspiciously identical trajectories across seeds"
        );
    }
}
