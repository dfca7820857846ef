//! Minimum-II computation and the II search driver.
//!
//! Per the paper (§VI): "The compiler starts with target II equal to MII
//! and increments by one if it cannot map, until the target II exceeds the
//! maximum II." Every mapper (SA, LISA, exact, constructive) plugs into
//! the same [`IiSearch`] driver through the [`IiMapper`] trait, so compilation-time
//! comparisons (Fig. 11) measure identical machinery around the algorithm
//! under test.

use std::time::{Duration, Instant};

use lisa_arch::power::{Activity, PowerModel};
use lisa_arch::Accelerator;
use lisa_dfg::{analysis, Dfg};

use crate::Mapping;

/// Resource-constrained minimum II: every DFG node needs one FU slot, so
/// `ceil(nodes / PEs)` (the paper's "theoretical lowest execution time",
/// §V-C).
pub fn res_mii(dfg: &Dfg, acc: &Accelerator) -> u32 {
    (dfg.node_count() as u32)
        .div_ceil(acc.pe_count() as u32)
        .max(1)
}

/// Minimum II: the larger of the resource and recurrence bounds.
pub fn mii(dfg: &Dfg, acc: &Accelerator) -> u32 {
    res_mii(dfg, acc).max(analysis::rec_mii(dfg))
}

/// A mapping algorithm that attempts one fixed II at a time.
pub trait IiMapper {
    /// Short display name ("SA", "LISA", "ILP"), used by the experiment
    /// harness.
    fn name(&self) -> &str;

    /// Attempts to produce a complete mapping at exactly `ii`. Returns
    /// `None` on failure (resources exhausted, time budget hit, ...).
    fn map_at_ii<'a>(&mut self, dfg: &'a Dfg, acc: &'a Accelerator, ii: u32)
        -> Option<Mapping<'a>>;
}

/// Result of an II search: the metrics every figure of §VI consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOutcome {
    /// Mapper name.
    pub mapper: String,
    /// DFG name.
    pub dfg: String,
    /// Accelerator name.
    pub accelerator: String,
    /// Achieved II, or `None` if no II up to the maximum mapped.
    pub ii: Option<u32>,
    /// Wall-clock compilation time across all attempted IIs (Fig. 11; for
    /// failures this is the full termination time, as in the paper).
    pub compile_time: Duration,
    /// Routing cells used by the successful mapping (label quality metric).
    pub routing_cells: usize,
    /// Resource activity of the successful mapping (Fig. 10 power input).
    pub activity: Activity,
    /// Executed operations per iteration (for MOPS).
    pub ops: usize,
    /// Number of II values attempted.
    pub attempts: u32,
}

impl MappingOutcome {
    /// Whether the search found a mapping.
    pub fn mapped(&self) -> bool {
        self.ii.is_some()
    }

    /// Power efficiency in MOPS/W for the Fig. 10 comparison, or `None`
    /// if the benchmark did not map.
    pub fn mops_per_watt(&self, acc: &Accelerator, pm: &PowerModel) -> Option<f64> {
        let ii = self.ii?;
        Some(pm.mops_per_watt(acc, self.ops, self.activity, ii))
    }
}

/// II search driver: tries MII, MII+1, ... up to the configuration depth.
#[derive(Debug, Clone, Copy, Default)]
pub struct IiSearch {
    /// Optional cap below the accelerator's maximum II (used by tests to
    /// bound runtimes).
    pub max_ii: Option<u32>,
}

impl IiSearch {
    /// Runs the search and returns the outcome with the successful
    /// mapping. IIs are attempted in waves of `parallelism` (the last
    /// wave holds what remains of the range); every wave
    /// is fully joined before judging, and the smallest successful II
    /// wins, so the outcome — including the `attempts` count, which bills
    /// exactly the IIs a one-at-a-time search would have tried — is
    /// byte-identical for any thread count. Only `compile_time` (wall
    /// clock) differs. `parallelism = 1` attempts one II at a time on the
    /// calling thread.
    ///
    /// Each attempt runs on a clone of `mapper`, so this requires a mapper
    /// whose `map_at_ii` is a pure function of `(self, dfg, acc, ii)` —
    /// true for every mapper in this crate.
    pub fn run<'a, M>(
        &self,
        mapper: &M,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        parallelism: usize,
    ) -> (MappingOutcome, Option<Mapping<'a>>)
    where
        M: IiMapper + Clone + Send + Sync,
    {
        let start = Instant::now();
        let lo = mii(dfg, acc);
        let hi = self.max_ii.unwrap_or(acc.max_ii()).min(acc.max_ii());
        let iis: Vec<u32> = (lo..=hi).collect();
        let mut attempts = 0;
        let mut found = None;
        'waves: for wave in iis.chunks(parallelism.max(1)) {
            let results = crate::portfolio::par_map(parallelism, wave.to_vec(), |_, target| {
                let mut chain = mapper.clone();
                chain.map_at_ii(dfg, acc, target)
            });
            for (&ii, result) in wave.iter().zip(results) {
                attempts += 1;
                if let Some(m) = result {
                    debug_assert!(m.is_complete());
                    debug_assert_eq!(m.verify(), Ok(()));
                    found = Some((ii, m));
                    break 'waves;
                }
            }
        }
        let outcome = MappingOutcome {
            mapper: mapper.name().to_string(),
            dfg: dfg.name().to_string(),
            accelerator: acc.name().to_string(),
            ii: found.as_ref().map(|(ii, _)| *ii),
            compile_time: start.elapsed(),
            routing_cells: found.as_ref().map_or(0, |(_, m)| m.routing_cells()),
            activity: found
                .as_ref()
                .map_or_else(Activity::default, |(_, m)| m.activity()),
            ops: dfg.op_count(),
            attempts,
        };
        (outcome, found.map(|(_, m)| m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ExactMapper, ExactParams};
    use crate::{ConstructiveStrategy, GuidanceLabels, LabelSaMapper, SaParams, StrategySpec};
    use lisa_dfg::OpKind;

    #[test]
    fn res_mii_rounds_up() {
        let mut g = Dfg::new("g");
        for i in 0..17 {
            g.add_node(OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(res_mii(&g, &acc), 2);
        let acc9 = Accelerator::cgra("3x3", 3, 3);
        assert_eq!(res_mii(&g, &acc9), 2);
        let acc64 = Accelerator::cgra("8x8", 8, 8);
        assert_eq!(res_mii(&g, &acc64), 1);
    }

    #[test]
    fn mii_takes_recurrence_into_account() {
        let mut g = Dfg::new("g");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Mul, "b");
        let c = g.add_node(OpKind::Add, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_recurrence_edge(c, a, 1).unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        // 3-op cycle at distance 1: RecMII 3 > ResMII 1.
        assert_eq!(mii(&g, &acc), 3);
    }

    #[derive(Clone)]
    struct FailThenSucceed {
        succeed_at: u32,
    }

    impl IiMapper for FailThenSucceed {
        fn name(&self) -> &str {
            "stub"
        }

        fn map_at_ii<'a>(
            &mut self,
            dfg: &'a Dfg,
            acc: &'a Accelerator,
            ii: u32,
        ) -> Option<Mapping<'a>> {
            if ii < self.succeed_at {
                return None;
            }
            // One-node DFG maps trivially.
            let mut m = Mapping::new(dfg, acc, ii).ok()?;
            m.place(lisa_dfg::NodeId::new(0), lisa_arch::PeId::new(0), 0)
                .ok()?;
            Some(m)
        }
    }

    #[test]
    fn search_increments_ii_until_success() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mapper = FailThenSucceed { succeed_at: 3 };
        let (outcome, mapping) = IiSearch::default().run(&mapper, &g, &acc, 1);
        assert_eq!(outcome.ii, Some(3));
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.mapped());
        assert_eq!(mapping.map(|m| m.ii()), Some(3));
    }

    #[test]
    fn search_reports_failure_after_max_ii() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let mapper = FailThenSucceed { succeed_at: 99 };
        let (outcome, mapping) = IiSearch::default().run(&mapper, &g, &acc, 1);
        assert_eq!(outcome.ii, None);
        assert_eq!(outcome.attempts, 4);
        assert!(!outcome.mapped());
        assert!(mapping.is_none());
    }

    #[test]
    fn search_cap_respected() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mapper = FailThenSucceed { succeed_at: 99 };
        let outcome = IiSearch { max_ii: Some(2) }.run(&mapper, &g, &acc, 1).0;
        assert_eq!(outcome.attempts, 2);
    }

    /// Runs the search at 1, 2 and 4 threads and asserts identical
    /// `(ii, attempts, routing_cells)` and mapping bytes.
    fn assert_thread_count_invariant<M>(mapper: &M, dfg: &Dfg, acc: &Accelerator)
    where
        M: IiMapper + Clone + Send + Sync,
    {
        let search = IiSearch { max_ii: Some(8) };
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let (o, m) = search.run(mapper, dfg, acc, threads);
                (o.ii, o.attempts, o.routing_cells, format!("{m:?}"))
            })
            .collect();
        assert!(
            runs[0].0.is_some(),
            "{} must map {}",
            mapper.name(),
            dfg.name()
        );
        assert_eq!(runs[0], runs[1], "{}: 2 threads diverged", mapper.name());
        assert_eq!(runs[0], runs[2], "{}: 4 threads diverged", mapper.name());
    }

    #[test]
    fn parallel_search_matches_sequential_for_any_thread_count() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(6);
        for threads in [1, 2, 4, 8] {
            let outcome = IiSearch::default()
                .run(&FailThenSucceed { succeed_at: 3 }, &g, &acc, threads)
                .0;
            assert_eq!(outcome.ii, Some(3), "threads {threads}");
            // Speculative wave attempts beyond the winner are not billed.
            assert_eq!(outcome.attempts, 3, "threads {threads}");
        }
        // Real mappers. Wall-clock budgets are lifted so only each
        // mapper's deterministic budget can end an attempt.
        let doitgen = lisa_dfg::polybench::kernel("doitgen").unwrap();
        let acc4 = Accelerator::cgra("4x4", 4, 4);
        let exact = ExactMapper::new(ExactParams {
            time_limit: Duration::from_secs(3600),
            ..ExactParams::fast()
        });
        assert_thread_count_invariant(&exact, &doitgen, &acc4);
        assert_thread_count_invariant(&ConstructiveStrategy::new(), &doitgen, &acc4);
        let sa = SaParams {
            time_limit: Duration::from_secs(3600),
            ..SaParams::fast()
        };
        let mixed = LabelSaMapper::vanilla(sa.clone(), 7)
            .with_strategy(StrategySpec::parse("mixed").unwrap());
        assert_thread_count_invariant(&mixed, &doitgen, &acc4);
        let four_lanes = LabelSaMapper::new(GuidanceLabels::initial(&doitgen), sa, 7)
            .with_strategy(StrategySpec::parse("sa,sa,sa,sa").unwrap());
        assert_thread_count_invariant(&four_lanes, &doitgen, &acc4);
        // Budgets past the II range (and past `u32`, where `usize` has
        // 64 bits): one wave takes the whole range and bills what
        // parallelism 1 bills.
        let gemm = lisa_dfg::unroll::unroll(&lisa_dfg::polybench::kernel("gemm").unwrap(), 2);
        assert!(mii(&gemm, &acc4) >= 2);
        let search = IiSearch { max_ii: Some(12) };
        let constructive = ConstructiveStrategy::new();
        let want = search.run(&constructive, &gemm, &acc4, 1).0;
        for threads in [Some(u32::MAX as usize), 1usize.checked_shl(32)]
            .into_iter()
            .flatten()
        {
            let got = search.run(&constructive, &gemm, &acc4, threads).0;
            assert_eq!(
                (got.ii, got.attempts),
                (want.ii, want.attempts),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_search_failure_bills_every_ii() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let outcome = IiSearch::default()
            .run(&FailThenSucceed { succeed_at: 99 }, &g, &acc, 3)
            .0;
        assert_eq!(outcome.ii, None);
        assert_eq!(outcome.attempts, 4);
    }
}
