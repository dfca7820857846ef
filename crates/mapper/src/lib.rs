//! Mapping engines for spatial accelerators.
//!
//! This crate implements every mapper the LISA paper evaluates:
//!
//! * [`label_sa`] — [`LabelSaMapper`], the one simulated-annealing
//!   mapper: without labels the paper's SA baseline in the CGRA-ME style
//!   (and the 10×-movement "SA-M" variant of Fig. 13), with labels the
//!   label-aware annealing of Algorithm 1 and the routing-priority-only
//!   ablation of Fig. 12;
//! * [`sa`] — the annealing core both run on, and its [`SaParams`];
//! * [`exact`] — an exhaustive branch-and-bound mapper standing in for the
//!   ILP baseline (see DESIGN.md "Substitutions");
//! * [`strategy`] — the lane race: [`StrategySpec`] lists the lanes
//!   (annealing, constructive) raced for each II;
//! * [`constructive`] — a LOCAL-style low-complexity one-pass list
//!   scheduler that fast-paths easy kernels and doubles as the
//!   deterministic list-scheduling baseline (the classic non-stochastic
//!   heuristic class the paper contrasts against);
//! * [`display`] — time-extended grid rendering of mappings (Fig. 5
//!   style);
//! * [`schedule`] — the II search driver shared by all mappers (start at
//!   the minimum II, increment on failure, paper §VI), which attempts
//!   IIs in waves on [`portfolio::par_map`].
//!
//! All mappers operate on a shared [`Mapping`] state (placement + routing
//! over the modulo routing resource graph) and a common Dijkstra
//! [`router`].
//!
//! # Example
//!
//! ```
//! use lisa_dfg::polybench;
//! use lisa_arch::Accelerator;
//! use lisa_mapper::{schedule::IiSearch, LabelSaMapper, SaParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = polybench::kernel("doitgen")?;
//! let acc = Accelerator::cgra("4x4", 4, 4);
//! let mapper = LabelSaMapper::vanilla(SaParams::fast(), 7);
//! let (outcome, _mapping) = IiSearch::default().run(&mapper, &dfg, &acc, 1);
//! assert!(outcome.ii.is_some(), "doitgen maps on a 4x4 CGRA");
//! # Ok(())
//! # }
//! ```

pub mod constructive;
pub mod display;
mod error;
pub mod exact;
pub mod label_sa;
mod mapping;
pub mod portfolio;
pub mod predictor;
pub mod router;
pub mod sa;
pub mod schedule;
pub mod strategy;

pub use constructive::ConstructiveStrategy;
pub use error::MapperError;
pub use label_sa::{GuidanceLabels, LabelSaMapper};
pub use mapping::{Mapping, Placement, RouteStep};
pub use predictor::{FilterStats, FilterTotals, MovementScorer, MOVEMENT_FEATURE_DIM};
pub use router::RouterScratch;
pub use sa::{anneal_chain, SaParams};
pub use schedule::{IiMapper, IiSearch, MappingOutcome};
pub use strategy::{LaneKind, ParseStrategyError, StrategySpec};
