//! Dataflow graph (DFG) infrastructure for the LISA reproduction.
//!
//! A [`Dfg`] represents the loop body of a compute kernel as operations
//! (nodes) connected by data dependencies (edges), exactly as in §II-B of the
//! LISA paper (HPCA 2022). This crate provides:
//!
//! * the graph IR itself ([`Dfg`], [`OpKind`], [`EdgeKind`]),
//! * classic graph analyses used throughout the mapping pipeline
//!   ([`analysis`]: ASAP/ALAP levels, ancestor/descendant sets, longest
//!   paths),
//! * same-level *dummy edges* between non-dependent nodes that share a
//!   common ancestor or descendant ([`same_level`], paper §III-A Fig. 7),
//! * the synthetic random DFG generator used to build GNN training sets
//!   ([`random`], paper §V-A),
//! * hand-constructed DFGs for the 12 PolyBench kernels used in the paper's
//!   evaluation ([`polybench`]), plus factor-2 loop unrolling ([`unroll`]).
//!
//! # Example
//!
//! ```
//! use lisa_dfg::{Dfg, OpKind};
//!
//! # fn main() -> Result<(), lisa_dfg::DfgError> {
//! let mut dfg = Dfg::new("example");
//! let a = dfg.add_node(OpKind::Load, "a");
//! let b = dfg.add_node(OpKind::Load, "b");
//! let m = dfg.add_node(OpKind::Mul, "m");
//! let s = dfg.add_node(OpKind::Store, "s");
//! dfg.add_data_edge(a, m)?;
//! dfg.add_data_edge(b, m)?;
//! dfg.add_data_edge(m, s)?;
//! dfg.validate()?;
//! assert_eq!(lisa_dfg::analysis::asap(&dfg)[m.index()], 1);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
mod error;
mod graph;
mod op;
pub mod polybench;
pub mod random;
pub mod same_level;
pub mod stats;
pub mod text;
pub mod unroll;

pub use error::DfgError;
pub use graph::{Dfg, DfgEdge, DfgNode, EdgeId, EdgeKind, NodeId};
pub use op::OpKind;
pub use random::{generate_random_dfg, RandomDfgConfig};
pub use same_level::{dummy_edges, DummyEdge};
