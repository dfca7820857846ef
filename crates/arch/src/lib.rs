//! Spatial accelerator models for the LISA reproduction.
//!
//! This crate models the six accelerators of the paper's evaluation (§VI):
//! mesh CGRAs of several sizes and resource configurations, and a 5×5
//! systolic array with Revel-like basic units. It also provides the
//! *modulo routing resource graph* ([`Mrrg`]) the mappers place and route
//! on, and the analytical power model behind the Fig. 10 power-efficiency
//! comparison.
//!
//! # Example
//!
//! ```
//! use lisa_arch::{Accelerator, PeId};
//!
//! let cgra = Accelerator::cgra("4x4", 4, 4);
//! assert_eq!(cgra.pe_count(), 16);
//! assert_eq!(cgra.regs_per_pe(), 4);
//! // Interior PEs have four mesh neighbours.
//! let center = PeId::new(5);
//! assert_eq!(cgra.neighbors(center).len(), 4);
//! ```

mod accelerator;
mod distance;
mod error;
mod mrrg;
mod pe;
pub mod power;

pub use accelerator::{
    Accelerator, AcceleratorKind, Heterogeneity, Interconnect, MemoryConnectivity,
};
pub use error::ArchError;
pub use mrrg::{Mrrg, Resource};
pub use pe::{Coord, PeId};
