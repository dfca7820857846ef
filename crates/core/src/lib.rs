//! LISA: Learning-Induced mapping for Spatial Accelerators — the
//! end-to-end framework of the HPCA 2022 paper, reproduced in Rust.
//!
//! The pipeline (paper Fig. 2) has three parts:
//!
//! 1. **Training-data generation** — synthetic DFGs are labelled by an
//!    iterative partial-label-aware simulated-annealing loop and filtered
//!    for quality (`lisa-labels`).
//! 2. **GNN model construction** — four networks (one per label of
//!    Table I) are trained on the generated data (`lisa-gnn`).
//! 3. **Label-aware mapping** — for a new DFG, the trained networks derive
//!    labels in milliseconds, and a label-aware simulated annealer places
//!    and routes with a global view of the DFG structure (`lisa-mapper`).
//!
//! The central type is [`Lisa`]: train once per accelerator with
//! [`Lisa::train_for`], then call [`Lisa::map_capped`] for every
//! application DFG.
//!
//! # Quickstart
//!
//! ```
//! use lisa_arch::Accelerator;
//! use lisa_core::{Lisa, LisaConfig};
//! use lisa_dfg::polybench;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let acc = Accelerator::cgra("4x4", 4, 4);
//! // `fast()` keeps this example snappy; use `LisaConfig::default()` for
//! // experiment-scale training.
//! let lisa = Lisa::train_for(&acc, &LisaConfig::fast())?;
//! let dfg = polybench::kernel("doitgen")?;
//! let (outcome, _mapping) = lisa.map_capped(&dfg, &acc, 8);
//! assert!(outcome.mapped());
//! # Ok(())
//! # }
//! ```
//!
//! Training is a staged [`Pipeline`] under the hood: build one directly
//! to stream progress events, checkpoint artifacts to a directory, and
//! resume an interrupted label-generation run.

mod compiled;
mod config;
mod framework;
mod model_io;
mod pipeline;
mod registry;
mod report;
pub mod request;

pub use config::LisaConfig;
pub use framework::Lisa;
pub use model_io::ModelImportError;
pub use pipeline::{Pipeline, Stage, TrainError, DATASET_FILE, DFGS_FILE, MODEL_FILE};
pub use registry::{ModelRegistry, RegistryError};
pub use report::{LabelAccuracy, TrainingStats};
pub use request::{MapRequest, RequestParseError};
