//! From-scratch graph neural networks for LISA's label derivation.
//!
//! The paper implements its models with PyTorch Geometric; this crate
//! re-implements the complete stack in pure Rust (see DESIGN.md
//! "Substitutions"):
//!
//! * [`Tensor`] — small dense matrices,
//! * [`Graph`] — define-by-run reverse-mode autodiff over the batched op
//!   set the paper's Eq. 1–7 need (matrix product, additions, ReLU,
//!   column gating, mean/max/min neighbour gather-pooling, the Eq. 5 ν
//!   gate, squared-error loss),
//! * [`ParamStore`]/[`Adam`] — parameter storage and the paper's optimiser
//!   (lr 0.001, weight decay 0.0005),
//! * [`models`] — the four label networks of §IV-B, each with one forward
//!   definition that training runs on a [`Graph`] and `compile()` lowers
//!   to a tape-free inference plan ([`CompiledEdgeMlp`],
//!   [`CompiledScheduleOrder`], [`CompiledSpatial`]),
//! * [`metrics`] — the paper's accuracy definitions (§VI-B),
//! * [`dataset`] — architecture-agnostic training-sample containers.
//!
//! # Example
//!
//! ```
//! use lisa_gnn::models::EdgeMlp;
//! use lisa_gnn::dataset::EdgeSample;
//! use lisa_gnn::{metrics, PlanScratch, TrainConfig};
//!
//! let samples: Vec<EdgeSample> = (0..24)
//!     .map(|i| EdgeSample {
//!         attrs: vec![f64::from(i % 6), 1.0],
//!         target: f64::from(i % 6),
//!     })
//!     .collect();
//! let mut net = EdgeMlp::new(2, 1);
//! net.train(&samples, &TrainConfig { epochs: 150, ..TrainConfig::paper() });
//! let plan = net.compile();
//! let mut scratch = PlanScratch::new();
//! let preds: Vec<f64> = samples
//!     .iter()
//!     .map(|s| plan.predict(&mut scratch, &s.attrs))
//!     .collect();
//! let truths: Vec<f64> = samples.iter().map(|s| s.target).collect();
//! let acc = metrics::accuracy(metrics::LabelKind::Temporal, &preds, &truths);
//! assert!(acc > 0.5);
//! ```

pub mod dataset;
mod graph;
pub mod io;
pub mod metrics;
pub mod models;
mod ops;
mod params;
mod plan;
mod tensor;
mod train;

pub use graph::{CsrAdjacency, Graph, VarId};
pub use params::{Adam, ParamGrads, ParamId, ParamStore};
pub use plan::{CompiledEdgeMlp, CompiledScheduleOrder, CompiledSpatial, PlanScratch};
pub use tensor::Tensor;
pub use train::{TrainConfig, TrainReport};
