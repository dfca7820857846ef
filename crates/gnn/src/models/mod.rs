//! The four label networks of paper §IV-B.
//!
//! | Label | Network | Module |
//! |-------|---------|--------|
//! | 1 — schedule order | 4-layer message-passing GNN (Eq. 1–2) | [`schedule_order`] |
//! | 2 — same-level association | 2-layer MLP (Eq. 3) | [`edge_mlp`] |
//! | 3 — spatial mapping distance | conv + normalised aggregation (Eq. 4–6) | [`spatial`] |
//! | 4 — temporal mapping distance | 2-layer MLP (Eq. 7) | [`edge_mlp`] |
//!
//! Labels 2 and 4 share the same architecture (the paper uses an identical
//! MLP with hidden channels equal to the number of edge attributes), so
//! one [`edge_mlp::EdgeMlp`] type serves both.

pub mod edge_mlp;
pub mod schedule_order;
pub mod spatial;

pub use edge_mlp::EdgeMlp;
pub use schedule_order::ScheduleOrderNet;
pub use spatial::SpatialNet;

use crate::Tensor;

/// Column-stacks attribute vectors into a `dim × B` batch matrix, the
/// input layout of every model's forward.
///
/// # Panics
///
/// Panics if a vector's length is not `dim`.
fn column_stack<'a>(dim: usize, columns: impl ExactSizeIterator<Item = &'a [f64]>) -> Tensor {
    let b = columns.len();
    let mut data = vec![0.0; dim * b];
    for (j, attrs) in columns.enumerate() {
        assert_eq!(attrs.len(), dim, "attribute dimension mismatch");
        for (r, &v) in attrs.iter().enumerate() {
            data[r * b + j] = v;
        }
    }
    Tensor::from_vec(dim, b, data)
}
