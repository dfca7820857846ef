//! The op vocabulary every label network's forward is written in.
//!
//! Each model writes its forward pass (Eq. 1–7) exactly once, generic
//! over [`Ops`]. Two backends implement the vocabulary:
//!
//! * [`Tape`] records the ops on an autodiff [`Graph`] for training,
//!   reading weights from the live [`ParamStore`];
//! * `plan::ProgramBuilder` lowers the same ops to a compiled inference
//!   plan over frozen weights.
//!
//! The ops split into the two phases of a GNN layer: aggregation
//! ([`Ops::gather_pool`], [`Ops::nu_gate`]) and combination (matrix
//! product, additions, ReLU, column gating). Per-call inputs — the
//! column-stacked batch, the CSR adjacency, the ragged neighbourhoods —
//! belong to the backend, so a forward names them without holding them.

use crate::{CsrAdjacency, Graph, ParamId, ParamStore, Tensor, VarId};

/// The ops a label network's forward may use. Both backends give every
/// op the same per-element arithmetic (the matmul kernel and the
/// `gather_pool`/`nu_gate` fills are shared outright), so a compiled plan
/// predicts bit-identically to the training forward.
pub(crate) trait Ops {
    /// A batch-shaped intermediate value.
    type Var: Copy;
    /// A weight tensor.
    type Weight: Copy;

    /// The per-call input batch: one column per sample or node.
    fn input(&mut self) -> Self::Var;
    /// One of the model's parameters.
    fn weight(&mut self, id: ParamId) -> Self::Weight;
    /// `w · x`.
    fn matmul(&mut self, w: Self::Weight, x: Self::Var) -> Self::Var;
    /// `a + b` elementwise.
    fn add(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// `x + b` with the bias column `b` broadcast over every column.
    fn add_cols(&mut self, x: Self::Var, b: Self::Weight) -> Self::Var;
    /// `max(x, 0)` elementwise.
    fn relu(&mut self, x: Self::Var) -> Self::Var;
    /// Column `j` of `x` times `nu[j]`.
    fn scale_cols(&mut self, nu: Self::Var, x: Self::Var) -> Self::Var;
    /// `[mean; max; min]` of `src`'s columns over each node's neighbours
    /// in the per-call adjacency (Eq. 1).
    fn gather_pool(&mut self, src: Self::Var) -> Self::Var;
    /// The Eq. 5 gate of each sample's per-call neighbourhood, one row
    /// per sample.
    fn nu_gate(&mut self, w_nu: Self::Weight) -> Self::Var;
}

/// The training backend: records ops on a [`Graph`] with parameter
/// leaves read from `store`.
pub(crate) struct Tape<'a> {
    graph: &'a mut Graph,
    store: &'a ParamStore,
    x: Option<Tensor>,
    adj: Option<&'a CsrAdjacency>,
    hoods: &'a [&'a [Vec<f64>]],
}

impl<'a> Tape<'a> {
    /// A tape whose [`Ops::input`] is the batch `x`.
    pub(crate) fn new(graph: &'a mut Graph, store: &'a ParamStore, x: Tensor) -> Self {
        Tape {
            graph,
            store,
            x: Some(x),
            adj: None,
            hoods: &[],
        }
    }

    /// Sets the adjacency [`Ops::gather_pool`] aggregates over.
    pub(crate) fn with_adjacency(self, adj: &'a CsrAdjacency) -> Self {
        Tape {
            adj: Some(adj),
            ..self
        }
    }

    /// Sets the per-sample neighbourhoods [`Ops::nu_gate`] pools.
    pub(crate) fn with_neighborhoods(self, hoods: &'a [&'a [Vec<f64>]]) -> Self {
        Tape { hoods, ..self }
    }
}

impl Ops for Tape<'_> {
    type Var = VarId;
    type Weight = VarId;

    fn input(&mut self) -> VarId {
        let x = self.x.take().expect("the forward reads its input once");
        self.graph.input(x)
    }

    fn weight(&mut self, id: ParamId) -> VarId {
        self.graph.param(self.store, id)
    }

    fn matmul(&mut self, w: VarId, x: VarId) -> VarId {
        self.graph.matmul(w, x)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.graph.add(a, b)
    }

    fn add_cols(&mut self, x: VarId, b: VarId) -> VarId {
        self.graph.add_cols(x, b)
    }

    fn relu(&mut self, x: VarId) -> VarId {
        self.graph.relu(x)
    }

    fn scale_cols(&mut self, nu: VarId, x: VarId) -> VarId {
        self.graph.scale_cols(nu, x)
    }

    fn gather_pool(&mut self, src: VarId) -> VarId {
        let adj = self.adj.expect("gather_pool needs an adjacency");
        self.graph.gather_pool(src, adj)
    }

    fn nu_gate(&mut self, w_nu: VarId) -> VarId {
        self.graph.nu_gate(w_nu, self.hoods)
    }
}
