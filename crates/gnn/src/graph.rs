//! Reverse-mode automatic differentiation over a dynamically built tape.
//!
//! Each forward pass builds a [`Graph`] (define-by-run, like PyTorch):
//! every operation appends a node holding its output value and the
//! information backward needs. [`Graph::backward`] then walks the tape in
//! reverse, accumulating gradients into intermediate nodes and — for
//! parameter leaves — into the [`ParamStore`] (or a detached
//! [`ParamGrads`] sink via [`Graph::backward_into`], which is what the
//! deterministic parallel trainer uses).
//!
//! **Arena reuse** shapes the tape's throughput: [`Graph::reset`] clears
//! the tape but keeps every backing buffer in an internal free pool, so a
//! training loop reuses one graph's allocations across all samples and
//! epochs instead of reallocating per sample. Backward likewise keeps its
//! per-node gradient scratch between calls.
//!
//! The tape exists for training. Inference runs on compiled plans (each
//! model's `compile()`, executed on a [`crate::PlanScratch`]), which are
//! pinned bit-identical to the model's forward on this tape.
//!
//! The op set is what the paper's four label networks (Eq. 1–7) require:
//! matrix–vector and batched matrix–matrix products, elementwise
//! arithmetic (scalar and column-broadcast forms), ReLU, guarded
//! reciprocals, concatenation, min/max/mean pooling over neighbour sets,
//! and a fused gather-and-pool over a CSR adjacency that aggregates all
//! nodes of a layer at once. Batched ops are bit-compatible with their
//! per-column scalar counterparts: column `j` of `matmul`'s output equals
//! `matvec` on column `j` exactly, and `gather_pool` reproduces the
//! historical concat(mean, max, min) column by column.

use std::sync::Arc;

use crate::{ParamGrads, ParamId, ParamStore, Tensor};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(usize);

/// A node-to-neighbours adjacency in compressed sparse row form, shared
/// cheaply (two `Arc` clones) between tape ops and across worker threads.
///
/// Consumer `j`'s neighbours are `indices[offsets[j]..offsets[j + 1]]`,
/// each a column index into the source matrix of a
/// [`Graph::gather_pool`].
#[derive(Debug, Clone)]
pub struct CsrAdjacency {
    offsets: Arc<[u32]>,
    indices: Arc<[u32]>,
}

impl CsrAdjacency {
    /// Builds the CSR form of a neighbour-list adjacency.
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds `u32::MAX`.
    pub fn from_neighbors(neighbors: &[Vec<usize>]) -> Self {
        let mut offsets = Vec::with_capacity(neighbors.len() + 1);
        let mut indices = Vec::with_capacity(neighbors.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for ns in neighbors {
            for &u in ns {
                indices.push(u32::try_from(u).expect("neighbor index overflows u32"));
            }
            offsets.push(u32::try_from(indices.len()).expect("adjacency overflows u32"));
        }
        CsrAdjacency {
            offsets: offsets.into(),
            indices: indices.into(),
        }
    }

    /// Number of consumers (rows of the CSR form).
    pub fn consumer_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, j: usize) -> &[u32] {
        &self.indices[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// Borrows the CSR arrays without touching the `Arc` refcounts.
    pub(crate) fn view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            indices: &self.indices,
        }
    }
}

/// Borrowed CSR adjacency: the same `offsets`/`indices` layout as
/// [`CsrAdjacency`] but over plain slices, so compiled plans can refill
/// scratch-owned vectors per prediction instead of paying two `Arc`
/// allocations per call. [`gather_pool_forward`] consumes this form;
/// the owning type lends one via [`CsrAdjacency::view`].
#[derive(Clone, Copy)]
pub(crate) struct CsrView<'a> {
    pub(crate) offsets: &'a [u32],
    pub(crate) indices: &'a [u32],
}

impl CsrView<'_> {
    /// Number of consumers (rows of the CSR form).
    pub(crate) fn consumer_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, j: usize) -> &[u32] {
        &self.indices[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Constant input; no gradient flows out.
    Input,
    /// Parameter leaf; gradient accumulates into the sink.
    Param(ParamId),
    /// `W x` where `W` is a matrix var and `x` a column vector.
    MatVec(VarId, VarId),
    /// `W X` with `X` a column-stacked batch; column `j` of the result is
    /// bit-identical to `MatVec` on column `j`.
    MatMul(VarId, VarId),
    Add(VarId, VarId),
    /// `X + b` broadcasting the column vector `b` over every column.
    AddCols(VarId, VarId),
    Sub(VarId, VarId),
    Hadamard(VarId, VarId),
    /// `s * x` with `s` a 1×1 var broadcast over `x`.
    Scale(VarId, VarId),
    /// Column-wise gating: column `j` of `x` scaled by `nu[j]`.
    ScaleCols(VarId, VarId),
    Relu(VarId),
    /// Guarded elementwise reciprocal: `1/x`, or 1 where `|x| < eps`
    /// (the paper sets the normalisation factor to one on zero
    /// denominators, §IV-B).
    Recip(VarId),
    /// Vertical concatenation of column vectors.
    Concat(Vec<VarId>),
    /// Elementwise mean over a set of same-shaped vectors.
    PoolMean(Vec<VarId>),
    /// Elementwise max; gradient flows to the argmax element.
    PoolMax(Vec<VarId>),
    /// Elementwise min; gradient flows to the argmin element.
    PoolMin(Vec<VarId>),
    /// Elementwise sum over a set of same-shaped vectors.
    PoolSum(Vec<VarId>),
    /// Fused per-consumer (mean, max, min) pooling of source columns
    /// selected through a CSR adjacency; stacks the three poolings
    /// vertically. Consumers without neighbours get a zero column.
    GatherPool {
        src: VarId,
        adj: CsrAdjacency,
    },
    /// Squared error `(x - target)^2` of a 1×1 var against a constant.
    SquaredError(VarId, f64),
    /// `scale * Σ_j (pred[j] - targets[j])^2` over a 1×n prediction row.
    RowSse {
        pred: VarId,
        targets: Arc<[f64]>,
        scale: f64,
    },
}

pub(crate) const RECIP_EPS: f64 = 1e-6;

/// Forward fill of [`Graph::gather_pool`]: for each consumer `j` of
/// `adj`, pools the columns of `srcv` named by its neighbour list and
/// stacks `[mean; max; min]` into `out`, which must hold
/// `3 * srcv.rows() * adj.consumer_count()` elements. Every element is
/// written — consumers without neighbours get explicit zero columns —
/// so `out` does not need to be pre-zeroed.
///
/// Shared by the tape op and the compiled inference plans so the two
/// paths stay bit-identical: one accumulation order, one mean scaling.
pub(crate) fn gather_pool_forward(srcv: &Tensor, adj: CsrView<'_>, out: &mut [f64]) {
    let h = srcv.rows();
    let n_out = adj.consumer_count();
    let cols = srcv.cols();
    let data = srcv.data();
    debug_assert_eq!(out.len(), 3 * h * n_out);
    // The three poolings write into separate row bands; splitting them up
    // front keeps the inner loops on plain slices with no per-element
    // shape math. Per output element the fold over the neighbor list is
    // the historical one — the first neighbor's value seeds sum/max/min,
    // the rest fold in list order, the mean applies the same `1/len`
    // reciprocal — so results are bit-identical.
    // Validate every neighbour index once up front: the gather loops
    // below re-walk the same list `h` times and rely on this bound for
    // unchecked loads.
    assert!(
        adj.indices.iter().all(|&u| (u as usize) < cols),
        "neighbor index out of range"
    );
    let (avg_band, rest_bands) = out.split_at_mut(h * n_out);
    let (max_band, min_band) = rest_bands.split_at_mut(h * n_out);
    for j in 0..n_out {
        let neigh = adj.neighbors(j);
        let Some((&first, rest)) = neigh.split_first() else {
            // Neighbour-less consumers pool to zero columns. Writing the
            // zeros here (instead of relying on a pre-zeroed `out`) means
            // every element of `out` is written, so callers may hand in a
            // stale buffer without paying a full clear first.
            for k in 0..h {
                avg_band[k * n_out + j] = 0.0;
                max_band[k * n_out + j] = 0.0;
                min_band[k * n_out + j] = 0.0;
            }
            continue;
        };
        let inv = 1.0 / neigh.len() as f64;
        for k in 0..h {
            let row = k * cols;
            // SAFETY: every index was asserted `< cols` above, `k < h`,
            // and `data` holds `h * cols` elements, so
            // `row + u < h * cols`.
            let v0 = unsafe { *data.get_unchecked(row + first as usize) };
            let (mut sum, mut max, mut min) = (v0, v0, v0);
            for &u in rest {
                // SAFETY: `u` was asserted `< cols` above, so
                // `row + u < h * cols` as for `first`.
                let v = unsafe { *data.get_unchecked(row + u as usize) };
                sum += v;
                max = max.max(v);
                min = min.min(v);
            }
            // SAFETY: `k < h` and `j < n_out`, so `k * n_out + j` lies
            // within each `h * n_out`-element band.
            unsafe {
                *avg_band.get_unchecked_mut(k * n_out + j) = sum * inv;
                *max_band.get_unchecked_mut(k * n_out + j) = max;
                *min_band.get_unchecked_mut(k * n_out + j) = min;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
}

/// Routes parameter gradients either into the store's accumulator (the
/// sequential path) or a detached sink (one per micro-batch unit in the
/// deterministic parallel trainer).
enum GradSink<'a> {
    Store(&'a mut ParamStore),
    Grads(&'a mut ParamGrads),
}

impl GradSink<'_> {
    fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        match self {
            GradSink::Store(s) => s.accumulate_grad(id, delta),
            GradSink::Grads(g) => g.accumulate(id, delta),
        }
    }
}

/// A dynamically built computation graph.
///
/// # Example
///
/// ```
/// use lisa_gnn::{Graph, ParamStore, Tensor};
///
/// let mut store = ParamStore::new(0);
/// let w = store.alloc_with(Tensor::from_vec(1, 2, vec![2.0, -1.0]));
/// let mut g = Graph::new();
/// let wv = g.param(&store, w);
/// let x = g.input(Tensor::vector(vec![3.0, 4.0]));
/// let y = g.matvec(wv, x);           // 2*3 - 4 = 2
/// let loss = g.squared_error(y, 0.0); // 4
/// assert_eq!(g.value(loss).item(), 4.0);
/// g.backward(loss, &mut store);
/// // dL/dW = 2*(y-0) * x^T = [12, 16]
/// assert_eq!(store.grad(w).data(), &[12.0, 16.0]);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Recycled backing buffers for node values and backward temporaries.
    pool: Vec<Vec<f64>>,
    /// Per-node gradient tensors reused across backward calls.
    grad_scratch: Vec<Tensor>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for a fresh forward pass while keeping every
    /// allocation: node value buffers move to an internal free pool and
    /// are handed back to subsequent ops. Gradient scratch from previous
    /// backward calls is retained too. Var ids from before the reset are
    /// invalidated.
    pub fn reset(&mut self) {
        // Cap the free pool at what the next forward pass of this shape
        // can consume: input tensors are allocated outside the arena, so
        // without a bound every reset would grow the pool by the number
        // of inputs and a long-lived tape would leak.
        let cap = self.nodes.len();
        while let Some(node) = self.nodes.pop() {
            if self.pool.len() < cap {
                self.pool.push(node.value.into_data());
            }
        }
    }

    /// Pops a recycled buffer (cleared) or allocates a fresh one.
    fn take_buf(&mut self) -> Vec<f64> {
        let mut b = self.pool.pop().unwrap_or_default();
        b.clear();
        b
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        self.nodes.push(Node { op, value });
        VarId(self.nodes.len() - 1)
    }

    /// The forward value of a var.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Number of tape nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a constant input.
    pub fn input(&mut self, value: Tensor) -> VarId {
        self.push(Op::Input, value)
    }

    /// Adds a parameter leaf (value copied from the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        let mut buf = self.take_buf();
        let v = store.value(id);
        buf.extend_from_slice(v.data());
        let t = Tensor::from_vec(v.rows(), v.cols(), buf);
        self.push(Op::Param(id), t)
    }

    /// Matrix–vector product.
    pub fn matvec(&mut self, w: VarId, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let wv = &self.nodes[w.0].value;
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), 1, "matvec rhs must be a column vector");
        assert_eq!(wv.cols(), xv.rows(), "matvec shape mismatch");
        buf.resize(wv.rows(), 0.0);
        crate::tensor::matmul_kernel(wv.data(), xv.data(), (wv.rows(), wv.cols(), 1), &mut buf);
        let v = Tensor::from_vec(wv.rows(), 1, buf);
        self.push(Op::MatVec(w, x), v)
    }

    /// Batched matrix product `W X`: every column of `X` is one sample or
    /// node, and column `j` of the result is bit-identical to
    /// `matvec(w, column j)`.
    pub fn matmul(&mut self, w: VarId, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let wv = &self.nodes[w.0].value;
        let xv = &self.nodes[x.0].value;
        assert_eq!(wv.cols(), xv.rows(), "matmul shape mismatch");
        buf.resize(wv.rows() * xv.cols(), 0.0);
        crate::tensor::matmul_kernel(
            wv.data(),
            xv.data(),
            (wv.rows(), wv.cols(), xv.cols()),
            &mut buf,
        );
        let v = Tensor::from_vec(wv.rows(), xv.cols(), buf);
        self.push(Op::MatMul(w, x), v)
    }

    fn zip_op(&mut self, a: VarId, b: VarId, op: Op, f: impl Fn(f64, f64) -> f64) -> VarId {
        let mut buf = self.take_buf();
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(
            (av.rows(), av.cols()),
            (bv.rows(), bv.cols()),
            "shape mismatch"
        );
        buf.extend(av.data().iter().zip(bv.data()).map(|(&x, &y)| f(x, y)));
        let v = Tensor::from_vec(av.rows(), av.cols(), buf);
        self.push(op, v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip_op(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Adds a bias column to every column of a batched matrix:
    /// `out[r, j] = x[r, j] + b[r]`. Column `j` is bit-identical to
    /// `add(column j, b)`.
    pub fn add_cols(&mut self, x: VarId, b: VarId) -> VarId {
        let mut buf = self.take_buf();
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(bv.cols(), 1, "add_cols bias must be a column vector");
        assert_eq!(xv.rows(), bv.rows(), "add_cols shape mismatch");
        for (row, &bias) in xv.data().chunks_exact(xv.cols().max(1)).zip(bv.data()) {
            buf.extend(row.iter().map(|&v| v + bias));
        }
        let v = Tensor::from_vec(xv.rows(), xv.cols(), buf);
        self.push(Op::AddCols(x, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip_op(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip_op(a, b, Op::Hadamard(a, b), |x, y| x * y)
    }

    /// Broadcast scalar × vector.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not 1×1.
    pub fn scale(&mut self, s: VarId, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let k = self.nodes[s.0].value.item();
        let xv = &self.nodes[x.0].value;
        buf.extend(xv.data().iter().map(|&v| v * k));
        let v = Tensor::from_vec(xv.rows(), xv.cols(), buf);
        self.push(Op::Scale(s, x), v)
    }

    /// Column-wise gating of a batched matrix: `out[r, j] = x[r, j] *
    /// nu[j]` with `nu` an n×1 vector of per-column scalars. Column `j`
    /// is bit-identical to `scale(nu[j], column j)`.
    pub fn scale_cols(&mut self, nu: VarId, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let nuv = &self.nodes[nu.0].value;
        let xv = &self.nodes[x.0].value;
        assert_eq!(nuv.cols(), 1, "scale_cols gate must be a column vector");
        assert_eq!(nuv.rows(), xv.cols(), "scale_cols shape mismatch");
        for row in xv.data().chunks_exact(xv.cols().max(1)) {
            buf.extend(row.iter().zip(nuv.data()).map(|(&v, &k)| v * k));
        }
        let v = Tensor::from_vec(xv.rows(), xv.cols(), buf);
        self.push(Op::ScaleCols(nu, x), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let src = &self.nodes[x.0].value;
        buf.extend(src.data().iter().map(|&v| v.max(0.0)));
        let v = Tensor::from_vec(src.rows(), src.cols(), buf);
        self.push(Op::Relu(x), v)
    }

    /// Guarded elementwise reciprocal (1 where the input is ~0).
    pub fn recip(&mut self, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let src = &self.nodes[x.0].value;
        buf.extend(
            src.data()
                .iter()
                .map(|&v| if v.abs() < RECIP_EPS { 1.0 } else { 1.0 / v }),
        );
        let v = Tensor::from_vec(src.rows(), src.cols(), buf);
        self.push(Op::Recip(x), v)
    }

    /// Vertical concatenation of column vectors.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or any part is not a column vector.
    pub fn concat(&mut self, parts: Vec<VarId>) -> VarId {
        assert!(!parts.is_empty(), "concat needs at least one part");
        let mut buf = self.take_buf();
        for &p in &parts {
            let t = &self.nodes[p.0].value;
            assert_eq!(t.cols(), 1, "concat parts must be column vectors");
            buf.extend_from_slice(t.data());
        }
        let v = Tensor::vector(buf);
        self.push(Op::Concat(parts), v)
    }

    /// Elementwise mean over same-shaped vectors.
    pub fn pool_mean(&mut self, parts: Vec<VarId>) -> VarId {
        let v = self.pool_value(&parts, Pool::Mean);
        self.push(Op::PoolMean(parts), v)
    }

    /// Elementwise max over same-shaped vectors.
    pub fn pool_max(&mut self, parts: Vec<VarId>) -> VarId {
        let v = self.pool_value(&parts, Pool::Max);
        self.push(Op::PoolMax(parts), v)
    }

    /// Elementwise min over same-shaped vectors.
    pub fn pool_min(&mut self, parts: Vec<VarId>) -> VarId {
        let v = self.pool_value(&parts, Pool::Min);
        self.push(Op::PoolMin(parts), v)
    }

    /// Elementwise sum over same-shaped vectors.
    pub fn pool_sum(&mut self, parts: Vec<VarId>) -> VarId {
        let v = self.pool_value(&parts, Pool::Sum);
        self.push(Op::PoolSum(parts), v)
    }

    /// Fused neighbourhood aggregation over a whole layer: for each
    /// consumer `j` of `adj`, pools the source columns named by its
    /// neighbour list and stacks `[mean; max; min]` into a `3h × n`
    /// output. Consumers without neighbours get a zero column. Column `j`
    /// is bit-identical to the historical
    /// `concat(pool_mean, pool_max, pool_min)` over the same columns.
    ///
    /// # Panics
    ///
    /// Panics if a neighbour index is out of range for `src`'s columns.
    pub fn gather_pool(&mut self, src: VarId, adj: &CsrAdjacency) -> VarId {
        let mut buf = self.take_buf();
        let srcv = &self.nodes[src.0].value;
        let h = srcv.rows();
        let n_out = adj.consumer_count();
        buf.resize(3 * h * n_out, 0.0);
        gather_pool_forward(srcv, adj.view(), &mut buf);
        let v = Tensor::from_vec(3 * h, n_out, buf);
        self.push(
            Op::GatherPool {
                src,
                adj: adj.clone(),
            },
            v,
        )
    }

    /// Squared error of a 1×1 prediction against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if `pred` is not 1×1.
    pub fn squared_error(&mut self, pred: VarId, target: f64) -> VarId {
        let d = self.nodes[pred.0].value.item() - target;
        self.push(Op::SquaredError(pred, target), Tensor::scalar(d * d))
    }

    /// Summed squared error of a 1×n prediction row against per-column
    /// targets, times `scale`: `scale * Σ_j (pred[j] - targets[j])²`.
    /// With ascending-`j` summation this matches the historical
    /// per-sample `squared_error` + `pool_sum` + `scale` chain bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics unless `pred` is a row whose width equals `targets.len()`.
    pub fn row_squared_error(&mut self, pred: VarId, targets: Arc<[f64]>, scale: f64) -> VarId {
        let pv = &self.nodes[pred.0].value;
        assert_eq!(pv.rows(), 1, "row_squared_error expects a 1×n row");
        assert_eq!(
            pv.cols(),
            targets.len(),
            "row_squared_error target count mismatch"
        );
        let mut acc = 0.0;
        for (&p, &t) in pv.data().iter().zip(targets.iter()) {
            let d = p - t;
            acc += d * d;
        }
        let v = Tensor::scalar(acc * scale);
        self.push(
            Op::RowSse {
                pred,
                targets,
                scale,
            },
            v,
        )
    }

    fn pool_value(&mut self, parts: &[VarId], pool: Pool) -> Tensor {
        assert!(!parts.is_empty(), "pooling needs at least one part");
        let mut buf = self.take_buf();
        let first = &self.nodes[parts[0].0].value;
        let (rows, cols) = (first.rows(), first.cols());
        buf.extend_from_slice(first.data());
        for &p in &parts[1..] {
            let t = &self.nodes[p.0].value;
            assert_eq!((t.rows(), t.cols()), (rows, cols), "pool shape mismatch");
            for (o, &v) in buf.iter_mut().zip(t.data()) {
                match pool {
                    Pool::Mean | Pool::Sum => *o += v,
                    Pool::Max => *o = o.max(v),
                    Pool::Min => *o = o.min(v),
                }
            }
        }
        if pool == Pool::Mean {
            let k = 1.0 / parts.len() as f64;
            for o in &mut buf {
                *o *= k;
            }
        }
        Tensor::from_vec(rows, cols, buf)
    }

    /// Runs the backward pass from `loss` (which must be 1×1), adding
    /// parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a 1×1 var.
    pub fn backward(&mut self, loss: VarId, store: &mut ParamStore) {
        self.backward_impl(loss, &mut GradSink::Store(store));
    }

    /// Like [`Self::backward`], but accumulates parameter gradients into
    /// a detached [`ParamGrads`] sink instead of the store. The parallel
    /// trainer gives each micro-batch unit its own sink and reduces them
    /// in ascending unit order, which is what keeps multi-threaded
    /// training bit-identical to sequential.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a 1×1 var.
    pub fn backward_into(&mut self, loss: VarId, sink: &mut ParamGrads) {
        self.backward_impl(loss, &mut GradSink::Grads(sink));
    }

    fn backward_impl(&mut self, loss: VarId, sink: &mut GradSink<'_>) {
        assert_eq!(self.nodes[loss.0].value.len(), 1, "loss must be scalar");
        let mut grads = std::mem::take(&mut self.grad_scratch);
        if grads.len() < self.nodes.len() {
            grads.resize(self.nodes.len(), Tensor::zeros(0, 0));
        }
        for (slot, n) in grads.iter_mut().zip(&self.nodes) {
            slot.reset_zeroed(n.value.rows(), n.value.cols());
        }
        grads[loss.0].data_mut()[0] = 1.0;
        for i in (0..self.nodes.len()).rev() {
            if grads[i].norm() == 0.0 {
                continue;
            }
            let mut gbuf = self.pool.pop().unwrap_or_default();
            gbuf.clear();
            gbuf.extend_from_slice(grads[i].data());
            let g = Tensor::from_vec(grads[i].rows(), grads[i].cols(), gbuf);
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(pid) => sink.accumulate(*pid, &g),
                Op::MatVec(w, x) => {
                    let wv = &self.nodes[w.0].value;
                    let xv = &self.nodes[x.0].value;
                    grads[w.0].add_assign(&g.outer(xv));
                    grads[x.0].add_assign(&wv.t_matvec(&g));
                }
                Op::MatMul(w, x) => {
                    let wv = &self.nodes[w.0].value;
                    let xv = &self.nodes[x.0].value;
                    // dW = G Xᵀ, dX = Wᵀ G, accumulated in place.
                    grads[w.0].matmul_t_acc(&g, xv);
                    grads[x.0].t_matmul_acc(wv, &g);
                }
                Op::Add(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g);
                }
                Op::AddCols(x, b) => {
                    grads[x.0].add_assign(&g);
                    // db[r] = Σ_j g[r, j], ascending j.
                    let db = grads[b.0].data_mut();
                    for (slot, row) in db.iter_mut().zip(g.data().chunks_exact(g.cols().max(1))) {
                        let mut acc = 0.0;
                        for &v in row {
                            acc += v;
                        }
                        *slot += acc;
                    }
                }
                Op::Sub(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g.scale(-1.0));
                }
                Op::Hadamard(a, b) => {
                    let av = self.nodes[a.0].value.clone();
                    let bv = self.nodes[b.0].value.clone();
                    grads[a.0].add_assign(&g.hadamard(&bv));
                    grads[b.0].add_assign(&g.hadamard(&av));
                }
                Op::Scale(s, x) => {
                    let k = self.nodes[s.0].value.item();
                    let xv = &self.nodes[x.0].value;
                    let ds = g.hadamard(xv).sum();
                    grads[s.0].add_assign(&Tensor::scalar(ds));
                    grads[x.0].add_assign(&g.scale(k));
                }
                Op::ScaleCols(nu, x) => {
                    let nuv = &self.nodes[nu.0].value;
                    let xv = &self.nodes[x.0].value;
                    let cols = xv.cols();
                    // dnu[j] = Σ_r g[r, j] x[r, j], ascending r — the same
                    // reduction scale's `g.hadamard(x).sum()` performs on
                    // one column.
                    {
                        let dnu = grads[nu.0].data_mut();
                        for (j, slot) in dnu.iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for r in 0..xv.rows() {
                                acc += g.data()[r * cols + j] * xv.data()[r * cols + j];
                            }
                            *slot += acc;
                        }
                    }
                    // dx[r, j] = g[r, j] * nu[j].
                    let dx = grads[x.0].data_mut();
                    for (orow, grow) in dx
                        .chunks_exact_mut(cols.max(1))
                        .zip(g.data().chunks_exact(cols.max(1)))
                    {
                        for ((o, &gv), &k) in orow.iter_mut().zip(grow).zip(nuv.data()) {
                            *o += gv * k;
                        }
                    }
                }
                Op::Relu(x) => {
                    let xv = &self.nodes[x.0].value;
                    let masked = Tensor::from_vec(
                        g.rows(),
                        g.cols(),
                        g.data()
                            .iter()
                            .zip(xv.data())
                            .map(|(&gv, &v)| if v > 0.0 { gv } else { 0.0 })
                            .collect(),
                    );
                    grads[x.0].add_assign(&masked);
                }
                Op::Recip(x) => {
                    let xv = &self.nodes[x.0].value;
                    let dx = Tensor::from_vec(
                        g.rows(),
                        g.cols(),
                        g.data()
                            .iter()
                            .zip(xv.data())
                            .map(|(&gv, &v)| {
                                if v.abs() < RECIP_EPS {
                                    0.0
                                } else {
                                    -gv / (v * v)
                                }
                            })
                            .collect(),
                    );
                    grads[x.0].add_assign(&dx);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let len = self.nodes[p.0].value.len();
                        let slice = Tensor::vector(g.data()[offset..offset + len].to_vec());
                        grads[p.0].add_assign(&slice);
                        offset += len;
                    }
                }
                Op::PoolMean(parts) => {
                    let share = g.scale(1.0 / parts.len() as f64);
                    for &p in parts {
                        grads[p.0].add_assign(&share);
                    }
                }
                Op::PoolSum(parts) => {
                    for &p in parts {
                        grads[p.0].add_assign(&g);
                    }
                }
                Op::PoolMax(parts) => {
                    pool_extreme_backward(&self.nodes, parts, i, &g, &mut grads, true)
                }
                Op::PoolMin(parts) => {
                    pool_extreme_backward(&self.nodes, parts, i, &g, &mut grads, false)
                }
                Op::GatherPool { src, adj } => {
                    let srcv = &self.nodes[src.0].value;
                    let out = &self.nodes[i].value;
                    let h = srcv.rows();
                    let n_src = srcv.cols();
                    let n_out = adj.consumer_count();
                    let dsrc = grads[src.0].data_mut();
                    // Consumers descending, and min → max → mean within a
                    // consumer: the reverse-tape order of the historical
                    // per-node pool_mean / pool_max / pool_min ops.
                    for j in (0..n_out).rev() {
                        let neigh = adj.neighbors(j);
                        if neigh.is_empty() {
                            continue;
                        }
                        for k in 0..h {
                            let target = out.get(2 * h + k, j);
                            for &u in neigh {
                                if srcv.get(k, u as usize) <= target {
                                    dsrc[k * n_src + u as usize] += g.get(2 * h + k, j);
                                    break;
                                }
                            }
                        }
                        for k in 0..h {
                            let target = out.get(h + k, j);
                            for &u in neigh {
                                if srcv.get(k, u as usize) >= target {
                                    dsrc[k * n_src + u as usize] += g.get(h + k, j);
                                    break;
                                }
                            }
                        }
                        let inv = 1.0 / neigh.len() as f64;
                        for &u in neigh {
                            for k in 0..h {
                                dsrc[k * n_src + u as usize] += g.get(k, j) * inv;
                            }
                        }
                    }
                }
                Op::SquaredError(x, target) => {
                    let d = self.nodes[x.0].value.item() - target;
                    grads[x.0].add_assign(&Tensor::scalar(2.0 * d * g.item()));
                }
                Op::RowSse {
                    pred,
                    targets,
                    scale,
                } => {
                    let pv = &self.nodes[pred.0].value;
                    let gs = g.item() * scale;
                    let dp = grads[pred.0].data_mut();
                    for ((o, &p), &t) in dp.iter_mut().zip(pv.data()).zip(targets.iter()) {
                        let d = p - t;
                        *o += 2.0 * d * gs;
                    }
                }
            }
            self.pool.push(g.into_data());
        }
        self.grad_scratch = grads;
    }
}

/// Routes max/min-pool gradients to the element that achieved the
/// extremum (first wins on ties).
fn pool_extreme_backward(
    nodes: &[Node],
    parts: &[VarId],
    out_idx: usize,
    g: &Tensor,
    grads: &mut [Tensor],
    is_max: bool,
) {
    let out = &nodes[out_idx].value;
    for k in 0..out.len() {
        let target = out.data()[k];
        for &p in parts {
            let v = nodes[p.0].value.data()[k];
            let hit = if is_max { v >= target } else { v <= target };
            if hit {
                grads[p.0].data_mut()[k] += g.data()[k];
                break;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Mean,
    Max,
    Min,
    Sum,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the gradient of `loss_fn` w.r.t. every
    /// weight of every parameter.
    fn check_grads(
        store: &mut ParamStore,
        params: &[ParamId],
        loss_fn: &dyn Fn(&mut Graph, &ParamStore) -> VarId,
    ) {
        // Analytic gradients.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = loss_fn(&mut g, store);
        g.backward(loss, store);
        let analytic: Vec<Tensor> = params.iter().map(|&p| store.grad(p).clone()).collect();

        let eps = 1e-5;
        for (pi, &p) in params.iter().enumerate() {
            for k in 0..store.value(p).len() {
                let orig = store.value(p).data()[k];
                let probe = |store: &ParamStore, w: f64| {
                    let mut s = store.clone();
                    let mut t = s.value(p).clone();
                    t.data_mut()[k] = w;
                    s.set_value(p, t);
                    let mut g = Graph::new();
                    let l = loss_fn(&mut g, &s);
                    g.value(l).item()
                };
                let numeric = (probe(store, orig + eps) - probe(store, orig - eps)) / (2.0 * eps);
                let got = analytic[pi].data()[k];
                assert!(
                    (numeric - got).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "param {pi} weight {k}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn matvec_and_mse_gradcheck() {
        let mut store = ParamStore::new(3);
        let w = store.alloc(2, 3);
        let r = store.alloc(1, 2);
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let rv = g.param(s, r);
            let x = g.input(Tensor::vector(vec![0.5, -1.0, 2.0]));
            let h = g.matvec(wv, x);
            let h = g.relu(h);
            let y = g.matvec(rv, h);
            g.squared_error(y, 1.5)
        };
        check_grads(&mut store, &[w, r], &loss_fn);
    }

    #[test]
    fn pooling_gradcheck() {
        let mut store = ParamStore::new(5);
        let w = store.alloc(2, 6);
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let a = g.input(Tensor::vector(vec![1.0, 2.0]));
            let b = g.input(Tensor::vector(vec![-1.0, 4.0]));
            let c = g.input(Tensor::vector(vec![0.5, -3.0]));
            let mean = g.pool_mean(vec![a, b, c]);
            let max = g.pool_max(vec![a, b, c]);
            let min = g.pool_min(vec![a, b, c]);
            let cat = g.concat(vec![mean, max, min]);
            let h = g.matvec(wv, cat);
            let s2 = g.pool_sum(vec![h]);
            let first = g.input(Tensor::from_vec(1, 2, vec![1.0, 1.0]));
            let y = g.matvec(first, s2);
            g.squared_error(y, 0.3)
        };
        check_grads(&mut store, &[w], &loss_fn);
    }

    #[test]
    fn recip_scale_hadamard_gradcheck() {
        let mut store = ParamStore::new(8);
        let w = store.alloc(1, 2);
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let x = g.input(Tensor::vector(vec![2.0, -0.5]));
            let r = g.recip(x);
            let sc = g.matvec(wv, r); // scalar
            let y0 = g.input(Tensor::vector(vec![1.0, 3.0]));
            let scaled = g.scale(sc, y0);
            let h = g.hadamard(scaled, y0);
            let ones = g.input(Tensor::from_vec(1, 2, vec![1.0, 1.0]));
            let y = g.matvec(ones, h);
            g.squared_error(y, -0.2)
        };
        check_grads(&mut store, &[w], &loss_fn);
    }

    #[test]
    fn recip_guard_at_zero() {
        let mut g = Graph::new();
        let x = g.input(Tensor::vector(vec![0.0, 2.0]));
        let r = g.recip(x);
        assert_eq!(g.value(r).data(), &[1.0, 0.5]);
    }

    #[test]
    fn sub_backward() {
        let mut store = ParamStore::new(2);
        let w = store.alloc(1, 2);
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let a = g.input(Tensor::vector(vec![1.0, 2.0]));
            let b = g.input(Tensor::vector(vec![3.0, -1.0]));
            let d = g.sub(a, b);
            let y = g.matvec(wv, d);
            g.squared_error(y, 0.0)
        };
        check_grads(&mut store, &[w], &loss_fn);
    }

    #[test]
    fn value_access() {
        let mut g = Graph::new();
        let a = g.input(Tensor::scalar(2.0));
        let b = g.input(Tensor::scalar(3.0));
        let c = g.add(a, b);
        assert_eq!(g.value(c).item(), 5.0);
        assert_eq!(g.len(), 3);
    }

    fn batch_input() -> Tensor {
        Tensor::from_vec(3, 4, (0..12).map(|i| 0.3 - f64::from(i) * 0.17).collect())
    }

    #[test]
    fn matmul_and_row_sse_gradcheck() {
        let mut store = ParamStore::new(6);
        let w = store.alloc(2, 3);
        let r = store.alloc(1, 2);
        let targets: Arc<[f64]> = vec![0.4, -0.9, 1.3, 0.0].into();
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let rv = g.param(s, r);
            let x = g.input(batch_input());
            let h = g.matmul(wv, x);
            let h = g.relu(h);
            let p = g.matmul(rv, h);
            g.row_squared_error(p, targets.clone(), 0.25)
        };
        check_grads(&mut store, &[w, r], &loss_fn);
    }

    #[test]
    fn add_cols_scale_cols_gradcheck() {
        let mut store = ParamStore::new(9);
        let w = store.alloc(2, 3);
        let b = store.alloc(2, 1);
        let nu = store.alloc(4, 1);
        let r = store.alloc(1, 2);
        let targets: Arc<[f64]> = vec![1.0, 0.0, -0.5, 2.0].into();
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let bv = g.param(s, b);
            let nuv = g.param(s, nu);
            let rv = g.param(s, r);
            let x = g.input(batch_input());
            let h = g.matmul(wv, x);
            let h = g.add_cols(h, bv);
            let h = g.relu(h);
            let h = g.scale_cols(nuv, h);
            let p = g.matmul(rv, h);
            g.row_squared_error(p, targets.clone(), 1.0)
        };
        check_grads(&mut store, &[w, b, nu, r], &loss_fn);
    }

    #[test]
    fn gather_pool_gradcheck() {
        let mut store = ParamStore::new(12);
        let w = store.alloc(2, 3);
        let r = store.alloc(1, 6);
        // Mixed degrees including an isolated consumer and a repeated
        // neighbour, to exercise tie routing and the zero column.
        let adj = CsrAdjacency::from_neighbors(&[
            vec![1, 2],
            vec![0],
            vec![],
            vec![0, 1, 2, 3],
            vec![3, 3],
        ]);
        let targets: Arc<[f64]> = vec![0.2, -0.4, 0.0, 1.1, -0.6].into();
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let rv = g.param(s, r);
            let x = g.input(Tensor::from_vec(
                3,
                5,
                (0..15).map(|i| 0.2 + f64::from(i) * 0.23).collect(),
            ));
            let m = g.matmul(wv, x);
            let pooled = g.gather_pool(m, &adj);
            let p = g.matmul(rv, pooled);
            g.row_squared_error(p, targets.clone(), 0.2)
        };
        check_grads(&mut store, &[w, r], &loss_fn);
    }

    /// The batched ops must reproduce the scalar per-column ops bit for
    /// bit — this is the numeric contract that lets the models switch to
    /// batched forwards "without changing any numeric result".
    #[test]
    fn batched_ops_match_scalar_ops_bitwise() {
        let mut store = ParamStore::new(21);
        let w = store.alloc(2, 3);
        let b = store.alloc(2, 1);
        let x = batch_input();
        let nu_vals = [0.7, -1.3, 0.25, 2.0];

        let mut gb = Graph::new();
        let wv = gb.param(&store, w);
        let bv = gb.param(&store, b);
        let xv = gb.input(x.clone());
        let nuv = gb.input(Tensor::vector(nu_vals.to_vec()));
        let h = gb.matmul(wv, xv);
        let h = gb.add_cols(h, bv);
        let h = gb.relu(h);
        let h = gb.scale_cols(nuv, h);
        let batched = gb.value(h).clone();

        for j in 0..x.cols() {
            let mut gs = Graph::new();
            let wv = gs.param(&store, w);
            let bv = gs.param(&store, b);
            let xj = gs.input(x.column(j));
            let nuj = gs.input(Tensor::scalar(nu_vals[j]));
            let h = gs.matvec(wv, xj);
            let h = gs.add(h, bv);
            let h = gs.relu(h);
            let h = gs.scale(nuj, h);
            assert_eq!(batched.column(j).data(), gs.value(h).data());
        }
    }

    #[test]
    fn gather_pool_matches_pool_concat_bitwise() {
        let src = Tensor::from_vec(2, 4, (0..8).map(|i| 0.5 - f64::from(i) * 0.41).collect());
        let neighbors: Vec<Vec<usize>> = vec![vec![1, 3, 0], vec![2], vec![], vec![0, 1]];
        let adj = CsrAdjacency::from_neighbors(&neighbors);

        let mut gb = Graph::new();
        let s = gb.input(src.clone());
        let pooled = gb.gather_pool(s, &adj);
        let batched = gb.value(pooled).clone();

        for (j, ns) in neighbors.iter().enumerate() {
            let mut gs = Graph::new();
            let expected = if ns.is_empty() {
                Tensor::zeros(6, 1)
            } else {
                let cols: Vec<VarId> = ns.iter().map(|&u| gs.input(src.column(u))).collect();
                let mean = gs.pool_mean(cols.clone());
                let max = gs.pool_max(cols.clone());
                let min = gs.pool_min(cols);
                let cat = gs.concat(vec![mean, max, min]);
                gs.value(cat).clone()
            };
            assert_eq!(batched.column(j).data(), expected.data());
        }
    }

    #[test]
    fn row_sse_matches_sum_of_squared_errors_bitwise() {
        let preds = Tensor::from_vec(1, 3, vec![0.31, -1.7, 2.9]);
        let targets = [0.5, -2.0, 3.0];

        let mut ga = Graph::new();
        let p = ga.input(preds.clone());
        let loss = ga.row_squared_error(p, targets.to_vec().into(), 1.0 / 3.0);

        let mut gb = Graph::new();
        let errs: Vec<VarId> = (0..3)
            .map(|j| {
                let pj = gb.input(Tensor::scalar(preds.get(0, j)));
                gb.squared_error(pj, targets[j])
            })
            .collect();
        let sum = gb.pool_sum(errs);
        let k = gb.input(Tensor::scalar(1.0 / 3.0));
        let scaled = gb.scale(k, sum);
        assert_eq!(ga.value(loss).item(), gb.value(scaled).item());
    }

    #[test]
    fn reset_reuses_tape_and_preserves_results() {
        let mut store = ParamStore::new(4);
        let w = store.alloc(2, 2);
        let mut g = Graph::new();
        let mut runs = Vec::new();
        for round in 0..3 {
            g.reset();
            assert!(g.is_empty());
            let wv = g.param(&store, w);
            let x = g.input(Tensor::vector(vec![1.0 + f64::from(round), -0.5]));
            let h = g.matvec(wv, x);
            let loss = g.squared_error_sum(h);
            runs.push(g.value(loss).item());
            store.zero_grads();
            g.backward(loss, &mut store);
        }
        // Same weights, different inputs: finite and distinct results.
        assert!(runs.iter().all(|v| v.is_finite()));
        assert_ne!(runs[0], runs[1]);

        // Re-running round 0's input after resets reproduces it exactly.
        g.reset();
        let wv = g.param(&store, w);
        let x = g.input(Tensor::vector(vec![1.0, -0.5]));
        let h = g.matvec(wv, x);
        let loss = g.squared_error_sum(h);
        assert_eq!(g.value(loss).item(), runs[0]);
    }

    impl Graph {
        /// Test helper: reduce a column vector to a scalar loss.
        fn squared_error_sum(&mut self, h: VarId) -> VarId {
            let n = self.value(h).rows();
            let ones = self.input(Tensor::from_vec(1, n, vec![1.0; n]));
            let y = self.matvec(ones, h);
            self.squared_error(y, 0.0)
        }
    }

    #[test]
    fn backward_into_matches_backward() {
        let mut store = ParamStore::new(5);
        let w = store.alloc(2, 3);
        let r = store.alloc(1, 2);
        let build = |g: &mut Graph, s: &ParamStore| {
            let wv = g.param(s, w);
            let rv = g.param(s, r);
            let x = g.input(batch_input());
            let h = g.matmul(wv, x);
            let p = g.matmul(rv, h);
            g.row_squared_error(p, vec![0.0; 4].into(), 1.0)
        };

        store.zero_grads();
        let mut g1 = Graph::new();
        let l1 = build(&mut g1, &store);
        g1.backward(l1, &mut store);

        let mut sink = ParamGrads::zeros_like(&store);
        let mut g2 = Graph::new();
        let l2 = build(&mut g2, &store);
        g2.backward_into(l2, &mut sink);

        for &p in &[w, r] {
            assert_eq!(store.grad(p).data(), sink.grad(p).data());
        }
    }
}
