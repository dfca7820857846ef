//! Reverse-mode automatic differentiation over a dynamically built tape.
//!
//! Each forward pass builds a [`Graph`] (define-by-run, like PyTorch):
//! every operation appends a node holding its output value and the
//! information backward needs. [`Graph::backward_into`] then walks the
//! tape in reverse, accumulating gradients into intermediate nodes and —
//! for parameter leaves — into a detached [`ParamGrads`] sink, one per
//! micro-batch unit in the deterministic trainer.
//!
//! **Arena reuse** shapes the tape's throughput: [`Graph::reset`] clears
//! the tape but keeps every backing buffer in an internal free pool, so a
//! training loop reuses one graph's allocations across all samples and
//! epochs instead of reallocating per sample. Backward likewise keeps its
//! per-node gradient scratch between calls.
//!
//! The tape exists for training. Each label network writes its forward
//! once over the crate's op vocabulary (`ops::Ops`); training runs it on
//! this tape and `compile()` runs it on a plan builder, so inference on a
//! compiled plan is bit-identical to the training forward.
//!
//! The op set is exactly what the paper's label networks (Eq. 1–7) use,
//! all batched with one column per sample or node: the matrix product,
//! elementwise and bias-column addition, ReLU, column gating, the fused
//! (mean, max, min) gather-and-pool over a CSR adjacency (Eq. 1), the
//! spatial net's ν gate (Eq. 5), and the summed squared-error loss.

use std::sync::Arc;

use crate::tensor::matmul_kernel;
use crate::{ParamGrads, ParamId, ParamStore, Tensor};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(usize);

/// A node-to-neighbours adjacency in compressed sparse row form, shared
/// cheaply (two `Arc` clones) between tape ops and across epochs.
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
        fill_csr(neighbors, &mut offsets, &mut indices);
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

/// Refills caller-owned `offsets`/`indices` with the CSR form of a
/// neighbour-list adjacency. [`CsrAdjacency::from_neighbors`] fills fresh
/// vectors; compiled plans refill scratch-owned ones, so a warm scratch
/// builds the adjacency without allocating.
///
/// # Panics
///
/// Panics if an index exceeds `u32::MAX`.
pub(crate) fn fill_csr(neighbors: &[Vec<usize>], offsets: &mut Vec<u32>, indices: &mut Vec<u32>) {
    offsets.clear();
    indices.clear();
    offsets.push(0);
    for ns in neighbors {
        for &u in ns {
            indices.push(u32::try_from(u).expect("neighbor index overflows u32"));
        }
        offsets.push(u32::try_from(indices.len()).expect("adjacency overflows u32"));
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
    /// `W X` with `X` a column-stacked batch.
    MatMul(VarId, VarId),
    Add(VarId, VarId),
    /// `X + b` broadcasting the column vector `b` over every column.
    AddCols(VarId, VarId),
    /// Column-wise gating: column `j` of `x` scaled by `nu[j]`.
    ScaleCols(VarId, VarId),
    Relu(VarId),
    /// Fused per-consumer (mean, max, min) pooling of source columns
    /// selected through a CSR adjacency; stacks the three poolings
    /// vertically. Consumers without neighbours get a zero column.
    GatherPool {
        src: VarId,
        adj: CsrAdjacency,
    },
    /// Eq. 5's gate `nu[j] = w · recips[j]`; `recips` is the constant
    /// input node holding each sample's reciprocal aggregate as a row
    /// (a zero row for an empty neighbourhood, whose ν is the constant 1).
    NuGate {
        w: VarId,
        recips: VarId,
    },
    /// `scale * Σ_j (pred[j] - targets[j])^2` over a 1×n prediction row.
    RowSse {
        pred: VarId,
        targets: Arc<[f64]>,
        scale: f64,
    },
}

/// Below this magnitude a pooled denominator counts as zero and its
/// reciprocal is replaced by 1 (the paper sets the normalisation factor
/// to one on zero denominators, §IV-B).
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
    // shape math. Per output element the first neighbor's value seeds
    // sum/max/min, the rest fold in list order, and the mean multiplies
    // by one `1/len` reciprocal.
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

/// Forward fill of [`Graph::nu_gate`] (Eq. 5): for each sample `j`,
/// pools the neighbour attribute vectors of `hoods[j]` into
/// `[mean; sum; max; min]`, replaces every element by its guarded
/// reciprocal (1 where `|v| <` [`RECIP_EPS`]), stores that aggregate as
/// row `j` of `recips` (`hoods.len() × w_nu.len()`), and writes the gate
/// `out[j] = w_nu · recips[j]`. An empty neighbourhood gets ν = 1 and a
/// zero row. Every element of `recips` and `out` is written.
///
/// Shared by the tape op and the compiled inference plans so the two
/// paths stay bit-identical.
///
/// # Panics
///
/// Panics if a neighbour's dimension is not `w_nu.len() / 4`.
pub(crate) fn nu_gate_forward(
    w_nu: &[f64],
    hoods: &[&[Vec<f64>]],
    recips: &mut [f64],
    out: &mut [f64],
) {
    let width = w_nu.len();
    let d = width / 4;
    debug_assert_eq!(recips.len(), width * hoods.len());
    debug_assert_eq!(out.len(), hoods.len());
    for ((hood, row), nu) in hoods.iter().zip(recips.chunks_exact_mut(width)).zip(out) {
        let Some((first, rest)) = hood.split_first() else {
            row.fill(0.0);
            *nu = 1.0;
            continue;
        };
        assert_eq!(first.len(), d, "neighbour dimension mismatch");
        let (mean, tail) = row.split_at_mut(d);
        let (sum, tail) = tail.split_at_mut(d);
        let (max, min) = tail.split_at_mut(d);
        mean.copy_from_slice(first);
        sum.copy_from_slice(first);
        max.copy_from_slice(first);
        min.copy_from_slice(first);
        for a in rest {
            assert_eq!(a.len(), d, "neighbour dimension mismatch");
            for k in 0..d {
                let v = a[k];
                mean[k] += v;
                sum[k] += v;
                max[k] = max[k].max(v);
                min[k] = min[k].min(v);
            }
        }
        let inv = 1.0 / hood.len() as f64;
        for v in mean {
            *v *= inv;
        }
        for v in row.iter_mut() {
            *v = if v.abs() < RECIP_EPS { 1.0 } else { 1.0 / *v };
        }
        *nu = 0.0;
        matmul_kernel(w_nu, row, (1, width, 1), std::slice::from_mut(nu));
    }
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
}

/// A dynamically built computation graph.
///
/// # Example
///
/// ```
/// use lisa_gnn::{Graph, ParamGrads, ParamStore, Tensor};
///
/// let mut store = ParamStore::new(0);
/// let w = store.alloc_with(Tensor::from_vec(1, 2, vec![2.0, -1.0]));
/// let mut g = Graph::new();
/// let wv = g.param(&store, w);
/// let x = g.input(Tensor::vector(vec![3.0, 4.0]));
/// let y = g.matmul(wv, x); // 2*3 - 4 = 2
/// let loss = g.row_squared_error(y, vec![0.0].into(), 1.0); // 4
/// assert_eq!(g.value(loss).item(), 4.0);
/// let mut grads = ParamGrads::zeros_like(&store);
/// g.backward_into(loss, &mut grads);
/// // dL/dW = 2*(y-0) * x^T = [12, 16]
/// assert_eq!(grads.grad(w).data(), &[12.0, 16.0]);
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

    /// Batched matrix product `W X`: every column of `X` is one sample or
    /// node, and the reduction over the shared dimension runs in
    /// ascending order per output element.
    pub fn matmul(&mut self, w: VarId, x: VarId) -> VarId {
        let mut buf = self.take_buf();
        let wv = &self.nodes[w.0].value;
        let xv = &self.nodes[x.0].value;
        assert_eq!(wv.cols(), xv.rows(), "matmul shape mismatch");
        buf.resize(wv.rows() * xv.cols(), 0.0);
        matmul_kernel(
            wv.data(),
            xv.data(),
            (wv.rows(), wv.cols(), xv.cols()),
            &mut buf,
        );
        let v = Tensor::from_vec(wv.rows(), xv.cols(), buf);
        self.push(Op::MatMul(w, x), v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut buf = self.take_buf();
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(
            (av.rows(), av.cols()),
            (bv.rows(), bv.cols()),
            "shape mismatch"
        );
        buf.extend(av.data().iter().zip(bv.data()).map(|(&x, &y)| x + y));
        let v = Tensor::from_vec(av.rows(), av.cols(), buf);
        self.push(Op::Add(a, b), v)
    }

    /// Adds a bias column to every column of a batched matrix:
    /// `out[r, j] = x[r, j] + b[r]`.
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

    /// Column-wise gating of a batched matrix: `out[r, j] = x[r, j] *
    /// nu[j]` with `nu` an n×1 vector of per-column scalars.
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

    /// Fused neighbourhood aggregation over a whole layer: for each
    /// consumer `j` of `adj`, pools the source columns named by its
    /// neighbour list and stacks `[mean; max; min]` into a `3h × n`
    /// output. Consumers without neighbours get a zero column.
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

    /// The spatial net's Eq. 5 gate over a batch of edges: row `j` of the
    /// `B × 1` result is `w_nu · recip([mean; sum; max; min])` over the
    /// attribute vectors of `hoods[j]`, or 1 for an empty neighbourhood.
    /// Neighbourhoods are constants; gradient flows only into `w_nu`.
    ///
    /// # Panics
    ///
    /// Panics unless `w_nu` is `1 × 4d` with `d > 0` and every neighbour
    /// has `d` attributes.
    pub fn nu_gate(&mut self, w_nu: VarId, hoods: &[&[Vec<f64>]]) -> VarId {
        let (rows, width) = {
            let wv = &self.nodes[w_nu.0].value;
            (wv.rows(), wv.cols())
        };
        assert!(
            rows == 1 && width > 0 && width % 4 == 0,
            "nu_gate weight must be 1×4d"
        );
        let mut recips = self.take_buf();
        recips.resize(hoods.len() * width, 0.0);
        let mut out = self.take_buf();
        out.resize(hoods.len(), 0.0);
        nu_gate_forward(
            self.nodes[w_nu.0].value.data(),
            hoods,
            &mut recips,
            &mut out,
        );
        let recips = self.input(Tensor::from_vec(hoods.len(), width, recips));
        self.push(
            Op::NuGate { w: w_nu, recips },
            Tensor::from_vec(hoods.len(), 1, out),
        )
    }

    /// Summed squared error of a 1×n prediction row against per-column
    /// targets, times `scale`: `scale * Σ_j (pred[j] - targets[j])²`,
    /// summed in ascending `j`.
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

    /// Runs the backward pass from `loss` (which must be 1×1), adding
    /// parameter gradients into `sink`. The trainer re-zeroes the sink
    /// for each micro-batch unit and adds it to the store in ascending
    /// unit order, the summation tree the pinned weights rest on.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a 1×1 var.
    pub fn backward_into(&mut self, loss: VarId, sink: &mut ParamGrads) {
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
                Op::ScaleCols(nu, x) => {
                    let nuv = &self.nodes[nu.0].value;
                    let xv = &self.nodes[x.0].value;
                    let cols = xv.cols();
                    // dnu[j] = Σ_r g[r, j] x[r, j], ascending r.
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
                Op::GatherPool { src, adj } => {
                    let srcv = &self.nodes[src.0].value;
                    let out = &self.nodes[i].value;
                    let h = srcv.rows();
                    let n_src = srcv.cols();
                    let n_out = adj.consumer_count();
                    let dsrc = grads[src.0].data_mut();
                    // Consumers descending, and min → max → mean within a
                    // consumer; max/min route to the first neighbour that
                    // attains the extremum.
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
                Op::NuGate { w, recips } => {
                    // dW = Σ_j g[j] recips[j], samples descending. A sample
                    // whose gate gradient or per-sample product is zero
                    // throughout (the whole row for an empty neighbourhood)
                    // contributes nothing and is skipped, the same test the
                    // loop above applies to every node.
                    let rv = &self.nodes[recips.0].value;
                    let dw = grads[w.0].data_mut();
                    let zero = |v: f64| v * v == 0.0;
                    for (j, row) in rv.data().chunks_exact(rv.cols()).enumerate().rev() {
                        let gj = g.data()[j];
                        if zero(gj) || row.iter().all(|&r| zero(gj * r)) {
                            continue;
                        }
                        for (o, &r) in dw.iter_mut().zip(row) {
                            *o += gj * r;
                        }
                    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the gradient of `loss_fn` w.r.t. every
    /// weight of every parameter.
    fn check_grads(
        store: &ParamStore,
        params: &[ParamId],
        loss_fn: &dyn Fn(&mut Graph, &ParamStore) -> VarId,
    ) {
        // Analytic gradients.
        let mut sink = ParamGrads::zeros_like(store);
        let mut g = Graph::new();
        let loss = loss_fn(&mut g, store);
        g.backward_into(loss, &mut sink);

        let eps = 1e-5;
        for (pi, &p) in params.iter().enumerate() {
            for k in 0..store.value(p).len() {
                let orig = store.value(p).data()[k];
                let probe = |w: f64| {
                    let mut s = store.clone();
                    let mut t = s.value(p).clone();
                    t.data_mut()[k] = w;
                    s.set_value(p, t);
                    let mut g = Graph::new();
                    let l = loss_fn(&mut g, &s);
                    g.value(l).item()
                };
                let numeric = (probe(orig + eps) - probe(orig - eps)) / (2.0 * eps);
                let got = sink.grad(p).data()[k];
                assert!(
                    (numeric - got).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "param {pi} weight {k}: numeric {numeric} vs analytic {got}"
                );
            }
        }
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
        check_grads(&store, &[w, r], &loss_fn);
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
        check_grads(&store, &[w, b, nu, r], &loss_fn);
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
        check_grads(&store, &[w, r], &loss_fn);
    }

    #[test]
    fn nu_gate_gradcheck() {
        let mut store = ParamStore::new(14);
        let w_nu = store.alloc(1, 8);
        let r = store.alloc(1, 2);
        // Multi-neighbour, empty, zero-sum (the reciprocal guard) and
        // single-neighbour neighbourhoods.
        let hoods: Vec<Vec<Vec<f64>>> = vec![
            vec![vec![1.0, 2.0], vec![0.5, -1.0], vec![1.5, 0.25]],
            vec![],
            vec![vec![3.0, -1.0], vec![-3.0, 1.0]],
            vec![vec![0.7, 0.2]],
        ];
        let targets: Arc<[f64]> = vec![0.3, -0.2, 1.0, 0.5].into();
        let loss_fn = move |g: &mut Graph, s: &ParamStore| {
            let refs: Vec<&[Vec<f64>]> = hoods.iter().map(Vec::as_slice).collect();
            let wv = g.param(s, w_nu);
            let rv = g.param(s, r);
            let nu = g.nu_gate(wv, &refs);
            let x = g.input(Tensor::from_vec(
                2,
                4,
                vec![0.5, -1.0, 2.0, 0.25, 1.5, 0.75, -0.5, 1.0],
            ));
            let h = g.scale_cols(nu, x);
            let p = g.matmul(rv, h);
            g.row_squared_error(p, targets.clone(), 0.5)
        };
        check_grads(&store, &[w_nu, r], &loss_fn);
    }

    /// The batched ops must reproduce plain per-column loops bit for bit:
    /// an ascending-`k` product chain from `+0.0`, then the bias, the
    /// ReLU clamp, and the gate, one element at a time.
    #[test]
    fn batched_ops_match_per_column_loops_bitwise() {
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
        let batched = gb.value(h);

        let (wt, bt) = (store.value(w), store.value(b));
        for (j, &nu) in nu_vals.iter().enumerate() {
            for r in 0..2 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += wt.get(r, k) * x.get(k, j);
                }
                let expected = (acc + bt.get(r, 0)).max(0.0) * nu;
                assert_eq!(batched.get(r, j).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn gather_pool_matches_plain_pooling_bitwise() {
        let src = Tensor::from_vec(2, 4, (0..8).map(|i| 0.5 - f64::from(i) * 0.41).collect());
        let neighbors: Vec<Vec<usize>> = vec![vec![1, 3, 0], vec![2], vec![], vec![0, 1]];
        let adj = CsrAdjacency::from_neighbors(&neighbors);

        let mut gb = Graph::new();
        let s = gb.input(src.clone());
        let pooled = gb.gather_pool(s, &adj);
        let batched = gb.value(pooled);

        for (j, ns) in neighbors.iter().enumerate() {
            for k in 0..2 {
                // Seed with the first neighbour, fold the rest in list
                // order, scale the mean once; no neighbours pool to 0.
                let (mut sum, mut max, mut min) = (0.0, 0.0, 0.0);
                if let Some((&first, rest)) = ns.split_first() {
                    (sum, max, min) = (src.get(k, first), src.get(k, first), src.get(k, first));
                    for &u in rest {
                        sum += src.get(k, u);
                        max = f64::max(max, src.get(k, u));
                        min = f64::min(min, src.get(k, u));
                    }
                    sum *= 1.0 / ns.len() as f64;
                }
                assert_eq!(batched.get(k, j).to_bits(), sum.to_bits());
                assert_eq!(batched.get(2 + k, j).to_bits(), max.to_bits());
                assert_eq!(batched.get(4 + k, j).to_bits(), min.to_bits());
            }
        }
    }

    #[test]
    fn row_sse_matches_plain_sum_bitwise() {
        let preds = [0.31, -1.7, 2.9];
        let targets = [0.5, -2.0, 3.0];

        let mut g = Graph::new();
        let p = g.input(Tensor::from_vec(1, 3, preds.to_vec()));
        let loss = g.row_squared_error(p, targets.to_vec().into(), 1.0 / 3.0);

        let sq = |j: usize| (preds[j] - targets[j]) * (preds[j] - targets[j]);
        let expected = (sq(0) + sq(1) + sq(2)) * (1.0 / 3.0);
        assert_eq!(g.value(loss).item().to_bits(), expected.to_bits());
    }

    #[test]
    fn reset_reuses_tape_and_preserves_results() {
        let mut store = ParamStore::new(4);
        let w = store.alloc(1, 2);
        let mut g = Graph::new();
        let mut runs = Vec::new();
        let mut sink = ParamGrads::zeros_like(&store);
        for round in 0..3 {
            g.reset();
            assert!(g.is_empty());
            let loss = linear_loss(&mut g, &store, w, 1.0 + f64::from(round));
            runs.push(g.value(loss).item());
            sink.reset_like(&store);
            g.backward_into(loss, &mut sink);
        }
        // Same weights, different inputs: finite and distinct results.
        assert!(runs.iter().all(|v| v.is_finite()));
        assert_ne!(runs[0], runs[1]);

        // Re-running round 0's input after resets reproduces it exactly.
        g.reset();
        let loss = linear_loss(&mut g, &store, w, 1.0);
        assert_eq!(g.value(loss).item(), runs[0]);
    }

    /// Test helper: the squared value of `w · [x0, -0.5]`.
    fn linear_loss(g: &mut Graph, store: &ParamStore, w: ParamId, x0: f64) -> VarId {
        let wv = g.param(store, w);
        let x = g.input(Tensor::vector(vec![x0, -0.5]));
        let y = g.matmul(wv, x);
        g.row_squared_error(y, vec![0.0].into(), 1.0)
    }
}
