//! Compiled inference plans: tape-free forward execution of trained
//! label networks.
//!
//! [`crate::Graph`] is a define-by-run tape built for training: every
//! forward re-dispatches through op construction, copies each parameter
//! out of the [`ParamStore`], and journals ops for backward. Inference
//! does not need any of that, so a compiled plan freezes a trained model
//! instead: `compile()` snapshots the weights into plain [`Tensor`]s and
//! lowers the forward pass to a flat op sequence over numbered scratch
//! buffers. Executing the plan walks the sequence with no tape, no
//! dispatch through `Graph`, and no allocation after the first call on a
//! given [`PlanScratch`] — buffers are sized once and reused.
//!
//! A model does not describe its plan separately: `compile()` runs the
//! model's one forward definition (see [`crate::ops`]) on a
//! [`ProgramBuilder`], which records each op instead of executing it.
//!
//! Bit-identity contract: every plan op reuses the exact forward
//! arithmetic of its tape counterpart (the matmul kernels, the shared
//! [`gather_pool_forward`] and [`nu_gate_forward`]), so a compiled
//! prediction is bit-for-bit equal to the model's training forward on a
//! [`crate::Graph`] with the same weights. The tests below pin that for
//! all three network architectures.

use std::cell::RefCell;

use crate::dataset::{ContextEdgeSample, NodeGraphSample};
use crate::graph::{fill_csr, gather_pool_forward, nu_gate_forward, CsrView};
use crate::ops::Ops;
use crate::tensor::{matmul_add, matmul_affine, matmul_overwrite};
use crate::{ParamId, ParamStore, Tensor};

/// One step of a compiled plan. `w` indexes the plan's frozen weights;
/// buffer indices refer to the executing [`PlanScratch`]. Plans are in
/// single-assignment form: every op writes a fresh buffer with a higher
/// index than any of its inputs, so in-place aliasing cannot occur.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// `bufs[dst] = weights[w] · bufs[src]` (the batched matmul kernel).
    MatMul { w: usize, src: usize, dst: usize },
    /// `bufs[dst][r, j] = bufs[src][r, j] + weights[w][r]` (bias column).
    AddCols { w: usize, src: usize, dst: usize },
    /// `bufs[dst] = max(bufs[src], 0)` elementwise.
    Relu { src: usize, dst: usize },
    /// `bufs[dst] = bufs[a] + bufs[b]` elementwise.
    Add { a: usize, b: usize, dst: usize },
    /// `bufs[dst][r, j] = bufs[src][r, j] * bufs[nu][j]`.
    ScaleCols { nu: usize, src: usize, dst: usize },
    /// `bufs[dst] = gather_pool(bufs[src], adj)` with the adjacency
    /// supplied at run time (per-DFG, not frozen into the plan).
    GatherPool { src: usize, dst: usize },
    /// `bufs[dst] = nu_gate(weights[w], hoods)` with the neighbourhoods
    /// supplied at run time; `bufs[recips]` receives the reciprocal
    /// aggregates the gate projects.
    NuGate { w: usize, recips: usize, dst: usize },
    /// Fused `MatMul` → `AddCols` → optional `Relu` chain (built by the
    /// peephole pass in [`ProgramBuilder::finish`], never emitted
    /// directly): the bias-plus-activation epilogue runs in place over
    /// the product, skipping two intermediate buffers. Per element the
    /// value history is unchanged — the full ascending-`k` product chain,
    /// then `+ bias[row]`, then `max(0)` — so results stay bit-identical
    /// to the unfused ops.
    Affine {
        w: usize,
        bias: usize,
        relu: bool,
        src: usize,
        dst: usize,
    },
    /// Fused `MatMul` → `Add` chain (peephole-built): the elementwise
    /// addend folds into the product buffer in place. The product is
    /// always the *left* operand of the fused addition, matching the only
    /// pattern the peephole accepts, so per-element order is unchanged.
    Fma {
        w: usize,
        src: usize,
        addend: usize,
        dst: usize,
    },
}

/// Whether `op` reads buffer `buf` (used by the fusion peephole to prove
/// an intermediate is single-use).
fn reads(op: &PlanOp, buf: usize) -> bool {
    match *op {
        PlanOp::MatMul { src, .. }
        | PlanOp::AddCols { src, .. }
        | PlanOp::Relu { src, .. }
        | PlanOp::GatherPool { src, .. }
        | PlanOp::Affine { src, .. } => src == buf,
        PlanOp::Add { a, b, .. } => a == buf || b == buf,
        PlanOp::ScaleCols { nu, src, .. } => nu == buf || src == buf,
        PlanOp::NuGate { .. } => false,
        PlanOp::Fma { src, addend, .. } => src == buf || addend == buf,
    }
}

/// A frozen forward pass: weight snapshots plus the op sequence.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    weights: Vec<Tensor>,
    ops: Vec<PlanOp>,
    /// Scratch buffers the ops address; buffer 0 is the input.
    buffers: usize,
    /// Buffer holding the final prediction after a run.
    out: usize,
}

impl Program {
    /// Sizes `scratch` for this program and hands out the input buffer
    /// (buffer 0) for the caller to fill.
    fn input_buf<'a>(&self, bufs: &'a mut Vec<Tensor>) -> &'a mut Tensor {
        if bufs.len() < self.buffers {
            bufs.resize_with(self.buffers, || Tensor::zeros(0, 0));
        }
        &mut bufs[0]
    }

    /// Executes the op sequence. `adj`/`hoods` carry the per-call inputs
    /// that are not frozen into the plan (only the ops that name them
    /// read them).
    fn run(&self, bufs: &mut [Tensor], adj: Option<CsrView<'_>>, hoods: &[&[Vec<f64>]]) {
        for &op in &self.ops {
            match op {
                PlanOp::MatMul { w, src, dst } => {
                    let wt = &self.weights[w];
                    let (src, dst) = src_dst(bufs, src, dst);
                    debug_assert_eq!(wt.cols(), src.rows(), "matmul shape mismatch");
                    // `matmul_overwrite` writes every element (zero-seeded
                    // accumulators), so the destination clear is skipped.
                    dst.reset_for_overwrite(wt.rows(), src.cols());
                    matmul_overwrite(
                        wt.data(),
                        src.data(),
                        (wt.rows(), wt.cols(), src.cols()),
                        dst.data_mut(),
                    );
                }
                PlanOp::AddCols { w, src, dst } => {
                    let bias = &self.weights[w];
                    let (src, dst) = src_dst(bufs, src, dst);
                    debug_assert_eq!(src.rows(), bias.rows(), "add_cols shape mismatch");
                    dst.reset_zeroed(src.rows(), src.cols());
                    let width = src.cols().max(1);
                    for ((orow, srow), &b) in dst
                        .data_mut()
                        .chunks_exact_mut(width)
                        .zip(src.data().chunks_exact(width))
                        .zip(bias.data())
                    {
                        for (o, &v) in orow.iter_mut().zip(srow) {
                            *o = v + b;
                        }
                    }
                }
                PlanOp::Relu { src, dst } => {
                    let (src, dst) = src_dst(bufs, src, dst);
                    dst.reset_zeroed(src.rows(), src.cols());
                    for (o, &v) in dst.data_mut().iter_mut().zip(src.data()) {
                        *o = v.max(0.0);
                    }
                }
                PlanOp::Add { a, b, dst } => {
                    debug_assert!(a < dst && b < dst, "plan is not in SSA form");
                    let (lo, hi) = bufs.split_at_mut(dst);
                    let (av, bv, dstv) = (&lo[a], &lo[b], &mut hi[0]);
                    assert_eq!(
                        (av.rows(), av.cols()),
                        (bv.rows(), bv.cols()),
                        "add shape mismatch"
                    );
                    dstv.reset_zeroed(av.rows(), av.cols());
                    for ((o, &x), &y) in dstv.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                        *o = x + y;
                    }
                }
                PlanOp::ScaleCols { nu, src, dst } => {
                    debug_assert!(nu < dst && src < dst, "plan is not in SSA form");
                    let (lo, hi) = bufs.split_at_mut(dst);
                    let (nu, src, dst) = (lo[nu].data(), &lo[src], &mut hi[0]);
                    assert_eq!(nu.len(), src.cols(), "scale_cols shape mismatch");
                    dst.reset_zeroed(src.rows(), src.cols());
                    let width = src.cols().max(1);
                    for (orow, srow) in dst
                        .data_mut()
                        .chunks_exact_mut(width)
                        .zip(src.data().chunks_exact(width))
                    {
                        for ((o, &v), &k) in orow.iter_mut().zip(srow).zip(nu) {
                            *o = v * k;
                        }
                    }
                }
                PlanOp::NuGate { w, recips, dst } => {
                    debug_assert!(recips < dst, "plan is not in SSA form");
                    let wt = &self.weights[w];
                    let (lo, hi) = bufs.split_at_mut(dst);
                    let (recips, dst) = (&mut lo[recips], &mut hi[0]);
                    // The forward fill writes every element of both
                    // buffers, so neither needs clearing.
                    recips.reset_for_overwrite(hoods.len(), wt.len());
                    dst.reset_for_overwrite(hoods.len(), 1);
                    nu_gate_forward(wt.data(), hoods, recips.data_mut(), dst.data_mut());
                }
                PlanOp::GatherPool { src, dst } => {
                    let adj = adj.expect("plan op needs an adjacency");
                    let (src, dst) = src_dst(bufs, src, dst);
                    // The pool fill writes every output element (empty
                    // consumers included), so the stale buffer contents
                    // never leak and the full clear can be skipped.
                    dst.reset_for_overwrite(3 * src.rows(), adj.consumer_count());
                    gather_pool_forward(src, adj, dst.data_mut());
                }
                PlanOp::Affine {
                    w,
                    bias,
                    relu,
                    src,
                    dst,
                } => {
                    let wt = &self.weights[w];
                    let bias_t = &self.weights[bias];
                    let (src, dst) = src_dst(bufs, src, dst);
                    debug_assert_eq!(wt.cols(), src.rows(), "matmul shape mismatch");
                    debug_assert_eq!(wt.rows(), bias_t.rows(), "add_cols shape mismatch");
                    // The bias (and optional ReLU) epilogue is fused into
                    // the kernel's tile store-back — one pass over the
                    // output instead of two, same per-element arithmetic.
                    dst.reset_for_overwrite(wt.rows(), src.cols());
                    matmul_affine(
                        wt.data(),
                        src.data(),
                        bias_t.data(),
                        relu,
                        (wt.rows(), wt.cols(), src.cols()),
                        dst.data_mut(),
                    );
                }
                PlanOp::Fma {
                    w,
                    src,
                    addend,
                    dst,
                } => {
                    debug_assert!(src < dst && addend < dst, "plan is not in SSA form");
                    let wt = &self.weights[w];
                    let (lo, hi) = bufs.split_at_mut(dst);
                    let (src, addend, dst) = (&lo[src], &lo[addend], &mut hi[0]);
                    debug_assert_eq!(wt.cols(), src.rows(), "matmul shape mismatch");
                    assert_eq!(
                        (wt.rows(), src.cols()),
                        (addend.rows(), addend.cols()),
                        "add shape mismatch"
                    );
                    // The addend fold is fused into the kernel's tile
                    // store-back — one pass over the output instead of
                    // two, same per-element arithmetic.
                    dst.reset_for_overwrite(wt.rows(), src.cols());
                    matmul_add(
                        wt.data(),
                        src.data(),
                        addend.data(),
                        (wt.rows(), wt.cols(), src.cols()),
                        dst.data_mut(),
                    );
                }
            }
        }
    }

    fn output<'a>(&self, bufs: &'a [Tensor]) -> &'a Tensor {
        &bufs[self.out]
    }
}

/// Disjoint (source, destination) buffer pair. Plans are in SSA form:
/// the destination index always exceeds the source's.
fn src_dst(bufs: &mut [Tensor], src: usize, dst: usize) -> (&Tensor, &mut Tensor) {
    debug_assert!(src < dst, "plan is not in SSA form");
    let (lo, hi) = bufs.split_at_mut(dst);
    (&lo[src], &mut hi[0])
}

/// Builds a [`Program`] while a model's `compile()` runs its forward
/// over the [`Ops`] vocabulary. Buffer 0 is the caller-filled input;
/// every op allocates the next buffer index for its result.
#[derive(Debug)]
pub(crate) struct ProgramBuilder<'a> {
    store: &'a ParamStore,
    weights: Vec<Tensor>,
    ops: Vec<PlanOp>,
    next: usize,
}

impl<'a> ProgramBuilder<'a> {
    /// A builder that freezes weights from `store`.
    pub(crate) fn new(store: &'a ParamStore) -> Self {
        ProgramBuilder {
            store,
            weights: Vec::new(),
            ops: Vec::new(),
            next: 1,
        }
    }

    fn alloc(&mut self) -> usize {
        let b = self.next;
        self.next += 1;
        b
    }

    /// Appends the op `make(dst)` writing a fresh buffer `dst`.
    fn emit(&mut self, make: impl FnOnce(usize) -> PlanOp) -> usize {
        let dst = self.alloc();
        self.ops.push(make(dst));
        dst
    }

    pub(crate) fn finish(self, out: usize) -> Program {
        Program {
            weights: self.weights,
            ops: fuse(self.ops, out),
            buffers: self.next,
            out,
        }
    }
}

impl Ops for ProgramBuilder<'_> {
    /// A scratch buffer index.
    type Var = usize;
    /// An index into the plan's frozen weights.
    type Weight = usize;

    fn input(&mut self) -> usize {
        0
    }

    /// Freezes the parameter's current value into the plan.
    fn weight(&mut self, id: ParamId) -> usize {
        self.weights.push(self.store.value(id).clone());
        self.weights.len() - 1
    }

    fn matmul(&mut self, w: usize, src: usize) -> usize {
        self.emit(|dst| PlanOp::MatMul { w, src, dst })
    }

    fn add(&mut self, a: usize, b: usize) -> usize {
        self.emit(|dst| PlanOp::Add { a, b, dst })
    }

    fn add_cols(&mut self, src: usize, w: usize) -> usize {
        self.emit(|dst| PlanOp::AddCols { w, src, dst })
    }

    fn relu(&mut self, src: usize) -> usize {
        self.emit(|dst| PlanOp::Relu { src, dst })
    }

    fn scale_cols(&mut self, nu: usize, src: usize) -> usize {
        self.emit(|dst| PlanOp::ScaleCols { nu, src, dst })
    }

    fn gather_pool(&mut self, src: usize) -> usize {
        self.emit(|dst| PlanOp::GatherPool { src, dst })
    }

    fn nu_gate(&mut self, w: usize) -> usize {
        let recips = self.alloc();
        self.emit(|dst| PlanOp::NuGate { w, recips, dst })
    }
}

/// Peephole fusion over a finished op sequence: adjacent
/// `MatMul`+`AddCols`(+`Relu`) chains become [`PlanOp::Affine`] and
/// `MatMul`+`Add` chains become [`PlanOp::Fma`], provided the
/// intermediate buffer is read by nothing else (checked against every
/// later op and the output index — SSA form makes that scan sufficient).
/// Fusion only rewrites *which buffers hold* intermediate values, never
/// the per-element arithmetic order, so fused and unfused programs are
/// bit-identical; the plan tests pin this against the tape.
fn fuse(ops: Vec<PlanOp>, out: usize) -> Vec<PlanOp> {
    let single_use = |ops: &[PlanOp], from: usize, buf: usize| {
        buf != out && !ops[from..].iter().any(|o| reads(o, buf))
    };
    let mut fused = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if let PlanOp::MatMul { w, src, dst } = ops[i] {
            match ops.get(i + 1).copied() {
                Some(PlanOp::AddCols {
                    w: bias,
                    src: s2,
                    dst: d2,
                }) if s2 == dst && single_use(&ops, i + 2, dst) => {
                    if let Some(PlanOp::Relu { src: s3, dst: d3 }) = ops.get(i + 2).copied() {
                        if s3 == d2 && single_use(&ops, i + 3, d2) {
                            fused.push(PlanOp::Affine {
                                w,
                                bias,
                                relu: true,
                                src,
                                dst: d3,
                            });
                            i += 3;
                            continue;
                        }
                    }
                    fused.push(PlanOp::Affine {
                        w,
                        bias,
                        relu: false,
                        src,
                        dst: d2,
                    });
                    i += 2;
                    continue;
                }
                // Only `a == dst` fuses: the fused epilogue adds the
                // addend onto the product, i.e. the product stays the
                // left operand of the addition exactly as in the split
                // ops. (`b == dst` would swap operand order — bitwise
                // harmless for finite sums but not provably identical
                // for NaN payloads, so the peephole leaves it alone.)
                Some(PlanOp::Add { a, b, dst: d2 }) if a == dst && single_use(&ops, i + 2, dst) => {
                    fused.push(PlanOp::Fma {
                        w,
                        src,
                        addend: b,
                        dst: d2,
                    });
                    i += 2;
                    continue;
                }
                _ => {}
            }
        }
        fused.push(ops[i]);
        i += 1;
    }
    fused
}

/// Reusable execution arena for compiled plans. Buffers grow to the
/// largest shape a plan has needed and are then reused verbatim, so a
/// warm scratch performs no allocation per prediction. One scratch can
/// serve any number of plans of any architecture, sequentially.
#[derive(Debug, Default)]
pub struct PlanScratch {
    bufs: Vec<Tensor>,
    /// CSR adjacency staging (offsets then indices): refilled per
    /// graph-shaped prediction so a warm scratch builds the adjacency
    /// with zero allocations.
    csr_offsets: Vec<u32>,
    csr_indices: Vec<u32>,
}

impl PlanScratch {
    pub fn new() -> Self {
        PlanScratch::default()
    }

    /// Runs `f` with this thread's shared scratch: repeated calls on one
    /// thread reuse one warm arena. Falls back to a fresh scratch on
    /// re-entrant use.
    pub fn with<R>(f: impl FnOnce(&mut PlanScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<PlanScratch> = RefCell::new(PlanScratch::new());
        }
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => f(&mut scratch),
            Err(_) => f(&mut PlanScratch::new()),
        })
    }
}

/// Compiled [`crate::models::EdgeMlp`]: two convolution layers, ReLU,
/// scalar readout, frozen weights.
#[derive(Debug, Clone)]
pub struct CompiledEdgeMlp {
    prog: Program,
    attr_dim: usize,
}

impl CompiledEdgeMlp {
    pub(crate) fn new(prog: Program, attr_dim: usize) -> Self {
        CompiledEdgeMlp { prog, attr_dim }
    }

    /// The expected attribute dimension.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// Predicts the label value for one attribute vector; bit-identical
    /// to the source model's training forward.
    ///
    /// # Panics
    ///
    /// Panics if the attribute dimension differs from construction.
    pub fn predict(&self, scratch: &mut PlanScratch, attrs: &[f64]) -> f64 {
        assert_eq!(attrs.len(), self.attr_dim, "attribute dimension mismatch");
        let bufs = &mut scratch.bufs;
        let x = self.prog.input_buf(bufs);
        x.reset_zeroed(self.attr_dim, 1);
        x.data_mut().copy_from_slice(attrs);
        self.prog.run(bufs, None, &[]);
        self.prog.output(bufs).item()
    }
}

/// Compiled [`crate::models::SpatialNet`]: the Eq. 4–6 chain, its ν
/// gate pooling the sample's neighbourhood at run time.
#[derive(Debug, Clone)]
pub struct CompiledSpatial {
    prog: Program,
    attr_dim: usize,
}

impl CompiledSpatial {
    pub(crate) fn new(prog: Program, attr_dim: usize) -> Self {
        CompiledSpatial { prog, attr_dim }
    }

    /// The expected attribute dimension.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// Predicts the spatial mapping distance of one edge; bit-identical
    /// to the source model's training forward.
    ///
    /// # Panics
    ///
    /// Panics on mismatched attribute dimensions.
    pub fn predict(&self, scratch: &mut PlanScratch, sample: &ContextEdgeSample) -> f64 {
        assert_eq!(
            sample.attrs.len(),
            self.attr_dim,
            "attribute dimension mismatch"
        );
        let bufs = &mut scratch.bufs;
        let x = self.prog.input_buf(bufs);
        x.reset_zeroed(self.attr_dim, 1);
        x.data_mut().copy_from_slice(&sample.attrs);
        self.prog
            .run(bufs, None, &[sample.neighbor_attrs.as_slice()]);
        self.prog.output(bufs).item()
    }
}

/// Compiled [`crate::models::ScheduleOrderNet`]: four message-passing
/// layers over a per-call CSR adjacency.
#[derive(Debug, Clone)]
pub struct CompiledScheduleOrder {
    prog: Program,
    attr_dim: usize,
}

impl CompiledScheduleOrder {
    pub(crate) fn new(prog: Program, attr_dim: usize) -> Self {
        CompiledScheduleOrder { prog, attr_dim }
    }

    /// The expected node-attribute dimension.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// Predicts the schedule order of every node; bit-identical to the
    /// source model's training forward.
    ///
    /// # Panics
    ///
    /// Panics on mismatched adjacency or attribute shapes (neighbour
    /// list count, out-of-range neighbour indices, attribute dimension).
    pub fn predict(&self, scratch: &mut PlanScratch, sample: &NodeGraphSample) -> Vec<f64> {
        let n = sample.len();
        assert_eq!(sample.neighbors.len(), n, "inconsistent sample");
        let PlanScratch {
            bufs,
            csr_offsets,
            csr_indices,
        } = scratch;
        // Out-of-range neighbour indices are rejected by the gather op.
        fill_csr(&sample.neighbors, csr_offsets, csr_indices);
        let x = self.prog.input_buf(bufs);
        x.reset_zeroed(self.attr_dim, n);
        let data = x.data_mut();
        for (j, attrs) in sample.node_attrs.iter().enumerate() {
            assert_eq!(attrs.len(), self.attr_dim, "attribute dimension mismatch");
            for (r, &v) in attrs.iter().enumerate() {
                data[r * n + j] = v;
            }
        }
        let adj = CsrView {
            offsets: csr_offsets,
            indices: csr_indices,
        };
        self.prog.run(bufs, Some(adj), &[]);
        self.prog.output(bufs).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{EdgeMlp, ScheduleOrderNet, SpatialNet};

    fn attrs(seed: u64, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|i| ((seed as f64 + 1.3) * (i as f64 + 0.7)).sin() * 2.5)
            .collect()
    }

    #[test]
    fn compiled_edge_mlp_is_bitwise_identical() {
        let net = EdgeMlp::new(5, 17);
        let plan = net.compile();
        let mut scratch = PlanScratch::new();
        for s in 0..8 {
            let a = attrs(s, 5);
            let tape = net.forward_one(&a);
            let compiled = plan.predict(&mut scratch, &a);
            assert_eq!(tape.to_bits(), compiled.to_bits(), "sample {s}");
        }
    }

    #[test]
    fn compiled_spatial_is_bitwise_identical() {
        let net = SpatialNet::new(3, 23);
        let plan = net.compile();
        let mut scratch = PlanScratch::new();
        for s in 0..8 {
            let sample = ContextEdgeSample {
                attrs: attrs(s, 3),
                neighbor_attrs: (0..s as usize % 4)
                    .map(|k| attrs(s + k as u64, 3))
                    .collect(),
                target: 0.0,
            };
            let tape = net.forward_one(&sample);
            let compiled = plan.predict(&mut scratch, &sample);
            assert_eq!(tape.to_bits(), compiled.to_bits(), "sample {s}");
        }
    }

    #[test]
    fn compiled_spatial_recip_guard_matches_tape() {
        // A neighbourhood summing to exactly zero exercises the
        // RECIP_EPS guard in both paths.
        let net = SpatialNet::new(2, 5);
        let plan = net.compile();
        let sample = ContextEdgeSample {
            attrs: vec![1.0, -2.0],
            neighbor_attrs: vec![vec![3.0, -1.0], vec![-3.0, 1.0]],
            target: 0.0,
        };
        let compiled = PlanScratch::with(|s| plan.predict(s, &sample));
        assert_eq!(net.forward_one(&sample).to_bits(), compiled.to_bits());
    }

    #[test]
    fn compiled_spatial_empty_neighbourhood_matches_tape() {
        let net = SpatialNet::new(2, 9);
        let plan = net.compile();
        let sample = ContextEdgeSample {
            attrs: vec![0.5, -1.5],
            neighbor_attrs: vec![],
            target: 0.0,
        };
        let compiled = PlanScratch::with(|s| plan.predict(s, &sample));
        assert_eq!(net.forward_one(&sample).to_bits(), compiled.to_bits());
    }

    #[test]
    fn compiled_schedule_order_is_bitwise_identical() {
        let net = ScheduleOrderNet::new(3, 31);
        let plan = net.compile();
        let mut scratch = PlanScratch::new();
        // A small DAG with a fan-in, a fan-out, and an isolated node.
        let sample = NodeGraphSample {
            node_attrs: (0..5).map(|i| attrs(i, 3)).collect(),
            neighbors: vec![vec![1, 2], vec![3], vec![3], vec![0], vec![]],
            targets: vec![0.0; 5],
        };
        let tape = net.forward_one(&sample);
        let compiled = plan.predict(&mut scratch, &sample);
        assert_eq!(tape.len(), compiled.len());
        for (i, (t, c)) in tape.iter().zip(&compiled).enumerate() {
            assert_eq!(t.to_bits(), c.to_bits(), "node {i}");
        }
    }

    #[test]
    fn one_scratch_serves_mixed_architectures() {
        // Shapes shrink and grow across calls; buffers must resize
        // correctly rather than retain stale dimensions.
        let mlp_small = EdgeMlp::new(2, 1).compile();
        let mlp_large = EdgeMlp::new(7, 2).compile();
        let order = ScheduleOrderNet::new(3, 3).compile();
        let sample = NodeGraphSample {
            node_attrs: vec![vec![1.0, 0.0, 2.0]; 4],
            neighbors: vec![vec![1], vec![2], vec![3], vec![0]],
            targets: vec![0.0; 4],
        };
        let mut scratch = PlanScratch::new();
        let large_first = mlp_large.predict(&mut scratch, &attrs(1, 7));
        let _ = order.predict(&mut scratch, &sample);
        let small = mlp_small.predict(&mut scratch, &attrs(2, 2));
        let large_again = mlp_large.predict(&mut scratch, &attrs(1, 7));
        assert_eq!(large_first.to_bits(), large_again.to_bits());
        assert_eq!(
            small.to_bits(),
            EdgeMlp::new(2, 1).forward_one(&attrs(2, 2)).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "attribute dimension mismatch")]
    fn compiled_edge_mlp_rejects_wrong_dimension() {
        let plan = EdgeMlp::new(3, 0).compile();
        let _ = PlanScratch::with(|s| plan.predict(s, &[1.0]));
    }
}
