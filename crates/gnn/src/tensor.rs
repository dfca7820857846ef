//! Dense row-major matrices/vectors for the GNN engine.
//!
//! The label networks are tiny (hidden dimensions of ten-odd channels), so
//! a plain `Vec<f64>` matrix is the right tool: no BLAS, no SIMD, no
//! generic element type — just correct, allocation-light arithmetic.

use std::fmt;

/// A dense `rows × cols` matrix of `f64`. Column vectors are `n × 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Creates a column vector.
    pub fn vector(data: Vec<f64>) -> Self {
        let rows = data.len();
        Tensor {
            rows,
            cols: 1,
            data,
        }
    }

    /// Creates a 1×1 tensor holding a scalar.
    pub fn scalar(v: f64) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing buffer (for the tape
    /// arena's buffer recycling).
    pub(crate) fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes in place to a zero-filled `rows × cols`, reusing the
    /// existing allocation when its capacity suffices.
    pub(crate) fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` without clearing retained
    /// contents — only growth is zero-filled. For destinations whose
    /// every element the caller immediately overwrites (e.g. the fused
    /// gather-pool fill), this skips `reset_zeroed`'s full memset.
    pub(crate) fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// The single element of a 1×1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 1×1.
    pub fn item(&self) -> f64 {
        assert_eq!(self.len(), 1, "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix × column-vector product.
    ///
    /// The inner loops run on iterators (`chunks_exact`/`zip`) rather than
    /// indexed accesses so the optimiser can elide bounds checks; the
    /// accumulation order is unchanged, so results are bit-identical to
    /// the historical indexed implementation (pinned by the golden-value
    /// tests below).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != x.rows` or `x` is not a column vector.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, 1, "matvec rhs must be a column vector");
        assert_eq!(self.cols, x.rows, "matvec shape mismatch");
        let mut out = Tensor::zeros(self.rows, 1);
        for (row, o) in self.data.chunks_exact(self.cols).zip(&mut out.data) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(&x.data) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// Matrix × matrix product: `self (m×k) · other (k×n) → m×n`.
    ///
    /// Column `j` of the result is bit-identical to
    /// `self.matvec(other.column(j))`: the reduction over `k` runs in the
    /// same ascending order, so batching N column vectors into one matrix
    /// never changes a numeric result.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_kernel(
            &self.data,
            &other.data,
            (self.rows, self.cols, other.cols),
            &mut out.data,
        );
        out
    }

    /// Transposed product `self^T (m×k from k×m) · other (k×n) → m×n`.
    ///
    /// Column `j` matches `self.t_matvec(other.column(j))` bit-for-bit
    /// (reduction over the shared `k` dimension in ascending row order).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Tensor::zeros(self.cols, other.cols);
        out.t_matmul_acc(self, other);
        out
    }

    /// Product with a transposed right operand:
    /// `self (m×k) · other^T (k×n from n×k) → m×n`. This is the shape of
    /// the weight gradient of a batched product (`dW = G · Xᵀ`): entry
    /// `(r, c)` reduces over the batch dimension in ascending order — the
    /// same order in which the sequential per-sample loop accumulated its
    /// outer products.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Tensor::zeros(self.rows, other.rows);
        out.matmul_t_acc(self, other);
        out
    }

    /// Accumulates `self += a · bᵀ` (see [`Self::matmul_t`]).
    ///
    /// Tiled like `matmul_kernel`: four rows of `a` are processed per
    /// pass, so each streamed row of `b` feeds four independent dot-product
    /// accumulators. Every `(r, c)` entry still reduces over the shared
    /// column dimension in ascending order with its own scalar accumulator,
    /// so results stay bit-identical to the untiled loop.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_t_acc(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.cols, b.cols, "matmul_t shape mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.rows),
            "matmul_t output shape mismatch"
        );
        let dims = (a.rows, a.cols, b.rows);
        if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
            // Empty reduction or empty output: the untiled loops never
            // iterated here, so the partial sums stay untouched.
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the call is gated on the runtime AVX2 probe.
            return unsafe { matmul_t_avx2(&a.data, &b.data, dims, &mut self.data) };
        }
        matmul_t_body(&a.data, &b.data, dims, &mut self.data);
    }

    /// Accumulates `self += aᵀ · b` (see [`Self::t_matmul`]).
    ///
    /// The reduction dimension is the *outer* loop (rows of `a` and `b` in
    /// ascending order), so blocking the output rows four at a time — four
    /// scalars of each `a` row driving four output rows per streamed `b`
    /// row — reorders nothing within any single element's accumulation
    /// chain; results stay bit-identical to the untiled loop.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn t_matmul_acc(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.rows, b.rows, "t_matmul shape mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (a.cols, b.cols),
            "t_matmul output shape mismatch"
        );
        let dims = (a.rows, a.cols, b.cols);
        if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
            // Empty reduction or empty output: the untiled loops never
            // iterated here, so the partial sums stay untouched.
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: the call is gated on the runtime AVX2 probe.
            return unsafe { t_matmul_avx2(&a.data, &b.data, dims, &mut self.data) };
        }
        t_matmul_body(&a.data, &b.data, dims, &mut self.data);
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// In-place accumulation `self += other`. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales every element.
    pub fn scale(&self, k: f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// Outer product of two column vectors: `self * other^T`.
    ///
    /// Iterator-based like [`Self::matvec`]; each product is written once,
    /// so there is no accumulation order to preserve.
    ///
    /// # Panics
    ///
    /// Panics unless both are column vectors.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, 1, "outer lhs must be a column vector");
        assert_eq!(other.cols, 1, "outer rhs must be a column vector");
        let mut out = Tensor::zeros(self.rows, other.rows);
        for (&a, out_row) in self
            .data
            .iter()
            .zip(out.data.chunks_exact_mut(other.rows.max(1)))
        {
            for (o, &b) in out_row.iter_mut().zip(&other.data) {
                *o = a * b;
            }
        }
        out
    }

    /// Transposed matrix × column-vector product: `self^T * x`.
    ///
    /// Accumulates over rows of `self` in ascending order, exactly like
    /// the historical indexed implementation (golden-value tests pin
    /// this), with the inner loops on iterators to drop bounds checks.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != x.rows` or `x` is not a column vector.
    pub fn t_matvec(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, 1, "t_matvec rhs must be a column vector");
        assert_eq!(self.rows, x.rows, "t_matvec shape mismatch");
        let mut out = Tensor::zeros(self.cols, 1);
        for (row, &xv) in self.data.chunks_exact(self.cols.max(1)).zip(&x.data) {
            for (o, &a) in out.data.iter_mut().zip(row) {
                *o += a * xv;
            }
        }
        out
    }

    /// Copies column `j` out as a fresh column vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols`.
    pub fn column(&self, j: usize) -> Tensor {
        assert!(j < self.cols, "column index out of range");
        let data = self
            .data
            .iter()
            .skip(j)
            .step_by(self.cols)
            .copied()
            .collect();
        Tensor::vector(data)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

/// Row-block height of the tiled kernels: four output rows are processed
/// per pass, so every value streamed from the right-hand operand feeds
/// four independent FMA chains before the next load. The label networks'
/// operand panels (at most a few tens of KB) are already cache-resident,
/// so a single ascending pass over the reduction dimension per row block
/// is the cache-optimal schedule — no repacking or k-panelling needed.
const MR: usize = 4;

/// Column-tile width of the register-blocked microkernel. An `MR`×`NR`
/// tile of the output is staged in locals for the whole reduction, so
/// each element is loaded and stored once instead of once per `k` step —
/// the output traffic drops from `m·k·n` to `m·n` accesses. 4×8 doubles
/// fit the vector register file with room for the broadcast scalars and
/// the shared `b` tile.
const NR: usize = 8;

/// Accumulator seed and store-back epilogue selectors for the fused
/// kernels. `Z` picks the seed: `false` seeds each tile from `out`'s
/// current contents (partial sums accumulate), `true` seeds with literal
/// `0.0` — bit-identical to zeroing the buffer first and accumulating,
/// since both chains start from the same `+0.0`, but without the memset.
/// `E` picks what happens once per element at store-back, *after* the
/// element's complete ascending-`k` reduction chain — the same position
/// the separate epilogue pass it replaces would run in, so fused and
/// two-pass results are bit-identical.
const E_NONE: u8 = 0;
/// `out[r, j] = acc + bias[r]` (per-row bias broadcast down columns).
const E_BIAS: u8 = 1;
/// `out[r, j] = max(acc + bias[r], 0)` (bias then ReLU clamp).
const E_BIAS_RELU: u8 = 2;
/// `out[r, j] = acc + add[r, j]` (element-wise addend matrix).
const E_ADD: u8 = 3;

/// One register-blocked row band of the matmul: `R` rows of `a` (each of
/// length `k`) against all of `b`, accumulating into `R` rows of `out`.
///
/// Full `NR`-wide column tiles stage their output elements in a local
/// `R`×`NR` accumulator: seeded per `Z` (from `out` or with zeros),
/// updated once per `k` step, written back once through the `E`
/// epilogue. The column tail past the last full tile keeps the same
/// form. Either way every `out[r, j]` receives its `k` partial products
/// in ascending order starting from its seed — the exact addition
/// sequence of the historical scalar nest, so results stay bit-identical.
#[inline(always)]
fn kernel_rows<const R: usize, const Z: bool, const E: u8>(
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    out: &mut [f64],
    bias: &[f64],
    add: &[f64],
) {
    debug_assert_eq!(a.len(), R * k);
    debug_assert_eq!(out.len(), R * n);
    let mut j0 = 0;
    while j0 + NR <= n {
        kernel_tile::<R, NR, Z, E>(a, b, k, n, j0, out, bias, add);
        j0 += NR;
    }
    // Column tail: one const-width tile of the exact remaining width, so
    // the tail costs a single extra pass over `b` (a 4/2/1 cascade would
    // stream `b` up to three times) while staying register-resident.
    match n - j0 {
        0 => {}
        1 => kernel_tile::<R, 1, Z, E>(a, b, k, n, j0, out, bias, add),
        2 => kernel_tile::<R, 2, Z, E>(a, b, k, n, j0, out, bias, add),
        3 => kernel_tile::<R, 3, Z, E>(a, b, k, n, j0, out, bias, add),
        4 => kernel_tile::<R, 4, Z, E>(a, b, k, n, j0, out, bias, add),
        5 => kernel_tile::<R, 5, Z, E>(a, b, k, n, j0, out, bias, add),
        6 => kernel_tile::<R, 6, Z, E>(a, b, k, n, j0, out, bias, add),
        _ => kernel_tile::<R, 7, Z, E>(a, b, k, n, j0, out, bias, add),
    }
}

/// One `R`×`W` register tile of the matmul at column offset `j0`: seeded
/// from `out`'s current contents, advanced once per `k` step, written
/// back once. Per element the reduction is still a single ascending-`k`
/// chain starting from the prior value — bit-identical to the historical
/// streaming nest.
///
/// The tile windows are addressed without bounds checks: [`kernel_rows`]
/// only issues tiles with `j0 + W <= n` over slices it has already
/// asserted to hold exactly `R * k` (`a`) and `R * n` (`out`) elements,
/// and the checks otherwise re-run per `k` step inside the hottest loop
/// of the crate.
#[inline(always)]
fn kernel_tile<const R: usize, const W: usize, const Z: bool, const E: u8>(
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    j0: usize,
    out: &mut [f64],
    bias: &[f64],
    add: &[f64],
) {
    debug_assert!(j0 + W <= n);
    debug_assert_eq!(a.len(), R * k);
    debug_assert_eq!(out.len(), R * n);
    let mut acc = [[0.0f64; W]; R];
    if !Z {
        for (rr, tile) in acc.iter_mut().enumerate() {
            // SAFETY: `rr < R`, `j0 + W <= n`, and `out` holds `R * n`
            // elements, so the window lies within `out`.
            tile.copy_from_slice(unsafe { out.get_unchecked(rr * n + j0..rr * n + j0 + W) });
        }
    }
    for (i, b_row) in b.chunks_exact(n).enumerate() {
        // SAFETY: `chunks_exact(n)` yields rows of exactly `n` elements
        // and `j0 + W <= n`, so the window lies within the row; a `&[f64]`
        // of length `W` has the same layout as `&[f64; W]`.
        let bt = unsafe { &*(b_row.get_unchecked(j0..j0 + W).as_ptr() as *const [f64; W]) };
        for (rr, tile) in acc.iter_mut().enumerate() {
            // SAFETY: `rr < R` and `i < k`, so `rr * k + i < R * k`.
            let x = unsafe { *a.get_unchecked(rr * k + i) };
            for (t, &bv) in tile.iter_mut().zip(bt) {
                *t += x * bv;
            }
        }
    }
    for (rr, tile) in acc.iter().enumerate() {
        // SAFETY: same window as the seeding bound above.
        let dst = unsafe { out.get_unchecked_mut(rr * n + j0..rr * n + j0 + W) };
        // `E` is const, so all but one arm fold away per monomorphisation.
        match E {
            E_BIAS => {
                let bv = bias[rr];
                for (o, &t) in dst.iter_mut().zip(tile) {
                    *o = t + bv;
                }
            }
            E_BIAS_RELU => {
                let bv = bias[rr];
                for (o, &t) in dst.iter_mut().zip(tile) {
                    *o = (t + bv).max(0.0);
                }
            }
            E_ADD => {
                let aw = &add[rr * n + j0..rr * n + j0 + W];
                for ((o, &t), &v) in dst.iter_mut().zip(tile).zip(aw) {
                    *o = t + v;
                }
            }
            _ => dst.copy_from_slice(tile),
        }
    }
}

/// The shared `m×k · k×n` kernel behind [`Tensor::matmul`], operating on
/// raw buffers so the tape arena can target recycled allocations.
///
/// `out` must hold `m * n` zeros (or a partial sum to accumulate onto).
/// Rows are processed in register-blocked bands of [`MR`] (remainder
/// bands of 1–3 rows take the same microkernel at a smaller height), and
/// columns in [`NR`]-wide tiles held in locals across the reduction —
/// see [`kernel_rows`]. Within every tile the reduction still walks `k`
/// in ascending order per element — the same floating point addition
/// sequence as `matvec`'s scalar accumulator, which is what keeps
/// batched, per-column, and tiled results bit-identical.
///
/// Zero dimensions are an explicit no-op: an empty reduction (`k = 0`)
/// or an empty output (`m = 0` or `n = 0`) leaves `out`'s partial sums
/// untouched, exactly like the historical loops whose `chunks_exact`
/// iterators produced no chunks over the empty buffers.
pub(crate) fn matmul_kernel(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    let (m, k, n) = dims;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    matmul_dispatch::<false, E_NONE>(a, b, &[], &[], dims, out);
}

/// `out = a (m×k) · b (k×n)`, overwriting `out` without requiring it to
/// be pre-zeroed: accumulator tiles are seeded with literal `0.0`
/// instead of `out`'s prior contents. Both chains start from the same
/// `+0.0` a freshly zeroed buffer holds, so the result is bit-identical
/// to `reset_zeroed` + [`matmul_kernel`] — minus the memset. An empty
/// reduction (`k = 0`) writes the zero matrix, honouring the overwrite
/// contract; `m = 0` or `n = 0` means there is nothing to write.
pub(crate) fn matmul_overwrite(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    let (m, k, n) = dims;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    matmul_dispatch::<true, E_NONE>(a, b, &[], &[], dims, out);
}

/// `out = a·b + bias` broadcast down columns (`bias` is per-row), with
/// an optional ReLU clamp — the fused form of the compiled plans'
/// `Affine` op. Overwrite semantics as in [`matmul_overwrite`]; the
/// epilogue runs once per element after its complete reduction chain,
/// in the exact position of the separate pass it replaces, so fused and
/// two-pass results are bit-identical.
pub(crate) fn matmul_affine(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    relu: bool,
    dims: (usize, usize, usize),
    out: &mut [f64],
) {
    let (m, k, n) = dims;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(bias.len(), m);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if relu {
        matmul_dispatch::<true, E_BIAS_RELU>(a, b, bias, &[], dims, out);
    } else {
        matmul_dispatch::<true, E_BIAS>(a, b, bias, &[], dims, out);
    }
}

/// `out = a·b + add` element-wise — the fused form of the compiled
/// plans' `Fma` op. Overwrite semantics as in [`matmul_overwrite`]; the
/// addend fold runs once per element after its complete reduction chain,
/// in the exact position of the separate pass it replaces, so fused and
/// two-pass results are bit-identical. `add` must not alias `out`.
pub(crate) fn matmul_add(
    a: &[f64],
    b: &[f64],
    add: &[f64],
    dims: (usize, usize, usize),
    out: &mut [f64],
) {
    let (m, k, n) = dims;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(add.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    matmul_dispatch::<true, E_ADD>(a, b, &[], add, dims, out);
}

#[inline(always)]
fn matmul_dispatch<const Z: bool, const E: u8>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    add: &[f64],
    dims: (usize, usize, usize),
    out: &mut [f64],
) {
    // Tiny products (the edge/spatial nets' 5×5 column-vector chains)
    // gain nothing from wider vectors; the out-of-line call into the
    // AVX2 twin would be pure overhead, so they stay on the inline body.
    #[cfg(target_arch = "x86_64")]
    {
        let (m, k, n) = dims;
        if m * k * n >= 128 && avx2_available() {
            // SAFETY: the call is gated on the runtime AVX2 probe.
            return unsafe { matmul_kernel_avx2::<Z, E>(a, b, bias, add, dims, out) };
        }
    }
    matmul_kernel_body::<Z, E>(a, b, bias, add, dims, out);
}

/// Narrows the epilogue operands to the rows of one `R`-row band
/// starting at `r`: the bias vector is indexed per row, the addend
/// matrix per element. `E` is const, so the irrelevant arms (and the
/// slicing they would do on the empty placeholder slices) fold away.
#[inline(always)]
fn band_epilogue<'a, const E: u8>(
    bias: &'a [f64],
    add: &'a [f64],
    r: usize,
    n: usize,
) -> (&'a [f64], &'a [f64]) {
    match E {
        E_BIAS | E_BIAS_RELU => (&bias[r..], add),
        E_ADD => (bias, &add[r * n..]),
        _ => (bias, add),
    }
}

#[inline(always)]
fn matmul_kernel_body<const Z: bool, const E: u8>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    add: &[f64],
    dims: (usize, usize, usize),
    out: &mut [f64],
) {
    let (m, k, n) = dims;
    // Short outputs (the label networks' hidden dims) run as one band of
    // exactly `m` rows: `b` is streamed once instead of once per band,
    // and all `m` accumulation chains stay live together.
    match m {
        1 => return kernel_rows::<1, Z, E>(a, b, k, n, out, bias, add),
        2 => return kernel_rows::<2, Z, E>(a, b, k, n, out, bias, add),
        3 => return kernel_rows::<3, Z, E>(a, b, k, n, out, bias, add),
        4 => return kernel_rows::<4, Z, E>(a, b, k, n, out, bias, add),
        5 => return kernel_rows::<5, Z, E>(a, b, k, n, out, bias, add),
        6 => return kernel_rows::<6, Z, E>(a, b, k, n, out, bias, add),
        _ => {}
    }
    let mut r = 0;
    while r + MR <= m {
        let (bs, ads) = band_epilogue::<E>(bias, add, r, n);
        kernel_rows::<MR, Z, E>(
            &a[r * k..(r + MR) * k],
            b,
            k,
            n,
            &mut out[r * n..(r + MR) * n],
            bs,
            ads,
        );
        r += MR;
    }
    let (bs, ads) = band_epilogue::<E>(bias, add, r, n);
    match m - r {
        0 => {}
        1 => kernel_rows::<1, Z, E>(&a[r * k..], b, k, n, &mut out[r * n..], bs, ads),
        2 => kernel_rows::<2, Z, E>(&a[r * k..], b, k, n, &mut out[r * n..], bs, ads),
        _ => kernel_rows::<3, Z, E>(&a[r * k..], b, k, n, &mut out[r * n..], bs, ads),
    }
}

/// `out += a (m×k) · bᵀ (k×n from n×k)` — the body behind
/// [`Tensor::matmul_t_acc`]. Four rows of `a` are processed per pass, so
/// each streamed row of `b` feeds four independent dot-product
/// accumulators. Every `(r, c)` entry still reduces over the shared
/// column dimension in ascending order with its own scalar accumulator,
/// so results stay bit-identical to the untiled loop.
#[inline(always)]
fn matmul_t_body(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    let (m, k, n) = dims;
    let mut r = 0;
    while r + MR <= m {
        let a_block = &a[r * k..(r + MR) * k];
        let (a0, rest) = a_block.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let out_block = &mut out[r * n..(r + MR) * n];
        let (o0, rest) = out_block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        for (c, b_row) in b.chunks_exact(k).enumerate() {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (j, &y) in b_row.iter().enumerate() {
                s0 += a0[j] * y;
                s1 += a1[j] * y;
                s2 += a2[j] * y;
                s3 += a3[j] * y;
            }
            o0[c] += s0;
            o1[c] += s1;
            o2[c] += s2;
            o3[c] += s3;
        }
        r += MR;
    }
    for (a_row, out_row) in a[r * k..]
        .chunks_exact(k)
        .zip(out[r * n..].chunks_exact_mut(n))
    {
        for (b_row, o) in b.chunks_exact(k).zip(out_row) {
            let mut acc = 0.0;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o += acc;
        }
    }
}

/// `out += aᵀ (m×kk from kk×m) · b (kk×n)` — the body behind
/// [`Tensor::t_matmul_acc`]. The reduction dimension is the *outer* loop
/// (rows of `a` and `b` in ascending order), so blocking the output rows
/// four at a time — four scalars of each `a` row driving four output
/// rows per streamed `b` row — reorders nothing within any single
/// element's accumulation chain; results stay bit-identical to the
/// untiled loop.
#[inline(always)]
fn t_matmul_body(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    let (_kk, m, n) = dims;
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let mut c = 0;
        while c + MR <= m {
            let (x0, x1, x2, x3) = (a_row[c], a_row[c + 1], a_row[c + 2], a_row[c + 3]);
            let out_block = &mut out[c * n..(c + MR) * n];
            let (o0, rest) = out_block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for (j, &bv) in b_row.iter().enumerate() {
                o0[j] += x0 * bv;
                o1[j] += x1 * bv;
                o2[j] += x2 * bv;
                o3[j] += x3 * bv;
            }
            c += MR;
        }
        for (&av, out_row) in a_row[c..].iter().zip(out[c * n..].chunks_exact_mut(n)) {
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// One-time runtime probe for AVX2, memoised so the hot kernels pay a
/// single relaxed atomic load per call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static PROBE: AtomicU8 = AtomicU8::new(0);
    match PROBE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2");
            PROBE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// AVX2-compiled twins of the kernel bodies. `#[target_feature]` lifts
/// the compilation subtarget of the (always-inlined) shared bodies from
/// the baseline x86-64 SSE2 to 256-bit vectors, so the auto-vectoriser
/// widens the independent per-column FMA chains. Vector width only
/// changes how many *independent* output elements advance per
/// instruction; each element's own reduction is a sequential dependency
/// chain the vectoriser must preserve (Rust never enables fast-math
/// reassociation or FMA contraction), so the wide paths are bit-identical
/// to the portable ones — the dispatch is invisible to everything
/// downstream, including serialized models and golden outputs.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_kernel_avx2<const Z: bool, const E: u8>(
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    add: &[f64],
    dims: (usize, usize, usize),
    out: &mut [f64],
) {
    matmul_kernel_body::<Z, E>(a, b, bias, add, dims, out);
}

/// See [`matmul_kernel_avx2`].
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_t_avx2(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    matmul_t_body(a, b, dims, out);
}

/// See [`matmul_kernel_avx2`].
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn t_matmul_avx2(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    t_matmul_body(a, b, dims, out);
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_basic() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Tensor::vector(vec![1.0, 0.0, -1.0]);
        let y = a.matvec(&x);
        assert_eq!(y.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn t_matvec_matches_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = Tensor::vector(vec![1.0, 2.0]);
        let out = a.t_matvec(&y);
        // A^T y = [1+8, 2+10, 3+12]
        assert_eq!(out.data(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn outer_product() {
        let a = Tensor::vector(vec![1.0, 2.0]);
        let b = Tensor::vector(vec![3.0, 4.0, 5.0]);
        let o = a.outer(&b);
        assert_eq!(o.rows(), 2);
        assert_eq!(o.cols(), 3);
        assert_eq!(o.get(1, 2), 10.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(vec![1.0, -2.0]);
        let b = Tensor::vector(vec![3.0, 4.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::zeros(2, 1);
        a.add_assign(&Tensor::vector(vec![1.0, 1.0]));
        a.add_assign(&Tensor::vector(vec![0.5, -1.0]));
        assert_eq!(a.data(), &[1.5, 0.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::vector(vec![1.0]);
        let b = Tensor::vector(vec![1.0, 2.0]);
        let _ = a.add(&b);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Tensor::vector(vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn column_extracts() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.column(0).data(), &[1.0, 4.0]);
        assert_eq!(a.column(2).data(), &[3.0, 6.0]);
    }

    /// Golden values for the iterator-ized kernels: irrational-ish inputs
    /// computed once with the historical indexed loops. Exact `==`
    /// comparison pins both the result and the accumulation order.
    #[test]
    fn matvec_golden_values() {
        let a = Tensor::from_vec(3, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        let x = Tensor::vector(vec![1.5, -2.5, 3.5]);
        let y = a.matvec(&x);
        assert_eq!(
            y.data(),
            &[
                0.1 * 1.5 + 0.2 * -2.5 + 0.3 * 3.5,
                0.4 * 1.5 + 0.5 * -2.5 + 0.6 * 3.5,
                0.7 * 1.5 + 0.8 * -2.5 + 0.9 * 3.5,
            ]
        );
        // Literal golden doubles (captured from the pre-refactor engine).
        assert_eq!(
            y.data(),
            &[
                0.700_000_000_000_000_1,
                1.450_000_000_000_000_2,
                2.199_999_999_999_999_7
            ]
        );
    }

    #[test]
    fn t_matvec_golden_values() {
        let a = Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let x = Tensor::vector(vec![1.1, -0.7, 2.3]);
        let out = a.t_matvec(&x);
        // Ascending-row accumulation: (0 + a00*x0) + a10*x1 + a20*x2.
        assert_eq!(
            out.data(),
            &[
                0.1 * 1.1 + 0.3 * -0.7 + 0.5 * 2.3,
                0.2 * 1.1 + 0.4 * -0.7 + 0.6 * 2.3,
            ]
        );
        assert_eq!(
            out.data(),
            &[1.049_999_999_999_999_8, 1.319_999_999_999_999_8]
        );
    }

    #[test]
    fn outer_golden_values() {
        let a = Tensor::vector(vec![0.3, -1.7]);
        let b = Tensor::vector(vec![2.1, 0.9, -0.4]);
        let o = a.outer(&b);
        assert_eq!(
            o.data(),
            &[
                0.3 * 2.1,
                0.3 * 0.9,
                0.3 * -0.4,
                -1.7 * 2.1,
                -1.7 * 0.9,
                -1.7 * -0.4
            ]
        );
    }

    #[test]
    fn matmul_matches_per_column_matvec_bitwise() {
        let a = Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 + f64::from(i) * 0.37).collect());
        let b = Tensor::from_vec(4, 5, (0..20).map(|i| -1.3 + f64::from(i) * 0.21).collect());
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 5);
        for j in 0..b.cols() {
            let col = a.matvec(&b.column(j));
            // Exact equality: batching must not change any bit.
            assert_eq!(c.column(j).data(), col.data());
        }
    }

    #[test]
    fn t_matmul_matches_per_column_t_matvec_bitwise() {
        let a = Tensor::from_vec(4, 3, (0..12).map(|i| 0.05 - f64::from(i) * 0.13).collect());
        let b = Tensor::from_vec(4, 2, (0..8).map(|i| 0.9 + f64::from(i) * 0.61).collect());
        let c = a.t_matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        for j in 0..b.cols() {
            let col = a.t_matvec(&b.column(j));
            assert_eq!(c.column(j).data(), col.data());
        }
    }

    #[test]
    fn matmul_t_matches_accumulated_outer_bitwise() {
        // dW = G · Xᵀ must equal the sequential per-sample
        // `acc += g_j.outer(x_j)` accumulation, bit for bit.
        let g = Tensor::from_vec(2, 3, (0..6).map(|i| 0.2 + f64::from(i) * 0.71).collect());
        let x = Tensor::from_vec(4, 3, (0..12).map(|i| -0.4 + f64::from(i) * 0.29).collect());
        let batched = g.matmul_t(&x);
        let mut acc = Tensor::zeros(2, 4);
        for j in 0..3 {
            acc.add_assign(&g.column(j).outer(&x.column(j)));
        }
        assert_eq!(batched.data(), acc.data());
    }

    #[test]
    fn matmul_kernel_accumulates_onto_partial_sums() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = vec![1.0; 4];
        matmul_kernel(a.data(), b.data(), (2, 2, 2), &mut out);
        assert_eq!(out, vec![20.0, 23.0, 44.0, 51.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The tiled kernels cover a full `MR` row block plus a remainder and
    /// still match the per-column scalar chains bit for bit (the small
    /// shapes above only exercise the remainder path).
    #[test]
    fn tiled_matmul_block_and_remainder_bitwise() {
        let a = Tensor::from_vec(11, 7, (0..77).map(|i| 0.1 + f64::from(i) * 0.37).collect());
        let b = Tensor::from_vec(7, 6, (0..42).map(|i| -1.3 + f64::from(i) * 0.21).collect());
        let c = a.matmul(&b);
        for j in 0..b.cols() {
            assert_eq!(c.column(j).data(), a.matvec(&b.column(j)).data());
        }
    }

    #[test]
    fn tiled_t_matmul_block_and_remainder_bitwise() {
        let a = Tensor::from_vec(5, 10, (0..50).map(|i| 0.05 - f64::from(i) * 0.13).collect());
        let b = Tensor::from_vec(5, 3, (0..15).map(|i| 0.9 + f64::from(i) * 0.61).collect());
        let c = a.t_matmul(&b);
        for j in 0..b.cols() {
            assert_eq!(c.column(j).data(), a.t_matvec(&b.column(j)).data());
        }
    }

    #[test]
    fn tiled_matmul_t_block_and_remainder_bitwise() {
        let g = Tensor::from_vec(9, 4, (0..36).map(|i| 0.2 + f64::from(i) * 0.71).collect());
        let x = Tensor::from_vec(6, 4, (0..24).map(|i| -0.4 + f64::from(i) * 0.29).collect());
        let batched = g.matmul_t(&x);
        let mut acc = Tensor::zeros(9, 6);
        for j in 0..4 {
            acc.add_assign(&g.column(j).outer(&x.column(j)));
        }
        assert_eq!(batched.data(), acc.data());
    }

    /// Zero-dimension shapes are explicit no-ops, not accidents of
    /// `chunks_exact(1)` over empty buffers.
    #[test]
    fn zero_dimension_matmul_shapes() {
        // 0×k · k×n: empty result with n columns.
        let c = Tensor::zeros(0, 3).matmul(&Tensor::zeros(3, 2));
        assert_eq!((c.rows(), c.cols()), (0, 2));
        assert!(c.is_empty());
        // m×0 · 0×n: empty reduction, so the m×n zero matrix.
        let c = Tensor::zeros(2, 0).matmul(&Tensor::zeros(0, 3));
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert_eq!(c.data(), &[0.0; 6]);
        // m×k · k×0: empty result with m rows.
        let c = Tensor::zeros(2, 3).matmul(&Tensor::zeros(3, 0));
        assert_eq!((c.rows(), c.cols()), (2, 0));
        assert!(c.is_empty());
    }

    #[test]
    fn zero_dimension_kernel_preserves_partial_sums() {
        // k = 0 contributes no terms: existing partial sums must survive.
        let mut out = vec![1.5; 6];
        matmul_kernel(&[], &[], (2, 0, 3), &mut out);
        assert_eq!(out, vec![1.5; 6]);
    }

    #[test]
    fn zero_dimension_transposed_products() {
        // t_matmul with zero-column output and zero-length reduction.
        let c = Tensor::zeros(3, 0).t_matmul(&Tensor::zeros(3, 2));
        assert_eq!((c.rows(), c.cols()), (0, 2));
        let mut acc = Tensor::zeros(2, 3);
        acc.t_matmul_acc(&Tensor::zeros(0, 2), &Tensor::zeros(0, 3));
        assert_eq!(acc.data(), &[0.0; 6]);
        // matmul_t with an empty batch dimension leaves sums untouched.
        let mut acc = Tensor::from_vec(2, 2, vec![0.5; 4]);
        acc.matmul_t_acc(&Tensor::zeros(2, 0), &Tensor::zeros(2, 0));
        assert_eq!(acc.data(), &[0.5; 4]);
    }
}
