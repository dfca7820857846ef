//! Hand-constructed DFGs for the 12 PolyBench kernels used in the paper's
//! evaluation (§VI, Fig. 9–13).
//!
//! The paper extracts these from LLVM via CGRA-ME; offline we build the
//! innermost-loop bodies by hand (see DESIGN.md "Substitutions"). Every
//! kernel follows the same recipe real CGRA DFGs exhibit:
//!
//! * an induction variable updated by a self-recurrent `add` plus a `cmp`
//!   against the loop bound,
//! * affine address computation feeding `load`s,
//! * the arithmetic core (mul/add trees, accumulations as recurrences),
//! * `store`s of the produced values.
//!
//! Node counts land in the tens — the range CGRA-ME's mappers handle and the
//! paper's Fig. 9 exercises.

use crate::{Dfg, DfgError, NodeId, OpKind};

/// Names of the twelve kernels, in the order the figures plot them.
pub const KERNEL_NAMES: [&str; 12] = [
    "atax", "bicg", "gemm", "gesummv", "mvt", "symm", "syrk", "syr2k", "trmm", "doitgen", "2mm",
    "3mm",
];

/// Kernels whose unrolled (factor 2) variants appear in Fig. 9d (4×4 CGRA).
pub const UNROLLED_4X4_NAMES: [&str; 6] = ["atax", "bicg", "gemm", "gesummv", "mvt", "symm"];

/// Kernels whose unrolled variants appear in Fig. 9f (8×8 CGRA).
pub const UNROLLED_8X8_NAMES: [&str; 8] = [
    "atax", "bicg", "gemm", "gesummv", "mvt", "symm", "syrk", "syr2k",
];

/// Builds the DFG for a kernel by name.
///
/// # Errors
///
/// [`DfgError::UnknownKernel`] for a name outside [`KERNEL_NAMES`]; any
/// other [`DfgError`] only if an internal construction bug violates the
/// graph invariants (never in practice; covered by tests).
pub fn kernel(name: &str) -> Result<Dfg, DfgError> {
    let g = match name {
        "atax" => atax(),
        "bicg" => bicg(),
        "gemm" => gemm(),
        "gesummv" => gesummv(),
        "mvt" => mvt(),
        "symm" => symm(),
        "syrk" => syrk(),
        "syr2k" => syr2k(),
        "trmm" => trmm(),
        "doitgen" => doitgen(),
        "2mm" => mm2(),
        "3mm" => mm3(),
        other => return Err(DfgError::UnknownKernel(other.to_string())),
    }?;
    g.validate()?;
    Ok(g)
}

/// All twelve kernels in figure order.
///
/// # Example
///
/// ```
/// let kernels = lisa_dfg::polybench::all_kernels();
/// assert_eq!(kernels.len(), 12);
/// for k in &kernels {
///     assert!(k.validate().is_ok());
/// }
/// ```
pub fn all_kernels() -> Vec<Dfg> {
    KERNEL_NAMES
        .iter()
        .map(|n| kernel(n).expect("built-in kernels are valid"))
        .collect()
}

/// Factor-2 unrolled variants of the named kernels.
pub fn unrolled_kernels(names: &[&str]) -> Vec<Dfg> {
    names
        .iter()
        .map(|n| crate::unroll::unroll(&kernel(n).expect("built-in kernels are valid"), 2))
        .collect()
}

/// Shared scaffolding for kernel construction.
struct Builder {
    g: Dfg,
}

impl Builder {
    fn new(name: &str) -> Self {
        Builder { g: Dfg::new(name) }
    }

    fn node(&mut self, op: OpKind, name: &str) -> NodeId {
        self.g.add_node(op, name)
    }

    fn edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), DfgError> {
        self.g.add_data_edge(src, dst)?;
        Ok(())
    }

    /// Induction variable: `i_next = i + step` with a distance-1 recurrence
    /// onto itself, plus a `cmp` against the loop bound. Returns the add
    /// node (the live induction value).
    fn induction(&mut self, name: &str) -> Result<NodeId, DfgError> {
        let step = self.node(OpKind::Const, &format!("{name}_step"));
        let add = self.node(OpKind::Add, &format!("{name}_next"));
        let bound = self.node(OpKind::Const, &format!("{name}_bound"));
        let cmp = self.node(OpKind::Cmp, &format!("{name}_cmp"));
        self.edge(step, add)?;
        self.g.add_recurrence_edge(add, add, 1)?;
        self.edge(add, cmp)?;
        self.edge(bound, cmp)?;
        Ok(add)
    }

    /// Affine address `base + idx` feeding a load; returns the load.
    fn load_at(&mut self, idx: NodeId, name: &str) -> Result<NodeId, DfgError> {
        let base = self.node(OpKind::Const, &format!("{name}_base"));
        let addr = self.node(OpKind::Add, &format!("{name}_addr"));
        let ld = self.node(OpKind::Load, name);
        self.edge(base, addr)?;
        self.edge(idx, addr)?;
        self.edge(addr, ld)?;
        Ok(ld)
    }

    /// Strided address `base + idx * stride` feeding a load.
    fn load_strided(&mut self, idx: NodeId, name: &str) -> Result<NodeId, DfgError> {
        let stride = self.node(OpKind::Const, &format!("{name}_stride"));
        let mul = self.node(OpKind::Mul, &format!("{name}_off"));
        self.edge(idx, mul)?;
        self.edge(stride, mul)?;
        self.load_at(mul, name)
    }

    /// Accumulator `acc += value`: an add with a distance-1 self-recurrence.
    fn accumulate(&mut self, value: NodeId, name: &str) -> Result<NodeId, DfgError> {
        let acc = self.node(OpKind::Add, name);
        self.edge(value, acc)?;
        self.g.add_recurrence_edge(acc, acc, 1)?;
        Ok(acc)
    }

    /// `store value` (address folded into the store port).
    fn store(&mut self, value: NodeId, name: &str) -> Result<NodeId, DfgError> {
        let st = self.node(OpKind::Store, name);
        self.edge(value, st)?;
        Ok(st)
    }

    fn finish(self) -> Result<Dfg, DfgError> {
        self.g.validate()?;
        Ok(self.g)
    }
}

/// `atax`: y += A[i][j] * tmp_x  twice-nested matrix–vector chain.
/// Inner body: tmp += A[i][j] * x[j]; y[j] += A[i][j] * tmp.
fn atax() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("atax");
    let j = b.induction("j")?;
    let a_ij = b.load_at(j, "A_ij")?;
    let x_j = b.load_at(j, "x_j")?;
    let m1 = b.node(OpKind::Mul, "mul_ax");
    b.edge(a_ij, m1)?;
    b.edge(x_j, m1)?;
    let tmp = b.accumulate(m1, "tmp_acc")?;
    let m2 = b.node(OpKind::Mul, "mul_at");
    b.edge(a_ij, m2)?;
    b.edge(tmp, m2)?;
    let y_j = b.load_at(j, "y_j")?;
    let upd = b.node(OpKind::Add, "y_upd");
    b.edge(y_j, upd)?;
    b.edge(m2, upd)?;
    b.store(upd, "y_store")?;
    b.finish()
}

/// `bicg`: s[j] += r[i]*A[i][j]; q[i] += A[i][j]*p[j].
fn bicg() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("bicg");
    let j = b.induction("j")?;
    let a_ij = b.load_at(j, "A_ij")?;
    let r_i = b.load_at(j, "r_i")?;
    let p_j = b.load_at(j, "p_j")?;
    let s_j = b.load_at(j, "s_j")?;
    let m1 = b.node(OpKind::Mul, "r_mul_a");
    b.edge(r_i, m1)?;
    b.edge(a_ij, m1)?;
    let s_upd = b.node(OpKind::Add, "s_upd");
    b.edge(s_j, s_upd)?;
    b.edge(m1, s_upd)?;
    b.store(s_upd, "s_store")?;
    let m2 = b.node(OpKind::Mul, "a_mul_p");
    b.edge(a_ij, m2)?;
    b.edge(p_j, m2)?;
    let q = b.accumulate(m2, "q_acc")?;
    b.store(q, "q_store")?;
    b.finish()
}

/// `gemm`: C[i][j] = beta*C[i][j] + alpha * Σ_k A[i][k]*B[k][j].
/// Inner body over k with the alpha product folded into the accumulation.
fn gemm() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("gemm");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let b_kj = b.load_strided(k, "B_kj")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m1 = b.node(OpKind::Mul, "ab");
    b.edge(a_ik, m1)?;
    b.edge(b_kj, m1)?;
    let m2 = b.node(OpKind::Mul, "ab_alpha");
    b.edge(m1, m2)?;
    b.edge(alpha, m2)?;
    let acc = b.accumulate(m2, "c_acc")?;
    b.store(acc, "c_store")?;
    b.finish()
}

/// `gesummv`: tmp[i] += A[i][j]*x[j]; y[i] += B[i][j]*x[j]; then the
/// alpha/beta combine feeds the store.
fn gesummv() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("gesummv");
    let j = b.induction("j")?;
    let a_ij = b.load_at(j, "A_ij")?;
    let b_ij = b.load_at(j, "B_ij")?;
    let x_j = b.load_at(j, "x_j")?;
    let m1 = b.node(OpKind::Mul, "ax");
    b.edge(a_ij, m1)?;
    b.edge(x_j, m1)?;
    let m2 = b.node(OpKind::Mul, "bx");
    b.edge(b_ij, m2)?;
    b.edge(x_j, m2)?;
    let tmp = b.accumulate(m1, "tmp_acc")?;
    let y = b.accumulate(m2, "y_acc")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let beta = b.node(OpKind::Const, "beta");
    let at = b.node(OpKind::Mul, "alpha_tmp");
    b.edge(alpha, at)?;
    b.edge(tmp, at)?;
    let by = b.node(OpKind::Mul, "beta_y");
    b.edge(beta, by)?;
    b.edge(y, by)?;
    let sum = b.node(OpKind::Add, "combine");
    b.edge(at, sum)?;
    b.edge(by, sum)?;
    b.store(sum, "y_store")?;
    b.finish()
}

/// `mvt`: x1[i] += A[i][j]*y1[j]; x2[i] += A[j][i]*y2[j].
fn mvt() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("mvt");
    let j = b.induction("j")?;
    let a_ij = b.load_at(j, "A_ij")?;
    let a_ji = b.load_strided(j, "A_ji")?;
    let y1 = b.load_at(j, "y1_j")?;
    let y2 = b.load_at(j, "y2_j")?;
    let m1 = b.node(OpKind::Mul, "a_y1");
    b.edge(a_ij, m1)?;
    b.edge(y1, m1)?;
    let m2 = b.node(OpKind::Mul, "a_y2");
    b.edge(a_ji, m2)?;
    b.edge(y2, m2)?;
    let x1 = b.accumulate(m1, "x1_acc")?;
    let x2 = b.accumulate(m2, "x2_acc")?;
    b.store(x1, "x1_store")?;
    b.store(x2, "x2_store")?;
    b.finish()
}

/// `symm`: C[i][j] = beta*C[i][j] + alpha*B[i][j]*A[i][i] + alpha * Σ temp;
/// the inner body accumulates both the row and the symmetric column term.
fn symm() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("symm");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let b_kj = b.load_strided(k, "B_kj")?;
    let b_ij = b.load_at(k, "B_ij")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m1 = b.node(OpKind::Mul, "ab");
    b.edge(a_ik, m1)?;
    b.edge(b_kj, m1)?;
    let m2 = b.node(OpKind::Mul, "ab_alpha");
    b.edge(m1, m2)?;
    b.edge(alpha, m2)?;
    let acc = b.accumulate(m2, "c_acc")?;
    // Symmetric update: C[k][j] += alpha * B[i][j] * A[i][k].
    let m3 = b.node(OpKind::Mul, "ba");
    b.edge(b_ij, m3)?;
    b.edge(a_ik, m3)?;
    let m4 = b.node(OpKind::Mul, "ba_alpha");
    b.edge(m3, m4)?;
    b.edge(alpha, m4)?;
    let c_kj = b.load_strided(k, "C_kj")?;
    let upd = b.node(OpKind::Add, "c_kj_upd");
    b.edge(c_kj, upd)?;
    b.edge(m4, upd)?;
    b.store(upd, "c_kj_store")?;
    b.store(acc, "c_ij_store")?;
    b.finish()
}

/// `syrk`: C[i][j] = beta*C[i][j] + alpha * Σ_k A[i][k]*A[j][k].
fn syrk() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("syrk");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let a_jk = b.load_strided(k, "A_jk")?;
    let m1 = b.node(OpKind::Mul, "aa");
    b.edge(a_ik, m1)?;
    b.edge(a_jk, m1)?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m2 = b.node(OpKind::Mul, "aa_alpha");
    b.edge(m1, m2)?;
    b.edge(alpha, m2)?;
    let acc = b.accumulate(m2, "c_acc")?;
    b.store(acc, "c_store")?;
    b.finish()
}

/// `syr2k`: C[i][j] += alpha*A[i][k]*B[j][k] + alpha*B[i][k]*A[j][k].
/// The densest kernel: four loads feed two products combined per iteration.
fn syr2k() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("syr2k");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let b_jk = b.load_strided(k, "B_jk")?;
    let b_ik = b.load_at(k, "B_ik")?;
    let a_jk = b.load_strided(k, "A_jk")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m1 = b.node(OpKind::Mul, "ab1");
    b.edge(a_ik, m1)?;
    b.edge(b_jk, m1)?;
    let m2 = b.node(OpKind::Mul, "ab2");
    b.edge(b_ik, m2)?;
    b.edge(a_jk, m2)?;
    let s = b.node(OpKind::Add, "pair_sum");
    b.edge(m1, s)?;
    b.edge(m2, s)?;
    let m3 = b.node(OpKind::Mul, "sum_alpha");
    b.edge(s, m3)?;
    b.edge(alpha, m3)?;
    let acc = b.accumulate(m3, "c_acc")?;
    b.store(acc, "c_store")?;
    b.finish()
}

/// `trmm`: B[i][j] += A[k][i] * B[k][j] over the triangular range, then the
/// alpha scale at the store.
fn trmm() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("trmm");
    let k = b.induction("k")?;
    let a_ki = b.load_strided(k, "A_ki")?;
    let b_kj = b.load_strided(k, "B_kj")?;
    let m1 = b.node(OpKind::Mul, "ab");
    b.edge(a_ki, m1)?;
    b.edge(b_kj, m1)?;
    let acc = b.accumulate(m1, "b_acc")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m2 = b.node(OpKind::Mul, "acc_alpha");
    b.edge(acc, m2)?;
    b.edge(alpha, m2)?;
    b.store(m2, "b_store")?;
    b.finish()
}

/// `doitgen`: sum[p] += A[r][q][s] * C4[s][p].
fn doitgen() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("doitgen");
    let s = b.induction("s")?;
    let a_rqs = b.load_at(s, "A_rqs")?;
    let c4_sp = b.load_strided(s, "C4_sp")?;
    let m = b.node(OpKind::Mul, "ac");
    b.edge(a_rqs, m)?;
    b.edge(c4_sp, m)?;
    let acc = b.accumulate(m, "sum_acc")?;
    b.store(acc, "sum_store")?;
    b.finish()
}

/// `2mm`: tmp = alpha*A*B then D = tmp*C + beta*D; fused inner body.
fn mm2() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("2mm");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let b_kj = b.load_strided(k, "B_kj")?;
    let alpha = b.node(OpKind::Const, "alpha");
    let m1 = b.node(OpKind::Mul, "ab");
    b.edge(a_ik, m1)?;
    b.edge(b_kj, m1)?;
    let m2 = b.node(OpKind::Mul, "ab_alpha");
    b.edge(m1, m2)?;
    b.edge(alpha, m2)?;
    let tmp = b.accumulate(m2, "tmp_acc")?;
    let c_kj = b.load_strided(k, "C_kj")?;
    let m3 = b.node(OpKind::Mul, "tmp_c");
    b.edge(tmp, m3)?;
    b.edge(c_kj, m3)?;
    let d = b.accumulate(m3, "d_acc")?;
    b.store(d, "d_store")?;
    b.finish()
}

/// `3mm`: E = A*B, F = C*D, G = E*F; fused inner body with three products.
fn mm3() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("3mm");
    let k = b.induction("k")?;
    let a_ik = b.load_at(k, "A_ik")?;
    let b_kj = b.load_strided(k, "B_kj")?;
    let c_ik = b.load_at(k, "C_ik")?;
    let d_kj = b.load_strided(k, "D_kj")?;
    let m1 = b.node(OpKind::Mul, "ab");
    b.edge(a_ik, m1)?;
    b.edge(b_kj, m1)?;
    let e = b.accumulate(m1, "e_acc")?;
    let m2 = b.node(OpKind::Mul, "cd");
    b.edge(c_ik, m2)?;
    b.edge(d_kj, m2)?;
    let f = b.accumulate(m2, "f_acc")?;
    let m3 = b.node(OpKind::Mul, "ef");
    b.edge(e, m3)?;
    b.edge(f, m3)?;
    let g = b.accumulate(m3, "g_acc")?;
    b.store(g, "g_store")?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn all_twelve_build_and_validate() {
        let kernels = all_kernels();
        assert_eq!(kernels.len(), 12);
        for k in &kernels {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert!(k.is_weakly_connected(), "{} disconnected", k.name());
        }
    }

    #[test]
    fn kernel_names_match() {
        for name in KERNEL_NAMES {
            let g = kernel(name).unwrap();
            assert_eq!(g.name(), name);
        }
    }

    #[test]
    fn sizes_are_in_cgra_range() {
        for g in all_kernels() {
            assert!(
                (10..=40).contains(&g.node_count()),
                "{}: {} nodes outside expected range",
                g.name(),
                g.node_count()
            );
        }
    }

    #[test]
    fn every_kernel_has_memory_ops_and_recurrence() {
        for g in all_kernels() {
            assert!(
                g.nodes().iter().any(|n| n.op == OpKind::Load),
                "{} has no load",
                g.name()
            );
            assert!(
                g.nodes().iter().any(|n| n.op == OpKind::Store),
                "{} has no store",
                g.name()
            );
            assert!(analysis::rec_mii(&g) >= 1, "{} rec_mii broken", g.name());
        }
    }

    #[test]
    fn syr2k_is_denser_than_doitgen() {
        // Fig. 9 relies on syr2k being among the hardest kernels; make sure
        // our construction preserves that density relationship.
        let syr2k = kernel("syr2k").unwrap();
        let doitgen = kernel("doitgen").unwrap();
        assert!(syr2k.node_count() > doitgen.node_count());
        assert!(syr2k.edge_count() > doitgen.edge_count());
    }

    #[test]
    fn unrolled_sets_have_expected_sizes() {
        let u4 = unrolled_kernels(&UNROLLED_4X4_NAMES);
        assert_eq!(u4.len(), 6);
        let u8 = unrolled_kernels(&UNROLLED_8X8_NAMES);
        assert_eq!(u8.len(), 8);
        for g in u4.iter().chain(u8.iter()) {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            assert!(g.name().ends_with("_u2"));
        }
    }

    #[test]
    fn unknown_kernel_is_a_typed_error() {
        let unknown = Err(DfgError::UnknownKernel("nosuch".to_string()));
        assert_eq!(kernel("nosuch"), unknown);
        assert_eq!(kernel_core("nosuch"), unknown);
        assert_eq!(
            kernel("nosuch").unwrap_err().to_string(),
            "unknown PolyBench kernel \"nosuch\""
        );
    }

    #[test]
    fn deterministic_construction() {
        let a = kernel("gemm").unwrap();
        let b = kernel("gemm").unwrap();
        assert_eq!(a, b);
    }
}

/// Compute-core variant of a kernel for the systolic-array experiments
/// (Fig. 9g): the loop body without address arithmetic or induction
/// variables. Systolic arrays stream operands in from the boundary, so
/// loads are direct sources, the interior computes the mul/add tree, and
/// results stream out through stores. Only systolic-supported operations
/// appear.
///
/// # Errors
///
/// [`DfgError::UnknownKernel`] for a name outside [`KERNEL_NAMES`]; any
/// other [`DfgError`] only on internal construction bugs (covered by
/// tests).
pub fn kernel_core(name: &str) -> Result<Dfg, DfgError> {
    let mut b = Builder::new(&format!("{name}-core"));
    match name {
        "atax" => {
            let a = b.node(OpKind::Load, "A_ij");
            let x = b.node(OpKind::Load, "x_j");
            let y = b.node(OpKind::Load, "y_j");
            let m1 = b.node(OpKind::Mul, "ax");
            b.edge(a, m1)?;
            b.edge(x, m1)?;
            let tmp = b.accumulate(m1, "tmp")?;
            let m2 = b.node(OpKind::Mul, "at");
            b.edge(a, m2)?;
            b.edge(tmp, m2)?;
            let upd = b.node(OpKind::Add, "y_upd");
            b.edge(y, upd)?;
            b.edge(m2, upd)?;
            b.store(upd, "y_store")?;
        }
        "bicg" => {
            let a = b.node(OpKind::Load, "A_ij");
            let r = b.node(OpKind::Load, "r_i");
            let p = b.node(OpKind::Load, "p_j");
            let s = b.node(OpKind::Load, "s_j");
            let m1 = b.node(OpKind::Mul, "ra");
            b.edge(r, m1)?;
            b.edge(a, m1)?;
            let s_upd = b.node(OpKind::Add, "s_upd");
            b.edge(s, s_upd)?;
            b.edge(m1, s_upd)?;
            b.store(s_upd, "s_store")?;
            let m2 = b.node(OpKind::Mul, "ap");
            b.edge(a, m2)?;
            b.edge(p, m2)?;
            let q = b.accumulate(m2, "q")?;
            b.store(q, "q_store")?;
        }
        "gemm" => {
            let a = b.node(OpKind::Load, "A_ik");
            let bb = b.node(OpKind::Load, "B_kj");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "ab");
            b.edge(a, m1)?;
            b.edge(bb, m1)?;
            let m2 = b.node(OpKind::Mul, "ab_alpha");
            b.edge(m1, m2)?;
            b.edge(alpha, m2)?;
            let acc = b.accumulate(m2, "c")?;
            b.store(acc, "c_store")?;
        }
        "gesummv" => {
            let a = b.node(OpKind::Load, "A_ij");
            let bb = b.node(OpKind::Load, "B_ij");
            let x = b.node(OpKind::Load, "x_j");
            let m1 = b.node(OpKind::Mul, "ax");
            b.edge(a, m1)?;
            b.edge(x, m1)?;
            let m2 = b.node(OpKind::Mul, "bx");
            b.edge(bb, m2)?;
            b.edge(x, m2)?;
            let t = b.accumulate(m1, "tmp")?;
            let y = b.accumulate(m2, "y")?;
            let sum = b.node(OpKind::Add, "combine");
            b.edge(t, sum)?;
            b.edge(y, sum)?;
            b.store(sum, "y_store")?;
        }
        "mvt" => {
            let a1 = b.node(OpKind::Load, "A_ij");
            let a2 = b.node(OpKind::Load, "A_ji");
            let y1 = b.node(OpKind::Load, "y1");
            let y2 = b.node(OpKind::Load, "y2");
            let m1 = b.node(OpKind::Mul, "ay1");
            b.edge(a1, m1)?;
            b.edge(y1, m1)?;
            let m2 = b.node(OpKind::Mul, "ay2");
            b.edge(a2, m2)?;
            b.edge(y2, m2)?;
            let x1 = b.accumulate(m1, "x1")?;
            let x2 = b.accumulate(m2, "x2")?;
            b.store(x1, "x1_store")?;
            b.store(x2, "x2_store")?;
        }
        "symm" => {
            let a = b.node(OpKind::Load, "A_ik");
            let bkj = b.node(OpKind::Load, "B_kj");
            let bij = b.node(OpKind::Load, "B_ij");
            let ckj = b.node(OpKind::Load, "C_kj");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "ab");
            b.edge(a, m1)?;
            b.edge(bkj, m1)?;
            let m2 = b.node(OpKind::Mul, "ab_alpha");
            b.edge(m1, m2)?;
            b.edge(alpha, m2)?;
            let acc = b.accumulate(m2, "c_acc")?;
            let m3 = b.node(OpKind::Mul, "ba");
            b.edge(bij, m3)?;
            b.edge(a, m3)?;
            let upd = b.node(OpKind::Add, "ckj_upd");
            b.edge(ckj, upd)?;
            b.edge(m3, upd)?;
            b.store(upd, "ckj_store")?;
            b.store(acc, "cij_store")?;
        }
        "syrk" => {
            let a1 = b.node(OpKind::Load, "A_ik");
            let a2 = b.node(OpKind::Load, "A_jk");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "aa");
            b.edge(a1, m1)?;
            b.edge(a2, m1)?;
            let m2 = b.node(OpKind::Mul, "aa_alpha");
            b.edge(m1, m2)?;
            b.edge(alpha, m2)?;
            let acc = b.accumulate(m2, "c")?;
            b.store(acc, "c_store")?;
        }
        "syr2k" => {
            let a1 = b.node(OpKind::Load, "A_ik");
            let b1 = b.node(OpKind::Load, "B_jk");
            let b2 = b.node(OpKind::Load, "B_ik");
            let a2 = b.node(OpKind::Load, "A_jk");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "ab1");
            b.edge(a1, m1)?;
            b.edge(b1, m1)?;
            let m2 = b.node(OpKind::Mul, "ab2");
            b.edge(b2, m2)?;
            b.edge(a2, m2)?;
            let s = b.node(OpKind::Add, "pair");
            b.edge(m1, s)?;
            b.edge(m2, s)?;
            let m3 = b.node(OpKind::Mul, "scaled");
            b.edge(s, m3)?;
            b.edge(alpha, m3)?;
            let acc = b.accumulate(m3, "c")?;
            b.store(acc, "c_store")?;
        }
        "trmm" => {
            // The densest per-load fanout of the core set: one operand
            // stream feeds two multipliers and a symmetric update, which is
            // what makes trmm hard to lay out on forward-only links.
            let a = b.node(OpKind::Load, "A_ki");
            let bkj = b.node(OpKind::Load, "B_kj");
            let bij = b.node(OpKind::Load, "B_ij");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "ab");
            b.edge(a, m1)?;
            b.edge(bkj, m1)?;
            let m2 = b.node(OpKind::Mul, "ab2");
            b.edge(a, m2)?;
            b.edge(bij, m2)?;
            let acc = b.accumulate(m1, "b_acc")?;
            let s = b.node(OpKind::Add, "mix");
            b.edge(acc, s)?;
            b.edge(m2, s)?;
            let m3 = b.node(OpKind::Mul, "scaled");
            b.edge(s, m3)?;
            b.edge(alpha, m3)?;
            let s2 = b.node(OpKind::Add, "mix2");
            b.edge(m3, s2)?;
            b.edge(m1, s2)?;
            b.store(s2, "b_store")?;
        }
        "doitgen" => {
            let a = b.node(OpKind::Load, "A_rqs");
            let c4 = b.node(OpKind::Load, "C4_sp");
            let m = b.node(OpKind::Mul, "ac");
            b.edge(a, m)?;
            b.edge(c4, m)?;
            let acc = b.accumulate(m, "sum")?;
            b.store(acc, "sum_store")?;
        }
        "2mm" => {
            let a = b.node(OpKind::Load, "A_ik");
            let bb = b.node(OpKind::Load, "B_kj");
            let c = b.node(OpKind::Load, "C_kj");
            let alpha = b.node(OpKind::Const, "alpha");
            let m1 = b.node(OpKind::Mul, "ab");
            b.edge(a, m1)?;
            b.edge(bb, m1)?;
            let m2 = b.node(OpKind::Mul, "ab_alpha");
            b.edge(m1, m2)?;
            b.edge(alpha, m2)?;
            let tmp = b.accumulate(m2, "tmp")?;
            let m3 = b.node(OpKind::Mul, "tmp_c");
            b.edge(tmp, m3)?;
            b.edge(c, m3)?;
            let d = b.accumulate(m3, "d")?;
            b.store(d, "d_store")?;
        }
        "3mm" => {
            let a = b.node(OpKind::Load, "A_ik");
            let bb = b.node(OpKind::Load, "B_kj");
            let c = b.node(OpKind::Load, "C_ik");
            let d = b.node(OpKind::Load, "D_kj");
            let m1 = b.node(OpKind::Mul, "ab");
            b.edge(a, m1)?;
            b.edge(bb, m1)?;
            let e = b.accumulate(m1, "e")?;
            let m2 = b.node(OpKind::Mul, "cd");
            b.edge(c, m2)?;
            b.edge(d, m2)?;
            let f = b.accumulate(m2, "f")?;
            let m3 = b.node(OpKind::Mul, "ef");
            b.edge(e, m3)?;
            b.edge(f, m3)?;
            let g = b.accumulate(m3, "g")?;
            b.store(g, "g_store")?;
        }
        other => return Err(DfgError::UnknownKernel(other.to_string())),
    }
    b.finish()
}

/// Compute-core variants of all twelve kernels (systolic experiments).
pub fn all_cores() -> Vec<Dfg> {
    KERNEL_NAMES
        .iter()
        .map(|n| kernel_core(n).expect("built-in cores are valid"))
        .collect()
}

#[cfg(test)]
mod core_tests {
    use super::*;

    #[test]
    fn cores_build_and_are_systolic_compatible() {
        for g in all_cores() {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            // Note: mvt-core is legitimately two independent MAC chains,
            // so weak connectivity is not asserted here.
            for n in g.nodes() {
                assert!(
                    n.op.systolic_supported() || n.op == OpKind::Const,
                    "{}: op {} unsupported on systolic",
                    g.name(),
                    n.op
                );
            }
        }
    }

    #[test]
    fn cores_are_smaller_than_full_kernels() {
        for name in KERNEL_NAMES {
            let full = kernel(name).unwrap();
            let core = kernel_core(name).unwrap();
            assert!(
                core.node_count() < full.node_count(),
                "{name}: core not smaller"
            );
        }
    }

    #[test]
    fn cores_fit_boundary_constraints_of_5x5() {
        // At most 5 loads (left column) and 5 stores (right column).
        for g in all_cores() {
            let loads = g.nodes().iter().filter(|n| n.op == OpKind::Load).count();
            let stores = g.nodes().iter().filter(|n| n.op == OpKind::Store).count();
            assert!(loads <= 5, "{}: {loads} loads", g.name());
            assert!(stores <= 5, "{}: {stores} stores", g.name());
        }
    }
}

/// Additional PolyBench kernels beyond the twelve the paper's figures use.
/// These exercise workload classes the core set lacks — stencils
/// (jacobi-1d/2d), a rank-1-update-plus-mv composite (gemver), and a
/// triangular solve (trisolv) — and back the `ext_stencils` extension
/// experiment.
pub const EXTRA_KERNEL_NAMES: [&str; 4] = ["gemver", "jacobi-1d", "jacobi-2d", "trisolv"];

/// Builds one of the extra kernels by name.
///
/// # Errors
///
/// [`DfgError::UnknownKernel`] for a name outside [`EXTRA_KERNEL_NAMES`];
/// any other [`DfgError`] only on internal construction bugs.
pub fn extra_kernel(name: &str) -> Result<Dfg, DfgError> {
    let g = match name {
        "gemver" => gemver(),
        "jacobi-1d" => jacobi1d(),
        "jacobi-2d" => jacobi2d(),
        "trisolv" => trisolv(),
        other => return Err(DfgError::UnknownKernel(other.to_string())),
    }?;
    g.validate()?;
    Ok(g)
}

/// All extra kernels in declaration order.
pub fn extra_kernels() -> Vec<Dfg> {
    EXTRA_KERNEL_NAMES
        .iter()
        .map(|n| extra_kernel(n).expect("built-in kernels are valid"))
        .collect()
}

/// `gemver`: A += u1·v1ᵀ + u2·v2ᵀ fused with x += βAᵀy (inner body).
fn gemver() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("gemver");
    let j = b.induction("j")?;
    let a_ij = b.load_at(j, "A_ij")?;
    let u1 = b.load_at(j, "u1_i")?;
    let v1 = b.load_at(j, "v1_j")?;
    let u2 = b.load_at(j, "u2_i")?;
    let v2 = b.load_at(j, "v2_j")?;
    let m1 = b.node(OpKind::Mul, "u1v1");
    b.edge(u1, m1)?;
    b.edge(v1, m1)?;
    let m2 = b.node(OpKind::Mul, "u2v2");
    b.edge(u2, m2)?;
    b.edge(v2, m2)?;
    let s1 = b.node(OpKind::Add, "rank1");
    b.edge(m1, s1)?;
    b.edge(m2, s1)?;
    let upd = b.node(OpKind::Add, "a_upd");
    b.edge(a_ij, upd)?;
    b.edge(s1, upd)?;
    b.store(upd, "a_store")?;
    let y = b.load_at(j, "y_j")?;
    let beta = b.node(OpKind::Const, "beta");
    let m3 = b.node(OpKind::Mul, "ay");
    b.edge(upd, m3)?;
    b.edge(y, m3)?;
    let m4 = b.node(OpKind::Mul, "ay_beta");
    b.edge(m3, m4)?;
    b.edge(beta, m4)?;
    let x = b.accumulate(m4, "x_acc")?;
    b.store(x, "x_store")?;
    b.finish()
}

/// `jacobi-1d`: B[i] = 0.33 * (A[i-1] + A[i] + A[i+1]).
fn jacobi1d() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("jacobi-1d");
    let i = b.induction("i")?;
    let left = b.load_at(i, "A_im1")?;
    let mid = b.load_at(i, "A_i")?;
    let right = b.load_at(i, "A_ip1")?;
    let s1 = b.node(OpKind::Add, "lm");
    b.edge(left, s1)?;
    b.edge(mid, s1)?;
    let s2 = b.node(OpKind::Add, "lmr");
    b.edge(s1, s2)?;
    b.edge(right, s2)?;
    let third = b.node(OpKind::Const, "third");
    let m = b.node(OpKind::Mul, "scaled");
    b.edge(s2, m)?;
    b.edge(third, m)?;
    b.store(m, "b_store")?;
    b.finish()
}

/// `jacobi-2d`: B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1]
///                               + A[i-1][j] + A[i+1][j]).
fn jacobi2d() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("jacobi-2d");
    let j = b.induction("j")?;
    let c = b.load_at(j, "A_c")?;
    let w = b.load_at(j, "A_w")?;
    let e = b.load_at(j, "A_e")?;
    let n = b.load_strided(j, "A_n")?;
    let s = b.load_strided(j, "A_s")?;
    let s1 = b.node(OpKind::Add, "cw");
    b.edge(c, s1)?;
    b.edge(w, s1)?;
    let s2 = b.node(OpKind::Add, "cwe");
    b.edge(s1, s2)?;
    b.edge(e, s2)?;
    let s3 = b.node(OpKind::Add, "cwen");
    b.edge(s2, s3)?;
    b.edge(n, s3)?;
    let s4 = b.node(OpKind::Add, "cwens");
    b.edge(s3, s4)?;
    b.edge(s, s4)?;
    let fifth = b.node(OpKind::Const, "fifth");
    let m = b.node(OpKind::Mul, "scaled");
    b.edge(s4, m)?;
    b.edge(fifth, m)?;
    b.store(m, "b_store")?;
    b.finish()
}

/// `trisolv`: x[i] = (b[i] - Σ_j L[i][j] * x[j]) / L[i][i] (inner body).
fn trisolv() -> Result<Dfg, DfgError> {
    let mut b = Builder::new("trisolv");
    let j = b.induction("j")?;
    let l_ij = b.load_at(j, "L_ij")?;
    let x_j = b.load_at(j, "x_j")?;
    let m = b.node(OpKind::Mul, "lx");
    b.edge(l_ij, m)?;
    b.edge(x_j, m)?;
    let acc = b.accumulate(m, "sum_acc")?;
    let b_i = b.load_at(j, "b_i")?;
    let sub = b.node(OpKind::Sub, "residual");
    b.edge(b_i, sub)?;
    b.edge(acc, sub)?;
    let l_ii = b.load_at(j, "L_ii")?;
    let div = b.node(OpKind::Div, "solve");
    b.edge(sub, div)?;
    b.edge(l_ii, div)?;
    b.store(div, "x_store")?;
    b.finish()
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn extra_kernels_build_and_validate() {
        let ks = extra_kernels();
        assert_eq!(ks.len(), 4);
        for k in &ks {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            assert!(k.is_weakly_connected(), "{} disconnected", k.name());
            assert!((10..=45).contains(&k.node_count()), "{}", k.name());
        }
    }

    #[test]
    fn stencils_have_wide_fanin_trees() {
        let j2 = extra_kernel("jacobi-2d").unwrap();
        let loads = j2.nodes().iter().filter(|n| n.op == OpKind::Load).count();
        assert_eq!(loads, 5, "five-point stencil reads five values");
    }

    #[test]
    fn trisolv_uses_division() {
        let t = extra_kernel("trisolv").unwrap();
        assert!(t.nodes().iter().any(|n| n.op == OpKind::Div));
    }

    #[test]
    fn unknown_extra_kernel_is_a_typed_error() {
        // The twelve paper kernels are not extra kernels.
        for name in ["nope", "gemm"] {
            assert_eq!(
                extra_kernel(name),
                Err(DfgError::UnknownKernel(name.to_string()))
            );
        }
    }
}
