//! The accelerator model: CGRAs and systolic arrays on a 2D grid.

use std::fmt;

use lisa_dfg::OpKind;

use crate::distance::{DistanceIndex, MAX_PES};
use crate::mrrg::MoveTable;
use crate::{Coord, PeId};

/// Which PEs may access the on-chip memory (CGRA variants of §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryConnectivity {
    /// Every PE can issue loads and stores (baseline CGRAs).
    All,
    /// Only the left-most column can issue loads and stores
    /// ("4×4 CGRA with less memory connectivity").
    LeftColumn,
}

/// Functional heterogeneity of a CGRA's PEs.
///
/// Accelerator generators (REVAMP-style, paper §I) trim expensive units
/// from some PEs; a portable compiler must respect the resulting
/// capability map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Heterogeneity {
    /// Every PE has the full ALU (baseline CGRAs).
    #[default]
    Homogeneous,
    /// Multipliers and dividers only on PEs whose row+column parity is
    /// even (a checkerboard), halving the expensive units.
    CheckerboardMul,
}

/// Link topology of a CGRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interconnect {
    /// Classic mesh: one hop per cycle to the four neighbours (Fig. 1).
    #[default]
    Mesh,
    /// HyCUBE-style single-cycle multi-hop: a value reaches any PE within
    /// the given Manhattan radius in one cycle (the bypass network of the
    /// authors' HyCUBE architecture, §I).
    MultiHop {
        /// Manhattan radius reachable per cycle (≥ 1; 1 equals `Mesh`).
        radius: u8,
    },
}

/// The accelerator family, fixing per-PE capabilities and link topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// Coarse-grained reconfigurable array: per-cycle reconfigurable PEs on
    /// a 2D mesh with bidirectional neighbour links (paper Fig. 1).
    Cgra {
        /// Memory connectivity of the PEs.
        memory: MemoryConnectivity,
        /// Functional heterogeneity of the PEs.
        heterogeneity: Heterogeneity,
    },
    /// Systolic array with Revel-like basic units (paper Fig. 3): fixed
    /// per-PE function, left-most column loads, right-most column stores,
    /// and forward-only links (right, up, down).
    Systolic,
}

/// A modelled spatial accelerator.
///
/// Construct with [`Accelerator::cgra`] or [`Accelerator::systolic`], then
/// refine with the builder-style `with_*` methods.
///
/// # Example
///
/// ```
/// use lisa_arch::{Accelerator, MemoryConnectivity, PeId};
/// use lisa_dfg::OpKind;
///
/// // The paper's "4×4 CGRA with less routing resources": one register/PE.
/// let lr = Accelerator::cgra("4x4-lr", 4, 4).with_regs_per_pe(1);
/// assert_eq!(lr.regs_per_pe(), 1);
///
/// // "Less memory connectivity": loads only on the left column.
/// let lm = Accelerator::cgra("4x4-lm", 4, 4)
///     .with_memory(MemoryConnectivity::LeftColumn);
/// assert!(lm.supports(PeId::new(0), OpKind::Load));  // col 0
/// assert!(!lm.supports(PeId::new(1), OpKind::Load)); // col 1
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Accelerator {
    name: String,
    rows: usize,
    cols: usize,
    regs_per_pe: usize,
    max_ii: u32,
    kind: AcceleratorKind,
    neighbors: Vec<Vec<PeId>>,
    /// Minimum link-hop distances over the directed link graph: a dense
    /// all-pairs table up to 128 PEs, a landmark oracle (exact within a
    /// radius, true lower bound beyond) on larger fabrics. Derived from
    /// `neighbors`; rebuilt whenever the interconnect changes.
    dist: DistanceIndex,
    /// Every MRRG resource's successors ([`crate::Mrrg::move_offsets`]).
    /// Derived from `neighbors` and `regs_per_pe`; rebuilt whenever
    /// either changes, and shared by the MRRGs of every II.
    moves: MoveTable,
}

impl Accelerator {
    /// Default number of registers per PE on baseline CGRAs (§VI: "The
    /// baseline CGRAs have four registers per PE").
    pub const DEFAULT_REGS_PER_PE: usize = 4;
    /// Configuration memory depth on CGRAs (§VI: "Each PE has 24
    /// configuration entries […] which means the maximum possible II is 24").
    pub const DEFAULT_MAX_II: u32 = 24;
    /// Most PEs a fabric may have (`u16::MAX`): the hop-distance index
    /// names PEs by 16-bit ids.
    pub const MAX_PES: usize = MAX_PES;

    /// Creates a baseline CGRA of the given grid size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid has more than
    /// [`Self::MAX_PES`] PEs.
    pub fn cgra(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        assert_pe_limit(rows, cols);
        let kind = AcceleratorKind::Cgra {
            memory: MemoryConnectivity::All,
            heterogeneity: Heterogeneity::Homogeneous,
        };
        let neighbors = mesh_neighbors(rows, cols);
        let dist = DistanceIndex::build(&neighbors);
        Accelerator {
            name: name.into(),
            rows,
            cols,
            regs_per_pe: Self::DEFAULT_REGS_PER_PE,
            max_ii: Self::DEFAULT_MAX_II,
            kind,
            neighbors,
            dist,
            moves: MoveTable::default(),
        }
        .with_move_table()
    }

    /// Creates a systolic array of the given grid size. PEs keep one
    /// accumulation register; the array is spatial-only (II fixed at 1).
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than 3 columns, zero rows, or more than
    /// [`Self::MAX_PES`] PEs.
    pub fn systolic(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        assert!(rows > 0, "grid dimensions must be positive");
        assert!(
            cols >= 3,
            "systolic array needs load, compute, store columns"
        );
        assert_pe_limit(rows, cols);
        let neighbors = systolic_neighbors(rows, cols);
        let dist = DistanceIndex::build(&neighbors);
        Accelerator {
            name: name.into(),
            rows,
            cols,
            regs_per_pe: 1,
            max_ii: 1,
            kind: AcceleratorKind::Systolic,
            neighbors,
            dist,
            moves: MoveTable::default(),
        }
        .with_move_table()
    }

    /// Rebuilds the move table from the current links and registers.
    fn with_move_table(mut self) -> Self {
        self.moves = MoveTable::build(&self);
        self
    }

    /// Overrides the number of registers per PE (builder style).
    pub fn with_regs_per_pe(mut self, regs: usize) -> Self {
        self.regs_per_pe = regs;
        self.with_move_table()
    }

    /// Overrides the memory connectivity (builder style; CGRA only).
    ///
    /// # Panics
    ///
    /// Panics when called on a systolic array, whose memory topology is
    /// fixed by construction.
    pub fn with_memory(mut self, memory: MemoryConnectivity) -> Self {
        match &mut self.kind {
            AcceleratorKind::Cgra { memory: m, .. } => *m = memory,
            AcceleratorKind::Systolic => {
                panic!("memory connectivity is fixed on systolic arrays")
            }
        }
        self
    }

    /// Overrides the PE heterogeneity (builder style; CGRA only).
    ///
    /// # Panics
    ///
    /// Panics when called on a systolic array, whose per-PE functions are
    /// fixed by construction.
    pub fn with_heterogeneity(mut self, heterogeneity: Heterogeneity) -> Self {
        match &mut self.kind {
            AcceleratorKind::Cgra {
                heterogeneity: h, ..
            } => *h = heterogeneity,
            AcceleratorKind::Systolic => {
                panic!("PE functions are fixed on systolic arrays")
            }
        }
        self
    }

    /// Stable keys of the named accelerator catalog ([`Self::standard`]),
    /// in the order the experiment tables use.
    pub const STANDARD_KEYS: [&'static str; 6] =
        ["3x3", "4x4", "4x4-lr", "4x4-lm", "8x8", "systolic"];

    /// The named accelerator catalog shared by the CLI tools and the
    /// serving daemon: one stable key per modelled fabric of the paper's
    /// evaluation (§VI). Returns `None` for an unknown key.
    pub fn standard(key: &str) -> Option<Self> {
        Some(match key {
            "3x3" => Accelerator::cgra("3x3", 3, 3),
            "4x4" => Accelerator::cgra("4x4", 4, 4),
            "4x4-lr" => Accelerator::cgra("4x4-lr", 4, 4).with_regs_per_pe(1),
            "4x4-lm" => {
                Accelerator::cgra("4x4-lm", 4, 4).with_memory(MemoryConnectivity::LeftColumn)
            }
            "8x8" => Accelerator::cgra("8x8", 8, 8),
            "systolic" => Accelerator::systolic("systolic-5x5", 5, 5),
            _ => return None,
        })
    }

    /// Overrides the configuration depth, i.e. the maximum II.
    pub fn with_max_ii(mut self, max_ii: u32) -> Self {
        assert!(max_ii >= 1);
        self.max_ii = max_ii;
        self
    }

    /// Overrides the interconnect (builder style; CGRA only).
    ///
    /// # Panics
    ///
    /// Panics on a systolic array (its forward-only links are fixed) or a
    /// zero radius.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        match self.kind {
            AcceleratorKind::Cgra { .. } => {}
            AcceleratorKind::Systolic => panic!("links are fixed on systolic arrays"),
        }
        if let Interconnect::MultiHop { radius } = interconnect {
            assert!(radius >= 1, "multi-hop radius must be at least 1");
        }
        self.neighbors = match interconnect {
            Interconnect::Mesh | Interconnect::MultiHop { radius: 1 } => {
                mesh_neighbors(self.rows, self.cols)
            }
            Interconnect::MultiHop { radius } => multihop_neighbors(self.rows, self.cols, radius),
        };
        self.dist = DistanceIndex::build(&self.neighbors);
        self.with_move_table()
    }

    /// Accelerator display name (e.g. `"4x4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Registers available per PE for routing/holding values.
    pub fn regs_per_pe(&self) -> usize {
        self.regs_per_pe
    }

    /// Maximum initiation interval the configuration memory supports.
    pub fn max_ii(&self) -> u32 {
        self.max_ii
    }

    /// The accelerator family.
    pub fn kind(&self) -> AcceleratorKind {
        self.kind
    }

    /// Whether the accelerator is spatial-only (no temporal multiplexing);
    /// true for the systolic array.
    pub fn is_spatial_only(&self) -> bool {
        self.max_ii == 1
    }

    /// Grid coordinate of a PE.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn coord(&self, pe: PeId) -> Coord {
        assert!(pe.index() < self.pe_count(), "PE out of range");
        Coord {
            row: pe.index() / self.cols,
            col: pe.index() % self.cols,
        }
    }

    /// PE at a grid coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn pe_at(&self, coord: Coord) -> PeId {
        assert!(coord.row < self.rows && coord.col < self.cols);
        PeId::new(coord.row * self.cols + coord.col)
    }

    /// Outgoing neighbour PEs (where this PE can send a value in one cycle).
    pub fn neighbors(&self, pe: PeId) -> &[PeId] {
        &self.neighbors[pe.index()]
    }

    /// Whether `src` can send a value to `dst` over one link hop.
    pub fn linked(&self, src: PeId, dst: PeId) -> bool {
        self.neighbors[src.index()].contains(&dst)
    }

    /// Spatial distance between two PEs: Manhattan distance on the grid
    /// (the metric the paper adopts for 2D mesh accelerators, §III-A).
    pub fn spatial_distance(&self, a: PeId, b: PeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Minimum number of link hops from `from` to `to` over the directed
    /// link graph, or `u32::MAX` when the index proves unreachability
    /// (e.g. leftward on a systolic array). Precomputed at construction.
    ///
    /// With the dense index (fabrics up to 128 PEs) the value is always
    /// exact. With the landmark oracle (larger fabrics) it is exact
    /// within the oracle's ball radius and a **true lower bound** beyond
    /// — never an overestimate. The router relies on exactly this lower-bound
    /// contract to prune its search cone, so routing results are
    /// identical under either index.
    pub fn hop_distance(&self, from: PeId, to: PeId) -> u32 {
        self.dist.query(from.index(), to.index())
    }

    /// Heap bytes held by the hop-distance index (`"dense"` is quadratic
    /// in PE count; `"oracle"` is near-linear).
    pub fn distance_index_bytes(&self) -> usize {
        self.dist.bytes()
    }

    /// Which hop-distance index is active: `"dense"` or `"oracle"`.
    pub fn distance_index_kind(&self) -> &'static str {
        self.dist.kind()
    }

    /// The move table every MRRG of this accelerator reads.
    pub(crate) fn move_table(&self) -> &MoveTable {
        &self.moves
    }

    /// Whether the PE can execute the operation.
    ///
    /// * CGRA: every PE executes every ALU op; memory ops additionally
    ///   require a memory-capable PE.
    /// * Systolic: left column loads, right column stores, interior PEs
    ///   add/sub/mul and constant generation only.
    pub fn supports(&self, pe: PeId, op: OpKind) -> bool {
        let c = self.coord(pe);
        match self.kind {
            AcceleratorKind::Cgra {
                memory,
                heterogeneity,
            } => {
                if op.is_memory() {
                    return match memory {
                        MemoryConnectivity::All => true,
                        MemoryConnectivity::LeftColumn => c.col == 0,
                    };
                }
                match heterogeneity {
                    Heterogeneity::Homogeneous => true,
                    Heterogeneity::CheckerboardMul => {
                        if matches!(op, OpKind::Mul | OpKind::Div) {
                            (c.row + c.col) % 2 == 0
                        } else {
                            true
                        }
                    }
                }
            }
            AcceleratorKind::Systolic => match op {
                OpKind::Load => c.col == 0,
                OpKind::Store => c.col == self.cols - 1,
                OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Const => {
                    c.col != 0 && c.col != self.cols - 1
                }
                _ => false,
            },
        }
    }
}

impl fmt::Debug for Accelerator {
    /// Leaves out the hop-distance index and the move table: both are
    /// derived from the fields shown, and debug builds render `Mapping`,
    /// which holds the accelerator, on every annealing movement.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accelerator")
            .field("name", &self.name)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("regs_per_pe", &self.regs_per_pe)
            .field("max_ii", &self.max_ii)
            .field("kind", &self.kind)
            .field("neighbors", &self.neighbors)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} {:?}, {} regs/PE, max II {})",
            self.name, self.rows, self.cols, self.kind, self.regs_per_pe, self.max_ii
        )
    }
}

/// Panics unless a `rows × cols` grid fits in [`Accelerator::MAX_PES`].
fn assert_pe_limit(rows: usize, cols: usize) {
    assert!(
        rows.checked_mul(cols).is_some_and(|n| n <= MAX_PES),
        "a {rows}x{cols} grid exceeds {MAX_PES} PEs"
    );
}

fn mesh_neighbors(rows: usize, cols: usize) -> Vec<Vec<PeId>> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let mut n = Vec::new();
            if r > 0 {
                n.push(PeId::new((r - 1) * cols + c));
            }
            if r + 1 < rows {
                n.push(PeId::new((r + 1) * cols + c));
            }
            if c > 0 {
                n.push(PeId::new(r * cols + c - 1));
            }
            if c + 1 < cols {
                n.push(PeId::new(r * cols + c + 1));
            }
            out.push(n);
        }
    }
    out
}

/// All PEs within the given Manhattan radius (excluding self), reachable
/// in one cycle on a HyCUBE-style bypass network.
fn multihop_neighbors(rows: usize, cols: usize, radius: u8) -> Vec<Vec<PeId>> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let here = Coord { row: r, col: c };
            let mut n = Vec::new();
            for r2 in 0..rows {
                for c2 in 0..cols {
                    let there = Coord { row: r2, col: c2 };
                    let d = here.manhattan(there);
                    if d >= 1 && d <= u32::from(radius) {
                        n.push(PeId::new(r2 * cols + c2));
                    }
                }
            }
            out.push(n);
        }
    }
    out
}

/// Systolic links are forward-only: right, up, down (no left), modelling
/// the left-to-right wavefront of Fig. 3.
fn systolic_neighbors(rows: usize, cols: usize) -> Vec<Vec<PeId>> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let mut n = Vec::new();
            if c + 1 < cols {
                n.push(PeId::new(r * cols + c + 1));
            }
            if r > 0 {
                n.push(PeId::new((r - 1) * cols + c));
            }
            if r + 1 < rows {
                n.push(PeId::new((r + 1) * cols + c));
            }
            out.push(n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_covers_every_key() {
        for key in Accelerator::STANDARD_KEYS {
            let acc = Accelerator::standard(key).expect("catalog key builds");
            assert!(acc.pe_count() > 0, "{key} is degenerate");
        }
        assert!(Accelerator::standard("16x16").is_none());
        // The systolic entry keeps its descriptive fabric name.
        assert_eq!(
            Accelerator::standard("systolic").unwrap().name(),
            "systolic-5x5"
        );
    }

    #[test]
    fn mesh_neighbor_counts() {
        let a = Accelerator::cgra("4x4", 4, 4);
        // Corners: 2, edges: 3, interior: 4.
        assert_eq!(a.neighbors(PeId::new(0)).len(), 2);
        assert_eq!(a.neighbors(PeId::new(1)).len(), 3);
        assert_eq!(a.neighbors(PeId::new(5)).len(), 4);
        // Mesh links are symmetric.
        for pe in 0..a.pe_count() {
            let pe = PeId::new(pe);
            for &n in a.neighbors(pe) {
                assert!(a.linked(n, pe), "asymmetric link {pe} {n}");
            }
        }
    }

    #[test]
    fn coord_roundtrip() {
        let a = Accelerator::cgra("3x3", 3, 3);
        for i in 0..9 {
            let pe = PeId::new(i);
            assert_eq!(a.pe_at(a.coord(pe)), pe);
        }
    }

    #[test]
    fn spatial_distance_is_manhattan() {
        let a = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(a.spatial_distance(PeId::new(0), PeId::new(15)), 6);
        assert_eq!(a.spatial_distance(PeId::new(5), PeId::new(6)), 1);
    }

    #[test]
    fn mesh_hop_distance_is_manhattan() {
        let a = Accelerator::cgra("4x4", 4, 4);
        for i in 0..16 {
            for j in 0..16 {
                let (i, j) = (PeId::new(i), PeId::new(j));
                assert_eq!(a.hop_distance(i, j), a.spatial_distance(i, j));
            }
        }
    }

    #[test]
    fn systolic_hop_distance_blocks_leftward() {
        let s = Accelerator::systolic("sys", 3, 3);
        let left = s.pe_at(Coord { row: 1, col: 0 });
        let right = s.pe_at(Coord { row: 1, col: 2 });
        assert_eq!(s.hop_distance(left, right), 2);
        assert_eq!(s.hop_distance(right, left), u32::MAX);
    }

    #[test]
    fn multihop_shrinks_hop_distance() {
        let a =
            Accelerator::cgra("hy", 4, 4).with_interconnect(Interconnect::MultiHop { radius: 2 });
        // Opposite corners: Manhattan 6, but radius-2 links cover it in 3.
        assert_eq!(a.hop_distance(PeId::new(0), PeId::new(15)), 3);
    }

    #[test]
    fn baseline_cgra_defaults() {
        let a = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(a.regs_per_pe(), 4);
        assert_eq!(a.max_ii(), 24);
        assert!(!a.is_spatial_only());
        assert!(a.supports(PeId::new(9), OpKind::Load));
        assert!(a.supports(PeId::new(9), OpKind::Div));
    }

    #[test]
    fn left_column_memory() {
        let a = Accelerator::cgra("4x4-lm", 4, 4).with_memory(MemoryConnectivity::LeftColumn);
        for r in 0..4 {
            assert!(a.supports(a.pe_at(Coord { row: r, col: 0 }), OpKind::Load));
            assert!(a.supports(a.pe_at(Coord { row: r, col: 0 }), OpKind::Store));
            for c in 1..4 {
                assert!(!a.supports(a.pe_at(Coord { row: r, col: c }), OpKind::Load));
                assert!(a.supports(a.pe_at(Coord { row: r, col: c }), OpKind::Mul));
            }
        }
    }

    #[test]
    fn systolic_capabilities() {
        let s = Accelerator::systolic("sys", 5, 5);
        assert!(s.is_spatial_only());
        assert_eq!(s.max_ii(), 1);
        // Left column loads only.
        assert!(s.supports(PeId::new(0), OpKind::Load));
        assert!(!s.supports(PeId::new(0), OpKind::Add));
        // Right column stores only.
        let right = s.pe_at(Coord { row: 0, col: 4 });
        assert!(s.supports(right, OpKind::Store));
        assert!(!s.supports(right, OpKind::Mul));
        // Interior: add/sub/mul/const, no div.
        let mid = s.pe_at(Coord { row: 2, col: 2 });
        assert!(s.supports(mid, OpKind::Mul));
        assert!(s.supports(mid, OpKind::Const));
        assert!(!s.supports(mid, OpKind::Div));
        assert!(!s.supports(mid, OpKind::Load));
    }

    #[test]
    fn systolic_links_are_forward_only() {
        let s = Accelerator::systolic("sys", 3, 3);
        // No PE links to its left neighbour.
        for r in 0..3 {
            for c in 1..3 {
                let pe = s.pe_at(Coord { row: r, col: c });
                let left = s.pe_at(Coord { row: r, col: c - 1 });
                assert!(!s.linked(pe, left), "{pe} links left");
                assert!(s.linked(left, pe), "{left} should link right");
            }
        }
    }

    #[test]
    #[should_panic(expected = "memory connectivity is fixed")]
    fn systolic_rejects_memory_override() {
        let _ = Accelerator::systolic("sys", 5, 5).with_memory(MemoryConnectivity::All);
    }
}

#[cfg(test)]
mod heterogeneity_tests {
    use super::*;

    #[test]
    fn checkerboard_restricts_multipliers() {
        let a = Accelerator::cgra("het", 4, 4).with_heterogeneity(Heterogeneity::CheckerboardMul);
        let mut mul_pes = 0;
        for i in 0..16 {
            let pe = PeId::new(i);
            let c = a.coord(pe);
            let has_mul = a.supports(pe, OpKind::Mul);
            assert_eq!(has_mul, (c.row + c.col) % 2 == 0);
            // Cheap ops remain everywhere.
            assert!(a.supports(pe, OpKind::Add));
            assert!(a.supports(pe, OpKind::Load));
            mul_pes += usize::from(has_mul);
        }
        assert_eq!(mul_pes, 8);
    }

    #[test]
    fn heterogeneity_composes_with_memory_constraint() {
        let a = Accelerator::cgra("both", 4, 4)
            .with_heterogeneity(Heterogeneity::CheckerboardMul)
            .with_memory(MemoryConnectivity::LeftColumn);
        // (0,1): no memory, no mul (parity 1), but add works.
        let pe = a.pe_at(Coord { row: 0, col: 1 });
        assert!(!a.supports(pe, OpKind::Load));
        assert!(!a.supports(pe, OpKind::Mul));
        assert!(a.supports(pe, OpKind::Add));
        // (0,0): memory and mul.
        let pe0 = a.pe_at(Coord { row: 0, col: 0 });
        assert!(a.supports(pe0, OpKind::Store));
        assert!(a.supports(pe0, OpKind::Mul));
    }

    #[test]
    #[should_panic(expected = "PE functions are fixed")]
    fn systolic_rejects_heterogeneity_override() {
        let _ = Accelerator::systolic("s", 5, 5).with_heterogeneity(Heterogeneity::CheckerboardMul);
    }
}

#[cfg(test)]
mod distance_index_tests {
    use super::*;
    use crate::distance::{dense_distances, DistanceOracle, EXACT_RADIUS};

    /// An accelerator's live link graph.
    fn links(acc: &Accelerator) -> Vec<Vec<PeId>> {
        (0..acc.pe_count())
            .map(|i| acc.neighbors(PeId::new(i)).to_vec())
            .collect()
    }

    /// Fresh all-pairs BFS over an accelerator's live link graph — the
    /// ground truth every index must respect.
    fn bfs_truth(acc: &Accelerator, from: PeId, to: PeId) -> u32 {
        match dense_distances(&links(acc))[from.index() * acc.pe_count() + to.index()] {
            u16::MAX => u32::MAX,
            d => u32::from(d),
        }
    }

    #[test]
    fn auto_mode_follows_pe_count() {
        assert_eq!(
            Accelerator::cgra("8x8", 8, 8).distance_index_kind(),
            "dense"
        );
        assert_eq!(
            Accelerator::cgra("16x16", 16, 16).distance_index_kind(),
            "oracle"
        );
        // 32×32 dense would be 1024² × 2 B = 2 MiB; the oracle stays
        // well under half of that.
        let big = Accelerator::cgra("32x32", 32, 32);
        assert_eq!(big.distance_index_kind(), "oracle");
        let dense_bytes = big.pe_count() * big.pe_count() * 2;
        assert!(big.distance_index_bytes() * 2 < dense_bytes);
    }

    #[test]
    fn forced_oracle_matches_dense_on_small_mesh() {
        // 4×4 diameter (6) fits in the exact ball, so the oracle must
        // reproduce the dense table on every pair.
        let dense = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(dense.distance_index_kind(), "dense");
        let oracle = DistanceOracle::build(&links(&dense), EXACT_RADIUS);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(
                    oracle.query(i, j),
                    dense.hop_distance(PeId::new(i), PeId::new(j))
                );
            }
        }
    }

    #[test]
    fn oracle_on_big_mesh_is_exact_near_and_lower_bound_far() {
        let a = Accelerator::cgra("16x16", 16, 16);
        assert_eq!(a.distance_index_kind(), "oracle");
        for i in 0..a.pe_count() {
            for j in 0..a.pe_count() {
                let (i, j) = (PeId::new(i), PeId::new(j));
                let manhattan = a.spatial_distance(i, j); // exact on a mesh
                let hd = a.hop_distance(i, j);
                if manhattan <= 8 {
                    assert_eq!(hd, manhattan, "{i}->{j} inside the exact ball");
                } else {
                    assert!(hd > 8 && hd <= manhattan, "{i}->{j}: {hd} vs {manhattan}");
                }
            }
        }
    }

    /// A large systolic array is the irregular case: directed links, no
    /// leftward reachability. The oracle must stay exact within its
    /// ball, never overestimate beyond it, and keep proving leftward
    /// unreachability.
    #[test]
    fn oracle_on_big_systolic_respects_direction() {
        let s = Accelerator::systolic("sys-12", 12, 12);
        assert_eq!(s.distance_index_kind(), "oracle");
        for r in 0..12 {
            for c in 1..12 {
                let right = s.pe_at(Coord { row: r, col: c });
                let left = s.pe_at(Coord { row: r, col: 0 });
                assert_eq!(
                    s.hop_distance(right, left),
                    u32::MAX,
                    "leftward at ({r},{c})"
                );
            }
        }
        for i in (0..s.pe_count()).step_by(7) {
            for j in (0..s.pe_count()).step_by(5) {
                let (i, j) = (PeId::new(i), PeId::new(j));
                let truth = bfs_truth(&s, i, j);
                let hd = s.hop_distance(i, j);
                if truth <= 8 {
                    assert_eq!(hd, truth, "{i}->{j} inside the exact ball");
                } else {
                    assert!(hd <= truth, "{i}->{j}: overestimate {hd} > {truth}");
                }
                if hd == u32::MAX {
                    assert_eq!(truth, u32::MAX, "{i}->{j}: false unreachability");
                }
            }
        }
    }

    /// Multi-hop interconnects are non-mesh graphs where hop distance
    /// diverges from Manhattan distance; the oracle rebuilt from the new
    /// links must track the BFS truth.
    #[test]
    fn oracle_tracks_multihop_interconnect_changes() {
        let a = Accelerator::cgra("16x16", 16, 16)
            .with_interconnect(Interconnect::MultiHop { radius: 3 });
        assert_eq!(a.distance_index_kind(), "oracle");
        for i in (0..a.pe_count()).step_by(11) {
            for j in (0..a.pe_count()).step_by(13) {
                let (i, j) = (PeId::new(i), PeId::new(j));
                let truth = bfs_truth(&a, i, j);
                let hd = a.hop_distance(i, j);
                // Radius-3 links: the 16×16 diameter is ⌈30/3⌉ = 10 > 8,
                // so both regimes are exercised.
                if truth <= 8 {
                    assert_eq!(hd, truth, "{i}->{j} inside the exact ball");
                } else {
                    assert!(hd <= truth, "{i}->{j}: overestimate {hd} > {truth}");
                }
            }
        }
    }
}

#[cfg(test)]
mod interconnect_tests {
    use super::*;

    #[test]
    fn multihop_radius_two_reaches_diagonals() {
        let a =
            Accelerator::cgra("hy", 4, 4).with_interconnect(Interconnect::MultiHop { radius: 2 });
        // PE5 (1,1): radius-2 ball minus self.
        let n = a.neighbors(PeId::new(5));
        assert!(n.contains(&PeId::new(0))); // (0,0), distance 2
        assert!(n.contains(&PeId::new(10))); // (2,2), distance 2
        assert!(!n.contains(&PeId::new(15))); // (3,3), distance 4
                                              // Mesh would give 4; radius 2 gives 4 + diagonals + straight-2s.
        assert!(n.len() > 4);
        // Links stay symmetric.
        for &q in n {
            assert!(a.linked(q, PeId::new(5)));
        }
    }

    #[test]
    fn radius_one_equals_mesh() {
        let mesh = Accelerator::cgra("m", 3, 3);
        let hop1 =
            Accelerator::cgra("m", 3, 3).with_interconnect(Interconnect::MultiHop { radius: 1 });
        for i in 0..9 {
            assert_eq!(mesh.neighbors(PeId::new(i)), hop1.neighbors(PeId::new(i)));
        }
    }

    #[test]
    #[should_panic(expected = "links are fixed on systolic arrays")]
    fn systolic_rejects_interconnect_override() {
        let _ = Accelerator::systolic("s", 5, 5).with_interconnect(Interconnect::Mesh);
    }
}
