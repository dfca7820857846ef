//! Hop-distance indexes: the dense all-pairs table and a landmark
//! distance oracle for large fabrics.
//!
//! The paper's evaluation fabrics are tiny (≤ 64 PEs), so an all-pairs
//! BFS table is the obvious index: `n²` half-words, O(1) exact lookups.
//! That table is quadratic in PE count, though — a 32×32 CGRA needs
//! 2 MiB, and it is rebuilt on every interconnect change. For big
//! fabrics this module provides a *distance oracle* that stores
//!
//! * a truncated-BFS ball per source — **exact** distances up to
//!   [`EXACT_RADIUS`] hops, stored as a per-source CSR of sorted
//!   `(target, distance)` pairs and read by binary search, and
//! * ~√n *landmarks* with full forward (`landmark → all`) and reverse
//!   (`all → landmark`) BFS rows, from which queries beyond the ball
//!   radius derive a **lower bound** via the directed triangle
//!   inequality.
//!
//! The asymmetric (forward + reverse) landmark rows matter because link
//! graphs are directed in general (systolic arrays have no leftward
//! links).
//!
//! # The lower-bound contract
//!
//! [`DistanceIndex::query`] never *overestimates* a distance:
//!
//! * inside the ball the answer is the exact BFS distance;
//! * outside the ball the answer is
//!   `max(radius + 1, d(l, to) − d(l, from), d(from, l) − d(to, l))`
//!   over all landmarks `l` with the relevant rows finite — each term
//!   is a valid lower bound by the triangle inequality, and missing the
//!   ball already proves the distance exceeds the radius;
//! * `u32::MAX` is returned only on a *proof* of unreachability: some
//!   landmark is reached from `from` but not from `to`'s side (or vice
//!   versa), which contradicts any `from → to` path.
//!
//! The router's cone pruning (`crates/mapper`) only requires a true
//! lower bound, so swapping the dense table for the oracle leaves every
//! routing result byte-identical — only pruning tightness (search
//! effort), never reachability or route choice, is affected. A truly
//! unreachable pair may still get a finite lower bound when no landmark
//! witnesses the separation; that is sound for pruning (the route
//! search itself discovers the infeasibility).

use std::collections::VecDeque;

use crate::PeId;

/// PE count up to which a fabric keeps the dense table (covers the
/// whole paper suite, ≤ 64 PEs, where exactness is free); bigger fabrics
/// get the oracle.
const DENSE_MAX_PES: usize = 128;

/// Most PEs a fabric may have: the oracle names PEs by `u16`.
pub(crate) const MAX_PES: usize = u16::MAX as usize;

/// Exact-ball radius of the oracle. Mapper routes span few cycles, so
/// almost every cone-pruning query lands in the exact regime; the
/// landmark lower bound only has to cover long-haul queries.
pub(crate) const EXACT_RADIUS: u8 = 8;

/// The distance index held by an accelerator: the dense table on
/// fabrics up to 128 PEs, the landmark oracle beyond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DistanceIndex {
    Dense { n: usize, table: Vec<u16> },
    Oracle(DistanceOracle),
}

impl DistanceIndex {
    /// Builds the index the link graph's PE count calls for.
    pub(crate) fn build(neighbors: &[Vec<PeId>]) -> Self {
        let n = neighbors.len();
        if n <= DENSE_MAX_PES {
            DistanceIndex::Dense {
                n,
                table: dense_distances(neighbors),
            }
        } else {
            DistanceIndex::Oracle(DistanceOracle::build(neighbors, EXACT_RADIUS))
        }
    }

    /// Minimum hop count from `from` to `to` (dense: exact; oracle:
    /// exact within the ball radius, a true lower bound beyond), or
    /// `u32::MAX` when the index proves unreachability.
    pub(crate) fn query(&self, from: usize, to: usize) -> u32 {
        match self {
            DistanceIndex::Dense { n, table } => match table[from * n + to] {
                u16::MAX => u32::MAX,
                d => u32::from(d),
            },
            DistanceIndex::Oracle(o) => o.query(from, to),
        }
    }

    /// Heap bytes held by the index (the footprint the oracle exists to
    /// shrink).
    pub(crate) fn bytes(&self) -> usize {
        match self {
            DistanceIndex::Dense { table, .. } => table.len() * std::mem::size_of::<u16>(),
            DistanceIndex::Oracle(o) => o.bytes(),
        }
    }

    /// `"dense"` or `"oracle"`, for reports and logs.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            DistanceIndex::Dense { .. } => "dense",
            DistanceIndex::Oracle(_) => "oracle",
        }
    }
}

/// Landmark + truncated-ball distance oracle (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DistanceOracle {
    n: usize,
    radius: u8,
    /// CSR offsets into `ball_idx`/`ball_dist`, length `n + 1`.
    ball_off: Vec<u32>,
    /// Per-source ball members, sorted by PE index for binary search.
    ball_idx: Vec<u16>,
    /// Exact BFS distance of the ball member at the same position.
    ball_dist: Vec<u8>,
    /// Landmark count `L` (≈ √n, strided over the PE ids).
    landmark_count: usize,
    /// `L × n` row-major forward rows: `from_lm[l*n + v] = d(lm_l, v)`.
    from_lm: Vec<u16>,
    /// `L × n` row-major reverse rows: `to_lm[l*n + v] = d(v, lm_l)`.
    to_lm: Vec<u16>,
}

impl DistanceOracle {
    /// Builds the oracle: one truncated BFS per PE plus `2L` full BFS
    /// runs (forward and reversed link graph) for the landmarks.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph or more than [`MAX_PES`] PEs.
    pub(crate) fn build(neighbors: &[Vec<PeId>], radius: u8) -> Self {
        let n = neighbors.len();
        assert!(n > 0, "distance oracle needs at least one PE");
        assert!(n <= MAX_PES, "fabric too large for u16 ids");
        let fwd: Vec<Vec<u16>> = neighbors
            .iter()
            .map(|ns| ns.iter().map(|p| p.index() as u16).collect())
            .collect();
        let mut rev: Vec<Vec<u16>> = vec![Vec::new(); n];
        for (u, ns) in fwd.iter().enumerate() {
            for &v in ns {
                rev[usize::from(v)].push(u as u16);
            }
        }

        // Truncated-BFS balls, CSR with members sorted by PE index.
        let mut ball_off = Vec::with_capacity(n + 1);
        let mut ball_idx = Vec::new();
        let mut ball_dist = Vec::new();
        let mut dist = vec![u16::MAX; n];
        let mut queue = VecDeque::new();
        let mut members: Vec<u16> = Vec::new();
        ball_off.push(0u32);
        for src in 0..n {
            members.clear();
            queue.clear();
            dist[src] = 0;
            members.push(src as u16);
            queue.push_back(src as u16);
            while let Some(u) = queue.pop_front() {
                let d = dist[usize::from(u)];
                if d >= u16::from(radius) {
                    continue;
                }
                for &v in &fwd[usize::from(u)] {
                    if dist[usize::from(v)] == u16::MAX {
                        dist[usize::from(v)] = d + 1;
                        members.push(v);
                        queue.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            for &m in &members {
                ball_idx.push(m);
                ball_dist.push(dist[usize::from(m)] as u8);
                dist[usize::from(m)] = u16::MAX; // reset touched cells only
            }
            ball_off.push(ball_idx.len() as u32);
        }

        // Strided landmarks: L ≈ ceil(√n). Landmark *placement* only
        // affects bound tightness, never soundness.
        let mut l = 1usize;
        while l * l < n {
            l += 1;
        }
        let landmark_count = l.clamp(2, 64).min(n);
        let mut from_lm = Vec::with_capacity(landmark_count * n);
        let mut to_lm = Vec::with_capacity(landmark_count * n);
        for i in 0..landmark_count {
            let lm = i * n / landmark_count;
            from_lm.extend_from_slice(&bfs_row(&fwd, lm));
            to_lm.extend_from_slice(&bfs_row(&rev, lm));
        }

        DistanceOracle {
            n,
            radius,
            ball_off,
            ball_idx,
            ball_dist,
            landmark_count,
            from_lm,
            to_lm,
        }
    }

    /// Exact distance within the ball; lower bound (or an unreachability
    /// proof) beyond — see the module docs for the invariant.
    pub(crate) fn query(&self, from: usize, to: usize) -> u32 {
        if from == to {
            return 0;
        }
        let s = self.ball_off[from] as usize;
        let e = self.ball_off[from + 1] as usize;
        if let Ok(i) = self.ball_idx[s..e].binary_search(&(to as u16)) {
            return u32::from(self.ball_dist[s + i]);
        }
        // Not in the ball: the distance exceeds the radius. Tighten with
        // the directed triangle inequality over the landmarks.
        let mut lb = u32::from(self.radius) + 1;
        for l in 0..self.landmark_count {
            let base = l * self.n;
            let lf = self.from_lm[base + from]; // d(lm, from)
            let lt = self.from_lm[base + to]; // d(lm, to)
            if lf != u16::MAX {
                if lt == u16::MAX {
                    // lm reaches `from` but not `to`: a from→to path
                    // would extend lm→from to lm→to. Unreachable.
                    return u32::MAX;
                }
                if lt > lf {
                    lb = lb.max(u32::from(lt - lf));
                }
            }
            let tf = self.to_lm[base + from]; // d(from, lm)
            let tt = self.to_lm[base + to]; // d(to, lm)
            if tt != u16::MAX {
                if tf == u16::MAX {
                    // `to` reaches lm but `from` does not: a from→to
                    // path would extend to from→lm. Unreachable.
                    return u32::MAX;
                }
                if tf > tt {
                    lb = lb.max(u32::from(tf - tt));
                }
            }
        }
        lb
    }

    /// Heap bytes of the ball CSR and landmark rows.
    pub(crate) fn bytes(&self) -> usize {
        self.ball_off.len() * std::mem::size_of::<u32>()
            + self.ball_idx.len() * std::mem::size_of::<u16>()
            + self.ball_dist.len()
            + (self.from_lm.len() + self.to_lm.len()) * std::mem::size_of::<u16>()
    }
}

/// Full single-source BFS over a u16 adjacency list; `u16::MAX` marks
/// unreachable targets.
fn bfs_row(adj: &[Vec<u16>], src: usize) -> Vec<u16> {
    let n = adj.len();
    let mut dist = vec![u16::MAX; n];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src as u16);
    while let Some(u) = queue.pop_front() {
        let d = dist[usize::from(u)];
        for &v in &adj[usize::from(u)] {
            if dist[usize::from(v)] == u16::MAX {
                dist[usize::from(v)] = d + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs minimum hop distances over the directed link graph: one BFS
/// per source PE, `u16::MAX` when unreachable. Quadratic memory — the
/// index of choice only for small fabrics (and the ground truth the
/// oracle is tested against).
pub(crate) fn dense_distances(neighbors: &[Vec<PeId>]) -> Vec<u16> {
    let n = neighbors.len();
    let mut out = vec![u16::MAX; n * n];
    let mut queue = VecDeque::new();
    for src in 0..n {
        let row = &mut out[src * n..(src + 1) * n];
        row[src] = 0;
        queue.clear();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let d = row[u];
            for &v in &neighbors[u] {
                if row[v.index()] == u16::MAX {
                    row[v.index()] = d + 1;
                    queue.push_back(v.index());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic irregular digraph: a directed ring (so everything
    /// stays reachable) plus LCG-scattered chord edges. Exercises the
    /// non-mesh, non-symmetric case the grid fabrics never produce.
    fn irregular_digraph(n: usize, chords: usize, seed: u64) -> Vec<Vec<PeId>> {
        let mut adj: Vec<Vec<PeId>> = (0..n).map(|i| vec![PeId::new((i + 1) % n)]).collect();
        let mut state = seed | 1;
        let mut next = || {
            // Numerical Recipes LCG; determinism is all that matters.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..chords {
            let a = next() % n;
            let b = next() % n;
            if a != b && !adj[a].contains(&PeId::new(b)) {
                adj[a].push(PeId::new(b));
            }
        }
        adj
    }

    /// The oracle contract on an irregular digraph: exact within the
    /// radius, a true lower bound (never an overestimate) beyond, and
    /// `u32::MAX` only when the pair is genuinely unreachable.
    #[test]
    fn oracle_is_exact_in_ball_and_lower_bound_beyond() {
        let adj = irregular_digraph(150, 90, 7);
        let o = DistanceOracle::build(&adj, EXACT_RADIUS);
        let table = dense_distances(&adj);
        let n = adj.len();
        for from in 0..n {
            for to in 0..n {
                let t = match table[from * n + to] {
                    u16::MAX => u32::MAX,
                    d => u32::from(d),
                };
                let q = o.query(from, to);
                if t <= u32::from(EXACT_RADIUS) {
                    assert_eq!(q, t, "ball must be exact for {from}->{to}");
                } else {
                    assert!(q <= t, "overestimate for {from}->{to}: {q} > {t}");
                    assert!(
                        q > u32::from(EXACT_RADIUS),
                        "beyond the ball the bound must exceed the radius"
                    );
                }
                if q == u32::MAX {
                    assert_eq!(t, u32::MAX, "false unreachability for {from}->{to}");
                }
            }
        }
    }

    /// Two disjoint strongly-connected rings: every cross-component
    /// query must be *proved* unreachable (each component holds a
    /// strided landmark), and same-component queries must stay finite.
    #[test]
    fn oracle_proves_unreachability_across_components() {
        let half = 80;
        let n = 2 * half;
        let adj: Vec<Vec<PeId>> = (0..n)
            .map(|i| {
                let next = if i < half {
                    (i + 1) % half
                } else {
                    half + (i + 1 - half) % half
                };
                vec![PeId::new(next)]
            })
            .collect();
        let o = DistanceOracle::build(&adj, EXACT_RADIUS);
        assert_eq!(o.query(3, half + 3), u32::MAX);
        assert_eq!(o.query(half + 3, 3), u32::MAX);
        // Within one ring: reachable, exact near, bounded far.
        assert_eq!(o.query(0, 5), 5);
        let far = o.query(0, half - 1); // true distance: half - 1 = 79
        assert!(far > u32::from(EXACT_RADIUS) && far <= 79);
    }

    /// Directed asymmetry: the reverse landmark rows must not leak the
    /// cheap forward direction into the expensive reverse one.
    #[test]
    fn oracle_respects_direction() {
        // Pure directed ring: d(a, b) = (b - a) mod n, highly asymmetric.
        let n = 140;
        let adj: Vec<Vec<PeId>> = (0..n).map(|i| vec![PeId::new((i + 1) % n)]).collect();
        let o = DistanceOracle::build(&adj, EXACT_RADIUS);
        assert_eq!(o.query(0, 4), 4);
        let back = o.query(4, 0); // true distance n - 4 = 136
        assert!(back > u32::from(EXACT_RADIUS) && back <= 136);
    }

    /// The whole point: oracle memory is far below the dense table on a
    /// big fabric (here a 32×32 mesh, 1024 PEs).
    #[test]
    fn oracle_is_much_smaller_than_dense_on_big_mesh() {
        let acc = crate::Accelerator::cgra("32x32", 32, 32);
        let neighbors: Vec<Vec<PeId>> = (0..acc.pe_count())
            .map(|i| acc.neighbors(PeId::new(i)).to_vec())
            .collect();
        let o = DistanceOracle::build(&neighbors, EXACT_RADIUS);
        let dense_bytes = acc.pe_count() * acc.pe_count() * std::mem::size_of::<u16>();
        assert!(
            o.bytes() * 2 < dense_bytes,
            "oracle {} B should be well under dense {} B",
            o.bytes(),
            dense_bytes
        );
    }

    #[test]
    fn auto_mode_switches_on_pe_count() {
        let small = irregular_digraph(16, 10, 1);
        let edge = irregular_digraph(DENSE_MAX_PES, 10, 1);
        let big = irregular_digraph(DENSE_MAX_PES + 1, 10, 1);
        assert_eq!(DistanceIndex::build(&small).kind(), "dense");
        assert_eq!(DistanceIndex::build(&edge).kind(), "dense");
        assert_eq!(DistanceIndex::build(&big).kind(), "oracle");
    }

    /// Forcing the oracle on a fabric whose diameter fits in the ball
    /// radius must reproduce the dense table bit-for-bit.
    #[test]
    fn forced_oracle_matches_dense_when_ball_covers_fabric() {
        let adj = irregular_digraph(40, 25, 3);
        let dense = DistanceIndex::build(&adj);
        assert_eq!(dense.kind(), "dense");
        let oracle = DistanceIndex::Oracle(DistanceOracle::build(&adj, EXACT_RADIUS));
        let n = adj.len();
        for from in 0..n {
            for to in 0..n {
                let t = dense.query(from, to);
                if t != u32::MAX && t <= u32::from(EXACT_RADIUS) {
                    assert_eq!(oracle.query(from, to), t);
                }
            }
        }
    }
}
