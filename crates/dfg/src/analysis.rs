//! Classic graph analyses over [`Dfg`]s.
//!
//! These feed the Attributes Generator (paper §IV-A), the label
//! initialisation (§V-B), and the mappers' schedule windows. All analyses
//! operate on the *data* subgraph (intra-iteration edges), which is
//! guaranteed acyclic by [`Dfg::validate`]; recurrence edges only
//! participate in [`rec_mii`].

use crate::{Dfg, EdgeKind, NodeId};

/// A compact bit set over node indices, sized for one [`Dfg`].
///
/// Used to hold ancestor/descendant sets; graphs in this repository have
/// tens to low hundreds of nodes, so a `Vec<u64>` of words is both compact
/// and fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set for graphs with `len` nodes.
    pub fn new(len: usize) -> Self {
        NodeSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Inserts a node. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the node index is out of range for this set.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let i = id.index();
        assert!(i < self.len, "node {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let newly = *w & mask == 0;
        *w |= mask;
        newly
    }

    /// Whether the set contains a node.
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of nodes in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union with another set of the same size.
    pub fn union_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Iterates over the contained node ids in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len)
            .map(NodeId::new)
            .filter(move |&id| self.contains(id))
    }

    /// Nodes present in both sets.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        debug_assert_eq!(self.len, other.len);
        let mut out = NodeSet::new(self.len);
        for (o, (a, b)) in out
            .words
            .iter_mut()
            .zip(self.words.iter().zip(&other.words))
        {
            *o = a & b;
        }
        out
    }
}

/// As-Soon-As-Possible level of every node over data edges.
///
/// Sources have level 0; every other node sits one level after its latest
/// data predecessor. This is the scheduling-order seed the paper uses
/// (§II-B) and node attribute 1 of the Attributes Generator.
///
/// # Panics
///
/// Panics if the data subgraph has a cycle (call [`Dfg::validate`] first).
pub fn asap(dfg: &Dfg) -> Vec<u32> {
    let order = dfg
        .topological_order()
        .expect("asap requires an acyclic data subgraph");
    let mut level = vec![0u32; dfg.node_count()];
    for v in order {
        let mut best = 0;
        for p in dfg.data_predecessors(v) {
            best = best.max(level[p.index()] + 1);
        }
        level[v.index()] = best;
    }
    level
}

/// As-Late-As-Possible level of every node, anchored so that the latest
/// node shares its ASAP level (i.e. `alap(sink) == asap(sink)` on the
/// critical path). Slack is `alap - asap`.
///
/// # Panics
///
/// Panics if the data subgraph has a cycle.
pub fn alap(dfg: &Dfg) -> Vec<u32> {
    let order = dfg
        .topological_order()
        .expect("alap requires an acyclic data subgraph");
    let asap_levels = asap(dfg);
    let max_level = asap_levels.iter().copied().max().unwrap_or(0);
    let mut level = vec![max_level; dfg.node_count()];
    for v in order.iter().rev() {
        let mut best: Option<u32> = None;
        for s in dfg.data_successors(*v) {
            let cand = level[s.index()].saturating_sub(1);
            best = Some(best.map_or(cand, |b: u32| b.min(cand)));
        }
        if let Some(b) = best {
            level[v.index()] = b;
        }
    }
    level
}

/// Length (in levels) of the longest data path: `max(asap) + 1` nodes, i.e.
/// the critical path length used to normalise schedule-order labels
/// (paper §V-B).
pub fn critical_path_len(dfg: &Dfg) -> u32 {
    asap(dfg).into_iter().max().map_or(0, |m| m + 1)
}

/// Ancestor set of every node (nodes reachable by walking data edges
/// backwards), excluding the node itself.
pub fn ancestor_sets(dfg: &Dfg) -> Vec<NodeSet> {
    let order = dfg
        .topological_order()
        .expect("ancestors require an acyclic data subgraph");
    let n = dfg.node_count();
    let mut sets: Vec<NodeSet> = (0..n).map(|_| NodeSet::new(n)).collect();
    for v in order {
        let preds: Vec<NodeId> = dfg.data_predecessors(v).collect();
        for p in preds {
            let pset = sets[p.index()].clone();
            sets[v.index()].union_with(&pset);
            sets[v.index()].insert(p);
        }
    }
    sets
}

/// Descendant set of every node (reachable by data edges), excluding the
/// node itself.
pub fn descendant_sets(dfg: &Dfg) -> Vec<NodeSet> {
    let order = dfg
        .topological_order()
        .expect("descendants require an acyclic data subgraph");
    let n = dfg.node_count();
    let mut sets: Vec<NodeSet> = (0..n).map(|_| NodeSet::new(n)).collect();
    for v in order.iter().rev() {
        let succs: Vec<NodeId> = dfg.data_successors(*v).collect();
        for s in succs {
            let sset = sets[s.index()].clone();
            sets[v.index()].union_with(&sset);
            sets[v.index()].insert(s);
        }
    }
    sets
}

/// BFS hop distances from `from` walking data edges forwards.
/// `None` means unreachable.
pub fn distances_down(dfg: &Dfg, from: NodeId) -> Vec<Option<u32>> {
    bfs(dfg, from, /*forward=*/ true)
}

/// BFS hop distances from `from` walking data edges backwards.
pub fn distances_up(dfg: &Dfg, from: NodeId) -> Vec<Option<u32>> {
    bfs(dfg, from, /*forward=*/ false)
}

fn bfs(dfg: &Dfg, from: NodeId, forward: bool) -> Vec<Option<u32>> {
    let mut dist = vec![None; dfg.node_count()];
    dist[from.index()] = Some(0);
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        let next: Vec<NodeId> = if forward {
            dfg.data_successors(v).collect()
        } else {
            dfg.data_predecessors(v).collect()
        };
        for u in next {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Longest data-path length (in edges) from `from` to every node.
/// `None` means unreachable.
pub fn longest_paths_from(dfg: &Dfg, from: NodeId) -> Vec<Option<u32>> {
    let order = dfg
        .topological_order()
        .expect("longest paths require an acyclic data subgraph");
    let mut dist: Vec<Option<u32>> = vec![None; dfg.node_count()];
    dist[from.index()] = Some(0);
    for v in order {
        if let Some(d) = dist[v.index()] {
            for s in dfg.data_successors(v) {
                let cand = d + 1;
                if dist[s.index()].is_none_or(|cur| cur < cand) {
                    dist[s.index()] = Some(cand);
                }
            }
        }
    }
    dist
}

/// Number of nodes whose ASAP level lies strictly between two levels
/// (edge attribute 2 of the Attributes Generator, §IV-A).
pub fn nodes_between_levels(asap_levels: &[u32], lo: u32, hi: u32) -> usize {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    asap_levels.iter().filter(|&&l| l > lo && l < hi).count()
}

/// Number of nodes sharing the given ASAP level.
pub fn nodes_at_level(asap_levels: &[u32], level: u32) -> usize {
    asap_levels.iter().filter(|&&l| l == level).count()
}

/// Recurrence-constrained minimum II (RecMII).
///
/// For every recurrence edge `u -> v` with iteration distance `d`, any
/// schedule must satisfy `st(u) + 1 <= st(v) + d * II` (the value computed
/// by `u` must arrive at `v` `d` iterations later). Closing the cycle
/// through the longest data path from `v` back to `u` of length `L` edges
/// (L+1 single-cycle ops) yields `II >= ceil((L + 1) / d)`.
/// Graphs without recurrences have `RecMII = 1`.
pub fn rec_mii(dfg: &Dfg) -> u32 {
    let mut mii = 1u32;
    for e in dfg.edges() {
        if let EdgeKind::Recurrence { distance } = e.kind {
            // Longest data path from the consumer back to the producer.
            let paths = longest_paths_from(dfg, e.dst);
            let l = paths[e.src.index()].unwrap_or(0);
            let cycle_latency = l + 1;
            mii = mii.max(cycle_latency.div_ceil(distance));
        }
    }
    mii
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    /// The paper's Fig. 4 DFG: A..J with the dense region around B.
    ///
    /// Edges: A->C, B->D, B->E, B->F, B->I, C->G, D->G, E->H(no... )
    /// We reconstruct a faithful shape: A,B roots; C child of A;
    /// D,E,F children of B; G children of C,D; H child of D,E; I child of
    /// B,E; J child of G,H.
    pub(crate) fn fig4() -> Dfg {
        let mut g = Dfg::new("fig4");
        let a = g.add_node(OpKind::Load, "A");
        let b = g.add_node(OpKind::Load, "B");
        let c = g.add_node(OpKind::Add, "C");
        let d = g.add_node(OpKind::Mul, "D");
        let e = g.add_node(OpKind::Add, "E");
        let f = g.add_node(OpKind::Sub, "F");
        let gg = g.add_node(OpKind::Add, "G");
        let h = g.add_node(OpKind::Mul, "H");
        let i = g.add_node(OpKind::Add, "I");
        let j = g.add_node(OpKind::Store, "J");
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(b, e).unwrap();
        g.add_data_edge(b, f).unwrap();
        g.add_data_edge(b, i).unwrap();
        g.add_data_edge(c, gg).unwrap();
        g.add_data_edge(d, gg).unwrap();
        g.add_data_edge(d, h).unwrap();
        g.add_data_edge(e, h).unwrap();
        g.add_data_edge(e, i).unwrap();
        g.add_data_edge(gg, j).unwrap();
        g.add_data_edge(h, j).unwrap();
        g.validate().unwrap();
        g
    }

    #[test]
    fn asap_levels_fig4() {
        let g = fig4();
        let lv = asap(&g);
        assert_eq!(lv[0], 0); // A
        assert_eq!(lv[1], 0); // B
        assert_eq!(lv[2], 1); // C
        assert_eq!(lv[6], 2); // G
        assert_eq!(lv[9], 3); // J
        assert_eq!(critical_path_len(&g), 4);
    }

    #[test]
    fn alap_no_less_than_asap() {
        let g = fig4();
        let a = asap(&g);
        let l = alap(&g);
        for i in 0..g.node_count() {
            assert!(l[i] >= a[i], "node {i}: alap {} < asap {}", l[i], a[i]);
        }
        // J is the sink on the critical path: no slack.
        assert_eq!(a[9], l[9]);
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = fig4();
        let anc = ancestor_sets(&g);
        let desc = descendant_sets(&g);
        // J's ancestors: everyone except F, I, J itself.
        let j = 9;
        assert_eq!(anc[j].count(), 7);
        assert!(!anc[j].contains(NodeId::new(5))); // F
                                                   // B's descendants: D,E,F,G,H,I,J = 7.
        assert_eq!(desc[1].count(), 7);
        assert!(!desc[1].contains(NodeId::new(2))); // C not from B
    }

    #[test]
    fn bfs_distances() {
        let g = fig4();
        let down = distances_down(&g, NodeId::new(1)); // from B
        assert_eq!(down[3], Some(1)); // D
        assert_eq!(down[9], Some(3)); // J via D->G->J or D->H->J
        assert_eq!(down[2], None); // C unreachable from B
        let up = distances_up(&g, NodeId::new(9)); // from J
        assert_eq!(up[1], Some(3)); // B
        assert_eq!(up[5], None); // F not an ancestor of J
    }

    #[test]
    fn longest_paths() {
        let g = fig4();
        let lp = longest_paths_from(&g, NodeId::new(1));
        assert_eq!(lp[9], Some(3));
        assert_eq!(lp[5], Some(1));
        assert_eq!(lp[0], None);
    }

    #[test]
    fn levels_between() {
        let g = fig4();
        let lv = asap(&g);
        // Between level 0 and 3: levels 1 and 2 -> C,D,E,F,I (lvl 1 has C,D,E,F; I is level 2? check)
        let n = nodes_between_levels(&lv, 0, 3);
        // levels: A0 B0 C1 D1 E1 F1 G2 H2 I2 J3 -> strictly between: 7
        assert_eq!(n, 7);
        assert_eq!(nodes_at_level(&lv, 0), 2);
        assert_eq!(nodes_at_level(&lv, 3), 1);
        // Order of bounds must not matter.
        assert_eq!(nodes_between_levels(&lv, 3, 0), 7);
    }

    #[test]
    fn rec_mii_without_recurrence_is_one() {
        assert_eq!(rec_mii(&fig4()), 1);
    }

    #[test]
    fn rec_mii_accumulator() {
        let mut g = Dfg::new("acc");
        let a = g.add_node(OpKind::Add, "acc");
        g.add_recurrence_edge(a, a, 1).unwrap();
        assert_eq!(rec_mii(&g), 1);
        // Two-op cycle with distance 1: II >= 2.
        let mut g2 = Dfg::new("acc2");
        let x = g2.add_node(OpKind::Add, "x");
        let y = g2.add_node(OpKind::Mul, "y");
        g2.add_data_edge(x, y).unwrap();
        g2.add_recurrence_edge(y, x, 1).unwrap();
        assert_eq!(rec_mii(&g2), 2);
        // Same cycle with distance 2 halves the bound.
        let mut g3 = Dfg::new("acc3");
        let x = g3.add_node(OpKind::Add, "x");
        let y = g3.add_node(OpKind::Mul, "y");
        g3.add_data_edge(x, y).unwrap();
        g3.add_recurrence_edge(y, x, 2).unwrap();
        assert_eq!(rec_mii(&g3), 1);
    }

    #[test]
    fn nodeset_basics() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(129)));
        assert!(!s.insert(NodeId::new(0)));
        assert_eq!(s.count(), 2);
        assert!(s.contains(NodeId::new(129)));
        assert!(!s.contains(NodeId::new(64)));
        let collected: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(collected, vec![0, 129]);
    }

    #[test]
    fn nodeset_intersection() {
        let mut a = NodeSet::new(10);
        let mut b = NodeSet::new(10);
        a.insert(NodeId::new(1));
        a.insert(NodeId::new(5));
        b.insert(NodeId::new(5));
        b.insert(NodeId::new(7));
        let i = a.intersection(&b);
        assert_eq!(i.count(), 1);
        assert!(i.contains(NodeId::new(5)));
    }
}
