//! The Attributes Generator of paper §IV-A.
//!
//! DFGs carry almost no natural attributes ("nodes usually only have
//! operation type"), so LISA derives richer structure descriptors with
//! classic graph algorithms:
//!
//! * **6 node attributes** — ASAP, in-degree, out-degree, number of
//!   ancestors, number of descendants, operation type;
//! * **5 edge attributes** — ASAP difference, nodes between the endpoints,
//!   nodes sharing an endpoint's ASAP level, ancestors of the parent,
//!   descendants of the child;
//! * **7 dummy-edge attributes** — distances to the closest common
//!   ancestor/descendant and the level/path populations around them.

use lisa_dfg::analysis::{ancestor_sets, asap, descendant_sets, nodes_at_level};
use lisa_dfg::{same_level, Dfg, DummyEdge, EdgeId};

/// Width of the node-attribute vectors.
pub const NODE_ATTR_DIM: usize = 6;
/// Width of the edge-attribute vectors.
pub const EDGE_ATTR_DIM: usize = 5;
/// Width of the dummy-edge-attribute vectors.
pub const DUMMY_ATTR_DIM: usize = 7;

/// All attributes of one DFG, produced in a single pass.
///
/// # Example
///
/// ```
/// use lisa_dfg::polybench;
/// use lisa_labels::attributes::{DfgAttributes, NODE_ATTR_DIM};
///
/// let dfg = polybench::kernel("gemm")?;
/// let attrs = DfgAttributes::generate(&dfg);
/// assert_eq!(attrs.node.len(), dfg.node_count());
/// assert_eq!(attrs.node[0].len(), NODE_ATTR_DIM);
/// # Ok::<(), lisa_dfg::DfgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DfgAttributes {
    /// Per-node attribute vectors, indexed by
    /// [`NodeId::index`](lisa_dfg::NodeId::index).
    pub node: Vec<Vec<f64>>,
    /// Per-edge attribute vectors, indexed by [`EdgeId::index`].
    pub edge: Vec<Vec<f64>>,
    /// The same-level dummy edges, parallel to [`Self::dummy`].
    pub dummy_edges: Vec<DummyEdge>,
    /// Per-dummy-edge attribute vectors.
    pub dummy: Vec<Vec<f64>>,
}

impl DfgAttributes {
    /// Runs the Attributes Generator on a validated DFG.
    ///
    /// # Panics
    ///
    /// Panics if the DFG's data subgraph has a cycle.
    pub fn generate(dfg: &Dfg) -> Self {
        let levels = asap(dfg);
        let anc = ancestor_sets(dfg);
        let desc = descendant_sets(dfg);

        let node = dfg
            .node_ids()
            .map(|v| {
                vec![
                    f64::from(levels[v.index()]),
                    dfg.in_degree(v) as f64,
                    dfg.out_degree(v) as f64,
                    anc[v.index()].count() as f64,
                    desc[v.index()].count() as f64,
                    dfg.node(v).op.code() as f64,
                ]
            })
            .collect();

        let edge = dfg
            .edge_ids()
            .map(|e| {
                let edge = dfg.edge(e);
                let (u, v) = (edge.src, edge.dst);
                let lu = levels[u.index()];
                let lv = levels[v.index()];
                // (1) ASAP difference between child and parent.
                let diff = f64::from(lv) - f64::from(lu);
                // (2) nodes whose ASAP lies strictly between the endpoints.
                let between = lisa_dfg::analysis::nodes_between_levels(&levels, lu, lv) as f64;
                // (3) nodes sharing the parent's or child's level (others).
                let mut same = nodes_at_level(&levels, lu) - 1;
                if lv != lu {
                    same += nodes_at_level(&levels, lv) - 1;
                }
                // (4) ancestors of the parent, (5) descendants of the child.
                vec![
                    diff,
                    between,
                    same as f64,
                    anc[u.index()].count() as f64,
                    desc[v.index()].count() as f64,
                ]
            })
            .collect();

        let dummy_edges = same_level::dummy_edges_annotated(dfg);
        let dummy = dummy_edges
            .iter()
            .map(|d| dummy_edge_attributes(d, &levels))
            .collect();

        DfgAttributes {
            node,
            edge,
            dummy_edges,
            dummy,
        }
    }

    /// Undirected adjacency over all edges (message-passing neighbours for
    /// the schedule-order GNN).
    pub fn adjacency(dfg: &Dfg) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); dfg.node_count()];
        for e in dfg.edges() {
            if e.src == e.dst {
                continue;
            }
            if !adj[e.src.index()].contains(&e.dst.index()) {
                adj[e.src.index()].push(e.dst.index());
            }
            if !adj[e.dst.index()].contains(&e.src.index()) {
                adj[e.dst.index()].push(e.src.index());
            }
        }
        adj
    }

    /// Attribute vectors of edges incident to either endpoint of `edge`
    /// (the `e(v)` neighbourhood of Eq. 5), including the edge itself.
    pub fn edge_neighborhood(&self, dfg: &Dfg, edge: EdgeId) -> Vec<Vec<f64>> {
        let e = dfg.edge(edge);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for endpoint in [e.src, e.dst] {
            for &inc in dfg.in_edges(endpoint).iter().chain(dfg.out_edges(endpoint)) {
                if !seen.contains(&inc) {
                    seen.push(inc);
                    out.push(self.edge[inc.index()].clone());
                }
            }
        }
        out
    }
}

/// The seven dummy-edge attributes for one same-level pair.
fn dummy_edge_attributes(d: &DummyEdge, levels: &[u32]) -> Vec<f64> {
    let pair_level = d.level;
    let (anc_dist, anc_level, anc_path) = match d.ancestor {
        Some(c) => (c.mean_dist(), Some(levels[c.node.index()]), c.on_path_count),
        None => (0.0, None, 0),
    };
    let (desc_dist, desc_level, desc_path) = match d.descendant {
        Some(c) => (c.mean_dist(), Some(levels[c.node.index()]), c.on_path_count),
        None => (0.0, None, 0),
    };
    // (3) nodes with ASAP above the ancestor's and below the pair's.
    let above_anc = anc_level.map_or(0, |al| {
        levels.iter().filter(|&&l| l > al && l < pair_level).count()
    });
    // (4) nodes with ASAP below the descendant's and above the pair's.
    let below_desc = desc_level.map_or(0, |dl| {
        levels.iter().filter(|&&l| l < dl && l > pair_level).count()
    });
    // (5) nodes sharing the ancestor's, descendant's, or pair's level.
    let mut key_levels: Vec<u32> = vec![pair_level];
    key_levels.extend(anc_level);
    key_levels.extend(desc_level);
    key_levels.sort_unstable();
    key_levels.dedup();
    let peers: usize = key_levels.iter().map(|&l| nodes_at_level(levels, l)).sum();
    vec![
        anc_dist,
        desc_dist,
        above_anc as f64,
        below_desc as f64,
        peers as f64,
        anc_path as f64,
        desc_path as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::{polybench, NodeId, OpKind};

    fn fig4() -> Dfg {
        let mut g = Dfg::new("fig4");
        let ops = [
            OpKind::Load,
            OpKind::Load,
            OpKind::Add,
            OpKind::Mul,
            OpKind::Add,
            OpKind::Sub,
            OpKind::Add,
            OpKind::Mul,
            OpKind::Add,
            OpKind::Store,
        ];
        let ids: Vec<NodeId> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| g.add_node(op, format!("n{i}")))
            .collect();
        for (s, d) in [
            (0, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 8),
            (2, 6),
            (3, 6),
            (3, 7),
            (4, 7),
            (4, 8),
            (6, 9),
            (7, 9),
        ] {
            g.add_data_edge(ids[s], ids[d]).unwrap();
        }
        g
    }

    #[test]
    fn dimensions_are_stable() {
        let dfg = fig4();
        let a = DfgAttributes::generate(&dfg);
        assert_eq!(a.node.len(), 10);
        assert!(a.node.iter().all(|v| v.len() == NODE_ATTR_DIM));
        assert_eq!(a.edge.len(), 12);
        assert!(a.edge.iter().all(|v| v.len() == EDGE_ATTR_DIM));
        assert_eq!(a.dummy.len(), a.dummy_edges.len());
        assert!(a.dummy.iter().all(|v| v.len() == DUMMY_ATTR_DIM));
    }

    #[test]
    fn node_attributes_of_b() {
        // B (index 1) has out-degree 4, 0 ancestors, 7 descendants.
        let dfg = fig4();
        let a = DfgAttributes::generate(&dfg);
        let b = &a.node[1];
        assert_eq!(b[0], 0.0); // asap
        assert_eq!(b[1], 0.0); // in-degree
        assert_eq!(b[2], 4.0); // out-degree
        assert_eq!(b[3], 0.0); // ancestors
        assert_eq!(b[4], 7.0); // descendants
        assert_eq!(b[5], OpKind::Load.code() as f64);
    }

    #[test]
    fn edge_attributes_of_long_edge() {
        // Edge B -> I: levels 0 -> 2, diff 2, four nodes at level 1
        // between them.
        let dfg = fig4();
        let a = DfgAttributes::generate(&dfg);
        let eid = dfg
            .edge_ids()
            .find(|&e| dfg.edge(e).src.index() == 1 && dfg.edge(e).dst.index() == 8)
            .unwrap();
        let attrs = &a.edge[eid.index()];
        assert_eq!(attrs[0], 2.0); // ASAP diff
        assert_eq!(attrs[1], 4.0); // C, D, E, F in between
        assert_eq!(attrs[3], 0.0); // B has no ancestors
    }

    #[test]
    fn adjacency_is_symmetric_and_loop_free() {
        let dfg = polybench::kernel("gemm").unwrap();
        let adj = DfgAttributes::adjacency(&dfg);
        for (v, ns) in adj.iter().enumerate() {
            for &u in ns {
                assert!(adj[u].contains(&v), "asymmetric {v}-{u}");
                assert_ne!(u, v, "self-loop in adjacency");
            }
        }
    }

    #[test]
    fn edge_neighborhood_includes_self_and_peers() {
        let dfg = fig4();
        let a = DfgAttributes::generate(&dfg);
        // Edge B -> D: B touches 4 edges, D touches 3 (B->D, D->G, D->H).
        let eid = dfg
            .edge_ids()
            .find(|&e| dfg.edge(e).src.index() == 1 && dfg.edge(e).dst.index() == 3)
            .unwrap();
        let hood = a.edge_neighborhood(&dfg, eid);
        assert_eq!(hood.len(), 6); // 4 from B + 2 more from D (B->D shared)
    }

    #[test]
    fn dummy_attributes_on_polybench() {
        for name in ["gemm", "syr2k", "atax"] {
            let dfg = polybench::kernel(name).unwrap();
            let a = DfgAttributes::generate(&dfg);
            for (d, attrs) in a.dummy_edges.iter().zip(&a.dummy) {
                // At least one of the common-node distances is set.
                assert!(
                    attrs[0] > 0.0 || attrs[1] > 0.0,
                    "{name}: pair {:?} has no common node distance",
                    (d.a, d.b)
                );
                assert!(attrs.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let dfg = polybench::kernel("mvt").unwrap();
        assert_eq!(DfgAttributes::generate(&dfg), DfgAttributes::generate(&dfg));
    }
}
