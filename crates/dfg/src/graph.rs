//! The dataflow graph IR: nodes, edges, and the [`Dfg`] container.

use std::fmt;

use crate::{DfgError, OpKind};

/// Index of a node within a [`Dfg`].
///
/// Node ids are dense: they index directly into [`Dfg::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }

    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index fits in u32"))
    }

    /// The raw index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The dependency kind carried by an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Intra-iteration data dependency: the consumer reads the value the
    /// producer computes in the same loop iteration.
    Data,
    /// Loop-carried dependency: the consumer reads the value the producer
    /// computed `distance` iterations earlier. These edges may close cycles
    /// and bound the recurrence-constrained minimum II.
    Recurrence {
        /// Iteration distance, always at least 1.
        distance: u32,
    },
}

impl EdgeKind {
    /// Iteration distance of the dependency (0 for intra-iteration data).
    pub fn distance(self) -> u32 {
        match self {
            EdgeKind::Data => 0,
            EdgeKind::Recurrence { distance } => distance,
        }
    }
}

/// A DFG node: one operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgNode {
    /// Which operation the node performs.
    pub op: OpKind,
    /// Human-readable name used in dumps and Graphviz output.
    pub name: String,
}

/// A DFG edge: a data dependency between two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfgEdge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Dependency kind (intra-iteration or loop-carried).
    pub kind: EdgeKind,
}

/// A dataflow graph: the unit of work every mapper in this repository
/// places and routes onto a spatial accelerator.
///
/// Invariants (checked by [`Dfg::validate`]):
///
/// * endpoints of every edge exist;
/// * no duplicate edges between the same ordered pair with the same kind;
/// * [`EdgeKind::Data`] edges form a DAG (recurrence edges may close
///   cycles);
/// * producers of data edges produce values (no edges out of stores);
/// * in-degree respects the operation's arity.
///
/// # Example
///
/// ```
/// use lisa_dfg::{Dfg, OpKind};
///
/// # fn main() -> Result<(), lisa_dfg::DfgError> {
/// let mut dfg = Dfg::new("mac");
/// let a = dfg.add_node(OpKind::Load, "a");
/// let b = dfg.add_node(OpKind::Load, "b");
/// let m = dfg.add_node(OpKind::Mul, "m");
/// let acc = dfg.add_node(OpKind::Add, "acc");
/// dfg.add_data_edge(a, m)?;
/// dfg.add_data_edge(b, m)?;
/// dfg.add_data_edge(m, acc)?;
/// // The accumulator feeds itself in the next iteration.
/// dfg.add_recurrence_edge(acc, acc, 1)?;
/// dfg.validate()?;
/// assert_eq!(dfg.node_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    name: String,
    nodes: Vec<DfgNode>,
    edges: Vec<DfgEdge>,
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
}

impl Dfg {
    /// Creates an empty graph with the given kernel name.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
        }
    }

    /// Kernel name (e.g. `"gemm"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (data and recurrence).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Appends a node and returns its id.
    pub fn add_node(&mut self, op: OpKind, name: impl Into<String>) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(DfgNode {
            op,
            name: name.into(),
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds an intra-iteration data edge.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, the edge duplicates
    /// an existing data edge, or the edge is a self-loop (self-dependencies
    /// must be recurrence edges).
    pub fn add_data_edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, DfgError> {
        if src == dst {
            return Err(DfgError::InvalidSelfLoop {
                node: src,
                kind: EdgeKind::Data,
            });
        }
        self.add_edge(src, dst, EdgeKind::Data)
    }

    /// Adds a loop-carried dependency with the given iteration distance.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is unknown, the edge is a duplicate,
    /// or `distance` is zero.
    pub fn add_recurrence_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        distance: u32,
    ) -> Result<EdgeId, DfgError> {
        if distance == 0 {
            return Err(DfgError::ZeroDistanceRecurrence { src, dst });
        }
        self.add_edge(src, dst, EdgeKind::Recurrence { distance })
    }

    fn add_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> Result<EdgeId, DfgError> {
        if src.index() >= self.nodes.len() {
            return Err(DfgError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(DfgError::UnknownNode(dst));
        }
        let dup = self.succ[src.index()]
            .iter()
            .any(|&e| self.edges[e.index()].dst == dst && self.edges[e.index()].kind == kind);
        if dup {
            return Err(DfgError::DuplicateEdge { src, dst });
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(DfgEdge { src, dst, kind });
        self.succ[src.index()].push(id);
        self.pred[dst.index()].push(id);
        Ok(id)
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> &DfgEdge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// All nodes as a slice (indexed by [`NodeId::index`]).
    pub fn nodes(&self) -> &[DfgNode] {
        &self.nodes
    }

    /// All edges as a slice (indexed by [`EdgeId::index`]).
    pub fn edges(&self) -> &[DfgEdge] {
        &self.edges
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.succ[id.index()]
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.pred[id.index()]
    }

    /// Successor nodes over all edge kinds (may repeat on multi-edges).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ[id.index()]
            .iter()
            .map(|e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes over all edge kinds.
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred[id.index()]
            .iter()
            .map(|e| self.edges[e.index()].src)
    }

    /// Successor nodes reachable through intra-iteration data edges only.
    pub fn data_successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succ[id.index()]
            .iter()
            .filter(|e| self.edges[e.index()].kind == EdgeKind::Data)
            .map(|e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes over intra-iteration data edges only.
    pub fn data_predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred[id.index()]
            .iter()
            .filter(|e| self.edges[e.index()].kind == EdgeKind::Data)
            .map(|e| self.edges[e.index()].src)
    }

    /// In-degree counting data edges only.
    pub fn data_in_degree(&self, id: NodeId) -> usize {
        self.pred[id.index()]
            .iter()
            .filter(|e| self.edges[e.index()].kind == EdgeKind::Data)
            .count()
    }

    /// Out-degree counting data edges only.
    pub fn data_out_degree(&self, id: NodeId) -> usize {
        self.succ[id.index()]
            .iter()
            .filter(|e| self.edges[e.index()].kind == EdgeKind::Data)
            .count()
    }

    /// In-degree over all edge kinds.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.pred[id.index()].len()
    }

    /// Out-degree over all edge kinds.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succ[id.index()].len()
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; see [`DfgError`] for the list.
    pub fn validate(&self) -> Result<(), DfgError> {
        if self.nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        for edge in &self.edges {
            let src_op = self.nodes[edge.src.index()].op;
            if edge.kind == EdgeKind::Data && !src_op.produces_value() {
                return Err(DfgError::SourceProducesNoValue {
                    src: edge.src,
                    op: src_op,
                });
            }
        }
        for id in self.node_ids() {
            let op = self.nodes[id.index()].op;
            let found = self.data_in_degree(id);
            if found > op.max_inputs() {
                return Err(DfgError::TooManyInputs {
                    node: id,
                    op,
                    found,
                    max: op.max_inputs(),
                });
            }
        }
        if self.topological_order().is_none() {
            return Err(DfgError::DataCycle);
        }
        Ok(())
    }

    /// A topological order of the nodes over data edges, or `None` if the
    /// data subgraph has a cycle. Recurrence edges are ignored.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for edge in &self.edges {
            if edge.kind == EdgeKind::Data {
                indeg[edge.dst.index()] += 1;
            }
        }
        let mut stack: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).map(NodeId::new).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            order.push(v);
            for s in self.data_successors(v) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    stack.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is weakly connected (treating all edges as
    /// undirected). The random DFG generator guarantees this property for
    /// training graphs (paper §V-A).
    pub fn is_weakly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            let next = self
                .successors(v)
                .chain(self.predecessors(v))
                .collect::<Vec<_>>();
            for u in next {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Total number of operations executed per loop iteration, used by the
    /// power-efficiency metric (MOPS/W, paper Fig. 10). Constants are
    /// configured, not executed, so they are excluded.
    pub fn op_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op != OpKind::Const).count()
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dfg {} ({} nodes, {} edges)",
            self.name,
            self.nodes.len(),
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dfg {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = Dfg::new("diamond");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(c, d).unwrap();
        g
    }

    #[test]
    fn build_and_validate_diamond() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        g.validate().unwrap();
        assert!(g.is_weakly_connected());
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = diamond();
        let err = g.add_data_edge(NodeId::new(0), NodeId::new(1)).unwrap_err();
        assert!(matches!(err, DfgError::DuplicateEdge { .. }));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = diamond();
        let err = g
            .add_data_edge(NodeId::new(0), NodeId::new(99))
            .unwrap_err();
        assert!(matches!(err, DfgError::UnknownNode(_)));
    }

    #[test]
    fn data_self_loop_rejected() {
        let mut g = diamond();
        let err = g.add_data_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert!(matches!(err, DfgError::InvalidSelfLoop { .. }));
    }

    #[test]
    fn recurrence_self_loop_allowed() {
        let mut g = diamond();
        g.add_recurrence_edge(NodeId::new(1), NodeId::new(1), 1)
            .unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn zero_distance_recurrence_rejected() {
        let mut g = diamond();
        let err = g
            .add_recurrence_edge(NodeId::new(1), NodeId::new(2), 0)
            .unwrap_err();
        assert!(matches!(err, DfgError::ZeroDistanceRecurrence { .. }));
    }

    #[test]
    fn edge_out_of_store_rejected_by_validate() {
        let mut g = Dfg::new("bad");
        let s = g.add_node(OpKind::Store, "s");
        let a = g.add_node(OpKind::Add, "a");
        g.add_edge(s, a, EdgeKind::Data).unwrap();
        assert!(matches!(
            g.validate(),
            Err(DfgError::SourceProducesNoValue { .. })
        ));
    }

    #[test]
    fn arity_overflow_rejected() {
        let mut g = Dfg::new("bad");
        let l = g.add_node(OpKind::Load, "l");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Sub, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let add2 = g.add_node(OpKind::Add, "sink");
        for src in [l, a, b, c] {
            let _ = g.add_data_edge(src, add2);
        }
        assert!(matches!(g.validate(), Err(DfgError::TooManyInputs { .. })));
    }

    #[test]
    fn data_cycle_detected() {
        let mut g = Dfg::new("cycle");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, a).unwrap();
        assert_eq!(g.validate(), Err(DfgError::DataCycle));
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn recurrence_cycle_is_fine() {
        let mut g = Dfg::new("rec");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_data_edge(a, b).unwrap();
        g.add_recurrence_edge(b, a, 1).unwrap();
        g.validate().unwrap();
        assert!(g.topological_order().is_some());
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, n) in order.iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        for e in g.edges() {
            if e.kind == EdgeKind::Data {
                assert!(pos[e.src.index()] < pos[e.dst.index()]);
            }
        }
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.in_degree(NodeId::new(3)), 2);
        assert_eq!(g.data_out_degree(NodeId::new(0)), 2);
        assert_eq!(g.data_in_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Dfg::new("disc");
        g.add_node(OpKind::Add, "a");
        g.add_node(OpKind::Add, "b");
        assert!(!g.is_weakly_connected());
    }

    #[test]
    fn op_count_excludes_consts() {
        let mut g = Dfg::new("c");
        g.add_node(OpKind::Const, "k");
        g.add_node(OpKind::Add, "a");
        assert_eq!(g.op_count(), 1);
    }

    #[test]
    fn empty_graph_invalid() {
        let g = Dfg::new("empty");
        assert_eq!(g.validate(), Err(DfgError::Empty));
    }
}
