//! Error type for DFG construction and validation.

use std::error::Error;
use std::fmt;

use crate::{EdgeKind, NodeId, OpKind};

/// Errors produced while building or validating a [`crate::Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DfgError {
    /// An edge endpoint refers to a node that does not exist.
    UnknownNode(NodeId),
    /// The same data edge was inserted twice.
    DuplicateEdge {
        /// Producer endpoint of the duplicated edge.
        src: NodeId,
        /// Consumer endpoint of the duplicated edge.
        dst: NodeId,
    },
    /// A data edge leaves a node whose operation produces no value.
    SourceProducesNoValue {
        /// The offending producer node.
        src: NodeId,
        /// Its operation kind.
        op: OpKind,
    },
    /// A node has more data inputs than its operation accepts.
    TooManyInputs {
        /// The over-subscribed consumer node.
        node: NodeId,
        /// Its operation kind.
        op: OpKind,
        /// Number of incoming data edges found.
        found: usize,
        /// Maximum allowed by the operation.
        max: usize,
    },
    /// The data-dependency subgraph contains a cycle (only recurrence edges
    /// may close cycles).
    DataCycle,
    /// A recurrence edge was declared with distance zero.
    ZeroDistanceRecurrence {
        /// Producer endpoint.
        src: NodeId,
        /// Consumer endpoint.
        dst: NodeId,
    },
    /// A self-loop with an invalid edge kind was inserted.
    InvalidSelfLoop {
        /// The node with the self-loop.
        node: NodeId,
        /// Kind of the offending edge.
        kind: EdgeKind,
    },
    /// The graph is empty where a non-empty graph is required.
    Empty,
    /// A kernel lookup named no kernel of the catalog.
    UnknownKernel(String),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::UnknownNode(n) => write!(f, "unknown node id {}", n.index()),
            DfgError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge {} -> {}", src.index(), dst.index())
            }
            DfgError::SourceProducesNoValue { src, op } => write!(
                f,
                "node {} ({op}) produces no value but has an outgoing data edge",
                src.index()
            ),
            DfgError::TooManyInputs {
                node,
                op,
                found,
                max,
            } => write!(
                f,
                "node {} ({op}) has {found} data inputs, at most {max} allowed",
                node.index()
            ),
            DfgError::DataCycle => write!(f, "data-dependency subgraph contains a cycle"),
            DfgError::ZeroDistanceRecurrence { src, dst } => write!(
                f,
                "recurrence edge {} -> {} has distance zero",
                src.index(),
                dst.index()
            ),
            DfgError::InvalidSelfLoop { node, kind } => write!(
                f,
                "self-loop on node {} with non-recurrence kind {kind:?}",
                node.index()
            ),
            DfgError::Empty => write!(f, "graph is empty"),
            DfgError::UnknownKernel(name) => write!(f, "unknown PolyBench kernel {name:?}"),
        }
    }
}

impl Error for DfgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            DfgError::UnknownNode(NodeId::new(3)),
            DfgError::DataCycle,
            DfgError::Empty,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
