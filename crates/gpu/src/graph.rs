//! Captured executable graphs (the CUDA Graphs analogue).
//!
//! A graph is a DAG of kernel and memcpy nodes with explicit dependencies.
//! Launching a graph costs one (cheaper) CPU launch instead of one per
//! operation, and each node pays a reduced device-side dispatch latency
//! because dependencies were resolved at capture time — exactly the savings
//! the paper exploits in §III-D2.
//!
//! The paper's pointer-swap limitation is reproduced faithfully: node
//! parameters are frozen at capture time, so the Jacobi3D application
//! builds **two** graphs with the in/out buffers exchanged and alternates
//! between them each iteration.

use crate::engines::PRIORITY_CLASSES;
use crate::op::{KernelSpec, Work};

/// Index of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeIndex(pub usize);

#[derive(Debug, Clone)]
pub(crate) struct GraphNode {
    pub work: Work,
    /// Priority class the node's work runs at.
    pub class: usize,
    pub deps: Vec<usize>,
}

/// An immutable captured graph.
#[derive(Debug, Clone, Default)]
pub struct GraphSpec {
    pub(crate) nodes: Vec<GraphNode>,
    /// children[i] = nodes that depend on i
    pub(crate) children: Vec<Vec<usize>>,
}

impl GraphSpec {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a graph with no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of nodes with no dependencies.
    pub(crate) fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].deps.is_empty())
            .collect()
    }
}

/// Builder used at "capture time".
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<GraphNode>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with dependencies on previously added nodes.
    ///
    /// # Panics
    /// Panics if `class` is not a priority class (as
    /// [`crate::Device::create_stream`] does) or a dependency references a
    /// node not yet added (which also rules out cycles by construction).
    pub fn add(&mut self, work: Work, class: usize, deps: &[NodeIndex]) -> NodeIndex {
        assert!(class < PRIORITY_CLASSES, "priority class out of range");
        let idx = self.nodes.len();
        for d in deps {
            assert!(d.0 < idx, "dependency on not-yet-added node {}", d.0);
        }
        self.nodes.push(GraphNode {
            work,
            class,
            deps: deps.iter().map(|d| d.0).collect(),
        });
        NodeIndex(idx)
    }

    /// Convenience: add a kernel node.
    pub fn kernel(&mut self, spec: KernelSpec, class: usize, deps: &[NodeIndex]) -> NodeIndex {
        self.add(Work::Kernel(spec), class, deps)
    }

    /// Finish capture.
    pub fn build(self) -> GraphSpec {
        let mut children = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &d in &n.deps {
                children[d].push(i);
            }
        }
        GraphSpec {
            nodes: self.nodes,
            children,
        }
    }
}

/// Execution state of one launched graph instance (device-internal).
#[derive(Debug, Clone)]
pub(crate) struct GraphInstance {
    pub graph: usize,
    /// Stream the launch op came from (resumed at completion).
    pub stream: usize,
    pub indegree: Vec<usize>,
    pub remaining: usize,
    pub tag: Option<crate::op::CompletionTag>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaat_sim::SimDuration;

    fn k(name: &'static str) -> KernelSpec {
        KernelSpec::phantom(name, SimDuration::from_us(1))
    }

    #[test]
    fn builder_records_edges() {
        let mut b = GraphBuilder::new();
        let a = b.kernel(k("a"), 0, &[]);
        let c = b.kernel(k("c"), 0, &[a]);
        let d = b.kernel(k("d"), 0, &[a, c]);
        let g = b.build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.children[a.0], vec![c.0, d.0]);
        assert_eq!(g.nodes[d.0].deps, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "not-yet-added")]
    fn forward_dependency_panics() {
        let mut b = GraphBuilder::new();
        b.kernel(k("a"), 0, &[NodeIndex(3)]);
    }

    #[test]
    #[should_panic(expected = "priority class out of range")]
    fn out_of_range_class_panics() {
        GraphBuilder::new().kernel(k("a"), PRIORITY_CLASSES, &[]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert!(g.roots().is_empty());
    }
}
