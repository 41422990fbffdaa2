//! Arena-packed adjacency: the hot-loop view of a [`Dfg`].
//!
//! [`Dfg::preds`]/[`Dfg::succs`] are correctness-first iterators — each call
//! allocates a small dedup buffer and walks the operand list. The inner
//! loops of ISE exploration (ant readiness scans, timing passes, quotient
//! construction) traverse the same unchanging edges thousands of times per
//! round, so [`CsrAdjacency`] freezes both directions once into compressed
//! sparse rows: one offset vector plus one flat neighbour arena per
//! direction, yielding allocation-free `&[NodeId]` slices.
//!
//! The neighbour lists carry exactly the *distinct* predecessors and
//! successors in first-occurrence order — the same sequence the `Dfg`
//! iterators produce — so swapping one for the other never changes an
//! analysis result.

use crate::graph::{Dfg, NodeId};

/// Compressed-sparse-row predecessor/successor adjacency of a [`Dfg`].
///
/// Built once per graph; `preds`/`succs` then answer in O(1) with borrowed
/// slices. Neighbour order matches [`Dfg::preds`]/[`Dfg::succs`]
/// (first-occurrence, duplicates removed).
///
/// # Example
///
/// ```
/// use isex_dfg::{CsrAdjacency, Dfg, Operand};
///
/// let mut g: Dfg<&str> = Dfg::new();
/// let a = g.add_node("a", vec![]);
/// let b = g.add_node("b", vec![Operand::Node(a), Operand::Node(a)]);
/// let csr = CsrAdjacency::from_dfg(&g);
/// assert_eq!(csr.preds(b.index()), &[a], "duplicate operand deduped");
/// assert_eq!(csr.succs(a.index()), &[b]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrAdjacency {
    pred_off: Vec<u32>,
    pred: Vec<NodeId>,
    succ_off: Vec<u32>,
    succ: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Freezes both adjacency directions of `dfg`.
    pub fn from_dfg<N>(dfg: &Dfg<N>) -> Self {
        let mut csr = CsrAdjacency::default();
        csr.rebuild(dfg);
        csr
    }

    /// Rebuilds in place from `dfg`, reusing the four buffers.
    pub fn rebuild<N>(&mut self, dfg: &Dfg<N>) {
        let k = dfg.len();
        self.pred_off.clear();
        self.pred.clear();
        self.succ_off.clear();
        self.succ.clear();
        self.pred_off.reserve(k + 1);
        self.succ_off.reserve(k + 1);
        self.pred_off.push(0);
        for id in dfg.node_ids() {
            self.pred.extend(dfg.preds(id));
            self.pred_off.push(self.pred.len() as u32);
        }
        self.succ_off.push(0);
        for id in dfg.node_ids() {
            self.succ.extend(dfg.succs(id));
            self.succ_off.push(self.succ.len() as u32);
        }
    }

    /// Number of nodes this adjacency was built over.
    pub fn len(&self) -> usize {
        self.pred_off.len().saturating_sub(1)
    }

    /// Returns `true` if built over an empty graph (or never built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct predecessors of node `u`, first-occurrence order.
    pub fn preds(&self, u: usize) -> &[NodeId] {
        &self.pred[self.pred_off[u] as usize..self.pred_off[u + 1] as usize]
    }

    /// Distinct successors of node `u`, first-occurrence order.
    pub fn succs(&self, u: usize) -> &[NodeId] {
        &self.succ[self.succ_off[u] as usize..self.succ_off[u + 1] as usize]
    }

    /// Number of distinct predecessors of node `u`.
    pub fn pred_count(&self, u: usize) -> usize {
        (self.pred_off[u + 1] - self.pred_off[u]) as usize
    }

    /// Writes the distinct-predecessor count of every node into `out`
    /// (cleared first) — the ready-counter seed for counter-driven
    /// scheduling, one `u32` per node.
    pub fn pred_counts_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.len()).map(|u| self.pred_off[u + 1] - self.pred_off[u]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Operand;

    fn diamond() -> (Dfg<&'static str>, [NodeId; 4]) {
        let mut g: Dfg<&'static str> = Dfg::new();
        let a = g.add_node("a", vec![]);
        let b = g.add_node("b", vec![Operand::Node(a)]);
        let c = g.add_node("c", vec![Operand::Node(a)]);
        let d = g.add_node("d", vec![Operand::Node(b), Operand::Node(c)]);
        (g, [a, b, c, d])
    }

    #[test]
    fn matches_dfg_iterators() {
        let (g, _) = diamond();
        let csr = CsrAdjacency::from_dfg(&g);
        assert_eq!(csr.len(), g.len());
        for id in g.node_ids() {
            assert_eq!(csr.preds(id.index()), g.preds(id).collect::<Vec<_>>());
            assert_eq!(csr.succs(id.index()), g.succs(id).collect::<Vec<_>>());
            assert_eq!(csr.pred_count(id.index()), g.preds(id).count());
        }
    }

    #[test]
    fn dedups_like_the_dfg() {
        let mut g: Dfg<&str> = Dfg::new();
        let a = g.add_node("a", vec![]);
        let b = g.add_node(
            "b",
            vec![Operand::Node(a), Operand::Node(a), Operand::Node(a)],
        );
        let csr = CsrAdjacency::from_dfg(&g);
        assert_eq!(csr.preds(b.index()), &[a]);
        assert_eq!(csr.succs(a.index()), &[b]);
    }

    #[test]
    fn rebuild_reuses_and_resizes() {
        let (g, _) = diamond();
        let mut csr = CsrAdjacency::from_dfg(&g);
        let mut small: Dfg<&str> = Dfg::new();
        small.add_node("only", vec![]);
        csr.rebuild(&small);
        assert_eq!(csr.len(), 1);
        assert!(csr.preds(0).is_empty());
        assert!(csr.succs(0).is_empty());
    }

    #[test]
    fn pred_counts() {
        let (g, _) = diamond();
        let csr = CsrAdjacency::from_dfg(&g);
        let mut counts = Vec::new();
        csr.pred_counts_into(&mut counts);
        assert_eq!(counts, vec![0, 1, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g: Dfg<&str> = Dfg::new();
        let csr = CsrAdjacency::from_dfg(&g);
        assert_eq!(csr.len(), 0);
        assert!(csr.is_empty());
    }
}
