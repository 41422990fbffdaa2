//! Incremental growth of legal sub-blobs.
//!
//! When a virtual subgraph or an extracted piece breaks the port or
//! convexity constraint, the explorer scores (merit case 3) or keeps
//! (extraction) the maximal legal sub-blob greedily grown from one seed:
//! frontier nodes are absorbed one at a time, each time the one whose union
//! stays convex and port-feasible with the smallest `IN + OUT`, ties to the
//! smaller node index.
//!
//! [`LegalGrower`] keeps the grown set's convexity and port terms as running
//! state, so probing `grown ∪ {v}` costs `O(words + deg(v))` instead of a
//! rebuild of both sets over every member. ISEGEN makes iterative ISE
//! growth tractable the same way: it updates a cut's gain terms when one
//! node toggles. Every term is an exact integer count or an exact bitset
//! union, so the grown set equals the plain definition's (the
//! `reference::grow_legal_from` oracle) node for node.

use isex_dfg::ports::PortDemand;
use isex_dfg::{CsrAdjacency, NodeId, NodeSet, Operand, Reachability};

use crate::candidate::Constraints;
use crate::exgraph::ExGraph;

/// Reusable state of one greedy growth. Steady state allocates nothing:
/// every buffer is sized once per graph and reset per seed.
#[derive(Debug)]
pub(crate) struct LegalGrower {
    grown: NodeSet,
    /// Union of the members' strict descendants and ancestors.
    desc: NodeSet,
    anc: NodeSet,
    /// Producers outside `grown` that feed a member: the node part of `IN`.
    ext: NodeSet,
    n_ext: usize,
    /// Distinct live-in values read by members: the live-in part of `IN`.
    live_in_seen: Vec<bool>,
    live_ins: Vec<u32>,
    /// Per member, its distinct successors outside `grown`.
    outside: Vec<u32>,
    /// Members that are live out or have an outside successor: `OUT`.
    outputs: usize,
    /// Nodes of the allowed set adjacent to `grown`.
    frontier: NodeSet,
}

impl Default for LegalGrower {
    fn default() -> Self {
        LegalGrower {
            grown: NodeSet::new(0),
            desc: NodeSet::new(0),
            anc: NodeSet::new(0),
            ext: NodeSet::new(0),
            n_ext: 0,
            live_in_seen: Vec::new(),
            live_ins: Vec::new(),
            outside: Vec::new(),
            outputs: 0,
            frontier: NodeSet::new(0),
        }
    }
}

/// Live-in values among `operands` that are neither marked in `seen` nor
/// repeated earlier in `operands`, passed to `f` once each.
fn fresh_live_ins(operands: &[Operand], seen: &[bool], mut f: impl FnMut(u32)) {
    for (i, op) in operands.iter().enumerate() {
        if let Operand::LiveIn(v) = *op {
            if !seen[v.index()] && !operands[..i].contains(op) {
                f(v.index() as u32);
            }
        }
    }
}

/// Distinct live-in values among `operands`.
pub(crate) fn distinct_live_ins(operands: &[Operand]) -> usize {
    operands
        .iter()
        .enumerate()
        .filter(|&(i, op)| matches!(op, Operand::LiveIn(_)) && !operands[..i].contains(op))
        .count()
}

impl LegalGrower {
    /// Grows a maximal legal (convex, port-feasible) sub-blob of `allowed`
    /// from `seed`, absorbing at each step the frontier node with the
    /// smallest `(IN + OUT, index)` whose union stays legal.
    pub(crate) fn grow(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        reach: &Reachability,
        constraints: &Constraints,
        seed: NodeId,
        allowed: &NodeSet,
    ) -> &NodeSet {
        self.start(g, adj, reach, seed, allowed);
        while self
            .absorb_best(g, adj, reach, constraints, allowed)
            .is_some()
        {}
        &self.grown
    }

    /// Resets the state to the singleton `{seed}`.
    pub(crate) fn start(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        reach: &Reachability,
        seed: NodeId,
        allowed: &NodeSet,
    ) {
        let n = g.len();
        if self.grown.universe() != n {
            self.grown = NodeSet::new(n);
            self.desc = NodeSet::new(n);
            self.anc = NodeSet::new(n);
            self.ext = NodeSet::new(n);
            self.frontier = NodeSet::new(n);
            self.outside = vec![0; n];
        }
        if self.live_in_seen.len() < g.live_in_count() {
            self.live_in_seen.resize(g.live_in_count(), false);
        }
        self.grown.clear();
        self.desc.clear();
        self.anc.clear();
        self.ext.clear();
        self.frontier.clear();
        self.n_ext = 0;
        for &v in &self.live_ins {
            self.live_in_seen[v as usize] = false;
        }
        self.live_ins.clear();
        self.outputs = 0;
        self.absorb(g, adj, reach, seed, allowed);
    }

    /// Absorbs the best legal frontier node and returns it, or returns
    /// `None` when no frontier node keeps the union legal.
    pub(crate) fn absorb_best(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        reach: &Reachability,
        constraints: &Constraints,
        allowed: &NodeSet,
    ) -> Option<NodeId> {
        let mut best: Option<(usize, NodeId)> = None;
        // Ascending index order, so a strict `<` keeps the smallest index
        // among equal port totals.
        for v in &self.frontier {
            let d = self.probe_demand(g, adj, v);
            if !d.fits(constraints.n_in, constraints.n_out) || !self.probe_convex(reach, v) {
                continue;
            }
            let key = d.inputs + d.outputs;
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, v));
            }
        }
        let (_, v) = best?;
        self.absorb(g, adj, reach, v, allowed);
        Some(v)
    }

    /// The grown set.
    #[cfg(test)]
    pub(crate) fn grown(&self) -> &NodeSet {
        &self.grown
    }

    /// Running `IN`/`OUT` of the grown set.
    #[cfg(test)]
    pub(crate) fn demand(&self) -> PortDemand {
        PortDemand {
            inputs: self.n_ext + self.live_ins.len(),
            outputs: self.outputs,
        }
    }

    /// Running convexity of the grown set: no outside node is both a
    /// descendant and an ancestor of members.
    #[cfg(test)]
    pub(crate) fn is_convex(&self) -> bool {
        self.desc
            .as_words()
            .iter()
            .zip(self.anc.as_words())
            .zip(self.grown.as_words())
            .all(|((d, a), s)| d & a & !s == 0)
    }

    /// `IN`/`OUT` of `grown ∪ {v}` for a node `v` outside `grown`.
    fn probe_demand(&self, g: &ExGraph, adj: &CsrAdjacency, v: NodeId) -> PortDemand {
        let mut inputs = self.n_ext + self.live_ins.len();
        // `v` stops being an external producer...
        if self.ext.contains(v) {
            inputs -= 1;
        }
        let mut outputs = self.outputs;
        for &p in adj.preds(v.index()) {
            if self.grown.contains(p) {
                // ...and a member whose only outside consumer was `v`
                // stops escaping.
                if self.outside[p.index()] == 1 && !g.node(p).is_live_out() {
                    outputs -= 1;
                }
            } else if !self.ext.contains(p) {
                inputs += 1;
            }
        }
        let node = g.node(v);
        fresh_live_ins(node.operands(), &self.live_in_seen, |_| inputs += 1);
        if node.is_live_out()
            || adj
                .succs(v.index())
                .iter()
                .any(|&s| !self.grown.contains(s))
        {
            outputs += 1;
        }
        PortDemand { inputs, outputs }
    }

    /// Convexity of `grown ∪ {v}`, from the running unions and `v`'s rows.
    fn probe_convex(&self, reach: &Reachability, v: NodeId) -> bool {
        let (vw, vbit) = (v.index() / 64, 1u64 << (v.index() % 64));
        self.desc
            .as_words()
            .iter()
            .zip(self.anc.as_words())
            .zip(self.grown.as_words())
            .zip(reach.descendants(v).as_words())
            .zip(reach.ancestors(v).as_words())
            .enumerate()
            .all(|(i, ((((d, a), s), dv), av))| {
                let s = if i == vw { s | vbit } else { *s };
                (d | dv) & (a | av) & !s == 0
            })
    }

    /// Adds `v` to the grown set and updates every running term.
    fn absorb(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        reach: &Reachability,
        v: NodeId,
        allowed: &NodeSet,
    ) {
        self.grown.insert(v);
        self.desc.union_with(reach.descendants(v));
        self.anc.union_with(reach.ancestors(v));
        if self.ext.remove(v) {
            self.n_ext -= 1;
        }
        for &p in adj.preds(v.index()) {
            if self.grown.contains(p) {
                self.outside[p.index()] -= 1;
                if self.outside[p.index()] == 0 && !g.node(p).is_live_out() {
                    self.outputs -= 1;
                }
            } else if self.ext.insert(p) {
                self.n_ext += 1;
            }
        }
        let node = g.node(v);
        let known = self.live_ins.len();
        let (seen, list) = (&self.live_in_seen, &mut self.live_ins);
        fresh_live_ins(node.operands(), seen, |l| list.push(l));
        for &l in &self.live_ins[known..] {
            self.live_in_seen[l as usize] = true;
        }
        let outside = adj
            .succs(v.index())
            .iter()
            .filter(|&&s| !self.grown.contains(s))
            .count() as u32;
        self.outside[v.index()] = outside;
        if node.is_live_out() || outside > 0 {
            self.outputs += 1;
        }
        self.frontier.remove(v);
        for &w in adj.preds(v.index()).iter().chain(adj.succs(v.index())) {
            if allowed.contains(w) && !self.grown.contains(w) {
                self.frontier.insert(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exgraph;
    use crate::reference::grow_legal_from;
    use isex_dfg::{convex, ports};
    use isex_workloads::random::{random_dfg, RandomDfgConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PORTS: [(usize, usize); 3] = [(2, 1), (4, 2), (6, 3)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Blocks of 20–200 ops (one to four bitset words), random allowed
        /// sets and seeds inside them, under each port budget: the grown
        /// set equals the plain definition's, and after every absorption
        /// the running port counts and convexity equal their definitions.
        #[test]
        fn grower_matches_the_plain_definition(
            nodes in 20usize..200,
            width in 2usize..8,
            seed in any::<u64>(),
            density in 30u32..95,
        ) {
            let shape = RandomDfgConfig { nodes, width, ..RandomDfgConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dfg = random_dfg(&shape, &mut rng);
            // `random_dfg` marks only sinks live out; values also consumed
            // inside the block exercise `OUT`'s live-out rule.
            for n in dfg.node_ids() {
                if rng.gen_range(0..8u32) == 0 {
                    dfg.set_live_out(n, true);
                }
            }
            let g = exgraph::build(&dfg);
            let reach = Reachability::compute(&g);
            let adj = CsrAdjacency::from_dfg(&g);
            let mut allowed = NodeSet::new(g.len());
            for n in g.node_ids() {
                if rng.gen_range(0..100u32) < density {
                    allowed.insert(n);
                }
            }
            prop_assume!(!allowed.is_empty());
            let members: Vec<NodeId> = allowed.iter().collect();
            let mut grower = LegalGrower::default();
            for &(n_in, n_out) in &PORTS {
                let cons = Constraints::new(n_in, n_out);
                for _ in 0..3 {
                    let seed_node = members[rng.gen_range(0..members.len())];
                    grower.start(&g, &adj, &reach, seed_node, &allowed);
                    loop {
                        let grown = grower.grown();
                        prop_assert_eq!(grower.demand(), ports::demand(&g, grown));
                        prop_assert_eq!(grower.is_convex(), convex::is_convex(grown, &reach));
                        if grower.absorb_best(&g, &adj, &reach, &cons, &allowed).is_none() {
                            break;
                        }
                    }
                    let expect = grow_legal_from(&g, seed_node, &allowed, &cons, &reach);
                    prop_assert_eq!(grower.grown(), &expect);
                    let again = grower.grow(&g, &adj, &reach, &cons, seed_node, &allowed);
                    prop_assert_eq!(again, &expect);
                }
            }
        }
    }

    /// `a` is live out and also feeds `b`: absorbing `b` internalises
    /// `a`'s only consumer, yet `a` stays an output.
    #[test]
    fn live_out_member_keeps_its_output_when_its_consumer_joins() {
        use isex_isa::{Opcode, Operation, ProgramDfg};
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(Operation::new(Opcode::Add), vec![Operand::LiveIn(x)]);
        let b = dfg.add_node(Operation::new(Opcode::Xor), vec![Operand::Node(a)]);
        dfg.set_live_out(a, true);
        dfg.set_live_out(b, true);
        let g = exgraph::build(&dfg);
        let reach = Reachability::compute(&g);
        let adj = CsrAdjacency::from_dfg(&g);
        let all = NodeSet::full(g.len());
        let mut grower = LegalGrower::default();
        let grown = grower.grow(&g, &adj, &reach, &Constraints::new(2, 2), a, &all);
        assert_eq!(grown, &all);
        assert_eq!(grower.demand(), ports::demand(&g, &all));
        assert_eq!(grower.demand().outputs, 2);
        // One write port leaves `a` alone: `{a, b}` needs two.
        let grown = grower.grow(&g, &adj, &reach, &Constraints::new(2, 1), a, &all);
        assert_eq!(grown.len(), 1);
    }

    #[test]
    fn distinct_live_ins_counts_each_value_once() {
        let mut g = ExGraph::new();
        let (x, y) = (g.live_in(), g.live_in());
        let ops = [
            Operand::LiveIn(x),
            Operand::Const(4),
            Operand::LiveIn(x),
            Operand::LiveIn(y),
        ];
        assert_eq!(distinct_live_ins(&ops), 2);
        assert_eq!(distinct_live_ins(&[]), 0);
    }
}
