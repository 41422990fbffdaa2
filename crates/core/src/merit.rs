//! The merit function (Figs. 4.3.6 / 4.3.7 / 4.3.8).
//!
//! After every walk the algorithm evaluates each implementation option of
//! each operation "according to which implementation option is chosen in
//! its neighboring ones at previous iteration" (Ch. 3). Concretely:
//!
//! * **Hardware-Grouping** builds, per operation `x`, the virtual subgraph
//!   `vS_x`: `x` together with its reachable neighbours that chose a
//!   hardware option in this iteration, and evaluates each hardware option
//!   `j` of `x` into `ET(vS_x,HW-j)` (critical-path delay) and
//!   `Area_x,HW-j`;
//! * the **merit function** then applies the four cases: critical-path
//!   boost, size-1 penalty, constraint-violation penalties, and the
//!   performance/area scoring with the `Max_AEC` slack window.
//!
//! [`compute_merit_ops`] is the production computation: its graph queries
//! ([`FastPrims`]) scan only the members of each set over the round's SoA
//! arrays and per-walk component tables. The reference oracle in
//! `crate::reference` transcribes the same four cases over the plain
//! `Dfg`-walking definitions; tests pin the two to bit-equal op streams.

use isex_aco::{ImplChoice, PheromoneStore};
use isex_dfg::{analysis, CsrAdjacency, NodeId, NodeSet, Operand, Reachability};
use isex_isa::MachineConfig;
use isex_sched::soa::SoaGraph;

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::grow::LegalGrower;

/// Hardware-Grouping (Fig. 4.3.6): the virtual subgraph of `x` — `x` plus
/// every node reachable from it through neighbours that chose a hardware
/// option in this iteration.
pub(crate) fn virtual_subgraph(g: &ExGraph, walk: &Walk, x: NodeId) -> NodeSet {
    let mut vs = NodeSet::new(g.len());
    vs.insert(x);
    let mut stack = vec![x];
    while let Some(u) = stack.pop() {
        for v in g.preds(u).chain(g.succs(u)) {
            if !vs.contains(v) && walk.choice[v.index()].is_hardware() {
                vs.insert(v);
                stack.push(v);
            }
        }
    }
    vs
}

/// Evaluation of one hardware option of one operation inside its virtual
/// subgraph.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VsEval {
    /// `ET(vS_x,HW-j)` in cycles.
    pub et_cycles: u32,
    /// Total silicon area of the virtual subgraph, µm².
    pub area: f64,
}

/// Evaluates option `j` of `x` within `vs` (members use their own chosen
/// hardware option, `x` uses option `j`).
pub(crate) fn evaluate_option(
    g: &ExGraph,
    walk: &Walk,
    vs: &NodeSet,
    x: NodeId,
    j: usize,
    machine: &MachineConfig,
) -> VsEval {
    let delay = analysis::weighted_longest_path_within(g, vs, |y, op| {
        if y == x {
            op.hw[j].delay_ns
        } else {
            match walk.choice[y.index()] {
                ImplChoice::Hw(h) => op.hw[h].delay_ns,
                // x's own software choice never lands here (y != x), and
                // vs members besides x always chose hardware.
                ImplChoice::Sw(_) => op.hw[0].delay_ns,
            }
        }
    });
    let area: f64 = vs
        .iter()
        .map(|y| {
            let op = g.node(y).payload();
            if y == x {
                op.hw[j].area_um2
            } else {
                match walk.choice[y.index()] {
                    ImplChoice::Hw(h) => op.hw[h].area_um2,
                    ImplChoice::Sw(_) => op.hw[0].area_um2,
                }
            }
        })
        .sum();
    VsEval {
        et_cycles: machine.cycles_for_delay_ns(delay),
        area,
    }
}

/// One recorded merit multiplication: `(node index, option, factor)`.
///
/// The merit update is a pure function of the walk given a fixed graph and
/// parameters, so the round cache stores these sequences and replays them.
/// Replaying the *exact* `scale_merit` calls — never pre-multiplied
/// factors — keeps the floating-point results bit-identical to a fresh
/// computation (f64 multiplication is not associative).
pub(crate) type MeritOp = (u32, ImplChoice, f64);

/// Replays a merit-op sequence onto the store and normalises merits
/// (step 8 of Fig. 4.3.1).
pub(crate) fn apply_merit_ops(store: &mut PheromoneStore, ops: &[MeritOp]) {
    for &(node, choice, factor) in ops {
        store.scale_merit(node as usize, choice, factor);
    }
    store.normalize_merits();
}

/// The merit computation of one iteration (the four cases of Fig. 4.3.7)
/// as a replayable op sequence: the store is only ever touched through
/// `scale_merit`, so recording the calls captures the whole update.
/// `critical` marks the walk's critical-path operations; every graph query
/// is answered by `prims` over the round's SoA arrays, and case 3's legal
/// sub-blobs are grown by `grower`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_merit_ops(
    g: &ExGraph,
    walk: &Walk,
    critical: &NodeSet,
    constraints: &Constraints,
    machine: &MachineConfig,
    params: &isex_aco::AcoParams,
    reach: &Reachability,
    prims: &mut FastPrims<'_>,
    grower: &mut LegalGrower,
) -> Vec<MeritOp> {
    let mut ops: Vec<MeritOp> = Vec::new();
    let mut vs_buf = NodeSet::new(g.len());
    for x in g.node_ids() {
        let xi = x.index() as u32;
        let op = g.node(x).payload();
        // Software merit: merit ×= ET(x, SW-i) (Eq. 3 of §4.3's merit part).
        for (i, d) in op.sw_delays.iter().enumerate() {
            ops.push((xi, ImplChoice::Sw(i), *d as f64));
        }
        if op.hw.is_empty() {
            continue;
        }

        // Case 1: critical-path boost.
        if critical.contains(x) {
            for j in 0..op.hw.len() {
                ops.push((xi, ImplChoice::Hw(j), 1.0 / params.beta_cp));
            }
        }

        prims.virtual_subgraph_into(walk, x, &mut vs_buf);

        // Case 2: nothing to fuse with.
        if vs_buf.len() == 1 {
            for j in 0..op.hw.len() {
                ops.push((xi, ImplChoice::Hw(j), params.beta_size));
            }
            continue;
        }

        // Case 3: constraint violations. The β penalties discourage
        // growing the blob further, but the operation may still anchor a
        // smaller legal ISE, so case 4 is evaluated on the maximal legal
        // sub-blob around `x` — otherwise on dense blocks every hardware
        // merit collapses and the search starves (the paper's penalties
        // assume the violating state is transient).
        let (io_ok, convex_ok) = prims.legality(g, x, &vs_buf, constraints, reach);
        let vs: &NodeSet = if !io_ok || !convex_ok {
            for j in 0..op.hw.len() {
                if !io_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_io));
                }
                if !convex_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_convex));
                }
            }
            let legal = grower.grow(g, prims.adj, reach, constraints, x, &vs_buf);
            if legal.len() < 2 {
                continue;
            }
            legal
        } else {
            &vs_buf
        };

        // Case 4: performance and area scoring.
        let evals: Vec<VsEval> = (0..op.hw.len())
            .map(|j| prims.evaluate_option(g, walk, vs, x, j, machine))
            .collect();
        let et_max_reduction = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
        let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
        let sw_cycles = prims.software_cycles(g, vs);
        let vs_critical = vs.iter().any(|y| critical.contains(y));
        let max_aec = prims.max_aec(vs);
        for (j, ev) in evals.iter().enumerate() {
            let saving = sw_cycles as i64 - ev.et_cycles as i64;
            // Criterion (1): positive savings scale merit up proportionally;
            // a useless option decays instead.
            let perf = if saving > 0 { saving as f64 } else { 0.5 };
            ops.push((xi, ImplChoice::Hw(j), perf));
            // Criteria (2)–(4): area-aware adjustment.
            let factor = if vs_critical {
                if ev.et_cycles == et_max_reduction {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_max_reduction) as f64)
                }
            } else if ev.et_cycles <= max_aec {
                area_max / ev.area.max(1.0)
            } else {
                1.0 / (1.0 + (ev.et_cycles - max_aec) as f64)
            };
            ops.push((xi, ImplChoice::Hw(j), factor));
        }
    }
    ops
}

/// Per-round scratch of the fast merit primitives: hardware-choice
/// connected components and their legality summaries (recomputed per
/// walk), the longest-path finish buffer, and the sets that combine
/// summaries. Steady state allocates nothing.
pub(crate) struct FastMeritScratch {
    /// Component id per node for the current walk; `u32::MAX` when the node
    /// did not choose hardware.
    comp_id: Vec<u32>,
    /// Component member sets, pooled across walks.
    comps: Vec<NodeSet>,
    n_comps: usize,
    /// Legality summary per component, pooled across walks.
    summaries: Vec<CompSummary>,
    /// Whether `summaries[k]` describes this walk's component `k`; a
    /// summary is built on first use.
    summarised: Vec<bool>,
    /// Per hardware-chosen node, its distinct successors outside its
    /// component (valid once that component is summarised).
    outside: Vec<u32>,
    /// The distinct components that make up the current virtual subgraph.
    vs_comps: Vec<u32>,
    /// Longest-path finish times. Stale entries are never read: members are
    /// visited in ascending index order and every predecessor of a member
    /// inside the set has a smaller index (the topological-order invariant
    /// of [`isex_dfg::Dfg`]), so it was written earlier in the same call.
    finish: Vec<f64>,
    stack: Vec<u32>,
    /// Unions of summaries for a software-chosen `x`: external producers,
    /// live-ins (over live-in indices), descendants and ancestors.
    ext: NodeSet,
    live_ins: NodeSet,
    desc: NodeSet,
    anc: NodeSet,
}

/// What the legality of a virtual subgraph needs from one hardware
/// component `C`.
struct CompSummary {
    /// Producers outside `C` that feed a member.
    ext: NodeSet,
    /// Live-in values read by members, over live-in indices.
    live_ins: NodeSet,
    /// Unions of the members' strict descendants and ancestors.
    desc: NodeSet,
    anc: NodeSet,
    /// `OUT(C)`: members that are live out or feed a node outside `C`.
    outputs: usize,
    /// `(io_ok, convex_ok)` of `C` itself.
    legal: (bool, bool),
}

impl CompSummary {
    fn new(n: usize, live_ins: usize) -> Self {
        CompSummary {
            ext: NodeSet::new(n),
            live_ins: NodeSet::new(live_ins),
            desc: NodeSet::new(n),
            anc: NodeSet::new(n),
            outputs: 0,
            legal: (true, true),
        }
    }
}

impl Default for FastMeritScratch {
    fn default() -> Self {
        FastMeritScratch {
            comp_id: Vec::new(),
            comps: Vec::new(),
            n_comps: 0,
            summaries: Vec::new(),
            summarised: Vec::new(),
            outside: Vec::new(),
            vs_comps: Vec::new(),
            finish: Vec::new(),
            stack: Vec::new(),
            ext: NodeSet::new(0),
            live_ins: NodeSet::new(0),
            desc: NodeSet::new(0),
            anc: NodeSet::new(0),
        }
    }
}

/// Word-wise convexity: no node outside `set` is both a descendant and an
/// ancestor of members.
fn convex_words(desc: &NodeSet, anc: &NodeSet, set: &NodeSet) -> bool {
    desc.as_words()
        .iter()
        .zip(anc.as_words())
        .zip(set.as_words())
        .all(|((d, a), v)| d & a & !v == 0)
}

impl FastMeritScratch {
    /// Recomputes the walk-dependent state: the connected components of the
    /// hardware-chosen nodes (connectivity through hardware nodes only,
    /// edges taken as undirected). The virtual subgraph of any `x` is then
    /// `{x} ∪ ⋃ comp(v)` over the hardware-chosen neighbours `v` of `x` —
    /// exactly the set the per-node DFS of [`virtual_subgraph`] discovers.
    pub(crate) fn prepare(&mut self, base: &SoaGraph, walk: &Walk) {
        let n = base.len();
        self.comp_id.clear();
        self.comp_id.resize(n, u32::MAX);
        self.n_comps = 0;
        if self.finish.len() != n {
            self.finish = vec![0.0; n];
            self.outside = vec![0; n];
            self.ext = NodeSet::new(n);
            self.desc = NodeSet::new(n);
            self.anc = NodeSet::new(n);
        }
        for v in 0..n {
            if !walk.choice[v].is_hardware() || self.comp_id[v] != u32::MAX {
                continue;
            }
            let k = self.n_comps;
            if k == self.comps.len() {
                self.comps.push(NodeSet::new(n));
            } else {
                self.comps[k].clear();
            }
            self.n_comps += 1;
            self.comp_id[v] = k as u32;
            self.comps[k].insert(NodeId::new(v as u32));
            self.stack.clear();
            self.stack.push(v as u32);
            while let Some(u) = self.stack.pop() {
                for &w in base
                    .preds(u as usize)
                    .iter()
                    .chain(base.succs(u as usize).iter())
                {
                    let wi = w as usize;
                    if self.comp_id[wi] == u32::MAX && walk.choice[wi].is_hardware() {
                        self.comp_id[wi] = k as u32;
                        self.comps[k].insert(NodeId::new(w));
                        self.stack.push(w);
                    }
                }
            }
        }
        self.summarised.clear();
        self.summarised.resize(self.n_comps, false);
    }

    /// Builds the legality summary of component `k` unless this walk
    /// already has it.
    fn summarise(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        constraints: &Constraints,
        reach: &Reachability,
        k: usize,
    ) {
        if self.summarised[k] {
            return;
        }
        self.summarised[k] = true;
        let (n, n_li) = (g.len(), g.live_in_count());
        while self.summaries.len() <= k {
            self.summaries.push(CompSummary::new(n, n_li));
        }
        let sum = &mut self.summaries[k];
        if sum.ext.universe() != n || sum.live_ins.universe() != n_li {
            *sum = CompSummary::new(n, n_li);
        }
        let comp = &self.comps[k];
        sum.ext.clear();
        sum.live_ins.clear();
        sum.desc.clear();
        sum.anc.clear();
        let mut n_ext = 0usize;
        let mut outputs = 0usize;
        for m in comp {
            let mi = m.index();
            sum.desc.union_with(reach.descendants(m));
            sum.anc.union_with(reach.ancestors(m));
            for &p in adj.preds(mi) {
                if !comp.contains(p) && sum.ext.insert(p) {
                    n_ext += 1;
                }
            }
            let node = g.node(m);
            for op in node.operands() {
                if let Operand::LiveIn(v) = *op {
                    sum.live_ins.insert(NodeId::new(v.index() as u32));
                }
            }
            let outside = adj.succs(mi).iter().filter(|&&s| !comp.contains(s)).count();
            self.outside[mi] = outside as u32;
            if node.is_live_out() || outside > 0 {
                outputs += 1;
            }
        }
        sum.outputs = outputs;
        let inputs = n_ext + sum.live_ins.len();
        sum.legal = (
            inputs <= constraints.n_in && outputs <= constraints.n_out,
            convex_words(&sum.desc, &sum.anc, comp),
        );
    }
}

/// The graph queries of the merit computation, answered over the round's
/// SoA arrays and [`FastMeritScratch`]: virtual subgraphs by word-level
/// component union, legality from per-component summaries, longest paths
/// scanning members only, and `Max_AEC` answered directly from the
/// persistent quotient timing vectors (`alap` holds slots at deadline
/// `len`; the walk's deadline shifts every slot uniformly, folded in as
/// `extra`). Every query returns the same set, count or f64 as its plain
/// definition: max folds are order-insensitive and the f64 sums run in
/// ascending member order.
pub(crate) struct FastPrims<'a> {
    pub scratch: &'a mut FastMeritScratch,
    pub base: &'a SoaGraph,
    /// The round's frozen adjacency, which the legal-sub-blob grower walks.
    pub adj: &'a CsrAdjacency,
    /// Original-node → quotient-node map of this walk's quotient.
    pub node_map: &'a [u32],
    /// Quotient latencies, ASAP and ALAP-at-`len`.
    pub qlat: &'a [u32],
    pub asap: &'a [u32],
    pub alap: &'a [u32],
    /// `walk deadline − len`, the uniform ALAP shift.
    pub extra: u32,
}

impl FastPrims<'_> {
    /// Fills `out` with the virtual subgraph of `x` (Fig. 4.3.6): `x` plus
    /// the component of every hardware-chosen neighbour, and records those
    /// components, each once. A hardware-chosen `x` shares one component
    /// with all of those neighbours, so its virtual subgraph is that
    /// component.
    fn virtual_subgraph_into(&mut self, walk: &Walk, x: NodeId, out: &mut NodeSet) {
        out.clear();
        let xi = x.index() as u32;
        let s = &mut *self.scratch;
        s.vs_comps.clear();
        let own = s.comp_id[xi as usize];
        if own != u32::MAX {
            out.union_with(&s.comps[own as usize]);
            s.vs_comps.push(own);
            return;
        }
        out.insert(x);
        for &v in self
            .base
            .preds(xi as usize)
            .iter()
            .chain(self.base.succs(xi as usize).iter())
        {
            if walk.choice[v as usize].is_hardware() {
                let k = s.comp_id[v as usize];
                if !s.vs_comps.contains(&k) {
                    out.union_with(&s.comps[k as usize]);
                    s.vs_comps.push(k);
                }
            }
        }
    }

    /// `(io_ok, convex_ok)` of `vs`, the virtual subgraph of `x` that
    /// [`Self::virtual_subgraph_into`] just built.
    ///
    /// A hardware-chosen `x` reads its component's pair. A software-chosen
    /// `x` combines the summaries of its neighbouring components, which is
    /// exact because two distinct components are never adjacent (an edge
    /// between two hardware-chosen nodes puts them in one component):
    ///
    /// - `IN` counts `(⋃ ext_C ∪ preds(x)) \ vs` and `⋃ live-ins_C ∪
    ///   live-ins(x)`;
    /// - `OUT` is `Σ OUT_C`, plus `x` if it escapes, minus each component
    ///   predecessor of `x` that is not live out and whose only successor
    ///   outside its component is `x` (every other node outside a component
    ///   is outside `vs`, so only `x` can internalise a member's output);
    /// - convex iff `(⋃ desc_C ∪ desc(x)) & (⋃ anc_C ∪ anc(x)) & !vs` is
    ///   empty.
    fn legality(
        &mut self,
        g: &ExGraph,
        x: NodeId,
        vs: &NodeSet,
        constraints: &Constraints,
        reach: &Reachability,
    ) -> (bool, bool) {
        let adj = self.adj;
        let s = &mut *self.scratch;
        for i in 0..s.vs_comps.len() {
            s.summarise(g, adj, constraints, reach, s.vs_comps[i] as usize);
        }
        let xi = x.index();
        if s.comp_id[xi] != u32::MAX {
            return s.summaries[s.comp_id[xi] as usize].legal;
        }
        if s.live_ins.universe() != g.live_in_count() {
            s.live_ins = NodeSet::new(g.live_in_count());
        }
        s.ext.clear();
        s.live_ins.clear();
        s.desc.clear();
        s.anc.clear();
        s.desc.union_with(reach.descendants(x));
        s.anc.union_with(reach.ancestors(x));
        let mut outputs = 0usize;
        for &k in &s.vs_comps {
            let sum = &s.summaries[k as usize];
            s.ext.union_with(&sum.ext);
            s.live_ins.union_with(&sum.live_ins);
            s.desc.union_with(&sum.desc);
            s.anc.union_with(&sum.anc);
            outputs += sum.outputs;
        }
        for &p in adj.preds(xi) {
            s.ext.insert(p);
            let pi = p.index();
            if s.comp_id[pi] != u32::MAX && !g.node(p).is_live_out() && s.outside[pi] == 1 {
                outputs -= 1;
            }
        }
        let node = g.node(x);
        for op in node.operands() {
            if let Operand::LiveIn(v) = *op {
                s.live_ins.insert(NodeId::new(v.index() as u32));
            }
        }
        if node.is_live_out() || adj.succs(xi).iter().any(|&sc| !vs.contains(sc)) {
            outputs += 1;
        }
        let ext_inputs: usize = s
            .ext
            .as_words()
            .iter()
            .zip(vs.as_words())
            .map(|(e, v)| (e & !v).count_ones() as usize)
            .sum();
        let inputs = ext_inputs + s.live_ins.len();
        (
            inputs <= constraints.n_in && outputs <= constraints.n_out,
            convex_words(&s.desc, &s.anc, vs),
        )
    }

    /// `ET(vS_x,HW-j)` and area of option `j` of `x` within `vs`.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_option(
        &mut self,
        g: &ExGraph,
        walk: &Walk,
        vs: &NodeSet,
        x: NodeId,
        j: usize,
        machine: &MachineConfig,
    ) -> VsEval {
        let finish = &mut self.scratch.finish;
        let mut best = 0.0f64;
        let mut area = 0.0f64;
        for y in vs {
            let op = g.node(y).payload();
            let (d, a) = if y == x {
                (op.hw[j].delay_ns, op.hw[j].area_um2)
            } else {
                match walk.choice[y.index()] {
                    ImplChoice::Hw(h) => (op.hw[h].delay_ns, op.hw[h].area_um2),
                    ImplChoice::Sw(_) => (op.hw[0].delay_ns, op.hw[0].area_um2),
                }
            };
            let mut start = 0.0f64;
            for &p in self.base.preds(y.index()) {
                if vs.contains(NodeId::new(p)) {
                    start = start.max(finish[p as usize]);
                }
            }
            let f = start + d;
            finish[y.index()] = f;
            best = best.max(f);
            area += a;
        }
        VsEval {
            et_cycles: machine.cycles_for_delay_ns(best),
            area,
        }
    }

    /// Software execution cycles of `vs` on the core: its latency-weighted
    /// dependence chain (the multi-issue lower bound the ISE must beat).
    fn software_cycles(&mut self, g: &ExGraph, vs: &NodeSet) -> u32 {
        let finish = &mut self.scratch.finish;
        let mut best = 0.0f64;
        for y in vs {
            let d = g.node(y).payload().sw_delays[0] as f64;
            let mut start = 0.0f64;
            for &p in self.base.preds(y.index()) {
                if vs.contains(NodeId::new(p)) {
                    start = start.max(finish[p as usize]);
                }
            }
            let f = start + d;
            finish[y.index()] = f;
            best = best.max(f);
        }
        best.round() as u32
    }

    /// The `Max_AEC` slack window of `vs` (Fig. 4.3.8).
    fn max_aec(&mut self, vs: &NodeSet) -> u32 {
        if vs.is_empty() {
            return 0;
        }
        let mut earliest = u32::MAX;
        let mut latest = 0u32;
        for y in vs {
            let qv = self.node_map[y.index()] as usize;
            earliest = earliest.min(self.asap[qv]);
            latest = latest.max(self.alap[qv] + self.extra + self.qlat[qv]);
        }
        latest.saturating_sub(earliest)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ant::{Ant, SpFunction};
    use crate::exgraph;
    use isex_aco::AcoParams;
    use isex_dfg::{convex, ports, CsrAdjacency, Operand};
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    /// add -> sll -> xor chain plus one independent slack op.
    pub(crate) fn graph() -> ExGraph {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::Const(1)],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a), Operand::Const(2)],
        );
        let c = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(b), Operand::LiveIn(x)],
        );
        let d = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::LiveIn(x), Operand::Const(3)],
        );
        dfg.set_live_out(c, true);
        dfg.set_live_out(d, true);
        exgraph::build(&dfg)
    }

    /// A walk that chose software everywhere (merits rigged towards it).
    pub(crate) fn software_walk(g: &ExGraph, cons: &Constraints, seed: u64) -> Walk {
        let m = MachineConfig::preset_2issue_4r2w();
        let csr = CsrAdjacency::from_dfg(g);
        let ant = Ant::new(g, &m, cons, 0.5, SpFunction::ChildCount, &csr);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &AcoParams::default());
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e9);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e-9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ant.run(&store, &mut rng)
    }

    fn default_walk(g: &ExGraph) -> Walk {
        let m = MachineConfig::preset_2issue_4r2w();
        software_walk(g, &Constraints::from_machine(&m), 7)
    }

    #[test]
    fn virtual_subgraph_follows_hardware_choices() {
        let g = graph();
        let mut w = default_walk(&g);
        // Pretend b and c chose hardware.
        w.choice[1] = ImplChoice::Hw(0);
        w.choice[2] = ImplChoice::Hw(0);
        let vs = virtual_subgraph(&g, &w, NodeId::new(0));
        assert_eq!(vs.len(), 3, "a + hardware-chosen b, c");
        let vs_d = virtual_subgraph(&g, &w, NodeId::new(3));
        assert_eq!(vs_d.len(), 1, "d has no hardware neighbours");
    }

    #[test]
    fn evaluate_option_sums_area_and_chains_delay() {
        let g = graph();
        let mut w = default_walk(&g);
        w.choice[0] = ImplChoice::Hw(0); // add slow option: 4.04 ns, 926.33
        w.choice[1] = ImplChoice::Hw(0); // sll: 3.0 ns, 400
        let vs = virtual_subgraph(&g, &w, NodeId::new(0));
        let m = MachineConfig::preset_2issue_4r2w();
        let ev = evaluate_option(&g, &w, &vs, NodeId::new(0), 0, &m);
        assert_eq!(ev.et_cycles, 1, "7.04 ns fits one 10 ns cycle");
        assert!((ev.area - (926.33 + 400.0)).abs() < 1e-9);
        // Fast add option: 2.12 ns / 2075.35 µm².
        let ev1 = evaluate_option(&g, &w, &vs, NodeId::new(0), 1, &m);
        assert!(ev1.area > ev.area);
        assert_eq!(ev1.et_cycles, 1);
    }

    /// `(io_ok, convex_ok)`.
    type Legality = (bool, bool);

    /// `FastPrims::legality` of every operation with a hardware option,
    /// beside the plain definitions over the same virtual subgraph.
    fn legality_pairs(
        g: &ExGraph,
        walk: &Walk,
        cons: &Constraints,
    ) -> Vec<(NodeId, Legality, Legality)> {
        let reach = Reachability::compute(g);
        let adj = CsrAdjacency::from_dfg(g);
        let base = SoaGraph::from_sched(&exgraph::to_sched(g));
        let mut scratch = FastMeritScratch::default();
        scratch.prepare(&base, walk);
        let mut prims = FastPrims {
            scratch: &mut scratch,
            base: &base,
            adj: &adj,
            node_map: &[],
            qlat: &[],
            asap: &[],
            alap: &[],
            extra: 0,
        };
        let mut vs = NodeSet::new(g.len());
        let mut out = Vec::new();
        for x in g.node_ids() {
            if g.node(x).payload().hw.is_empty() {
                continue;
            }
            prims.virtual_subgraph_into(walk, x, &mut vs);
            assert_eq!(vs, virtual_subgraph(g, walk, x));
            let fast = prims.legality(g, x, &vs, cons, &reach);
            let plain = (
                ports::demand(g, &vs).fits(cons.n_in, cons.n_out),
                convex::is_convex(&vs, &reach),
            );
            out.push((x, fast, plain));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Blocks of 60–200 ops (one to four bitset words) with one node in
        /// eight also live out, random walks of every hardware density and
        /// three port budgets: the pair read from component summaries equals
        /// `ports::demand` and `convex::is_convex` of the virtual subgraph,
        /// for hardware- and software-chosen operations alike.
        #[test]
        fn legality_matches_the_plain_definitions(
            nodes in 60usize..200,
            width in 2usize..8,
            seed in proptest::prelude::any::<u64>(),
            density in 20u32..95,
        ) {
            use isex_workloads::random::{random_dfg, RandomDfgConfig};
            use rand::Rng;

            let shape = RandomDfgConfig { nodes, width, ..RandomDfgConfig::default() };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut dfg = random_dfg(&shape, &mut rng);
            for n in dfg.node_ids() {
                if rng.gen_range(0..8u32) == 0 {
                    dfg.set_live_out(n, true);
                }
            }
            let g = exgraph::build(&dfg);
            let mut walk = default_walk(&g);
            for n in g.node_ids() {
                let hw = g.node(n).payload().hw.len();
                if hw > 0 && rng.gen_range(0..100u32) < density {
                    walk.choice[n.index()] = ImplChoice::Hw(rng.gen_range(0..hw));
                }
            }
            for (n_in, n_out) in [(2, 1), (4, 2), (6, 3)] {
                let cons = Constraints::new(n_in, n_out);
                for (x, fast, plain) in legality_pairs(&g, &walk, &cons) {
                    proptest::prop_assert_eq!(fast, plain, "x = {:?}", x);
                }
            }
        }
    }

    /// A software-chosen `x` between two non-convex hardware components
    /// `{a1, a2, a3}` and `{b1, b2, b3}`: `a2` and `b2` are live out and
    /// `x` is their only consumer, and `x` feeds `a3` and `b3`. Joining `x`
    /// makes the union convex, and `a2`/`b2` must still count as outputs:
    /// `OUT = 4` (`a2`, `a3`, `b2`, `b3`), one more than three write ports
    /// allow.
    #[test]
    fn software_x_keeps_live_out_outputs_of_the_components_it_joins() {
        let mut dfg = ProgramDfg::new();
        let (p, q) = (dfg.live_in(), dfg.live_in());
        let a1 = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(p), Operand::Const(1)],
        );
        let a2 = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a1), Operand::Const(2)],
        );
        let b1 = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(q), Operand::Const(3)],
        );
        let b2 = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(b1), Operand::Const(4)],
        );
        let x = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(a2), Operand::Node(b2)],
        );
        let a3 = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(a1), Operand::Node(x)],
        );
        let b3 = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::Node(b1), Operand::Node(x)],
        );
        for n in [a2, b2, a3, b3] {
            dfg.set_live_out(n, true);
        }
        let g = exgraph::build(&dfg);
        let mut walk = default_walk(&g);
        for n in [a1, a2, a3, b1, b2, b3] {
            walk.choice[n.index()] = ImplChoice::Hw(0);
        }
        let reach = Reachability::compute(&g);
        for comp in [[a1, a2, a3], [b1, b2, b3]] {
            let mut c = NodeSet::new(g.len());
            comp.iter().for_each(|&n| {
                c.insert(n);
            });
            assert_eq!(virtual_subgraph(&g, &walk, comp[0]), c);
            assert!(!convex::is_convex(&c, &reach), "each component is illegal");
        }
        let vs = virtual_subgraph(&g, &walk, x);
        assert_eq!(vs.len(), 7);
        assert!(convex::is_convex(&vs, &reach));
        let d = ports::demand(&g, &vs);
        assert_eq!((d.inputs, d.outputs), (2, 4));

        let cons = Constraints::new(4, 3);
        let pairs = legality_pairs(&g, &walk, &cons);
        for &(n, fast, plain) in &pairs {
            assert_eq!(fast, plain, "node {n:?}");
        }
        let (_, at_x, _) = pairs.iter().find(|(n, _, _)| *n == x).unwrap();
        assert_eq!(*at_x, (false, true), "OUT = 4 exceeds three write ports");
    }
}
