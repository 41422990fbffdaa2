//! The reference evaluation: a plain, unmemoised transcription of the
//! paper's definitions, kept as the oracle the production path is pinned
//! against.
//!
//! Every query is answered from scratch by the `Dfg`-walking definitions:
//! the walk's collapsed graph is lowered anew for each merit update, the
//! critical path and every `Max_AEC` window come from full ASAP/ALAP
//! passes, each candidate is frozen into the graph and list-scheduled, and
//! leave-one-out attribution freezes the commits into the original graph
//! once per left-out candidate. Nothing is shared with the production
//! evaluation ([`crate::evalcache::RoundEval`]) beyond the walk itself and
//! the graph-level definitions, so byte-equal explorations pin the merit
//! arithmetic as well as the timing kernels.
//!
//! [`run_walk`] is the same kind of oracle for walk construction: the
//! Ready-Matrix rescanned at every step and every group join re-derived
//! from `ports::demand` and the group's full longest path.
//!
//! Compiled only for this crate's tests and under the `reference` feature,
//! which the workspace enables from `[dev-dependencies]` alone.

use std::rc::Rc;

use isex_aco::{roulette, AcoParams, ImplChoice, PheromoneStore};
use isex_dfg::{analysis, convex, ports, CsrAdjacency, NodeId, NodeSet, Reachability};
use isex_isa::{MachineConfig, ProgramDfg};
use isex_sched::collapse::{collapse_groups, CollapsedGraph};
use isex_sched::resources::ResourceTable;
use isex_sched::{timing, SchedDfg, SchedOp, UnitClass};
use rand::Rng;

use crate::ant::{Ant, AntGroup, Walk};
use crate::candidate::{Constraints, IseCandidate};
use crate::exgraph::{self, ExGraph, ExKind};
use crate::explore::{Evaluator, Exploration, MultiIssueExplorer, TraceEntry};
use crate::grow::distinct_live_ins;
use crate::merit::{evaluate_option, virtual_subgraph, MeritOp, VsEval};

impl MultiIssueExplorer {
    /// [`MultiIssueExplorer::explore_traced`] on the reference evaluation:
    /// every schedule length, critical path and merit factor is computed
    /// from its definition, and nothing is memoised or shared between
    /// walks. It is several times slower than the production path and
    /// exists so tests and benches can pin that path to it byte for byte.
    ///
    /// Available only with the `reference` feature of `isex-core`.
    pub fn explore_reference<R: Rng + ?Sized>(
        &self,
        dfg: &ProgramDfg,
        rng: &mut R,
    ) -> (Exploration, Vec<TraceEntry>) {
        let mut trace = Vec::new();
        let exploration = self.explore_inner::<Reference, R>(dfg, rng, Some(&mut trace));
        (exploration, trace)
    }
}

/// One round of reference evaluation.
pub(crate) struct Reference {
    machine: MachineConfig,
    base_len: u32,
}

impl Evaluator for Reference {
    /// Measures the round's graph afresh and checks the length the round
    /// loop carried in against it.
    fn for_round(g: &ExGraph, machine: &MachineConfig, base_len: u32) -> Self {
        let measured = exgraph::schedule_len(g, machine);
        assert_eq!(
            measured, base_len,
            "the carried schedule length must equal a fresh schedule"
        );
        Reference {
            machine: *machine,
            base_len: measured,
        }
    }

    fn base_len(&self) -> u32 {
        self.base_len
    }

    fn merit_ops(
        &mut self,
        g: &ExGraph,
        _adj: &CsrAdjacency,
        walk: &Walk,
        constraints: &Constraints,
        params: &AcoParams,
        reach: &Reachability,
    ) -> Rc<Vec<MeritOp>> {
        let analysis_ = analyze(g, walk);
        Rc::new(merit_ops(
            g,
            walk,
            &analysis_,
            constraints,
            &self.machine,
            params,
            reach,
        ))
    }

    fn candidate_len(&mut self, g: &ExGraph, members: &NodeSet, footprint: SchedOp) -> u32 {
        let frozen = exgraph::freeze(g, members, footprint, usize::MAX).dfg;
        exgraph::schedule_len(&frozen, &self.machine)
    }

    fn leave_one_out(
        g0: &ExGraph,
        commits: &[IseCandidate],
        machine: &MachineConfig,
    ) -> (u32, Vec<u32>) {
        let all = schedule_with(g0, commits, None, machine);
        let without = (0..commits.len())
            .map(|i| schedule_with(g0, commits, Some(i), machine))
            .collect();
        (all, without)
    }
}

/// Scheduling-level view of one walk: its groups collapsed into single
/// instructions, plus critical-path membership.
pub(crate) struct IterationAnalysis {
    /// The collapsed schedulable graph.
    pub collapsed: SchedDfg,
    /// Original-node → quotient-node mapping.
    pub node_map: Vec<NodeId>,
    /// Critical-path membership per *original* node.
    pub critical: NodeSet,
    /// Deadline used for slack computations (≥ dependence length).
    pub deadline: u32,
}

/// Collapses the walk's ISE groups and identifies the critical path
/// ("identify the critical path using instruction scheduling", §4.0).
pub(crate) fn analyze(g: &ExGraph, walk: &Walk) -> IterationAnalysis {
    let lowered: SchedDfg = g.map(|id, op| match walk.choice[id.index()] {
        ImplChoice::Sw(j) => op.sched_op(j),
        // Placeholder footprint; the node is inside a collapsed group.
        ImplChoice::Hw(_) => op.sched_op(0),
    });
    let groups: Vec<(NodeSet, SchedOp)> = walk
        .groups
        .iter()
        .map(|gr| {
            (
                gr.members.clone(),
                SchedOp::new(gr.latency, gr.reads, gr.writes, UnitClass::Asfu),
            )
        })
        .collect();
    let CollapsedGraph { dfg, node_map, .. } = collapse_groups(&lowered, &groups);
    let critical_q = timing::critical_nodes(&dfg);
    let mut critical = NodeSet::new(g.len());
    for n in g.node_ids() {
        if critical_q.contains(node_map[n.index()]) {
            critical.insert(n);
        }
    }
    let deadline = walk.tet.max(timing::dep_length(&dfg));
    IterationAnalysis {
        collapsed: dfg,
        node_map,
        critical,
        deadline,
    }
}

/// Software execution cycles of `vs` on the core: its latency-weighted
/// dependence chain (the multi-issue lower bound the ISE must beat).
pub(crate) fn software_cycles(g: &ExGraph, vs: &NodeSet) -> u32 {
    analysis::weighted_longest_path_within(g, vs, |_, op| op.sw_delays[0] as f64).round() as u32
}

/// The merit update of one walk (step 8 of Fig. 4.3.1) as the sequence of
/// `scale_merit` calls it makes: software merits by delay, then the four
/// cases of Fig. 4.3.7 for every hardware option.
pub(crate) fn merit_ops(
    g: &ExGraph,
    walk: &Walk,
    analysis_: &IterationAnalysis,
    constraints: &Constraints,
    machine: &MachineConfig,
    params: &AcoParams,
    reach: &Reachability,
) -> Vec<MeritOp> {
    let mut ops = Vec::new();
    for x in g.node_ids() {
        let xi = x.index() as u32;
        let op = g.node(x).payload();
        for (i, delay) in op.sw_delays.iter().enumerate() {
            ops.push((xi, ImplChoice::Sw(i), *delay as f64));
        }
        let options = op.hw.len();
        if options == 0 {
            continue;
        }
        // Case 1: an operation on the critical path is worth packing.
        if analysis_.critical.contains(x) {
            for j in 0..options {
                ops.push((xi, ImplChoice::Hw(j), 1.0 / params.beta_cp));
            }
        }
        // Case 2: no hardware neighbour to fuse with.
        let mut vs = virtual_subgraph(g, walk, x);
        if vs.len() == 1 {
            for j in 0..options {
                ops.push((xi, ImplChoice::Hw(j), params.beta_size));
            }
            continue;
        }
        // Case 3: port or convexity violation — penalise, then score the
        // largest legal piece around `x` instead.
        let io_ok = ports::demand(g, &vs).fits(constraints.n_in, constraints.n_out);
        let convex_ok = convex::is_convex(&vs, reach);
        if !io_ok || !convex_ok {
            for j in 0..options {
                if !io_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_io));
                }
                if !convex_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_convex));
                }
            }
            vs = grow_legal_from(g, x, &vs, constraints, reach);
            if vs.len() < 2 {
                continue;
            }
        }
        // Case 4: performance, then area against the fastest option (on the
        // critical path) or against the `Max_AEC` slack window (off it).
        let evals: Vec<VsEval> = (0..options)
            .map(|j| evaluate_option(g, walk, &vs, x, j, machine))
            .collect();
        let fastest = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
        let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
        let sw_cycles = software_cycles(g, &vs);
        let on_critical_path = vs.iter().any(|y| analysis_.critical.contains(y));
        let mut quotient = NodeSet::new(analysis_.collapsed.len());
        for y in &vs {
            quotient.insert(analysis_.node_map[y.index()]);
        }
        let max_aec = timing::max_aec(&analysis_.collapsed, &quotient, analysis_.deadline);
        for (j, ev) in evals.iter().enumerate() {
            let saving = sw_cycles as i64 - ev.et_cycles as i64;
            let perf = if saving > 0 { saving as f64 } else { 0.5 };
            ops.push((xi, ImplChoice::Hw(j), perf));
            let bound = if on_critical_path { fastest } else { max_aec };
            let fits = if on_critical_path {
                ev.et_cycles == fastest
            } else {
                ev.et_cycles <= max_aec
            };
            let factor = if fits {
                area_max / ev.area.max(1.0)
            } else {
                1.0 / (1.0 + (ev.et_cycles - bound) as f64)
            };
            ops.push((xi, ImplChoice::Hw(j), factor));
        }
    }
    ops
}

/// Grows a maximal legal (convex, port-feasible) sub-piece of `s` from
/// `seed`: each step absorbs the frontier node whose union with the grown
/// set is convex and fits the ports with the smallest `(IN + OUT, index)`,
/// re-deriving both checks from their definitions for every probe. The
/// oracle `crate::grow::LegalGrower` is pinned against.
pub(crate) fn grow_legal_from(
    g: &ExGraph,
    seed: NodeId,
    s: &NodeSet,
    constraints: &Constraints,
    reach: &Reachability,
) -> NodeSet {
    let mut grown = NodeSet::new(g.len());
    grown.insert(seed);
    loop {
        // Frontier: members of s adjacent to the grown set.
        let mut best: Option<(usize, usize, NodeId)> = None;
        for m in &grown.clone() {
            for v in g.preds(m).chain(g.succs(m)) {
                if !s.contains(v) || grown.contains(v) {
                    continue;
                }
                let mut cand = grown.clone();
                cand.insert(v);
                if !convex::is_convex(&cand, reach) {
                    continue;
                }
                let d = ports::demand(g, &cand);
                if !d.fits(constraints.n_in, constraints.n_out) {
                    continue;
                }
                let key = (d.inputs + d.outputs, v.index());
                if best.is_none_or(|(bk, bi, _)| key < (bk, bi)) {
                    best = Some((key.0, key.1, v));
                }
            }
        }
        match best {
            Some((_, _, v)) => {
                grown.insert(v);
            }
            None => break,
        }
    }
    grown
}

/// One ACO iteration over `ant`'s graph, transcribed from Figs. 4.3.1,
/// 4.3.3 and 4.3.4 without any incremental state: every step rescans all
/// operations for the ready ones and recomputes each ready entry's Eq. 1
/// weight, and every join recounts the union's ports with `ports::demand`
/// and its delay with the union's full longest path. The oracle
/// [`Ant::run_with`] is pinned against, walk for walk and draw for draw.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn run_walk<R: Rng + ?Sized>(
    ant: &Ant<'_>,
    store: &PheromoneStore,
    rng: &mut R,
) -> Walk {
    let g = ant.g;
    let k = g.len();
    let mut walk = Walk {
        choice: vec![ImplChoice::Sw(0); k],
        issue: vec![0; k],
        group_of: vec![None; k],
        groups: Vec::new(),
        tet: 0,
    };
    let mut scheduled = vec![false; k];
    let mut rt = ResourceTable::new(*ant.machine);
    for _ in 0..k {
        // Ready-Matrix: every (operation, option) entry of the operations
        // whose predecessors are all scheduled, in ascending node order.
        let mut entries = Vec::new();
        let mut weights = Vec::new();
        for n in g.node_ids() {
            let i = n.index();
            if scheduled[i] || g.preds(n).any(|p| !scheduled[p.index()]) {
                continue;
            }
            for c in store.choice_iter(i) {
                entries.push((n, c));
                weights.push(store.attraction(i, c) + ant.lambda * ant.sp[i]);
            }
        }
        let (n, c) = entries[roulette(rng, &weights)];
        walk.choice[n.index()] = c;
        match c {
            ImplChoice::Sw(j) => walk_schedule_sw(ant, &mut walk, &mut rt, n, j),
            ImplChoice::Hw(j) => walk_schedule_hw(ant, &mut walk, &mut rt, n, j),
        }
        scheduled[n.index()] = true;
    }
    walk.tet = g.node_ids().map(|n| walk.finish(g, n)).max().unwrap_or(0);
    walk
}

fn walk_earliest_start(g: &ExGraph, walk: &Walk, n: NodeId) -> u32 {
    g.preds(n).map(|p| walk.finish(g, p)).max().unwrap_or(0)
}

/// Closes every open group that `n` consumed from, except `except`.
fn walk_close_pred_groups(g: &ExGraph, walk: &mut Walk, n: NodeId, except: Option<usize>) {
    for p in g.preds(n) {
        if let Some(gp) = walk.group_of[p.index()] {
            if Some(gp) != except {
                walk.groups[gp].open = false;
            }
        }
    }
}

/// Software placement (Fig. 4.3.3): the earliest slot with a free unit.
fn walk_schedule_sw(ant: &Ant<'_>, walk: &mut Walk, rt: &mut ResourceTable, n: NodeId, j: usize) {
    let op = ant.g.node(n).payload().sched_op(j);
    let est = walk_earliest_start(ant.g, walk, n);
    let cycle = rt
        .earliest_fit(est, &op)
        .expect("operation fits the machine");
    rt.commit(cycle, &op);
    walk.issue[n.index()] = cycle;
    walk_close_pred_groups(ant.g, walk, n, None);
}

/// Hardware placement (Fig. 4.3.4): join the open group of a parent,
/// latest issue first, else seed a new group.
fn walk_schedule_hw(ant: &Ant<'_>, walk: &mut Walk, rt: &mut ResourceTable, n: NodeId, j: usize) {
    let g = ant.g;
    let mut cands: Vec<usize> = g
        .preds(n)
        .filter_map(|p| walk.group_of[p.index()])
        .filter(|&gi| walk.groups[gi].open)
        .collect();
    cands.sort_unstable();
    cands.dedup();
    cands.sort_by_key(|&gi| std::cmp::Reverse(walk.groups[gi].issue));
    for gi in cands {
        if walk_try_join(ant, walk, rt, n, j, gi) {
            walk_close_pred_groups(g, walk, n, Some(gi));
            return;
        }
    }
    let node = g.node(n);
    let reads = g.preds(n).count() + distinct_live_ins(node.operands());
    let writes = usize::from(node.is_live_out() || g.succs(n).next().is_some());
    let delay = node.payload().hw[j].delay_ns;
    let latency = ant.machine.cycles_for_delay_ns(delay);
    let op = SchedOp::new(latency, reads, writes, UnitClass::Asfu);
    let est = walk_earliest_start(g, walk, n);
    let cycle = rt
        .earliest_fit(est, &op)
        .expect("ISE seed fits the machine");
    rt.commit(cycle, &op);
    let gi = walk.groups.len();
    let mut members = NodeSet::new(g.len());
    members.insert(n);
    walk.groups.push(AntGroup {
        members,
        issue: cycle,
        delay_ns: delay,
        latency,
        reads,
        writes,
        open: true,
    });
    walk.group_of[n.index()] = Some(gi);
    walk.issue[n.index()] = cycle;
    walk_close_pred_groups(g, walk, n, Some(gi));
}

/// Packs `n` into group `gi`, sliding the whole open group to the earliest
/// slot where the union's inputs are ready and its footprint fits.
fn walk_try_join(
    ant: &Ant<'_>,
    walk: &mut Walk,
    rt: &mut ResourceTable,
    n: NodeId,
    j: usize,
    gi: usize,
) -> bool {
    let g = ant.g;
    let mut union = walk.groups[gi].members.clone();
    union.insert(n);
    let demand = ports::demand(g, &union);
    if !demand.fits(ant.constraints.n_in, ant.constraints.n_out) {
        return false;
    }
    let delay = analysis::weighted_longest_path_within(g, &union, |y, op| {
        if y == n {
            op.hw[j].delay_ns
        } else {
            match walk.choice[y.index()] {
                ImplChoice::Hw(h) => op.hw[h].delay_ns,
                ImplChoice::Sw(_) => unreachable!("group members chose hardware"),
            }
        }
    });
    let latency = ant.machine.cycles_for_delay_ns(delay);
    let t_needed = union
        .iter()
        .flat_map(|m| g.preds(m))
        .filter(|p| !union.contains(*p))
        .map(|p| walk.finish(g, p))
        .max()
        .unwrap_or(0);
    let group = &walk.groups[gi];
    let issue = group.issue;
    let old_op = SchedOp::new(group.latency, group.reads, group.writes, UnitClass::Asfu);
    let new_op = SchedOp::new(latency, demand.inputs, demand.outputs, UnitClass::Asfu);
    rt.uncommit(issue, &old_op);
    let Some(new_issue) = rt.earliest_fit(t_needed, &new_op) else {
        rt.commit(issue, &old_op);
        return false;
    };
    rt.commit(new_issue, &new_op);
    let group = &mut walk.groups[gi];
    group.members = union;
    group.reads = demand.inputs;
    group.writes = demand.outputs;
    group.delay_ns = delay;
    group.latency = latency;
    group.issue = new_issue;
    walk.group_of[n.index()] = Some(gi);
    for m in &group.members {
        walk.issue[m.index()] = new_issue;
    }
    true
}

/// Schedule length of the original graph with the committed candidates
/// frozen in (optionally skipping one).
fn schedule_with(
    g0: &ExGraph,
    commits: &[IseCandidate],
    skip: Option<usize>,
    machine: &MachineConfig,
) -> u32 {
    let groups: Vec<(NodeSet, exgraph::ExOp)> = commits
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != skip)
        .map(|(i, c)| {
            (
                c.nodes.clone(),
                exgraph::ExOp {
                    sw_delays: vec![c.latency],
                    hw: Vec::new(),
                    reads: c.inputs,
                    writes: c.outputs,
                    class: UnitClass::Asfu,
                    kind: ExKind::FrozenIse(i),
                },
            )
        })
        .collect();
    exgraph::schedule_len(&collapse_groups(g0, &groups).dfg, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merit::apply_merit_ops;
    use crate::merit::tests::{graph, software_walk};
    use isex_aco::PheromoneStore;
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation};
    use rand::SeedableRng;

    fn store_for(g: &ExGraph, params: &AcoParams) -> PheromoneStore {
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        PheromoneStore::new(&shape, params)
    }

    #[test]
    fn analyze_marks_the_chain_critical() {
        let g = graph();
        let m = MachineConfig::preset_2issue_4r2w();
        let w = software_walk(&g, &Constraints::from_machine(&m), 7);
        let a = analyze(&g, &w);
        // Chain a(0), b(1), c(2) critical; d(3) has slack.
        assert!(a.critical.contains(NodeId::new(0)));
        assert!(a.critical.contains(NodeId::new(1)));
        assert!(a.critical.contains(NodeId::new(2)));
        assert!(!a.critical.contains(NodeId::new(3)));
        assert_eq!(a.deadline, 3);
    }

    #[test]
    fn software_cycles_is_chain_length() {
        let g = graph();
        let mut vs = NodeSet::new(g.len());
        vs.insert(NodeId::new(0));
        vs.insert(NodeId::new(1));
        vs.insert(NodeId::new(2));
        assert_eq!(software_cycles(&g, &vs), 3);
        vs.remove(NodeId::new(1));
        assert_eq!(
            software_cycles(&g, &vs),
            1,
            "a and c disconnected inside the set"
        );
    }

    #[test]
    fn merit_update_prefers_hardware_on_critical_chain() {
        let g = graph();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let mut store = store_for(&g, &params);
        // Iteration in which the chain chose hardware.
        let mut w = software_walk(&g, &cons, 7);
        w.choice[0] = ImplChoice::Hw(0);
        w.choice[1] = ImplChoice::Hw(0);
        w.choice[2] = ImplChoice::Hw(0);
        let a = analyze(&g, &w);
        apply_merit_ops(
            &mut store,
            &merit_ops(&g, &w, &a, &cons, &m, &params, &reach),
        );
        // After the update the chain's hardware options outweigh software.
        for n in [0usize, 1, 2] {
            let hw = store.merit(n, ImplChoice::Hw(0));
            let sw = store.merit(n, ImplChoice::Sw(0));
            assert!(hw > sw, "node {n}: hw merit {hw} should beat sw {sw}");
        }
        // The slack op d got its hardware merit *reduced* (size-1 penalty).
        let hw_d = store.merit(3, ImplChoice::Hw(0));
        let sw_d = store.merit(3, ImplChoice::Sw(0));
        assert!(hw_d < sw_d * 2.0 + 1.0, "d is not pushed towards hardware");
    }

    #[test]
    fn merit_update_penalises_port_violation() {
        // A 3-input cone with n_in = 2 must be discouraged.
        let mut dfg = ProgramDfg::new();
        let li: Vec<_> = (0..3).map(|_| dfg.live_in()).collect();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(li[0]), Operand::LiveIn(li[1])],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(a), Operand::LiveIn(li[2])],
        );
        dfg.set_live_out(b, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::new(2, 2);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let mut store = store_for(&g, &params);
        let mut w = software_walk(&g, &cons, 11);
        w.choice[0] = ImplChoice::Hw(0);
        w.choice[1] = ImplChoice::Hw(0);
        let a = analyze(&g, &w);
        let ops = merit_ops(&g, &w, &a, &cons, &m, &params, &reach);
        // The β_IO penalty compounds across iterations; after a handful of
        // violating iterations the hardware option must fall below software.
        for _ in 0..10 {
            apply_merit_ops(&mut store, &ops);
        }
        let hw = store.merit(0, ImplChoice::Hw(0));
        let sw = store.merit(0, ImplChoice::Sw(0));
        assert!(
            hw < sw,
            "violating subgraph must not attract hardware choices"
        );
    }

    #[test]
    fn carried_length_is_checked() {
        let g = graph();
        let m = MachineConfig::preset_2issue_4r2w();
        let len = exgraph::schedule_len(&g, &m);
        assert_eq!(Reference::for_round(&g, &m, len).base_len(), len);
        let wrong = std::panic::catch_unwind(|| Reference::for_round(&g, &m, len + 1));
        assert!(wrong.is_err(), "a wrong carried length must not pass");
    }

    #[test]
    fn production_exploration_matches_the_reference() {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let y = dfg.live_in();
        let mut prev = Operand::LiveIn(x);
        for (i, opc) in [
            Opcode::Add,
            Opcode::Sll,
            Opcode::Xor,
            Opcode::And,
            Opcode::Or,
        ]
        .into_iter()
        .enumerate()
        {
            let n = dfg.add_node(Operation::new(opc), vec![prev, Operand::LiveIn(y)]);
            if i == 4 {
                dfg.set_live_out(n, true);
            }
            prev = Operand::Node(n);
        }
        let slack = dfg.add_node(
            Operation::new(Opcode::Sub),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        dfg.set_live_out(slack, true);
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        for seed in [1u64, 42, 2008] {
            let fast = ex.explore_traced(&dfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
            let slow = ex.explore_reference(&dfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
            assert_eq!(fast.1, slow.1, "seed {seed}: walk traces differ");
            assert_eq!(
                format!("{:?}", fast.0),
                format!("{:?}", slow.0),
                "seed {seed}: explorations differ"
            );
        }
    }
}
