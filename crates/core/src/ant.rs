//! One ACO iteration: the Ready-Matrix walk with embedded scheduling.
//!
//! Steps 2–6 of the exploration flow (Fig. 4.3.1): the ant repeatedly picks
//! one `(ready operation, implementation option)` entry from the
//! Ready-Matrix with the chosen-probability of Eq. 1, schedules that
//! operation (Operation-Scheduling, Figs. 4.3.3/4.3.4), and updates the
//! Ready-Matrix, until every operation has a time slot. Hardware-chosen
//! operations coalesce into *groups* — the in-flight ISE candidates — when
//! they can pack with an already-scheduled parent in the same time slot.

use isex_aco::{roulette, ImplChoice, PheromoneStore};
use isex_dfg::{ports, CsrAdjacency, NodeId, NodeSet, Operand};
use isex_isa::MachineConfig;
use isex_sched::resources::ResourceTable;
use isex_sched::{SchedOp, UnitClass};
use rand::Rng;

use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::grow::distinct_live_ins;

/// An in-flight ISE group formed during one walk.
#[derive(Clone, Debug)]
pub(crate) struct AntGroup {
    /// Member nodes (all chose a hardware option).
    pub members: NodeSet,
    /// Issue cycle of the group's single ISE instruction.
    pub issue: u32,
    /// Combinational delay of the group, in ns.
    pub delay_ns: f64,
    /// Latency in cycles.
    pub latency: u32,
    /// Committed `IN(S)` read-port demand.
    pub reads: usize,
    /// Committed `OUT(S)` write-port demand.
    pub writes: usize,
    /// A group closes once any external consumer of a member is scheduled;
    /// its latency (hence its members' finish times) is then frozen.
    pub open: bool,
}

/// The outcome of one iteration.
#[derive(Clone, Debug)]
pub(crate) struct Walk {
    /// Implementation option chosen for every node.
    pub choice: Vec<ImplChoice>,
    /// Issue cycle of every node (group members share the group's cycle).
    pub issue: Vec<u32>,
    /// Group membership.
    pub group_of: Vec<Option<usize>>,
    /// The groups formed.
    pub groups: Vec<AntGroup>,
    /// Total execution time of the block in cycles (`TET`).
    pub tet: u32,
}

impl Walk {
    /// Finish cycle of `n` (value available from this cycle on).
    pub fn finish(&self, g: &ExGraph, n: NodeId) -> u32 {
        match self.group_of[n.index()] {
            Some(gi) => self.groups[gi].issue + self.groups[gi].latency,
            None => {
                let lat = match self.choice[n.index()] {
                    ImplChoice::Sw(j) => g.node(n).payload().sw_latency(j),
                    ImplChoice::Hw(_) => unreachable!("hardware choices always join a group"),
                };
                self.issue[n.index()] + lat
            }
        }
    }
}

/// The scheduling-priority (SP) function of Eq. 1.
///
/// The paper "adopts only \[a\] simple way (i.e. number of child operations)
/// to determine the scheduling priority" and names alternatives as future
/// work (Ch. 6); all three are provided for the ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpFunction {
    /// Number of child operations (the paper's choice).
    #[default]
    ChildCount,
    /// Latency-weighted height towards the sinks (critical-path first).
    Height,
    /// Negated mobility (least-slack first).
    Mobility,
}

impl SpFunction {
    /// Computes the normalised (`[0, 1]`) priority of every node.
    pub fn values(self, g: &ExGraph) -> Vec<f64> {
        let timing = |priority: isex_sched::Priority| -> Vec<f64> {
            priority
                .values(&crate::exgraph::to_sched(g))
                .into_iter()
                .map(|v| v as f64)
                .collect()
        };
        let raw: Vec<f64> = match self {
            SpFunction::ChildCount => g.node_ids().map(|n| g.child_count(n) as f64).collect(),
            SpFunction::Height => timing(isex_sched::Priority::Height),
            SpFunction::Mobility => timing(isex_sched::Priority::Mobility),
        };
        Self::normalise(raw)
    }

    fn normalise(raw: Vec<f64>) -> Vec<f64> {
        let lo = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if raw.is_empty() || hi <= lo {
            return vec![0.0; raw.len()];
        }
        raw.into_iter().map(|v| (v - lo) / (hi - lo)).collect()
    }
}

/// Reusable buffers for [`Ant::run_with`]: the walk's Ready-Matrix rows,
/// the ready set and counters, the resource table and the group-join
/// scratch. One scratch serves every walk of a round (and across rounds of
/// shrinking graphs); steady state allocates only the walk itself.
#[derive(Debug)]
pub(crate) struct AntScratch {
    /// Every `(node, option)` entry of the graph with its Eq. 1 weight,
    /// node-major: node `i`'s row is `row_off[i]..row_off[i + 1]`. Built
    /// once per walk, since the store does not change during a walk.
    row_entries: Vec<(NodeId, ImplChoice)>,
    row_weights: Vec<f64>,
    row_off: Vec<u32>,
    /// This step's Ready-Matrix: the ready rows in ascending node order.
    entries: Vec<(NodeId, ImplChoice)>,
    weights: Vec<f64>,
    /// Unscheduled nodes whose predecessors are all scheduled.
    ready: NodeSet,
    /// Unscheduled predecessors per node.
    pending: Vec<u32>,
    resources: Option<ResourceTable>,
    joins: JoinScratch,
}

impl Default for AntScratch {
    fn default() -> Self {
        AntScratch {
            row_entries: Vec::new(),
            row_weights: Vec::new(),
            row_off: Vec::new(),
            entries: Vec::new(),
            weights: Vec::new(),
            ready: NodeSet::new(0),
            pending: Vec::new(),
            resources: None,
            joins: JoinScratch::default(),
        }
    }
}

/// Per-walk state of hardware placement.
#[derive(Debug)]
struct JoinScratch {
    /// Finish time (ns) of each group member on its group's longest
    /// combinational path. A member's value is final once it is placed:
    /// every later member of its group is scheduled after it and so is
    /// never one of its predecessors.
    finish_ns: Vec<f64>,
    /// Per group, the earliest cycle at which every external input of its
    /// members is ready. Those producers' finish times are frozen: a
    /// software producer's never moves, and a producer's group is closed
    /// when its consumer is placed.
    ready_at: Vec<u32>,
    /// Candidate groups of one hardware placement.
    cands: Vec<usize>,
    /// External producers and distinct live-ins of a probed union.
    ext: NodeSet,
    live_ins: Vec<u32>,
}

impl Default for JoinScratch {
    fn default() -> Self {
        JoinScratch {
            finish_ns: Vec::new(),
            ready_at: Vec::new(),
            cands: Vec::new(),
            ext: NodeSet::new(0),
            live_ins: Vec::new(),
        }
    }
}

/// The per-round immutable context of the walks.
pub(crate) struct Ant<'a> {
    pub g: &'a ExGraph,
    pub machine: &'a MachineConfig,
    pub constraints: &'a Constraints,
    /// λ weight of the scheduling priority in Eq. 1.
    pub lambda: f64,
    /// Normalised scheduling priority per node (e.g. child count).
    pub sp: Vec<f64>,
    /// Frozen CSR adjacency of `g` for the hot loops (readiness counters,
    /// allocation-free pred scans); it carries the same deduplicated
    /// neighbour sequences as the `Dfg` iterators.
    adj: &'a CsrAdjacency,
}

impl<'a> Ant<'a> {
    /// Builds the per-round context of the walks over `g`, whose frozen
    /// adjacency is `adj`.
    pub fn new(
        g: &'a ExGraph,
        machine: &'a MachineConfig,
        constraints: &'a Constraints,
        lambda: f64,
        sp_function: SpFunction,
        adj: &'a CsrAdjacency,
    ) -> Self {
        Ant {
            g,
            machine,
            constraints,
            lambda,
            sp: sp_function.values(g),
            adj,
        }
    }

    /// Runs one full iteration: chooses options and schedules every
    /// operation, returning the walk.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn run<R: Rng + ?Sized>(&self, store: &PheromoneStore, rng: &mut R) -> Walk {
        self.run_with(store, rng, &mut AntScratch::default())
    }

    /// [`Ant::run`] reusing the buffers in `scratch`, so the round loop
    /// (hundreds of walks over the same graph) allocates only the walk
    /// itself. Each step costs the size of the ready set, not of the graph:
    /// the ready nodes are kept as a set, and their rows are copied from
    /// the walk's precomputed Ready-Matrix rows.
    pub fn run_with<R: Rng + ?Sized>(
        &self,
        store: &PheromoneStore,
        rng: &mut R,
        scratch: &mut AntScratch,
    ) -> Walk {
        let k = self.g.len();
        let mut walk = Walk {
            choice: vec![ImplChoice::Sw(0); k],
            issue: vec![0; k],
            group_of: vec![None; k],
            groups: Vec::new(),
            tet: 0,
        };
        let AntScratch {
            row_entries,
            row_weights,
            row_off,
            entries,
            weights,
            ready,
            pending,
            resources,
            joins,
        } = scratch;
        row_entries.clear();
        row_weights.clear();
        row_off.clear();
        row_off.push(0);
        for i in 0..k {
            let n = NodeId::new(i as u32);
            for c in store.choice_iter(i) {
                row_entries.push((n, c));
                row_weights.push(store.attraction(i, c) + self.lambda * self.sp[i]);
            }
            row_off.push(row_entries.len() as u32);
        }
        self.adj.pred_counts_into(pending);
        if ready.universe() != k {
            *ready = NodeSet::new(k);
            joins.ext = NodeSet::new(k);
        }
        ready.clear();
        for (i, &p) in pending.iter().enumerate() {
            if p == 0 {
                ready.insert(NodeId::new(i as u32));
            }
        }
        joins.finish_ns.clear();
        joins.finish_ns.resize(k, 0.0);
        joins.ready_at.clear();
        let rt = resources.get_or_insert_with(|| ResourceTable::new(*self.machine));
        rt.reset(*self.machine);

        for _ in 0..k {
            // Ready-Matrix: the ready nodes' rows, in ascending node order.
            entries.clear();
            weights.clear();
            for n in ready.iter() {
                let row = row_off[n.index()] as usize..row_off[n.index() + 1] as usize;
                entries.extend_from_slice(&row_entries[row.clone()]);
                weights.extend_from_slice(&row_weights[row]);
            }
            debug_assert!(!entries.is_empty(), "DAG always has a ready node");
            let pick = roulette(rng, weights);
            let (n, c) = entries[pick];
            walk.choice[n.index()] = c;
            match c {
                ImplChoice::Sw(j) => self.schedule_sw(&mut walk, rt, n, j),
                ImplChoice::Hw(j) => self.schedule_hw(&mut walk, rt, joins, n, j),
            }
            ready.remove(n);
            for &sc in self.adj.succs(n.index()) {
                pending[sc.index()] -= 1;
                if pending[sc.index()] == 0 {
                    ready.insert(sc);
                }
            }
        }

        walk.tet = self
            .g
            .node_ids()
            .map(|n| walk.finish(self.g, n))
            .max()
            .unwrap_or(0);
        walk
    }

    fn earliest_start(&self, walk: &Walk, n: NodeId) -> u32 {
        self.adj
            .preds(n.index())
            .iter()
            .map(|&p| walk.finish(self.g, p))
            .max()
            .unwrap_or(0)
    }

    /// Closes every open group that `n` consumed from (its finish time is
    /// now observed and must not change).
    fn close_pred_groups(&self, walk: &mut Walk, n: NodeId, except: Option<usize>) {
        for p in self.adj.preds(n.index()) {
            if let Some(gp) = walk.group_of[p.index()] {
                if Some(gp) != except {
                    walk.groups[gp].open = false;
                }
            }
        }
    }

    /// Operation-Scheduling for a software option (Fig. 4.3.3).
    fn schedule_sw(&self, walk: &mut Walk, rt: &mut ResourceTable, n: NodeId, j: usize) {
        let op = self.g.node(n).payload().sched_op(j);
        let est = self.earliest_start(walk, n);
        let cycle = rt
            .earliest_fit(est, &op)
            .unwrap_or_else(|| panic!("operation {n:?} cannot fit the machine"));
        rt.commit(cycle, &op);
        walk.issue[n.index()] = cycle;
        self.close_pred_groups(walk, n, None);
    }

    /// Operation-Scheduling for a hardware option (Fig. 4.3.4): first try
    /// to pack `n` with the ISE group of a parent in that group's time
    /// slot; otherwise open a new group at the earliest feasible slot.
    fn schedule_hw(
        &self,
        walk: &mut Walk,
        rt: &mut ResourceTable,
        js: &mut JoinScratch,
        n: NodeId,
        j: usize,
    ) {
        // Candidate groups: open groups containing a parent, latest issue
        // first (the paper packs at `LTS_i`, the latest parent's slot).
        js.cands.clear();
        js.cands.extend(
            self.adj
                .preds(n.index())
                .iter()
                .filter_map(|p| walk.group_of[p.index()])
                .filter(|&gi| walk.groups[gi].open),
        );
        js.cands.sort_unstable();
        js.cands.dedup();
        js.cands
            .sort_by_key(|&gi| std::cmp::Reverse(walk.groups[gi].issue));

        for ci in 0..js.cands.len() {
            let gi = js.cands[ci];
            if self.try_join(walk, rt, js, n, j, gi) {
                self.close_pred_groups(walk, n, Some(gi));
                return;
            }
        }

        // New singleton group. `{n}`'s demand: every distinct producer and
        // live-in is an input, and `n` is an output when its value is live
        // out or consumed at all.
        let node = self.g.node(n);
        let ni = n.index();
        let reads = self.adj.preds(ni).len() + distinct_live_ins(node.operands());
        let writes = usize::from(node.is_live_out() || !self.adj.succs(ni).is_empty());
        let delay = node.payload().hw[j].delay_ns;
        let latency = self.machine.cycles_for_delay_ns(delay);
        let op = SchedOp::new(latency, reads, writes, UnitClass::Asfu);
        let est = self.earliest_start(walk, n);
        let cycle = rt
            .earliest_fit(est, &op)
            .unwrap_or_else(|| panic!("ISE seed {n:?} cannot fit the machine"));
        rt.commit(cycle, &op);
        let gi = walk.groups.len();
        let mut members = NodeSet::new(self.g.len());
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
        js.finish_ns[ni] = delay;
        js.ready_at.push(est);
        walk.group_of[ni] = Some(gi);
        walk.issue[ni] = cycle;
        self.close_pred_groups(walk, n, Some(gi));
    }

    /// Attempts to pack `n` (hardware option `j`) into group `gi`. If the
    /// group's current slot is too early for `n`'s external inputs, the
    /// whole (still open) group slides to a later slot — Fig. 4.3.4's
    /// "while cannot pack operation i … at CTS_i: CTS_i++".
    ///
    /// `n` is a sink of the union: every member was scheduled before it, so
    /// none consumes its value. The members' longest-path finish times
    /// therefore stay as they were, and the union's delay is the group's
    /// old delay or `n`'s own finish, whichever is larger — exactly the
    /// union's full longest path, since `f64::max` is exact.
    fn try_join(
        &self,
        walk: &mut Walk,
        rt: &mut ResourceTable,
        js: &mut JoinScratch,
        n: NodeId,
        j: usize,
        gi: usize,
    ) -> bool {
        let ni = n.index();
        let group = &mut walk.groups[gi];
        // Probe the union in place; a rejected join removes `n` again.
        group.members.insert(n);
        let demand = self.demand_of(&group.members, js);
        if !demand.fits(self.constraints.n_in, self.constraints.n_out) {
            group.members.remove(n);
            return false;
        }
        // Grown combinational delay and latency.
        let mut start = 0.0f64;
        for &p in self.adj.preds(ni) {
            if walk.group_of[p.index()] == Some(gi) {
                start = start.max(js.finish_ns[p.index()]);
            }
        }
        let finish_n = start + self.g.node(n).payload().hw[j].delay_ns;
        let delay = group.delay_ns.max(finish_n);
        let latency = self.machine.cycles_for_delay_ns(delay);

        // Earliest slot at which every external input of the union is ready.
        let mut t_needed = js.ready_at[gi];
        for &p in self.adj.preds(ni) {
            if walk.group_of[p.index()] != Some(gi) {
                t_needed = t_needed.max(walk.finish(self.g, p));
            }
        }

        // Re-place the grown group: release the old footprint, find the
        // earliest slot where the union's inputs are ready and the (possibly
        // longer, possibly wider) new footprint fits, and commit there. The
        // group is open — nobody has observed its finish time — so moving
        // its slot is legal; this is Fig. 4.3.4's `CTS++` loop generalised
        // to both directions and to occupancy-changing growth.
        let group = &mut walk.groups[gi];
        let issue = group.issue;
        let old_op = SchedOp::new(group.latency, group.reads, group.writes, UnitClass::Asfu);
        let new_op = SchedOp::new(latency, demand.inputs, demand.outputs, UnitClass::Asfu);
        rt.uncommit(issue, &old_op);
        let new_issue = match rt.earliest_fit(t_needed, &new_op) {
            Some(c) => {
                rt.commit(c, &new_op);
                c
            }
            None => {
                rt.commit(issue, &old_op); // roll back
                group.members.remove(n);
                return false;
            }
        };

        group.reads = demand.inputs;
        group.writes = demand.outputs;
        group.delay_ns = delay;
        group.latency = latency;
        group.issue = new_issue;
        js.finish_ns[ni] = finish_n;
        js.ready_at[gi] = t_needed;
        walk.group_of[ni] = Some(gi);
        for m in &group.members {
            walk.issue[m.index()] = new_issue;
        }
        true
    }

    /// `IN/OUT` port demand of `members`, scanning the members only.
    fn demand_of(&self, members: &NodeSet, js: &mut JoinScratch) -> ports::PortDemand {
        js.ext.clear();
        js.live_ins.clear();
        let mut inputs = 0usize;
        let mut outputs = 0usize;
        for m in members {
            let mi = m.index();
            for &p in self.adj.preds(mi) {
                if !members.contains(p) && js.ext.insert(p) {
                    inputs += 1;
                }
            }
            let node = self.g.node(m);
            for op in node.operands() {
                if let Operand::LiveIn(v) = *op {
                    let raw = v.index() as u32;
                    if !js.live_ins.contains(&raw) {
                        js.live_ins.push(raw);
                    }
                }
            }
            if node.is_live_out() || self.adj.succs(mi).iter().any(|&s| !members.contains(s)) {
                outputs += 1;
            }
        }
        ports::PortDemand {
            inputs: inputs + js.live_ins.len(),
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exgraph;
    use isex_aco::AcoParams;
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    fn chain3() -> ExGraph {
        // add -> sll -> xor, all ISE-eligible.
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
        dfg.set_live_out(c, true);
        exgraph::build(&dfg)
    }

    fn context<'a>(
        g: &'a ExGraph,
        machine: &'a MachineConfig,
        cons: &'a Constraints,
        csr: &'a CsrAdjacency,
    ) -> (Ant<'a>, PheromoneStore) {
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let store = PheromoneStore::new(&shape, &AcoParams::default());
        let ant = Ant::new(g, machine, cons, 0.5, SpFunction::ChildCount, csr);
        (ant, store)
    }

    #[test]
    fn walk_schedules_every_node_and_respects_deps() {
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let csr = CsrAdjacency::from_dfg(&g);
        let (ant, store) = context(&g, &m, &cons, &csr);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let w = ant.run(&store, &mut rng);
            assert!(w.tet >= 1);
            for (id, _) in g.iter() {
                for p in g.preds(id) {
                    if w.group_of[id.index()].is_some()
                        && w.group_of[id.index()] == w.group_of[p.index()]
                    {
                        continue; // same ISE: internal forwarding
                    }
                    assert!(
                        w.finish(&g, p) <= w.issue[id.index()],
                        "dependence violated"
                    );
                }
            }
        }
    }

    #[test]
    fn all_hardware_forms_one_group_and_saves_time() {
        // Force hardware by shaping the store: no trail needed, we drive
        // choices by merit weights (software merit ~0).
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let csr = CsrAdjacency::from_dfg(&g);
        let (ant, mut store) = context(&g, &m, &cons, &csr);
        for n in 0..3 {
            store.set_merit(n, ImplChoice::Sw(0), 1e-9);
            for (jj, _) in g
                .node(NodeId::new(n as u32))
                .payload()
                .hw
                .iter()
                .enumerate()
            {
                store.set_merit(n, ImplChoice::Hw(jj), 1e9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = ant.run(&store, &mut rng);
        assert!(w.choice.iter().all(|c| c.is_hardware()));
        assert_eq!(w.groups.len(), 1, "chain packs into one ISE");
        let gder = &w.groups[0];
        assert_eq!(gder.members.len(), 3);
        // add(≤4.04) + sll(3.0) + xor(4.17) ≈ 11.21 ns → 2 cycles worst case
        assert!(gder.latency <= 2);
        assert!(w.tet <= 2, "one ISE instruction, ≤2 cycles");
    }

    #[test]
    fn all_software_matches_list_schedule_length() {
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let csr = CsrAdjacency::from_dfg(&g);
        let (ant, mut store) = context(&g, &m, &cons, &csr);
        for n in 0..3 {
            store.set_merit(n, ImplChoice::Sw(0), 1e9);
            for (jj, _) in g
                .node(NodeId::new(n as u32))
                .payload()
                .hw
                .iter()
                .enumerate()
            {
                store.set_merit(n, ImplChoice::Hw(jj), 1e-9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = ant.run(&store, &mut rng);
        assert!(w.choice.iter().all(|c| !c.is_hardware()));
        assert_eq!(w.tet, 3, "3-op chain in software = 3 cycles");
    }

    #[test]
    fn open_group_slides_past_a_load() {
        // add -> lw -> xor -> or: forcing hardware everywhere must still
        // produce legal groups. The xor/or pair depends on the load, so its
        // group forms *after* the load completes; the add seeds a separate
        // group. Crucially, when or joins xor's group the group may have to
        // slide to a slot where the load result is available.
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::Const(1)],
        );
        let l = dfg.add_node(Operation::new(Opcode::Lw), vec![Operand::Node(a)]);
        let e = dfg.add_node(
            Operation::new(Opcode::Srl),
            vec![Operand::LiveIn(x), Operand::Const(8)],
        );
        let f = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(l), Operand::Node(e)],
        );
        let o = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(f), Operand::Const(1)],
        );
        dfg.set_live_out(o, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_6r3w();
        let cons = Constraints::from_machine(&m);
        let csr = CsrAdjacency::from_dfg(&g);
        let (ant, mut store) = context(&g, &m, &cons, &csr);
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e-9);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e9);
            }
        }
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w = ant.run(&store, &mut rng);
            // The load never joins a group.
            assert!(w.group_of[l.index()].is_none());
            // Groups whose member consumes the load issue after it finishes.
            for gr in &w.groups {
                if gr.members.contains(f) {
                    assert!(
                        gr.issue >= w.finish(&g, l),
                        "seed {seed}: group with xor must wait for the load"
                    );
                    if gr.members.contains(o) {
                        // srl may or may not be packed; the xor/or fusion is
                        // the interesting slide case.
                        assert!(gr.members.len() >= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn sp_functions_are_normalised() {
        let g = chain3();
        for f in [
            SpFunction::ChildCount,
            SpFunction::Height,
            SpFunction::Mobility,
        ] {
            let v = f.values(&g);
            assert_eq!(v.len(), 3);
            for x in &v {
                assert!((0.0..=1.0).contains(x), "{f:?}: {x}");
            }
            // Non-degenerate spreads normalise so some node hits 1.0;
            // uniform inputs (e.g. mobility on a pure chain) collapse to 0.
            if v.iter().any(|&x| x != v[0]) {
                assert!(v.contains(&1.0), "{f:?}: some node is max");
            }
        }
        // Chain: head has 1 child, tail 0 → ChildCount ranks head over tail.
        let v = SpFunction::ChildCount.values(&g);
        assert!(v[0] > v[2]);
        // Height strictly decreases along a chain.
        let h = SpFunction::Height.values(&g);
        assert!(h[0] > h[1] && h[1] > h[2]);
        // On a pure chain every node is critical: mobility is uniform.
        let m = SpFunction::Mobility.values(&g);
        assert_eq!(m, vec![0.0; 3]);
    }

    #[test]
    fn port_limited_group_splits() {
        // Four independent adds feeding a wide xor tree; with n_in = 2 the
        // whole thing cannot be one ISE.
        let mut dfg = ProgramDfg::new();
        let li: Vec<_> = (0..8).map(|_| dfg.live_in()).collect();
        let adds: Vec<_> = (0..4)
            .map(|i| {
                dfg.add_node(
                    Operation::new(Opcode::Add),
                    vec![Operand::LiveIn(li[2 * i]), Operand::LiveIn(li[2 * i + 1])],
                )
            })
            .collect();
        let x1 = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(adds[0]), Operand::Node(adds[1])],
        );
        let x2 = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(adds[2]), Operand::Node(adds[3])],
        );
        let top = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(x1), Operand::Node(x2)],
        );
        dfg.set_live_out(top, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_4issue_10r5w();
        let cons = Constraints::new(2, 1);
        let csr = CsrAdjacency::from_dfg(&g);
        let (ant, mut store) = context(&g, &m, &cons, &csr);
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e-9);
            for (jj, _) in g
                .node(NodeId::new(n as u32))
                .payload()
                .hw
                .iter()
                .enumerate()
            {
                store.set_merit(n, ImplChoice::Hw(jj), 1e9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = ant.run(&store, &mut rng);
        for gr in &w.groups {
            let d = ports::demand(&g, &gr.members);
            assert!(d.inputs <= 2, "IN(S) respected, got {}", d.inputs);
            assert!(d.outputs <= 1, "OUT(S) respected, got {}", d.outputs);
        }
        assert!(w.groups.len() >= 3, "forced to split");
    }

    /// Every field of a walk, with delays as bit patterns.
    type WalkFields = (
        Vec<ImplChoice>,
        Vec<u32>,
        Vec<Option<usize>>,
        Vec<(NodeSet, u32, u64, u32, usize, usize, bool)>,
        u32,
    );

    fn fields(w: &Walk) -> WalkFields {
        let groups = w
            .groups
            .iter()
            .map(|gr| {
                (
                    gr.members.clone(),
                    gr.issue,
                    gr.delay_ns.to_bits(),
                    gr.latency,
                    gr.reads,
                    gr.writes,
                    gr.open,
                )
            })
            .collect();
        (
            w.choice.clone(),
            w.issue.clone(),
            w.group_of.clone(),
            groups,
            w.tet,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Blocks of 20–200 ops under three port budgets, on a default store
        /// and on one biased towards hardware (joins, slides past loads and
        /// port rejections): the O(ready) walk equals the rescanning
        /// reference walk field for field and consumes the same draws. One
        /// scratch serves every graph and store of the case, so a buffer
        /// kept from an earlier graph or store shows up as a mismatch.
        #[test]
        fn walks_match_the_reference_walk(
            sizes in proptest::collection::vec(20usize..200, 2..4),
            width in 2usize..8,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use isex_workloads::random::{random_dfg, RandomDfgConfig};
            use rand::RngCore;

            let budgets = [
                (Constraints::new(4, 2), MachineConfig::preset_2issue_4r2w()),
                (Constraints::new(6, 3), MachineConfig::preset_2issue_6r3w()),
                (Constraints::new(2, 1), MachineConfig::preset_2issue_4r2w()),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut scratch = AntScratch::default();
            for &nodes in &sizes {
                let shape = RandomDfgConfig { nodes, width, ..RandomDfgConfig::default() };
                let g = exgraph::build(&random_dfg(&shape, &mut rng));
                let csr = CsrAdjacency::from_dfg(&g);
                for (cons, m) in &budgets {
                    let (ant, default_store) = context(&g, m, cons, &csr);
                    let mut biased = default_store.clone();
                    for n in 0..g.len() {
                        for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                            biased.set_merit(n, ImplChoice::Hw(j), 1e3);
                        }
                    }
                    for store in [&default_store, &biased] {
                        let walk_seed = rng.next_u64();
                        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(walk_seed);
                        let mut slow_rng = rand::rngs::StdRng::seed_from_u64(walk_seed);
                        let fast = ant.run_with(store, &mut fast_rng, &mut scratch);
                        let slow = crate::reference::run_walk(&ant, store, &mut slow_rng);
                        proptest::prop_assert_eq!(fields(&fast), fields(&slow));
                        proptest::prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
                    }
                }
            }
        }
    }
}
