//! Round-scoped hot-path evaluation: one lowering per round, incremental
//! timing over struct-of-arrays graphs, and memoisation.
//!
//! Profiling shows the exploration loop dominated by schedule evaluation:
//! every walk's merit update needs the critical path and `Max_AEC` slack of
//! the walk's collapsed graph, every extracted candidate a list schedule,
//! and near pheromone convergence the ants resample *identical* walks
//! (the observation ISEGEN and the ByoRISC DSE tools both act on —
//! memoised candidate evaluation is what makes iterative-improvement ISE
//! search tractable).
//!
//! [`RoundEval`] lowers the round's [`ExGraph`] once into a [`SoaGraph`]
//! and computes its ASAP/ALAP/height baseline ([`BaseTiming`]). A walk or
//! candidate then only patches latencies and collapses groups on reusable
//! arrays; the incremental kernels recompute timing inside the patched
//! cones and copy the rest from the baseline. On top sit two memo tables
//! keyed by canonical `u64` fingerprints: walk → recorded merit-op
//! sequence, and candidate `(members, footprint)` → schedule length. Keys
//! compare by full `Vec<u64>` equality — the FxHash-style hasher only
//! speeds up bucket lookup, so hash collisions cannot change results.
//!
//! The cache is *round-scoped by construction*: committing a candidate
//! collapses the graph, and the next round builds a fresh `RoundEval`, so
//! no invalidation logic is needed (or possible to get wrong). Tests and
//! benches pin every answer against the plain reference evaluation
//! (`crate::reference`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use isex_aco::{AcoParams, ImplChoice};
use isex_dfg::{CsrAdjacency, NodeId, NodeSet, Reachability};
use isex_isa::MachineConfig;
use isex_sched::collapse::collapse_groups;
use isex_sched::soa::{
    alap_incremental_into, asap_incremental_into, collapse_soa, height_incremental_into,
    length_from_asap, schedule_len_counters, BaseTiming, CounterSchedScratch, IncrStats, Quotient,
    QuotientScratch, SoaGraph,
};
use isex_sched::{list_schedule_len, ListScratch, Priority, SchedOp, UnitClass};

use crate::ant::Walk;
use crate::candidate::{Constraints, IseCandidate};
use crate::exgraph::{self, ExGraph};
use crate::explore::Evaluator;
use crate::grow::LegalGrower;
use crate::merit::{self, MeritOp};

/// An FxHash-style multiply-rotate hasher, vendored like PR 1's dependency
/// stand-ins (no new crates). Quality is sufficient for bucket selection;
/// correctness never depends on it because the map keys are compared by
/// full equality.
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Default for FxHasher {
    /// Starts from the seed rather than zero so the all-zero input is not a
    /// fixed point (zero words then still advance the state, making key
    /// length matter).
    fn default() -> Self {
        FxHasher { hash: FX_SEED }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Cumulative work counters of the evaluation layer, shared between an
/// explorer and whoever reports the run (the engine folds them into
/// `RunMetrics.phase_profile`, which the Prometheus endpoint re-exports).
#[derive(Debug, Default)]
pub struct EvalStats {
    hits: AtomicU64,
    misses: AtomicU64,
    asap_saved: AtomicU64,
    incr_copied: AtomicU64,
    incr_recomputed: AtomicU64,
}

impl EvalStats {
    /// Memo hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Full ASAP passes avoided by deriving ALAP from a shared or shifted
    /// ASAP instead of re-running the forward pass.
    pub fn asap_saved(&self) -> u64 {
        self.asap_saved.load(Ordering::Relaxed)
    }

    /// Quotient vertices whose timing was copied from the persistent
    /// per-round baseline.
    pub fn incr_copied(&self) -> u64 {
        self.incr_copied.load(Ordering::Relaxed)
    }

    /// Quotient vertices whose timing was recomputed inside a dirty cone.
    pub fn incr_recomputed(&self) -> u64 {
        self.incr_recomputed.load(Ordering::Relaxed)
    }

    /// Adds one exploration's worth of counts.
    pub(crate) fn add(&self, c: &EvalCounters) {
        self.hits.fetch_add(c.hits, Ordering::Relaxed);
        self.misses.fetch_add(c.misses, Ordering::Relaxed);
        self.asap_saved.fetch_add(c.asap_saved, Ordering::Relaxed);
        self.incr_copied.fetch_add(c.incr_copied, Ordering::Relaxed);
        self.incr_recomputed
            .fetch_add(c.incr_recomputed, Ordering::Relaxed);
    }
}

/// Work counters of one round's (or one exploration's) evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EvalCounters {
    /// Memo hits.
    pub hits: u64,
    /// Memo misses.
    pub misses: u64,
    /// Full ASAP passes avoided (shared-ASAP ALAP derivation).
    pub asap_saved: u64,
    /// Incremental-timing vertices copied from the round baseline.
    pub incr_copied: u64,
    /// Incremental-timing vertices recomputed inside dirty cones.
    pub incr_recomputed: u64,
}

impl EvalCounters {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: EvalCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.asap_saved += other.asap_saved;
        self.incr_copied += other.incr_copied;
        self.incr_recomputed += other.incr_recomputed;
    }
}

/// The canonical fingerprint of everything the merit update reads from a
/// walk: the per-node option vector, each group's member words and frozen
/// footprint, and the TET. Two walks with equal keys are interchangeable
/// inputs to the merit computation.
fn walk_key(walk: &Walk) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + walk.choice.len() + walk.groups.len() * 3);
    key.push(walk.tet as u64);
    key.push(walk.groups.len() as u64);
    for c in &walk.choice {
        key.push(match *c {
            ImplChoice::Sw(j) => (j as u64) << 1,
            ImplChoice::Hw(j) => ((j as u64) << 1) | 1,
        });
    }
    // Member bitsets all share the round's universe, so each group
    // contributes a fixed number of words and the encoding stays
    // prefix-free without explicit separators.
    for gr in &walk.groups {
        key.push(((gr.latency as u64) << 32) | ((gr.reads as u64) << 16) | gr.writes as u64);
        key.extend_from_slice(gr.members.as_words());
    }
    key
}

/// The canonical fingerprint of a candidate evaluation: member words plus
/// the frozen footprint (class is always the ASFU and is asserted, not
/// encoded).
fn candidate_key(members: &NodeSet, footprint: &SchedOp) -> Vec<u64> {
    debug_assert_eq!(footprint.class, UnitClass::Asfu);
    let words = members.as_words();
    let mut key = Vec::with_capacity(1 + words.len());
    key.push(
        ((footprint.latency as u64) << 32)
            | ((footprint.reads as u64) << 16)
            | footprint.writes as u64,
    );
    key.extend_from_slice(words);
    key
}

/// One round's evaluation state: the base graph in struct-of-arrays form,
/// its timing baseline, every scratch buffer a memo miss needs (steady
/// state allocates nothing) and the memo tables. Dropped, and with it every
/// cached entry, when the round ends.
pub(crate) struct RoundEval {
    machine: MachineConfig,
    /// Schedule length of the round's graph with no new ISE.
    base_len: u32,
    merit_memo: HashMap<Vec<u64>, Rc<Vec<MeritOp>>, FxBuild>,
    cand_memo: HashMap<Vec<u64>, u32, FxBuild>,
    counters: EvalCounters,
    /// The round's base graph (every node on implementation option 0).
    base: SoaGraph,
    /// ASAP/ALAP/height/length baseline of `base`, computed once per round.
    bt: BaseTiming,
    /// Per-walk latency-patched copy of `base` (only `lat` ever differs:
    /// software options change latency, never ports or unit class).
    patched: SoaGraph,
    qscratch: QuotientScratch,
    quotient: Quotient,
    asap: Vec<u32>,
    alap: Vec<u32>,
    height: Vec<i64>,
    needs: Vec<bool>,
    groups: Vec<(NodeSet, SchedOp)>,
    critical: NodeSet,
    sched_scratch: CounterSchedScratch,
    fast: merit::FastMeritScratch,
    grower: LegalGrower,
}

impl RoundEval {
    /// The merit-op sequence of a walk the memo has not seen. Produces the
    /// reference sequence bit for bit: `collapse_soa` replays the
    /// reference quotient numbering exactly, the incremental ASAP/ALAP
    /// equal full passes, the deadline translation is the exact uniform
    /// shift of the integer ALAP recurrence, and every f64 factor is built
    /// from identical integer inputs in the reference's expression order.
    fn merit_ops_miss(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        walk: &Walk,
        constraints: &Constraints,
        params: &AcoParams,
        reach: &Reachability,
    ) -> Vec<MeritOp> {
        // Patch per-walk software latencies onto the base arrays (hardware
        // members keep the option-0 placeholder; they sit inside a group).
        self.patched.lat.copy_from_slice(&self.base.lat);
        for (i, c) in walk.choice.iter().enumerate() {
            if let ImplChoice::Sw(j) = *c {
                self.patched.lat[i] = g.node(NodeId::new(i as u32)).payload().sched_op(j).latency;
            }
        }
        self.groups.clear();
        self.groups.extend(walk.groups.iter().map(|gr| {
            (
                gr.members.clone(),
                SchedOp::new(gr.latency, gr.reads, gr.writes, UnitClass::Asfu),
            )
        }));
        collapse_soa(
            &self.patched,
            &self.groups,
            &mut self.qscratch,
            &mut self.quotient,
        );
        let q = &self.quotient;
        let st_a =
            asap_incremental_into(q, &self.bt, &self.base.lat, &mut self.asap, &mut self.needs);
        let len = length_from_asap(&q.graph, &self.asap);
        let st_l = alap_incremental_into(
            q,
            &self.bt,
            &self.base.lat,
            len,
            &mut self.alap,
            &mut self.needs,
        );
        let mut st = IncrStats::default();
        st.absorb(st_a);
        st.absorb(st_l);
        self.counters.incr_copied += st.copied;
        self.counters.incr_recomputed += st.recomputed;
        self.critical.clear();
        for n in g.node_ids() {
            let qv = q.node_map[n.index()] as usize;
            if self.alap[qv] == self.asap[qv] {
                self.critical.insert(n);
            }
        }
        let deadline = walk.tet.max(len);
        self.fast.prepare(&self.base, walk);
        // `alap` holds ALAP at deadline `len`; the walk's deadline only
        // shifts every slot by the same amount, folded into the query.
        let mut prims = merit::FastPrims {
            scratch: &mut self.fast,
            base: &self.base,
            adj,
            node_map: &self.quotient.node_map,
            qlat: &self.quotient.graph.lat,
            asap: &self.asap,
            alap: &self.alap,
            extra: deadline - len,
        };
        merit::compute_merit_ops(
            g,
            walk,
            &self.critical,
            constraints,
            &self.machine,
            params,
            reach,
            &mut prims,
            &mut self.grower,
        )
    }
}

impl Evaluator for RoundEval {
    /// Lowers `g` once and computes its timing baseline; `base_len` is
    /// adopted as carried, not re-measured.
    fn for_round(g: &ExGraph, machine: &MachineConfig, base_len: u32) -> Self {
        let _span = isex_trace::span_with("eval.lower", || vec![("ops", g.len().to_string())]);
        let base = SoaGraph::from_sched(&exgraph::to_sched(g));
        let bt = BaseTiming::of(&base);
        let patched = base.clone();
        RoundEval {
            machine: *machine,
            base_len,
            merit_memo: HashMap::default(),
            cand_memo: HashMap::default(),
            counters: EvalCounters::default(),
            base,
            bt,
            patched,
            qscratch: QuotientScratch::default(),
            quotient: Quotient::default(),
            asap: Vec::new(),
            alap: Vec::new(),
            height: Vec::new(),
            needs: Vec::new(),
            groups: Vec::new(),
            critical: NodeSet::new(g.len()),
            sched_scratch: CounterSchedScratch::default(),
            fast: merit::FastMeritScratch::default(),
            grower: LegalGrower::default(),
        }
    }

    fn base_len(&self) -> u32 {
        self.base_len
    }

    /// Memoised: converged rounds resample identical walks, whose whole
    /// analysis (quotient build, critical path, virtual subgraphs, option
    /// evaluation) a hit skips. The recorded sequence replays the exact
    /// `scale_merit` calls, so applying a cached sequence is bit-identical
    /// to recomputing it.
    fn merit_ops(
        &mut self,
        g: &ExGraph,
        adj: &CsrAdjacency,
        walk: &Walk,
        constraints: &Constraints,
        params: &AcoParams,
        reach: &Reachability,
    ) -> Rc<Vec<MeritOp>> {
        let key = walk_key(walk);
        if let Some(ops) = self.merit_memo.get(&key) {
            self.counters.hits += 1;
            return Rc::clone(ops);
        }
        self.counters.misses += 1;
        // Deriving ALAP from the ASAP in hand, and the walk deadline by a
        // uniform shift, avoids two full forward passes per miss.
        self.counters.asap_saved += 2;
        let ops = Rc::new(self.merit_ops_miss(g, adj, walk, constraints, params, reach));
        self.merit_memo.insert(key, Rc::clone(&ops));
        ops
    }

    /// Memoised. Collapses the base arrays with the same quotient numbering
    /// as `freeze`, recomputes heights only inside the group's fan-in cone,
    /// and schedules with a counter-driven ready list whose decisions
    /// replay the rescan list scheduler exactly.
    fn candidate_len(&mut self, _g: &ExGraph, members: &NodeSet, footprint: SchedOp) -> u32 {
        let key = candidate_key(members, &footprint);
        if let Some(&len) = self.cand_memo.get(&key) {
            self.counters.hits += 1;
            return len;
        }
        self.counters.misses += 1;
        self.groups.clear();
        self.groups.push((members.clone(), footprint));
        collapse_soa(
            &self.base,
            &self.groups,
            &mut self.qscratch,
            &mut self.quotient,
        );
        let st = height_incremental_into(
            &self.quotient,
            &self.bt,
            &self.base.lat,
            &mut self.height,
            &mut self.needs,
        );
        self.counters.incr_copied += st.copied;
        self.counters.incr_recomputed += st.recomputed;
        let len = schedule_len_counters(
            &self.quotient.graph,
            &self.machine,
            &self.height,
            &mut self.sched_scratch,
        );
        self.cand_memo.insert(key, len);
        len
    }

    /// One lowering of `g0` serves all k + 1 collapses: a frozen candidate
    /// lowers to `SchedOp::new(latency, inputs, outputs, Asfu)`, and
    /// `collapse_groups` builds the quotient from the edge structure alone,
    /// so collapsing the lowering equals freezing and re-lowering.
    fn leave_one_out(
        g0: &ExGraph,
        commits: &[IseCandidate],
        machine: &MachineConfig,
    ) -> (u32, Vec<u32>) {
        let sched = exgraph::to_sched(g0);
        let mut scratch = ListScratch::new();
        let mut len_without = |skip: Option<usize>| {
            let groups: Vec<(NodeSet, SchedOp)> = commits
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != skip)
                .map(|(_, c)| {
                    (
                        c.nodes.clone(),
                        SchedOp::new(c.latency, c.inputs, c.outputs, UnitClass::Asfu),
                    )
                })
                .collect();
            let collapsed = collapse_groups(&sched, &groups);
            list_schedule_len(&collapsed.dfg, machine, Priority::Height, &mut scratch)
        };
        let all = len_without(None);
        let without = (0..commits.len()).map(|i| len_without(Some(i))).collect();
        (all, without)
    }

    fn counters(&self) -> EvalCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::{Ant, SpFunction};
    use crate::exgraph::ExKind;
    use crate::reference::Reference;
    use isex_aco::PheromoneStore;
    use isex_dfg::{CsrAdjacency, Operand};
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    fn chain() -> ExGraph {
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

    fn round_pair(g: &ExGraph, m: &MachineConfig) -> (RoundEval, Reference) {
        let len = exgraph::schedule_len(g, m);
        (
            RoundEval::for_round(g, m, len),
            Reference::for_round(g, m, len),
        )
    }

    fn set(g: &ExGraph, members: &[u32]) -> NodeSet {
        let mut s = NodeSet::new(g.len());
        for &n in members {
            s.insert(NodeId::new(n));
        }
        s
    }

    #[test]
    fn hasher_distributes_and_is_deterministic() {
        let hash = |words: &[u64]| {
            let mut h = FxHasher::default();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[3, 2, 1]));
        assert_ne!(hash(&[0]), hash(&[0, 0]));
    }

    #[test]
    fn candidate_len_matches_freeze_path_and_hits_on_repeat() {
        let g = chain();
        let m = MachineConfig::preset_2issue_4r2w();
        let (mut eval, _) = round_pair(&g, &m);
        let members = set(&g, &[0, 1]);
        let fp = SchedOp::new(1, 2, 1, UnitClass::Asfu);
        let cached = eval.candidate_len(&g, &members, fp);
        let frozen = exgraph::freeze(&g, &members, fp, usize::MAX).dfg;
        assert_eq!(cached, exgraph::schedule_len(&frozen, &m));
        assert_eq!((eval.counters.hits, eval.counters.misses), (0, 1));
        assert_eq!(eval.candidate_len(&g, &members, fp), cached);
        assert_eq!((eval.counters.hits, eval.counters.misses), (1, 1));
        // A different footprint on the same members is a different key.
        let slow = SchedOp::new(3, 2, 1, UnitClass::Asfu);
        assert!(eval.candidate_len(&g, &members, slow) >= cached);
        assert_eq!((eval.counters.hits, eval.counters.misses), (1, 2));
    }

    #[test]
    fn candidate_len_matches_reference() {
        let g = chain();
        let m = MachineConfig::preset_2issue_4r2w();
        let (mut eval, mut reference) = round_pair(&g, &m);
        assert_eq!(eval.base_len(), reference.base_len());
        for (members, fp) in [
            (set(&g, &[0, 1]), SchedOp::new(1, 2, 1, UnitClass::Asfu)),
            (set(&g, &[1, 2]), SchedOp::new(3, 2, 1, UnitClass::Asfu)),
        ] {
            assert_eq!(
                eval.candidate_len(&g, &members, fp),
                reference.candidate_len(&g, &members, fp),
                "the incremental path must replay the reference length"
            );
        }
        assert!(eval.counters.incr_copied + eval.counters.incr_recomputed > 0);
    }

    #[test]
    fn merit_ops_are_bit_identical_to_reference() {
        let g = chain();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let store = PheromoneStore::new(&shape, &params);
        let (mut eval, mut reference) = round_pair(&g, &m);
        let csr = CsrAdjacency::from_dfg(&g);
        let ant = Ant::new(&g, &m, &cons, 0.5, SpFunction::ChildCount, &csr);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let walk = ant.run(&store, &mut rng);
            let a = reference.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
            let b = eval.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
            assert_eq!(a.len(), b.len(), "op count");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1, y.1);
                assert_eq!(
                    x.2.to_bits(),
                    y.2.to_bits(),
                    "factor must be bit-identical: {} vs {}",
                    x.2,
                    y.2
                );
            }
        }
        assert!(eval.counters.hits > 0, "20 walks over 3 ops must repeat");
    }

    /// An off-critical virtual subgraph whose slow option's ET lands
    /// exactly on its `Max_AEC` window: the `<=` boundary of case 4, which
    /// the benchmark workloads never reach.
    #[test]
    fn merit_ops_match_reference_on_the_max_aec_boundary() {
        use crate::merit::{evaluate_option, virtual_subgraph};
        use crate::reference;
        use isex_sched::timing;

        // Critical: and -> and (two cycles in software). Slack: add -> xor
        // -> sll, one ISE of 9.29 ns with the fast add (one cycle), 11.21 ns
        // with the slow one (two cycles = the window at deadline 2).
        let mut dfg = ProgramDfg::new();
        let (x, y) = (dfg.live_in(), dfg.live_in());
        let m1 = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        let m2 = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::Node(m1), Operand::LiveIn(y)],
        );
        let add = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        let xor = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(add), Operand::LiveIn(x)],
        );
        let sll = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(xor), Operand::Const(2)],
        );
        dfg.set_live_out(m2, true);
        dfg.set_live_out(sll, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_6r3w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &params);
        for n in 0..g.len() {
            let hw = g.node(NodeId::new(n as u32)).payload().hw.len();
            let software = n < 2;
            store.set_merit(n, ImplChoice::Sw(0), if software { 1e9 } else { 1e-9 });
            for j in 0..hw {
                // The slack chain goes to hardware on its fastest option.
                let pick = !software && j + 1 == hw;
                store.set_merit(n, ImplChoice::Hw(j), if pick { 1e9 } else { 1e-9 });
            }
        }
        let csr = CsrAdjacency::from_dfg(&g);
        let ant = Ant::new(&g, &m, &cons, 0.5, SpFunction::ChildCount, &csr);
        let walk = ant.run(&store, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(walk.groups.len(), 1, "the slack chain packs into one ISE");

        let analysis_ = reference::analyze(&g, &walk);
        let vs = virtual_subgraph(&g, &walk, add);
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().all(|v| !analysis_.critical.contains(v)));
        let mut quotient = NodeSet::new(analysis_.collapsed.len());
        for v in &vs {
            quotient.insert(analysis_.node_map[v.index()]);
        }
        let window = timing::max_aec(&analysis_.collapsed, &quotient, analysis_.deadline);
        let slow = evaluate_option(&g, &walk, &vs, add, 0, &m).et_cycles;
        assert_eq!(slow, window, "the slow option must sit on the boundary");

        let len = exgraph::schedule_len(&g, &m);
        let mut eval = RoundEval::for_round(&g, &m, len);
        let mut oracle = Reference::for_round(&g, &m, len);
        let a = oracle.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
        let b = eval.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
        let bits = |ops: &[MeritOp]| -> Vec<(u32, ImplChoice, u64)> {
            ops.iter().map(|&(n, c, f)| (n, c, f.to_bits())).collect()
        };
        assert_eq!(bits(&b), bits(&a));
    }

    /// One illegal hardware component of seven members: every member
    /// shares the component's cached `(io_ok, convex_ok)` pair, and case 3
    /// grows a legal sub-blob from each of them.
    #[test]
    fn merit_ops_match_reference_on_a_shared_illegal_component() {
        use crate::merit::virtual_subgraph;
        use crate::reference::grow_legal_from;
        use isex_dfg::ports;

        // Four adds over eight live-ins feed an or-tree: eight inputs.
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
        let o1 = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(adds[0]), Operand::Node(adds[1])],
        );
        let o2 = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(adds[2]), Operand::Node(adds[3])],
        );
        let top = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(o1), Operand::Node(o2)],
        );
        dfg.set_live_out(top, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &params);
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e-9);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e9);
            }
        }
        let csr = CsrAdjacency::from_dfg(&g);
        let ant = Ant::new(&g, &m, &cons, 0.5, SpFunction::ChildCount, &csr);
        let walk = ant.run(&store, &mut rand::rngs::StdRng::seed_from_u64(3));

        let comp = virtual_subgraph(&g, &walk, top);
        assert_eq!(comp.len(), 7, "every node chose hardware");
        assert!(!ports::demand(&g, &comp).fits(cons.n_in, cons.n_out));
        let mut grown_seeds = 0;
        for x in &comp {
            assert_eq!(virtual_subgraph(&g, &walk, x), comp, "vS_x = comp(x)");
            if grow_legal_from(&g, x, &comp, &cons, &reach).len() >= 2 {
                grown_seeds += 1;
            }
        }
        assert!(grown_seeds >= 3, "case 4 must run on several grown pieces");

        let len = exgraph::schedule_len(&g, &m);
        let mut eval = RoundEval::for_round(&g, &m, len);
        let mut oracle = Reference::for_round(&g, &m, len);
        let a = oracle.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
        let b = eval.merit_ops(&g, &csr, &walk, &cons, &params, &reach);
        let bits = |ops: &[MeritOp]| -> Vec<(u32, ImplChoice, u64)> {
            ops.iter().map(|&(n, c, f)| (n, c, f.to_bits())).collect()
        };
        assert_eq!(bits(&b), bits(&a));
    }

    #[test]
    fn leave_one_out_matches_reference() {
        let g = chain();
        let m = MachineConfig::preset_2issue_4r2w();
        let commit = |members: &[u32], latency: u32| IseCandidate {
            nodes: set(&g, members),
            choices: Vec::new(),
            delay_ns: 0.0,
            latency,
            area_um2: 0.0,
            inputs: 2,
            outputs: 1,
            saved_cycles: 0,
        };
        for commits in [
            vec![],
            vec![commit(&[0, 1], 1)],
            vec![commit(&[0, 1], 1), commit(&[2], 2)],
        ] {
            assert_eq!(
                RoundEval::leave_one_out(&g, &commits, &m),
                Reference::leave_one_out(&g, &commits, &m)
            );
        }
    }

    #[test]
    fn frozen_exop_lowering_equals_candidate_footprint() {
        // The commutation candidate_len relies on: the ExOp that `freeze`
        // installs lowers (via sched_op(0)) to exactly the footprint.
        let fp = SchedOp::new(2, 3, 1, UnitClass::Asfu);
        let frozen = crate::exgraph::ExOp {
            sw_delays: vec![fp.latency],
            hw: Vec::new(),
            reads: fp.reads,
            writes: fp.writes,
            class: UnitClass::Asfu,
            kind: ExKind::FrozenIse(0),
        };
        assert_eq!(frozen.sched_op(0), fp);
    }
}
