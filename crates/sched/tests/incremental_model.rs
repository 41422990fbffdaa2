//! Property tests of the incremental timing kernels: on arbitrary DAGs,
//! arbitrary latency patches and arbitrary (convex, disjoint) ISE groups,
//! the cone-limited incremental ASAP/ALAP/height passes must equal full
//! recomputation over the patched quotient, and the walk-deadline handling
//! must obey the uniform-shift lemma the merit path relies on.

use isex_dfg::{NodeId, NodeSet, Operand};
use isex_sched::soa::{
    alap_incremental_into, alap_into, asap_incremental_into, asap_into, collapse_soa,
    height_incremental_into, height_into, length_from_asap, BaseTiming, Quotient, QuotientScratch,
    SoaGraph,
};
use isex_sched::{SchedDfg, SchedOp, UnitClass};
use proptest::prelude::*;

/// One node: latency, predecessor pick mask over the preceding 64 nodes,
/// live-out.
type NodeSpec = (u32, u64, bool);

/// Up to 160 nodes, so node sets and timing vectors span up to three
/// 64-bit words and dependence chains cross word boundaries.
fn arb_dag() -> impl Strategy<Value = Vec<NodeSpec>> {
    prop::collection::vec((1u32..4, any::<u64>(), any::<bool>()), 2..160)
}

/// Per-node replacement latencies (`None` keeps the base latency) — the
/// shape of a walk's software-option patch.
fn arb_patch() -> impl Strategy<Value = Vec<Option<u32>>> {
    prop::collection::vec(prop::option::of(1u32..6), 0..160)
}

/// Interval picks that become disjoint contiguous index ranges (contiguous
/// ranges are always convex, so `collapse_soa` accepts them).
fn arb_groups() -> impl Strategy<Value = Vec<(prop::sample::Index, u8, u32)>> {
    prop::collection::vec((any::<prop::sample::Index>(), 1u8..4, 1u32..3), 0..3)
}

fn build(spec: &[NodeSpec]) -> SchedDfg {
    let mut g = SchedDfg::new();
    let x = g.live_in();
    for (i, &(lat, mask, live)) in spec.iter().enumerate() {
        let mut operands: Vec<Operand> = (i.saturating_sub(64)..i)
            .filter(|p| mask >> (p % 64) & 1 == 1)
            .take(3)
            .map(|p| Operand::Node(NodeId::new(p as u32)))
            .collect();
        if operands.is_empty() {
            operands.push(Operand::LiveIn(x));
        }
        let reads = operands.len().min(2);
        let id = g.add_node(SchedOp::new(lat, reads, 1, UnitClass::Alu), operands);
        if live {
            g.set_live_out(id, true);
        }
    }
    g
}

fn build_groups(k: usize, picks: &[(prop::sample::Index, u8, u32)]) -> Vec<(NodeSet, SchedOp)> {
    let mut groups = Vec::new();
    let mut next = 0usize;
    for (pick, span, glat) in picks {
        if next + 1 >= k {
            break;
        }
        let lo = next + pick.index(k - 1 - next);
        let hi = (lo + *span as usize).min(k - 1);
        if hi <= lo {
            break;
        }
        let mut set = NodeSet::new(k);
        for n in lo..=hi {
            set.insert(NodeId::new(n as u32));
        }
        groups.push((set, SchedOp::new(*glat, 2, 1, UnitClass::Asfu)));
        next = hi + 1;
    }
    groups
}

proptest! {
    /// Incremental ASAP/ALAP/height over the patched quotient equal full
    /// recomputation, for any latency patch and any convex group family.
    #[test]
    fn incremental_equals_full_recompute(
        spec in arb_dag(),
        patch in arb_patch(),
        picks in arb_groups(),
    ) {
        let dfg = build(&spec);
        let k = dfg.len();
        let base = SoaGraph::from_sched(&dfg);
        let bt = BaseTiming::of(&base);

        let mut patched = base.clone();
        for i in 0..k {
            if let Some(Some(lat)) = patch.get(i) {
                patched.lat[i] = *lat;
            }
        }
        let groups = build_groups(k, &picks);
        let mut qs = QuotientScratch::default();
        let mut q = Quotient::default();
        collapse_soa(&patched, &groups, &mut qs, &mut q);

        let (mut asap_i, mut alap_i, mut height_i) = (Vec::new(), Vec::new(), Vec::new());
        let mut needs = Vec::new();
        asap_incremental_into(&q, &bt, &base.lat, &mut asap_i, &mut needs);
        let len = length_from_asap(&q.graph, &asap_i);
        alap_incremental_into(&q, &bt, &base.lat, len, &mut alap_i, &mut needs);
        height_incremental_into(&q, &bt, &base.lat, &mut height_i, &mut needs);

        let (mut asap_f, mut alap_f, mut height_f) = (Vec::new(), Vec::new(), Vec::new());
        asap_into(&q.graph, &mut asap_f);
        alap_into(&q.graph, len, &mut alap_f);
        height_into(&q.graph, &mut height_f);

        prop_assert_eq!(&asap_i, &asap_f, "incremental ASAP diverged");
        prop_assert_eq!(&alap_i, &alap_f, "incremental ALAP diverged");
        prop_assert_eq!(&height_i, &height_f, "incremental heights diverged");
    }

    /// The uniform-shift lemma: relaxing the deadline shifts every ALAP
    /// slot by exactly the relaxation, so the walk deadline can be folded
    /// into `Max_AEC` queries instead of costing another reverse pass.
    #[test]
    fn alap_deadline_shift_is_uniform(
        spec in arb_dag(),
        picks in arb_groups(),
        extra in 0u32..7,
    ) {
        let dfg = build(&spec);
        let base = SoaGraph::from_sched(&dfg);
        let groups = build_groups(dfg.len(), &picks);
        let mut qs = QuotientScratch::default();
        let mut q = Quotient::default();
        collapse_soa(&base, &groups, &mut qs, &mut q);

        let mut asap = Vec::new();
        asap_into(&q.graph, &mut asap);
        let len = length_from_asap(&q.graph, &asap);
        let (mut at_len, mut relaxed) = (Vec::new(), Vec::new());
        alap_into(&q.graph, len, &mut at_len);
        alap_into(&q.graph, len + extra, &mut relaxed);
        for v in 0..q.graph.len() {
            prop_assert_eq!(relaxed[v], at_len[v] + extra, "vertex {}", v);
        }
    }
}
