//! Hot-path evaluation tests: the production evaluation (round-scoped
//! memo tables, incremental timing over SoA arrays) must reproduce the
//! plain reference evaluation byte for byte on every engine job — the
//! kept exploration and every walk's TET — while actually earning memo
//! hits and skipped timing work on converging workloads.

use std::sync::Arc;

use isex::core::EvalStats;
use isex::engine::ExploreJob;
use isex::flow::hot_blocks;
use isex::prelude::*;
use isex::workloads::random::{random_dfg, RandomDfgConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_cfg(jobs: usize) -> FlowConfig {
    let mut cfg =
        FlowConfig::for_machine(Algorithm::MultiIssue, MachineConfig::preset_2issue_4r2w());
    cfg.repeats = 2;
    cfg.jobs = jobs;
    cfg.params.max_iterations = 40;
    cfg
}

fn explorer(cfg: &FlowConfig) -> MultiIssueExplorer {
    MultiIssueExplorer::with_params(cfg.machine, cfg.constraints, cfg.params)
}

/// Runs one engine job both ways and requires byte-equal serialized
/// explorations and walk traces.
fn assert_job_matches(ex: &MultiIssueExplorer, dfg: &ProgramDfg, seed: u64, what: &str) {
    let (fast, fast_trace) = ex.explore_traced(dfg, &mut StdRng::seed_from_u64(seed));
    let (slow, slow_trace) = ex.explore_reference(dfg, &mut StdRng::seed_from_u64(seed));
    assert_eq!(
        serde_json::to_string(&fast_trace).unwrap(),
        serde_json::to_string(&slow_trace).unwrap(),
        "{what}: the walk traces differ from the reference"
    );
    assert_eq!(
        serde_json::to_string(&fast).unwrap(),
        serde_json::to_string(&slow).unwrap(),
        "{what}: the exploration differs from the reference"
    );
}

/// Every hot `(block, repeat)` job of the run, with the engine's seeds —
/// including the repeats that best-of-repeats later discards.
#[test]
fn every_hot_job_matches_the_reference() {
    let cfg = quick_cfg(1);
    let ex = explorer(&cfg);
    for bench in [Benchmark::Bitcount, Benchmark::Crc32] {
        let program = bench.program(OptLevel::O3);
        let hot = hot_blocks(&cfg, &program);
        for master_seed in [3u64, 11, 29] {
            for job in ExploreJob::plan(hot.len(), cfg.repeats, master_seed) {
                let block = hot[job.block_index];
                let what = format!(
                    "{} seed {master_seed} block {} repeat {}",
                    bench.name(),
                    block.name,
                    job.repeat
                );
                assert_job_matches(&ex, &block.dfg, job.seed, &what);
            }
        }
    }
}

/// Blocks of 80–160 ops span two or three `NodeSet` words, so the
/// word-level convexity scan, the component unions and the SoA quotient
/// collapse are compared past the first word.
#[test]
fn multi_word_blocks_match_the_reference() {
    let ex = explorer(&quick_cfg(1));
    for (i, (nodes, width)) in [(80usize, 3usize), (120, 5), (160, 6)]
        .into_iter()
        .enumerate()
    {
        let shape = RandomDfgConfig {
            nodes,
            width,
            ..RandomDfgConfig::default()
        };
        let dfg = random_dfg(&shape, &mut StdRng::seed_from_u64(0x80 + i as u64));
        assert!(dfg.len() > 64, "the block must span more than one word");
        for job in ExploreJob::plan(1, 2, 0x5EED + i as u64) {
            let what = format!("random block of {nodes} ops, repeat {}", job.repeat);
            assert_job_matches(&ex, &dfg, job.seed, &what);
        }
    }
}

#[test]
fn cache_counters_surface_in_phase_profile() {
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (_, metrics) = run_flow_observed(&quick_cfg(1), &program, 7, &NullSink);
    let hit = metrics
        .phase_profile
        .get("eval.cache_hit")
        .expect("an MI run must report eval.cache_hit");
    let miss = metrics
        .phase_profile
        .get("eval.cache_miss")
        .expect("an MI run must report eval.cache_miss");
    assert!(miss.count > 0, "every round's first walk is a miss");
    assert!(
        hit.count > 0,
        "a converging ACO must resample walks: {} hits / {} misses",
        hit.count,
        miss.count
    );
    let saved = metrics
        .phase_profile
        .get("timing.asap_saved")
        .expect("an MI run must report skipped ASAP passes");
    // Every walk-evaluation miss derives ALAP (and the walk deadline) from
    // the ASAP numbers in hand — two skipped passes each. `eval.cache_miss`
    // also counts candidate-length misses, so `<=` rather than equality.
    assert!(
        saved.count > 0 && saved.count % 2 == 0 && saved.count <= 2 * miss.count,
        "{} skipped passes vs {} misses",
        saved.count,
        miss.count
    );
    let copied = metrics
        .phase_profile
        .get("timing.incr_copied")
        .expect("an MI run must report copied vertices");
    let recomputed = metrics
        .phase_profile
        .get("timing.incr_recomputed")
        .expect("an MI run must report recomputed vertices");
    assert!(
        copied.count > 0 && recomputed.count > 0,
        "cone updates must both copy and recompute: {} copied / {} recomputed",
        copied.count,
        recomputed.count
    );
}

#[test]
fn explorer_records_hits_on_a_converging_workload() {
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let block = program.hottest();
    let machine = MachineConfig::preset_2issue_4r2w();
    let mut explorer = MultiIssueExplorer::new(machine, Constraints::from_machine(&machine));
    let stats = Arc::new(EvalStats::default());
    explorer.eval_stats = Some(Arc::clone(&stats));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
    let result = explorer.explore(&block.dfg, &mut rng);
    assert!(result.cycles_with_ises <= result.baseline_cycles);
    assert!(stats.misses() > 0, "each distinct walk costs one analysis");
    assert!(
        stats.hits() > 0,
        "near convergence the ants resample identical walks; the cache must hit"
    );
    let rate = stats.hits() as f64 / (stats.hits() + stats.misses()) as f64;
    assert!(
        rate > 0.0 && rate < 1.0,
        "hit rate {rate} must be a real fraction"
    );
}
