//! Scaling benchmark for the exploration engine's worker pool.
//!
//! Four sections:
//!
//! * `flow` — the full `run_flow` at 1/2/4/8 workers. CPU-bound, so the
//!   speedup tracks the host's core count: ≥2× at 4 workers needs ≥4
//!   cores, and a single-core host shows ≈1× throughout (the recorded
//!   `host_cpus` says which regime a result file came from).
//! * `pool_overlap` — the same pool over latency-bound jobs (sleeps), which
//!   overlap regardless of core count. This isolates the pool's dispatch
//!   machinery: if these numbers don't scale, the pool itself serialises.
//! * `trace_overhead` — the same flow with tracing disabled (the default
//!   no-op `Tracer`) vs enabled (spans recorded, Chrome trace exportable).
//!   The disabled path is the one every untraced run pays and must stay
//!   within noise of a build without the instrumentation (≤2% is the
//!   budget); the enabled ratio prices `--trace`.
//! * `hot_path` — the reference evaluation against the production one
//!   over the identical engine job list (every crc32 block of the `flow`
//!   config × 5 repeats, seeds from `derive_seed(0xE46, …)`) on one
//!   thread. Both sides are first pinned to byte-equal explorations and
//!   walk traces, so the ratio prices pure wall-clock work. Samples are
//!   interleaved (reference, production, reference, …) so host drift hits
//!   both sides alike; the section reports the median per-pair ratio and
//!   its interquartile range.
//!
//! Results land in `BENCH_engine.json` at the workspace root (committed so
//! the numbers travel with the code; absolute times are machine-dependent,
//! the *ratios* are the interesting part).
//!
//! Run with: `cargo bench -p isex-bench --bench engine`
//!
//! With `ISEX_BENCH_SMOKE=1` only the `hot_path` section runs (5 pairs),
//! its median reference/production ratio is asserted ≥ [`SMOKE_FLOOR`],
//! and no result file is written — the CI regression gate against the hot
//! path losing ground.

use std::time::{Duration, Instant};

use isex_core::MultiIssueExplorer;
use isex_engine::{run_jobs, ExploreJob};
use isex_flow::{hot_blocks, run_flow, Algorithm, FlowConfig};
use isex_workloads::{Benchmark, OptLevel, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: &[usize] = &[1, 2, 4, 8];
const SAMPLES: usize = 5;
/// Interleaved reference/production pairs of the full `hot_path` run.
const HOT_PATH_PAIRS: usize = 15;
/// Lowest median reference/production ratio the smoke run accepts: the
/// 1.41× flow-level floor scaled by the job-level/flow-level ratio measured
/// on the commit that introduced the job-level section (selection and
/// replacement no longer dilute either side).
const SMOKE_FLOOR: f64 = 1.43;

fn flow_cfg(jobs: usize) -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    // Explore every block (not just the 95% hot set) with the paper's five
    // repeats so the pool has blocks × 5 jobs to spread across workers.
    cfg.hot_block_coverage = 1.0;
    cfg.repeats = 5;
    cfg.params.max_iterations = 150;
    cfg.jobs = jobs;
    cfg
}

/// Quartile `q` (0.25, 0.5, 0.75) of `samples`.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    s[((s.len() - 1) as f64 * q).round() as usize]
}

fn rows_json(rows: &[(usize, f64, f64)]) -> String {
    rows.iter()
        .map(|(workers, ms, speedup)| {
            format!(
                "    {{\"workers\": {workers}, \"median_ms\": {ms:.2}, \"speedup\": {speedup:.3}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn flow_section(program: &Program) -> Vec<(usize, f64, f64)> {
    let mut rows = Vec::new();
    let mut serial_ms = 0.0;
    for &workers in WORKERS {
        let cfg = flow_cfg(workers);
        // Warm-up run; also pins down the report we assert against below.
        let reference = run_flow(&cfg, program, 0xE46);
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let report = run_flow(&cfg, program, 0xE46);
                assert_eq!(
                    report.cycles_after, reference.cycles_after,
                    "engine must be deterministic at any worker count"
                );
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = quantile(&samples, 0.5);
        if workers == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("flow         workers {workers}: median {ms:8.1} ms  speedup {speedup:4.2}x");
        rows.push((workers, ms, speedup));
    }
    rows
}

fn pool_overlap_section() -> Vec<(usize, f64, f64)> {
    const JOBS: usize = 16;
    const SLEEP_MS: u64 = 10;
    let items: Vec<u64> = (0..JOBS as u64).collect();
    let mut rows = Vec::new();
    let mut serial_ms = 0.0;
    for &workers in WORKERS {
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let out = run_jobs(&items, workers, |_, &x| {
                    std::thread::sleep(Duration::from_millis(SLEEP_MS));
                    x
                });
                assert_eq!(out, items, "pool must preserve item order");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = quantile(&samples, 0.5);
        if workers == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("pool_overlap workers {workers}: median {ms:8.1} ms  speedup {speedup:4.2}x");
        rows.push((workers, ms, speedup));
    }
    rows
}

/// Median flow time with the given tracer installed, new tracer per run.
fn traced_flow_ms(program: &Program, make: impl Fn() -> isex_trace::Tracer) -> f64 {
    let mut cfg = flow_cfg(4);
    cfg.tracer = make();
    let _warm = run_flow(&cfg, program, 0xE46);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut cfg = flow_cfg(4);
            cfg.tracer = make();
            let start = Instant::now();
            let _ = run_flow(&cfg, program, 0xE46);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    quantile(&samples, 0.5)
}

fn trace_overhead_section(program: &Program) -> (f64, f64, f64) {
    let disabled_ms = traced_flow_ms(program, isex_trace::Tracer::disabled);
    let enabled_ms = traced_flow_ms(program, isex_trace::Tracer::new);
    let ratio = enabled_ms / disabled_ms;
    println!("trace_overhead disabled: median {disabled_ms:8.1} ms");
    println!("trace_overhead enabled:  median {enabled_ms:8.1} ms  ratio {ratio:4.3}x");
    (disabled_ms, enabled_ms, ratio)
}

/// Medians and spread of the `hot_path` section.
struct HotPath {
    jobs: usize,
    pairs: usize,
    reference_ms: f64,
    production_ms: f64,
    /// Quartiles of the per-pair reference/production ratio.
    ratio: [f64; 3],
}

fn hot_path_section(program: &Program, pairs: usize) -> HotPath {
    let cfg = flow_cfg(1);
    let hot = hot_blocks(&cfg, program);
    let jobs = ExploreJob::plan(hot.len(), cfg.repeats, 0xE46);
    let explorer = MultiIssueExplorer::with_params(cfg.machine, cfg.constraints, cfg.params);
    // One sample: the whole job list on this thread; results are
    // serialized after the clock stops.
    let run = |reference: bool| {
        let start = Instant::now();
        let results: Vec<_> = jobs
            .iter()
            .map(|job| {
                let dfg = &hot[job.block_index].dfg;
                let mut rng = StdRng::seed_from_u64(job.seed);
                if reference {
                    explorer.explore_reference(dfg, &mut rng)
                } else {
                    explorer.explore_traced(dfg, &mut rng)
                }
            })
            .collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (
            ms,
            serde_json::to_string(&results).expect("results serialize"),
        )
    };
    // Warm-up, pinning the contract: byte-equal explorations and traces.
    let (_, pinned) = run(true);
    assert_eq!(
        run(false).1,
        pinned,
        "production must reproduce the reference explorations and walk traces"
    );
    let (mut reference, mut production, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let timed = |side: bool| {
            let (ms, out) = run(side);
            assert_eq!(out, pinned, "every run must reproduce the pinned results");
            ms
        };
        let r = timed(true);
        let p = timed(false);
        reference.push(r);
        production.push(p);
        ratios.push(r / p);
    }
    let hp = HotPath {
        jobs: jobs.len(),
        pairs,
        reference_ms: quantile(&reference, 0.5),
        production_ms: quantile(&production, 0.5),
        ratio: [0.25, 0.5, 0.75].map(|q| quantile(&ratios, q)),
    };
    println!(
        "hot_path {} jobs, {} interleaved pairs: reference median {:8.1} ms, production median {:8.1} ms",
        hp.jobs, hp.pairs, hp.reference_ms, hp.production_ms
    );
    println!(
        "hot_path ratio median {:4.2}x  IQR {:4.2}x–{:4.2}x",
        hp.ratio[1], hp.ratio[0], hp.ratio[2]
    );
    hp
}

fn main() {
    let bench = Benchmark::Crc32;
    let program = bench.program(OptLevel::O3);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("host_cpus {host_cpus}");

    if std::env::var_os("ISEX_BENCH_SMOKE").is_some() {
        let hp = hot_path_section(&program, 5);
        assert!(
            hp.ratio[1] >= SMOKE_FLOOR,
            "hot path lost ground: median reference/production ratio {:.3}x < {SMOKE_FLOOR}x",
            hp.ratio[1]
        );
        println!(
            "smoke ok: hot_path median speedup {:.2}x (no result file written)",
            hp.ratio[1]
        );
        return;
    }

    let flow_rows = flow_section(&program);
    let pool_rows = pool_overlap_section();
    let (disabled_ms, enabled_ms, ratio) = trace_overhead_section(&program);
    let hp = hot_path_section(&program, HOT_PATH_PAIRS);

    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"samples\": {SAMPLES},\n  \"repeats\": 5,\n  \"max_iterations\": 150,\n  \"flow\": [\n{}\n  ],\n  \"pool_overlap\": [\n{}\n  ],\n  \"trace_overhead\": {{\"disabled_ms\": {disabled_ms:.2}, \"enabled_ms\": {enabled_ms:.2}, \"ratio\": {ratio:.3}}},\n  \"hot_path\": {{\"jobs\": {}, \"pairs\": {}, \"reference_ms\": {:.2}, \"production_ms\": {:.2}, \"ratio\": {:.3}, \"ratio_q1\": {:.3}, \"ratio_q3\": {:.3}}}\n}}\n",
        bench.name(),
        rows_json(&flow_rows),
        rows_json(&pool_rows),
        hp.jobs,
        hp.pairs,
        hp.reference_ms,
        hp.production_ms,
        hp.ratio[1],
        hp.ratio[0],
        hp.ratio[2],
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
