//! In-process runner of the layered benchmark (see `layerbench/README.md`).
//!
//! ```text
//! layerbench large-blocks --pool-seed S --units I:SEED,... --pass-len P
//!                         --seconds T --trace 0|1 --trace-dir DIR --setup-only 0|1
//! layerbench probe --spec FILE --store-dir DIR
//! ```
//!
//! `large-blocks` prints `ready` once its inputs are built and warmed up,
//! then runs `run_flow` units in a closed loop over the unit list for `T`
//! seconds, stopping at the first pass boundary (every `P` units) after that and prints one JSON line per unit plus a summary
//! line. Output is buffered until the loop ends so pipe back-pressure never
//! lands inside a timed unit. `probe` times single-layer public calls
//! (`dfg`, `sched`, `store`) on a workload's own blocks and payloads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use isex_core::{Constraints, MultiIssueExplorer};
use isex_dfg::{convex, ports, NodeSet, Reachability};
use isex_engine::NullSink;
use isex_flow::run_flow_observed;
use isex_isa::{MachineConfig, ProgramDfg};
use isex_layerbench::{flag, flag_map, large_blocks_config, large_blocks_program, process_cpu_s};
use isex_sched::{list_schedule_len, timing, ListScratch, Priority};
use isex_trace::Tracer;
use isex_workloads::{registry, OptLevel, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("large-blocks") => large_blocks(&args[1..]),
        Some("probe") => probe(&args[1..]),
        _ => Err("usage: layerbench <large-blocks|probe> --flag value ...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("layerbench: {e}");
        std::process::exit(2);
    }
}

fn parse_units(spec: &str) -> Result<Vec<(u64, u64)>, String> {
    spec.split(',')
        .map(|u| {
            let (i, s) = u.split_once(':').ok_or_else(|| format!("bad unit `{u}`"))?;
            Ok((
                i.parse().map_err(|_| format!("bad unit index `{i}`"))?,
                s.parse().map_err(|_| format!("bad unit seed `{s}`"))?,
            ))
        })
        .collect()
}

fn large_blocks(args: &[String]) -> Result<(), String> {
    let flags = flag_map(args)?;
    let pool_seed: u64 = flag(&flags, "pool-seed")?
        .parse()
        .map_err(|_| "bad --pool-seed")?;
    let units = parse_units(flag(&flags, "units")?)?;
    let pass_len: usize = flag(&flags, "pass-len")?
        .parse()
        .map_err(|_| "bad --pass-len")?;
    let seconds: f64 = flag(&flags, "seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let traced = flag(&flags, "trace")? == "1";
    let setup_only = flag(&flags, "setup-only")? == "1";
    let trace_dir = flag(&flags, "trace-dir")?.to_string();

    // Set-up: build every program the unit list names, then one warm-up run
    // on the pool's first program (the same for every workload seed).
    let mut programs: BTreeMap<u64, Program> = BTreeMap::new();
    for &(index, _) in &units {
        programs
            .entry(index)
            .or_insert_with(|| large_blocks_program(pool_seed, index));
    }
    let cfg = large_blocks_config();
    let warm = large_blocks_program(pool_seed, 0);
    black_box(isex_flow::run_flow(&cfg, &warm, 1));
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready").map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    if setup_only {
        return Ok(());
    }

    let mut lines = Vec::new();
    let mut traces = Vec::new();
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        for i in 0..pass_len.max(1) {
            let (index, seed) = units[(k + i) % units.len()];
            let program = &programs[&index];
            // A traced run pairs every unit with an untraced twin, order
            // alternating, so the overhead ratio compares like with like.
            let modes: &[bool] = match (traced, (k + i) % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &with_trace in modes {
                let mut cfg = cfg.clone();
                if with_trace {
                    cfg.tracer = Tracer::new();
                }
                let t0 = Instant::now();
                let start_ms = (t0 - start).as_secs_f64() * 1e3;
                let (report, metrics) = run_flow_observed(&cfg, program, seed, &NullSink);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let report = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                let metrics = serde_json::to_string(&metrics).map_err(|e| e.to_string())?;
                let (trace_file, dropped) = if with_trace {
                    traces.push(cfg.tracer.chrome_trace());
                    let name = format!("\"unit-{}.trace.json\"", traces.len() - 1);
                    (name, cfg.tracer.dropped())
                } else {
                    ("null".to_string(), 0)
                };
                lines.push(format!(
                    "{{\"index\":{index},\"seed\":{seed},\"traced\":{with_trace},\
                     \"start_ms\":{start_ms},\"wall_ms\":{wall_ms},\"trace\":{trace_file},\"dropped\":{dropped},\
                     \"report\":{report},\
                     \"metrics\":{metrics}}}"
                ));
            }
        }
        k += pass_len.max(1);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    for (i, trace) in traces.iter().enumerate() {
        let path = Path::new(&trace_dir).join(format!("unit-{i}.trace.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for line in &lines {
        writeln!(stdout, "{line}").map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "{{\"summary\":{{\"timed_s\":{timed_s},\"cpu_s\":{cpu_s},\"units\":{}}}}}",
        lines.len()
    )
    .map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())
}

/// Node sets to probe `is_convex` / `ports::demand` with: the candidates a
/// short exploration of the block reports, plus every node's one-level
/// operand cone (so blocks with no candidate are still probed).
fn probe_sets(dfg: &ProgramDfg, machine: MachineConfig) -> Vec<NodeSet> {
    let mut explorer = MultiIssueExplorer::new(machine, Constraints::from_machine(&machine));
    explorer.params.max_iterations = 30;
    let found = explorer.explore(dfg, &mut StdRng::seed_from_u64(1));
    let mut sets: Vec<NodeSet> = found.candidates.into_iter().map(|c| c.nodes).collect();
    for (id, _) in dfg.iter() {
        let mut set = NodeSet::new(dfg.len());
        set.insert(id);
        for p in dfg.preds(id) {
            set.insert(p);
        }
        sets.push(set);
    }
    sets
}

/// Mean time per call of `f` over enough repetitions to fill `min_ms`.
fn per_call_ns(min_ms: f64, calls_per_rep: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0usize;
    while reps == 0 || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (reps * calls_per_rep.max(1)) as f64
}

fn spec_program(entry: &Value) -> Result<Program, String> {
    if let Some(bench) = entry.get("bench").and_then(Value::as_str) {
        let bench = registry::resolve(bench).map_err(|e| e.to_string())?;
        let opt = match entry.get("opt").and_then(Value::as_str) {
            Some("O0") => OptLevel::O0,
            _ => OptLevel::O3,
        };
        return Ok(bench.program(opt));
    }
    let num = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("spec program needs `bench` or `{k}`"))
    };
    Ok(large_blocks_program(num("pool_seed")?, num("index")?))
}

fn probe(args: &[String]) -> Result<(), String> {
    let flags = flag_map(args)?;
    let spec_path = flag(&flags, "spec")?;
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = serde_json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let machine = MachineConfig::preset_2issue_4r2w();
    let programs = spec
        .get("programs")
        .and_then(Value::as_array)
        .ok_or("spec needs `programs`")?
        .iter()
        .map(spec_program)
        .collect::<Result<Vec<_>, _>>()?;

    let (mut convex_ns, mut ports_ns, mut reach_us, mut words) = (vec![], vec![], vec![], vec![]);
    let (mut list_us, mut timing_us) = (vec![], vec![]);
    let mut scratch = ListScratch::new();
    for block in programs.iter().flat_map(|p| &p.blocks) {
        let dfg = &block.dfg;
        if dfg.is_empty() {
            continue;
        }
        words.push(dfg.len().div_ceil(64) as f64);
        reach_us.push(
            per_call_ns(2.0, 1, || {
                black_box(Reachability::compute(black_box(dfg)));
            }) / 1e3,
        );
        let reach = Reachability::compute(dfg);
        let sets = probe_sets(dfg, machine);
        convex_ns.push(per_call_ns(2.0, sets.len(), || {
            for s in &sets {
                black_box(convex::is_convex(black_box(s), &reach));
            }
        }));
        ports_ns.push(per_call_ns(2.0, sets.len(), || {
            for s in &sets {
                black_box(ports::demand(dfg, black_box(s)));
            }
        }));
        let sd = isex_sched::unit::lower(dfg);
        list_us.push(
            per_call_ns(2.0, 1, || {
                black_box(list_schedule_len(
                    black_box(&sd),
                    &machine,
                    Priority::ChildCount,
                    &mut scratch,
                ));
            }) / 1e3,
        );
        timing_us.push(
            per_call_ns(2.0, 1, || {
                let asap = timing::asap(black_box(&sd));
                let len = timing::length_from_asap(&sd, &asap);
                black_box(timing::alap_from_asap(&sd, &asap, len));
                black_box(timing::critical_nodes(&sd));
            }) / 1e3,
        );
    }

    // Store: the workload's own payloads, inserted and looked up in a
    // fresh scratch directory.
    let store_dir = flag(&flags, "store-dir")?;
    let payload_path = spec
        .get("payloads")
        .and_then(Value::as_str)
        .ok_or("spec needs `payloads`")?;
    let payloads =
        std::fs::read_to_string(payload_path).map_err(|e| format!("{payload_path}: {e}"))?;
    let store = isex_store::Store::open(Path::new(store_dir), 0).map_err(|e| e.to_string())?;
    let (mut insert_us, mut lookup_us) = (vec![], vec![]);
    let keys: Vec<String> = (0..payloads.lines().count())
        .map(|i| format!("layerbench payload {i}"))
        .collect();
    for (key, payload) in keys.iter().zip(payloads.lines()) {
        let t = Instant::now();
        store
            .insert(key, payload.as_bytes())
            .map_err(|e| e.to_string())?;
        insert_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for key in &keys {
        let t = Instant::now();
        let hit = store.lookup(key);
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
        if hit.is_none() {
            return Err(format!("store lost `{key}`"));
        }
    }
    let stats = store.stats();

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "{{\"dfg.convex_ns\":{},\"dfg.ports_ns\":{},\"dfg.reach_us\":{},\"dfg.words\":{},\
         \"sched.list_us\":{},\"sched.timing_us\":{},\"store.insert_us\":{},\
         \"store.lookup_us\":{},\"store.entries\":{},\"store.bytes\":{},\"probe.blocks\":{}}}",
        mean(&convex_ns),
        mean(&ports_ns),
        mean(&reach_us),
        mean(&words),
        mean(&list_us),
        mean(&timing_us),
        mean(&insert_us),
        mean(&lookup_us),
        stats.entries,
        stats.bytes,
        words.len(),
    );
    Ok(())
}
