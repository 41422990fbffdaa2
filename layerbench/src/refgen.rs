//! Reference answers for the layered benchmark's pinned digests.
//!
//! ```text
//! refgen kernels --pool-seed S --seeds M
//! refgen large-blocks --pool-seed S --programs N --seeds M
//! refgen requests --file BODIES.jsonl
//! ```
//!
//! Every answer comes from the legacy uncached path (`eval_cache = false`,
//! `incremental = false`); the default path must produce the same bytes or
//! the generator fails. One JSON line per unit on stdout; `make_refs.py`
//! turns them into `refs/*.json` digests.

use isex_flow::{report::render_text, run_flow, FlowConfig, FlowReport};
use isex_layerbench::{
    cli_default_config, flag, flag_map, large_blocks_config, large_blocks_program,
};
use isex_serve::protocol::ExploreRequest;
use isex_workloads::{Benchmark, OptLevel, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("kernels") => kernels(&args[1..]),
        Some("large-blocks") => large_blocks(&args[1..]),
        Some("requests") => requests(&args[1..]),
        _ => Err("usage: refgen <kernels|large-blocks|requests> --flag value ...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("refgen: {e}");
        std::process::exit(2);
    }
}

/// Runs the flow on the legacy path and on the default path; both must
/// serialize to the same bytes.
fn reference(cfg: &FlowConfig, program: &Program, seed: u64) -> Result<FlowReport, String> {
    let mut legacy = cfg.clone();
    legacy.eval_cache = false;
    legacy.incremental = false;
    legacy.jobs = 0;
    let want = run_flow(&legacy, program, seed);
    let mut fast = cfg.clone();
    fast.jobs = 0;
    let got = run_flow(&fast, program, seed);
    let (a, b) = (to_json(&want)?, to_json(&got)?);
    if a != b {
        return Err(format!(
            "{} seed {seed}: default path differs from legacy",
            program.name
        ));
    }
    Ok(want)
}

fn to_json(report: &FlowReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| e.to_string())
}

fn seeds(pool_seed: u64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(pool_seed);
    (0..count).map(|_| rng.gen_range(1..1_000_000u64)).collect()
}

fn num(flags: &[(String, String)], name: &str) -> Result<u64, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("bad --{name}"))
}

fn kernels(args: &[String]) -> Result<(), String> {
    let flags = flag_map(args)?;
    let pool_seed = num(&flags, "pool-seed")?;
    let seeds = seeds(pool_seed, num(&flags, "seeds")? as usize);
    let cfg = cli_default_config();
    for &bench in Benchmark::ALL {
        for (opt, name) in [(OptLevel::O0, "O0"), (OptLevel::O3, "O3")] {
            let program = bench.program(opt);
            for &seed in &seeds {
                let report = reference(&cfg, &program, seed)?;
                let text =
                    serde_json::to_string(&render_text(&report)).map_err(|e| e.to_string())?;
                println!(
                    "{{\"bench\":\"{}\",\"opt\":\"{name}\",\"seed\":{seed},\"text\":{text}}}",
                    bench.name()
                );
            }
        }
    }
    Ok(())
}

fn large_blocks(args: &[String]) -> Result<(), String> {
    let flags = flag_map(args)?;
    let pool_seed = num(&flags, "pool-seed")?;
    let seeds = seeds(pool_seed, num(&flags, "seeds")? as usize);
    let cfg = large_blocks_config();
    for index in 0..num(&flags, "programs")? {
        let program = large_blocks_program(pool_seed, index);
        for &seed in &seeds {
            let report = to_json(&reference(&cfg, &program, seed)?)?;
            println!("{{\"index\":{index},\"seed\":{seed},\"report\":{report}}}");
        }
    }
    Ok(())
}

fn requests(args: &[String]) -> Result<(), String> {
    let flags = flag_map(args)?;
    let path = flag(&flags, "file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let body = serde_json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let request = ExploreRequest::from_json(&body).map_err(|e| e.to_string())?;
        let report = reference(&request.flow_config(), &request.program(), request.seed)?;
        let key = serde_json::to_string(&request.canonical_key()).map_err(|e| e.to_string())?;
        println!("{{\"key\":{key},\"report\":{}}}", to_json(&report)?);
    }
    Ok(())
}
