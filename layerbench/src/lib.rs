//! Inputs shared by the layered benchmark runner and its reference
//! generator: the `large-blocks` program generator and the flow
//! configurations the in-process workloads run with.

use isex_flow::{Algorithm, FlowConfig};
use isex_workloads::random::{random_dfg, RandomDfgConfig};
use isex_workloads::{BasicBlock, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ACO iteration cap per round of a `large-blocks` unit. Small enough that
/// one unit (2–3 blocks of 80–160 ops, one repeat each) takes a few hundred
/// milliseconds, so a run holds enough units for a median and a tail.
pub const LARGE_BLOCKS_ITERS: usize = 40;

/// One `large-blocks` program: 2–3 random layered blocks of 80–160 ops
/// (2–3 `NodeSet` words) with skewed execution counts. The same
/// `(pool_seed, index)` always yields the same program.
pub fn large_blocks_program(pool_seed: u64, index: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(pool_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let blocks = rng.gen_range(2..=3u32);
    let mut out = Vec::new();
    for b in 0..blocks {
        let shape = RandomDfgConfig {
            nodes: rng.gen_range(80..=160usize),
            width: rng.gen_range(3..=6usize),
            mem_fraction: 0.15,
            live_ins: 6,
        };
        let dfg = random_dfg(&shape, &mut rng);
        // Each block runs about 8x as often as the next one.
        let exec_count = 8u64.pow(blocks - b) * rng.gen_range(10..=20u64);
        out.push(BasicBlock::new(format!("b{b}"), dfg, exec_count));
    }
    Program::new(format!("large-{pool_seed}-{index}"), out)
}

/// The flow configuration of a `large-blocks` unit: one worker, every
/// block explored, one repeat.
pub fn large_blocks_config() -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    cfg.jobs = 1;
    cfg.hot_block_coverage = 1.0;
    cfg.repeats = 1;
    cfg.params.max_iterations = LARGE_BLOCKS_ITERS;
    cfg
}

/// The configuration `isex explore` runs with when given no flags but
/// `--opt` and `--jobs`: three repeats of 150 iterations on the default
/// machine, default budgets.
pub fn cli_default_config() -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    cfg.repeats = 3;
    cfg.params.max_iterations = 150;
    cfg
}

/// Parses `--flag value` pairs; a flag without a value is an error.
pub fn flag_map(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

/// The value of `name` in a parsed flag list.
pub fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing --{name}"))
}

/// User + system CPU seconds of this process so far, from `/proc/self/stat`
/// (Linux; clock ticks at the kernel's 100 Hz `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}
