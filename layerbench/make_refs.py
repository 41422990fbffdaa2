#!/usr/bin/env python3
"""Regenerates the pinned reference digests in `layerbench/refs/`.

    python3 layerbench/make_refs.py [--only WORKLOAD]

Two pools per workload: `default` (pool seed 2008, used by every
`run.py --seed`) and `held-out` (pool seed 90001, used by
`run.py --seed 90001`). Answers come from the legacy uncached path;
`refgen` fails if the default path disagrees, and the `kernels` digests are
also checked against the release `isex` binary's stdout.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

POOLS = {"default": 2008, "held-out": bench.HELD_OUT_SEED}
KERNEL_SEEDS = 8
LARGE_PROGRAMS, LARGE_SEEDS = 12, 3
SERVE_REQUESTS, CLUSTER_REQUESTS = 260, 400
# A serve-mixed miss costs tens of milliseconds because its ACO iteration
# budget (effort x repeats) is small: at most 40, and at most 10 on adpcm,
# whose O3 program is a single block on which each iteration costs several
# times what it does on the other kernels (effort 20 x 1 repeat took 44-90
# ms there on a 2-vCPU host, against a median under 20 ms elsewhere).
SERVE_BUDGETS = [(20, 1), (30, 1), (40, 1), (20, 2)]
ADPCM_BUDGETS = [(5, 1), (10, 1), (5, 2)]
BENCHES = ["crc32", "fft", "adpcm", "bitcount", "blowfish", "jpeg", "dijkstra"]
MACHINES = ["2is-4r2w", "2is-6r3w", "3is-6r3w", "3is-8r4w", "4is-8r4w", "4is-10r5w"]


def refgen(bin_dir, *args):
    out = subprocess.run([str(bin_dir / "refgen"), *args], check=True, capture_output=True,
                         text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def serve_bodies(pool_seed, count):
    """Varied requests whose miss costs tens of milliseconds."""
    rng = random.Random(f"serve-mixed:{pool_seed}")
    bodies, keys = [], set()
    while len(bodies) < count:
        name = rng.choice(BENCHES)
        effort, repeats = rng.choice(ADPCM_BUDGETS if name == "adpcm" else SERVE_BUDGETS)
        body = {"bench": name, "opt": rng.choice(["O0", "O3"]),
                "machine": rng.choice(MACHINES), "algorithm": rng.choice(["mi", "mi", "mi", "si"]),
                "seed": rng.randrange(1, 1_000_000), "repeats": repeats, "effort": effort}
        key = json.dumps(body, sort_keys=True)
        if key not in keys:
            keys.add(key)
            bodies.append(body)
    return bodies


def cluster_bodies(pool_seed, count):
    """O3 programs with two or more hot blocks and several repeats, so every
    request shards across both workers."""
    rng = random.Random(f"cluster:{pool_seed}")
    benches = [b for b in BENCHES if b != "adpcm"]
    return [{"bench": rng.choice(benches), "opt": "O3", "machine": "2is-4r2w", "algorithm": "mi",
             "seed": rng.randrange(1, 1_000_000), "repeats": 3, "effort": 100}
            for _ in range(count)]


def request_pool(bin_dir, tmp, bodies):
    path = tmp / "bodies.jsonl"
    path.write_text("".join(json.dumps(b) + "\n" for b in bodies))
    answers = refgen(bin_dir, "requests", "--file", str(path))
    return [{"body": body, "key": a["key"], "digest": bench.digest_obj(a["report"])}
            for body, a in zip(bodies, answers)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", choices=bench.WORKLOADS)
    args = ap.parse_args()
    bin_dir = bench.build()
    env = dict(os.environ, CARGO_TARGET_DIR=str(bin_dir.parent))
    subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path",
                    str(bench.HERE / "Cargo.toml"), "--bin", "refgen"], env=env, check=True)
    tmp = bench.ROOT / ".bench_out" / "refs-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for workload in bench.WORKLOADS:
        if args.only and workload != args.only:
            continue
        pools = {}
        for pool, pool_seed in POOLS.items():
            print(f"{workload} {pool} ...", file=sys.stderr, flush=True)
            if workload == "kernels":
                units = []
                for u in refgen(bin_dir, "kernels", "--pool-seed", str(pool_seed),
                                "--seeds", str(KERNEL_SEEDS)):
                    out = subprocess.run([str(bin_dir / "isex"), "explore", u["bench"], "--opt",
                                          u["opt"], "--seed", str(u["seed"])], check=True,
                                         capture_output=True, text=True).stdout
                    if out != u["text"]:
                        sys.exit(f"isex explore {u['bench']} {u['opt']} {u['seed']}: "
                                 "CLI stdout differs from the reference report")
                    units.append({"bench": u["bench"], "opt": u["opt"], "seed": u["seed"],
                                  "digest": bench.digest_text(u["text"])})
            elif workload == "large-blocks":
                units = [{"index": u["index"], "seed": u["seed"],
                          "digest": bench.digest_obj(u["report"])}
                         for u in refgen(bin_dir, "large-blocks", "--pool-seed", str(pool_seed),
                                         "--programs", str(LARGE_PROGRAMS),
                                         "--seeds", str(LARGE_SEEDS))]
            elif workload == "serve-mixed":
                units = request_pool(bin_dir, tmp, serve_bodies(pool_seed, SERVE_REQUESTS))
            else:
                units = request_pool(bin_dir, tmp, cluster_bodies(pool_seed, CLUSTER_REQUESTS))
            pools[pool] = {"pool_seed": pool_seed, "units": units}
        doc = {"workload": workload,
               "generated_by": "python3 layerbench/make_refs.py (legacy uncached path)",
               "pools": pools}
        (bench.HERE / "refs" / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
