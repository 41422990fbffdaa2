#!/usr/bin/env python3
"""Layered benchmark of the isex design-space tool.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release binaries and the in-process
runner (`layerbench/`, its own Cargo package) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, checks every answer against the
pinned references in `layerbench/refs/`, prints every metric by name and unit,
and ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
See `layerbench/README.md` for the workloads, metrics and the layer table.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = os.cpu_count() or 1
CLK_TCK = os.sysconf("SC_CLK_TCK")
WORKLOADS = ("kernels", "large-blocks", "serve-mixed", "cluster")
# `--seed HELD_OUT_SEED` draws unit inputs from the held-out reference pool;
# every other seed draws from the default pool.
HELD_OUT_SEED = 90001
# Set-ups per run; `setup_s` is their median.
SETUP_REPS = 11
# Layer self times plus the explicitly attributed front-end gap (and, on
# `cluster`, the measured remote wait) must cover each traced unit's wall
# time to within this share.
RECON_TOLERANCE = 0.05
# `serve-mixed`: requests per second (a seed moves it by at most 2%), share
# of repeats, share sent through the async job tier, and the latency limit a
# request must meet to count toward goodput. The README gives the measured
# basis of the rate and the shares.
SERVE_RATE = 20.0
SERVE_HIT_SHARE = 0.5
SERVE_ASYNC_SHARE = 0.2
SERVE_LIMIT_MS = 1000.0
# A serve-mixed run is invalid when the generator sent its p90 request this
# late: the offered load was then not the scheduled one.
GEN_LATE_LIMIT_MS = 50.0
HTTP_TIMEOUT_S = 60.0
# See `tail_percentile`. Units per 20-second run on a 2-CPU host: kernels
# 150-220 (14 programs per pass), large-blocks 50-80, serve-mixed 400,
# cluster 150-200. On serve-mixed p95 rests on a few misses plus the
# acceptor's poll phase and moved 20-30% between seeds; p90 moved 3%.
TAIL_PERCENTILE = {"kernels": 90, "large-blocks": 80, "serve-mixed": 90, "cluster": 90}
ACO_SPANS = ("aco.round", "aco.construct", "aco.merit", "aco.pheromone_update",
             "aco.extract", "eval.lower")
TIMING_COUNTERS = ("timing.asap_saved", "timing.incr_copied", "timing.incr_recomputed")


class BenchError(Exception):
    """A set-up or harness failure: the run prints no result."""


# ---------------------------------------------------------------- helpers

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def digest_text(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_obj(obj):
    """Digest of a JSON value in canonical form (sorted keys, no spaces)."""
    return digest_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def pct(values, q):
    """Linear-interpolated percentile `q` (0-100) of `values`."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(workload, n):
    """The workload's tail percentile: the highest whole percentile with at
    least ten samples beyond it at a 20-second run, lowered to one that
    does not fall on the edge between two programs' latency clusters (a
    fixed program mix puts such edges at fixed ranks). A shorter run that
    cannot put ten samples beyond it gets the highest percentile that can."""
    fitting = max(50, min(99, int(100.0 * (1.0 - 10.0 / n)))) if n > 20 else 50
    return min(TAIL_PERCENTILE[workload], fitting)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def profile_counts(metrics):
    return {s["name"]: s["count"] for s in metrics.get("phase_profile", [])}


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_child(argv):
    """Runs a process to completion; returns (exit code, stdout, wall s,
    cpu s, peak RSS MB) from its own `wait4` accounting."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Daemon:
    """A long-running process under test. Its stderr is drained by a thread;
    `wait_for` returns the first stderr line containing a marker."""

    def __init__(self, argv):
        self.argv = argv
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.lines = []
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self):
        for line in self.proc.stderr:
            with self.cond:
                self.lines.append(line.rstrip("\n"))
                self.cond.notify_all()
        with self.cond:
            self.lines.append(None)
            self.cond.notify_all()

    def wait_for(self, marker, timeout=30.0):
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for line in self.lines:
                    if line is None:
                        raise BenchError(f"{self.argv[0]} exited during start-up")
                    if marker in line:
                        return line
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError(f"{self.argv[0]}: no `{marker}` within {timeout}s")
                self.cond.wait(left)

    def cpu_s(self):
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self):
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)


def http_call(addr, method, path, body=None, headers=None, timeout=HTTP_TIMEOUT_S):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def listen_addr(line):
    return line.rsplit("://", 1)[-1].strip() if "://" in line else line.rsplit(" ", 1)[-1].strip()


# ------------------------------------------------------------ trace spans

def load_spans(path):
    """Complete (`ph: X`) events of a Chrome trace as span dicts, in µs."""
    with open(path) as f:
        events = json.load(f)
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({"name": e["name"], "id": args.get("id"), "parent": args.get("parent"),
                      "start": float(e["ts"]), "dur": float(e["dur"]),
                      "tid": (e.get("pid"), e.get("tid")), "block": args.get("block")})
    return spans


def remote_inflight(spans, events_path):
    """Per remotely run block, the interval (µs) the coordinator had it in
    flight: from the end of its `job.dispatch` span, for the dispatch-to-
    result time the coordinator measures itself and reports as `elapsed_ms`
    in the block's `JobFinish` event."""
    sent = {s["block"]: s["start"] + s["dur"] for s in spans if s["name"] == "job.dispatch"}
    out = []
    with open(events_path) as f:
        for line in f:
            fin = json.loads(line).get("JobFinish")
            if fin is not None and str(fin["block_index"]) in sent:
                t = sent[str(fin["block_index"])]
                out.append((t, t + fin["elapsed_ms"] * 1e3))
    return out


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_self_times(spans):
    """Per span name: count, total µs, self µs (duration minus the part of
    its interval that child spans cover)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    agg = {}
    for s in spans:
        kids = children.get(s["id"], []) if s["id"] is not None else []
        lo, hi = s["start"], s["start"] + s["dur"]
        self_us = s["dur"] - covered([(k["start"], k["start"] + k["dur"]) for k in kids], lo, hi)
        a = agg.setdefault(s["name"], {"count": 0, "total_us": 0.0, "self_us": 0.0})
        a["count"] += 1
        a["total_us"] += s["dur"]
        a["self_us"] += self_us
    return agg


def lpt_makespan(durations, workers):
    loads = [0.0] * max(1, workers)
    for d in sorted(durations, reverse=True):
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


def analyse_trace(spans, workers, phases, inflight=()):
    """Per-unit layer figures from one unit's spans (times in ms). The
    explore wall is the `flow.explore` span, or the run's own
    `phases.explore_ms` where no such span exists (the cluster coordinator).
    `inflight`: the coordinator's remote in-flight intervals (see
    `remote_inflight`); the part of them no span covers is `wait_ms`."""
    agg = span_self_times(spans)
    jobs = [s["dur"] / 1e3 for s in spans if s["name"] == "engine.job"]
    explore = [s["dur"] / 1e3 for s in spans if s["name"] == "flow.explore"]
    explore_ms = sum(explore) if explore else phases["explore_ms"]
    # The run's top-level spans: roots, children of a daemon's
    # `request.explore` root, and the cluster workers' `worker.block`s. Their
    # union is the part of the run that spans account for.
    roots = {s["id"] for s in spans if s["name"] == "request.explore"}
    top = [(s["start"], s["start"] + s["dur"]) for s in spans
           if s["name"] != "request.explore"
           and (s["parent"] is None or s["parent"] in roots or s["name"] == "worker.block")]
    inflight = list(inflight)
    lo = min((a for a, _ in top + inflight), default=0.0)
    hi = max((b for _, b in top + inflight), default=0.0)
    top_ms = covered(top, lo, hi) / 1e3
    job_sum = sum(jobs)
    out = {"agg": agg, "jobs": jobs, "explore_ms": explore_ms, "workers": max(1, workers),
           "top_spans_ms": top_ms, "job_sum_ms": job_sum,
           "wait_ms": covered(top + inflight, lo, hi) / 1e3 - top_ms}
    if jobs:
        out["ceiling"] = job_sum / max(jobs)
        out["lpt_ms"] = lpt_makespan(jobs, NPROC)
    if explore_ms > 0:
        out["busy_ratio"] = job_sum / (max(1, workers) * explore_ms)
        out["speedup"] = job_sum / explore_ms
        out["idle_ms"] = max(0.0, max(1, workers) * explore_ms - job_sum)
    return out


# -------------------------------------------------------------- the bench

class Bench:
    def __init__(self, args, bin_dir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.traced = args.trace == 1
        self.bin = bin_dir
        self.pool = "held-out" if args.seed == HELD_OUT_SEED else "default"
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        out_root = ROOT / ".bench_out"
        self.tmp = out_root / f"run-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.results_dir = out_root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.counters_dir = out_root / "counters"
        self.counters_dir.mkdir(parents=True, exist_ok=True)
        self.failures = []      # one line per failed unit
        self.attempted = 0
        self.counters = {}      # unit key -> exact work counters
        self.metrics = {}       # name -> (value, unit)
        self.extra = {}         # printed and recorded, not in the JSON line
        self.daemons = []
        self.setup_times = []
        self.t_base = time.perf_counter()
        self.spans = []         # benchmark spans of a traced run, kept in memory

    # -- bookkeeping
    def fail(self, what):
        self.failures.append(what)
        if len(self.failures) <= 5:
            log(f"FAIL {what}")

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def note(self, name, value, unit=""):
        self.extra[name] = (value, unit)

    def span(self, name, start, end, unit, parent=None, **args):
        """Records a benchmark span (`perf_counter` seconds) in a traced
        run; spans of one unit share `unit`. Returns its id."""
        if not self.traced:
            return None
        sid = len(self.spans) + 1
        self.spans.append({"name": name, "id": sid, "parent": parent, "unit": unit,
                           "start": start, "end": end, "args": args})
        return sid

    def write_spans(self, path):
        """Writes the benchmark spans as Chrome trace events (pid 0)."""
        events = [{"name": s["name"], "cat": "layerbench", "ph": "X", "pid": 0, "tid": 0,
                   "ts": (s["start"] - self.t_base) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                   "args": dict(s["args"], id=s["id"], parent=s["parent"], unit=s["unit"])}
                  for s in self.spans]
        path.write_text(json.dumps(events))

    def record_counters(self, key, metrics, spans_agg=None):
        counts = profile_counts(metrics)
        c = {"ant_iterations": metrics["ant_iterations"],
             "eval.cache_hit": counts.get("eval.cache_hit", 0),
             "eval.cache_miss": counts.get("eval.cache_miss", 0),
             "jobs_completed": metrics["jobs_completed"],
             "cluster.jobs_redispatched": counts.get("cluster.jobs_redispatched", 0)}
        for name in TIMING_COUNTERS:
            c[name] = counts.get(name, 0)
        if spans_agg is not None:
            c["aco.merit"] = spans_agg.get("aco.merit", {}).get("count", 0)
            c["engine.job"] = spans_agg.get("engine.job", {}).get("count", 0)
            key = key + " traced"
        old = self.counters.get(key)
        if old is not None and old != c:
            self.fail(f"work counters differ within one run for {key}")
        self.counters[key] = c

    def check_counters_against_earlier_runs(self):
        """Every unit key seen by an earlier run of the same binaries must
        reproduce its work counters exactly."""
        h = hashlib.sha256()
        for name in ("isex", "isexd", "isexd-coordinator", "isexd-worker", "layerbench"):
            with open(self.bin / name, "rb") as f:
                h.update(f.read())
        path = self.counters_dir / f"{self.workload}-{h.hexdigest()[:16]}.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        mismatched = [k for k, v in self.counters.items() if k in known and known[k] != v]
        for k in mismatched[:5]:
            log(f"counters for {k}: now {self.counters[k]}, before {known[k]}")
        for _ in mismatched:
            self.fail("work counters not reproduced")
        checked = sum(1 for k in self.counters if k in known)
        known.update(self.counters)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        tmp.replace(path)
        self.note("counters.checked", checked, "units")
        self.note("counters.mismatched", len(mismatched), "units")

    def load_refs(self, name):
        with open(HERE / "refs" / f"{name}.json") as f:
            refs = json.load(f)
        return refs["pools"][self.pool]

    def timed_setup(self, once, discard=None):
        """Runs the set-up `SETUP_REPS` times and records the median as
        `setup_s`. Every repetition but the last is torn down (by `discard`,
        or by stopping its daemons) outside the timed interval."""
        state = None
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            t0 = time.perf_counter()
            state = once(last=last)
            self.setup_times.append(time.perf_counter() - t0)
            if not last:
                if discard is not None:
                    discard(state)
                self.stop_daemons()
        if self.traced:
            self.note("setup_s", statistics.median(self.setup_times), "s")
        else:
            self.put("setup_s", statistics.median(self.setup_times), "s")
        return state

    def stop_daemons(self):
        for d in self.daemons:
            d.stop()
        self.daemons = []

    # -- shared end-to-end summary
    def end_to_end(self, lats_ms, good, timed_s, iterations, cpu_s, peak_mb):
        n = len(lats_ms)
        if n == 0:
            raise BenchError("no unit completed")
        q = tail_percentile(self.workload, n)
        self.put("lat_p50_ms", pct(lats_ms, 50), "ms")
        self.put("lat_tail_ms", pct(lats_ms, q), "ms")
        self.note("lat_tail.percentile", q)
        self.note("lat_tail.samples_beyond", round(n * (100 - q) / 100.0, 1))
        self.note("units", n)
        self.put("goodput_per_s", good / timed_s, "1/s")
        self.put("explore_iters_per_s", iterations / timed_s, "1/s")
        self.put("cpu_s_per_unit", cpu_s / n, "s")
        self.put("peak_rss_mb", peak_mb, "MB")
        self.note("timed_s", timed_s, "s")

    # -- shared per-layer summary from traced units
    def per_layer(self, units, front_name, overhead_ratio, federated=None):
        """`units`: dicts with wall_ms, metrics (RunMetrics), trace (analysis).
        `federated`: run totals of the eval-cache and timing counters, for
        runs whose responses do not carry them (the cluster's workers report
        them on heartbeats instead)."""
        if not units:
            raise BenchError("no traced unit completed")
        n = len(units)
        for name in ACO_SPANS + ("engine.job",):
            self.put(f"{name}.self_ms",
                     mean(u["trace"]["agg"].get(name, {}).get("self_us", 0.0) / 1e3 for u in units),
                     "ms")
            self.put(f"{name}.count",
                     mean(u["trace"]["agg"].get(name, {}).get("count", 0) for u in units), "count")
        merit = sum(u["trace"]["agg"].get("aco.merit", {}).get("total_us", 0.0) for u in units)
        walks = sum(u["trace"]["agg"].get("aco.merit", {}).get("count", 0) for u in units)
        self.put("aco.merit.us_per_walk", merit / max(1, walks), "us")
        totals = federated or {
            name: sum(profile_counts(u["metrics"]).get(name, 0) for u in units)
            for name in ("eval.cache_hit", "eval.cache_miss") + TIMING_COUNTERS}
        hits, misses = totals["eval.cache_hit"], totals["eval.cache_miss"]
        self.put("eval.cache_hit_ratio", hits / max(1, hits + misses), "ratio")
        for name in TIMING_COUNTERS:
            self.put(name, totals[name] / n, "count")
        for key, metric in (("busy_ratio", "engine.busy_ratio"), ("ceiling", "engine.ceiling"),
                            ("lpt_ms", "engine.lpt_bound_ms"), ("idle_ms", "engine.idle_ms")):
            vals = [u["trace"][key] for u in units if key in u["trace"]]
            unit = "ms" if metric.endswith("_ms") else "ratio"
            self.put(metric, statistics.median(vals) if vals else 0.0, unit)
        phases = [u["metrics"]["phases"] for u in units]
        self.put("flow.explore_ms", mean(p["explore_ms"] for p in phases), "ms")
        self.put("flow.select_ms", mean(p["select_ms"] for p in phases), "ms")
        self.put("flow.replace_ms", mean(p["replace_ms"] for p in phases), "ms")
        self.put("flow.other_ms", mean(u["wall_ms"] - p["explore_ms"] - p["select_ms"]
                                       - p["replace_ms"] for u, p in zip(units, phases)), "ms")
        self.put("trace.overhead_ratio", overhead_ratio, "ratio")
        self.reconcile(units, front_name)
        self.note("traced.units", n)

    def reconcile(self, units, front_name):
        """Reconciliation row: per-unit wall = front-end gap (wall minus the
        program's own `phases.total_ms`) + the run's top-level spans (+ on
        `cluster`, `cluster.wait_ms`: time a remote block was in flight by
        the coordinator's own dispatch-to-result clock that no span covers)
        + time inside the run that nothing measured covers. The last must
        stay within `RECON_TOLERANCE` of the wall."""
        wall = mean(u["wall_ms"] for u in units)
        front = mean(u["wall_ms"] - u["metrics"]["phases"]["total_ms"] for u in units)
        spans = mean(u["trace"]["top_spans_ms"] for u in units)
        row = {"wall_ms": wall, front_name: front, "run_spans_ms": spans}
        unattributed = wall - front - spans
        if self.workload == "cluster":
            wait = mean(u["trace"]["wait_ms"] for u in units)
            row["cluster.wait_ms"] = wait
            unattributed -= wait
        workers = mean(u["trace"]["workers"] for u in units)
        for name in ACO_SPANS + ("engine.job", "sched.list"):
            row[f"{name}.self_ms/worker"] = mean(
                u["trace"]["agg"].get(name, {}).get("self_us", 0.0) / 1e3 for u in units) / workers
        row["engine.idle_ms/worker"] = mean(u["trace"].get("idle_ms", 0.0) for u in units) / workers
        for name in ("flow.explore", "flow.patterns", "flow.select", "flow.replace"):
            row[f"{name}.self_ms"] = mean(
                u["trace"]["agg"].get(name, {}).get("self_us", 0.0) / 1e3 for u in units)
        row["unattributed_ms"] = unattributed
        share = abs(unattributed) / wall if wall > 0 else 0.0
        row["unattributed_share"] = share
        row["tolerance"] = RECON_TOLERANCE
        row["within_tolerance"] = share <= RECON_TOLERANCE
        self.note("reconciliation", row)
        if share > RECON_TOLERANCE:
            self.fail(f"reconciliation: {share:.1%} of unit wall time is in no span "
                      f"(tolerance {RECON_TOLERANCE:.0%})")

    def probe(self, programs, payloads):
        """Single-layer timings (dfg, sched, store) on this run's inputs."""
        payload_path = self.tmp / "payloads.jsonl"
        payload_path.write_text("".join(p + "\n" for p in payloads))
        spec = self.tmp / "probe.json"
        spec.write_text(json.dumps({"programs": programs, "payloads": str(payload_path)}))
        t0 = time.perf_counter()
        code, out, _, _, _ = run_child([str(self.bin / "layerbench"), "probe", "--spec", str(spec),
                                        "--store-dir", str(self.tmp / "probe-store")])
        self.span("layerbench.probe", t0, time.perf_counter(), "probe")
        if code != 0:
            raise BenchError("layerbench probe failed")
        probe = json.loads(out.strip().splitlines()[-1])
        units = {"dfg.convex_ns": "ns", "dfg.ports_ns": "ns", "dfg.reach_us": "us",
                 "dfg.words": "count", "sched.list_us": "us", "sched.timing_us": "us",
                 "store.insert_us": "us", "store.lookup_us": "us", "store.entries": "count",
                 "store.bytes": "bytes"}
        for name, unit in units.items():
            self.put(name, probe[name], unit)

    # -- output
    def provenance(self):
        try:
            rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
        except OSError:
            rustc = "unknown"
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown"
        return {"host_cpus": NPROC, "rustc": rustc, "git_commit": commit,
                "workload": self.workload, "seed": self.seed, "pool": self.pool,
                "run_seconds": self.seconds, "trace": int(self.traced)}

    def finish(self):
        failed = len(self.failures)
        correct = failed == 0
        self.note("fail_ratio", failed / max(1, self.attempted))
        prov = self.provenance()
        log(f"provenance: {json.dumps(prov)}")
        for name, (value, unit) in self.metrics.items():
            print(f"{self.workload:<13} {name:<34} {value:>16.6g} {unit}")
        for name, (value, unit) in self.extra.items():
            rows = value.items() if isinstance(value, dict) else [(None, value)]
            for key, v in rows:
                label = name if key is None else f"{name}.{key}"
                shown = json.dumps(v) if isinstance(v, (dict, list)) else v
                print(f"{self.workload:<13} {label:<34} {shown} {unit}".rstrip())
        print(f"{self.workload:<13} {'setup_s.samples':<34} "
              f"{', '.join(f'{t:.4f}' for t in self.setup_times)} s")
        result = {"correct": correct, "attempted": self.attempted, "failed": failed,
                  "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()}}
        record = {"provenance": prov, "result": result,
                  "extra": {n: {"value": v, "unit": u} for n, (v, u) in self.extra.items()},
                  "setup_samples_s": self.setup_times, "failures": self.failures[:50]}
        name = f"{self.workload}-seed{self.seed}-trace{int(self.traced)}"
        (self.results_dir / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
        if self.traced:
            self.write_spans(self.results_dir / f"{name}.spans.json")
        print(json.dumps(result))


# ---------------------------------------------------------------- kernels

def kernels(b):
    pool = b.load_refs("kernels")
    isex = str(b.bin / "isex")
    refs = {(u["bench"], u["opt"], u["seed"]): u["digest"] for u in pool["units"]}
    programs = sorted({(u["bench"], u["opt"]) for u in pool["units"]})
    seeds = {p: sorted(s for (bn, o, s) in refs if (bn, o) == p) for p in programs}

    def cli_unit(bench, opt, seed, traced, k):
        mpath = b.tmp / f"m{k}.json"
        argv = [isex, "explore", bench, "--opt", opt, "--jobs", str(NPROC), "--seed", str(seed),
                "--metrics", str(mpath)]
        tpath = b.tmp / f"t{k}.json"
        if traced:
            argv += ["--profile", "--trace", str(tpath)]
        b.attempted += 1
        t0 = time.perf_counter()
        code, out, wall, cpu, rss = run_child(argv)
        b.span("cli.explore", t0, time.perf_counter(), f"k{k}-{int(traced)}", bench=bench, opt=opt,
               seed=seed, traced=traced)
        unit = {"bench": bench, "opt": opt, "seed": seed, "wall_ms": wall * 1e3, "cpu_s": cpu,
                "rss_mb": rss, "ok": False, "traced": traced}
        if code != 0:
            b.fail(f"isex explore {bench} {opt} seed {seed}: exit {code}")
            return unit
        text = out.split("\nphase profile:")[0]
        if digest_text(text) != refs[(bench, opt, seed)]:
            b.fail(f"{bench} {opt} seed {seed}: stdout differs from the pinned reference")
            return unit
        metrics = json.loads(mpath.read_text())
        mpath.unlink()
        if metrics["jobs_failed"] or metrics.get("degraded"):
            b.fail(f"{bench} {opt} seed {seed}: damaged run")
            return unit
        unit.update(ok=True, metrics=metrics, text=text)
        if traced:
            spans = load_spans(tpath)
            tpath.unlink()
            unit["trace"] = analyse_trace(spans, metrics["workers"], metrics["phases"])
            b.record_counters(f"{bench} {opt} {seed}", metrics, unit["trace"]["agg"])
        else:
            b.record_counters(f"{bench} {opt} {seed}", metrics)
        return unit

    def setup(last):
        b.load_refs("kernels")
        bench, opt = programs[0]
        warm = cli_unit(bench, opt, seeds[programs[0]][0], False, "warm")
        b.attempted -= 1
        if not warm["ok"]:
            raise BenchError("warm-up unit failed")
        return None

    b.timed_setup(setup)
    # Pass p runs each program with the (p mod m)-th seed of a per-program
    # permutation, so every run weighs each program's seeds evenly.
    perms = {p: b.rng.sample(seeds[p], len(seeds[p])) for p in programs}
    units = []
    cpu0 = self_cpu_s()
    t0 = time.perf_counter()
    k = 0
    passes = 0
    while time.perf_counter() - t0 < b.seconds:
        order = list(programs)
        b.rng.shuffle(order)
        for bench, opt in order:
            perm = perms[(bench, opt)]
            seed = perm[passes % len(perm)]
            modes = [False] if not b.traced else ([False, True] if k % 2 == 0 else [True, False])
            for traced in modes:
                units.append(cli_unit(bench, opt, seed, traced, k))
            k += 1
        passes += 1
    timed_s = time.perf_counter() - t0
    cpu = self_cpu_s() - cpu0 + sum(u["cpu_s"] for u in units)
    ok = [u for u in units if u["ok"]]
    if not b.traced:
        b.end_to_end([u["wall_ms"] for u in units], len(ok), timed_s,
                     sum(u["metrics"]["ant_iterations"] for u in ok), cpu,
                     max(u["rss_mb"] for u in units))
        b.note("cli.gap_ms", statistics.median(u["wall_ms"] - u["metrics"]["phases"]["total_ms"]
                                              for u in ok), "ms")
        return
    plain = [u for u in ok if not u["traced"]]
    traced = [u for u in ok if u["traced"]]
    ratio = statistics.median(u["wall_ms"] for u in traced) / statistics.median(
        u["wall_ms"] for u in plain)
    b.per_layer(traced, "cli.gap_ms", ratio)
    b.note("cli.gap_ms", statistics.median(u["wall_ms"] - u["metrics"]["phases"]["total_ms"]
                                          for u in traced), "ms")
    # Parallel ceiling per program: what --jobs nproc could reach at best
    # with today's job granularity, against the speed-up it measured.
    ceiling = {}
    for prog in programs:
        us = [u for u in traced if (u["bench"], u["opt"]) == prog and "ceiling" in u["trace"]]
        if us:
            ceiling[f"{prog[0]}-{prog[1]}"] = {
                "jobs": statistics.median(len(u["trace"]["jobs"]) for u in us),
                "engine.ceiling": round(statistics.median(u["trace"]["ceiling"] for u in us), 3),
                "engine.lpt_bound_ms": round(statistics.median(u["trace"]["lpt_ms"] for u in us), 3),
                "engine.busy_ratio": round(statistics.median(u["trace"]["busy_ratio"] for u in us), 3),
                "measured_speedup": round(statistics.median(u["trace"]["speedup"] for u in us), 3),
                "workers": NPROC}
    b.note("engine.parallel_ceiling", ceiling)
    b.note("trace.overhead_ratio.workers", NPROC)
    b.probe([{"bench": bn, "opt": o} for bn, o in programs], [json.dumps(u["text"]) for u in traced])


# ----------------------------------------------------------- large-blocks

def large_blocks(b):
    pool = b.load_refs("large-blocks")
    refs = {(u["index"], u["seed"]): u["digest"] for u in pool["units"]}
    indices = sorted({i for i, _ in refs})
    seeds = {i: sorted(s for (j, s) in refs if j == i) for i in indices}
    perms = {i: b.rng.sample(seeds[i], len(seeds[i])) for i in indices}
    passes = []
    for p in range(200):
        order = list(indices)
        b.rng.shuffle(order)
        passes.append([(i, perms[i][p % len(perms[i])]) for i in order])
    unit_arg = ",".join(f"{i}:{s}" for p in passes for i, s in p)
    trace_dir = b.tmp / "traces"
    trace_dir.mkdir()
    argv = [str(b.bin / "layerbench"), "large-blocks", "--pool-seed", str(pool["pool_seed"]),
            "--units", unit_arg, "--pass-len", str(len(indices)), "--seconds", str(b.seconds),
            "--trace", "1" if b.traced else "0", "--trace-dir", str(trace_dir)]

    def setup(last):
        p = subprocess.Popen(argv + ["--setup-only", "0" if last else "1"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.stdout.readline().strip() != "ready":
            p.kill()
            p.wait()
            raise BenchError("layerbench large-blocks failed during set-up")
        return p

    def discard(p):
        p.stdout.read()
        p.wait()

    cpu0 = self_cpu_s()
    p = b.timed_setup(setup, discard)
    t_ready = time.perf_counter()
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError(f"layerbench large-blocks exited {p.returncode}")
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    summary = lines.pop()["summary"]
    units = []
    for k, rec in enumerate(lines):
        b.attempted += 1
        key = (rec["index"], rec["seed"])
        start = t_ready + rec["start_ms"] / 1e3
        b.span("flow.run_flow", start, start + rec["wall_ms"] / 1e3, f"u{k}", index=key[0],
               seed=key[1], traced=rec["traced"])
        rec["ok"] = False
        if digest_obj(rec["report"]) != refs[key]:
            b.fail(f"large-blocks program {key[0]} seed {key[1]}: report differs from reference")
        elif rec["metrics"]["jobs_failed"]:
            b.fail(f"large-blocks program {key[0]} seed {key[1]}: damaged run")
        else:
            rec["ok"] = True
            if rec["traced"]:
                spans = load_spans(trace_dir / rec["trace"])
                rec["trace"] = analyse_trace(spans, rec["metrics"]["workers"], rec["metrics"]["phases"])
                b.record_counters(f"{key[0]} {key[1]}", rec["metrics"], rec["trace"]["agg"])
            else:
                b.record_counters(f"{key[0]} {key[1]}", rec["metrics"])
        units.append(rec)
    ok = [u for u in units if u["ok"]]
    if not b.traced:
        cpu = summary["cpu_s"] + self_cpu_s() - cpu0
        b.end_to_end([u["wall_ms"] for u in units], len(ok), summary["timed_s"],
                     sum(u["metrics"]["ant_iterations"] for u in ok), cpu, ru.ru_maxrss / 1024.0)
        return
    plain = [u for u in ok if not u["traced"]]
    traced = [u for u in ok if u["traced"]]
    ratio = statistics.median(u["wall_ms"] for u in traced) / statistics.median(
        u["wall_ms"] for u in plain)
    b.per_layer(traced, "harness_ms", ratio)
    b.note("trace.overhead_ratio.workers", 1)
    b.note("trace.dropped", sum(u["dropped"] for u in traced))
    b.probe([{"pool_seed": pool["pool_seed"], "index": i} for i in indices],
            [json.dumps(u["report"], sort_keys=True) for u in traced])


# ------------------------------------------------------------ serve-mixed

def explore_unit(addr, body, use_jobs, trace_id):
    """One HTTP unit: `POST /v1/explore`, or `POST /v1/jobs` + `/wait`.
    Returns (status, parsed answer or None)."""
    headers = {"Content-Type": "application/json", "X-Isex-Trace-Id": trace_id}
    if not use_jobs:
        status, data = http_call(addr, "POST", "/v1/explore", json.dumps(body), headers)
        return status, (json.loads(data) if status == 200 else None)
    status, data = http_call(addr, "POST", "/v1/jobs", json.dumps(body), headers)
    if status != 202:
        return status, None
    job = json.loads(data)["job_id"]
    status, data = http_call(addr, "GET", f"/v1/jobs/{job}/wait?timeout_ms=55000", None, headers)
    if status != 200:
        return status, None
    doc = json.loads(data)
    return (200 if doc.get("status") == "done" else 599), doc


def try_explore(addr, body, use_jobs, trace_id):
    try:
        return explore_unit(addr, body, use_jobs, trace_id)
    except (OSError, http.client.HTTPException, ValueError) as e:
        return 0, {"error": str(e)}


def check_answer(b, kind, req, status, doc):
    """Checks one HTTP answer against the pinned reference digest."""
    b.attempted += 1
    if status != 200 or doc is None:
        b.fail(f"{kind} {req['key']}: status {status}")
    elif digest_obj(doc["report"]) != req["digest"]:
        b.fail(f"{kind} {req['key']}: report differs from the pinned single-node reference")
    elif doc.get("degraded") or doc["metrics"]["jobs_failed"]:
        b.fail(f"{kind} {req['key']}: damaged answer")
    else:
        return True
    return False


def stratified_order(rng, count, stratum):
    """Indices `0..count` in an order whose every prefix samples the strata
    evenly (round-robin over the strata, shuffled within and between
    rounds), so each run's units cost the same mix whatever the seed."""
    bins = {}
    for i in range(count):
        bins.setdefault(stratum(i), []).append(i)
    bins = [rng.sample(v, len(v)) for _, v in sorted(bins.items())]
    order = []
    while any(bins):
        for bin_ in rng.sample(bins, len(bins)):
            if bin_:
                order.append(bin_.pop())
    return order


def serve_plan(b, requests):
    """Open-loop schedule: a Poisson process conditioned on its count (so the
    offered load is exact), a fixed share of repeats, a share of async jobs."""
    rate = SERVE_RATE * b.rng.uniform(0.98, 1.02)
    n = max(1, round(rate * b.seconds))
    due = sorted(b.rng.uniform(0.0, b.seconds) for _ in range(n))
    # Misses round-robin over the 14 programs: every run sends the same mix.
    fresh = stratified_order(b.rng, len(requests),
                             lambda i: (requests[i]["body"]["bench"], requests[i]["body"]["opt"]))
    # A repeat only points at a request due at least a second earlier, so
    # the first answer is already cached: a repeat is a hit, not a coalesce.
    eligible = [i for i, t in enumerate(due) if t >= 1.0]
    hits = set(b.rng.sample(eligible, min(len(eligible), round(SERVE_HIT_SHARE * n))))
    plan = []
    for i, t in enumerate(due):
        earlier = [p for p in plan if not p["hit"] and p["due"] <= t - 1.0]
        if i in hits and earlier:
            plan.append({"due": t, "req": b.rng.choice(earlier)["req"], "hit": True})
            continue
        if not fresh:
            raise BenchError("serve-mixed request pool exhausted; regenerate refs with more")
        plan.append({"due": t, "req": fresh.pop(0), "hit": False})
    for p in plan:
        p["jobs"] = b.rng.random() < SERVE_ASYNC_SHARE
    return plan, rate


def serve_phase(addr, plan, requests, connections):
    """Sends `plan` from `connections` threads; each request's latency is
    timed from its due time, lateness from due time to send."""
    lock = threading.Lock()
    cursor = [0]
    results = [None] * len(plan)
    t0 = time.perf_counter()

    def sender():
        while True:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            if k >= len(plan):
                return
            p = plan[k]
            due_at = t0 + p["due"]
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, doc = try_explore(addr, requests[p["req"]]["body"], p["jobs"], f"u{k}")
            done = time.perf_counter()
            results[k] = {"lat_ms": (done - due_at) * 1e3, "late_ms": (sent - due_at) * 1e3,
                          "status": status, "doc": doc, "plan": p, "trace_id": f"u{k}",
                          "times": (due_at, sent, done)}

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, time.perf_counter() - t0


def serve_mixed(b):
    requests = b.load_refs("serve-mixed")["units"]
    plan, rate = serve_plan(b, requests)
    connections = min(2, NPROC)
    warm_body = {"bench": "crc32", "opt": "O3", "seed": 1, "effort": 40, "repeats": 2}

    def start(traced):
        run_dir = b.tmp / f"serve-{len(b.setup_times)}-{int(traced)}"
        (run_dir / "store").mkdir(parents=True)
        argv = [str(b.bin / "isexd"), "--addr", "127.0.0.1:0", "--workers", str(NPROC),
                "--store-dir", str(run_dir / "store")]
        if traced:
            (run_dir / "traces").mkdir()
            argv += ["--trace-dir", str(run_dir / "traces"), "--trace-keep", "100000"]
        d = Daemon(argv)
        b.daemons.append(d)
        addr = listen_addr(d.wait_for("listening on"))
        status, _ = try_explore(addr, warm_body, False, "warm-up")
        if status != 200:
            raise BenchError(f"serve warm-up answered {status}")
        return d, addr, run_dir / "traces"

    def run(d, addr, phase):
        cpu0 = self_cpu_s() + d.cpu_s()
        results, timed_s = serve_phase(addr, plan, requests, connections)
        cpu = self_cpu_s() + d.cpu_s() - cpu0
        peak = d.peak_rss_mb()
        status, data = http_call(addr, "GET", "/metrics")
        server = json.loads(data) if status == 200 else {}
        b.stop_daemons()
        first = {}
        for k, r in enumerate(results):
            due_at, sent, done = r["times"]
            root = b.span("serve.request", due_at, done, f"{phase}u{k}", hit=r["plan"]["hit"],
                          jobs=r["plan"]["jobs"])
            b.span("http.exchange", sent, done, f"{phase}u{k}", parent=root)
            req = requests[r["plan"]["req"]]
            r["ok"] = check_answer(b, "serve", req, r["status"], r["doc"])
            if r["ok"] and first.setdefault(req["key"], r["doc"]["report"]) != r["doc"]["report"]:
                b.fail(f"serve {req['key']}: repeat answer differs from the first answer")
                r["ok"] = False
            if r["ok"]:
                r["source"] = r["doc"].get("source", "run")
                if r["source"] == "run":
                    b.record_counters(req["key"], r["doc"]["metrics"])
        return results, timed_s, cpu, peak, server

    d, addr, _ = b.timed_setup(lambda last: start(False))
    units, timed_s, cpu, peak, server = run(d, addr, "plain-")
    good = [u for u in units if u["ok"]]
    runs = [u for u in good if u["source"] == "run"]
    served = [u for u in good if u["source"] != "run"]
    late_p90 = pct([u["late_ms"] for u in units], 90)
    b.note("gen.late_p90_ms", late_p90, "ms")
    b.note("gen.connections", connections)
    b.note("gen.rate_per_s", rate, "1/s")
    if late_p90 > GEN_LATE_LIMIT_MS:
        b.fail(f"run invalid: generator p90 lateness {late_p90:.1f} ms > {GEN_LATE_LIMIT_MS} ms")
    b.note("serve.latency_limit_ms", SERVE_LIMIT_MS, "ms")
    b.note("serve.hit_ms", statistics.median(u["lat_ms"] for u in served) if served else 0.0, "ms")
    b.note("serve.miss_ms", statistics.median(u["lat_ms"] for u in runs) if runs else 0.0, "ms")
    b.note("serve.overhead_ms", statistics.median(
        u["lat_ms"] - u["doc"]["metrics"]["phases"]["total_ms"] for u in runs) if runs else 0.0,
        "ms")
    b.note("serve.cache_hit_ratio", len(served) / max(1, len(good)), "ratio")
    b.note("serve.sources", {s: sum(1 for u in good if u["source"] == s)
                             for s in sorted({u["source"] for u in good})})
    b.note("serve.shed", sum(1 for u in units if u["status"] == 503))
    b.note("jobs.coalesced", server.get("jobs", {}).get("coalesced", 0))
    if not b.traced:
        in_limit = sum(1 for u in good if u["lat_ms"] <= SERVE_LIMIT_MS)
        b.end_to_end([u["lat_ms"] for u in units], in_limit, timed_s,
                     sum(u["doc"]["metrics"]["ant_iterations"] for u in runs), cpu, peak)
        return
    # The traced daemon replays the same plan right after the untraced one.
    d, addr, trace_dir = start(True)
    tunits = run(d, addr, "traced-")[0]
    traced = []
    for u in tunits:
        path = trace_dir / f"{u['trace_id']}.trace.json"
        if u["ok"] and u["source"] == "run" and path.exists():
            traced.append({"wall_ms": u["lat_ms"], "metrics": u["doc"]["metrics"],
                           "trace": analyse_trace(load_spans(path), u["doc"]["metrics"]["workers"],
                                                  u["doc"]["metrics"]["phases"])})
    ratio = statistics.median(u["wall_ms"] for u in traced) / statistics.median(
        u["lat_ms"] for u in runs)
    b.per_layer(traced, "serve.overhead_ms", ratio)
    programs = {(requests[p["req"]]["body"]["bench"], requests[p["req"]]["body"]["opt"])
                for p in plan}
    b.probe([{"bench": bn, "opt": o} for bn, o in sorted(programs)],
            [json.dumps(u["doc"]["report"], sort_keys=True) for u in runs])


# ---------------------------------------------------------------- cluster

def cluster(b):
    pool = b.load_refs("cluster")["units"]
    # Round-robin over benchmarks: every run sends the same program mix.
    requests = [pool[i] for i in stratified_order(b.rng, len(pool),
                                                  lambda i: pool[i]["body"]["bench"])]
    warm_body = {"bench": "crc32", "opt": "O3", "seed": 1, "effort": 40, "repeats": 2}

    def start(traced):
        run_dir = b.tmp / f"cluster-{len(b.setup_times)}-{int(traced)}"
        run_dir.mkdir(parents=True)
        extra = []
        if traced:
            (run_dir / "traces").mkdir()
            extra = ["--trace-dir", str(run_dir / "traces"), "--trace-keep", "100000"]
        coord = Daemon([str(b.bin / "isexd-coordinator"), "--cluster-addr", "127.0.0.1:0",
                        "--addr", "127.0.0.1:0", "--workers", str(NPROC)] + extra)
        b.daemons.append(coord)
        cluster_addr = listen_addr(coord.wait_for("workers connect to"))
        addr = listen_addr(coord.wait_for("listening on"))
        for name in ("w0", "w1"):
            b.daemons.append(Daemon([str(b.bin / "isexd-worker"), "--connect", cluster_addr,
                                     "--name", name]))
        deadline = time.monotonic() + 30
        while True:
            status, data = http_call(addr, "GET", "/metrics")
            alive = json.loads(data).get("cluster", {}).get("workers_alive", 0) if status == 200 else 0
            if alive >= 2:
                break
            if time.monotonic() > deadline:
                raise BenchError("cluster workers did not register")
            time.sleep(0.001)
        status, _ = try_explore(addr, warm_body, False, "warm-up")
        if status != 200:
            raise BenchError(f"cluster warm-up answered {status}")
        return addr, run_dir / "traces"

    def federated(addr):
        """Worker-reported eval-cache totals; waits out one heartbeat first.
        The `timing.*` counters are 0: the workers' heartbeats do not carry
        them (they are flow outcome stats, not tracer spans)."""
        time.sleep(1.2)
        status, data = http_call(addr, "GET", "/metrics")
        doc = json.loads(data)["cluster"] if status == 200 else {}
        out = {"eval.cache_hit": doc.get("eval", {}).get("hits", 0),
               "eval.cache_miss": doc.get("eval", {}).get("misses", 0)}
        out.update((name, 0) for name in TIMING_COUNTERS)
        return out

    def run(addr, with_federated=False):
        before = federated(addr) if with_federated else None
        cpu0 = self_cpu_s() + sum(d.cpu_s() for d in b.daemons)
        units = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < b.seconds:
            if len(units) >= len(requests):
                raise BenchError("cluster request pool exhausted; regenerate refs with more")
            req = requests[len(units)]
            t = time.perf_counter()
            status, doc = try_explore(addr, req["body"], False, f"u{len(units)}")
            b.span("cluster.request", t, time.perf_counter(),
                   f"{'traced' if with_federated else 'plain'}-u{len(units)}")
            units.append({"lat_ms": (time.perf_counter() - t) * 1e3, "status": status,
                          "doc": doc, "req": req, "trace_id": f"u{len(units)}"})
        timed_s = time.perf_counter() - t0
        cpu = self_cpu_s() + sum(d.cpu_s() for d in b.daemons) - cpu0
        peak = max(d.peak_rss_mb() for d in b.daemons)
        fed = None
        if with_federated:
            after = federated(addr)
            fed = {k: after[k] - before[k] for k in after}
        b.stop_daemons()
        for u in units:
            u["ok"] = check_answer(b, "cluster", u["req"], u["status"], u["doc"])
            if not u["ok"]:
                continue
            counts = profile_counts(u["doc"]["metrics"])
            if u["doc"].get("source", "run") != "run":
                b.fail(f"cluster {u['req']['key']}: unique request answered from a cache")
                u["ok"] = False
            elif counts.get("cluster.jobs_redispatched", 0):
                b.fail(f"cluster {u['req']['key']}: jobs were re-dispatched")
                u["ok"] = False
            else:
                b.record_counters(u["req"]["key"], u["doc"]["metrics"])
        return units, timed_s, cpu, peak, fed

    addr, _ = b.timed_setup(lambda last: start(False))
    units, timed_s, cpu, peak, _ = run(addr)
    ok = [u for u in units if u["ok"]]
    worker_jobs = {}
    for u in ok:
        for name, c in profile_counts(u["doc"]["metrics"]).items():
            if name.startswith("cluster.worker.") and name.endswith(".jobs"):
                worker_jobs[name] = worker_jobs.get(name, 0) + c
    total_jobs = sum(worker_jobs.values())
    b.note("cluster.overhead_ms", statistics.median(
        u["lat_ms"] - u["doc"]["metrics"]["phases"]["explore_ms"] for u in ok) if ok else 0.0, "ms")
    b.note("cluster.jobs_max_share",
           max(worker_jobs.values()) / total_jobs if total_jobs else 0.0, "ratio")
    b.note("cluster.jobs_redispatched", sum(profile_counts(u["doc"]["metrics"]).get(
        "cluster.jobs_redispatched", 0) for u in ok))
    b.note("serve.overhead_ms", statistics.median(
        u["lat_ms"] - u["doc"]["metrics"]["phases"]["total_ms"] for u in ok) if ok else 0.0, "ms")
    if not b.traced:
        b.end_to_end([u["lat_ms"] for u in units], len(ok), timed_s,
                     sum(u["doc"]["metrics"]["ant_iterations"] for u in ok), cpu, peak)
        return
    addr, trace_dir = start(True)
    tunits, _, _, _, fed = run(addr, with_federated=True)
    traced = []
    for u in tunits:
        path = trace_dir / f"{u['trace_id']}.trace.json"
        if u["ok"] and path.exists():
            spans = load_spans(path)
            inflight = remote_inflight(spans, trace_dir / f"{u['trace_id']}.events.jsonl")
            traced.append({"wall_ms": u["lat_ms"], "metrics": u["doc"]["metrics"],
                           "trace": analyse_trace(spans, 2, u["doc"]["metrics"]["phases"],
                                                  inflight)})
    ratio = statistics.median(u["wall_ms"] for u in traced) / statistics.median(
        u["lat_ms"] for u in ok)
    b.per_layer(traced, "serve.overhead_ms", ratio,
                {k: v * len(traced) / max(1, len(tunits)) for k, v in fed.items()})
    programs = {(u["req"]["body"]["bench"], u["req"]["body"]["opt"]) for u in ok}
    b.probe([{"bench": bn, "opt": o} for bn, o in sorted(programs)],
            [json.dumps(u["doc"]["report"], sort_keys=True) for u in ok])


# ------------------------------------------------------------------- main

def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if not (ROOT / "Cargo.toml").exists():
        raise BenchError(f"no Cargo.toml at {ROOT}: run from a full checkout")
    for argv in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "isex", "-p", "isex-serve", "-p", "isex-cluster", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml"),
         "--bin", "layerbench"],
    ):
        if subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    return target / "release"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2008)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops the daemons it started (see `finally`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench = None
    try:
        bench = Bench(args, build())
        {"kernels": kernels, "large-blocks": large_blocks, "serve-mixed": serve_mixed,
         "cluster": cluster}[args.workload](bench)
        bench.check_counters_against_earlier_runs()
        bench.finish()
    except BenchError as e:
        log(f"layerbench: {e}")
        sys.exit(1)
    finally:
        if bench is not None:
            bench.stop_daemons()
            shutil.rmtree(bench.tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
