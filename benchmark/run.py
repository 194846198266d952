#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, measured from outside the simulator.

    python3 benchmark/run.py --tag NAME [--seed N]
        Full set: 5 untraced reps per workload, then one traced run and
        one probe run each.  Prints every metric with its unit, median,
        quartiles and n, and writes benchmark/results/NAME.json.
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
        One measurement of one workload.  --trace 0 runs untraced reps
        for about S seconds and reports the end-to-end metrics; --trace 1
        runs one untraced rep, the traced run and the probes and reports
        the per-layer metrics.  The last stdout line is one JSON object.
    python3 benchmark/run.py --compare A.json B.json
        One row per (metric, workload): better, no worse, worse or
        unresolved; simulated counts must match exactly.
    python3 benchmark/run.py --self-test | --quick | --refresh-golden

Every rep is its own child process, run one at a time with one
simulator thread.  benchmark/README.md documents the metrics, the
workloads and the rules.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
PERF = BUILD / "accord_perf"
TRACES = BUILD / "traces"
RESULTS = HERE / "results"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1

TAG_REPS = 5
MIN_REPS = 3
MIN_COVERAGE = 0.9

COMMON = ("cores=4",)
REPLAY_RECORDS = "32M"
SAMPLE = "sample=window=4096,clusters=12,rate=0.02,warmup=1024,prewarm=1M"


class Workload:
    """One benchmark workload: the knobs accord_perf receives."""

    def __init__(self, name, knobs, budget_s, setup_reps, quick):
        self.name = name
        self.knobs = knobs
        # Expected host seconds of one untraced rep here; a rep that
        # runs past 3x this is killed and counted as failed.
        self.budget_s = budget_s
        # System constructions per rep: each is one setup_s sample.
        self.setup_reps = setup_reps
        # Knob overrides for --quick.
        self.quick = quick

    def args(self, mode, seed, quick=False):
        knobs = dict(k.split("=", 1) for k in self.knobs)
        if self.replays:
            knobs["source"] = (f"trace(file={trace_name(seed, quick)},"
                               "loop=0,stripe=1)")
        if quick:
            knobs.update(dict(k.split("=", 1) for k in self.quick))
        return [mode, *COMMON, f"seed={seed}",
                *(f"{k}={v}" for k, v in knobs.items())]

    @property
    def replays(self):
        return self.name == "sampled_replay"


WORKLOADS = {w.name: w for w in (
    Workload("timed_hit",
             ("workload=libq", "config=2way-pws+gws", "phase=timed",
              "scale=1024", "warm=256k", "timed=1536k"),
             budget_s=8, setup_reps=100,
             quick=("warm=4k", "timed=8k")),
    Workload("timed_miss",
             ("workload=mcf", "config=8way-sws+gws", "phase=timed",
              "scale=1024", "warm=256k", "timed=768k"),
             budget_s=8, setup_reps=100,
             quick=("warm=4k", "timed=8k")),
    Workload("functional_large",
             ("workload=omnet", "config=8way-pws+gws", "phase=functional",
              "scale=16", "warm=1M", "measure=1M"),
             budget_s=9, setup_reps=100,
             quick=("warm=16k", "measure=16k")),
    Workload("sampled_replay",
             ("workload=mix3", "config=2way-pws+gws", "phase=functional",
              "scale=128", "warm=0", "measure=0", SAMPLE),
             budget_s=9, setup_reps=1,
             quick=("sample=window=4096,clusters=4,rate=0.05,"
                    "warmup=1024,prewarm=64k",)),
)}

# Metric catalog: name -> (unit, clock, better, bound, kind).  The
# bounds are --compare's, which can answer "unresolved" when the spread
# is wider than the bound; BENCHMARK.json's bounds gate single medians
# and are sized to the host's run-to-run spread (README.md).
# kind: "host" times vary run to run and compare by bound; "exact"
# counts repeat exactly for a seed and must match; "engine" counts
# repeat exactly too but describe how the simulator works, not what it
# simulates, so an optimisation may change them (reported, not failed).
END_TO_END = {
    "reads_per_s": ("reads/s", "host", "higher", 0.10, "host"),
    "setup_s": ("s", "host", "lower", 0.10, "host"),
    "peak_rss_mb": ("MiB", "host", "lower", 0.10, "host"),
    "hit_rate": ("fraction", "sim", "higher", 0.0, "exact"),
    "ipc": ("instr/cycle", "sim", "higher", 0.0, "exact"),
    "failed_frac": ("fraction", "-", "lower", 0.0, "exact"),
}
PER_LAYER = {
    "trace.next_ns": ("ns", "host", "lower", None, "host"),
    "trace.share": ("fraction", "host", "lower", None, "host"),
    "trace.setup_s": ("s", "host", "lower", None, "host"),
    "trace.records_per_read": ("count", "sim", "lower", None, "exact"),
    "dramcache.warm_access_ns": ("ns", "host", "lower", None, "host"),
    "dramcache.warm_access_p99_ns": ("ns", "host", "lower", None, "host"),
    "dramcache.warm_share": ("fraction", "host", "lower", None, "host"),
    "dramcache.wp_accuracy": ("fraction", "sim", "higher", None, "exact"),
    "dramcache.transfers_per_read": ("count", "sim", "lower", None,
                                     "exact"),
    "event_queue.step_ns": ("ns", "host", "lower", None, "host"),
    "event_queue.step_p99_ns": ("ns", "host", "lower", None, "host"),
    "event_queue.step_share": ("fraction", "host", "lower", None, "host"),
    "event_queue.events_per_read": ("count", "sim", "lower", None,
                                    "engine"),
    "event_queue.events_per_s": ("1/s", "host", "higher", None, "host"),
    "event_queue.occupancy_peak": ("count", "sim", "lower", None,
                                   "engine"),
    "event_queue.overflow_spills": ("count", "sim", "lower", None,
                                    "engine"),
    "event_queue.event_ns": ("ns", "host", "lower", None, "host"),
    "dram.hbm_op_ns": ("ns", "host", "lower", None, "host"),
    "dram.ops_per_read": ("count", "sim", "lower", None, "exact"),
    "dram.row_hit_rate": ("fraction", "sim", "higher", None, "exact"),
    "dram.avg_read_latency_cycles": ("cycles", "sim", "lower", None,
                                     "exact"),
    "nvm.op_ns": ("ns", "host", "lower", None, "host"),
    "nvm.reads_per_read": ("count", "sim", "lower", None, "exact"),
    "nvm.writes_per_read": ("count", "sim", "lower", None, "exact"),
    "nvm.avg_read_latency_cycles": ("cycles", "sim", "lower", None,
                                    "exact"),
    "core.policy_ns": ("ns", "host", "lower", None, "host"),
    "storage.find_way_ns": ("ns", "host", "lower", None, "host"),
    "storage.resident_state_mb": ("MiB", "sim", "lower", None, "engine"),
    "sim.cycles_per_read": ("cycles", "sim", "lower", None, "exact"),
    "sim.ipc": ("instr/cycle", "sim", "higher", None, "exact"),
    "bench.span_coverage": ("fraction", "host", "higher", None, "host"),
    "bench.trace_overhead_frac": ("fraction", "host", "lower", None,
                                  "host"),
}
CATALOG = {**END_TO_END, **PER_LAYER}
# The end-to-end metrics BENCHMARK.json lists: those every workload has
# and that are never 0 (ipc is timed-only; failed_frac is the result
# line's own failed/attempted).
BENCHMARK_E2E = ("reads_per_s", "setup_s", "peak_rss_mb", "hit_rate")
# Absolute tolerance floors, in the metric's unit.
FLOORS = {"setup_s": 0.02}

# Counters a rep must reproduce: golden "outputs" are what the model
# simulates; golden "engine" counters are how the simulator got there.
OUTPUT_COUNTERS = ("reads", "hits", "wp_hits", "cycles", "ipc",
                   "hbm_reads", "hbm_writes", "nvm_reads", "nvm_writes")
ENGINE_COUNTERS = ("events", "state_bytes")


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Building and running accord_perf.

def build():
    """Configure and build accord_perf under benchmark/build."""
    BUILD.mkdir(exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        cache.unlink()  # configured from another checkout
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "-j", jobs,
                 "--target", "accord_perf"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"benchmark: build failed: {' '.join(cmd)}")


def trace_name(seed, quick=False):
    return f"traces/mix3_s{seed}{'_quick' if quick else ''}.trc"


def record_trace(seed, quick=False):
    """Record the sampled_replay input for `seed` unless present; keep
    only that one trace, so disk use stays at one file."""
    path = BUILD / trace_name(seed, quick)
    if path.exists():
        return
    TRACES.mkdir(exist_ok=True)
    for old in TRACES.glob("*.trc*"):
        old.unlink()
    tmp = path.with_suffix(".trc.tmp")
    knobs = ["record", *COMMON, "workload=mix3", "scale=128",
             f"seed={seed}", f"records={'1M' if quick else REPLAY_RECORDS}",
             f"out={tmp.relative_to(BUILD)}"]
    _, _, error = child(knobs, timeout_s=120)
    if error:
        raise SystemExit(f"benchmark: recording the replay trace failed: "
                         f"{error}")
    tmp.rename(path)


def child(args, timeout_s):
    """Run accord_perf once; returns (result, peak RSS MiB, error)."""
    with tempfile.TemporaryFile(dir=BUILD) as out, \
            tempfile.TemporaryFile(dir=BUILD) as err:
        proc = subprocess.Popen([str(PERF), *args], cwd=BUILD,
                                stdout=out, stderr=err)
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = -9
                return None, 0.0, f"killed after {timeout_s:.0f} s"
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip()[-300:]
            return None, rss_mb, f"exit {proc.returncode}: {tail}"
        out.seek(0)
        lines = out.read().decode().strip().splitlines()
        try:
            return json.loads(lines[-1]), rss_mb, None
        except (IndexError, ValueError):
            return None, rss_mb, "no JSON result line"


class Rep:
    """One child run and what was concluded about it."""

    def __init__(self, mode, result, rss_mb, error):
        self.mode = mode
        self.result = result
        self.rss_mb = rss_mb
        self.error = error

    @property
    def counters(self):
        return self.result.get("counters") if self.result else None


def run_rep(workload, mode, seed, quick=False, extra=()):
    timeout = 3 * workload.budget_s * (2 if mode == "traced" else 1)
    if mode == "probe":
        timeout = 30
    args = workload.args(mode, seed, quick) + list(extra)
    if mode == "run":
        args.append(f"setup_reps={workload.setup_reps}")
    return Rep(mode, *child(args, timeout))


# --------------------------------------------------------------------
# Checking outputs.

def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None


def golden_problems(name, counters, golden):
    """Simulated outputs that differ from the golden at rtol 0."""
    want = golden["workloads"][name]["outputs"]
    return [f"{key}: {counters.get(key)} != golden {value}"
            for key, value in want.items() if counters.get(key) != value]


def judge(name, reps, seed, golden):
    """Mark reps that crashed, timed out or disagree; returns problems.

    At the golden seed every rep must reproduce the golden outputs; at
    any seed all reps (the traced run included) must agree with each
    other on every counter."""
    problems = []
    done = [r for r in reps if r.error is None]
    for rep in reps:
        if rep.error:
            problems.append(f"{name} {rep.mode}: {rep.error}")
    keyed = {}
    for rep in done:
        if rep.counters is not None:
            text = json.dumps(rep.counters, sort_keys=True)
            keyed.setdefault(text, []).append(rep)
    if keyed:
        reference = max(keyed.values(), key=len)[0].counters
        for rep in done:
            if rep.counters is not None and rep.counters != reference:
                rep.error = "counters differ from the other runs"
                problems.append(f"{name} {rep.mode}: {rep.error}")
        if reference["reads"] == 0 or reference["hits"] > reference["reads"]:
            problems.append(f"{name}: implausible counters {reference}")
        if seed == GOLDEN_SEED and golden and name in golden["workloads"]:
            for rep in done:
                if rep.counters is None or rep.error:
                    continue
                mismatch = golden_problems(name, rep.counters, golden)
                if mismatch:
                    rep.error = "golden mismatch"
                    problems.append(f"{name} {rep.mode}: golden mismatch: "
                                    + "; ".join(mismatch))
    return problems


# --------------------------------------------------------------------
# Metrics.

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def e2e_values(rep):
    """End-to-end metrics of one untraced rep."""
    c = rep.counters
    values = {
        "reads_per_s": c["reads"] / rep.result["run_s"],
        "setup_s": median(rep.result["setup_s"]),
        "peak_rss_mb": rep.rss_mb,
        "hit_rate": c["hits"] / c["reads"],
    }
    if c["ipc"]:
        values["ipc"] = statistics.fmean(c["ipc"])
    return values


def layer_values(counters, run_s, traced, probes):
    """Per-layer metrics from an untraced rep's counters and host
    seconds, the traced run, and the probe run."""
    c = counters
    reads = c["reads"]
    spans = traced["spans"]
    wall = traced["wall_s"]

    def per_call(name):
        span = spans[name]
        return span["self_ns"] / span["count"] if span["count"] else 0.0

    def share(name):
        return spans[name]["self_ns"] * 1e-9 / wall

    hbm_ops = c["hbm_reads"] + c["hbm_writes"]
    p = probes["probes"]
    return {
        "trace.next_ns": per_call("source.next"),
        "trace.share": share("source.next"),
        "trace.setup_s": spans["trace.setup"]["total_ns"] * 1e-9,
        "trace.records_per_read": spans["source.next"]["count"] / reads,
        "dramcache.warm_access_ns": per_call("cache.warm_access"),
        "dramcache.warm_access_p99_ns":
            spans["cache.warm_access"]["self_p99_ns"],
        "dramcache.warm_share": share("cache.warm_access"),
        "dramcache.wp_accuracy": c["wp_hits"] / max(c["wp_lookups"], 1),
        "dramcache.transfers_per_read": c["transfers"] / reads,
        "event_queue.step_ns": per_call("eq.step"),
        "event_queue.step_p99_ns": spans["eq.step"]["self_p99_ns"],
        "event_queue.step_share": share("eq.step"),
        "event_queue.events_per_read": c["events"] / reads,
        "event_queue.events_per_s": c["events"] / run_s,
        "event_queue.occupancy_peak": c["eq_peak"],
        "event_queue.overflow_spills": c["eq_spills"],
        "event_queue.event_ns": p["event_queue.event_ns"],
        "dram.hbm_op_ns": p["dram.hbm_op_ns"],
        "dram.ops_per_read": hbm_ops / reads,
        "dram.row_hit_rate": c["hbm_row_hits"] / max(hbm_ops, 1),
        "dram.avg_read_latency_cycles": c["hbm_read_latency"],
        "nvm.op_ns": p["nvm.op_ns"],
        "nvm.reads_per_read": c["nvm_reads"] / reads,
        "nvm.writes_per_read": c["nvm_writes"] / reads,
        "nvm.avg_read_latency_cycles": c["nvm_read_latency"],
        "core.policy_ns": p["core.policy_ns"],
        "storage.find_way_ns": p["storage.find_way_ns"],
        "storage.resident_state_mb": c["state_bytes"] / 2**20,
        "sim.cycles_per_read": c["cycles"] / reads,
        "sim.ipc": statistics.fmean(c["ipc"]) if c["ipc"] else 0.0,
        "bench.span_coverage": traced["covered_s"] / wall,
        "bench.trace_overhead_frac": traced["run_s"] / run_s - 1.0,
    }


def summary(values):
    q1, q3 = quartiles(values)
    return {"values": values, "median": median(values), "q1": q1,
            "q3": q3, "n": len(values)}


def metric_entry(name, values):
    unit, clock, better, bound, kind = CATALOG[name]
    return {"unit": unit, "clock": clock, "better": better,
            "bound": bound, "kind": kind, **summary(values)}


# --------------------------------------------------------------------
# Measuring.

def traced_and_probes(workload, seed, reference, run_s, spans_path=None,
                      quick=False):
    """The traced run and the probes; returns (reps, per-layer values,
    problems)."""
    extra = [f"spans={spans_path}"] if spans_path else []
    traced = run_rep(workload, "traced", seed, quick, extra)
    probe = run_rep(workload, "probe", seed, quick,
                    [f"eq_peak={reference['eq_peak']}"])
    problems = []
    if traced.error or probe.error:
        return [traced, probe], None, problems
    values = layer_values(reference, run_s, traced.result, probe.result)
    if values["bench.span_coverage"] < MIN_COVERAGE:
        problems.append(f"{workload.name}: spans cover only "
                        f"{values['bench.span_coverage']:.3f} of the "
                        "traced run's wall time")
    return [traced, probe], values, problems


def prepare(seed, workloads, quick=False):
    build()
    if any(w.replays for w in workloads):
        record_trace(seed, quick)


def measure_once(name, seed, seconds, trace):
    """One measurement of one workload; prints the result line and returns the
    exit code."""
    workload = WORKLOADS[name]
    prepare(seed, [workload])
    golden = load_golden()
    start = time.monotonic()
    reps = [run_rep(workload, "run", seed)]
    if not trace:
        # Start another rep while it fits the measuring window.
        while True:
            elapsed = time.monotonic() - start
            per_rep = elapsed / len(reps)
            if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
                break
            reps.append(run_rep(workload, "run", seed))
    problems = []
    values = None
    if trace and reps[0].error is None:
        extra, values, problems = traced_and_probes(
            workload, seed, reps[0].counters, reps[0].result["run_s"])
        reps += extra
    problems += judge(name, reps, seed, golden)
    for problem in problems:
        log(f"FAIL {problem}")
    good = [r for r in reps if r.error is None and r.mode == "run"]
    if not good or (trace and values is None):
        return 1

    if trace:
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
    else:
        per_rep = [e2e_values(r) for r in good]
        metrics = {k: {"value": median([v[k] for v in per_rep]),
                       "unit": END_TO_END[k][0]}
                   for k in BENCHMARK_E2E}
    failed = sum(1 for r in reps if r.error)
    print(json.dumps({"correct": not problems, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


def measure_tag(tag, seed):
    """The full set: 5 reps of every workload, rep-major so slow drift
    of the host spreads over all workloads, then traced runs and
    probes.  Returns (document, problems)."""
    workloads = list(WORKLOADS.values())
    prepare(seed, workloads)
    golden = load_golden()
    reps = {w.name: [] for w in workloads}
    for rep in range(TAG_REPS):
        for w in workloads:
            log(f"[{tag}] {w.name} rep {rep + 1}/{TAG_REPS}")
            reps[w.name].append(run_rep(w, "run", seed))

    spans_dir = RESULTS / tag
    spans_dir.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "accord.benchmark/1", "tag": tag, "seed": seed,
           "host": host_info(), "workloads": {}}
    problems = []
    for w in workloads:
        runs = reps[w.name]
        done = [r for r in runs if r.error is None]
        if not done:
            problems += judge(w.name, runs, seed, golden)
            continue
        run_s = median([r.result["run_s"] for r in done])
        log(f"[{tag}] {w.name} traced run and probes")
        extra, layer, more = traced_and_probes(
            w, seed, done[0].counters, run_s,
            spans_dir / f"{w.name}.spans.json")
        attempted = runs + extra
        problems += more + judge(w.name, attempted, seed, golden)
        good = [r for r in runs if r.error is None]
        if not good:
            continue
        per_rep = [e2e_values(r) for r in good]
        metrics = {k: metric_entry(k, [v[k] for v in per_rep])
                   for k in per_rep[0]}
        metrics["failed_frac"] = metric_entry(
            "failed_frac",
            [sum(1 for r in attempted if r.error) / len(attempted)])
        for k, v in (layer or {}).items():
            metrics[k] = metric_entry(k, [v])
        doc["workloads"][w.name] = {"counters": good[0].counters,
                                    "metrics": metrics}
    return doc, problems


def host_info():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0))}


def print_table(doc):
    print(f"{'workload':17} {'metric':30} {'unit':>11} {'median':>13} "
          f"{'q1':>13} {'q3':>13} {'n':>2}")
    for name, entry in doc["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name:17} {metric:30} {m['unit']:>11} "
                  f"{m['median']:13.6g} {m['q1']:13.6g} {m['q3']:13.6g} "
                  f"{m['n']:2d}")


# --------------------------------------------------------------------
# Comparing two result files.

def classify(a, b, better, bound, floor=0.0):
    """Row verdict for a host metric: `a` the parent's runs, `b` the
    change's.  The tolerance is `bound` of the parent's median, or
    `floor` in the metric's unit if that is larger."""
    ma, mb = median(a), median(b)
    tolerance = max(bound * ma, floor)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mb - ma)
    iqr_a, iqr_b = (q3 - q1 for q1, q3 in (quartiles(a), quartiles(b)))
    b_wins_all = all(sign * (y - x) > 0 for x in a for y in b)
    if b_wins_all:
        return "better" if gain > iqr_a else "no worse"
    if max(iqr_a, iqr_b) > tolerance:
        return "unresolved"
    return "worse" if gain < -tolerance else "no worse"


def compare(a_doc, b_doc):
    """Rows (workload, metric, verdict, detail) and whether any fails."""
    rows = []
    failing = False
    for name in sorted(set(a_doc["workloads"]) | set(b_doc["workloads"])):
        a = a_doc["workloads"].get(name)
        b = b_doc["workloads"].get(name)
        if a is None or b is None:
            rows.append((name, "*", "missing", "workload absent"))
            failing = True
            continue
        for key in OUTPUT_COUNTERS:
            if a["counters"].get(key) != b["counters"].get(key):
                rows.append((name, f"counter {key}", "mismatch",
                             f"{a['counters'].get(key)} -> "
                             f"{b['counters'].get(key)}"))
                failing = True
        for metric in sorted(set(a["metrics"]) | set(b["metrics"])):
            ma = a["metrics"].get(metric)
            mb = b["metrics"].get(metric)
            if ma is None or mb is None:
                rows.append((name, metric, "missing",
                             "absent in " + ("A" if ma is None else "B")))
                failing = True
                continue
            unit, _, better, bound, kind = CATALOG[metric]
            detail = f"{ma['median']:.6g} -> {mb['median']:.6g} {unit}"
            if kind in ("exact", "engine"):
                same = ma["values"] == mb["values"]
                verdict = "same" if same else (
                    "mismatch" if kind == "exact" else "changed")
                failing = failing or verdict == "mismatch"
            elif bound is None:
                verdict = "info"
            else:
                verdict = classify(ma["values"], mb["values"], better,
                                   bound, FLOORS.get(metric, 0.0))
                failing = failing or verdict == "worse"
            rows.append((name, metric, verdict, detail))
    return rows, failing


def print_compare(rows):
    for name, metric, verdict, detail in rows:
        print(f"{name:17} {metric:30} {verdict:10} {detail}")


# --------------------------------------------------------------------
# Self-test, quick smoke, goldens.

def fake_doc():
    """A result document shaped like measure_tag's, with fixed values."""
    counters = {"reads": 1000, "hits": 900, "wp_hits": 850, "cycles": 5,
                "ipc": [0.5, 0.6], "hbm_reads": 10, "hbm_writes": 4,
                "nvm_reads": 3, "nvm_writes": 1, "events": 40,
                "state_bytes": 4096}
    metrics = {
        "reads_per_s": metric_entry(
            "reads_per_s", [1.00e6, 1.01e6, 0.99e6, 1.02e6, 0.98e6]),
        "setup_s": metric_entry("setup_s", [0.1, 0.11, 0.1, 0.09, 0.1]),
        "peak_rss_mb": metric_entry("peak_rss_mb", [50.0] * 5),
        "hit_rate": metric_entry("hit_rate", [0.9] * 5),
        "failed_frac": metric_entry("failed_frac", [0.0]),
        "event_queue.events_per_read": metric_entry(
            "event_queue.events_per_read", [0.04]),
    }
    return {"schema": "accord.benchmark/1", "workloads": {
        "timed_hit": {"counters": counters, "metrics": metrics}}}


def self_test():
    failures = []

    def expect(label, condition):
        print(f"{'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            failures.append(label)

    base = fake_doc()
    rows, failing = compare(base, fake_doc())
    expect("identical results compare clean",
           not failing and all(r[2] in ("no worse", "same")
                               for r in rows))

    slow = fake_doc()
    m = slow["workloads"]["timed_hit"]["metrics"]
    m["reads_per_s"] = metric_entry(
        "reads_per_s", [v * 0.8 for v in m["reads_per_s"]["values"]])
    rows, failing = compare(base, slow)
    expect("a 20% reads_per_s drop is worse",
           failing and ("timed_hit", "reads_per_s") in
           [(r[0], r[1]) for r in rows if r[2] == "worse"])

    noisy = fake_doc()
    noisy["workloads"]["timed_hit"]["metrics"]["reads_per_s"] = \
        metric_entry("reads_per_s", [0.7e6, 1.3e6, 0.95e6, 1.2e6, 0.8e6])
    rows, _ = compare(base, noisy)
    expect("a spread wider than the bound is unresolved",
           any(r[1] == "reads_per_s" and r[2] == "unresolved"
               for r in rows))

    changed = fake_doc()
    changed["workloads"]["timed_hit"]["counters"]["hits"] += 1
    rows, failing = compare(base, changed)
    expect("a changed simulated count is a mismatch",
           failing and any(r[2] == "mismatch" for r in rows))

    golden = {"workloads": {"timed_hit": {"outputs": {
        k: base["workloads"]["timed_hit"]["counters"][k]
        for k in OUTPUT_COUNTERS}}}}
    rep = Rep("run", {"counters": changed["workloads"]["timed_hit"]
                      ["counters"]}, 1.0, None)
    problems = judge("timed_hit", [rep], GOLDEN_SEED, golden)
    expect("a rep that misses the golden fails",
           rep.error == "golden mismatch" and problems)

    engine = fake_doc()
    engine["workloads"]["timed_hit"]["metrics"][
        "event_queue.events_per_read"] = metric_entry(
            "event_queue.events_per_read", [0.03])
    rows, failing = compare(base, engine)
    expect("fewer events per read is reported but not failed",
           not failing and any(r[2] == "changed" for r in rows))

    missing = fake_doc()
    del missing["workloads"]["timed_hit"]["metrics"]["peak_rss_mb"]
    rows, failing = compare(base, missing)
    expect("a missing metric is flagged",
           failing and any(r[1] == "peak_rss_mb" and r[2] == "missing"
                           for r in rows))

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    expect("BENCHMARK.json lists the metrics this runner reports",
           [m["name"] for m in spec["end_to_end"]] == list(BENCHMARK_E2E)
           and [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
           and all((m["unit"], m["better"])
                   == (CATALOG[n][0], CATALOG[n][2])
                   for n, m in listed.items()))
    return 1 if failures else 0


def quick(seed):
    """Smoke run with tiny quotas: every workload twice untraced and once
    traced; all three must report identical counters."""
    start = time.monotonic()
    prepare(seed, list(WORKLOADS.values()), quick=True)
    problems = []
    for w in WORKLOADS.values():
        reps = [run_rep(w, "run", seed, quick=True) for _ in range(2)]
        reps.append(run_rep(w, "traced", seed, quick=True))
        mine = judge(w.name, reps, seed, None)
        print(f"FAIL {'; '.join(mine)}" if mine
              else f"ok   {w.name}: {len(reps)} runs agree")
        problems += mine
    print(f"quick: {time.monotonic() - start:.1f} s")
    return 1 if problems else 0


def refresh_golden():
    """Rewrite golden.json from one rep per workload at the golden seed.
    Only a change that defines or corrects the benchmark does this."""
    prepare(GOLDEN_SEED, list(WORKLOADS.values()))
    doc = {"schema": "accord.benchmark_golden/1", "seed": GOLDEN_SEED,
           "workloads": {}}
    for w in WORKLOADS.values():
        rep = run_rep(w, "run", GOLDEN_SEED)
        if rep.error:
            raise SystemExit(f"benchmark: {w.name}: {rep.error}")
        c = rep.counters
        doc["workloads"][w.name] = {
            "outputs": {k: c[k] for k in OUTPUT_COUNTERS},
            "engine": {k: c[k] for k in ENGINE_COUNTERS}}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--refresh-golden", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        rows, failing = compare(a, b)
        print_compare(rows)
        return 1 if failing else 0
    if args.quick:
        return quick(args.seed)
    if args.refresh_golden:
        return refresh_golden()
    if args.tag:
        doc, problems = measure_tag(args.tag, args.seed)
        print_table(doc)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{args.tag}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"wrote {path.relative_to(HERE.parent)}")
        return 1 if problems else 0
    if args.workload:
        return measure_once(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    parser.error("give --tag, --workload, --compare, --self-test, "
                 "--quick or --refresh-golden")


if __name__ == "__main__":
    sys.exit(main())
