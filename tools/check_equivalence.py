#!/usr/bin/env python3
"""Equivalence gates: a bench's run report must not move under a knob
that must not matter (worker count, state backend, gzip, a re-run).

One table holds every check.  A check runs one bench and compares its
report with a committed baseline (compare_reports.py's rules) or byte
for byte with an earlier report of its suite; a row without a
comparison only feeds a later check.  Suites:

* ``refactor`` (37): the sweep baselines in tests/baselines/refactor_equiv/
  at jobs=1 and 3, state backend auto, dense or paged, at rtol 0 (a
  forced leg drops its ``state_backend=`` spec token first); six benches
  whose reports hold only tables, at jobs=1 and 3 and rtol 0; plus
  bench_tab01_lookup_costs once.
* ``stability`` (3): bench_tab06_hitrate at jobs=1, 3 and 1 writes
  byte-identical reports, the first within rtol 1e-4 of its baseline.
* ``replay`` (8): tests/data/sample_trace.txt, converted plain and
  gzipped, replays sampled to its baseline at rtol 0 (gzip skipped only
  under ``--zlib 0``); a re-run and a sampled sweep at jobs=1 vs 3 are
  byte-identical.  The sampled sweep (each core profiles its own
  synthetic stream) and a 2-core sweep striping the trace (one shared
  decode profiles both stripes, plain and gzipped) match baselines
  recorded before that shared decode existed, at rtol 0.  The
  240-record sample trace touches too few 4KB regions for its window
  signatures to steer the plan, so a last row stripes a generated
  131,072-record trace of many phases over many regions (phased_trace();
  no trace file is committed) and matches its baseline at rtol 0.
  Replays run from the trace's directory, so the report's
  ``tracefile`` parameter is a bare file name.

Usage:
    tools/check_equivalence.py [--suite NAME]... [--build DIR] [--zlib 0|1]
    tools/check_equivalence.py --self-test

Reports go to ``<build>/equivalence/<suite>/``.  Exit status: 0 when
every check passes, 1 when one fails, 2 when a report is not an
``accord.run_report/1`` document.  Stdlib only.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

from compare_reports import compare_reports, normalize_specs, \
    require_schema

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "tests" / "baselines"
SMOKE = ("scale=4096", "cores=2", "warm=2000", "measure=4000")
# Tuned to the 240-record sample trace: tiny windows, tiny warm span.
REPLAY = ("workloads=libq", "tracefile=sample.trc", "warm=60",
          "scale=4096",
          "samplespec=window=16,clusters=4,rate=0.25,warmup=8,prewarm=60")
SAMPLED_SWEEP = SMOKE + (
    "source=synthetic(limit=32k)",
    "sample=window=512,clusters=4,rate=0.1,warmup=128,prewarm=2000")
# Two cores on one stripe each of the sample trace, replayed whole.
STRIPED_SWEEP = ("scale=4096", "cores=2", "warm=0", "measure=0",
                 "source=trace(file=sample.trc,loop=0,stripe=1)",
                 "sample=window=16,clusters=4,rate=0.25,warmup=8,prewarm=60",
                 "jobs=1")
# Two cores on one stripe each of the generated phased trace.
PHASED_SWEEP = ("scale=4096", "cores=2", "warm=0", "measure=0",
                "source=trace(file=phased.trc,loop=0,stripe=1)",
                "sample=window=512,clusters=6,rate=0.05,warmup=128,"
                "prewarm=2000",
                "jobs=1")
CONVERT = (sys.executable, str(ROOT / "tools" / "convert_trace.py"))
SAMPLE_TEXT = str(ROOT / "tests" / "data" / "sample_trace.txt")
TAB06 = "bench_tab06_hitrate"
REPLAY_BASELINE = BASELINES / "bench_trace_replay.sample.json"
SAMPLED_SWEEP_BASELINE = BASELINES / f"{TAB06}.sampled_sweep.json"
STRIPED_SWEEP_BASELINE = BASELINES / f"{TAB06}.sampled_trace.json"
PHASED_SWEEP_BASELINE = BASELINES / f"{TAB06}.phased_trace.json"


def phased_trace(path, records=131072, seed=23):
    """Write a text trace of `records` accesses in phases of 1-6k
    records.  Each phase touches 16 lines of each of its own 16-160
    regions (drawn from a pool of 4096 random 4KB regions) with skewed
    weights, so every signature window differs from its neighbours and
    the sampler's clustering depends on every bucket.  About one access
    in ten is a writeback.  A private 64-bit LCG keeps the file
    identical on every Python."""
    state = seed

    def draw(bound):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        return (state >> 33) % bound

    pool = [0x100000 + draw(1 << 24) for _ in range(4096)]
    out = ["# generated by tools/check_equivalence.py phased_trace()"]
    written = 0
    while written < records:
        regions = [pool[draw(len(pool))] for _ in range(16 + draw(145))]
        length = min(records - written, 1024 + draw(5120))
        for _ in range(length):
            # Squaring a uniform draw favours the phase's first regions.
            pick = draw(len(regions))
            region = regions[pick * pick // len(regions)]
            kind = "W" if draw(10) == 0 else "R"
            out.append(f"{kind} {hex(region * 4096 + draw(16) * 64)}")
        written += length
    pathlib.Path(path).write_text("\n".join(out) + "\n")


class Check(NamedTuple):
    """One row: run `bench` with `args`, writing report `out` from
    `cwd`, then compare it with `baseline` (rtol/atol, `ignore`'s spec
    keys dropped) or byte for byte with `same_as`."""
    label: str
    bench: str
    args: tuple
    out: str
    baseline: Optional[pathlib.Path] = None
    same_as: Optional[str] = None
    rtol: float = 0.0
    atol: float = 0.0
    ignore: frozenset = frozenset()
    cwd: str = "."
    needs_zlib: bool = False


def refactor_checks():
    checks = []
    for name in ("bench_abl_design_choices", "bench_fig01_assoc_potential",
                 "bench_fig07_wp_accuracy", "bench_fig12_all_workloads"):
        baseline = BASELINES / "refactor_equiv" / f"{name}.json"
        for jobs in (1, 3):
            args = SMOKE + ("timed=1500", f"jobs={jobs}")
            checks.append(Check(f"{name} jobs={jobs}", name, args,
                                f"{name}.j{jobs}.json", baseline))
            for backend in ("dense", "paged"):
                checks.append(Check(
                    f"{name} jobs={jobs} state_backend={backend}", name,
                    args + (f"state_backend={backend}",),
                    f"{name}.j{jobs}.{backend}.json", baseline,
                    ignore=frozenset({"state_backend"})))
    # Table-only reports (about 1 KB each): no run records, so the
    # tables alone pin every result these benches print.
    for name in ("bench_fig15_energy", "bench_tab02_conventional_wp",
                 "bench_tab05_pws_pip", "bench_tab07_sws_hitrate",
                 "bench_tab08_cache_size", "bench_tab10_wp_comparison"):
        baseline = BASELINES / "refactor_equiv" / f"{name}.json"
        for jobs in (1, 3):
            checks.append(Check(f"{name} jobs={jobs}", name,
                                SMOKE + ("timed=1500", f"jobs={jobs}"),
                                f"{name}.j{jobs}.json", baseline))
    # Analytic table: no sweep, and it rejects cores=/jobs=.
    name = "bench_tab01_lookup_costs"
    checks.append(Check(name, name, ("scale=4096",), f"{name}.json",
                        BASELINES / "refactor_equiv" / f"{name}.json"))
    return checks


# name -> (setup steps run in the suite directory, checks); a step is a
# command or a function of that directory
SUITES = {
    "refactor": ((), refactor_checks()),
    "stability": ((), [
        Check(f"{TAB06} jobs=1 vs baseline", TAB06, SMOKE + ("jobs=1",),
              "jobs1.json", BASELINES / f"{TAB06}.scale4096.json",
              rtol=1e-4, atol=1e-9),
        Check(f"{TAB06} jobs=3 byte-identical", TAB06,
              SMOKE + ("jobs=3",), "jobs3.json", same_as="jobs1.json"),
        Check(f"{TAB06} jobs=1 re-run byte-identical", TAB06,
              SMOKE + ("jobs=1",), "jobs1_again.json",
              same_as="jobs1.json"),
    ]),
    "replay": ((CONVERT + (SAMPLE_TEXT, "-o", "sample.trc"),
                CONVERT + (SAMPLE_TEXT, "-o", "gz/sample.trc", "--gzip"),
                lambda workdir: phased_trace(workdir / "phased.txt"),
                CONVERT + ("phased.txt", "-o", "phased.trc")), [
        Check("sampled replay vs baseline", "bench_trace_replay", REPLAY,
              "replay.json", REPLAY_BASELINE),
        Check("replay re-run byte-identical", "bench_trace_replay", REPLAY,
              "replay2.json", same_as="replay.json"),
        Check("sampled sweep jobs=1 vs baseline", TAB06,
              SAMPLED_SWEEP + ("jobs=1",), "sampled_sweep.j1.json",
              SAMPLED_SWEEP_BASELINE),
        Check("sampled sweep jobs=3 byte-identical", TAB06,
              SAMPLED_SWEEP + ("jobs=3",), "sampled_sweep.j3.json",
              same_as="sampled_sweep.j1.json"),
        Check("striped trace sampled sweep vs baseline", TAB06,
              STRIPED_SWEEP, "striped_sweep.json", STRIPED_SWEEP_BASELINE),
        Check("gzip striped trace sampled sweep vs baseline", TAB06,
              STRIPED_SWEEP, "striped_sweep_gz.json",
              STRIPED_SWEEP_BASELINE, cwd="gz", needs_zlib=True),
        Check("gzip trace replay vs baseline", "bench_trace_replay",
              REPLAY, "replay_gz.json", REPLAY_BASELINE, cwd="gz",
              needs_zlib=True),
        Check("phased trace striped sampled sweep vs baseline", TAB06,
              PHASED_SWEEP, "phased_sweep.json", PHASED_SWEEP_BASELINE),
    ]),
}


def load_report(path, ignore):
    """A run report with `ignore`'s spec keys dropped; exit 2 if the
    file is not a report at all."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError:
        doc = None
    require_schema(doc, path)
    normalize_specs(doc, ignore)
    return doc


def compare(check, workdir):
    """The differences between a check's report and its reference."""
    out = workdir / check.out
    if not out.is_file():
        return [f"{out} was not written"]
    if check.same_as is not None:
        reference = workdir / check.same_as
        if reference.is_file() and out.read_bytes() == reference.read_bytes():
            return []
        return [f"{check.out} differs from {check.same_as}"]
    return compare_reports(load_report(check.baseline, check.ignore),
                           load_report(out, check.ignore),
                           check.rtol, check.atol, max_diffs=20)


def run_checks(checks, workdir, run, zlib):
    """Run a suite's rows in order; 0 when every check passed, else 1."""
    status = 0
    for check in checks:
        if check.needs_zlib and not zlib:
            print(f"SKIP {check.label} (build lacks zlib)")
            continue
        (workdir / check.out).unlink(missing_ok=True)
        code, output = run(check)
        compared = check.baseline is not None or check.same_as is not None
        if code != 0:
            problems = [f"exited {code}", output]
        else:
            problems = compare(check, workdir) if compared else []
        if problems:
            status = 1
            print(f"FAIL {check.label}")
            print("\n".join(problems[:20]))
        elif compared:
            print(f"OK   {check.label}")
    return status


def run_suite(name, build, zlib):
    setup, checks = SUITES[name]
    workdir = build / "equivalence" / name
    for check in checks:
        (workdir / check.cwd).mkdir(parents=True, exist_ok=True)
    for step in setup:
        if callable(step):
            step(workdir)
        elif subprocess.run(step, cwd=workdir).returncode != 0:
            print(f"FAIL {name} setup: {' '.join(step)}")
            return 1

    def run(check):
        cmd = [str(build / "bench" / check.bench), *check.args,
               f"--json={workdir / check.out}"]
        result = subprocess.run(cmd, cwd=workdir / check.cwd, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        return result.returncode, " ".join(cmd) + "\n" + result.stdout

    return run_checks(checks, workdir, run, zlib)


def self_test():
    """Prove each kind of check passes and fails, on synthetic reports
    and a fake bench."""
    spec = "org=set ways=2 scale=4096"
    same = json.dumps({
        "schema": "accord.run_report/1", "title": "t", "reproduces": "r",
        "params": {"scale": "4096"}, "configs": {"pws": spec},
        "notes": [], "tables": {"t": {"columns": ["org", "hit"],
                                      "rows": [["pws", 0.867]]}},
        "runs": {"libq/pws": {"spec": spec,
                              "metrics": {"l4.reads": 1000}}}})

    def edited(edit):
        doc = json.loads(same)
        edit(doc)
        return json.dumps(doc)

    def ulp(doc):
        doc["tables"]["t"]["rows"][0][1] = math.nextafter(0.867, 1.0)

    def count(doc):
        doc["runs"]["libq/pws"]["metrics"]["l4.reads"] += 1

    def forced(doc):
        doc["params"]["state_backend"] = "dense"
        doc["configs"]["pws"] += " state_backend=dense"
        doc["runs"]["libq/pws"]["spec"] += " state_backend=dense"

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for name in ("base.json", "first.json"):
            (workdir / name).write_text(same)
        diff = Check("diff", "bench", (), "cand.json", workdir / "base.json")
        byte = Check("byte", "bench", (), "cand.json", same_as="first.json")
        gzip = diff._replace(needs_zlib=True)
        # name, check, candidate report or bench exit code (the failing
        # bench still writes a matching report), zlib, expected status
        cases = [
            ("identical reports pass", diff, same, True, 0),
            ("one-ulp cell change fails at rtol 0", diff, edited(ulp),
             True, 1),
            ("one-count metric change fails at rtol 0", diff,
             edited(count), True, 1),
            ("state_backend= passes where the key is dropped",
             diff._replace(ignore=frozenset({"state_backend"})),
             edited(forced), True, 0),
            ("state_backend= fails where the key is kept", diff,
             edited(forced), True, 1),
            ("identical bytes pass a byte check", byte, same, True, 0),
            ("one-byte difference fails a byte check", byte,
             same.replace("4096", "4097", 1), True, 1),
            ("non-report input exits 2", diff, '{"schema": "other"}',
             True, 2),
            ("failed gzip replay fails despite its report", gzip, 1,
             True, 1),
            ("gzip replay skips without zlib", gzip, 1, False, 0),
        ]
        for name, check, result, zlib, expected in cases:
            def run(check, result=result):
                if isinstance(result, int):
                    (workdir / check.out).write_text(same)
                    return result, "fatal: cannot open sample.trc"
                (workdir / check.out).write_text(result)
                return 0, ""

            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = run_checks([check], workdir, run, zlib)
            except SystemExit as exit_:
                status = exit_.code
            if status != expected:
                failures.append(f"  {name}: status {status}, "
                                f"expected {expected}")
    if failures:
        print("check_equivalence: SELF-TEST FAILED")
        print("\n".join(failures))
        return 1
    print(f"check_equivalence: self-test passed ({len(cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="prove bench reports unchanged under knobs that "
                    "must not matter")
    parser.add_argument("--suite", action="append", choices=SUITES,
                        help="suite to run (repeatable; default: all)")
    parser.add_argument("--build", default=str(ROOT / "build"),
                        help="build directory holding bench/")
    parser.add_argument("--zlib", type=int, choices=(0, 1), default=1,
                        help="0 when the build lacks zlib: the gzip "
                             "replay is then skipped")
    parser.add_argument("--self-test", action="store_true",
                        help="run the driver's own checks and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    build = pathlib.Path(args.build).resolve()
    status = 0
    for name in args.suite or SUITES:
        status |= run_suite(name, build, args.zlib == 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
