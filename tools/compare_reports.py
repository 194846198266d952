#!/usr/bin/env python3
"""Diff two ACCORD run reports (accord.run_report/1 JSON) with
numeric tolerances.

The bench suite emits canonical, deterministic JSON reports
(``--json=<path>``), and CI keeps golden baselines under
``tests/baselines/``.  This tool is the diff gate between them: it
compares two reports structurally — identity fields exactly, numeric
table cells and run metrics within ``--rtol``/``--atol`` — and exits 1
with a readable diff when they disagree.

Comparison rules
----------------
* ``schema``, ``title``, ``reproduces``, ``configs``, ``notes`` and
  every run's ``spec`` must match exactly.
* ``params`` must match exactly, except ``jobs`` (worker count never
  affects results and is excluded from reports anyway).
* Tables must have the same names, columns, and shapes; text cells
  compare exactly, numeric cells within tolerance.
* Run metrics and epoch samples compare within tolerance; epoch
  positions and paths compare exactly.

Usage:
    tools/compare_reports.py baseline.json candidate.json \
        [--rtol 1e-4] [--atol 1e-9] [--max-diffs 20]

Run ``host`` objects (the volatile partition) are never compared —
only spec/metrics/epochs are.

Exit status: 0 when the reports match, 1 when they differ, 2 when an
input is not an ``accord.run_report/1`` document at all (a wrong file
is not a "difference" — the diff never runs).

Stdlib only; no third-party imports.
"""

import argparse
import json
import math
import sys

SCHEMA = "accord.run_report/1"


def require_schema(doc, path):
    """Refuse documents that are not run reports (exit 2).

    Diffing an arbitrary JSON file against a golden report would
    produce a wall of structural noise — or worse, accidentally pass
    when both sides lack the compared sections.  Gate on the schema
    tag before any comparison runs.
    """
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        print(f"compare_reports: {path} is not a {SCHEMA} document "
              f"(schema={got!r}); refusing to diff")
        sys.exit(2)


class Differ:
    def __init__(self, rtol, atol, max_diffs):
        self.rtol = rtol
        self.atol = atol
        self.max_diffs = max_diffs
        self.diffs = []

    def report(self, where, message):
        self.diffs.append(f"{where}: {message}")

    def exact(self, where, a, b):
        if a != b:
            self.report(where, f"{a!r} != {b!r}")

    def close(self, where, a, b):
        if isinstance(a, bool) or isinstance(b, bool):
            self.exact(where, a, b)
            return
        if a is None or b is None:
            self.exact(where, a, b)
            return
        if not math.isclose(a, b, rel_tol=self.rtol, abs_tol=self.atol):
            self.report(where, f"{a!r} != {b!r} (rtol={self.rtol}, "
                               f"atol={self.atol})")

    def value(self, where, a, b):
        """Dispatch: numbers by tolerance, everything else exactly."""
        a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
        b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
        if a_num and b_num:
            self.close(where, a, b)
        else:
            self.exact(where, a, b)

    def key_sets(self, where, a, b):
        """Compare dict key sets; return the shared keys."""
        missing = sorted(set(a) - set(b))
        extra = sorted(set(b) - set(a))
        if missing:
            self.report(where, f"missing in candidate: {missing}")
        if extra:
            self.report(where, f"only in candidate: {extra}")
        return sorted(set(a) & set(b))


def compare_tables(d, base, cand):
    for name in d.key_sets("tables", base, cand):
        where = f"tables[{name}]"
        bt, ct = base[name], cand[name]
        d.exact(f"{where}.columns", bt["columns"], ct["columns"])
        if len(bt["rows"]) != len(ct["rows"]):
            d.report(where, f"{len(bt['rows'])} rows != "
                            f"{len(ct['rows'])} rows")
            continue
        for r, (brow, crow) in enumerate(zip(bt["rows"], ct["rows"])):
            if len(brow) != len(crow):
                d.report(f"{where}.rows[{r}]", "row widths differ")
                continue
            for c, (bv, cv) in enumerate(zip(brow, crow)):
                d.value(f"{where}.rows[{r}][{c}]", bv, cv)


def compare_runs(d, base, cand):
    for key in d.key_sets("runs", base, cand):
        where = f"runs[{key}]"
        brun, crun = base[key], cand[key]
        d.exact(f"{where}.spec", brun.get("spec"), crun.get("spec"))
        bm, cm = brun.get("metrics", {}), crun.get("metrics", {})
        for path in d.key_sets(f"{where}.metrics", bm, cm):
            d.value(f"{where}.metrics[{path}]", bm[path], cm[path])
        be, ce = brun.get("epochs"), crun.get("epochs")
        if (be is None) != (ce is None):
            d.report(f"{where}.epochs",
                     "present in one report, absent in the other")
            continue
        if be is None:
            continue
        d.exact(f"{where}.epochs.positions", be["positions"],
                ce["positions"])
        d.exact(f"{where}.epochs.paths", be["paths"], ce["paths"])
        if len(be["samples"]) == len(ce["samples"]):
            for i, (bs, cs) in enumerate(zip(be["samples"],
                                             ce["samples"])):
                for j, (bv, cv) in enumerate(zip(bs, cs)):
                    d.value(f"{where}.epochs.samples[{i}][{j}]",
                            bv, cv)
        else:
            d.report(f"{where}.epochs.samples", "sample counts differ")


def compare_reports(base, cand, rtol, atol, max_diffs):
    d = Differ(rtol, atol, max_diffs)
    for doc, label in ((base, "baseline"), (cand, "candidate")):
        if doc.get("schema") != SCHEMA:
            d.report("schema", f"{label} is not a {SCHEMA} document "
                               f"(got {doc.get('schema')!r})")
    if d.diffs:
        return d.diffs

    for field in ("title", "reproduces", "notes"):
        d.exact(field, base.get(field), cand.get(field))

    base_params = {k: v for k, v in base.get("params", {}).items()
                   if k != "jobs"}
    cand_params = {k: v for k, v in cand.get("params", {}).items()
                   if k != "jobs"}
    for key in d.key_sets("params", base_params, cand_params):
        d.exact(f"params[{key}]", base_params[key], cand_params[key])

    for key in d.key_sets("configs", base.get("configs", {}),
                          cand.get("configs", {})):
        d.exact(f"configs[{key}]", base["configs"][key],
                cand["configs"][key])

    compare_tables(d, base.get("tables", {}), cand.get("tables", {}))
    compare_runs(d, base.get("runs", {}), cand.get("runs", {}))
    return d.diffs


def main():
    parser = argparse.ArgumentParser(
        description="diff two ACCORD run reports with tolerances"
    )
    parser.add_argument("baseline", help="golden report JSON")
    parser.add_argument("candidate", help="report JSON under test")
    parser.add_argument("--rtol", type=float, default=1e-4,
                        help="relative tolerance for numeric values")
    parser.add_argument("--atol", type=float, default=1e-9,
                        help="absolute tolerance for numeric values")
    parser.add_argument("--max-diffs", type=int, default=20,
                        help="cap on printed differences")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.candidate, encoding="utf-8") as fh:
        cand = json.load(fh)
    require_schema(base, args.baseline)
    require_schema(cand, args.candidate)

    diffs = compare_reports(base, cand, args.rtol, args.atol,
                            args.max_diffs)
    if diffs:
        for line in diffs[: args.max_diffs]:
            print(line)
        if len(diffs) > args.max_diffs:
            print(f"... and {len(diffs) - args.max_diffs} more")
        print(f"compare_reports: {len(diffs)} difference(s) between "
              f"{args.baseline} and {args.candidate}")
        return 1
    print(f"compare_reports: {args.candidate} matches {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
