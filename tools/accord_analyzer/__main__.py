"""accord_analyzer -- semantic lint for the ACCORD simulator.

Run as a directory (`python3 tools/accord_analyzer ...`); the package
directory lands on sys.path so the modules import as plain siblings.

Four rule families over one shared model (model.py -> rules.py):

  hot-path purity      ACCORD_HOT functions must not allocate, build
                       std::function, create string temporaries, or
                       virtual-dispatch off non-allowlisted bases
                       (one level of call-graph propagation)
  determinism          AST-grade bans: output-reaching unordered
                       iteration, pointer-keyed ordered containers,
                       wall-clock/rand/raw-entropy outside rng.hpp
  metric completeness  every registrable *Stats field registered,
                       no duplicate registration paths
  conventions          path-scoped construct bans: printf in bench/
                       (printf-metrics), LookupMode dispatch outside
                       the plan core (lookup-switch), and
                       std::priority_queue (priority-queue)

The frontend (portable.py) is pure Python: it builds the model from
source text alone, generates the committed baseline and gates ctest/CI.

Scope: hot + metric rules run over src/; determinism and convention
rules also cover bench/, examples/ and tests/ (minus
tests/lint_fixtures/).

Exit codes: 0 clean vs baseline; 1 new or stale findings (or failing
self-test); 2 usage/environment error.
"""

import argparse
import pathlib
import sys

import baseline as baseline_mod
import portable
import rules
import selftest

DEFAULT_BASELINE = "tools/accord_analyzer/baseline.json"
HOT_METRIC_DIRS = ("src",)
DETERMINISM_DIRS = ("src", "bench", "examples", "tests")
FIXTURE_MARKER = "lint_fixtures"
SOURCE_SUFFIXES = (".hpp", ".cpp")


def discover(root):
    """(all scanned files, src-scope set, determinism-scope set)."""
    src_scope = set()
    det_scope = set()
    for d in DETERMINISM_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix not in SOURCE_SUFFIXES:
                continue
            rel = p.relative_to(root).as_posix()
            if FIXTURE_MARKER in rel:
                continue
            det_scope.add(rel)
            if d in HOT_METRIC_DIRS:
                src_scope.add(rel)
    return sorted(det_scope), src_scope, det_scope


def analyze(root, files):
    parsed = []
    for rel in files:
        text = (root / rel).read_text(encoding="utf-8")
        parsed.append(portable.parse_file(rel, text))
    return portable.build_model(parsed)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="accord_analyzer",
        description="semantic lint: hot-path purity, determinism, "
                    "metric completeness, conventions")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--baseline", default=None,
                    help=f"baseline path (default: {DEFAULT_BASELINE})")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--check-baseline", action="store_true",
                    help="verify the baseline file is canonical "
                         "(byte round-trip), then exit")
    ap.add_argument("--self-test", metavar="DIR", default=None,
                    help="run the per-rule fixture suite and exit")
    ap.add_argument("--list-hot", action="store_true",
                    help="list ACCORD_HOT functions and exit")
    args = ap.parse_args(argv)

    root = pathlib.Path(args.root).resolve()
    baseline_path = pathlib.Path(
        args.baseline if args.baseline
        else root / DEFAULT_BASELINE)

    if args.self_test:
        return 1 if selftest.run(args.self_test) else 0

    if args.check_baseline:
        try:
            keys, text = baseline_mod.load(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        from model import Finding
        rerendered = baseline_mod.render(
            [Finding(*key) for key in keys])
        if rerendered != text:
            print(f"{baseline_path}: not in canonical form "
                  f"(regenerate with --update-baseline)",
                  file=sys.stderr)
            return 1
        print(f"{baseline_path}: canonical ({len(keys)} findings)")
        return 0

    files, src_scope, det_scope = discover(root)
    if not files:
        print(f"error: no sources found under {root}", file=sys.stderr)
        return 2

    model = analyze(root, files)

    if args.list_hot:
        seen = set()
        for fn in model.functions:
            if (fn.is_hot or fn.hot_allow) and fn.name not in seen:
                seen.add(fn.name)
                flag = " [allow]" if fn.hot_allow else ""
                print(f"{fn.file}:{fn.line}: {fn.name}{flag}")
        print(f"{len(seen)} hot functions")
        return 0

    findings = rules.evaluate(
        model,
        hot_scope=lambda f: f in src_scope,
        det_scope=lambda f: f in det_scope,
        metric_scope=lambda f: f in src_scope)

    if args.update_baseline:
        baseline_path.write_text(baseline_mod.render(findings),
                                 encoding="utf-8")
        print(f"wrote {baseline_path} ({len(findings)} findings)")
        return 0

    try:
        known, _ = baseline_mod.load(baseline_path)
    except OSError:
        print(f"error: no baseline at {baseline_path} "
              f"(bootstrap with --update-baseline)", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    new, stale = baseline_mod.diff(findings, known)
    for f in new:
        print(f"NEW   {f.render()}")
    for key in stale:
        rule, file, context, detail = key
        print(f"STALE {file}: [{rule}] {context}: {detail} "
              f"(fixed? refresh the baseline)")
    status = "clean" if not (new or stale) else "FAIL"
    print(f"analyzer: {len(files)} files, "
          f"{len(findings)} findings ({len(new)} new, "
          f"{len(stale)} stale) vs {baseline_path.name} -> {status}")
    return 0 if not (new or stale) else 1


if __name__ == "__main__":
    sys.exit(main())
