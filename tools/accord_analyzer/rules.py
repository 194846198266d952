"""Rule evaluation over the shared semantic model.

The frontend (portable.py) produces a model.Model, and every rule
decision -- hot-path purity with one-level propagation, determinism,
metric completeness, the path-scoped convention bans -- lives here,
apart from extraction.
"""

from model import (ALWAYS_CHECKED_STRUCTS, Finding, OP_RULE,
                   PROPAGATED_OP_KINDS)

# src/common/rng.hpp owns the seeded-PRNG abstraction; the raw-entropy
# bans obviously cannot apply inside it.
RNG_EXEMPT_RULES = {"wallclock", "rand", "random-device", "std-engine"}

# src/common/telemetry/ is the flight recorder: host-resource
# profiling (wall time, RSS, ETA) is its whole purpose, and every
# wall-derived value it emits stays in the stream's declared volatile
# partition.  Only the wallclock rule is exempt there -- by PATH, so a
# telemetry-sounding file elsewhere gets no pass.
TELEMETRY_EXEMPT_RULES = {"wallclock"}

_HOT_OP_KINDS = ("alloc", "std-function", "string", "virtual-call",
                 "paged-materialize")


def _is_rng_impl(path):
    return path.replace("\\", "/").endswith("/rng.hpp")


# src/common/paged_table.hpp IS the storage backend: its own methods
# are the sanctioned materializeSlot/ensurePage seam, so the
# hot-paged-materialize ban cannot apply inside it.  Path-scoped like
# the rng exemption — a caller elsewhere gets no pass.
def _is_paged_seam(path):
    return path.replace("\\", "/").endswith("/paged_table.hpp")


def _is_telemetry_impl(path):
    return "src/common/telemetry/" in path.replace("\\", "/")


# The convention rules are bans on whole constructs, two of them
# scoped by PATH like the exemptions above:
#   printf-metrics  bench/ sources print through report::Reporter, so
#                   the text and the JSON report cannot diverge;
#   lookup-switch   LookupMode dispatch lives in the access-plan core
#                   (planLookup) and the enum token table only, so the
#                   warm and timed paths cannot re-grow per-mode
#                   branches;
#   priority-queue  (everywhere) heap order is unstable for equal keys;
#                   schedule through EventQueue, which keeps same-cycle
#                   FIFO order.
def _is_bench_source(path):
    return "/bench/" in "/" + path.replace("\\", "/")


def _is_lookup_dispatch_home(path):
    return path.replace("\\", "/").endswith(
        ("src/dramcache/access_plan.cpp", "src/dramcache/enums.cpp"))


def evaluate(model, hot_scope=None, det_scope=None, metric_scope=None):
    """Evaluate every rule; scopes are file predicates (None = all).

    Returns findings deduplicated by key (line numbers are display-only
    and excluded from keys, so N same-shape violations in one function
    collapse -- by design: the baseline must survive reordering).
    """
    hot_scope = hot_scope or (lambda f: True)
    det_scope = det_scope or (lambda f: True)
    metric_scope = metric_scope or (lambda f: True)

    findings = []
    findings.extend(_hot_findings(model, hot_scope))
    findings.extend(_determinism_findings(model, det_scope))
    findings.extend(_metric_findings(model, metric_scope))

    unique = {}
    for f in findings:
        unique.setdefault(f.key(), f)
    return sorted(unique.values(),
                  key=lambda f: (f.file, f.rule, f.context, f.detail))


# ---------------------------------------------------------------------
# Hot-path purity
# ---------------------------------------------------------------------

def _hot_findings(model, scope):
    findings = []
    hot_names = {fn.name for fn in model.functions
                 if fn.is_hot or fn.hot_allow}
    allow_names = {fn.name for fn in model.functions if fn.hot_allow}

    # Unique-by-last-name resolution map for one-level propagation.
    by_last = {}
    for fn in model.functions:
        if fn.has_body:
            by_last.setdefault(fn.name.split("::")[-1], []).append(fn)

    for fn in model.functions:
        if not (fn.is_hot and fn.has_body) or not scope(fn.file):
            continue
        if fn.name in allow_names:
            continue  # ACCORD_HOT_ALLOW: whole-function escape hatch

        for op in fn.ops:
            if op.kind not in _HOT_OP_KINDS or op.suppressed:
                continue
            if op.kind == "paged-materialize" \
                    and _is_paged_seam(fn.file):
                continue
            findings.append(Finding(OP_RULE[op.kind], fn.file,
                                    fn.context(), op.detail, op.line))

        # One-level call-graph propagation: a hot caller inherits
        # alloc/std-function/string ops from a non-hot direct callee
        # when the callee's last name resolves uniquely in the repo.
        for callee in sorted(set(fn.calls)):
            cands = by_last.get(callee, ())
            if len(cands) != 1:
                continue  # unknown or ambiguous: stay silent
            g = cands[0]
            if g.name == fn.name or g.name in hot_names:
                continue  # hot callees report their own ops
            for op in g.ops:
                if op.kind not in PROPAGATED_OP_KINDS or op.suppressed:
                    continue
                findings.append(Finding(
                    OP_RULE[op.kind], fn.file, fn.context(),
                    f"{op.detail} via {callee}", op.line))
    return findings


# ---------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------

def _determinism_findings(model, scope):
    findings = []
    for file, line, kind, detail, ctx, suppressed in model.file_ops:
        if suppressed or not scope(file):
            continue
        if kind in RNG_EXEMPT_RULES and _is_rng_impl(file):
            continue
        if kind in TELEMETRY_EXEMPT_RULES and _is_telemetry_impl(file):
            continue
        if kind == "printf-metrics" and not _is_bench_source(file):
            continue
        if kind == "lookup-switch" and _is_lookup_dispatch_home(file):
            continue
        findings.append(Finding(OP_RULE[kind], file, ctx, detail, line))

    for fn in model.functions:
        if not fn.has_body or not scope(fn.file):
            continue
        for op in fn.ops:
            if op.kind != "unordered-iteration" or op.suppressed:
                continue
            findings.append(Finding("unordered-iteration", fn.file,
                                    fn.context(), op.detail, op.line))
    return findings


# ---------------------------------------------------------------------
# Metric-registration completeness
# ---------------------------------------------------------------------

def _metric_findings(model, scope):
    findings = []
    registered_ids = set()
    for reg in model.registers:
        registered_ids.update(reg.identifiers)

    for struct in model.structs:
        if not scope(struct.file):
            continue
        # A struct participates when it defines registerMetrics itself,
        # when some registerMetrics body names at least one of its
        # registrable fields, or when it is on the always-checked list
        # (the "deliberately unregistered" class).
        named = any(name in registered_ids
                    for name, _, _, _ in struct.fields)
        if not (struct.defines_register or named
                or struct.name in ALWAYS_CHECKED_STRUCTS):
            continue
        for name, _ftype, line, allowed in struct.fields:
            if name in registered_ids:
                continue
            if "metric-unregistered" in allowed:
                continue
            findings.append(Finding(
                "metric-unregistered", struct.file, struct.name,
                f"field '{name}' never registered", line))

    for reg in model.registers:
        if not scope(reg.file):
            continue
        seen = {}
        for line, path in reg.add_paths:
            if not path:
                continue
            seen.setdefault(path, []).append(line)
        ctx = "::".join(reg.name.split("::")[-2:])
        for path, lines in sorted(seen.items()):
            if len(set(lines)) < 2:
                continue
            findings.append(Finding(
                "metric-duplicate-path", reg.file, ctx,
                "duplicate metric path " + "/".join(path), lines[0]))
    return findings
