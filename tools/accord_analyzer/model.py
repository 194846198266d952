"""Semantic model between the analyzer's frontend and its rules.

The frontend (portable.py) reduces each translation unit to a small
vocabulary of facts; rules.py then evaluates every rule against the
merged model, so extraction and rule logic stay separate.  Finding
keys are line-number-free so the committed baseline survives
unrelated edits.
"""

from dataclasses import dataclass, field

# ---------------------------------------------------------------------
# Rule names (the annotation grammar's vocabulary)
# ---------------------------------------------------------------------

HOT_RULES = ("hot-alloc", "hot-std-function", "hot-string", "hot-virtual",
             "hot-paged-materialize")
DETERMINISM_RULES = ("unordered-iteration", "pointer-key", "wallclock",
                     "rand", "random-device", "std-engine")
METRIC_RULES = ("metric-unregistered", "metric-duplicate-path")
# Whole-construct bans, each scoped by path in rules.py.
CONVENTION_RULES = ("printf-metrics", "lookup-switch", "priority-queue")
ALL_RULES = HOT_RULES + DETERMINISM_RULES + METRIC_RULES + CONVENTION_RULES

# Virtual dispatch on these bases is the sanctioned extension mechanism
# (the organization, policy and traffic-source strategy interfaces);
# everything else on a hot path must be devirtualized or allowed
# explicitly.
VIRTUAL_ALLOWLIST = {"OrgStrategy", "OrgServices", "WayPolicy",
                     "TrafficSource"}

# Stats structs checked even when no registerMetrics body names their
# fields (the "deliberately unregistered" class of struct).
ALWAYS_CHECKED_STRUCTS = {"SystemMetrics"}

# Field types a MetricRegistry can register as leaves.
REGISTRABLE_FIELD_TYPES = {"Counter", "Ratio", "Average", "Histogram",
                           "Cycle", "uint64_t"}

# Op kind -> rule that consumes it (hot rules also propagate one call
# level; see rules.py).
OP_RULE = {
    "alloc": "hot-alloc",
    "std-function": "hot-std-function",
    "string": "hot-string",
    "virtual-call": "hot-virtual",
    "paged-materialize": "hot-paged-materialize",
    "unordered-iteration": "unordered-iteration",
    "pointer-key": "pointer-key",
    "wallclock": "wallclock",
    "rand": "rand",
    "random-device": "random-device",
    "std-engine": "std-engine",
    "printf-metrics": "printf-metrics",
    "lookup-switch": "lookup-switch",
    "priority-queue": "priority-queue",
}

# Ops whose hot-rule findings propagate one level down the call graph
# (a hot caller inherits them from a non-hot direct callee).
PROPAGATED_OP_KINDS = ("alloc", "std-function", "string")


@dataclass
class Op:
    """One interesting operation inside a function body."""

    kind: str           # key of OP_RULE
    line: int           # 1-based, display only
    detail: str         # stable description (part of the finding key)
    suppressed: bool    # line-level accord-lint allow present


@dataclass
class FunctionInfo:
    """One function definition (or bodyless declaration)."""

    name: str                   # qualified, e.g. "EventQueue::step"
    file: str                   # repo-relative path
    line: int
    is_hot: bool = False
    hot_allow: bool = False     # ACCORD_HOT_ALLOW escape hatch
    has_body: bool = False
    param_tokens: tuple = ()    # flattened parameter-list tokens
    ops: list = field(default_factory=list)         # [Op]
    calls: list = field(default_factory=list)       # callee last names
    has_sink: bool = False      # body directly reaches report output

    def context(self):
        """Last two :: components -- the finding-key context."""
        parts = self.name.split("::")
        return "::".join(parts[-2:])


@dataclass
class StructInfo:
    """A *Stats struct definition with its registrable fields."""

    name: str                   # unqualified
    file: str
    line: int
    defines_register: bool = False
    # [(field name, type token, line, allowed-rule set)]
    fields: list = field(default_factory=list)


@dataclass
class RegisterBody:
    """One registerMetrics() definition."""

    name: str                   # qualified
    file: str
    line: int
    identifiers: set = field(default_factory=set)
    # [(line, (string literal, ...))] -- one tuple per add-call site
    add_paths: list = field(default_factory=list)


@dataclass
class ClassInfo:
    """Type facts needed for receiver resolution."""

    name: str                   # unqualified
    bases: set = field(default_factory=set)
    virtual_methods: set = field(default_factory=set)
    members: dict = field(default_factory=dict)   # name -> type string


@dataclass
class Model:
    """Everything the rules need, merged over all scanned files."""

    functions: list = field(default_factory=list)     # [FunctionInfo]
    structs: list = field(default_factory=list)       # [StructInfo]
    registers: list = field(default_factory=list)     # [RegisterBody]
    classes: dict = field(default_factory=dict)       # name -> ClassInfo
    # (file, line, kind, detail, context, suppressed) ops outside any
    # function body (globals, class members)
    file_ops: list = field(default_factory=list)
    function_aliases: set = field(default_factory=set)

    def merge(self, other):
        self.functions.extend(other.functions)
        self.structs.extend(other.structs)
        self.registers.extend(other.registers)
        for name, cls in other.classes.items():
            mine = self.classes.setdefault(name, ClassInfo(name))
            mine.bases.update(cls.bases)
            mine.virtual_methods.update(cls.virtual_methods)
            mine.members.update(cls.members)
        self.file_ops.extend(other.file_ops)
        self.function_aliases.update(other.function_aliases)


@dataclass(frozen=True)
class Finding:
    """One rule violation.  The key omits line numbers on purpose."""

    rule: str
    file: str
    context: str
    detail: str
    line: int = 0               # display only, excluded from the key

    def key(self):
        return (self.rule, self.file, self.context, self.detail)

    def render(self):
        return (f"{self.file}:{self.line}: [{self.rule}] "
                f"{self.context}: {self.detail}")
