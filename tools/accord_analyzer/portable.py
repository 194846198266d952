"""Portable (pure-Python) C++ frontend.

Builds the shared semantic model (model.py) from source text alone: a
structural parse finds namespaces, classes, functions and fields, and a
second phase walks function bodies with whole-tree knowledge (function
aliases, functions taking std::function parameters, class hierarchies)
to extract the operations the rules consume.

It runs in any environment with a Python interpreter, generates the
committed baseline, and is what the ctest gate executes.

It is a recognizer for the repository's house style, not a full C++
parser; the AST fixtures under tests/lint_fixtures/ast/ pin exactly
which constructs it must understand.
"""

import re

from lexer import tokenize
import suppress
from model import (ALWAYS_CHECKED_STRUCTS, ClassInfo, FunctionInfo, Model,
                   Op, OP_RULE, REGISTRABLE_FIELD_TYPES, RegisterBody,
                   StructInfo)

# ---------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------

ALLOC_FUNCS = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc",
               "posix_memalign"}
ALLOC_MAKERS = {"make_unique", "make_shared"}
# The paged storage layer's allocation seams (common/paged_table.hpp):
# calling either from an ACCORD_HOT function puts page materialization
# on the timed read path.
PAGED_MATERIALIZE_IDS = {"materializeSlot", "ensurePage"}
WALLCLOCK_IDS = {"steady_clock", "system_clock", "high_resolution_clock",
                 "clock_gettime", "gettimeofday"}
RAND_IDS = {"rand", "srand"}
ENGINE_IDS = {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
              "default_random_engine", "ranlux24", "ranlux48", "knuth_b"}
SINK_IDS = {"printf", "fprintf", "snprintf", "puts", "fputs", "fwrite",
            "cout", "cerr", "clog"}
# Direct console output, which bench/ sources must route through
# report::Reporter (printf-metrics); snprintf into a label is fine.
PRINTF_IDS = {"printf", "fprintf", "puts", "fputs"}
STRING_TYPE_IDS = {"string", "stringstream", "ostringstream",
                   "istringstream"}
SINK_FN_RE = re.compile(
    r"(registerMetrics|report|print|dump|describe|emit|toJson|toCsv)",
    re.IGNORECASE)
ADD_CALL_RE = re.compile(r"^add[A-Z]")

TYPE_KEYWORDS = {"void", "int", "bool", "char", "unsigned", "signed",
                 "long", "short", "float", "double", "auto"}
NOT_CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                     "alignof", "catch", "throw", "case", "do", "else",
                     "static_assert", "decltype", "defined", "noexcept",
                     "alignas", "assert"}
DECL_QUALIFIERS = {"const", "constexpr", "static", "inline", "mutable",
                   "volatile", "friend", "explicit", "virtual",
                   "typename", "register", "thread_local"}
TEST_MACROS = {"TEST", "TEST_F", "TEST_P", "TYPED_TEST"}
SET_LIKE = {"map", "set", "multimap", "multiset"}


class ParsedFile:
    def __init__(self, rel):
        self.rel = rel
        self.allowed = {}        # line -> suppressed rule set
        self.functions = []      # FnRec
        self.classes = {}        # name -> ClassInfo
        self.structs = []        # StructInfo
        self.aliases = set()     # std::function aliases
        self.tokens = []         # full token stream
        self.spans = []          # (start_line, end_line, context)


class FnRec:
    """Parse-time function record; becomes a FunctionInfo later."""

    def __init__(self, name, line, class_name):
        self.name = name          # qualified (class prefix included)
        self.line = line
        self.class_name = class_name
        self.is_hot = False
        self.hot_allow = False
        self.param_tokens = []
        self.body = None          # token slice when defined here


# ---------------------------------------------------------------------
# Structural parser
# ---------------------------------------------------------------------

# Macro/utility names that look like `name(...)` in a declaration head
# but never name the declared function.
HEAD_SKIP_NAMES = {"ACCORD_HOT_ALLOW", "ACCORD_ASSERT", "ACCORD_CHECK",
                   "alignas", "decltype", "noexcept", "__attribute__",
                   "static_assert"}


class StructuralParser:
    def __init__(self, rel, text):
        self.out = ParsedFile(rel)
        lines = text.split("\n")
        self.out.allowed = suppress.allowed_rules_by_line(lines)
        self.ts = tokenize(text)
        self.out.tokens = self.ts
        self.i = 0
        self._cur_struct = None

    # -- token helpers -------------------------------------------------

    def _val(self, k=0):
        j = self.i + k
        return self.ts[j].value if 0 <= j < len(self.ts) else None

    def _kind(self, k=0):
        j = self.i + k
        return self.ts[j].kind if 0 <= j < len(self.ts) else None

    def _skip_balanced(self, open_v, close_v):
        """Consume from the current `open_v` through its match."""
        depth = 0
        start = self.i
        while self.i < len(self.ts):
            v = self._val()
            if v == open_v:
                depth += 1
            elif v == close_v:
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return start + 1, self.i - 1
            self.i += 1
        return start + 1, self.i

    def _skip_angle(self):
        """From a `<`, consume through the matching `>` (best effort)."""
        depth = 0
        while self.i < len(self.ts):
            v = self._val()
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return True
            elif v in (";", "{", "}"):
                return False  # not a template after all
            elif v == "(":
                self._skip_balanced("(", ")")
                continue
            self.i += 1
        return False

    # -- entry ---------------------------------------------------------

    def parse(self):
        self._parse_scope(ns=[], cls=None)
        return self.out

    # -- declarations --------------------------------------------------

    def _parse_scope(self, ns, cls):
        """Parse a namespace or class body until the closing `}`/EOF.

        `cls` is the enclosing ClassInfo (None at namespace scope).
        """
        head = []
        while self.i < len(self.ts):
            v = self._val()
            kind = self._kind()

            if v == "}":
                self.i += 1
                return

            if not head:
                if v == "namespace":
                    self._parse_namespace(ns, cls)
                    continue
                if v in ("class", "struct", "union"):
                    if self._parse_class(ns, cls):
                        continue
                    # fell through: elaborated type in a declaration
                if v == "enum":
                    self._skip_enum()
                    continue
                if v == "template":
                    self.i += 1
                    if self._val() == "<":
                        self._skip_angle()
                    continue
                if v == "using":
                    self._parse_using(cls)
                    continue
                if v == "extern" and self._kind(1) == "str":
                    self.i += 2
                    if self._val() == "{":
                        self.i += 1
                        self._parse_scope(ns, cls)
                    continue
                if cls is not None and v in ("public", "private",
                                             "protected") \
                        and self._val(1) == ":":
                    self.i += 2
                    continue

            if v == ";":
                self.i += 1
                self._process_statement(head, ns, cls)
                head = []
                continue

            if v == "(":
                s, e = self._skip_balanced("(", ")")
                head.append(("(", s, e, self.ts[s - 1].line))
                continue

            if v == "{":
                if head and _hval(head[-1]) == "=":
                    self._skip_balanced("{", "}")
                    continue
                fn = self._match_function_head(head, ns, cls)
                if fn is not None:
                    self._parse_function_body(fn, ns, cls)
                    head = []
                    continue
                # Unrecognized block (array init, stray macro body):
                # skip it wholesale.
                self._skip_balanced("{", "}")
                head = []
                continue

            if v == ":" and head:
                fn = self._match_function_head(head, ns, cls)
                if fn is not None:
                    self.i += 1
                    if self._consume_ctor_inits():
                        self._parse_function_body(fn, ns, cls)
                        head = []
                        continue
                    # `= 0` style or parse trouble: drop to ';' path.
                head.append(self.ts[self.i])
                self.i += 1
                continue

            if v == "<" and head and _hkind(head[-1]) == "id":
                mark = self.i
                if self._skip_angle():
                    head.append(("<>", mark + 1, self.i - 1,
                                 self.ts[mark].line))
                    continue
                self.i = mark
            head.append(self.ts[self.i])
            self.i += 1

    def _parse_namespace(self, ns, cls):
        self.i += 1  # 'namespace'
        parts = []
        while self._kind() == "id" or self._val() == "::":
            if self._kind() == "id":
                parts.append(self._val())
            self.i += 1
        if self._val() == "{":
            self.i += 1
            self._parse_scope(ns + parts, cls)
        elif self._val() == "=":  # namespace alias
            while self.i < len(self.ts) and self._val() != ";":
                self.i += 1
            self.i += 1

    def _parse_class(self, ns, cls):
        """Returns True when a class was consumed (def or fwd decl)."""
        mark = self.i
        self.i += 1  # class/struct/union
        name = None
        if self._kind() == "id":
            name = self._val()
            self.i += 1
            # Qualified definitions (`struct Outer::Inner {`): keep the
            # innermost name.
            while self._val() == "::" and self._kind(1) == "id":
                name = self._val(1)
                self.i += 2
            if self._val() == "<":  # explicit specialization etc.
                self._skip_angle()
        if self._val() == "final":
            self.i += 1
        bases = set()
        if self._val() == ":":
            self.i += 1
            while self.i < len(self.ts) and self._val() != "{":
                if self._val() == ";":
                    self.i = mark + 1  # bitfield-ish confusion: bail
                    return False
                if self._kind() == "id" and self._val() not in (
                        "public", "protected", "private", "virtual"):
                    base = self._val()
                    if self._val(1) == "<":
                        self.i += 1
                        self._skip_angle()
                        bases.add(base)
                        continue
                    if self._val(1) == "::":
                        self.i += 2
                        continue
                    bases.add(base)
                self.i += 1
        if self._val() != "{":
            # Forward declaration or elaborated type: consume nothing
            # extra; let the caller treat remaining tokens as a head.
            if self._val() == ";":
                self.i += 1
                return True
            self.i = mark + 1
            return False
        info = self.out.classes.setdefault(name or "<anon>",
                                           ClassInfo(name or "<anon>"))
        info.bases.update(bases)
        start_line = self.ts[mark].line
        struct = None
        if name and (name.endswith("Stats")
                     or name in ALWAYS_CHECKED_STRUCTS):
            struct = StructInfo(name, self.out.rel, start_line)
            self.out.structs.append(struct)
        self.i += 1  # '{'
        prev_struct = self._cur_struct
        self._cur_struct = struct
        self._parse_scope(ns, info)
        self._cur_struct = prev_struct
        end_line = self.ts[self.i - 1].line if self.i - 1 < len(self.ts) \
            else start_line
        self.out.spans.append((start_line, end_line, (name or "<anon>")))
        if self._val() == ";":
            self.i += 1
        return True

    def _skip_enum(self):
        while self.i < len(self.ts) and self._val() not in ("{", ";"):
            self.i += 1
        if self._val() == "{":
            self._skip_balanced("{", "}")
        while self.i < len(self.ts) and self._val() != ";":
            self.i += 1
        self.i += 1

    def _parse_using(self, cls):
        self.i += 1  # 'using'
        stmt = []
        while self.i < len(self.ts) and self._val() != ";":
            stmt.append(self.ts[self.i])
            self.i += 1
        self.i += 1
        if len(stmt) >= 2 and stmt[1].value == "=":
            rhs = [t.value for t in stmt[2:]]
            for k in range(1, len(rhs)):
                if rhs[k] == "function" and rhs[k - 1] == "::":
                    self.out.aliases.add(stmt[0].value)
                    break

    def _consume_ctor_inits(self):
        """After `) :`, consume member initializers up to the body `{`.

        Each item is name[(...)|{...}], separated by commas; the body
        brace follows the last item.  Returns True when positioned at
        the `{` (which is NOT consumed).
        """
        while self.i < len(self.ts):
            if self._kind() != "id" and self._val() != "::":
                return False
            while self._kind() == "id" or self._val() == "::":
                self.i += 1
                if self._val() == "<":
                    if not self._skip_angle():
                        return False
            if self._val() == "(":
                self._skip_balanced("(", ")")
            elif self._val() == "{":
                self._skip_balanced("{", "}")
            else:
                return False
            if self._val() == ",":
                self.i += 1
                continue
            return self._val() == "{"
        return False

    # -- heads and statements -----------------------------------------

    def _match_function_head(self, head, ns, cls):
        """Recognize a function definition head; returns FnRec or None."""
        paren = None
        name = None
        line = 0
        for idx, h in enumerate(head):
            if not (isinstance(h, tuple) and h[0] == "(" and idx > 0):
                continue
            before = head[:idx]
            # Assignment before the parens: a variable, not a function
            # (except `operator=`, whose `=` follows `operator`).
            plain_eq = False
            for k, b in enumerate(before):
                if _hval(b) == "=" and not (
                        k > 0 and _hval(before[k - 1]) == "operator"):
                    plain_eq = True
                    break
            if plain_eq:
                return None
            cand, cand_line = self._head_name(before)
            if cand in HEAD_SKIP_NAMES:
                continue  # macro argument parens; keep searching
            if cand is None:
                return None
            paren, name, line = idx, cand, cand_line
            break
        if paren is None or name is None:
            return None
        if name in TEST_MACROS:
            s, e = head[paren][1], head[paren][2]
            args = [t.value for t in self.ts[s:e] if t.kind == "id"]
            name = "::".join(args) if args else name
            fn = FnRec(name, line, None)
            fn.param_tokens = []
            self.out.functions.append(fn)
            return fn
        if name == "operator()":
            # `operator ( ) ( params )`: params are the next group.
            if paren + 1 < len(head) and isinstance(head[paren + 1],
                                                    tuple):
                paren += 1
            else:
                return None
        class_name = cls.name if cls is not None else None
        qual_parts = name.split("::")
        if len(qual_parts) > 1 and class_name is None:
            class_name = qual_parts[-2]
        qual = name if class_name is None or name.startswith(
            class_name + "::") else f"{class_name}::{name}"
        fn = FnRec(qual, line, class_name)
        head_ids = {_hval(h) for h in head}
        fn.is_hot = "ACCORD_HOT" in head_ids
        fn.hot_allow = "ACCORD_HOT_ALLOW" in head_ids
        s, e = head[paren][1], head[paren][2]
        fn.param_tokens = self.ts[s:e]
        self.out.functions.append(fn)
        struct = self._cur_struct
        if struct is not None and cls is not None \
                and struct.name == cls.name \
                and name.split("::")[-1] == "registerMetrics":
            struct.defines_register = True
        if cls is not None:
            if "virtual" in head_ids or "override" in {
                    _hval(h) for h in head[paren + 1:]}:
                cls.virtual_methods.add(name.split("::")[-1])
        return fn

    def _head_name(self, before):
        """Name (and line) of the entity a head declares, or None."""
        if not before:
            return None, 0
        last = before[-1]
        if _hval(last) == "operator":
            return "operator()", _hline(last)
        j = len(before) - 2
        if j >= 0 and _hval(before[j]) == "operator":
            # operator= / operator== / operator bool / operator Cycle...
            return f"operator{_hval(last)}", _hline(last)
        if _hkind(last) != "id":
            return None, 0
        name = _hval(last)
        line = _hline(last)
        if name in TYPE_KEYWORDS or name in NOT_CALL_KEYWORDS:
            return None, 0
        if j >= 0 and _hval(before[j]) == "~":
            name = "~" + name
            j -= 1
        parts = [name]
        while j >= 1 and _hval(before[j]) == "::" \
                and _hkind(before[j - 1]) == "id":
            parts.insert(0, _hval(before[j - 1]))
            j -= 2
        return "::".join(parts), line

    def _parse_function_body(self, fn, ns, cls):
        assert self._val() == "{"
        s, e = self._skip_balanced("{", "}")
        fn.body = (s, e)
        start = self.ts[s - 1].line
        end = self.ts[e].line if e < len(self.ts) else start
        ctx = "::".join(fn.name.split("::")[-2:])
        self.out.spans.append((start, end, ctx))
        if self._val() == ";":
            self.i += 1

    def _process_statement(self, head, ns, cls):
        if not head:
            return
        has_paren = any(isinstance(h, tuple) and h[0] == "(" for h in head)
        if has_paren:
            self._match_function_head(head, ns, cls)
            return
        if cls is None:
            return
        self._process_field(head, cls)

    def _process_field(self, head, cls):
        # Strip trailing `= init` and array extents.
        toks = list(head)
        for idx, h in enumerate(toks):
            if _hval(h) == "=":
                toks = toks[:idx]
                break
        while toks and _hval(toks[-1]) == "]":
            depth = 0
            for idx in range(len(toks) - 1, -1, -1):
                if _hval(toks[idx]) == "]":
                    depth += 1
                elif _hval(toks[idx]) == "[":
                    depth -= 1
                    if depth == 0:
                        toks = toks[:idx]
                        break
            else:
                return
        if len(toks) < 2 or _hkind(toks[-1]) != "id":
            return
        name = _hval(toks[-1])
        line = _hline(toks[-1])
        type_toks = toks[:-1]
        type_ids = [_hval(h) for h in type_toks
                    if _hkind(h) == "id"
                    and _hval(h) not in DECL_QUALIFIERS]
        if not type_ids:
            return
        type_str = _render_type(type_toks, self.ts)
        cls.members[name] = type_str
        struct = getattr(self, "_cur_struct", None)
        if struct is not None and struct.name == cls.name:
            registrable = (type_ids[-1] in REGISTRABLE_FIELD_TYPES
                           and not any(isinstance(h, tuple)
                                       and h[0] == "<>"
                                       for h in type_toks)
                           and not any(_hval(h) in ("*", "&")
                                       for h in type_toks))
            if registrable:
                allowed = self.out.allowed.get(line, set())
                struct.fields.append((name, type_ids[-1], line,
                                      frozenset(allowed)))
            if name == "registerMetrics":
                struct.defines_register = True


def _hval(h):
    if isinstance(h, tuple):
        return h[0]
    return h.value


def _hkind(h):
    if isinstance(h, tuple):
        return "group"
    return h.kind


def _hline(h):
    if isinstance(h, tuple):
        return h[3]
    return h.line


def _render_type(type_toks, ts):
    parts = []
    for h in type_toks:
        if isinstance(h, tuple):
            if h[0] == "<>":
                inner = " ".join(t.value for t in ts[h[1]:h[2]])
                parts.append("<" + inner + ">")
            continue
        parts.append(h.value)
    return " ".join(parts)


# ---------------------------------------------------------------------
# Phase 2/3: whole-tree knowledge + body walking
# ---------------------------------------------------------------------

_PTR_RE = re.compile(r"(?:unique_ptr|shared_ptr)\s*<(.*)>")
_ID_RE = re.compile(r"[A-Za-z_]\w*")
_NOT_CLASS_IDS = {"const", "volatile", "unsigned", "signed", "struct",
                  "class", "typename", "static", "mutable", "auto"}
_STMT_KEYWORDS = {"return", "delete", "if", "for", "while", "do",
                  "switch", "case", "break", "continue", "goto", "else",
                  "new", "throw", "using", "typedef", "public",
                  "private", "protected", "try", "catch"}


def class_of(type_str):
    """Reduce a rendered type string to a bare class name (or None)."""
    if not type_str:
        return None
    m = _PTR_RE.search(type_str)
    if m:
        return class_of(m.group(1))
    # Drop template arguments of non-pointer wrappers.
    base = type_str.split("<", 1)[0]
    ids = [w for w in _ID_RE.findall(base) if w not in _NOT_CLASS_IDS]
    return ids[-1] if ids else None


class Knowledge:
    """Merged whole-tree facts the body walker needs."""

    def __init__(self, parsed_files):
        self.aliases = set()
        self.classes = {}
        self.fn_with_function_param = set()
        for pf in parsed_files:
            self.aliases.update(pf.aliases)
            for name, cls in pf.classes.items():
                mine = self.classes.setdefault(name, ClassInfo(name))
                mine.bases.update(cls.bases)
                mine.virtual_methods.update(cls.virtual_methods)
                mine.members.update(cls.members)
        for pf in parsed_files:
            for fn in pf.functions:
                if self._params_take_function(fn.param_tokens, pf.tokens):
                    self.fn_with_function_param.add(
                        fn.name.split("::")[-1])

    def _params_take_function(self, params, ts):
        vals = [t.value for t in params]
        for k, v in enumerate(vals):
            if v == "function" and k > 0 and vals[k - 1] == "::":
                return True
            if v in self.aliases:
                return True
        return False

    def member_type(self, cls_name, member, _seen=None):
        """Type of `member` in cls_name or its (transitive) bases."""
        seen = _seen or set()
        if cls_name in seen or cls_name not in self.classes:
            return None
        seen.add(cls_name)
        cls = self.classes[cls_name]
        if member in cls.members:
            return cls.members[member]
        for base in cls.bases:
            t = self.member_type(base, member, seen)
            if t is not None:
                return t
        return None

    def is_virtual(self, cls_name, method, _seen=None):
        seen = _seen or set()
        if cls_name in seen or cls_name not in self.classes:
            return False
        seen.add(cls_name)
        cls = self.classes[cls_name]
        if method in cls.virtual_methods:
            return True
        return any(self.is_virtual(b, method, seen) for b in cls.bases)

    def allowlisted(self, cls_name, allowlist, _seen=None):
        seen = _seen or set()
        if cls_name in seen:
            return False
        seen.add(cls_name)
        if cls_name in allowlist:
            return True
        cls = self.classes.get(cls_name)
        if cls is None:
            return False
        return any(self.allowlisted(b, allowlist, seen)
                   for b in cls.bases)


class BodyWalker:
    """Extracts ops/calls/sinks from one function body."""

    def __init__(self, pf, fn, knowledge):
        self.pf = pf
        self.fn = fn
        self.kn = knowledge
        self.ops = []
        self.calls = []
        self.has_sink = False
        self.identifiers = set()
        self.add_paths = []
        # candidate unordered range-fors: (line, expr_name, body_range)
        self.unordered_candidates = []
        self.locals = {}
        self.fn_typed_params = set()
        self._parse_params()

    def _suppressed(self, rule, line):
        return rule in self.pf.allowed.get(line, ())

    def _op(self, kind, line, detail):
        rule = OP_RULE.get(kind, kind)
        self.ops.append(Op(kind, line, detail,
                           self._suppressed(rule, line)))

    def _parse_params(self):
        ts = self.fn.param_tokens
        piece = []
        depth = 0
        pieces = []
        for t in ts:
            if t.value in ("(", "<", "{", "["):
                depth += 1
            elif t.value in (")", ">", "}", "]"):
                depth = max(0, depth - 1)
            if t.value == "," and depth == 0:
                pieces.append(piece)
                piece = []
                continue
            piece.append(t)
        if piece:
            pieces.append(piece)
        for piece in pieces:
            ids = [t for t in piece if t.kind == "id"]
            if len(ids) < 2:
                continue
            name = ids[-1].value
            type_vals = []
            for t in piece:
                if t is ids[-1]:
                    break
                type_vals.append(t.value)
            type_str = " ".join(type_vals)
            self.locals[name] = type_str
            if any(v in self.kn.aliases for v in type_vals) or \
                    "function" in type_vals:
                self.fn_typed_params.add(name)

    # -- main walk -----------------------------------------------------

    def walk(self, lo, hi):
        """Walk parsed tokens in [lo, hi) (the body slice)."""
        ts = self.pf.tokens
        register = self.fn.name.split("::")[-1] == "registerMetrics"
        paren_callees = []
        j = lo
        prev = None
        while j < hi:
            t = ts[j]
            nxt = ts[j + 1] if j + 1 < hi else None
            v = t.value

            if t.kind == "id":
                if register:
                    self.identifiers.add(v)
                if v in SINK_IDS:
                    self.has_sink = True
                if ADD_CALL_RE.match(v) and nxt is not None \
                        and nxt.value == "(":
                    self.has_sink = True
                    if register:
                        self._collect_add_path(j, hi)

            # Local declarations at statement starts.
            if t.kind == "id" and (prev is None
                                   or prev.value in (";", "{", "}")):
                j_after = self._try_local_decl(j, hi)
                if j_after is not None:
                    prev = ts[j_after - 1]
                    j = j_after
                    continue

            if v == "(":
                callee = None
                if prev is not None and prev.kind == "id" \
                        and prev.value not in NOT_CALL_KEYWORDS \
                        and prev.value not in TYPE_KEYWORDS:
                    callee = prev.value
                    self.calls.append(callee)
                paren_callees.append(callee)
            elif v == ")":
                if paren_callees:
                    paren_callees.pop()
            elif v == "[" and prev is not None \
                    and prev.value in ("(", ","):
                callee = paren_callees[-1] if paren_callees else None
                if callee in self.kn.fn_with_function_param:
                    self._op("std-function", t.line,
                             f"lambda passed to {callee}")
            elif v == "=" and prev is not None and prev.kind == "id" \
                    and prev.value in self.fn_typed_params \
                    and nxt is not None and nxt.value == "[":
                self._op("std-function", t.line,
                         f"lambda assigned to '{prev.value}'")

            if v == "new" and t.kind == "id":
                if nxt is None or nxt.value != "(":
                    self._op("alloc", t.line, "operator new")
            elif v in ALLOC_FUNCS and nxt is not None \
                    and nxt.value == "(" \
                    and (prev is None
                         or prev.value not in (".", "->")):
                self._op("alloc", t.line, v)
            elif v in ALLOC_MAKERS and nxt is not None \
                    and nxt.value in ("<", "("):
                self._op("alloc", t.line, f"std::{v}")
            elif v in STRING_TYPE_IDS and prev is not None \
                    and prev.value == "::":
                self._op("string", t.line, f"std::{v} temporary")
            elif v == "to_string" and nxt is not None \
                    and nxt.value == "(":
                self._op("string", t.line, "std::to_string")
            elif v in PAGED_MATERIALIZE_IDS and nxt is not None \
                    and nxt.value == "(":
                self._op("paged-materialize", t.line,
                         f"page materialization via {v}()")
            elif t.kind == "id" and nxt is not None \
                    and nxt.value == "(" and prev is not None \
                    and prev.value in ("->", "."):
                self._check_virtual_call(j, lo)
            elif v == "for" and nxt is not None and nxt.value == "(":
                self._check_range_for(j, hi)

            prev = t
            j += 1

    def _collect_add_path(self, j, hi):
        ts = self.pf.tokens
        depth = 0
        literals = []
        k = j + 1
        while k < hi:
            v = ts[k].value
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    break
            elif ts[k].kind == "str":
                literals.append(ts[k].value)
            k += 1
        self.add_paths.append((ts[j].line, tuple(literals)))

    def _try_local_decl(self, j, hi):
        """Try to match a local declaration starting at j.

        On success records locals (and a std-function op for by-value
        std::function locals) and returns the index to resume at (the
        declaration's terminator).  Returns None otherwise.
        """
        ts = self.pf.tokens
        k = j
        first = ts[k].value
        if first in _STMT_KEYWORDS or first in NOT_CALL_KEYWORDS:
            return None
        type_vals = []
        saw_angle = False
        while k < hi:
            t = ts[k]
            if t.kind == "id" and t.value not in DECL_QUALIFIERS:
                # Possible end of type chain: id followed by term?
                nxt = ts[k + 1] if k + 1 < hi else None
                if type_vals and nxt is not None \
                        and nxt.value in ("=", ";", "{") \
                        and type_vals[-1] != "::":
                    name = t.value
                    self._record_local(name, type_vals, saw_angle,
                                       t.line)
                    return k + 1
                type_vals.append(t.value)
                k += 1
                continue
            if t.kind == "id":  # qualifier
                k += 1
                continue
            if t.value == "::":
                type_vals.append("::")
                k += 1
                continue
            if t.value == "<" and type_vals \
                    and type_vals[-1] not in ("::",):
                depth = 0
                start = k
                inner = []
                while k < hi:
                    if ts[k].value == "<":
                        depth += 1
                    elif ts[k].value == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif ts[k].value in (";", "{", "}"):
                        return None
                    if k > start:
                        inner.append(ts[k].value)
                    k += 1
                if k >= hi:
                    return None
                type_vals.append("<" + " ".join(inner) + ">")
                saw_angle = True
                k += 1
                continue
            if t.value in ("*", "&"):
                type_vals.append(t.value)
                k += 1
                continue
            return None
        return None

    def _record_local(self, name, type_vals, saw_angle, line):
        type_str = " ".join(type_vals)
        self.locals[name] = type_str
        is_ref_or_ptr = "*" in type_vals or "&" in type_vals
        is_fn = False
        for idx, v in enumerate(type_vals):
            if v in self.kn.aliases:
                is_fn = True
            if v == "function" and idx > 0 \
                    and type_vals[idx - 1] == "::":
                is_fn = True
        if is_fn and not is_ref_or_ptr:
            self._op("std-function", line,
                     f"local std::function '{name}'")
            self.fn_typed_params.discard(name)

    def _resolve_chain(self, parts):
        """Class name of the object `parts` (a member chain) names."""
        cur = None
        for idx, part in enumerate(parts):
            if idx == 0:
                if part == "this":
                    cur = self.fn.class_name
                elif part in self.locals:
                    cur = class_of(self.locals[part])
                elif self.fn.class_name is not None:
                    t = self.kn.member_type(self.fn.class_name, part)
                    cur = class_of(t) if t else None
                else:
                    return None
            else:
                if cur is None:
                    return None
                t = self.kn.member_type(cur, part)
                cur = class_of(t) if t else None
        return cur

    def _check_virtual_call(self, j, lo):
        from model import VIRTUAL_ALLOWLIST
        ts = self.pf.tokens
        method = ts[j].value
        parts = []
        k = j - 1
        while k - 1 >= lo and ts[k].value in ("->", ".") \
                and ts[k - 1].kind == "id":
            parts.insert(0, ts[k - 1].value)
            k -= 2
        if not parts:
            return
        # A chain hanging off a call/index result is unresolvable.
        if k >= lo and ts[k].value in (")", "]", ".", "->", "::"):
            return
        cls = self._resolve_chain(parts)
        if cls is None:
            return
        if not self.kn.is_virtual(cls, method):
            return
        if self.kn.allowlisted(cls, VIRTUAL_ALLOWLIST):
            return
        self._op("virtual-call", ts[j].line,
                 f"virtual call {cls}::{method}")

    def _check_range_for(self, j, hi):
        ts = self.pf.tokens
        k = j + 1  # '('
        depth = 0
        colon = None
        close = None
        while k < hi:
            v = ts[k].value
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    close = k
                    break
            elif v == ":" and depth == 1 and colon is None:
                colon = k
            k += 1
        if colon is None or close is None:
            return
        expr = ts[colon + 1 : close]
        expr_name = ".".join(t.value for t in expr if t.kind == "id")
        unordered = any("unordered_" in t.value for t in expr)
        if not unordered:
            parts = [t.value for t in expr if t.kind == "id"
                     and t.value != "this"]
            ok = all(t.kind == "id" or t.value in ("->", ".", "this",
                                                   "*", "&", "(", ")")
                     for t in expr)
            if ok and parts:
                # Resolve the final member's declared type.
                if len(parts) == 1:
                    tstr = self.locals.get(parts[0])
                    if tstr is None and self.fn.class_name:
                        tstr = self.kn.member_type(self.fn.class_name,
                                                   parts[0])
                else:
                    owner = self._resolve_chain(parts[:-1])
                    tstr = self.kn.member_type(owner, parts[-1]) \
                        if owner else None
                unordered = tstr is not None and "unordered_" in tstr
        if not unordered:
            return
        # Loop body extent.
        if close + 1 < hi and ts[close + 1].value == "{":
            depth = 0
            k = close + 1
            while k < hi:
                if ts[k].value == "{":
                    depth += 1
                elif ts[k].value == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body_range = (close + 2, k)
        else:
            k = close + 1
            while k < hi and ts[k].value != ";":
                k += 1
            body_range = (close + 1, k)
        self.unordered_candidates.append(
            (ts[j].line, expr_name or "<expr>", body_range))



# ---------------------------------------------------------------------
# File-level determinism scan + model assembly
# ---------------------------------------------------------------------

def _context_at(spans, line):
    """Innermost span containing `line`, or '<global>'."""
    best = None
    for start, end, ctx in spans:
        if start <= line <= end:
            if best is None or (end - start) < (best[1] - best[0]):
                best = (start, end, ctx)
    return best[2] if best else "<global>"


def _first_template_arg_has_pointer(ts, open_idx):
    """True when the first template argument after `<` contains `*`."""
    depth = 0
    k = open_idx
    while k < len(ts):
        v = ts[k].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return False
        elif v == "," and depth == 1:
            return False
        elif v == "*":
            return True
        elif v in (";", "{", "}"):
            return False
        k += 1
    return False


def _is_lookup_switch(ts, j):
    """`case [ns::]LookupMode::X` or `switch (... lookup ...)` at j."""
    k = j + 1
    if ts[j].value == "case":
        while k + 1 < len(ts) and ts[k].kind == "id" \
                and ts[k + 1].value == "::":
            if ts[k].value == "LookupMode":
                return True
            k += 2
        return False
    depth = 0
    while k < len(ts):
        depth += {"(": 1, ")": -1}.get(ts[k].value, 0)
        if depth <= 0:
            return False  # no parenthesis, or the condition closed
        if ts[k].kind == "id" and ts[k].value == "lookup":
            return True
        k += 1
    return False


def scan_file_ops(pf):
    """Flat whole-file determinism and convention scan (covers
    non-body contexts too).

    Returns (file, line, kind, detail, context, suppressed) tuples;
    rules.py applies scope filtering (e.g. the rng.hpp exemption).
    """
    ops = []
    ts = pf.tokens
    for j, t in enumerate(ts):
        if t.kind != "id":
            continue
        v = t.value
        prev_tok = ts[j - 1] if j > 0 else None
        prev = prev_tok.value if prev_tok else None
        nxt = ts[j + 1].value if j + 1 < len(ts) else None
        kind = detail = None
        # Member access (`gen.rand()`) and declarations (`long rand()`,
        # where the preceding token is a type name) are not the C
        # library call.
        rand_decl_ctx = (prev in (".", "->")
                         or (prev_tok is not None
                             and prev_tok.kind == "id"
                             and prev not in NOT_CALL_KEYWORDS))
        if v in WALLCLOCK_IDS:
            kind = "wallclock"
            detail = (f"std::chrono::{v}" if v.endswith("_clock")
                      else f"{v}()")
        elif v in RAND_IDS and nxt == "(" and not rand_decl_ctx:
            kind, detail = "rand", f"{v}()"
        elif v == "random_device":
            kind, detail = "random-device", "std::random_device"
        elif v in ENGINE_IDS:
            kind, detail = "std-engine", f"std::{v}"
        elif v in SET_LIKE and prev == "::" and j >= 2 \
                and ts[j - 2].value == "std" and nxt == "<":
            if _first_template_arg_has_pointer(ts, j + 1):
                kind = "pointer-key"
                detail = f"std::{v} keyed by pointer type"
        elif v == "priority_queue" and prev == "::" and j >= 2 \
                and ts[j - 2].value == "std" and nxt == "<":
            kind, detail = "priority-queue", "std::priority_queue"
        elif v in PRINTF_IDS and nxt == "(" \
                and prev not in (".", "->") \
                and (prev != "::" or (j >= 2
                                      and ts[j - 2].value == "std")):
            kind, detail = "printf-metrics", f"{v}()"
        elif v in ("case", "switch") and _is_lookup_switch(ts, j):
            kind, detail = "lookup-switch", f"{v} on LookupMode"
        if kind is None:
            continue
        suppressed = OP_RULE[kind] in pf.allowed.get(t.line, ())
        ops.append((pf.rel, t.line, kind, detail,
                    _context_at(pf.spans, t.line), suppressed))
    return ops


def parse_file(rel, text):
    """Structural parse of one file."""
    return StructuralParser(rel, text).parse()


def _loop_body_reaches_output(ts, body_range, fn_name, sink_by_name):
    lo, hi = body_range
    if SINK_FN_RE.search(fn_name.split("::")[-1]):
        return True
    for k in range(lo, hi):
        t = ts[k]
        if t.kind != "id":
            continue
        if t.value in SINK_IDS:
            return True
        nxt = ts[k + 1].value if k + 1 < hi else None
        if nxt == "(":
            if ADD_CALL_RE.match(t.value):
                return True
            if sink_by_name.get(t.value):
                return True
    return False


def build_model(parsed_files):
    """Merge parsed files into the shared Model (phases 2 and 3)."""
    kn = Knowledge(parsed_files)
    model = Model()
    model.function_aliases = set(kn.aliases)
    model.classes = kn.classes

    walked = []
    for pf in parsed_files:
        model.structs.extend(pf.structs)
        model.file_ops.extend(scan_file_ops(pf))
        for fr in pf.functions:
            fi = FunctionInfo(fr.name, pf.rel, fr.line,
                              is_hot=fr.is_hot,
                              hot_allow=fr.hot_allow,
                              has_body=fr.body is not None,
                              param_tokens=tuple(fr.param_tokens))
            model.functions.append(fi)
            if fr.body is None:
                continue
            walker = BodyWalker(pf, fr, kn)
            walker.walk(*fr.body)
            fi.ops = walker.ops
            fi.calls = walker.calls
            fi.has_sink = walker.has_sink
            walked.append((pf, fr, fi, walker))
            if fr.name.split("::")[-1] == "registerMetrics":
                model.registers.append(RegisterBody(
                    fr.name, pf.rel, fr.line,
                    identifiers=walker.identifiers,
                    add_paths=walker.add_paths))

    # Direct-sink map for the one-level unordered-iteration reach check.
    sink_by_name = {}
    for _, fr, fi, _ in walked:
        last = fr.name.split("::")[-1]
        sink_by_name[last] = sink_by_name.get(last, False) or fi.has_sink

    for pf, fr, fi, walker in walked:
        for line, expr, body_range in walker.unordered_candidates:
            if not _loop_body_reaches_output(pf.tokens, body_range,
                                             fr.name, sink_by_name):
                continue
            suppressed = "unordered-iteration" in pf.allowed.get(
                line, ())
            fi.ops.append(Op(
                "unordered-iteration", line,
                f"range-for over unordered container '{expr}' "
                f"reaches output", suppressed))
    return model
