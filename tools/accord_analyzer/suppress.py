"""The `accord-lint` suppression-comment grammar of the analyzer.

One annotation syntax serves every rule of tools/accord_analyzer:

    // accord-lint: allow(<rule>[, <rule>...]) <reason>

The reason text is mandatory by convention (reviewed, not parsed).  An
allow comment covers:

  * code on the same line (trailing comment), or
  * the next line that contains code, skipping blank and comment-only
    lines in between -- so a multi-line justification comment still
    covers the statement below it.

`expect:` / `expect-clean` markers drive the fixture self-tests.
"""

import re

ALLOW_RE = re.compile(
    r"//\s*accord-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

EXPECT_RE = re.compile(
    r"//\s*expect:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
EXPECT_CLEAN_RE = re.compile(r"//\s*expect-clean\b")

# A line that is nothing but comment (or blank).  Good enough for the
# "skip to next code line" scan; block comments are handled by the
# analyzer's lexer before line classification matters.
_COMMENT_ONLY_RE = re.compile(r"^\s*(//.*)?$")
_BLOCK_COMMENT_ONLY_RE = re.compile(r"^\s*(\*|/\*).*$")


def parse_rule_list(text):
    """Split a comma-separated rule list into a set of rule names."""
    return {rule.strip() for rule in text.split(",") if rule.strip()}


def _is_code_line(line):
    if _COMMENT_ONLY_RE.match(line):
        return False
    if _BLOCK_COMMENT_ONLY_RE.match(line):
        return False
    return True


def allowed_rules_by_line(lines):
    """Map 1-based line number -> set of rules suppressed on that line.

    `lines` is the file split into physical lines (no newline chars
    required).  For each allow comment, the covered line is the comment
    line itself when it carries code, otherwise the next code line.
    """
    allowed = {}
    for i, line in enumerate(lines):
        match = ALLOW_RE.search(line)
        if not match:
            continue
        rules = parse_rule_list(match.group(1))
        before = line[: match.start()]
        if before.strip():  # trailing comment on a code line
            target = i + 1
        else:
            target = None
            for j in range(i + 1, len(lines)):
                if _is_code_line(lines[j]):
                    target = j + 1
                    break
            if target is None:
                continue
        allowed.setdefault(target, set()).update(rules)
    return allowed


def expectations(lines):
    """Return (expected_rule_multiset, expect_clean) for a fixture."""
    expected = []
    clean = False
    for line in lines:
        match = EXPECT_RE.search(line)
        if match:
            expected.extend(sorted(parse_rule_list(match.group(1))))
        if EXPECT_CLEAN_RE.search(line):
            clean = True
    return sorted(expected), clean
