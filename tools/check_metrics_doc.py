#!/usr/bin/env python3
"""Checks docs/OBSERVABILITY.md's metric tables against the names src/ registers.

A registered name is a string literal inside a call to the registry's
GetCounter / GetGauge / GetHistogram (every literal in the call, so a
ternary `GetCounter(c ? "a" : "b")` registers both) or inside an
OBS_SPAN / obs::SpanTimer span. A documented name is the back-quoted
first cell of a row in any table of docs/OBSERVABILITY.md. Names built
at run time (the per-op `net.op.<op>` histograms) are outside both sets.

Fails with a non-zero exit, listing each name, when a documented name is
not registered or a registered name is in no table. Run from anywhere:

    tools/check_metrics_doc.py
"""

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"

CALL_RE = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|OBS_SPAN|SpanTimer\s+\w+)\s*\(")
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
ROW_RE = re.compile(r"^\|\s*`([^`]+)`")


def strip_comments(source):
    """Drops // and /* */ comments, keeping string and char literals."""
    out = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if source.startswith("//", i):
            i = source.find("\n", i)
            i = n if i < 0 else i
        elif source.startswith("/*", i):
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
        elif c in "\"'":
            j = i + 1
            while j < n and source[j] != c:
                j += 2 if source[j] == "\\" else 1
            out.append(source[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def call_arguments(source, open_paren):
    """The text between the '(' at open_paren and its matching ')'."""
    depth = 0
    for i in range(open_paren, len(source)):
        if source[i] == "(":
            depth += 1
        elif source[i] == ")":
            depth -= 1
            if depth == 0:
                return source[open_paren + 1:i]
    return source[open_paren + 1:]


def registered_names():
    names = set()
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        source = strip_comments(path.read_text())
        for m in CALL_RE.finditer(source):
            args = call_arguments(source, m.end() - 1)
            names.update(STRING_RE.findall(args))
    return names


def documented_names():
    names = set()
    for line in DOC.read_text().splitlines():
        m = ROW_RE.match(line)
        if m:
            names.add(m.group(1))
    return names


def main():
    registered = registered_names()
    documented = documented_names()
    errors = []
    for name in sorted(documented - registered):
        errors.append(f"{DOC.name}: `{name}` is in a table but src/ "
                      "registers no such metric")
    for name in sorted(registered - documented):
        errors.append(f"src/: `{name}` is registered but in no table of "
                      f"{DOC.name}")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"{len(documented)} documented metric names match src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
