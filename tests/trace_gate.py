"""Line trace gate: every executable line of ``src/fusionkit`` runs in some
tier-1 test, or is listed in ``tests/untraced.txt`` with its reason.

Run from the repository root::

    python tests/trace_gate.py

It takes no arguments: a narrower run would leave unrun the lines that
the tests it leaves out reach.

The script runs tier-1 in this process under ``sys.settrace`` and records
the lines of ``src/fusionkit`` that run. The tracer is installed before
``fusionkit`` is imported, so module-level lines count, and again before
each test's setup, since a test may reset it; ``threading.settrace``
covers the threads that tests start. The only subprocesses of tier-1 are
the import probes of ``tests/test_imports.py``, which need no tracing:
every CLI command also runs in-process.

Executable lines are the line numbers of each compiled code object
(``co_lines``), less the bodies of ``if TYPE_CHECKING:``. The gate exits 1
when tier-1 fails, when an executable line runs in no test and is not
listed, when a listed entry names no unrun line (it is stale) or more
than one.

The gate reports each statement with an unrun line once, at its first
unrun line.  Each entry of ``tests/untraced.txt`` is one line::

    file.py | Qualified.function | that line's text, stripped | reason

It matches the one unrun statement of that file and function with that
text, so an entry survives edits that only move the line; an entry that
matches two unrun statements fails the gate, so a second such statement
cannot hide behind it.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fusionkit")
ALLOWLIST = os.path.join(ROOT, "tests", "untraced.txt")
MAX_ENTRIES = 15


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def analyse(path):
    """(executable lines, {line: enclosing qualified name}, {line: first
    line of its statement}, source lines).  A compound statement owns only
    its header lines."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    executable = _code_lines(compile(source, path, "exec"))
    owner = {}
    statement = {}
    for node in ast.walk(tree):  # breadth first: inner statements win
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            for line in range(node.lineno, max(end, node.lineno) + 1):
                statement[line] = node.lineno

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name if qualname == "<module>" \
                    else f"{qualname}.{child.name}"
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
            if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"):
                for stmt in child.body:
                    executable.difference_update(
                        range(stmt.lineno, stmt.end_lineno + 1))
            visit(child, name)

    visit(tree, "<module>")
    return executable, owner, statement, source.splitlines()


def read_allowlist():
    """[(file, qualname, text, reason)] of the allowlist's entries."""
    entries = []
    with open(ALLOWLIST, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            fname, qualname, rest = raw.split(" | ", 2)
            text, reason = rest.rsplit(" | ", 1)
            entries.append((fname, qualname, text, reason))
    return entries


def main():
    seen = {}  # absolute path of a package file → the lines that ran

    def local_for(path):
        add = seen.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    locals_by_file = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        local = locals_by_file.get(filename)
        if local is None:
            path = os.path.abspath(filename)
            local = locals_by_file[filename] = \
                local_for(path) if path.startswith(PACKAGE + os.sep) else False
        return local or None

    class Reinstall:
        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

    sys.path.insert(0, SRC)
    threading.settrace(tracer)
    sys.settrace(tracer)
    import pytest  # noqa: E402 -- imported under the tracer on purpose
    # a fixed hypothesis seed draws the same examples, and so runs the same
    # lines, on every run
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                          "--hypothesis-seed=0", os.path.join(ROOT, "tests")],
                         plugins=[Reinstall()])
    sys.settrace(None)
    threading.settrace(None)

    entries = read_allowlist()
    matches = [0] * len(entries)
    unlisted = []
    total = unrun_total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        executable, owner, statement, text = analyse(path)
        total += len(executable)
        # one report per statement, at its first unrun line
        firsts = {}
        for line in sorted(executable - seen.get(path, set())):
            firsts.setdefault(statement.get(line, line), line)
        for line in sorted(firsts.values()):
            unrun_total += 1
            qualname = owner.get(line, "<module>")
            code = text[line - 1].strip()
            hits = [k for k, (f, q, t, _) in enumerate(entries)
                    if (f, q, t) == (name, qualname, code)]
            for k in hits:
                matches[k] += 1
            if not hits:
                unlisted.append(f"{name}:{line} {qualname}: {code}")

    print(f"\ntrace gate: {total} executable lines, {unrun_total} unrun "
          f"statements, {len(entries)} allowlist entries")
    stale = [f"{f} | {q} | {t}" for k, (f, q, t, _) in enumerate(entries)
             if matches[k] == 0]
    shared = [f"{f} | {q} | {t}" for k, (f, q, t, _) in enumerate(entries)
              if matches[k] > 1]
    for line in unlisted:
        print(f"unrun and not listed: {line}")
    for entry in stale:
        print(f"stale allowlist entry (runs, or no such line): {entry}")
    for entry in shared:
        print(f"allowlist entry matches more than one unrun statement: {entry}")
    if len(entries) > MAX_ENTRIES:
        print(f"allowlist has {len(entries)} entries, more than {MAX_ENTRIES}")
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit {int(status)})")
    bad = (status != 0 or unlisted or stale or shared
           or len(entries) > MAX_ENTRIES)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
