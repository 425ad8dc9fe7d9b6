"""Statement gate: every statement in src/framedvs/ runs under Tier-1, or is listed.

Run from anywhere, standard library and pytest only:

    PYTHONPATH=src python tests/statement_gate.py

It runs the Tier-1 suite (tests/) in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines executed in frames whose code lives
in src/framedvs/. It then walks each module's ``ast`` and lists every statement
that never ran while the statement around it did. The gate exits 1 unless that
list equals ``ALLOWED`` exactly: an unlisted statement that never ran fails it,
and so does a listed one that ran or is gone. Entries are keyed by file and
statement text (whitespace collapsed), not by line number. A failing Tier-1 run
fails the gate with pytest's exit code.

A statement counts as run when any line from its first (decorators included)
to its last executed, so a compound statement runs when its header or any
statement of its body did. Docstrings compile to no code and are skipped.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "framedvs"

ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "runs only as `python -m framedvs.cli`; Tier-1 calls main() directly and CI's "
        "README step runs the installed entry point instead",
    ("simulator.py", 'raise FrameDvsError("enumerated probability mass deviates from 1")'):
        "cannot fire: np.meshgrid refuses more than 64 arrays, and up to 64 validated "
        "distributions, each summing to within 1e-12 of 1, leave the product within "
        "about 6.4e-11 of 1, below the 1e-9 threshold; kept as a guard",
}


def _trace_lines(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv`` and return its exit code and the lines run per file."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _unrun(path: Path, lines: set[int]) -> list[tuple[int, str]]:
    """Statements of ``path`` that never ran inside a statement (or module) that did."""
    source = path.read_text()
    found = []

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if _is_docstring(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if not any(n in lines for n in range(first, node.end_lineno + 1)):
                found.append((node.lineno, " ".join(ast.get_source_segment(source, node).split())))
                continue
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, []):
                    visit(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                          else [child])

    visit(ast.parse(source).body)
    return found


def main() -> int:
    code, ran = _trace_lines(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        print(f"statement gate: Tier-1 failed (pytest exit {code})")
        return code
    unrun = {}
    for path in sorted(SRC.glob("*.py")):
        for line, text in _unrun(path, ran.get(str(path), set())):
            unrun[(path.name, text)] = line
    failures = [f"never ran, not in ALLOWED: {name}:{line}: {text}"
                for (name, text), line in sorted(unrun.items()) if (name, text) not in ALLOWED]
    failures += [f"in ALLOWED but ran or is gone: {name}: {text}"
                 for name, text in ALLOWED if (name, text) not in unrun]
    for failure in failures:
        print(f"statement gate: {failure}")
    if not failures:
        print(f"statement gate: every statement ran except the {len(ALLOWED)} allowed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
