"""No tier-1 test asserts a duration.

A wall-clock bound (``assert time.monotonic() - began < 5``) passes or
fails with the host's load, not with the code under test; timing belongs
to ``benchmarks/perf``. A test that must not hang waits with a deadline
instead (``thread.join(timeout=...)``, ``event.wait(timeout=...)``, or
``assert time.monotonic() < deadline`` in a polling loop), which fails
only when the thing it waits for never happens.

The guard reads every ``tests/*.py`` as source: an ``assert`` that both
calls a clock (``time.monotonic``, ``time.perf_counter``, ``time.time``)
and compares against a numeric literal is a duration assertion.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

CLOCKS = {"monotonic", "perf_counter", "time"}

TESTS = Path(__file__).resolve().parent


def _calls_clock(node: ast.AST) -> bool:
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr in CLOCKS \
                and isinstance(fn.value, ast.Name) and fn.value.id == "time":
            return True
        if isinstance(fn, ast.Name) and fn.id in CLOCKS - {"time"}:
            return True  # ``from time import perf_counter``
    return False


def _is_number(node: ast.AST) -> bool:
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) \
        and type(node.value) in (int, float)


def _compares_to_literal(node: ast.AST) -> bool:
    return any(isinstance(compare, ast.Compare)
               and any(map(_is_number, [compare.left, *compare.comparators]))
               for compare in ast.walk(node))


def clock_asserts(source: str) -> list[int]:
    """Line numbers of the duration assertions in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)
            and _calls_clock(node.test) and _compares_to_literal(node.test)]


@pytest.mark.parametrize("source, flagged", [
    ("assert time.monotonic() - began < 5", True),
    ("assert 0.5 > time.perf_counter() - t0", True),
    ("assert time.time() - began <= budget", False),
    ("assert -2 < time.time() - began", True),
    ("assert perf_counter() - t0 < 1e-3", True),
    ("assert time.monotonic() < deadline", False),
    ("assert waiter.join(timeout=30) is None", False),
    ("assert elapsed < 5", False),
])
def test_the_guard_reads_clock_asserts(source, flagged):
    assert bool(clock_asserts(source)) is flagged


def test_no_test_asserts_a_duration():
    found = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in clock_asserts(path.read_text())]
    assert not found, f"duration assertions: {found}"
