"""Importable helpers shared by the benchmark modules.

A plain module, not a ``conftest.py``: test modules under ``tests/`` do
``from conftest import ...``, and when pytest collected both directories
in one run, whichever conftest imported first claimed the ``conftest``
module name and the other directory's imports broke. Benchmark files
import these directly.
"""

from __future__ import annotations

import os


def fast_mode() -> bool:
    """Shrink training-based benches (fewer steps/datasets) for smoke runs."""
    return os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
