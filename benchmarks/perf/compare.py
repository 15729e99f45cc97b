"""Compare two sets of runs (directories written by ``suite.py``).

    python3 benchmarks/perf/compare.py A B

Per workload and metric: both medians, the ratio B/A with its base, and for
the end-to-end metrics a verdict against the bound stored in
``BENCHMARK.json``:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of A or of B is wider than the
  bound, so a difference of that size cannot be told from noise (unless every
  run of B reads better than every run of A);
* ``same``       — neither.

Per-layer metrics carry no bound and get no verdict. Exits 1 if any line is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from suite import load_set  # noqa: E402


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """``worse`` / ``same`` / ``unresolved`` for set B against set A."""
    sign = 1.0 if better == "lower" else -1.0  # orient so larger = worse
    a = [sign * v for v in a]
    b = [sign * v for v in b]
    base = abs(statistics.median(a))
    excess = statistics.median(b) - statistics.median(a)
    beyond = excess > bound * base
    if beyond and min(b) > max(a):
        return "worse"
    spreads = [stats.spread(v) for v in (a, b) if len(v) >= 2]
    if any(s > bound for s in spreads):
        return "same" if max(b) < min(a) else "unresolved"
    return "worse" if beyond else "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    set_a, set_b = (load_set(Path(p)) for p in argv)
    flagged = 0
    for key in sorted(set(set_a) & set(set_b)):
        workload, trace = key
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'})")
        print(f"{'metric':<40} {'A median':>14} {'B median':>14} "
              f"{'B/A':>8}  verdict")
        for name, a in set_a[key].items():
            b = set_b[key].get(name)
            if b is None:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:8.4f}" if med_a else "     n/a"
            word = "-"
            if name in bounded:
                word = verdict(a, b, bounded[name]["better"],
                               bounded[name]["bound"])
                flagged += word != "same"
            print(f"{name:<40} {med_a:>14.6g} {med_b:>14.6g} {ratio}  "
                  f"{word} (A n={len(a)}, B n={len(b)})")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
