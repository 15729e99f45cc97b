"""What every workload hands back to ``run.py``."""

from __future__ import annotations

import dataclasses
import os
import resource
import sys

from stats import Sample


@dataclasses.dataclass
class RunResult:
    """The timed part of a run: when it began and the ops it completed.

    Ops that failed are not samples; every workload counts them, with all
    the ops it issued after set-up, in its ``attempted`` / ``failed``.
    """

    samples: list[Sample]
    began: float


def self_rss_mb() -> float:
    """High-water resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: the CPUs this process was given, read before anything pins itself
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def _split() -> tuple[frozenset[int], frozenset[int]]:
    cpus = sorted(ALL_CPUS)
    if len(cpus) < 2:
        return ALL_CPUS, ALL_CPUS
    return frozenset(cpus[-1:]), frozenset(cpus[:1])


#: One CPU for the program under test and another for the load generator.
#: The engine is GIL-bound, so a second CPU buys the thread backend nothing
#: (measured here: the in-process service is as fast on one CPU as on two,
#: the HTTP server with two tenants 70% faster), while threads bouncing
#: between CPUs made whole runs land 30% apart. Confined, runs repeat
#: within a few percent, which is what a regression bound needs.
SUT_CPUS, LOAD_CPUS = _split()


def run_on(cpus: frozenset[int]) -> None:
    """Confine the calling thread, and what it starts from now on."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError as exc:  # a sandbox may forbid it: run unconfined
        print(f"warning: cannot confine to CPUs {sorted(cpus)}: {exc}",
              file=sys.stderr)
