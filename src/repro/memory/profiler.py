"""Peak-memory profiling of a scheduled training graph.

Separates the components the paper discusses:

* parameters + optimizer state (always resident),
* transient activations/gradients (the paper's "training memory bottleneck"),
* the gradient buffers specifically — which the operator-reordering pass
  shrinks by applying updates as soon as each gradient is produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Graph
from ..ir.node import Node
from ..ir.ops import get_schema
from .liveness import live_ranges


@dataclass
class MemoryProfile:
    """Byte-level memory breakdown for one schedule."""

    peak_transient_bytes: int
    resident_bytes: int          # parameters + optimizer state + constants
    peak_total_bytes: int
    peak_step: int               # schedule index at which the peak occurs
    timeline: list[int] = field(default_factory=list, repr=False)

    @property
    def peak_total_mb(self) -> float:
        return self.peak_total_bytes / (1024 * 1024)


class ProfiledSchedule(list):
    """A schedule that carries the :class:`MemoryProfile` it was chosen by.

    :func:`~repro.passes.reorder.memory_aware_schedule` has to profile its
    candidates to pick one. Returning the winner in this form lets a later
    ``profile_memory(graph, schedule)`` hand that profile back rather than
    derive the same liveness again. The profile describes the node order
    at construction; a caller that edits the list must re-profile a plain
    ``list(schedule)``.
    """

    def __init__(self, nodes: list[Node], graph: Graph,
                 profile: MemoryProfile) -> None:
        super().__init__(nodes)
        self.graph = graph
        self.profile = profile


def profile_memory(graph: Graph, schedule: list[Node] | None = None,
                   keep_timeline: bool = False) -> MemoryProfile:
    """Simulate buffer allocation over ``schedule`` and report the peak.

    A transient value occupies memory from its producing step through its
    last use; in-place op outputs alias their parameter and occupy nothing.
    """
    if isinstance(schedule, ProfiledSchedule) and schedule.graph is graph \
            and not keep_timeline:
        return schedule.profile
    if schedule is None:
        schedule = graph.topological_order()
    start, end = live_ranges(graph, schedule)

    resident = graph.initializers
    alias: set[str] = set()
    for node in schedule:
        if get_schema(node.op_type).inplace:
            alias.update(node.outputs)

    spec = graph.spec
    resident_bytes = sum(spec(n).nbytes for n in resident)

    horizon = len(schedule)
    deltas = [0] * (horizon + 1)
    for name, born in start.items():
        if name in resident or name in alias:
            continue
        size = spec(name).nbytes
        deltas[max(born, 0)] += size
        died = end[name] + 1
        if died <= horizon:
            deltas[died] -= size

    timeline: list[int] = []
    current = 0
    peak = 0
    peak_step = 0
    for step in range(horizon):
        current += deltas[step]
        if keep_timeline:
            timeline.append(current)
        if current > peak:
            peak = current
            peak_step = step

    return MemoryProfile(
        peak_transient_bytes=peak,
        resident_bytes=resident_bytes,
        peak_total_bytes=peak + resident_bytes,
        peak_step=peak_step,
        timeline=timeline,
    )
