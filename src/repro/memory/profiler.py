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
from .planner import live_load


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


def _transients(graph: Graph, schedule: list[Node]):
    """``(bytes, first step, last step)`` of every value charged to the
    transient peak: parameters, optimizer state and constants are resident
    and an in-place op's output is its parameter; everything else occupies
    memory from its producing step (0 for a feed) through its last use —
    a view beside the value it views, as the interpreter counts it. A feed
    nobody reads is held for the whole step."""
    start, end = live_ranges(graph, schedule)
    resident = graph.initializers
    alias: set[str] = set()
    for node in schedule:
        if get_schema(node.op_type).inplace:
            alias.update(node.outputs)
    spec = graph.spec
    for name, born in start.items():
        if name not in resident and name not in alias:
            yield spec(name).nbytes, max(born, 0), \
                end[name] if end[name] >= 0 else len(schedule)


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
    This is the graph's estimate, made before lowering and the one the
    schedule is chosen by: it cannot know which views will alias, so it
    charges each beside its source, as the interpreter backend measures.
    A lowered plan's own ``peak_transient_bytes`` is at most this.
    """
    if isinstance(schedule, ProfiledSchedule) and schedule.graph is graph \
            and not keep_timeline:
        return schedule.profile
    if schedule is None:
        schedule = graph.topological_order()
    resident_bytes = sum(graph.spec(n).nbytes for n in graph.initializers)

    horizon = len(schedule)
    timeline = (live_load(list(_transients(graph, schedule)), 1)
                + [0] * horizon)[:horizon]
    peak = max(timeline, default=0)
    return MemoryProfile(
        peak_transient_bytes=peak,
        resident_bytes=resident_bytes,
        peak_total_bytes=peak + resident_bytes,
        peak_step=timeline.index(peak) if timeline else 0,
        timeline=timeline if keep_timeline else [],
    )
