"""Tensor lifetime analysis over a concrete schedule.

A value is *live* from the step that produces it until the last step that
consumes it. Graph inputs and initializers are born before step 0; graph
outputs (and in-place optimizer outputs) die after the last step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MemoryPlanError
from ..ir import Graph
from ..ir.node import Node
from ..ir.ops import get_schema


@dataclass(frozen=True)
class Lifetime:
    """Half-open interval of schedule steps during which a value is live."""

    start: int  # step producing the value (-1 for inputs/initializers)
    end: int    # last step consuming it (len(schedule) if a graph output)

    def overlaps(self, other: "Lifetime") -> bool:
        return not (self.end < other.start or other.end < self.start)


def live_ranges(graph: Graph, schedule: list[Node]
                ) -> tuple[dict[str, int], dict[str, int]]:
    """First and last live step of every value under ``schedule``.

    Returns ``(start, end)``: ``start`` is the producing step (-1 for
    inputs and initializers), ``end`` the last consuming step
    (``len(schedule)`` for graph outputs and in-place updated state).
    This is the one liveness derivation at graph level;
    :func:`value_lifetimes` and the memory profiler are views of it.

    Raises:
        MemoryPlanError: if the schedule references unknown values or uses a
            value before it is produced.
    """
    if len({node.name for node in schedule}) != len(schedule):
        raise MemoryPlanError("schedule contains duplicate nodes")

    start: dict[str, int] = dict.fromkeys(graph.inputs, -1)
    start.update(dict.fromkeys(graph.initializers, -1))
    end: dict[str, int] = dict(start)
    horizon = len(schedule)

    for i, node in enumerate(schedule):
        for inp in node.inputs:
            if inp not in start:
                raise MemoryPlanError(
                    f"step {i} ({node.name}) reads {inp!r} before production"
                )
            end[inp] = i  # steps only grow, so the latest read wins
        for out in node.outputs:
            if out in start:
                raise MemoryPlanError(f"value {out!r} produced twice")
            start[out] = i
            end[out] = i

    for name in graph.outputs:
        if name in end:
            end[name] = horizon
    # In-place optimizer updates keep their parameter alive forever.
    for node in schedule:
        if get_schema(node.op_type).inplace:
            end[node.inputs[0]] = horizon
            for out in node.outputs:
                end[out] = horizon
    return start, end


def value_lifetimes(graph: Graph, schedule: list[Node]) -> dict[str, Lifetime]:
    """Compute the lifetime of every value under ``schedule``.

    Raises:
        MemoryPlanError: if the schedule references unknown values or uses a
            value before it is produced.
    """
    start, end = live_ranges(graph, schedule)
    return {name: Lifetime(first, end[name]) for name, first in start.items()}
