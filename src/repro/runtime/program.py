"""Compiled programs: a graph plus schedule, state, and bookkeeping.

A :class:`Program` is what the compiler hands the runtime: the transformed
graph, a concrete node schedule, mutable state (parameters and optimizer
buffers, copied once from the graph initializers), and the reference counts
the executor uses to free buffers eagerly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - circular-import guard for hints
    from .plan import ExecutionPlan, PlanSpec

import numpy as np

from ..errors import ExecutionError
from ..ir import Graph
from ..ir.node import Node
from ..ir.ops import get_schema
from ..ir.serialize import canonical_graph_bytes


@dataclass
class Program:
    """An executable training or inference step."""

    graph: Graph
    schedule: list[Node]
    state: dict[str, np.ndarray]
    outputs: list[str]
    #: value name -> number of schedule consumers (for eager freeing)
    consumer_counts: dict[str, int] = field(default_factory=dict)
    #: free-form compiler report (passes applied, savings measured, ...)
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, graph: Graph, schedule: list[Node] | None = None,
                   copy_state: bool = True) -> "Program":
        if schedule is None:
            schedule = graph.topological_order()
        counts: dict[str, int] = {}
        for node in schedule:
            for inp in node.inputs:
                counts[inp] = counts.get(inp, 0) + 1
        state = {
            name: (array.copy() if copy_state else array)
            for name, array in graph.initializers.items()
        }
        return cls(
            graph=graph,
            schedule=list(schedule),
            state=state,
            outputs=list(graph.outputs),
            consumer_counts=counts,
        )

    def plan_spec(self) -> "PlanSpec":
        """The serializable half of the compiled plan.

        Lowered once — through the pass pipeline selected by
        ``meta["plan_passes"]`` (:mod:`repro.runtime.passes`; the compiler
        sets it from ``CompileOptions.plan_passes``) — and cached in
        ``meta``; deployment artifacts embed exactly this object
        (:mod:`repro.deploy.artifact`), so saving a program never re-runs
        the lowering. A spec loaded from an artifact is installed here by
        the loader instead of being rebuilt.
        """
        spec = self.meta.get("__plan_spec__")
        if spec is None:
            from .plan import build_plan_spec

            spec = self.meta.setdefault("__plan_spec__",
                                        build_plan_spec(self))
        return spec

    def attach_plan_spec(self, spec: "PlanSpec") -> None:
        """Install a deserialized :class:`PlanSpec` (artifact load path).

        The next :meth:`plan` call binds it against the kernel registry
        instead of lowering the graph again.
        """
        self.meta["__plan_spec__"] = spec

    def plan(self) -> "ExecutionPlan":
        """The compiled :class:`~repro.runtime.plan.ExecutionPlan`.

        Bound once from :meth:`plan_spec` and cached in ``meta`` — which
        :meth:`with_state` shares across overlays, so every tenant session
        executing one compiled program reuses a single plan. The plan
        depends on state *names* only, never values, which is what makes
        that sharing sound.
        """
        plan = self.meta.get("__plan__")
        if plan is None:
            from .plan import bind_plan

            # setdefault resolves the benign race when two sessions lower
            # the same program concurrently: both plans are identical, one
            # wins, the other is dropped.
            plan = self.meta.setdefault("__plan__", bind_plan(
                self.plan_spec(),
                {node.name: node for node in self.schedule}))
        return plan

    def validate_schedule(self) -> None:
        """Check the schedule is a permutation of the graph in topo order."""
        if len(self.schedule) != len(self.graph.nodes):
            raise ExecutionError(
                f"schedule has {len(self.schedule)} nodes, graph has "
                f"{len(self.graph.nodes)}"
            )
        available = set(self.graph.inputs) | set(self.graph.initializers)
        for node in self.schedule:
            for inp in node.inputs:
                if inp not in available:
                    raise ExecutionError(
                        f"schedule uses {inp!r} before it is produced"
                    )
            available.update(node.outputs)

    @property
    def num_nodes(self) -> int:
        return len(self.schedule)

    def state_bytes(self) -> int:
        return sum(a.nbytes for a in self.state.values())

    def inplace_nodes(self) -> list[Node]:
        return [n for n in self.schedule if get_schema(n.op_type).inplace]

    def fingerprint(self) -> str:
        """Stable identity of the *compiled* artifact.

        Covers the transformed graph structure, the schedule order, and the
        output list — everything that determines what executing this
        program computes, but not the mutable state values (two tenants
        running different weights through one compiled program share a
        fingerprint). Deterministic across processes.
        """
        digest = hashlib.sha256(canonical_graph_bytes(self.graph))
        for node in self.schedule:
            digest.update(node.name.encode())
            digest.update(b"\x00")
        digest.update("|".join(self.outputs).encode())
        return digest.hexdigest()

    def mutable_state_names(self) -> set[str]:
        """State entries that executing one step writes into.

        In-place ``apply_*`` nodes mutate their state-resident inputs (the
        parameter plus optimizer slots / accumulation buffers); everything
        else in ``state`` — frozen weights, folded constants — is read-only.
        This is exactly the set a multi-tenant server must replicate per
        session while sharing the rest (:mod:`repro.serve.sessions`).
        """
        names: set[str] = set()
        for node in self.inplace_nodes():
            names.update(inp for inp in node.inputs if inp in self.state)
        return names

    def with_state(self, overlay: dict[str, np.ndarray]) -> "Program":
        """A view of this program whose state is ``{**state, **overlay}``.

        Graph, schedule, consumer counts, and meta are shared (read-only at
        run time); only the state mapping is rebuilt. In-place kernels
        mutate the overlay's arrays, so callers providing a fresh overlay
        for each tenant get isolated training state over one compiled
        program. Overlay arrays must be C-contiguous.
        """
        unknown = set(overlay) - set(self.state)
        if unknown:
            raise ExecutionError(
                f"state overlay names not in program state: {sorted(unknown)}"
            )
        # The plan's layouts are static facts, state's among them; a copy
        # made here would take the in-place updates away from the caller.
        strided = sorted(name for name, array in overlay.items()
                         if not array.flags.c_contiguous)
        if strided:
            raise ExecutionError(
                f"state overlay arrays must be C-contiguous: {strided}")
        return replace(self, state={**self.state, **overlay})
