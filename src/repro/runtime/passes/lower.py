"""Stage 1 of plan lowering: scheduled graph -> linear instruction stream.

The stream (:class:`LoweredOp` list) is the IR the optimization passes
rewrite. It is deliberately *pre-slot*: instructions reference values by
name, carry no free-lists and no byte accounting — all of that is derived
by :mod:`repro.runtime.passes.allocate` *after* the passes ran, so the
numbers always describe the stream that actually executes.

:class:`LoweringContext` carries everything a pass may need about the
program being lowered (specs, state-name sets, node attribute access)
behind one memoized facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...errors import ExecutionError
from ...ir.ops import get_schema
from ...kernels import KERNELS, VIEW_OPS
from ..plan import FusedLinkSpec, TunedVariantSpec


@dataclass(frozen=True)
class PrecomputeRequest:
    """A pass's request for a plan-owned constant slot (pre-allocation).

    ``allocate`` turns this into a :class:`~repro.runtime.plan.
    PrecomputedSpec` (assigning the slot, deduplicating identical
    requests) and switches the instruction to ``variant``, which receives
    the precomputed value as an extra trailing input.
    """

    state: str          #: source state name (must be frozen)
    transform: str      #: repro.kernels.PRECOMPUTE_TRANSFORMS entry
    variant: str        #: kernel variant that consumes the extra input
    shape: tuple[int, ...]
    dtype: str


@dataclass
class LoweredOp:
    """One pre-allocation instruction: names in, names out.

    ``fused`` (set by fuse_elementwise) lists the constituent elementwise
    links; ``precompute`` (set by precompute_frozen, possibly vetoed by
    autotune) requests a hoisted constant input. At most one of the two is
    ever set — fusable ops are elementwise, precomputable ones are
    convolutions/matmuls. ``const_inputs`` (set by fold_scalars) lists
    (position, state name) pairs folded out of ``inputs``: the positions
    index the *assembled* input list the kernel sees, so splicing the
    state values back in reconstructs the pre-fold list exactly (fused
    link args therefore stay valid unchanged).
    """

    node: str
    kernel: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fused: tuple[FusedLinkSpec, ...] | None = None
    precompute: PrecomputeRequest | None = None
    const_inputs: tuple[tuple[int, str], ...] = ()

    @property
    def is_view(self) -> bool:
        return self.fused is None and self.kernel in VIEW_OPS

    @property
    def is_inplace(self) -> bool:
        return self.fused is None and get_schema(self.kernel).inplace


@dataclass
class LoweringContext:
    """Shared, memoized program facts for the pass pipeline."""

    program: Any
    _specs: dict[str, Any] = field(default_factory=dict)
    _forms: dict[str, tuple[tuple[int, ...], Any]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        program = self.program
        self.graph = program.graph
        self.state_names = set(program.state)
        self.keep = set(program.outputs)
        self.mutable_state = program.mutable_state_names()
        self.nodes = {node.name: node for node in program.schedule}
        #: autotune decisions accumulated by the autotune pass; allocate
        #: embeds them into the PlanSpec's ``tuned_variants`` table
        self.tuned: list[TunedVariantSpec] = []

    def spec(self, name: str):
        value = self._specs.get(name)
        if value is None:
            value = self._specs[name] = self.graph.spec(name)
        return value

    def attrs(self, node_name: str) -> dict[str, Any]:
        return self.nodes[node_name].attrs

    def shape_dtype(self, name: str) -> tuple[tuple[int, ...], Any]:
        form = self._forms.get(name)
        if form is None:
            s = self.spec(name)
            form = self._forms[name] = (tuple(s.shape), np.dtype(s.dtype.np))
        return form

    def nbytes(self, name: str) -> int:
        return self.spec(name).nbytes

    def frozen_state(self, name: str) -> bool:
        """True for state no in-place node ever writes (safe to hoist)."""
        return name in self.state_names and name not in self.mutable_state


def lower(ctx: LoweringContext) -> list[LoweredOp]:
    """Turn the program's schedule into the linear instruction stream.

    Raises:
        ExecutionError: on an op without a registered kernel or an input
            produced by nothing (feeds and state included).
    """
    available = set(ctx.graph.inputs) | ctx.state_names
    stream: list[LoweredOp] = []
    for node in ctx.program.schedule:
        op = node.op_type
        if op not in KERNELS:
            raise ExecutionError(f"no kernel registered for op {op!r}")
        for name in node.inputs:
            if name not in available:
                raise ExecutionError(
                    f"node {node.name!r} input {name!r} unavailable")
        available.update(node.outputs)
        stream.append(LoweredOp(
            node=node.name, kernel=op,
            inputs=tuple(node.inputs), outputs=tuple(node.outputs)))
    for name in ctx.program.outputs:
        if name not in available:
            raise ExecutionError(f"output {name!r} is never produced")
    return stream
