"""Graph nodes: a single operator application.

Nodes reference tensors by name; the owning :class:`~repro.ir.graph.Graph`
maps names to :class:`~repro.ir.tensor.TensorSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Node:
    """One operator in the computation graph.

    Attributes:
        op_type: registered operator name, e.g. ``"conv2d"``.
        name: unique node name within its graph.
        inputs: names of consumed tensors, in operator order.
        outputs: names of produced tensors.
        attrs: operator attributes (stride, axes, fused activation, ...).
    """

    op_type: str
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)

    def attr_key(self) -> tuple:
        """A hashable, order-independent rendering of the attributes.

        Used by common-subexpression elimination to decide whether two nodes
        compute the same thing.
        """
        if not self.attrs:
            return ()
        return tuple(sorted((k, _freeze(v)) for k, v in self.attrs.items()))

    def replace_input(self, old: str, new: str) -> None:
        """Rewire every occurrence of input ``old`` to ``new``."""
        self.inputs = tuple(new if name == old else name for name in self.inputs)

    def __str__(self) -> str:
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        suffix = f" {{{attrs}}}" if attrs else ""
        return (
            f"{', '.join(self.outputs)} = {self.op_type}"
            f"({', '.join(self.inputs)}){suffix}"
        )


def _freeze(value: Any) -> Any:
    """Recursively convert lists/tuples/dicts into hashable tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value
