"""GraphBuilder: the ergonomic way to construct IR graphs.

The builder owns name uniquing and runs shape inference on every emitted
node, so a graph produced through it is valid by construction. Both the
frontend tracer and the autodiff engine build graphs exclusively through
this class.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import GraphError
from .dtype import DType
from .graph import Graph
from .node import Node
from .ops import get_schema
from .tensor import TensorSpec


class GraphBuilder:
    """Incrementally builds a :class:`Graph` with inferred shapes."""

    def __init__(self, name: str = "graph", graph: Graph | None = None) -> None:
        self.graph = graph if graph is not None else Graph(name)
        self._counter = 0
        # Seed the counter past any existing names to keep uniqueness when
        # extending a graph (autodiff extends the forward graph in place).
        self._existing = set(self.graph.values)
        self._node_names = {n.name for n in self.graph.nodes}

    # -- naming -------------------------------------------------------------

    def fresh(self, hint: str) -> str:
        """Return a value name not yet used in the graph."""
        while True:
            name = f"{hint}.{self._counter}"
            self._counter += 1
            if name not in self._existing:
                self._existing.add(name)
                return name

    def _fresh_node(self, hint: str) -> str:
        while True:
            name = f"{hint}_{self._counter}"
            self._counter += 1
            if name not in self._node_names:
                self._node_names.add(name)
                return name

    def release(self, values: Iterable[str] = (),
                nodes: Iterable[str] = ()) -> None:
        """Forget the names of removed values / nodes and restart numbering.

        Afterwards the builder draws the names a new builder on the
        rewritten graph would draw, without re-reading the graph.
        """
        self._existing.difference_update(values)
        self._node_names.difference_update(nodes)
        self._counter = 0

    # -- graph boundary -----------------------------------------------------

    def input(self, name: str, shape: Sequence[int],
              dtype: DType = DType.FLOAT32) -> str:
        self.graph.add_value(TensorSpec(name, tuple(shape), dtype))
        self._existing.add(name)
        self.graph.inputs.append(name)
        return name

    def initializer(self, name: str, array: np.ndarray,
                    trainable: bool = False) -> str:
        array = np.asarray(array)
        if name in self._existing:
            name = self.fresh(name)
        spec = TensorSpec(name, array.shape, DType.from_numpy(array.dtype))
        self.graph.add_value(spec)
        self._existing.add(name)
        self.graph.add_initializer(name, array, trainable=trainable)
        return name

    def constant(self, value, hint: str = "const",
                 dtype: np.dtype = np.float32) -> str:
        """Embed a (small) constant as a non-trainable initializer."""
        return self.initializer(self.fresh(hint), np.asarray(value, dtype=dtype))

    def mark_output(self, name: str) -> None:
        if name not in self.graph.values:
            raise GraphError(f"cannot mark unknown value {name!r} as output")
        if name not in self.graph.outputs:
            self.graph.outputs.append(name)

    # -- node emission ------------------------------------------------------

    def emit(
        self,
        op_type: str,
        inputs: Sequence[str],
        attrs: dict[str, Any] | None = None,
        name_hint: str | None = None,
        n_outputs: int = 1,
    ) -> str | list[str]:
        """Create a node, infer output specs, and append it to the graph.

        Returns the single output name, or a list when ``n_outputs > 1``.
        """
        attrs = dict(attrs) if attrs else {}
        schema = get_schema(op_type)
        schema.check_arity(len(inputs))
        unknown = attrs.keys() - schema.attrs
        if unknown:
            raise GraphError(f"op {op_type!r} got unknown attrs {sorted(unknown)}")
        in_specs = [self.graph.spec(i) for i in inputs]
        inferred = schema.infer(in_specs, attrs)
        if len(inferred) != n_outputs:
            raise GraphError(
                f"op {op_type!r} inferred {len(inferred)} outputs, "
                f"expected {n_outputs}"
            )
        hint = name_hint or op_type
        out_names = []
        for shape, dtype in inferred:
            out = self.fresh(hint)
            self.graph.add_value(TensorSpec(out, shape, dtype))
            out_names.append(out)
        node = Node(op_type, self._fresh_node(hint), tuple(inputs),
                    tuple(out_names), attrs)
        self.graph.add_node(node)
        return out_names[0] if n_outputs == 1 else out_names

    # -- convenience wrappers (the ops used most) ----------------------------

    def matmul(self, a: str, b: str) -> str:
        return self.emit("matmul", [a, b])

    def add(self, a: str, b: str) -> str:
        return self.emit("add", [a, b])

    def sub(self, a: str, b: str) -> str:
        return self.emit("sub", [a, b])

    def mul(self, a: str, b: str) -> str:
        return self.emit("mul", [a, b])

    def div(self, a: str, b: str) -> str:
        return self.emit("div", [a, b])

    def neg(self, a: str) -> str:
        return self.emit("neg", [a])

    def reshape(self, a: str, shape: Sequence[int]) -> str:
        return self.emit("reshape", [a], {"shape": tuple(shape)})

    def transpose(self, a: str, perm: Sequence[int]) -> str:
        return self.emit("transpose", [a], {"perm": tuple(perm)})

    def reduce_sum(self, a: str, axes=None, keepdims: bool = False) -> str:
        return self.emit("reduce_sum", [a],
                         {"axes": axes, "keepdims": keepdims})

    def reduce_mean(self, a: str, axes=None, keepdims: bool = False) -> str:
        return self.emit("reduce_mean", [a],
                         {"axes": axes, "keepdims": keepdims})

    def broadcast_to(self, a: str, shape: Sequence[int]) -> str:
        return self.emit("broadcast_to", [a], {"shape": tuple(shape)})

    def slice(self, a: str, axis: int, start: int, end: int) -> str:
        return self.emit("slice", [a], {"axis": axis, "start": start, "end": end})

    def conv2d(self, x: str, w: str, stride=1, padding=0, groups: int = 1) -> str:
        return self.emit("conv2d", [x, w],
                         {"stride": stride, "padding": padding, "groups": groups})

    def bias_add(self, x: str, b: str, axis: int = 1) -> str:
        return self.emit("bias_add", [x, b], {"axis": axis})

    def spec(self, name: str) -> TensorSpec:
        return self.graph.spec(name)

    def shape(self, name: str) -> tuple[int, ...]:
        return self.graph.spec(name).shape
