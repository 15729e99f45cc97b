"""Symbolic tensors: the objects module ``forward`` methods manipulate.

A :class:`Sym` wraps a value name inside a :class:`GraphBuilder`; arithmetic
on it emits IR nodes, so tracing a model is just calling its forward pass.
"""

from __future__ import annotations

import numpy as np

from ..ir import GraphBuilder


class Sym:
    """A symbolic tensor bound to a builder."""

    __slots__ = ("b", "name")

    def __init__(self, builder: GraphBuilder, name: str) -> None:
        self.b = builder
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.b.shape(self.name)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def _wrap(self, name: str) -> "Sym":
        return Sym(self.b, name)

    def _coerce(self, other) -> str:
        if isinstance(other, Sym):
            return other.name
        return self.b.constant(np.float32(other))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._wrap(self.b.add(self.name, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.b.sub(self.name, self._coerce(other)))

    def __mul__(self, other):
        return self._wrap(self.b.mul(self.name, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._wrap(self.b.div(self.name, self._coerce(other)))

    def __matmul__(self, other: "Sym"):
        return self._wrap(self.b.matmul(self.name, other.name))

    def __neg__(self):
        return self._wrap(self.b.neg(self.name))

    # -- shape ops -----------------------------------------------------------

    def reshape(self, shape) -> "Sym":
        return self._wrap(self.b.reshape(self.name, shape))

    def transpose(self, perm) -> "Sym":
        return self._wrap(self.b.transpose(self.name, perm))

    def slice(self, axis: int, start: int, end: int) -> "Sym":
        return self._wrap(self.b.slice(self.name, axis, start, end))

    def mean(self, axes=None, keepdims: bool = False) -> "Sym":
        return self._wrap(self.b.reduce_mean(self.name, axes, keepdims))

    def sum(self, axes=None, keepdims: bool = False) -> "Sym":
        return self._wrap(self.b.reduce_sum(self.name, axes, keepdims))

    # -- activations ---------------------------------------------------------

    def relu(self) -> "Sym":
        return self._wrap(self.b.emit("relu", [self.name]))

    def relu6(self) -> "Sym":
        return self._wrap(self.b.emit("relu6", [self.name]))

    def gelu(self) -> "Sym":
        return self._wrap(self.b.emit("gelu", [self.name]))

    def silu(self) -> "Sym":
        return self._wrap(self.b.emit("silu", [self.name]))

    def swiglu(self, up: "Sym") -> "Sym":
        """``silu(self) * up``, as one op (see ``ir/ops.py``)."""
        return self._wrap(self.b.emit("swiglu", [self.name, up.name]))

    def sigmoid(self) -> "Sym":
        return self._wrap(self.b.emit("sigmoid", [self.name]))

    def tanh(self) -> "Sym":
        return self._wrap(self.b.emit("tanh", [self.name]))

    def softmax(self, axis: int = -1) -> "Sym":
        return self._wrap(self.b.emit("softmax", [self.name], {"axis": axis}))

    def __repr__(self) -> str:
        return f"Sym({self.name}, shape={self.shape})"
