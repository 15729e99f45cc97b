"""Tensor metadata: the IR describes tensors by shape and dtype only.

Actual numeric storage lives either in ``Graph.initializers`` (weights,
constants) or inside the runtime executor's value environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dtype import DType


@dataclass(frozen=True)
class TensorSpec:
    """Static description of a tensor: name, shape, and element type.

    Shapes are concrete (no symbolic dimensions): PockEngine compiles one
    program per (model, batch size, sequence length) configuration, which
    matches the paper's static-graph design.

    ``num_elements`` and ``nbytes`` are derived once, at construction: the
    spec is frozen, and the scheduler, the memory profiler and plan
    allocation read them tens of times per value.
    """

    name: str
    shape: tuple[int, ...]
    dtype: DType = DType.FLOAT32
    num_elements: int = field(init=False, repr=False, compare=False)
    #: bytes needed to store this tensor densely
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = tuple(int(d) for d in self.shape)
        for dim in shape:
            if dim < 0:
                raise ValueError(f"negative dimension in {self.name}: {shape}")
        count = math.prod(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "num_elements", count)
        object.__setattr__(self, "nbytes", count * self.dtype.itemsize)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def with_name(self, name: str) -> "TensorSpec":
        return TensorSpec(name, self.shape, self.dtype)

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"{self.name}:{self.dtype.value}[{dims}]"
