"""Data types supported by the IR.

The engine targets edge devices, so reduced-precision types matter: the
memory planner and device cost models both consult :attr:`DType.itemsize`.
"""

from __future__ import annotations

import enum

import numpy as np


class DType(enum.Enum):
    """Tensor element types understood by every subsystem."""

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    INT64 = "int64"
    INT32 = "int32"
    INT8 = "int8"
    UINT8 = "uint8"
    BOOL = "bool"

    @property
    def itemsize(self) -> int:
        """Size of one element in bytes."""
        return _ITEMSIZE[self]

    @property
    def np(self) -> np.dtype:
        """The corresponding numpy dtype."""
        return np.dtype(self.value)

    @property
    def is_float(self) -> bool:
        return self in (DType.FLOAT32, DType.FLOAT16)

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "DType":
        """Map a numpy dtype to a :class:`DType`.

        Raises:
            ValueError: if the numpy dtype has no IR equivalent.
        """
        dtype = np.dtype(dtype)
        member = _FROM_NUMPY.get(dtype)
        if member is not None:
            return member
        name = dtype.name  # e.g. a non-native byte order of a known type
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unsupported numpy dtype: {name!r}") from None


#: native numpy dtype -> member (``np.dtype.name`` is computed in Python
#: on every read, and every initializer the tracer or the optimizer adds
#: passes through ``from_numpy``)
_FROM_NUMPY = {np.dtype(member.value): member for member in DType}

_ITEMSIZE = {
    DType.FLOAT32: 4,
    DType.FLOAT16: 2,
    DType.INT64: 8,
    DType.INT32: 4,
    DType.INT8: 1,
    DType.UINT8: 1,
    DType.BOOL: 1,
}
