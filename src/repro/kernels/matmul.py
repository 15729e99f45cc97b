"""Matmul kernel with optional fused bias and activation.

The fusion pass rewrites ``matmul -> bias_add -> relu`` chains into a single
``matmul`` node carrying a third (bias) input and an ``activation``
attribute, mirroring what vendor inference libraries do.
"""

from __future__ import annotations

import numpy as np

from . import (kernel, out_emitter, out_kernel, register_transform,
               variant_kernel)
from .elementwise import epilogue_into


@register_transform("transpose_last2")
def _transpose_last2(w: np.ndarray) -> np.ndarray:
    """Materialise a frozen matmul operand's transpose once, contiguously."""
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


@variant_kernel("matmul", "pretransposed_b")
def _matmul_pretransposed_b(inputs, attrs):
    return [_pretransposed_b_into(inputs, attrs, None)]


@out_kernel("matmul", variant="pretransposed_b")
def _pretransposed_b_into(inputs, attrs, out):
    """``trans_b`` matmul with the frozen B operand pre-transposed.

    The plan-owned trailing input is B's contiguous transpose, so the GEMM
    runs on a plain (non-strided) operand instead of a transposed view.
    BLAS may pick a *different* code path for the two layouts, with
    results a ulp apart at some shapes — so the precompute pass only
    selects this variant after a compile-time bitwise probe on the real
    frozen operand proved both layouts identical at this op's shapes
    (GEMM dispatch depends on shapes/strides, never on values).
    """
    a, bt = inputs[0], inputs[-1]
    if attrs.get("trans_a"):
        a = np.swapaxes(a, -1, -2)
    # a fused bias rides between B and the transpose
    return epilogue_into(np.matmul(a, bt, out=out),
                         inputs[2] if len(inputs) == 4 else None,
                         attrs.get("activation"), out)


def _dense_output(layouts) -> bool:
    """np.matmul allocates the (m, n) core of its result C-contiguous
    whatever the operands' core strides (a transposed view only picks the
    GEMM's transpose flag), but lays the *batch* dimensions out after the
    operands': the result is C-contiguous when each operand's batch
    strides already descend in C order — ``(B, T, H, D) -> (B, H, T, D)``
    heads qualify, batch axes swapped among themselves do not."""
    for shape, strides in layouts[:2]:
        steps = [stride for dim, stride
                 in zip(shape[:-2], strides[:-2]) if dim != 1]
        if any(a < b for a, b in zip(steps, steps[1:])):
            return False
    return True


@kernel("matmul", dense=_dense_output)
def _matmul(inputs, attrs):
    return [_matmul_into(inputs, attrs, None)]


# For the layouts _dense_output accepts, np.matmul computes the same bytes
# into a caller's C-contiguous ``out`` as into its own fresh result.
@out_kernel("matmul")
def _matmul_into(inputs, attrs, out):
    a, b = inputs[0], inputs[1]
    if attrs.get("trans_a"):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("trans_b"):
        b = np.swapaxes(b, -1, -2)
    return epilogue_into(np.matmul(a, b, out=out),
                         inputs[2] if len(inputs) == 3 else None,
                         attrs.get("activation"), out)


@out_emitter("matmul")
def _emit_matmul_out(args, attrs, out):
    if len(args) != 2 or attrs.get("activation") not in (None, "none"):
        return None  # bias / activation epilogues are statements
    a, b = args
    if attrs.get("trans_a"):
        a += ".swapaxes(-1, -2)"
    if attrs.get("trans_b"):
        b += ".swapaxes(-1, -2)"
    return f"np.matmul({a}, {b}, out={out})"


@kernel("bias_add")
def _bias_add(inputs, attrs):
    x, b = inputs
    axis = int(attrs.get("axis", 1))
    shape = [1] * x.ndim
    shape[axis] = b.shape[0]
    return [x + b.reshape(shape)]


@out_kernel("bias_add", alias_safe=True)
def _bias_add_out(inputs, attrs, out):
    # alias_safe: a donated buffer matches out's (= x's) shape, so it can
    # only ever be x, never the broadcast bias.
    x, b = inputs
    axis = int(attrs.get("axis", 1))
    shape = [1] * x.ndim
    shape[axis] = b.shape[0]
    return np.add(x, b.reshape(shape), out=out)
