"""Matmul kernel with optional fused bias and activation.

The fusion pass rewrites ``matmul -> bias_add -> relu`` chains into a single
``matmul`` node carrying a third (bias) input and an ``activation``
attribute, mirroring what vendor inference libraries do.
"""

from __future__ import annotations

import numpy as np

from . import (emitter, kernel, out_kernel, register_transform,
               variant_kernel)
from .elementwise import epilogue


@register_transform("transpose_last2")
def _transpose_last2(w: np.ndarray) -> np.ndarray:
    """Materialise a frozen matmul operand's transpose once, contiguously."""
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


@variant_kernel("matmul", "pretransposed_b")
def _matmul_pretransposed_b(inputs, attrs):
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
    return [epilogue(a @ bt, inputs[2] if len(inputs) == 4 else None,
                     attrs.get("activation"))]


@kernel("matmul")
def _matmul(inputs, attrs):
    a, b = inputs[0], inputs[1]
    if attrs.get("trans_a"):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("trans_b"):
        b = np.swapaxes(b, -1, -2)
    return [epilogue(a @ b, inputs[2] if len(inputs) == 3 else None,
                     attrs.get("activation"))]


@emitter("matmul")
def _emit_matmul(args, attrs):
    if len(args) != 2 or attrs.get("activation") not in (None, "none"):
        return None  # bias / activation epilogues are statements
    a, b = args
    if attrs.get("trans_a"):
        a += ".swapaxes(-1, -2)"
    if attrs.get("trans_b"):
        b += ".swapaxes(-1, -2)"
    return f"({a} @ {b})"


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
