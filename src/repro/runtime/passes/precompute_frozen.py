"""Hoist frozen-weight computation to bind time as plan-owned constants.

The graph-level WinogradSelectionPass already restricts ``algo ==
"winograd"`` to convolutions whose weights the sparse scheme never
updates — exactly the paper's argument: under sparse backpropagation most
weights are frozen, so per-step work that depends only on the weight can
be paid once instead of once per step. Until now "once" still meant once
per *kernel call*; this pass moves it to once per *session*: the
instruction switches to a registered variant kernel and receives a
plan-owned constant slot the executor fills by applying the registered
transform to the frozen weight the first time it runs (cached by
source-array identity, so every subsequent step republishes the same
array for free).

Two hoists, each gated on the runtime actually registering the variant
and transform:

* ``winograd_precomputed`` — the ``U = G g Gᵀ`` weight transform for
  3x3 winograd convs, in the kernel's GEMM-ready ``(16, O, C)`` layout;
* ``pretransposed_b`` — ``trans_b`` matmuls over a frozen B: the
  contiguous transpose is materialised once. BLAS may take a different
  (1-ulp-different) code path for the two layouts at some shapes, so
  this hoist additionally runs a compile-time **bitwise probe** on the
  real frozen operand: both layouts are multiplied against a fixed-seed
  synthetic activation and the hoist is taken only when the results are
  byte-identical. GEMM path dispatch depends on shapes and strides, not
  values, so one probe at the op's static shapes decides the path for
  every step. A program whose state is not materialised (a graph-only
  compile of a paper-scale model over zero-stride placeholders) has no
  operand to probe and keeps the base kernel.

Bitwise safety for the first: the transform registry entry is the
exact computation the base kernel performs inline, and frozen state is
written by no in-place node, so recomputing it would yield identical
bytes every step.
"""

from __future__ import annotations

import numpy as np

from ...kernels import PRECOMPUTE_TRANSFORMS, VARIANT_KERNELS
from .lower import LoweredOp, LoweringContext, PrecomputeRequest

_WINOGRAD_VARIANT = "winograd_precomputed"
_WINOGRAD_TRANSFORM = "winograd_weight"
_PRETRANS_VARIANT = "pretransposed_b"
_PRETRANS_TRANSFORM = "transpose_last2"

#: fixed seed for the pretransposed-matmul bitwise probe — decisions must
#: be deterministic across compiles of the same program
_PROBE_SEED = 0x5EED


def _registered(op: str, variant: str, transform: str) -> bool:
    return ((op, variant) in VARIANT_KERNELS
            and transform in PRECOMPUTE_TRANSFORMS)


def _hoist_winograd(op: LoweredOp, ctx: LoweringContext) -> int:
    if ctx.attrs(op.node).get("algo") != "winograd":
        return 0
    weight = op.inputs[1]
    if not ctx.frozen_state(weight):
        return 0  # updated per step (or not state at all): no hoist
    w_spec = ctx.spec(weight)
    if tuple(w_spec.shape[2:]) != (3, 3):
        return 0  # defensive: winograd selection should guarantee this
    cout, cin = int(w_spec.shape[0]), int(w_spec.shape[1])
    op.precompute = PrecomputeRequest(
        state=weight, transform=_WINOGRAD_TRANSFORM,
        variant=_WINOGRAD_VARIANT,
        shape=(16, cout, cin), dtype="float32")
    return cout * cin * 16 * 4


def _pretransposed_probe(ctx: LoweringContext, op: LoweredOp,
                         b: np.ndarray) -> bool:
    """Bitwise probe: does a contiguous-transposed B reproduce the
    strided-view GEMM exactly at this op's shapes?

    Runs on the *real* frozen operand ``b`` and a fixed-seed synthetic
    activation, so the decision is deterministic per program.
    """
    a_spec = ctx.spec(op.inputs[0])
    a_shape = tuple(a_spec.shape)
    if ctx.attrs(op.node).get("trans_a"):
        a_shape = a_shape[:-2] + (a_shape[-1], a_shape[-2])
    rng = np.random.default_rng(_PROBE_SEED)
    a = rng.standard_normal(a_shape).astype(a_spec.dtype.np, copy=False)
    bt_view = np.swapaxes(b, -1, -2)
    bt_flat = np.ascontiguousarray(bt_view)
    ref = a @ bt_view
    got = a @ bt_flat
    return ref.tobytes() == got.tobytes()


def _hoist_pretransposed(op: LoweredOp, ctx: LoweringContext) -> int:
    attrs = ctx.attrs(op.node)
    if not attrs.get("trans_b"):
        return 0
    if len(op.inputs) < 2:
        return 0
    b_name = op.inputs[1]
    if not ctx.frozen_state(b_name):
        return 0
    b = ctx.program.state[b_name]
    if b.ndim < 2 or not b.flags.c_contiguous:
        # Not the array a step would multiply by: state is C-contiguous
        # by contract, so this is the zero-stride placeholder of a
        # graph-only compile (``materialize_state=False`` over lazy
        # init). A probe of it decides nothing — it has neither the
        # layout nor the bytes — and costs a full-size GEMM pair.
        return 0
    if not _pretransposed_probe(ctx, op, b):
        return 0
    b_spec = ctx.spec(b_name)
    shape = tuple(int(d) for d in b_spec.shape)
    t_shape = shape[:-2] + (shape[-1], shape[-2])
    dtype = np.dtype(b_spec.dtype.np)
    op.precompute = PrecomputeRequest(
        state=b_name, transform=_PRETRANS_TRANSFORM,
        variant=_PRETRANS_VARIANT, shape=t_shape, dtype=dtype.name)
    count = 1
    for dim in t_shape:
        count *= dim
    return count * dtype.itemsize


def precompute_frozen(stream: list[LoweredOp], ctx: LoweringContext
                      ) -> tuple[list[LoweredOp], dict]:
    """Annotate eligible frozen-weight ops; returns (stream, stats)."""
    winograd_ok = _registered("conv2d", _WINOGRAD_VARIANT,
                              _WINOGRAD_TRANSFORM)
    pretrans_ok = _registered("matmul", _PRETRANS_VARIANT,
                              _PRETRANS_TRANSFORM)
    hoisted: dict[str, int] = {}
    hoisted_bytes = 0
    for op in stream:
        if op.fused is not None or op.precompute is not None \
                or op.const_inputs:
            continue
        added = 0
        if op.kernel == "conv2d" and len(op.inputs) >= 2 and winograd_ok:
            added = _hoist_winograd(op, ctx)
        elif op.kernel == "matmul" and pretrans_ok:
            added = _hoist_pretransposed(op, ctx)
        if added and op.precompute is not None:
            hoisted[op.precompute.variant] = \
                hoisted.get(op.precompute.variant, 0) + 1
            hoisted_bytes += added
    return stream, {"precomputed": sum(hoisted.values()),
                    "precomputed_bytes": hoisted_bytes,
                    **{f"precomputed_{k}": v for k, v in hoisted.items()}}
