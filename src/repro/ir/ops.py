"""Operator schema registry: shape inference, FLOP and byte estimates.

Every operator the engine understands is registered here with:

* a shape/dtype inference function (used by the graph builder and validator),
* a FLOP estimate (used by the device latency cost model),
* the attribute names it accepts.

The op set is deliberately the *inference* op set (paper section 2.5):
gradient rules in :mod:`repro.autodiff` emit these same primitives, which is
what lets inference-only backends execute training graphs. The only
training-flavoured ops are ``conv2d_dx`` (a transposed convolution, itself
used by inference decoders), ``conv2d_dw``, ``maxpool2d_grad``,
``embedding_grad`` (a scatter-add), ``pick_grad`` (a scatter),
``log_softmax_grad``, the activation adjoints ``silu_grad`` /
``gelu_grad`` and the in-place ``apply_*`` optimizer steps. One forward
op is a fusion an inference backend runs too: ``swiglu(gate, up) =
silu(gate) * up``, the SwiGLU FFN's gate, whose adjoint reads ``gate`` and
``up`` and so keeps no ``silu`` output for the backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..errors import ShapeError
from .dtype import DType
from .tensor import TensorSpec

# An inference function maps (input specs, attrs) -> list of (shape, dtype).
InferFn = Callable[[list[TensorSpec], dict], list[tuple[tuple[int, ...], DType]]]
FlopsFn = Callable[[list[TensorSpec], list[TensorSpec], dict], int]


@dataclass(frozen=True)
class OpSchema:
    """Static description of one operator type."""

    name: str
    min_inputs: int
    max_inputs: int
    infer: InferFn
    flops: FlopsFn
    attrs: frozenset[str] = field(default_factory=frozenset)
    inplace: bool = False  # optimizer apply ops mutate their first input

    def check_arity(self, n: int) -> None:
        if not (self.min_inputs <= n <= self.max_inputs):
            raise ShapeError(
                f"op {self.name!r} expects between {self.min_inputs} and "
                f"{self.max_inputs} inputs, got {n}"
            )


OPS: dict[str, OpSchema] = {}


def register_op(
    name: str,
    min_inputs: int,
    max_inputs: int | None = None,
    attrs: tuple[str, ...] = (),
    flops: FlopsFn | None = None,
    inplace: bool = False,
) -> Callable[[InferFn], InferFn]:
    """Decorator registering ``fn`` as the shape-inference rule for ``name``."""

    def wrap(fn: InferFn) -> InferFn:
        OPS[name] = OpSchema(
            name=name,
            min_inputs=min_inputs,
            max_inputs=max_inputs if max_inputs is not None else min_inputs,
            infer=fn,
            flops=flops or _zero_flops,
            attrs=frozenset(attrs),
            inplace=inplace,
        )
        return fn

    return wrap


def get_schema(op_type: str) -> OpSchema:
    try:
        return OPS[op_type]
    except KeyError:
        raise ShapeError(f"unknown operator {op_type!r}") from None


def _zero_flops(inputs, outputs, attrs) -> int:
    return 0


def _elem_flops(inputs, outputs, attrs) -> int:
    return outputs[0].num_elements


def _nelem(shape: tuple[int, ...]) -> int:
    return math.prod(shape) if shape else 1


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Numpy-style broadcasting; raises :class:`ShapeError` on mismatch."""
    if a == b:
        return tuple(a)
    try:
        return tuple(int(d) for d in np.broadcast_shapes(a, b))
    except ValueError:
        raise ShapeError(f"cannot broadcast {a} with {b}") from None


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def _binary_infer(inputs, attrs):
    a, b = inputs
    return [(broadcast_shapes(a.shape, b.shape), a.dtype)]


def _unary_infer(inputs, attrs):
    (a,) = inputs
    return [(a.shape, a.dtype)]


for _name in ("add", "sub", "mul", "div", "maximum", "minimum"):
    register_op(_name, 2, attrs=(), flops=_elem_flops)(_binary_infer)

for _name in ("neg", "exp", "log", "sqrt", "step", "abs", "sign"):
    register_op(_name, 1, flops=_elem_flops)(_unary_infer)

# Activations carry a higher per-element cost than simple arithmetic.
def _act_flops(inputs, outputs, attrs) -> int:
    return 4 * outputs[0].num_elements


for _name in ("relu", "relu6", "sigmoid", "tanh", "silu"):
    register_op(_name, 1, flops=_act_flops)(_unary_infer)

register_op("gelu", 1, flops=lambda i, o, a: 8 * o[0].num_elements)(_unary_infer)

# SwiGLU's gate, ``silu(gate) * up``: ``mul``'s broadcast and one silu of
# ``gate`` plus one product per output element.
register_op("swiglu", 2, flops=lambda i, o, a: 4 * i[0].num_elements
            + o[0].num_elements)(_binary_infer)


# A smooth activation's adjoint ``op_grad(g, x)`` reads the activation's
# *input* and the output gradient, and is one elementwise pass: the
# forward keeps ``x`` for it, nothing derived from ``x``. Priced as the
# primitives each replaces: silu's sigmoid (recomputed) and six products
# and sums; GELU's tanh and seventeen.

def _adjoint_infer(op: str):
    def infer(inputs, attrs):
        g, x = inputs
        if g.shape != x.shape or g.dtype != x.dtype:
            raise ShapeError(
                f"{op} gradient {g.shape} {g.dtype.value} does not match "
                f"its input {x.shape} {x.dtype.value}")
        return [(x.shape, x.dtype)]
    return infer


register_op("silu_grad", 2, flops=lambda i, o, a: 10 * o[0].num_elements)(
    _adjoint_infer("silu_grad"))
register_op("gelu_grad", 2, flops=lambda i, o, a: 21 * o[0].num_elements)(
    _adjoint_infer("gelu_grad"))


@register_op("equal", 2, flops=_elem_flops)
def _equal_infer(inputs, attrs):
    a, b = inputs
    # Produces a float mask (1.0 where equal) so it composes with mul.
    return [(broadcast_shapes(a.shape, b.shape), DType.FLOAT32)]


# What a relu-family op keeps for its backward pass: one bit per element
# of the activation's *output* (``lo < y < hi``; ``hi`` absent for relu),
# packed eight to a byte in numpy's default (big-endian) bit order. Both
# ops cost one elementwise pass over the ``n`` activation elements.

@register_op("range_mask", 1, attrs=("lo", "hi"),
             flops=lambda i, o, a: i[0].num_elements)
def _range_mask_infer(inputs, attrs):
    (y,) = inputs
    if not y.dtype.is_float:
        raise ShapeError("range_mask input must be float")
    return [(((y.num_elements + 7) // 8,), DType.UINT8)]


def _check_bit_mask(op: str, mask: TensorSpec, shape) -> None:
    """``mask`` is the packed ``range_mask`` of a tensor of ``shape``."""
    packed = ((_nelem(tuple(shape)) + 7) // 8,)
    if mask.dtype != DType.UINT8 or mask.shape != packed:
        raise ShapeError(
            f"{op} needs a {packed} uint8 bit mask for a gradient of shape "
            f"{tuple(shape)}, got {mask.shape} {mask.dtype.value}")


@register_op("mask_mul", 2, flops=_elem_flops)
def _mask_mul_infer(inputs, attrs):
    g, mask = inputs
    _check_bit_mask("mask_mul", mask, g.shape)
    return [(g.shape, g.dtype)]


@register_op("cast", 1, attrs=("dtype",))
def _cast_infer(inputs, attrs):
    (a,) = inputs
    return [(a.shape, DType(attrs["dtype"]))]


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

@register_op("reshape", 1, attrs=("shape",))
def _reshape_infer(inputs, attrs):
    (a,) = inputs
    shape = tuple(int(d) for d in attrs["shape"])
    if shape.count(-1) > 1:
        raise ShapeError(f"reshape accepts at most one -1: {shape}")
    if -1 in shape:
        known = -_nelem(shape)  # product of the other dims (negated by -1)
        if known == 0 or a.num_elements % known:
            raise ShapeError(f"cannot reshape {a.shape} to {shape}")
        shape = tuple(a.num_elements // known if d == -1 else d for d in shape)
    if _nelem(shape) != a.num_elements:
        raise ShapeError(f"cannot reshape {a.shape} ({a.num_elements}) to {shape}")
    return [(shape, a.dtype)]


@register_op("transpose", 1, attrs=("perm",))
def _transpose_infer(inputs, attrs):
    (a,) = inputs
    perm = tuple(int(p) for p in attrs["perm"])
    if sorted(perm) != list(range(a.rank)):
        raise ShapeError(f"bad permutation {perm} for rank {a.rank}")
    return [(tuple(a.shape[p] for p in perm), a.dtype)]


@register_op("slice", 1, attrs=("axis", "start", "end"))
def _slice_infer(inputs, attrs):
    (a,) = inputs
    axis = int(attrs["axis"])
    start, end = int(attrs["start"]), int(attrs["end"])
    if not (0 <= axis < a.rank):
        raise ShapeError(f"slice axis {axis} out of range for {a.shape}")
    end = min(end, a.shape[axis])
    if not (0 <= start <= end):
        raise ShapeError(f"bad slice [{start}:{end}] on dim {a.shape[axis]}")
    shape = list(a.shape)
    shape[axis] = end - start
    return [(tuple(shape), a.dtype)]


@register_op("concat", 2, max_inputs=64, attrs=("axis",))
def _concat_infer(inputs, attrs):
    axis = int(attrs["axis"])
    base = list(inputs[0].shape)
    total = 0
    for spec in inputs:
        if spec.rank != len(base):
            raise ShapeError("concat inputs must share rank")
        for dim in range(spec.rank):
            if dim != axis and spec.shape[dim] != base[dim]:
                raise ShapeError(f"concat mismatch at axis {dim}")
        total += spec.shape[axis]
    base[axis] = total
    return [(tuple(base), inputs[0].dtype)]


@register_op("pad", 1, attrs=("pads",), flops=_elem_flops)
def _pad_infer(inputs, attrs):
    (a,) = inputs
    pads = [tuple(int(x) for x in p) for p in attrs["pads"]]
    if len(pads) != a.rank:
        raise ShapeError(f"pad needs {a.rank} (before, after) pairs, got {len(pads)}")
    shape = tuple(d + lo + hi for d, (lo, hi) in zip(a.shape, pads))
    return [(shape, a.dtype)]


@register_op("broadcast_to", 1, attrs=("shape",), flops=_elem_flops)
def _broadcast_infer(inputs, attrs):
    (a,) = inputs
    shape = tuple(int(d) for d in attrs["shape"])
    if broadcast_shapes(a.shape, shape) != shape:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}")
    return [(shape, a.dtype)]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _reduce_shape(spec: TensorSpec, attrs) -> tuple[int, ...]:
    axes = attrs.get("axes")
    axes = tuple(range(spec.rank)) if axes is None else tuple(int(x) for x in axes)
    keepdims = bool(attrs.get("keepdims", False))
    for axis in axes:
        if not (0 <= axis < spec.rank):
            raise ShapeError(f"reduce axis {axis} out of range for {spec.shape}")
    if keepdims:
        return tuple(1 if i in axes else d for i, d in enumerate(spec.shape))
    return tuple(d for i, d in enumerate(spec.shape) if i not in axes)


def _reduce_infer(inputs, attrs):
    (a,) = inputs
    return [(_reduce_shape(a, attrs), a.dtype)]


def _reduce_flops(inputs, outputs, attrs) -> int:
    return inputs[0].num_elements


for _name in ("reduce_sum", "reduce_mean", "reduce_max"):
    register_op(_name, 1, attrs=("axes", "keepdims"), flops=_reduce_flops)(
        _reduce_infer
    )


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def _trans_last2(shape, flag) -> tuple:
    """Swap the last two dims of ``shape`` when ``flag`` is truthy."""
    if flag:
        return shape[:-2] + (shape[-1], shape[-2])
    return shape


def _matmul_flops(inputs, outputs, attrs) -> int:
    a = inputs[0]  # a third (fused bias) input does not change the FLOPs
    k = _trans_last2(a.shape, attrs.get("trans_a"))[-1]
    return 2 * outputs[0].num_elements * k


@register_op(
    "matmul", 2, max_inputs=3,
    attrs=("activation", "trans_a", "trans_b"), flops=_matmul_flops,
)
def _matmul_infer(inputs, attrs):
    a, b = inputs[0], inputs[1]
    if a.rank < 2 or b.rank < 2:
        raise ShapeError("matmul inputs must have rank >= 2")
    a_shape = _trans_last2(a.shape, attrs.get("trans_a"))
    b_shape = _trans_last2(b.shape, attrs.get("trans_b"))
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a_shape} @ {b_shape}")
    batch = broadcast_shapes(a_shape[:-2], b_shape[:-2])
    shape = batch + (a_shape[-2], b_shape[-1])
    if len(inputs) == 3:  # fused bias
        bias = inputs[2]
        if bias.shape != (b_shape[-1],):
            raise ShapeError(
                f"fused matmul bias shape {bias.shape} != ({b_shape[-1]},)")
    return [(shape, a.dtype)]


# ---------------------------------------------------------------------------
# Convolution family (NCHW layout; layout pass may retarget to NHWC)
# ---------------------------------------------------------------------------

def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _conv_out_hw(h, w, kh, kw, stride, padding) -> tuple[int, int]:
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv output would be empty: in={h}x{w} k={kh}x{kw}")
    return ho, wo


def _conv2d_flops(inputs, outputs, attrs) -> int:
    w = inputs[1]
    cout, cin_g, kh, kw = w.shape
    macs = outputs[0].num_elements * cin_g * kh * kw
    return 2 * macs


@register_op(
    "conv2d",
    2,
    max_inputs=3,
    attrs=("stride", "padding", "groups", "activation", "algo", "layout"),
    flops=_conv2d_flops,
)
def _conv2d_infer(inputs, attrs):
    x, w = inputs[0], inputs[1]
    if x.rank != 4 or w.rank != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW weight")
    n, c, h, wdim = x.shape
    cout, cin_g, kh, kw = w.shape
    groups = int(attrs.get("groups", 1))
    if c != cin_g * groups:
        raise ShapeError(
            f"conv2d channels mismatch: input C={c}, weight Cin/groups={cin_g}, "
            f"groups={groups}"
        )
    if cout % groups:
        raise ShapeError(f"conv2d Cout={cout} not divisible by groups={groups}")
    ho, wo = _conv_out_hw(
        h, wdim, kh, kw, attrs.get("stride", 1), attrs.get("padding", 0)
    )
    if len(inputs) == 3 and inputs[2].shape != (cout,):
        raise ShapeError(f"fused conv bias shape {inputs[2].shape} != ({cout},)")
    return [((n, cout, ho, wo), x.dtype)]


def _conv2d_dx_flops(inputs, outputs, attrs) -> int:
    # a fused mask (third input) is one more multiply per element of dx
    masked = outputs[0].num_elements if len(inputs) == 3 else 0
    return _conv2d_flops(inputs, outputs, attrs) + masked


@register_op(
    "conv2d_dx",
    2,
    max_inputs=3,
    attrs=("stride", "padding", "groups", "input_shape"),
    flops=_conv2d_dx_flops,
)
def _conv2d_dx_infer(inputs, attrs):
    """``conv2d_dx(grad, w[, mask])``: the optional third input is the
    packed bit mask of the activation that fed the conv — ``mask_mul``
    folded into the gradient's epilogue (:mod:`repro.passes.fusion`)."""
    grad = inputs[0]
    in_shape = tuple(int(d) for d in attrs["input_shape"])
    if len(in_shape) != 4:
        raise ShapeError("conv2d_dx input_shape must be NCHW")
    if len(inputs) == 3:
        _check_bit_mask("conv2d_dx", inputs[2], in_shape)
    return [(in_shape, grad.dtype)]


def _conv2d_dw_flops(inputs, outputs, attrs) -> int:
    x, grad = inputs
    cout, cin_g, kh, kw = outputs[0].shape
    return 2 * grad.num_elements * cin_g * kh * kw


@register_op(
    "conv2d_dw",
    2,
    attrs=("stride", "padding", "groups", "kernel_hw"),
    flops=_conv2d_dw_flops,
)
def _conv2d_dw_infer(inputs, attrs):
    x, grad = inputs
    kh, kw = _pair(attrs["kernel_hw"])
    groups = int(attrs.get("groups", 1))
    cin, cout = x.shape[1], grad.shape[1]
    if cin % groups or cout % groups:
        raise ShapeError("conv2d_dw channels not divisible by groups")
    return [((cout, cin // groups, kh, kw), x.dtype)]


@register_op("bias_add", 2, attrs=("axis",), flops=_elem_flops)
def _bias_add_infer(inputs, attrs):
    x, b = inputs
    axis = int(attrs.get("axis", 1))
    if b.rank != 1 or b.shape[0] != x.shape[axis]:
        raise ShapeError(f"bias {b.shape} does not match axis {axis} of {x.shape}")
    return [(x.shape, x.dtype)]


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _pool_infer(inputs, attrs):
    (x,) = inputs
    if x.rank != 4:
        raise ShapeError("pooling expects NCHW input")
    n, c, h, w = x.shape
    kh, kw = _pair(attrs["kernel"])
    stride = attrs.get("stride", attrs["kernel"])
    ho, wo = _conv_out_hw(h, w, kh, kw, stride, attrs.get("padding", 0))
    return [((n, c, ho, wo), x.dtype)]


register_op(
    "maxpool2d", 1, attrs=("kernel", "stride", "padding"), flops=_elem_flops
)(_pool_infer)
register_op(
    "avgpool2d", 1, attrs=("kernel", "stride", "padding"), flops=_elem_flops
)(_pool_infer)


@register_op("maxpool2d_grad", 2, attrs=("kernel", "stride", "padding"),
             flops=lambda i, o, a: 2 * i[0].num_elements)
def _maxpool_grad_infer(inputs, attrs):
    x, grad = inputs
    return [(x.shape, x.dtype)]


@register_op("avgpool2d_grad", 1, attrs=("kernel", "stride", "padding",
                                         "input_shape"),
             flops=lambda i, o, a: 2 * o[0].num_elements)
def _avgpool_grad_infer(inputs, attrs):
    (grad,) = inputs
    return [(tuple(int(d) for d in attrs["input_shape"]), grad.dtype)]


@register_op("global_avg_pool", 1, flops=_reduce_flops)
def _gap_infer(inputs, attrs):
    (x,) = inputs
    if x.rank != 4:
        raise ShapeError("global_avg_pool expects NCHW input")
    n, c, _, _ = x.shape
    return [((n, c), x.dtype)]


# ---------------------------------------------------------------------------
# Normalization / softmax
# ---------------------------------------------------------------------------

@register_op("softmax", 1, attrs=("axis",),
             flops=lambda i, o, a: 5 * o[0].num_elements)
def _softmax_infer(inputs, attrs):
    (x,) = inputs
    return [(x.shape, x.dtype)]


@register_op("log_softmax", 1, attrs=("axis",),
             flops=lambda i, o, a: 5 * o[0].num_elements)
def _log_softmax_infer(inputs, attrs):
    (x,) = inputs
    return [(x.shape, x.dtype)]


@register_op("layernorm", 3, attrs=("eps",),
             flops=lambda i, o, a: 8 * o[0].num_elements)
def _layernorm_infer(inputs, attrs):
    x, gamma, beta = inputs
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise ShapeError(f"layernorm scale/shift must be ({dim},)")
    return [(x.shape, x.dtype)]


@register_op("rmsnorm", 2, attrs=("eps",),
             flops=lambda i, o, a: 5 * o[0].num_elements)
def _rmsnorm_infer(inputs, attrs):
    x, gamma = inputs
    if gamma.shape != (x.shape[-1],):
        raise ShapeError(f"rmsnorm scale must be ({x.shape[-1]},)")
    return [(x.shape, x.dtype)]


# ---------------------------------------------------------------------------
# Embedding / indexing
# ---------------------------------------------------------------------------

@register_op("embedding", 2)
def _embedding_infer(inputs, attrs):
    table, ids = inputs
    if table.rank != 2:
        raise ShapeError("embedding table must be 2-D")
    if ids.dtype not in (DType.INT32, DType.INT64):
        raise ShapeError("embedding ids must be integer")
    return [(ids.shape + (table.shape[1],), table.dtype)]


@register_op("embedding_grad", 2, attrs=("num_rows",),
             flops=lambda i, o, a: i[1].num_elements)
def _embedding_grad_infer(inputs, attrs):
    ids, grad = inputs
    rows = int(attrs["num_rows"])
    return [((rows, grad.shape[-1]), grad.dtype)]


def _check_row_ids(op: str, ids: TensorSpec, rows: tuple[int, ...]) -> None:
    """``ids`` holds one integer class index per row of shape ``rows``."""
    if ids.dtype not in (DType.INT32, DType.INT64):
        raise ShapeError(f"{op} ids must be integer")
    if ids.shape != tuple(rows):
        raise ShapeError(
            f"{op} needs one id per row {tuple(rows)}, got {ids.shape}")


# A label is an index, not a float row. ``pick(x, ids)`` takes one element
# per row along the last axis (``x[..., ids]``); ``pick_grad(g, ids)``,
# its adjoint, is ``g`` times a one-hot row — ``g`` at each id, ``g · 0``
# elsewhere; ``log_softmax_grad(g, x[, ids])`` is the adjoint of
# ``log_softmax`` over ``axis``, which with ``ids`` (last axis only) takes
# ``g`` as row gradients picked at ``ids`` — the two adjoints in one pass,
# which is what the cross-entropy loss's backward runs
# (:mod:`repro.autodiff.rules`).

@register_op("pick", 2, flops=lambda i, o, a: o[0].num_elements)
def _pick_infer(inputs, attrs):
    x, ids = inputs
    if x.rank < 1:
        raise ShapeError("pick needs a tensor of rank >= 1")
    _check_row_ids("pick", ids, x.shape[:-1])
    return [(x.shape[:-1], x.dtype)]


@register_op("pick_grad", 2, attrs=("depth",), flops=_elem_flops)
def _pick_grad_infer(inputs, attrs):
    g, ids = inputs
    _check_row_ids("pick_grad", ids, g.shape)
    return [(g.shape + (int(attrs["depth"]),), g.dtype)]


@register_op("log_softmax_grad", 2, max_inputs=3, attrs=("axis",),
             # softmax, scale, subtract (+ a row sum without ids)
             flops=lambda i, o, a: (7 if len(i) == 3 else 8)
             * o[0].num_elements)
def _log_softmax_grad_infer(inputs, attrs):
    g, x = inputs[0], inputs[1]
    if x.rank < 1:
        raise ShapeError("log_softmax_grad needs a tensor of rank >= 1")
    rows = x.shape
    if len(inputs) == 3:
        if int(attrs.get("axis", -1)) % x.rank != x.rank - 1:
            raise ShapeError("log_softmax_grad picks along the last axis")
        _check_row_ids("log_softmax_grad", inputs[2], x.shape[:-1])
        rows = x.shape[:-1]
    if g.shape != rows:
        raise ShapeError(
            f"log_softmax_grad gradient {g.shape} does not match {rows}")
    return [(x.shape, g.dtype)]


# ---------------------------------------------------------------------------
# Quantization ops (int8 deployment + quantization-aware training)
#
# The paper's SNPE/TinyEngine backends run integer models; these ops are the
# IR for that path. ``fake_quant`` simulates int8 rounding during training
# (QAT); ``quantize_linear``/``dequantize_linear`` move tensors between the
# float and int8 domains; ``conv2d_i8``/``matmul_i8`` are the fused integer
# compute ops with int32 accumulation and requantization, the form vendor
# libraries execute.
# ---------------------------------------------------------------------------

def _qdtype(bits) -> DType:
    bits = int(bits)
    if bits == 8:
        return DType.INT8
    if bits == 32:
        return DType.INT32
    raise ShapeError(f"unsupported quantized width: {bits} bits")


_QUANT_SCALE_ATTRS = ("scale", "zero_point", "bits", "axis")


@register_op("fake_quant", 1, attrs=_QUANT_SCALE_ATTRS,
             flops=lambda i, o, a: 3 * o[0].num_elements)
def _fake_quant_infer(inputs, attrs):
    (x,) = inputs
    if not x.dtype.is_float:
        raise ShapeError("fake_quant input must be float")
    return [(x.shape, x.dtype)]


@register_op("quantize_linear", 1, attrs=_QUANT_SCALE_ATTRS,
             flops=_elem_flops)
def _quantize_infer(inputs, attrs):
    (x,) = inputs
    return [(x.shape, _qdtype(attrs.get("bits", 8)))]


@register_op("dequantize_linear", 1, attrs=_QUANT_SCALE_ATTRS,
             flops=_elem_flops)
def _dequantize_infer(inputs, attrs):
    (x,) = inputs
    return [(x.shape, DType.FLOAT32)]


_REQUANT_ATTRS = (
    "x_scale", "x_zero_point", "w_scale", "out_scale", "out_zero_point",
    "activation",
)


@register_op(
    "conv2d_i8", 2, max_inputs=3,
    attrs=("stride", "padding", "groups", "layout") + _REQUANT_ATTRS,
    flops=_conv2d_flops,
)
def _conv2d_i8_infer(inputs, attrs):
    x, w = inputs[0], inputs[1]
    if x.dtype != DType.INT8 or w.dtype != DType.INT8:
        raise ShapeError("conv2d_i8 expects int8 input and weight")
    if len(inputs) == 3 and inputs[2].dtype != DType.INT32:
        raise ShapeError("conv2d_i8 bias must be int32")
    ((shape, _),) = _conv2d_infer(inputs, attrs)
    return [(shape, DType.INT8)]


@register_op(
    "add_i8", 2,
    attrs=("a_scale", "a_zero_point", "b_scale", "b_zero_point",
           "out_scale", "out_zero_point", "activation"),
    flops=_elem_flops,
)
def _add_i8_infer(inputs, attrs):
    a, b = inputs
    if a.dtype != DType.INT8 or b.dtype != DType.INT8:
        raise ShapeError("add_i8 expects int8 operands")
    return [(broadcast_shapes(a.shape, b.shape), DType.INT8)]


@register_op("global_avg_pool_i8", 1, flops=_reduce_flops)
def _global_avg_pool_i8_infer(inputs, attrs):
    (x,) = inputs
    if x.rank != 4:
        raise ShapeError("global_avg_pool_i8 expects NCHW input")
    if x.dtype != DType.INT8:
        raise ShapeError("global_avg_pool_i8 expects an int8 input")
    n, c, _, _ = x.shape
    return [((n, c), DType.INT8)]


@register_op(
    "matmul_i8", 2, max_inputs=3,
    attrs=_REQUANT_ATTRS, flops=_matmul_flops,
)
def _matmul_i8_infer(inputs, attrs):
    a, b = inputs[0], inputs[1]
    if a.dtype != DType.INT8 or b.dtype != DType.INT8:
        raise ShapeError("matmul_i8 expects int8 operands")
    if len(inputs) == 3 and inputs[2].dtype != DType.INT32:
        raise ShapeError("matmul_i8 bias must be int32")
    ((shape, _),) = _matmul_infer(inputs[:2], {})
    if len(inputs) == 3 and inputs[2].shape != (shape[-1],):
        raise ShapeError(
            f"matmul_i8 bias shape {inputs[2].shape} != ({shape[-1]},)")
    return [(shape, DType.INT8)]


# ---------------------------------------------------------------------------
# Optimizer apply ops (in-place on the first input)
# ---------------------------------------------------------------------------

def _apply_flops(inputs, outputs, attrs) -> int:
    return 6 * inputs[0].num_elements


def _apply_infer(inputs, attrs):
    param = inputs[0]
    return [(param.shape, param.dtype)]


register_op(
    "apply_sgd", 2, max_inputs=5,
    attrs=("lr", "momentum", "weight_decay", "slice_k", "slice_axis",
           "qas_scale", "accum_steps"),
    flops=_apply_flops, inplace=True,
)(_apply_infer)

register_op(
    "apply_adam", 5, max_inputs=7,
    attrs=("lr", "beta1", "beta2", "eps", "weight_decay", "slice_k",
           "slice_axis", "accum_steps"),
    flops=_apply_flops, inplace=True,
)(_apply_infer)

register_op(
    "apply_lion", 3, max_inputs=5,
    attrs=("lr", "beta1", "beta2", "weight_decay", "slice_k", "slice_axis",
           "accum_steps"),
    flops=_apply_flops, inplace=True,
)(_apply_infer)


def op_bytes(in_specs: list[TensorSpec], out_specs: list[TensorSpec]) -> int:
    """Total bytes moved by one op (all inputs read + all outputs written)."""
    return sum(s.nbytes for s in in_specs) + sum(s.nbytes for s in out_specs)


def op_flops(op_type: str, in_specs, out_specs, attrs) -> int:
    """FLOPs executed by one op, per the registered estimate."""
    return int(get_schema(op_type).flops(in_specs, out_specs, attrs))
