"""Per-operator gradient rules.

Each rule takes the forward node and the gradient of its output and returns
one gradient value name per input (``None`` where no gradient flows). Rules
emit *inference* ops through the shared :class:`GradientContext` builder —
the property that lets inference-only backends run training (paper §2.5).

Channel-sparse updates (paper §2.6, "Sub-layer Sparse Backpropagation") are
implemented here for ``matmul`` and ``conv2d``: when the weight appears in
``ctx.slice_k``, the rule slices the *input activation* to the first ``k``
input channels/features before computing the weight gradient, so only the
small slice — not the full activation — must survive until backward.

What a rule reads is what the forward pass keeps for it, so the memory of
a training step is decided here, once. A smooth activation's adjoint reads
the activation's *input*, as one op (``silu_grad(g, x)``,
``gelu_grad(g, x)``): a chain of primitives would leave intermediates the
scheduler can hoist into the forward and hold to the backward, or stack
at the peak. SwiGLU's gate ``swiglu(gate, up) = silu(gate) * up`` reads
the same way: its adjoints are ``silu_grad(g·up, gate)`` and
``swiglu(gate, g)``, so the forward keeps the two projections it already
keeps and no ``silu`` output. Two rules cooperate for the
cross-entropy loss: ``pick``'s adjoint is a scatter, and ``log_softmax``'s
rule, handed that scatter, takes its row gradients and ids instead
(``log_softmax_grad(g, x, ids)``) — the loss region then holds the logits
and one gradient of their size, whatever graph passes run afterwards.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import AutodiffError
from ..ir import GraphBuilder
from ..ir.node import Node

# Rule signature: (ctx, node, grad_of_output) -> [grad_or_None per input]
Rule = Callable[["GradientContext", Node, str], list[Optional[str]]]

GRAD_RULES: dict[str, Rule] = {}

#: Ops through which no gradient flows (masks, indices, in-place updates).
NON_DIFFERENTIABLE = {"step", "sign", "equal", "range_mask",
                      "quantize_linear", "dequantize_linear",
                      "conv2d_i8", "matmul_i8", "add_i8",
                      "global_avg_pool_i8",
                      "apply_sgd", "apply_adam", "apply_lion"}


def rule(name: str) -> Callable[[Rule], Rule]:
    def wrap(fn: Rule) -> Rule:
        GRAD_RULES[name] = fn
        return fn

    return wrap


class GradientContext:
    """Shared state for gradient emission: the builder plus scheme info."""

    def __init__(self, builder: GraphBuilder,
                 slice_k: dict[str, int] | None = None) -> None:
        self.b = builder
        self.slice_k = dict(slice_k or {})
        #: ``pick_grad`` output -> its ``(row gradients, ids)``, for the
        #: ``log_softmax`` rule to read the rows instead of the scatter
        self.picked: dict[str, tuple[str, str]] = {}

    def shape(self, name: str) -> tuple[int, ...]:
        return self.b.shape(name)

    def scalar(self, value: float) -> str:
        return self.b.constant(np.float32(value), hint="c")

    def unbroadcast(self, grad: str, target: tuple[int, ...]) -> str:
        """Reduce a broadcasted gradient back to the operand's shape."""
        gshape = self.shape(grad)
        if gshape == tuple(target):
            return grad
        extra = len(gshape) - len(target)
        if extra > 0:
            grad = self.b.reduce_sum(grad, axes=tuple(range(extra)))
            gshape = self.shape(grad)
        axes = tuple(
            i for i, (g, t) in enumerate(zip(gshape, target))
            if t == 1 and g != 1
        )
        if axes:
            grad = self.b.reduce_sum(grad, axes=axes, keepdims=True)
        if self.shape(grad) != tuple(target):
            grad = self.b.reshape(grad, target)
        return grad


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

@rule("add")
def _add_grad(ctx, node, g):
    a, b = node.inputs
    return [ctx.unbroadcast(g, ctx.shape(a)), ctx.unbroadcast(g, ctx.shape(b))]


@rule("sub")
def _sub_grad(ctx, node, g):
    a, b = node.inputs
    return [
        ctx.unbroadcast(g, ctx.shape(a)),
        ctx.unbroadcast(ctx.b.neg(g), ctx.shape(b)),
    ]


@rule("mul")
def _mul_grad(ctx, node, g):
    a, b = node.inputs
    return [
        ctx.unbroadcast(ctx.b.mul(g, b), ctx.shape(a)),
        ctx.unbroadcast(ctx.b.mul(g, a), ctx.shape(b)),
    ]


@rule("div")
def _div_grad(ctx, node, g):
    a, b = node.inputs
    ga = ctx.unbroadcast(ctx.b.div(g, b), ctx.shape(a))
    quotient = ctx.b.div(a, ctx.b.mul(b, b))
    gb = ctx.unbroadcast(ctx.b.neg(ctx.b.mul(g, quotient)), ctx.shape(b))
    return [ga, gb]


@rule("neg")
def _neg_grad(ctx, node, g):
    return [ctx.b.neg(g)]


@rule("maximum")
def _maximum_grad(ctx, node, g):
    a, b = node.inputs
    y = node.outputs[0]
    ga = ctx.b.mul(g, ctx.b.emit("equal", [y, a]))
    gb = ctx.b.mul(g, ctx.b.emit("equal", [y, b]))
    return [ctx.unbroadcast(ga, ctx.shape(a)), ctx.unbroadcast(gb, ctx.shape(b))]


@rule("minimum")
def _minimum_grad(ctx, node, g):
    return _maximum_grad(ctx, node, g)


@rule("exp")
def _exp_grad(ctx, node, g):
    return [ctx.b.mul(g, node.outputs[0])]


@rule("log")
def _log_grad(ctx, node, g):
    return [ctx.b.div(g, node.inputs[0])]


@rule("sqrt")
def _sqrt_grad(ctx, node, g):
    two_y = ctx.b.mul(ctx.scalar(2.0), node.outputs[0])
    return [ctx.b.div(g, two_y)]


@rule("abs")
def _abs_grad(ctx, node, g):
    return [ctx.b.mul(g, ctx.b.emit("sign", [node.inputs[0]]))]


@rule("cast")
def _cast_grad(ctx, node, g):
    # Mixed-precision boundary: the gradient casts back to the input dtype.
    source = ctx.b.graph.spec(node.inputs[0]).dtype
    return [ctx.b.emit("cast", [g], {"dtype": source.value})]


# ---------------------------------------------------------------------------
# Activations (gradients built from inference primitives)
# ---------------------------------------------------------------------------

@rule("fake_quant")
def _fake_quant_grad(ctx, node, g):
    """Straight-through estimator (standard QAT): the rounding step is
    treated as identity inside the representable range and blocks the
    gradient outside it, where the forward clamps."""
    (x,) = node.inputs
    b = ctx.b
    bits = int(node.attrs.get("bits", 8))
    qmin, qmax = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    scale = np.asarray(node.attrs["scale"], dtype=np.float32)
    zp = np.asarray(node.attrs.get("zero_point", 0), dtype=np.float32)
    lo = (qmin - zp) * scale
    hi = (qmax - zp) * scale
    axis = node.attrs.get("axis")
    if axis is not None and lo.ndim:
        shape = [1] * len(ctx.shape(x))
        shape[int(axis)] = lo.shape[0]
        lo, hi = lo.reshape(shape), hi.reshape(shape)
    lo_c = b.initializer("fq.lo", lo.astype(np.float32))
    hi_c = b.initializer("fq.hi", hi.astype(np.float32))
    inside_lo = b.emit("step", [b.sub(x, lo_c)])
    inside_hi = b.emit("step", [b.sub(hi_c, x)])
    return [b.mul(g, b.mul(inside_lo, inside_hi))]


def _range_grad(ctx, node, g, lo, hi=None):
    """Backward of a clamp to ``[lo, hi]``: ``g`` where ``lo < y < hi``.

    The mask is read off the activation's *output* — ``lo < clip(x) < hi``
    holds exactly where ``lo < x < hi`` does, boundaries included — so the
    backward pass keeps one bit per element and nothing but the activation
    itself reads the pre-activation (which is what lets bias/activation
    fusion fold it into its producer on backward paths too).
    """
    attrs = {"lo": lo} if hi is None else {"lo": lo, "hi": hi}
    mask = ctx.b.emit("range_mask", [node.outputs[0]], attrs)
    return [ctx.b.emit("mask_mul", [g, mask])]


@rule("relu")
def _relu_grad(ctx, node, g):
    return _range_grad(ctx, node, g, 0.0)


@rule("relu6")
def _relu6_grad(ctx, node, g):
    return _range_grad(ctx, node, g, 0.0, 6.0)


@rule("sigmoid")
def _sigmoid_grad(ctx, node, g):
    y = node.outputs[0]
    one_minus = ctx.b.sub(ctx.scalar(1.0), y)
    return [ctx.b.mul(g, ctx.b.mul(y, one_minus))]


@rule("tanh")
def _tanh_grad(ctx, node, g):
    y = node.outputs[0]
    sech2 = ctx.b.sub(ctx.scalar(1.0), ctx.b.mul(y, y))
    return [ctx.b.mul(g, sech2)]


@rule("silu")
def _silu_grad(ctx, node, g):
    return [ctx.b.emit("silu_grad", [g, node.inputs[0]])]


@rule("gelu")
def _gelu_grad(ctx, node, g):
    return [ctx.b.emit("gelu_grad", [g, node.inputs[0]])]


@rule("swiglu")
def _swiglu_grad(ctx, node, g):
    # silu(gate) is constant over the dims gate is broadcast along, so
    # unbroadcasting g·up before silu_grad is the chain rule through
    # mul(silu(gate), up), product for product
    gate, up = node.inputs
    g_silu = ctx.unbroadcast(ctx.b.mul(g, up), ctx.shape(gate))
    return [ctx.b.emit("silu_grad", [g_silu, gate]),
            ctx.unbroadcast(ctx.b.emit("swiglu", [gate, g]), ctx.shape(up))]


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

@rule("reshape")
def _reshape_grad(ctx, node, g):
    return [ctx.b.reshape(g, ctx.shape(node.inputs[0]))]


@rule("transpose")
def _transpose_grad(ctx, node, g):
    perm = tuple(node.attrs["perm"])
    inverse = tuple(int(np.argsort(perm)[i]) for i in range(len(perm)))
    return [ctx.b.transpose(g, inverse)]


@rule("slice")
def _slice_grad(ctx, node, g):
    in_shape = ctx.shape(node.inputs[0])
    axis = int(node.attrs["axis"])
    start = int(node.attrs["start"])
    end = min(int(node.attrs["end"]), in_shape[axis])
    pads = [(0, 0)] * len(in_shape)
    pads[axis] = (start, in_shape[axis] - end)
    return [ctx.b.emit("pad", [g], {"pads": tuple(pads)})]


@rule("concat")
def _concat_grad(ctx, node, g):
    axis = int(node.attrs["axis"])
    grads = []
    offset = 0
    for inp in node.inputs:
        width = ctx.shape(inp)[axis]
        grads.append(ctx.b.slice(g, axis, offset, offset + width))
        offset += width
    return grads


@rule("pad")
def _pad_grad(ctx, node, g):
    in_shape = ctx.shape(node.inputs[0])
    out = g
    for axis, (lo, _hi) in enumerate(node.attrs["pads"]):
        lo = int(lo)
        out = ctx.b.slice(out, axis, lo, lo + in_shape[axis])
    return [out]


@rule("broadcast_to")
def _broadcast_grad(ctx, node, g):
    return [ctx.unbroadcast(g, ctx.shape(node.inputs[0]))]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _restore_keepdims(ctx, node, g) -> str:
    """Reshape a reduced gradient back to the keepdims form of the input."""
    in_shape = ctx.shape(node.inputs[0])
    axes = node.attrs.get("axes")
    axes = tuple(range(len(in_shape))) if axes is None else tuple(axes)
    if not node.attrs.get("keepdims", False):
        keep_shape = tuple(
            1 if i in axes else d for i, d in enumerate(in_shape)
        )
        g = ctx.b.reshape(g, keep_shape)
    return g


@rule("reduce_sum")
def _reduce_sum_grad(ctx, node, g):
    in_shape = ctx.shape(node.inputs[0])
    g = _restore_keepdims(ctx, node, g)
    return [ctx.b.broadcast_to(g, in_shape)]


@rule("reduce_mean")
def _reduce_mean_grad(ctx, node, g):
    in_shape = ctx.shape(node.inputs[0])
    axes = node.attrs.get("axes")
    axes = tuple(range(len(in_shape))) if axes is None else tuple(axes)
    count = int(np.prod([in_shape[a] for a in axes])) or 1
    g = _restore_keepdims(ctx, node, g)
    scaled = ctx.b.mul(g, ctx.scalar(1.0 / count))
    return [ctx.b.broadcast_to(scaled, in_shape)]


@rule("reduce_max")
def _reduce_max_grad(ctx, node, g):
    x = node.inputs[0]
    in_shape = ctx.shape(x)
    g = _restore_keepdims(ctx, node, g)
    y = _restore_keepdims(ctx, node, node.outputs[0])
    mask = ctx.b.emit("equal", [x, ctx.b.broadcast_to(y, in_shape)])
    return [ctx.b.mul(ctx.b.broadcast_to(g, in_shape), mask)]


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def _swap_last(rank: int) -> tuple[int, ...]:
    perm = list(range(rank))
    perm[-1], perm[-2] = perm[-2], perm[-1]
    return tuple(perm)


@rule("matmul")
def _matmul_grad(ctx, node, g):
    if len(node.inputs) != 2 or node.attrs.get("activation") not in (None, "none"):
        raise AutodiffError(
            "autodiff must run before fusion: fused matmul has no rule"
        )
    a, w = node.inputs
    a_shape, w_shape = ctx.shape(a), ctx.shape(w)
    b = ctx.b
    # dA = G @ Wᵀ
    da = b.matmul(g, b.transpose(w, _swap_last(len(w_shape))))
    da = ctx.unbroadcast(da, a_shape)
    # dW: collapse leading batch dims of A and G, optionally channel-sliced.
    k = ctx.slice_k.get(w)
    if len(w_shape) == 2:
        a2 = b.reshape(a, (-1, a_shape[-1])) if len(a_shape) > 2 else a
        g2 = b.reshape(g, (-1, w_shape[-1])) if len(a_shape) > 2 else g
        if k is not None:
            # Paper Fig. 3: save only X[:, :k]; dW covers W[:k, :].
            a2 = b.slice(a2, 1, 0, k)
        dw = b.matmul(b.transpose(a2, (1, 0)), g2)
    else:
        if k is not None:
            raise AutodiffError("channel-sparse matmul requires a 2-D weight")
        dw = b.matmul(b.transpose(a, _swap_last(len(a_shape))), g)
        dw = ctx.unbroadcast(dw, w_shape)
    return [da, dw]


@rule("conv2d")
def _conv2d_grad(ctx, node, g):
    if len(node.inputs) != 2 or node.attrs.get("activation") not in (None, "none"):
        raise AutodiffError(
            "autodiff must run before fusion: fused conv2d has no rule"
        )
    x, w = node.inputs
    x_shape, w_shape = ctx.shape(x), ctx.shape(w)
    stride = node.attrs.get("stride", 1)
    padding = node.attrs.get("padding", 0)
    groups = int(node.attrs.get("groups", 1))
    b = ctx.b
    dx = b.emit("conv2d_dx", [g, w], {
        "stride": stride, "padding": padding, "groups": groups,
        "input_shape": x_shape,
    })
    k = ctx.slice_k.get(w)
    x_for_dw = x
    if k is not None:
        if groups != 1:
            raise AutodiffError("channel-sparse update needs groups == 1")
        x_for_dw = b.slice(x, 1, 0, k)
    dw = b.emit("conv2d_dw", [x_for_dw, g], {
        "stride": stride, "padding": padding, "groups": groups,
        "kernel_hw": (w_shape[2], w_shape[3]),
    })
    return [dx, dw]


@rule("bias_add")
def _bias_add_grad(ctx, node, g):
    axis = int(node.attrs.get("axis", 1))
    rank = len(ctx.shape(node.inputs[0]))
    axes = tuple(i for i in range(rank) if i != axis)
    return [g, ctx.b.reduce_sum(g, axes=axes)]


# ---------------------------------------------------------------------------
# Pooling / normalization / softmax
# ---------------------------------------------------------------------------

@rule("maxpool2d")
def _maxpool_grad(ctx, node, g):
    return [ctx.b.emit("maxpool2d_grad", [node.inputs[0], g], dict(node.attrs))]


@rule("avgpool2d")
def _avgpool_grad(ctx, node, g):
    attrs = dict(node.attrs)
    attrs["input_shape"] = ctx.shape(node.inputs[0])
    return [ctx.b.emit("avgpool2d_grad", [g], attrs)]


@rule("global_avg_pool")
def _gap_grad(ctx, node, g):
    n, c, h, w = ctx.shape(node.inputs[0])
    scaled = ctx.b.mul(g, ctx.scalar(1.0 / (h * w)))
    expanded = ctx.b.reshape(scaled, (n, c, 1, 1))
    return [ctx.b.broadcast_to(expanded, (n, c, h, w))]


@rule("softmax")
def _softmax_grad(ctx, node, g):
    axis = int(node.attrs.get("axis", -1))
    rank = len(ctx.shape(node.inputs[0]))
    axis = axis % rank
    y = node.outputs[0]
    inner = ctx.b.reduce_sum(ctx.b.mul(g, y), axes=(axis,), keepdims=True)
    return [ctx.b.mul(y, ctx.b.sub(g, inner))]


@rule("log_softmax")
def _log_softmax_grad(ctx, node, g):
    """One ``log_softmax_grad`` node: ``g - softmax(x) * rowsum(g)``.

    When ``g`` is the scatter ``pick``'s rule just emitted (the
    cross-entropy loss: ``pick`` reads this node's output and nothing else
    contributes to its gradient), the node takes the picked rows and ids
    instead — adding ``g`` at each row's id to ``-softmax(x) * g`` — and the
    ``[..., depth]`` scatter is never read (DCE drops it). Decided here,
    once, for every compile: no graph pass and no option is involved, so
    no feed-only node is left for the scheduler to start early.
    """
    x = node.inputs[0]
    rank = len(ctx.shape(x))
    axis = int(node.attrs.get("axis", -1)) % rank
    picked = ctx.picked.get(g) if axis == rank - 1 else None
    inputs = [g, x] if picked is None else [picked[0], x, picked[1]]
    return [ctx.b.emit("log_softmax_grad", inputs, {"axis": axis})]


@rule("pick")
def _pick_grad(ctx, node, g):
    x, ids = node.inputs
    scatter = ctx.b.emit("pick_grad", [g, ids],
                         {"depth": ctx.shape(x)[-1]})
    ctx.picked[scatter] = (g, ids)
    return [scatter, None]


@rule("layernorm")
def _layernorm_grad(ctx, node, g):
    x, gamma, _beta = node.inputs
    b = ctx.b
    rank = len(ctx.shape(x))
    eps = float(node.attrs.get("eps", 1e-5))
    mean = b.reduce_mean(x, axes=(rank - 1,), keepdims=True)
    centered = b.sub(x, mean)
    var = b.reduce_mean(b.mul(centered, centered), axes=(rank - 1,),
                        keepdims=True)
    rstd = b.div(ctx.scalar(1.0), b.emit("sqrt", [b.add(var, ctx.scalar(eps))]))
    xhat = b.mul(centered, rstd)
    lead_axes = tuple(range(rank - 1))
    dgamma = b.reduce_sum(b.mul(g, xhat), axes=lead_axes)
    dbeta = b.reduce_sum(g, axes=lead_axes)
    dxhat = b.mul(g, gamma)
    m1 = b.reduce_mean(dxhat, axes=(rank - 1,), keepdims=True)
    m2 = b.reduce_mean(b.mul(dxhat, xhat), axes=(rank - 1,), keepdims=True)
    dx = b.mul(rstd, b.sub(b.sub(dxhat, m1), b.mul(xhat, m2)))
    return [dx, dgamma, dbeta]


@rule("rmsnorm")
def _rmsnorm_grad(ctx, node, g):
    x, gamma = node.inputs
    b = ctx.b
    rank = len(ctx.shape(x))
    eps = float(node.attrs.get("eps", 1e-6))
    ms = b.reduce_mean(b.mul(x, x), axes=(rank - 1,), keepdims=True)
    rinv = b.div(ctx.scalar(1.0), b.emit("sqrt", [b.add(ms, ctx.scalar(eps))]))
    xhat = b.mul(x, rinv)
    dgamma = b.reduce_sum(b.mul(g, xhat), axes=tuple(range(rank - 1)))
    dxhat = b.mul(g, gamma)
    proj = b.reduce_mean(b.mul(dxhat, xhat), axes=(rank - 1,), keepdims=True)
    dx = b.mul(rinv, b.sub(dxhat, b.mul(xhat, proj)))
    return [dx, dgamma]


@rule("embedding")
def _embedding_grad(ctx, node, g):
    table, ids = node.inputs
    rows = ctx.shape(table)[0]
    dtable = ctx.b.emit("embedding_grad", [ids, g], {"num_rows": rows})
    return [dtable, None]
