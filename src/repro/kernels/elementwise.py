"""Elementwise kernels: arithmetic, activations, comparisons, casts."""

from __future__ import annotations

import numpy as np

from . import kernel, out_emitter, out_kernel, workspace

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))

# Into-forms: the execution plan hands these the output's own slab array,
# so a step allocates nothing for them. Each must produce bits identical
# to its base kernel — same ufunc, same operand order.
# alias_safe=True means out may be one of the same-shape inputs (true for
# elementwise ufuncs, which read element i before writing element i).

def _binary_out(ufunc):
    def run(inputs, attrs, out):
        return ufunc(inputs[0], inputs[1], out=out)
    return run


def _unary_out(ufunc):
    def run(inputs, attrs, out):
        return ufunc(inputs[0], out=out)
    return run


def _out_emitter(ufunc):
    def emit(args, attrs, out):
        return f"np.{ufunc.__name__}({', '.join(args)}, out={out})"
    return emit


_UFUNC_OPS = [
    ("add", np.add), ("sub", np.subtract), ("mul", np.multiply),
    ("div", np.true_divide), ("maximum", np.maximum),
    ("minimum", np.minimum), ("neg", np.negative), ("exp", np.exp),
    ("log", np.log), ("sqrt", np.sqrt), ("abs", np.abs), ("sign", np.sign),
    ("tanh", np.tanh),
]

for _name, _ufunc in _UFUNC_OPS:
    out_kernel(_name, alias_safe=True)(
        (_binary_out if _ufunc.nin == 2 else _unary_out)(_ufunc))
    out_emitter(_name)(_out_emitter(_ufunc))


# Fused elementwise chains: the plan's fuse_elementwise pass collapses a
# producer -> sole-consumer run of alias-safe elementwise instructions
# into one instruction; make_fused_kernel builds its executable form. The
# base form replays the constituent base kernels sequentially (bitwise
# identical to the unfused stream by construction); the out= form threads
# one shared buffer through every link's out= kernel, so the chain's
# intermediates never exist as allocations at all. Both rely on the
# out_kernel contract (bitwise parity with base) and on alias_safe links
# (element i is read before it is written), which is what makes writing
# link k's result over link k-1's — in the same buffer — safe.

def make_fused_kernel(links):
    """Build (base, out) callables for a fused chain.

    ``links`` is a tuple of ``(base_fn, out_fn, attrs, args)``; ``args``
    maps each link input to either ``None`` (the previous link's result)
    or an index into the fused instruction's input list.
    """

    def run_base(inputs, attrs):
        value = None
        for base_fn, _out_fn, link_attrs, args in links:
            ins = [value if a is None else inputs[a] for a in args]
            value = base_fn(ins, link_attrs)[0]
        return [value]

    def run_out(inputs, attrs, out):
        for _base_fn, out_fn, link_attrs, args in links:
            ins = [out if a is None else inputs[a] for a in args]
            out_fn(ins, link_attrs, out)
        return out

    return run_base, run_out


@kernel("add")
def _add(inputs, attrs):
    return [inputs[0] + inputs[1]]


@kernel("sub")
def _sub(inputs, attrs):
    return [inputs[0] - inputs[1]]


@kernel("mul")
def _mul(inputs, attrs):
    return [inputs[0] * inputs[1]]


@kernel("div")
def _div(inputs, attrs):
    return [inputs[0] / inputs[1]]


@kernel("maximum")
def _maximum(inputs, attrs):
    return [np.maximum(inputs[0], inputs[1])]


@kernel("minimum")
def _minimum(inputs, attrs):
    return [np.minimum(inputs[0], inputs[1])]


@kernel("neg")
def _neg(inputs, attrs):
    return [-inputs[0]]


@kernel("exp")
def _exp(inputs, attrs):
    return [np.exp(inputs[0])]


@kernel("log")
def _log(inputs, attrs):
    return [np.log(inputs[0])]


@kernel("sqrt")
def _sqrt(inputs, attrs):
    return [np.sqrt(inputs[0])]


@kernel("abs")
def _abs(inputs, attrs):
    return [np.abs(inputs[0])]


@kernel("sign")
def _sign(inputs, attrs):
    return [np.sign(inputs[0])]


@kernel("step")
def _step(inputs, attrs):
    # Heaviside with step(0) = 0: the subgradient convention used for ReLU.
    x = inputs[0]
    return [(x > 0).astype(x.dtype)]


@out_kernel("step", alias_safe=True)
def _step_out(inputs, attrs, out):
    return np.greater(inputs[0], 0, out=out, casting="unsafe")


@kernel("equal")
def _equal(inputs, attrs):
    return [(inputs[0] == inputs[1]).astype(np.float32)]


@out_kernel("equal", alias_safe=True)
def _equal_out(inputs, attrs, out):
    return np.equal(inputs[0], inputs[1], out=out, casting="unsafe")


@kernel("range_mask")
def _range_mask(inputs, attrs):
    """One bit per element of ``y``: ``lo < y`` (``< hi`` when given),
    packed in numpy's default (big-endian) bit order, pad bits zero.

    There is no into-form: ``np.packbits`` has no ``out=``, and the forms
    that have one cost more than this call plus the plan's copy into the
    slot. The bool compare buffers (``y.size`` bytes each) are plain
    temporaries, dead on return, so nothing of them is resident when the
    backward pass starts (README "What the backward pass keeps").
    """
    y = inputs[0]
    inside = y > attrs["lo"]
    hi = attrs.get("hi")
    if hi is not None:
        inside &= y < hi
    return [np.packbits(inside)]


def mask_mul_into(g, mask, out):
    """``g`` times the unpacked bit ``mask``, into ``out`` (``None``: a
    fresh array; ``g`` itself: in place). The one body behind ``mask_mul``
    and ``conv2d_dx``'s mask epilogue."""
    # g * {0, 1}: the same float product as g * {0.0, 1.0} — numpy casts
    # the uint8 operand to g's dtype — so float16 stays float16.
    keep = np.unpackbits(mask, count=g.size).reshape(g.shape)
    return np.multiply(g, keep, out=out)


@kernel("mask_mul")
def _mask_mul(inputs, attrs):
    return [mask_mul_into(inputs[0], inputs[1], None)]


# ``out`` may be ``g``'s own buffer (a plain elementwise product once the
# mask is unpacked); never the mask's — a different shape and dtype, which
# is what the plan's same-form reuse rule already refuses.
@out_kernel("mask_mul", alias_safe=True)
def _mask_mul_out(inputs, attrs, out):
    return mask_mul_into(inputs[0], inputs[1], out)


@kernel("cast")
def _cast(inputs, attrs):
    return [inputs[0].astype(attrs["dtype"])]


@out_kernel("cast")
def _cast_out(inputs, attrs, out):
    np.copyto(out, inputs[0], casting="unsafe")
    return out


def epilogue(y: np.ndarray, bias: np.ndarray | None,
             activation: str | None) -> np.ndarray:
    """The fused ``+ bias`` / activation tail of conv2d and matmul.

    ``y`` is the caller's own fresh GEMM result, so the tail is written
    into that buffer: the ufuncs and operands of ``y + bias`` /
    ``np.maximum(y, 0)`` / ``np.clip(y, 0, 6)``, hence the same bytes, with
    one allocation and one pass fewer each. A bias of another dtype keeps
    the allocating form (the sum may be wider than ``y``).
    """
    if bias is not None:
        y = np.add(y, bias, out=y if bias.dtype == y.dtype else None)
    if activation in (None, "none"):
        return y
    if activation == "relu":
        return np.maximum(y, 0, out=y)
    if activation == "relu6":
        return np.clip(y, 0, 6, out=y)
    if activation == "gelu":
        return gelu_into(y, y)
    raise ValueError(f"unknown fused activation {activation!r}")


def epilogue_into(y: np.ndarray, bias: np.ndarray | None,
                  activation: str | None,
                  out: np.ndarray | None) -> np.ndarray:
    """:func:`epilogue` as the ending of an into-form: ``y`` is ``out``'s
    own buffer (``out`` or a view of it) and the result is left in ``out``
    — copied back when the tail could not work in place (a wider bias).
    ``out=None`` is the base kernel: the result itself."""
    z = epilogue(y, bias, activation)
    if out is None:
        return z
    if z is not y:
        np.copyto(out, z)
    return out


def gelu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU (the variant BERT uses), into ``out``.

    ``0.5*x * (1 + tanh(c * (x + 0.044715*x*x*x)))`` with one kernel
    scratch, every product in the textbook order. ``out`` is written only
    once the polynomial is done, so it may be ``x`` itself.
    """
    inner = workspace.take(x.shape, x.dtype)
    np.multiply(x, 0.044715, out=inner)
    inner *= x
    inner *= x
    inner += x
    # The float32 constant widens a float16 polynomial, exactly as the
    # textbook expression does; any other dtype stays in its buffer.
    wide = np.multiply(inner, _SQRT_2_OVER_PI,
                       out=None if x.dtype == np.float16 else inner)
    np.tanh(wide, out=wide)
    wide += 1.0
    np.multiply(x, 0.5, out=out)
    out *= wide
    return out


@kernel("gelu")
def _gelu(inputs, attrs):
    return [gelu_into(inputs[0], np.empty_like(inputs[0]))]


@out_kernel("gelu", alias_safe=True)
def _gelu_out(inputs, attrs, out):
    return gelu_into(inputs[0], out)


@kernel("relu")
def _relu(inputs, attrs):
    return [np.maximum(inputs[0], 0)]


@out_kernel("relu", alias_safe=True)
def _relu_out(inputs, attrs, out):
    return np.maximum(inputs[0], 0, out=out)


@kernel("relu6")
def _relu6(inputs, attrs):
    return [np.clip(inputs[0], 0, 6)]


@out_kernel("relu6", alias_safe=True)
def _relu6_out(inputs, attrs, out):
    return np.clip(inputs[0], 0, 6, out=out)


def _sigmoid_into(x: np.ndarray, out: np.ndarray,
                  e: np.ndarray | None = None) -> np.ndarray:
    # Branch-free stable sigmoid: e = exp(-|x|) lies in [0, 1] and never
    # overflows; the numerator is 1 where x >= 0 and e elsewhere, which is
    # max([x >= 0], e). Seven ufunc calls, no fancy indexing. ``e`` is
    # complete before ``out`` is first written and every later read of x is
    # the same-index read of an elementwise ufunc, so out may alias x.
    # ``e`` may be the caller's scratch of x's shape (None: a fresh array).
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=out, casting="unsafe")
    np.maximum(out, e, out=out)
    e += 1.0
    return np.true_divide(out, e, out=out)


@kernel("sigmoid")
def _sigmoid(inputs, attrs):
    x = inputs[0]
    return [_sigmoid_into(x, np.empty_like(x))]


@out_kernel("sigmoid", alias_safe=True)
def _sigmoid_out(inputs, attrs, out):
    return _sigmoid_into(inputs[0], out)


@kernel("tanh")
def _tanh(inputs, attrs):
    return [np.tanh(inputs[0])]


# silu(x) = x * sigmoid(x), the SwiGLU FFN's gate swiglu(g, u) =
# silu(g) * u, and the adjoints of silu and GELU. An adjoint reads the
# activation's *input*, so the forward keeps nothing else for it (the gate
# differentiates into silu_grad and swiglu, which read g and u), and it is
# one kernel: its intermediates are kernel scratch, gone when it
# returns, never values the scheduler could hoist into the forward or
# stack at the peak. Each computes the products
# and sums of the primitive chain it replaces (x * sigmoid(x) under the
# ``mul`` and ``sigmoid`` rules; GELU's textbook derivative), in the same
# grouping and with the same float32 constants, hence the same bytes; and
# each writes ``out`` only after its last read of ``x`` and of every
# scratch it cannot do without, so ``out`` may alias any input.

def _scratch(x: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """``count`` scratch arrays of ``x``'s shape and dtype: the rows of one
    scratch buffer, one ``take`` a kernel call."""
    block = workspace.take((count,) + x.shape, x.dtype)
    return tuple(block[i, ...] for i in range(count))


def _silu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    s, e = _scratch(x, 2)
    np.multiply(x, _sigmoid_into(x, s, e), out=out)
    return out


@kernel("silu")
def _silu(inputs, attrs):
    return [_silu_into(inputs[0], np.empty_like(inputs[0]))]


@out_kernel("silu", alias_safe=True)
def _silu_out(inputs, attrs, out):
    return _silu_into(inputs[0], out)


def _swiglu_into(gate: np.ndarray, up: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``silu(gate) * up``: ``_silu_into``'s ufuncs into its own sigmoid
    row, then ``mul``'s product. ``out`` is written once, last, so it may
    alias either input."""
    s, e = _scratch(gate, 2)
    np.multiply(gate, _sigmoid_into(gate, s, e), out=s)
    np.multiply(s, up, out=out)
    return out


@kernel("swiglu")
def _swiglu(inputs, attrs):
    gate, up = inputs
    return [_swiglu_into(gate, up, np.empty(
        np.broadcast_shapes(gate.shape, up.shape),
        np.result_type(gate, up)))]


@out_kernel("swiglu", alias_safe=True)
def _swiglu_out(inputs, attrs, out):
    return _swiglu_into(*inputs, out)


def _silu_grad_into(g: np.ndarray, x: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """``g·s + (g·x)·(s·(1−s))`` with ``s = sigmoid(x)``: the ``mul``
    rule's two products and the ``sigmoid`` rule's chain, summed."""
    s, gx, ds = _scratch(x, 3)
    _sigmoid_into(x, s, gx)  # gx is the sigmoid's scratch until g·x
    np.multiply(g, x, out=gx)
    np.subtract(1.0, s, out=ds)
    np.multiply(s, ds, out=ds)
    np.multiply(gx, ds, out=gx)
    np.multiply(g, s, out=out)
    np.add(out, gx, out=out)
    return out


@kernel("silu_grad")
def _silu_grad(inputs, attrs):
    return [_silu_grad_into(*inputs, np.empty_like(inputs[1]))]


@out_kernel("silu_grad", alias_safe=True)
def _silu_grad_out(inputs, attrs, out):
    return _silu_grad_into(*inputs, out)


_GELU_B = np.float32(0.044715)
_GELU_3B = np.float32(3 * 0.044715)


def _gelu_grad_into(g: np.ndarray, x: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """``g·(left + right)``: GELU's derivative as the textbook chain
    ``x2, x3, inner, t = tanh(inner), 1+t, 1−t², dinner, left =
    0.5·(1+t), right = ((0.5·x)·(1−t²))·dinner``."""
    c, half, one = _SQRT_2_OVER_PI, np.float32(0.5), np.float32(1.0)
    x2, t, sech2, right = _scratch(x, 4)
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=t)                       # x3
    np.multiply(_GELU_B, t, out=t)
    np.add(x, t, out=t)
    np.multiply(c, t, out=t)                        # inner
    np.tanh(t, out=t)
    np.multiply(t, t, out=sech2)
    np.subtract(one, sech2, out=sech2)
    np.multiply(half, x, out=right)
    np.multiply(right, sech2, out=right)
    np.add(one, t, out=t)
    np.multiply(half, t, out=t)                     # left
    np.multiply(_GELU_3B, x2, out=x2)
    np.add(one, x2, out=x2)
    np.multiply(c, x2, out=x2)                      # dinner
    np.multiply(right, x2, out=right)
    np.add(t, right, out=t)
    np.multiply(g, t, out=out)
    return out


@kernel("gelu_grad")
def _gelu_grad(inputs, attrs):
    return [_gelu_grad_into(*inputs, np.empty_like(inputs[1]))]


@out_kernel("gelu_grad", alias_safe=True)
def _gelu_grad_out(inputs, attrs, out):
    return _gelu_grad_into(*inputs, out)
