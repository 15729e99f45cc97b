"""Elementwise kernels: arithmetic, activations, comparisons, casts."""

from __future__ import annotations

import numpy as np

from . import kernel, out_emitter, out_kernel

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
    temporaries, dead on return: pooling them as workspace scratch costs
    more per call than allocating them, and would keep resident what is
    now gone before the backward pass starts (README "What the backward
    pass keeps").
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
        return gelu(y)
    raise ValueError(f"unknown fused activation {activation!r}")


def epilogue_into(y: np.ndarray, bias: np.ndarray | None,
                  activation: str | None,
                  out: np.ndarray | None) -> np.ndarray:
    """:func:`epilogue` as the ending of an into-form: ``y`` is ``out``'s
    own buffer (``out`` or a view of it) and the result is left in ``out``
    — copied back when the tail could not work in place (gelu, a wider
    bias). ``out=None`` is the base kernel: the result itself."""
    z = epilogue(y, bias, activation)
    if out is None:
        return z
    if z is not y:
        np.copyto(out, z)
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU (the variant BERT uses).

    ``0.5*x * (1 + tanh(c * (x + 0.044715*x*x*x)))`` as one result buffer
    and one scratch, every product in the textbook order.
    """
    inner = np.multiply(x, 0.044715)
    inner *= x
    inner *= x
    inner += x
    # The float32 constant widens a float16 polynomial, exactly as the
    # textbook expression does; any other dtype stays in its buffer.
    inner = np.multiply(inner, _SQRT_2_OVER_PI,
                        out=None if x.dtype == np.float16 else inner)
    np.tanh(inner, out=inner)
    inner += 1.0
    out = np.multiply(x, 0.5)
    out *= inner
    return out


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


@kernel("gelu")
def _gelu(inputs, attrs):
    return [gelu(inputs[0])]


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Branch-free stable sigmoid: e = exp(-|x|) lies in [0, 1] and never
    # overflows; the numerator is 1 where x >= 0 and e elsewhere, which is
    # max([x >= 0], e). Seven ufunc calls, no fancy indexing. ``e`` is
    # complete before ``out`` is first written and every later read of x is
    # the same-index read of an elementwise ufunc, so out may alias x.
    e = np.abs(x)
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
