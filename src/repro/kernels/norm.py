"""Normalization and softmax kernels (numerically stable), and the
adjoint of ``log_softmax``.

Same rule as :mod:`.reduce`: one result buffer, at most one scratch,
ufuncs in the order of the textbook expression, so each kernel is
bitwise-equal to that expression (``x.mean`` / ``x.var`` included) when
``gamma`` / ``beta`` share ``x``'s dtype. Two deliberate departures, both
off the float32 path: a wider scale or shift is rounded into ``x``'s dtype
after each op rather than once at the end, and a float16 layernorm takes
its variance around the float32-accumulated mean (``np.var`` would re-sum
the mean in float16).
"""

from __future__ import annotations

import numpy as np

from . import kernel, out_kernel
from .embedding import label_index
from .reduce import mean


# Each kernel below is its into-form run on a fresh buffer laid out like
# ``x`` (what the first ufunc would have allocated), so the two cannot
# drift apart.

def _softmax_into(inputs, attrs, out):
    x = inputs[0]
    axis = int(attrs.get("axis", -1))
    np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    return np.true_divide(out, np.add.reduce(out, axis=axis, keepdims=True),
                          out=out)


@kernel("softmax")
def _softmax(inputs, attrs):
    return [_softmax_into(inputs, attrs, np.empty_like(inputs[0]))]


out_kernel("softmax")(_softmax_into)


def _log_softmax_into(inputs, attrs, out):
    x = inputs[0]
    axis = int(attrs.get("axis", -1))
    np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    logsum = np.add.reduce(np.exp(out), axis=axis, keepdims=True)
    np.log(logsum, out=logsum)
    out -= logsum
    return out


@kernel("log_softmax")
def _log_softmax(inputs, attrs):
    return [_log_softmax_into(inputs, attrs, np.empty_like(inputs[0]))]


out_kernel("log_softmax")(_log_softmax_into)


def _log_softmax_grad_into(inputs, attrs, out):
    """``g - softmax(x) * rowsum(g)``, the ufuncs of the composite it
    replaces (``softmax``, ``reduce_sum``, ``mul``, ``sub``) in their order.

    With ``ids``, ``g`` holds one gradient per row, standing for the
    tensor that is ``g`` at the row's id and ``g * 0`` elsewhere
    (``pick_grad``'s scatter), which is never built: its row sum is
    ``g + 0`` (numpy's sum starts from +0, so ``-0`` sums to ``+0``), off
    the id ``g * 0 - t`` is computed as such, and at the id
    ``(g * 0 - t) + g`` equals ``g - t`` for every finite ``g`` and ``t``
    (``g * 0 - t`` is ``-t`` exactly unless ``t`` is a zero, and then the
    sum is ``g`` or a zero of the right sign). Byte for byte the composite,
    without the ``[..., depth]`` gradient it reads.
    """
    g, x = inputs[0], inputs[1]
    _softmax_into([x], attrs, out)
    if len(inputs) == 2:
        axis = int(attrs.get("axis", -1))
        np.multiply(out, np.add.reduce(g, axis=axis, keepdims=True,
                                       dtype=g.dtype), out=out)
        return np.subtract(g, out, out=out)
    labels = label_index(inputs[2], x.shape[-1])
    rows = g[..., None]
    np.multiply(out, rows + 0.0, out=out)
    np.subtract(rows * 0.0, out, out=out)
    line = out.reshape(-1)
    line[labels] += g.reshape(-1)
    return out


@kernel("log_softmax_grad")
def _log_softmax_grad(inputs, attrs):
    return [_log_softmax_grad_into(inputs, attrs,
                                   np.empty_like(inputs[1],
                                                 dtype=inputs[0].dtype))]


out_kernel("log_softmax_grad")(_log_softmax_grad_into)


def _layernorm_into(inputs, attrs, out):
    x, gamma, beta = inputs
    eps = float(attrs.get("eps", 1e-5))
    np.subtract(x, mean(x, (-1,), True), out=out)
    var = mean(np.square(out), (-1,), True)
    var += eps
    np.sqrt(var, out=var)
    out /= var
    out *= gamma
    out += beta
    return out


@kernel("layernorm")
def _layernorm(inputs, attrs):
    return [_layernorm_into(inputs, attrs, np.empty_like(inputs[0]))]


out_kernel("layernorm")(_layernorm_into)


def _rmsnorm_into(inputs, attrs, out):
    x, gamma = inputs
    eps = float(attrs.get("eps", 1e-6))
    np.multiply(x, x, out=out)
    ms = mean(out, (-1,), True)
    ms += eps
    np.sqrt(ms, out=ms)
    np.true_divide(x, ms, out=out)
    out *= gamma
    return out


@kernel("rmsnorm")
def _rmsnorm(inputs, attrs):
    return [_rmsnorm_into(inputs, attrs, np.empty_like(inputs[0]))]


out_kernel("rmsnorm")(_rmsnorm_into)
