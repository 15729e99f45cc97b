"""Pooling kernels and their gradients."""

from __future__ import annotations

import numpy as np

from . import kernel, out_kernel
from .conv2d import _pair, col2im, im2col
from .reduce import mean


def _windows(x: np.ndarray, attrs) -> tuple[np.ndarray, int, int, tuple]:
    kh, kw = _pair(attrs["kernel"])
    sh, sw = _pair(attrs.get("stride", attrs["kernel"]))
    ph, pw = _pair(attrs.get("padding", 0))
    n, c, _, _ = x.shape
    cols, ho, wo = im2col(x, kh, kw, sh, sw, ph, pw)
    # [N, C, kh*kw, Ho*Wo]
    cols = cols.reshape(n, c, kh * kw, ho * wo)
    return cols, ho, wo, (kh, kw, sh, sw, ph, pw)


@kernel("maxpool2d")
def _maxpool2d(inputs, attrs):
    x = inputs[0]
    cols, ho, wo, _ = _windows(x, attrs)
    return [cols.max(axis=2).reshape(x.shape[0], x.shape[1], ho, wo)]


@kernel("maxpool2d_grad")
def _maxpool2d_grad(inputs, attrs):
    x, grad = inputs
    cols, ho, wo, (kh, kw, sh, sw, ph, pw) = _windows(x, attrs)
    n, c = x.shape[0], x.shape[1]
    flat = cols.reshape(n * c, kh * kw, ho * wo)
    winner = flat.argmax(axis=1)  # ties -> first max, matching autograd
    dcols = np.zeros_like(flat)
    rows = np.arange(n * c)[:, None]
    positions = np.arange(ho * wo)[None, :]
    dcols[rows, winner, positions] = grad.reshape(n * c, ho * wo)
    dcols = dcols.reshape(n, c * kh * kw, ho * wo)
    return [col2im(dcols, x.shape, kh, kw, sh, sw, ph, pw)]


@kernel("avgpool2d")
def _avgpool2d(inputs, attrs):
    x = inputs[0]
    cols, ho, wo, _ = _windows(x, attrs)
    return [cols.mean(axis=2).reshape(x.shape[0], x.shape[1], ho, wo)]


@kernel("avgpool2d_grad")
def _avgpool2d_grad(inputs, attrs):
    (grad,) = inputs
    in_shape = tuple(int(d) for d in attrs["input_shape"])
    kh, kw = _pair(attrs["kernel"])
    sh, sw = _pair(attrs.get("stride", attrs["kernel"]))
    ph, pw = _pair(attrs.get("padding", 0))
    n, c = in_shape[0], in_shape[1]
    ho, wo = grad.shape[2], grad.shape[3]
    share = (grad / (kh * kw)).reshape(n, c, 1, ho * wo)
    dcols = np.broadcast_to(share, (n, c, kh * kw, ho * wo))
    dcols = dcols.reshape(n, c * kh * kw, ho * wo)
    return [col2im(dcols, in_shape, kh, kw, sh, sw, ph, pw)]


@kernel("global_avg_pool")
def _global_avg_pool(inputs, attrs):
    x = inputs[0]
    return [x.mean(axis=(2, 3), dtype=x.dtype)]


@out_kernel("global_avg_pool")
def _global_avg_pool_out(inputs, attrs, out):
    """The sum into ``out`` and one divide in place (:func:`.reduce.mean`):
    ``np.mean``'s bits without its wrapper, for float32 / float64. Other
    dtypes keep ``np.mean``, whose explicit ``dtype=`` sums float16 in half
    precision and truncates an integer quotient — ``mean`` does neither."""
    x = inputs[0]
    if x.dtype.char in "fd":
        return mean(x, (2, 3), False, out)
    return x.mean(axis=(2, 3), dtype=x.dtype, out=out)
