"""Reduction kernels.

The rule for this module and :mod:`.norm`: every kernel is a fixed ufunc
sequence that threads one result buffer (plus at most one scratch) through
``out=``, with the ufuncs and operand order of the textbook numpy
expression — so the result is bitwise-equal to ``x.sum`` / ``x.mean`` /
``x.var``, minus their Python-level wrappers (``numpy._core._methods``)
and temporaries. At the transformer's tensor sizes (a few thousand
elements) a numpy call costs 1-3 us whatever it computes, so calls, not
FLOPs, are what these kernels spend.
"""

from __future__ import annotations

import numpy as np

from . import int_tuple, kernel, out_emitter, out_kernel


def _axes(attrs, ndim: int):
    axes = attrs.get("axes")
    if axes is None:
        return tuple(range(ndim))
    return tuple(int(a) for a in axes)


def mean(x: np.ndarray, axes: tuple[int, ...], keepdims: bool,
         out: np.ndarray | None = None):
    """``x.mean(axes, keepdims=keepdims)`` without ``np.mean``'s wrapper.

    Same sum, then one divide in place. The divisor is a Python int, so the
    division runs in the sum's own dtype instead of ``np.mean``'s float64
    round trip: the same bits while the count is exact there (below 2**24
    in float32). float16 sums and divides in float32 and rounds once at the
    end — ``np.mean``'s default rule — so its count is never rounded.
    ``out`` receives the result when given (the into-form).
    """
    half = x.dtype == np.float16
    total = np.add.reduce(x, axis=axes, keepdims=keepdims,
                          dtype=np.float32 if half else None,
                          out=None if half else out)
    count = x.size // (total.size or 1)
    if isinstance(total, np.ndarray):
        np.true_divide(total, count, out=total)
    else:  # full reduction: add.reduce returned a scalar
        total = total / count
    if not half:
        return total
    if out is None:
        return total.astype(np.float16)
    np.copyto(out, total, casting="same_kind")
    return out


@kernel("reduce_sum")
def _reduce_sum(inputs, attrs):
    x = inputs[0]
    return [np.add.reduce(x, axis=_axes(attrs, x.ndim), dtype=x.dtype,
                          keepdims=bool(attrs.get("keepdims", False)))]


@out_kernel("reduce_sum")
def _reduce_sum_out(inputs, attrs, out):
    x = inputs[0]
    return np.add.reduce(x, axis=_axes(attrs, x.ndim), dtype=x.dtype,
                         keepdims=bool(attrs.get("keepdims", False)),
                         out=out)


@out_emitter("reduce_sum")
def _emit_reduce_sum_out(args, attrs, out):
    # axis=None is every axis, as _axes spells it out for a missing attr
    axes = attrs.get("axes")
    return (f"np.add.reduce({args[0]}, "
            f"axis={None if axes is None else int_tuple(axes)}, "
            f"dtype={args[0]}.dtype, "
            f"keepdims={bool(attrs.get('keepdims', False))}, out={out})")


@kernel("reduce_mean")
def _reduce_mean(inputs, attrs):
    x = inputs[0]
    return [mean(x, _axes(attrs, x.ndim),
                 bool(attrs.get("keepdims", False)))]


@out_kernel("reduce_mean")
def _reduce_mean_out(inputs, attrs, out):
    x = inputs[0]
    return mean(x, _axes(attrs, x.ndim),
                bool(attrs.get("keepdims", False)), out)


@kernel("reduce_max")
def _reduce_max(inputs, attrs):
    x = inputs[0]
    return [x.max(axis=_axes(attrs, x.ndim),
                  keepdims=bool(attrs.get("keepdims", False)))]
