"""Shape-manipulation kernels: reshape, transpose, slice, concat, pad."""

from __future__ import annotations

import numpy as np

from . import emitter, int_tuple, kernel


@kernel("reshape", view=True)
def _reshape(inputs, attrs):
    return [inputs[0].reshape(tuple(attrs["shape"]))]


@emitter("reshape")
def _emit_reshape(args, attrs):
    return f"{args[0]}.reshape({int_tuple(attrs['shape'])})"


@kernel("transpose", view=True)
def _transpose(inputs, attrs):
    return [np.transpose(inputs[0], tuple(attrs["perm"]))]


@emitter("transpose")
def _emit_transpose(args, attrs):
    return f"{args[0]}.transpose({int_tuple(attrs['perm'])})"


# view=True: ascontiguousarray returns the sliced view itself whenever the
# slice happens to be contiguous.
@kernel("slice", view=True)
def _slice(inputs, attrs):
    x = inputs[0]
    axis, start, end = attrs["axis"], attrs["start"], attrs["end"]
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, end)
    return [np.ascontiguousarray(x[tuple(index)])]


@kernel("concat")
def _concat(inputs, attrs):
    return [np.concatenate(inputs, axis=attrs["axis"])]


@kernel("pad")
def _pad(inputs, attrs):
    pads = [tuple(p) for p in attrs["pads"]]
    return [np.pad(inputs[0], pads)]


@kernel("broadcast_to")
def _broadcast_to(inputs, attrs):
    return [np.broadcast_to(inputs[0], tuple(attrs["shape"])).copy()]
