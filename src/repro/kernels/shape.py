"""Shape-manipulation kernels: reshape, transpose, slice, concat, pad —
and the layout facts the plan's static slab is computed from
(:func:`c_strides`, :func:`is_c_contiguous`, :func:`normal_strides`,
:func:`view_layout`)."""

from __future__ import annotations

import functools

import numpy as np

from . import KERNELS, int_tuple, kernel, out_emitter, out_kernel


@functools.cache  # a handful of shapes, asked thousands of times
def c_strides(shape: tuple[int, ...], itemsize: int) -> tuple[int, ...]:
    """Byte strides of a C-contiguous array of ``shape``."""
    strides = []
    step = itemsize
    for dim in reversed(shape):
        strides.append(step)
        step *= dim
    return tuple(reversed(strides))


def is_c_contiguous(shape: tuple[int, ...], strides: tuple[int, ...],
                    itemsize: int) -> bool:
    """numpy's ``flags.c_contiguous`` for ``(shape, strides)``: the strides
    of size-1 dimensions do not count, an empty array is contiguous."""
    step = itemsize
    for dim, stride in zip(reversed(shape), reversed(strides)):
        if dim == 0:
            return True
        if dim != 1:
            if stride != step:
                return False
            step *= dim
    return True


def normal_strides(shape: tuple[int, ...], strides: tuple[int, ...],
                   itemsize: int) -> tuple[int, ...]:
    """``strides`` with those of length-1 axes set to what C order would
    give them. Such an axis addresses nothing, numpy fills its stride in as
    it pleases, and a layout is declared in one place and checked in
    another — so both sides compare this form (a non-empty array is
    C-contiguous exactly when it maps to :func:`c_strides`)."""
    normal = []
    step = itemsize
    for dim, stride in zip(reversed(shape), reversed(strides)):
        if dim != 1:
            step = stride
        normal.append(step)
        step *= dim
    return tuple(reversed(normal))


@functools.lru_cache(maxsize=8192)
def view_layout(op: str, attrs: tuple, shape: tuple[int, ...],
                strides: tuple[int, ...], dtype: str
                ) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """What view kernel ``op`` makes of an input laid out ``(shape,
    strides)``: ``(byte offset, shape, strides)`` of the view it returns,
    relative to the input's first element, or ``None`` when it copies.

    numpy's own answer, not a re-derivation of its no-copy rules: the
    kernel runs once on a scratch array of that layout and the result is
    checked for shared memory. ``attrs`` is :meth:`Node.attr_key`. The
    answer depends on nothing else, so it is memoized.
    """
    itemsize = np.dtype(dtype).itemsize
    extent = itemsize + sum((dim - 1) * stride
                            for dim, stride in zip(shape, strides)) \
        if all(shape) else 0
    scratch = np.empty(max(extent, itemsize), np.uint8)
    x = np.ndarray(shape, dtype, scratch, 0, strides)
    y = KERNELS[op]([x], dict(attrs))[0]
    if not np.shares_memory(x, y):
        return None
    offset = y.__array_interface__["data"][0] \
        - x.__array_interface__["data"][0]
    return offset, y.shape, y.strides


# The into-forms of the view kernels are the copies the plan needs when a
# view is not allowed to stay one (its source is mutable state) or numpy
# cannot make one: the same elements in C order, as ``.copy()`` of the
# view / the copying reshape would lay them out.

@kernel("reshape", view=True)
def _reshape(inputs, attrs):
    return [inputs[0].reshape(tuple(attrs["shape"]))]


@out_kernel("reshape")
def _reshape_out(inputs, attrs, out):
    x = inputs[0]
    np.copyto(out.reshape(x.shape), x)
    return out


@out_emitter("reshape")
def _emit_reshape_out(args, attrs, out):
    return f"np.copyto({out}.reshape({args[0]}.shape), {args[0]})"


@kernel("transpose", view=True)
def _transpose(inputs, attrs):
    return [np.transpose(inputs[0], tuple(attrs["perm"]))]


@out_kernel("transpose")
def _transpose_out(inputs, attrs, out):
    np.copyto(out, np.transpose(inputs[0], tuple(attrs["perm"])))
    return out


@out_emitter("transpose")
def _emit_transpose_out(args, attrs, out):
    return (f"np.copyto({out}, "
            f"{args[0]}.transpose({int_tuple(attrs['perm'])}))")


# view=True: ascontiguousarray returns the sliced view itself whenever the
# slice happens to be contiguous.
@kernel("slice", view=True)
def _slice(inputs, attrs):
    x = inputs[0]
    axis, start, end = attrs["axis"], attrs["start"], attrs["end"]
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, end)
    return [np.ascontiguousarray(x[tuple(index)])]


@out_kernel("slice")
def _slice_out(inputs, attrs, out):
    x = inputs[0]
    index = [slice(None)] * x.ndim
    index[attrs["axis"]] = slice(attrs["start"], attrs["end"])
    np.copyto(out, x[tuple(index)])
    return out


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


@out_kernel("broadcast_to")
def _broadcast_to_out(inputs, attrs, out):
    np.copyto(out, inputs[0])  # copyto broadcasts its source
    return out
