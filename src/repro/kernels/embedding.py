"""Embedding lookup and its scatter-add gradient; ``pick``, one element
per row along the last axis, and its scatter."""

from __future__ import annotations

import numpy as np

from . import kernel, out_kernel


@kernel("embedding")
def _embedding(inputs, attrs):
    table, ids = inputs
    return [table[ids]]


@out_kernel("embedding")
def _embedding_out(inputs, attrs, out):
    table, ids = inputs
    return table.take(ids, axis=0, out=out)


@kernel("embedding_grad")
def _embedding_grad(inputs, attrs):
    ids, grad = inputs
    rows = int(attrs["num_rows"])
    dim = grad.shape[-1]
    out = np.zeros((rows, dim), dtype=grad.dtype)
    np.add.at(out, ids.ravel(), grad.reshape(-1, dim))
    return [out]


def label_index(ids: np.ndarray, depth: int) -> np.ndarray:
    """Flat positions of ``ids`` along the last axis of a C-ordered
    ``ids.shape + (depth,)`` tensor. An id outside ``[0, depth)`` raises
    :class:`IndexError` — a negative one too, which numpy's indexing would
    wrap to a class counted from the end (read as unsigned, it is huge)."""
    unsigned = ids.view(ids.dtype.str.replace("i", "u"))
    if ids.size and np.maximum.reduce(unsigned, axis=None) >= depth:
        raise IndexError(f"class id out of range [0, {depth})")
    return np.arange(0, ids.size * depth, depth) + ids.reshape(-1)


def _pick_into(inputs, attrs, out):
    x, ids = inputs
    # in range by now: "clip" spares take's buffered bounds check
    np.take(x.reshape(-1), label_index(ids, x.shape[-1]),
            out=out.reshape(-1), mode="clip")
    return out


@kernel("pick")
def _pick(inputs, attrs):
    return [_pick_into(inputs, attrs, np.empty(inputs[1].shape,
                                                inputs[0].dtype))]


out_kernel("pick")(_pick_into)


def _pick_grad_into(inputs, attrs, out):
    # ``g`` times a one-hot row, byte for byte: ``g * 0`` off the label
    # (a zero carrying ``g``'s sign), ``g`` at it.
    g, ids = inputs
    np.multiply(g[..., None], 0.0, out=out)
    np.put(out, label_index(ids, out.shape[-1]), g, mode="clip")
    return out


@kernel("pick_grad")
def _pick_grad(inputs, attrs):
    g = inputs[0]
    out = np.empty(g.shape + (int(attrs["depth"]),), g.dtype)
    return [_pick_grad_into(inputs, attrs, out)]


out_kernel("pick_grad")(_pick_grad_into)
