"""Embedding lookup, its scatter-add gradient, and one-hot encoding."""

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


@kernel("onehot")
def _onehot(inputs, attrs):
    (ids,) = inputs
    depth = int(attrs["depth"])
    # One indexed store into zeros: O(ids * depth), where indexing an
    # identity matrix was O(depth^2) per call. Same IndexError on an
    # out-of-range id and the same wrap of a negative one.
    out = np.zeros(ids.shape + (depth,), dtype=np.float32)
    out.reshape(-1, depth)[np.arange(ids.size), ids.reshape(-1)] = 1.0
    return [out]
