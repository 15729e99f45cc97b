"""Kernel scratch: the one place kernels allocate internal buffers.

Kernels like conv2d need large internal scratch (the unfolded im2col
column matrix, the padded input) that the graph-level accounting never
sees: the buffers are born and die inside one kernel call. Every such
buffer comes from :func:`take`, a fresh ``np.empty`` on either backend —
nothing is pooled between calls or steps, so tracemalloc sees all of it.
(Intermediates *between* kernels live in the plan's static slab,
:mod:`repro.runtime.plan`.)

The single entry point exists so tests can hand kernels poisoned (NaN
filled) scratch or count its calls: a kernel must write every scratch
element before reading it.
"""

from __future__ import annotations

import numpy as np


def take(shape, dtype) -> np.ndarray:
    """An uninitialised scratch buffer of exactly ``shape``/``dtype``; the
    caller MUST write every element before reading any."""
    return np.empty(shape, dtype)
