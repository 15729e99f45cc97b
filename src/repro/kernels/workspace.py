"""Kernel scratch workspaces: arena-recycled im2col/pad buffers.

Kernels like conv2d allocate large internal scratch (the unfolded im2col
column matrix, the padded input) that the graph-level accounting never
sees: the buffers are born and die inside one kernel call. Under the plan
executor those allocations repeat with identical shapes every step, so
they are perfect pool fodder — this module lets kernels borrow scratch
from the *executor's* :class:`BufferArena` without changing the kernel
calling convention. (Intermediates *between* kernels need no pool: the
plan places them in a static slab, :mod:`repro.runtime.plan`.)

Mechanics:

* the executor installs a workspace arena for the duration of a plan run
  (:func:`set_arena`; thread-local, so concurrent sessions on scheduler
  threads never share scratch);
* kernels call :func:`take` for scratch and :func:`give` it back once the
  consuming computation is done. With no arena installed (interpreter
  backend, direct kernel calls in tests) both degrade to plain
  ``np.empty`` / no-op, keeping the interpreter a pure oracle.

Safety rules (the givers are audited, not the pool):

* a taken buffer must be **fully overwritten** before use — recycled
  memory carries the previous step's bytes;
* :func:`give` only after the last read of the buffer *and* of every view
  into it, and only for buffers that cannot have escaped the kernel;
* pooled buffers are capped at :data:`POOL_MAX_BYTES` (the same 16MB
  bound conv2d's grouped-chunking enforces for scratch), so the workspace
  can never retain more than a step's bounded scratch footprint.

Results stay bitwise identical: scratch content is fully determined
before use and recycled buffers share shape/dtype/layout with the fresh
allocation they replace, so every downstream BLAS call sees identical
inputs in identical memory order.
"""

from __future__ import annotations

import threading

import numpy as np

#: never pool a single scratch buffer larger than this (matches the
#: grouped-conv scratch chunking bound in :mod:`repro.kernels.conv2d`)
POOL_MAX_BYTES = 16 << 20

_tls = threading.local()


class BufferArena:
    """Free-lists of recycled scratch buffers, one per (shape, dtype).

    One per executor, installed for the duration of a plan run. Pool size
    is bounded by the kernels' own take/give discipline plus
    :data:`POOL_MAX_BYTES` per buffer.
    """

    __slots__ = ("_pools", "takes", "misses")

    def __init__(self) -> None:
        self._pools: dict[tuple, list[np.ndarray]] = {}
        self.takes = 0
        self.misses = 0

    def take(self, key: tuple) -> np.ndarray | None:
        pool = self._pools.get(key)
        if pool:
            self.takes += 1
            return pool.pop()
        self.misses += 1
        return None

    def give(self, key: tuple, array: np.ndarray) -> None:
        self._pools.setdefault(key, []).append(array)

    def buffers(self) -> list[np.ndarray]:
        """Snapshot of every pooled buffer (for safety checks/tests)."""
        return [a for pool in self._pools.values() for a in pool]

    def retained_bytes(self) -> int:
        return sum(a.nbytes for a in self.buffers())


def set_arena(arena):
    """Install ``arena`` as this thread's workspace; returns the previous
    one so callers can restore it (executor run scopes nest safely)."""
    previous = getattr(_tls, "arena", None)
    _tls.arena = arena
    return previous


def current_arena():
    return getattr(_tls, "arena", None)


def take(shape, dtype) -> np.ndarray:
    """Borrow an uninitialised scratch buffer of exactly ``shape``/``dtype``.

    Recycles from the installed arena when possible; the caller MUST write
    every element before reading any.
    """
    shape = tuple(shape)
    arena = getattr(_tls, "arena", None)
    if arena is None:
        return np.empty(shape, dtype)
    buffer = arena.take((shape, np.dtype(dtype)))
    if buffer is None:
        buffer = np.empty(shape, dtype)
    return buffer


def give(array: np.ndarray) -> None:
    """Return a buffer taken via :func:`take` (or any view of it).

    Resolves views back to their owning allocation so callers can hand
    back the reshaped column matrix they actually used. No-op without an
    arena, for foreign/non-contiguous memory, or past the size cap —
    forgetting to give is always safe, it just skips recycling.
    """
    arena = getattr(_tls, "arena", None)
    if arena is None:
        return
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    if not base.flags.c_contiguous or not base.flags.owndata:
        return
    if base.nbytes > POOL_MAX_BYTES:
        return
    arena.give((base.shape, base.dtype), base)
