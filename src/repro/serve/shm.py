"""A shared-memory slab ring: zero-copy batches/overlays for step workers.

Pickling the state overlay + batch into every ``pool.submit`` and the
updated overlay back would copy every tensor four times per step
(pickle-out, pipe, unpickle, and again for the result). The process
backend instead moves them through a fixed ring of reusable slots in one
``multiprocessing.shared_memory`` segment:

* the parent leases a slot, writes one wire frame
  (:func:`repro.serve.wire.encode_into` — state overlay + stacked batch,
  each tensor copied exactly once) into it, and submits only the
  ``(ring name, slot index)`` coordinates through the pool;
* the worker attaches the segment once per process (cached), decodes
  **writable views** into the slot, runs the step mutating the state
  overlay *in place* in shared memory, and returns only a tiny pickled
  stub (fetched scalars + observability payload);
* the parent copies the updated overlay views back into the session
  arrays and releases the slot for reuse. Slabs are recycled — steady
  state allocates nothing.

Torn writes are impossible to hand to a reader: every slot carries a
little-endian ``(seq, length)`` header, and writers bump ``seq`` to an
odd value before touching payload bytes and to a fresh even value after
(:func:`begin_write` / :func:`commit_write`). A reader that observes an
odd or changed ``seq`` raises :class:`ServeError` instead of decoding
garbage — relevant when a worker was SIGKILLed mid-step and the slot is
being salvaged. Cross-process ordering is otherwise provided by the
pool's own result pipe: the worker's return happens-after its last shm
write, so the parent never polls.

Python 3.11's ``SharedMemory`` has no ``track=False``; attaching
registers the segment with the attacher's resource tracker, which can
unlink the parent's live segment when the attaching process exits (or,
with the inherited tracker, strip the parent's own registration via
unregister). :func:`attach` suppresses registration for the attach call
instead — the creating parent stays the sole owner of the segment's
lifetime.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import deque
from multiprocessing import resource_tracker, shared_memory

from ..errors import ServeError
from . import wire

_SLOT_HEADER = struct.Struct("<QQ")  # (sequence counter, frame length)

#: the slot header occupies a full cache line so every frame starts
#: 64-byte aligned in the (page-aligned) segment — wire frames then place
#: each tensor segment on a 64-byte boundary in memory, keeping numpy's
#: ALIGNED flag (and therefore kernel selection, and therefore bit-exact
#: results) identical to freshly allocated arrays
_SLOT_HEADER_SPAN = 64


def slot_span(slot_bytes: int) -> int:
    """Total bytes one slot occupies in the segment (header + payload)."""
    payload = (int(slot_bytes) + _SLOT_HEADER_SPAN - 1) \
        // _SLOT_HEADER_SPAN * _SLOT_HEADER_SPAN
    return _SLOT_HEADER_SPAN + payload


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    Counterpart of the parent's ``SharedMemory(create=True)``; safe to
    call from pool workers — the resource tracker workaround keeps a
    worker exit (or kill) from unlinking the parent's segment.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _slot_view(buf, slot: int, slot_bytes: int) -> memoryview:
    start = slot * slot_span(slot_bytes)
    return memoryview(buf)[start:start + slot_span(slot_bytes)]


def begin_write(buf, slot: int, slot_bytes: int) -> memoryview:
    """Mark ``slot`` as being written; return its payload view."""
    view = _slot_view(buf, slot, slot_bytes)
    seq, _ = _SLOT_HEADER.unpack_from(view, 0)
    writing = seq + 1 + (seq % 2)  # next odd value strictly above seq
    _SLOT_HEADER.pack_into(view, 0, writing, 0)
    return view[_SLOT_HEADER_SPAN:]


def commit_write(buf, slot: int, slot_bytes: int, length: int) -> int:
    """Publish ``length`` payload bytes; returns the new (even) seq."""
    view = _slot_view(buf, slot, slot_bytes)
    seq, _ = _SLOT_HEADER.unpack_from(view, 0)
    if seq % 2 == 0:
        raise ServeError(
            f"shm slot {slot} committed without begin_write (seq={seq})")
    _SLOT_HEADER.pack_into(view, 0, seq + 1, int(length))
    return seq + 1


def mark_busy(buf, slot: int, slot_bytes: int) -> None:
    """Flip ``slot`` to an odd seq while its payload is being mutated.

    Workers wrap their in-place step between :func:`mark_busy` and
    :func:`mark_done` — a parent that inspects the slot after a worker
    crash sees a torn marker instead of a half-applied overlay. Unlike
    :func:`begin_write`, the committed frame length is preserved.
    """
    view = _slot_view(buf, slot, slot_bytes)
    seq, length = _SLOT_HEADER.unpack_from(view, 0)
    _SLOT_HEADER.pack_into(view, 0, seq + 1 + (seq % 2), length)


def mark_done(buf, slot: int, slot_bytes: int) -> None:
    """Flip ``slot`` back to an even seq after an in-place mutation."""
    view = _slot_view(buf, slot, slot_bytes)
    seq, length = _SLOT_HEADER.unpack_from(view, 0)
    if seq % 2:
        _SLOT_HEADER.pack_into(view, 0, seq + 1, length)


def read_frame(buf, slot: int, slot_bytes: int, *, copy: bool = False):
    """Decode the frame in ``slot``; torn/garbled slots raise cleanly.

    Returns ``(meta, tensors, seq)``. With ``copy=False`` the tensors
    view shared memory directly — writable, so a worker's in-place
    kernel updates land in the parent's segment with no return pickle.
    """
    view = _slot_view(buf, slot, slot_bytes)
    seq, length = _SLOT_HEADER.unpack_from(view, 0)
    if seq % 2:
        raise ServeError(
            f"shm slot {slot} is mid-write (seq={seq}); refusing to read "
            f"a torn frame")
    if length > slot_bytes:
        raise ServeError(
            f"shm slot {slot} claims {length} bytes in a {slot_bytes}-byte "
            f"slot")
    payload = view[_SLOT_HEADER_SPAN:_SLOT_HEADER_SPAN + length]
    try:
        meta, tensors = wire.decode_frame(payload, copy=copy)
    except wire.WireError as exc:
        raise ServeError(f"shm slot {slot} holds a garbled frame: "
                         f"{exc}") from exc
    check, _ = _SLOT_HEADER.unpack_from(view, 0)
    if check != seq:
        raise ServeError(
            f"shm slot {slot} was overwritten while being read "
            f"(seq {seq} -> {check})")
    return meta, tensors, seq


class SlabRing:
    """Parent-side lease manager over one shared segment of slots.

    ``acquire`` blocks while every slot is leased (the pool is saturated
    anyway at that point) and fails fast once closed. All slot I/O goes
    through the module-level seq-counter protocol, so worker-side reads
    see exactly the same layout.
    """

    def __init__(self, slots: int, slot_bytes: int):
        if slots < 1:
            raise ValueError(f"SlabRing needs >= 1 slot, got {slots}")
        if slot_bytes < wire.frame_nbytes({}) :
            raise ValueError(f"slot_bytes={slot_bytes} cannot hold a frame")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.slots * slot_span(self.slot_bytes))
        # zero the headers so first reads see seq=0/len=0, not page noise
        for slot in range(self.slots):
            _SLOT_HEADER.pack_into(
                _slot_view(self._shm.buf, slot, self.slot_bytes), 0, 0, 0)
        self._free: deque[int] = deque(range(self.slots))
        self._cond = threading.Condition()
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def free_slots(self) -> int:
        with self._cond:
            return len(self._free)

    def acquire(self, timeout: float | None = 30.0) -> int:
        with self._cond:
            if not self._cond.wait_for(
                    lambda: self._free or self._closed, timeout):
                raise ServeError(
                    f"timed out waiting {timeout}s for a free shm slot "
                    f"({self.slots} slots, all leased)")
            if self._closed:
                raise ServeError("shm ring is closed")
            return self._free.popleft()

    def release(self, slot: int) -> None:
        with self._cond:
            if not self._closed and slot not in self._free:
                self._free.append(slot)
                self._cond.notify()

    def write_frame(self, slot: int, meta, tensors) -> int:
        """Encode one frame into ``slot``; returns the frame length.

        :class:`~repro.serve.wire.WireError` propagates for a frame too
        big for the slot; the slot is left committed-empty.
        """
        payload = begin_write(self._shm.buf, slot, self.slot_bytes)
        try:
            length = wire.encode_into(payload, meta, tensors)
        except wire.WireError:
            # leave the slot committed-empty rather than torn
            commit_write(self._shm.buf, slot, self.slot_bytes, 0)
            raise
        commit_write(self._shm.buf, slot, self.slot_bytes, length)
        return length

    def read_frame(self, slot: int, *, copy: bool = False):
        meta, tensors, _ = read_frame(
            self._shm.buf, slot, self.slot_bytes, copy=copy)
        return meta, tensors

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._free.clear()
            self._cond.notify_all()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            self._shm.close()
        except BufferError:
            # numpy views into the segment are still alive somewhere; the
            # name is already unlinked, so just drop our handles — the
            # mapping is reclaimed when the last view is collected, and
            # clearing the fields keeps SharedMemory.__del__ from raising
            # the same BufferError again at interpreter shutdown
            self._shm._buf = None
            self._shm._mmap = None
            if self._shm._fd >= 0:
                os.close(self._shm._fd)
                self._shm._fd = -1

    def __enter__(self) -> "SlabRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
