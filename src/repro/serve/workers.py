"""Process-pool execution backend: step workers that never see the compiler.

The GIL caps the thread-pool backend at roughly one core of numpy kernel
work per Python process. This module escapes it the way the paper's
deployment story says to: the *control plane* (compiler, cache, scheduler,
sessions) stays in the parent, and the *data plane* is a pool of worker
processes that only ever execute frozen plan artifacts.

Protocol per (worker, program) pair — by design identical to a device
receiving a deployed model:

1. the worker receives the **artifact directory once** (first step for a
   given program key), binds the persisted execution plan against its own
   kernel registry (:func:`repro.deploy.artifact.load_artifact`), and
   caches the bound executor for every later step;
2. every step ships only the session's **mutable state overlay and the
   micro-batch arrays**; the worker runs one plan step (mutating the
   overlay in place, exactly like the in-process path) and ships back
   only the requested outputs.

The worker-side code lives in :mod:`repro.deploy.stepworker` so a worker's
import closure stays compiler-free (``repro.serve`` is import-lazy, so the
worker can still reach :mod:`repro.serve.shm` without the compiler);
workers are spawned, not forked, so they genuinely demonstrate the
compile-once/run-anywhere split. :meth:`ProcessPoolEngine.probe` verifies
the claim against a live pool.

Step 2 travels through a :class:`~repro.serve.shm.SlabRing` slot as one
wire frame: the task pickles only the slot coordinates, the worker
mutates the overlay in place in shared memory, and only fetched scalars
come back by value. The ring is sized from the first frame and re-created
bigger when a larger model arrives, so every payload fits. The in-process
thread backend stays as the byte-exactness oracle.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable

import numpy as np

from ..deploy import stepworker
from ..errors import ServeError
from . import shm as shm_mod
from . import wire

#: rough pickle overhead per step result stub (protocol framing, the
#: obs payload dict, scalar boxes) — keeps the serialized-bytes counter
#: honest without re-pickling just to measure
_STUB_OVERHEAD = 512


def _nbytes(arrays: dict[str, np.ndarray]) -> int:
    return sum(int(np.asarray(a).nbytes) for a in arrays.values())


class ProcessPoolEngine:
    """A pool of plan-executing worker processes (the data plane).

    ``run_step`` blocks the calling scheduler thread until the worker
    finishes — the scheduler's per-session FIFO and fairness invariants
    carry over unchanged; only the compute escapes the GIL.

    A crashed worker (OOM-killed, segfaulted numpy, ``os._exit``) marks
    the whole ``ProcessPoolExecutor`` broken — without intervention every
    later step on every session would fail with ``BrokenProcessPool``
    forever. ``run_step`` converts that into one failed batch: the
    affected call raises a clear :class:`ServeError`, the pool is rebuilt
    exactly once (``restarts`` counts it, ``on_restart`` publishes it),
    and the next step binds artifacts into fresh workers and proceeds.
    """

    def __init__(self, workers: int, mp_context: str = "spawn",
                 on_restart: Callable[[], None] | None = None, *,
                 metrics=None) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._mp_context = mp_context
        self._on_restart = on_restart
        self._lock = threading.Lock()
        self._shutdown = False
        #: lifetime count of pool rebuilds after a worker crash
        self.restarts = 0
        # The ring is created on the first step, its slots sized from the
        # actual state + feeds frame (see _ensure_ring), not a fixed slab.
        # 2 slots per worker: one in flight per scheduler thread plus one
        # being written/read, so acquire() never blocks in steady state.
        self._ring: shm_mod.SlabRing | None = None
        self._ring_lock = threading.Lock()
        #: ring name -> steps currently using that ring's slots
        self._ring_inflight: dict[str, int] = {}
        #: rings replaced by a bigger one, kept open until they drain
        self._ring_retired: dict[str, shm_mod.SlabRing] = {}
        #: lifetime count of ring re-sizes (a growing workload signal)
        self.ring_resizes = 0
        if metrics is not None:
            self._serialized_bytes = metrics.counter(
                "serve.worker.serialized_bytes",
                "bytes pickled across the worker pool boundary")
            self._shm_bytes = metrics.counter(
                "serve.worker.shm_bytes",
                "bytes carried via shared-memory slabs")
            self._steps_shm = metrics.counter(
                "serve.worker.steps_shm", "steps run over the shm ring")
            self._ring_resizes = metrics.counter(
                "serve.worker.ring_resizes",
                "shm slab rings re-created for a larger model frame")
        else:
            self._serialized_bytes = self._shm_bytes = None
            self._steps_shm = self._ring_resizes = None
        self._pool = self._make_pool()

    @staticmethod
    def _count(counter, n: int = 1) -> None:
        if counter is not None:
            counter.inc(n)

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self._mp_context))

    def run_step(self, artifact_dir, key: str,
                 state: dict[str, np.ndarray],
                 feeds: dict[str, np.ndarray],
                 fetch: Iterable[str],
                 trace=None):
        """One plan step on some worker; see
        :func:`repro.deploy.stepworker.run_step_shm`. Returns ``(fetched,
        peak_transient_bytes, fresh_allocs, obs_payload)``.

        ``state`` is updated in place: the worker mutates the overlay's
        shared-memory views and this method copies them back into the
        caller's arrays. ``trace`` (a :class:`repro.obs.TraceCarrier` or
        None) crosses the pickle boundary with the task; the worker's
        observations ride back in ``obs_payload``.
        """
        if artifact_dir is None:
            raise ServeError(
                f"program {key[:12]}… has no persisted artifact; the "
                f"process backend needs a writable cache_dir")
        # a graph's inputs and initializers share one namespace, so state
        # and feed names never collide in one frame
        meta = {"state": sorted(state), "feeds": sorted(feeds)}
        ring = self._ensure_ring(meta, {**state, **feeds})
        try:
            slot = ring.acquire(timeout=60.0)
            try:
                frame_len = ring.write_frame(slot, meta, {**state, **feeds})
                pool = self._pool
                try:
                    result = pool.submit(
                        stepworker.run_step_shm, str(artifact_dir), key,
                        ring.name, slot, ring.slot_bytes, tuple(fetch),
                        trace).result()
                except BrokenProcessPool as exc:
                    self._rebuild(pool)
                    raise ServeError(
                        f"worker process died while executing program "
                        f"{key[:12]}…; this batch failed, the worker pool "
                        f"was rebuilt — retry the step") from exc
                _, updated = ring.read_frame(slot)
                for name, array in state.items():
                    np.copyto(array, updated[name], casting="no")
                del updated
            finally:
                ring.release(slot)
        finally:
            self._ring_unref(ring)
        self._count(self._steps_shm)
        if self._serialized_bytes is not None:
            self._serialized_bytes.inc(_nbytes(result[0]) + _STUB_OVERHEAD)
            self._shm_bytes.inc(frame_len)
        return result

    # -- slab-ring sizing ----------------------------------------------------

    @staticmethod
    def _auto_slot_bytes(need: int) -> int:
        """Slot size for a model whose frame needs ``need`` bytes.

        12.5% headroom (meta name lists vary a little across programs
        sharing the engine) rounded up to 64 KiB, so a small MLP's ring
        costs kilobytes, not a fixed multi-MiB slab.
        """
        granule = 64 << 10
        sized = need + need // 8 + 4096
        return max(granule, -(-sized // granule) * granule)

    def _ensure_ring(self, meta, tensors) -> shm_mod.SlabRing:
        """The ring this step's frame fits in, created or grown on demand."""
        need = wire.frame_nbytes(meta, tensors)
        to_close = None
        with self._ring_lock:
            if self._shutdown:
                raise ServeError("worker engine is shut down")
            ring = self._ring
            if ring is None or ring.slot_bytes < need:
                new = shm_mod.SlabRing(max(2, 2 * self.workers),
                                       self._auto_slot_bytes(need))
                if ring is not None:
                    self.ring_resizes += 1
                    self._count(self._ring_resizes)
                    if self._ring_inflight.get(ring.name):
                        # steps still lease its slots; drained in
                        # _ring_unref once the last one releases
                        self._ring_retired[ring.name] = ring
                    else:
                        to_close = ring
                self._ring = ring = new
            self._ring_inflight[ring.name] = \
                self._ring_inflight.get(ring.name, 0) + 1
        if to_close is not None:
            to_close.close()
        return ring

    def _ring_unref(self, ring: shm_mod.SlabRing) -> None:
        to_close = None
        with self._ring_lock:
            count = self._ring_inflight.get(ring.name, 1) - 1
            if count <= 0:
                self._ring_inflight.pop(ring.name, None)
                to_close = self._ring_retired.pop(ring.name, None)
            else:
                self._ring_inflight[ring.name] = count
        if to_close is not None:
            to_close.close()

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` with a fresh pool (idempotent per pool).

        Several scheduler threads can observe the same broken pool
        concurrently; the identity check makes exactly one of them swap
        in a replacement (and count the restart) while the rest reuse it.
        """
        with self._lock:
            if self._pool is broken and not self._shutdown:
                self._pool = self._make_pool()
                self.restarts += 1
                if self._on_restart is not None:
                    self._on_restart()
        broken.shutdown(wait=False)

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (monitoring, crash tests)."""
        return list(self._pool._processes or ())

    def probe(self) -> dict:
        """Ask one live worker what it has imported and bound."""
        pool = self._pool
        try:
            return pool.submit(stepworker.probe).result()
        except BrokenProcessPool as exc:
            self._rebuild(pool)
            raise ServeError(
                "worker process died during probe; the worker pool was "
                "rebuilt — retry") from exc

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
            pool = self._pool
        pool.shutdown(wait=wait)
        with self._ring_lock:
            rings = [self._ring, *self._ring_retired.values()]
            self._ring = None
            self._ring_retired.clear()
        for ring in rings:
            if ring is not None:
                ring.close()
