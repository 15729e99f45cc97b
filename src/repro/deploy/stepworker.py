"""Worker-process entry points for the serve layer's process backend.

This module is what actually runs inside a step worker, and it lives in
:mod:`repro.deploy` — not :mod:`repro.serve` — deliberately: unpickling a
submitted task imports the entry point's module *and its package inits*,
and ``repro.serve`` pulls in the compiler (cache keys hash
``CompileOptions``, the service compiles). The deployed engine must not.
From here the worker's import closure is exactly the artifact loader, the
executor, and the kernel registry — :func:`probe` reports whether that
held in a live worker.

One worker serves many (program, session) pairs: programs are bound once
per key from their persisted artifact and cached in :data:`_BOUND`
(module state is per-process, so each worker pays each artifact load
once); sessions ship only their mutable state overlay per step.

Two transports deliver that overlay + batch:

* :func:`run_step` — the original pickle path: arrays cross the pool
  pipe by value, the mutated overlay is pickled back;
* :func:`run_step_shm` — the zero-copy path: the parent writes one wire
  frame into a shared-memory slab slot (:mod:`repro.serve.shm`) and the
  task carries only ``(ring name, slot index)``; the worker executes the
  step on **writable views into shared memory**, so the in-place apply
  kernels land the updated overlay directly in the parent's segment and
  only a tiny stub (fetched scalars, observability payload) is pickled
  back. ``repro.serve`` is import-lazy (PEP 562), so attaching the ring
  pulls in exactly ``serve.shm`` + ``serve.wire`` — still no compiler.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import OrderedDict
from time import perf_counter

import numpy as np

#: per-process LRU: program key -> (base program, reusable executor).
#: Bounded — a bound entry holds the full template state plus the plan's
#: pooled slab, and a long-lived worker would otherwise retain every program
#: configuration it ever served even after the parent's cache evicted it.
_BOUND: OrderedDict = OrderedDict()
MAX_BOUND_PROGRAMS = 8

#: per-process kernel-time aggregate: (op_type, variant) -> [count, total
#: seconds], fed by sampled steps and reported through :func:`probe`.
_KERNEL_STATS: dict = {}


def _load_fault_spec() -> dict | None:
    """The ``worker.step`` entry of the ``REPRO_FAULTS`` env var, if any.

    A deliberately minimal inline mirror of the arming half of
    :mod:`repro.serve.faults` — this module must NOT import anything
    under ``repro.serve`` (the package init drags in the compiler, which
    :func:`probe` verifies never loads inside a worker). Spawned workers
    inherit the parent's environment, so chaos tests arm worker kills by
    exporting ``REPRO_FAULTS='{"worker.step": {"times": null, "skip": 5,
    "action": "kill"}}'`` before the pool starts.
    """
    raw = os.environ.get("REPRO_FAULTS")
    if not raw:
        return None
    try:
        spec = json.loads(raw).get("worker.step")
    except (ValueError, AttributeError):
        return None
    return spec if isinstance(spec, dict) else None


_FAULT_SPEC = _load_fault_spec()
_fault_calls = 0


def _maybe_fault() -> None:
    """Fire the armed ``worker.step`` fault per its spec (see above)."""
    global _fault_calls
    spec = _FAULT_SPEC
    if not spec:
        return
    _fault_calls += 1
    skip = int(spec.get("skip", 0) or 0)
    if _fault_calls <= skip:
        return
    times = spec.get("times", 1)
    if times is not None and _fault_calls - skip > int(times):
        return
    delay = float(spec.get("delay", 0) or 0)
    if delay:
        time.sleep(delay)
    if spec.get("action") == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise RuntimeError("fault injected at worker.step")


def bind(artifact_dir: str, key: str):
    """Load + bind the artifact for ``key`` once per worker process.

    Re-binding after an LRU eviction costs one artifact load — the same
    price as the first touch, never a compile.
    """
    cached = _BOUND.get(key)
    if cached is None:
        from ..runtime.executor import Executor
        from .artifact import load_artifact

        program = load_artifact(artifact_dir).program
        cached = _BOUND[key] = (program, Executor(program))
        while len(_BOUND) > MAX_BOUND_PROGRAMS:
            _BOUND.popitem(last=False)
    else:
        _BOUND.move_to_end(key)
    return cached


def run_step(artifact_dir: str, key: str,
             state: dict[str, np.ndarray],
             feeds: dict[str, np.ndarray],
             fetch: tuple[str, ...],
             trace=None):
    """Execute one plan step; returns ``(fetched_outputs, updated_state,
    peak_transient_bytes, fresh_allocs, obs_payload)``.

    ``trace`` is an optional :class:`repro.obs.TraceCarrier` — the slim
    picklable projection of the parent's trace contexts. When present the
    worker echoes its request IDs back in ``obs_payload`` (with this
    process's pid and the execute interval on the shared monotonic
    clock), and when ``trace.sample`` is set it additionally records
    per-instruction kernel timings. Observations travel in the return
    value, never through shared state, so a crashed worker can't corrupt
    the parent's trace ring. ``obs_payload`` is None for untraced steps.
    """
    _maybe_fault()
    # The in-place apply kernels mutate the overlay arrays we just
    # unpickled, which are exactly what gets shipped back.
    fetched, peak, allocs, obs_payload = _execute(
        artifact_dir, key, state, feeds, fetch, trace)
    return fetched, state, peak, allocs, obs_payload


#: per-process cache of attached shm ring segments, name -> SharedMemory;
#: one attach per (worker, ring) for the pool's lifetime
_SHM_SEGMENTS: dict = {}


def _ring_segment(name: str):
    seg = _SHM_SEGMENTS.get(name)
    if seg is None:
        from ..serve import shm as shm_mod  # lazy package init: no compiler

        seg = _SHM_SEGMENTS[name] = shm_mod.attach(name)
    return seg


def run_step_shm(artifact_dir: str, key: str,
                 ring_name: str, slot: int, slot_bytes: int,
                 fetch: tuple[str, ...],
                 trace=None):
    """Zero-copy variant of :func:`run_step` (see the module docstring).

    The slot's frame meta names which tensors are state overlay vs batch
    feeds. State views are mutated in place in shared memory — there is
    no state in the return value, only ``(fetched, peak_transient_bytes,
    fresh_allocs, obs_payload)``. The slot's sequence counter is held odd
    for the duration of the step so a parent inspecting the slot after a
    worker crash sees "torn", never a half-applied overlay.
    """
    _maybe_fault()
    from ..serve import shm as shm_mod

    seg = _ring_segment(ring_name)
    meta, tensors, _ = shm_mod.read_frame(seg.buf, slot, slot_bytes)
    state = {name: tensors[name] for name in meta["state"]}
    feeds = {name: tensors[name] for name in meta["feeds"]}
    shm_mod.mark_busy(seg.buf, slot, slot_bytes)
    try:
        fetched, peak, allocs, obs_payload = _execute(
            artifact_dir, key, state, feeds, fetch, trace)
    finally:
        shm_mod.mark_done(seg.buf, slot, slot_bytes)
        # rebind the cached executor to its base program and drop its
        # register bindings so no shm views linger between steps — a
        # pinned view would block unmapping the (already released) slot
        # buffer for the life of this worker
        cached = _BOUND.get(key)
        if cached is not None:
            cached[1].program = cached[0]
            cached[1].detach()
    # fetched outputs are copies out of the step's slab (or the state
    # arrays themselves, which pickling copies), so nothing here aliases
    # shared memory or the pooled slab after return
    return fetched, peak, allocs, obs_payload


def _execute(artifact_dir: str, key: str,
             state: dict[str, np.ndarray],
             feeds: dict[str, np.ndarray],
             fetch: tuple[str, ...],
             trace=None):
    """The shared step core: bind, overlay state, run, observe."""
    program, executor = bind(artifact_dir, key)
    executor.program = program.with_state(state)
    kernels: list[tuple[str, str, float, float]] = []
    sample = trace is not None and trace.sample
    if sample:
        def _observe(instr, t0, t1):
            kernels.append((instr.node.op_type, instr.variant, t0, t1))
            stat = _KERNEL_STATS.setdefault(
                (instr.node.op_type, instr.variant), [0, 0.0])
            stat[0] += 1
            stat[1] += t1 - t0
        executor.instr_observer = _observe
    began = perf_counter()
    try:
        outputs = executor.run(feeds)
    finally:
        executor.instr_observer = None
    ended = perf_counter()
    fetched = {name: outputs[name] for name in fetch}
    obs_payload = None
    if trace is not None:
        obs_payload = {
            "pid": os.getpid(),
            "request_ids": list(trace.request_ids),
            "execute": (began, ended),
            "kernels": kernels,
        }
    return (fetched, executor.peak_transient_bytes,
            executor.last_step_fresh_allocs, obs_payload)


def probe():
    """Report what this worker process actually imported (honesty check),
    plus the lowering shape of every bound plan (fused instruction counts,
    precomputed constant slots, const-folded scalars, autotune decisions)
    so operators can see which optimizations the data plane is actually
    running."""
    plans = {}
    for key, (program, _executor) in _BOUND.items():
        spec = program.plan_spec()
        tuned_kept = sum(1 for t in spec.tuned_variants
                         if t.variant != "base")
        plans[key[:12]] = {
            "passes": list(spec.passes),
            "instructions": len(spec.instructions),
            "fused_instructions": sum(
                1 for instr in spec.instructions if instr.fused is not None),
            "precomputed_slots": len(spec.precomputed),
            "const_folded_args": sum(
                len(instr.const_args) for instr in spec.instructions),
            "tuned_instructions": len(spec.tuned_variants),
            "tuned_variants_kept": tuned_kept,
        }
    return {
        "pid": os.getpid(),
        "programs_bound": sorted(key[:12] for key in _BOUND),
        "plans": plans,
        "kernel_stats": {
            f"{op}/{variant}": {"count": stat[0], "total_ms": stat[1] * 1e3}
            for (op, variant), stat in sorted(_KERNEL_STATS.items())
        },
        "shm_rings_attached": sorted(_SHM_SEGMENTS),
        "compiler_imported": "repro.runtime.compiler" in sys.modules,
        "autodiff_imported": any(
            name.startswith("repro.autodiff") for name in sys.modules),
    }
