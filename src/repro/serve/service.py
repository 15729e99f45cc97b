"""`FineTuneService`: the multi-tenant fine-tuning front door.

Composition of the serving layer (paper workflow, made long-lived):

* :class:`ProgramFamily` — one fine-tuning *configuration* (model builder,
  scheme, optimizer, options, loss). Owns the per-batch-size program
  variants, fetched through the shared :class:`ProgramCache` under
  canonical keys from :mod:`repro.serve.keys`.
* :class:`~repro.serve.sessions.SessionManager` — per-tenant mutable state
  over the shared programs.
* :class:`~repro.serve.scheduler.BatchScheduler` — coalesces single-example
  step requests into bucketed micro-batches on a worker pool; an idle
  service runs a claimed step on the caller's thread instead.
* :class:`~repro.serve.metrics.MetricsRegistry` — throughput, cache hit
  rate, latency quantiles, per-program peak transient bytes.

The model argument is a registry key (``"mcunet_micro"``) or a callable
``batch -> Graph`` (with an explicit ``model_id``), because micro-batching
needs the forward graph rebuilt at each bucket's batch size.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import asdict, replace
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable

import numpy as np

from ..errors import (CheckpointError, DeadlineExpired, ServeError,
                      ServiceClosed)
from ..ir import Graph
from ..models import build_model, paper_scheme
from ..obs import TraceCarrier, TraceContext, Tracer, render_prometheus
from ..runtime.compiler import CompileOptions, compile_training
from ..sparse import UpdateScheme, bias_only, full_update
from ..train.optim import SGD, Adam, Lion, OptimizerSpec
from .cache import CacheEntry, ProgramCache
from .checkpoint import (CheckpointStore, SessionCheckpoint,
                         checkpoint_to_wire, dump_checkpoint,
                         load_checkpoint)
from .keys import program_key
from .metrics import Gauge, MetricsRegistry
from .scheduler import BatchScheduler, StepRequest, StepResult
from .sessions import SessionManager, TenantSession
from .workers import ProcessPoolEngine

logger = logging.getLogger("repro.serve")

#: optimizer reconstruction table for checkpoint restore
_OPTIMIZERS: dict[str, type] = {"sgd": SGD, "adam": Adam, "lion": Lion}

#: step-execution backends: in-process thread pool (shares the GIL) or a
#: pool of plan-executing worker processes fed from the artifact cache
BACKENDS = ("thread", "process")

#: named scheme resolvers usable as ``scheme="paper"`` etc.
SCHEME_RESOLVERS: dict[str, Callable[[Graph], UpdateScheme]] = {
    "paper": paper_scheme,
    "full": full_update,
    "bias_only": bias_only,
}


def _check_class_ids(y: np.ndarray, classes: int) -> None:
    """Fail closed on a label that is no class id, an integer in
    ``[0, classes)``: a negative one would wrap to a class counted from the
    end and train on it; one past the end would fail in the kernel, after
    the batch it rides in was cut."""
    whole = y.dtype.kind in "iu" or (
        y.dtype.kind == "f" and bool(np.isfinite(y).all())
        and bool((y == np.round(y)).all()))
    if not whole:
        raise ServeError(f"labels must be integer class ids, got {y!r}")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ServeError(
            f"labels must be class ids in [0, {classes}), got {y!r}")


class ProgramFamily:
    """One fine-tuning configuration and its cached program variants."""

    def __init__(self, service: "FineTuneService",
                 build: Callable[[int], Graph],
                 model_id: str,
                 scheme: UpdateScheme,
                 optimizer: OptimizerSpec,
                 options: CompileOptions,
                 loss: str,
                 logits: str | None,
                 forward_1: Graph | None = None) -> None:
        self._service = service
        self._build = build
        self.model_id = model_id
        self.scheme = scheme
        self.optimizer = optimizer
        self.options = options
        self.loss = loss
        self.logits = logits
        #: JSON description of how to rebuild this family in a fresh
        #: process (set by the service right after construction; embedded
        #: in session checkpoints)
        self.restore_config: dict[str, Any] | None = None
        self._lock = threading.Lock()
        #: bucket batch size -> canonical program key (forward graphs are
        #: rebuilt and fingerprinted once per bucket, not per request)
        self._bucket_keys: dict[int, str] = {}
        self._forwards: dict[int, Graph] = {}
        if forward_1 is not None:
            self._forwards[1] = forward_1

        # The template variant pins the family identity, the mutable-state
        # template sessions copy, and the feed names/shapes.
        entry = self.bucket(1)
        program = entry.program
        self.key = entry.key
        self.labels_name: str = program.meta["labels"]
        self.loss_name: str = program.meta["loss"]
        data_inputs = [name for name in program.graph.inputs
                       if name != self.labels_name]
        if len(data_inputs) != 1:
            raise ServeError(
                f"model {model_id!r} must have exactly one data input, "
                f"got {data_inputs}"
            )
        self.input_name = data_inputs[0]
        self.example_shape = tuple(
            program.graph.spec(self.input_name).shape[1:])
        self.example_dtype = program.graph.spec(self.input_name).dtype.np
        self.label_shape = tuple(
            program.graph.spec(self.labels_name).shape[1:])
        self.label_dtype = program.graph.spec(self.labels_name).dtype.np
        logits_name = program.meta["logits"]
        self.num_classes = int(program.graph.spec(logits_name).shape[-1])
        self._mutable_names = sorted(program.mutable_state_names())
        self._template = {name: program.state[name]
                          for name in self._mutable_names}

    def bucket(self, batch: int) -> CacheEntry:
        """The compiled program variant for micro-batches of ``batch``."""
        with self._lock:
            key = self._bucket_keys.get(batch)
            forward = self._forwards.get(batch)
        if key is None:
            if forward is None:
                forward = self._build(batch)
            key = program_key(forward, scheme=self.scheme,
                              optimizer=self.optimizer, options=self.options,
                              loss=self.loss, logits=self.logits)
            with self._lock:
                self._bucket_keys[batch] = key
                self._forwards[batch] = forward
        cache = self._service.cache
        return cache.get_or_build(
            key, lambda: self._compile(forward, key))

    def _compile(self, forward: Graph, key: str):
        began = perf_counter()
        program = compile_training(
            forward, loss=self.loss, logits=self.logits,
            optimizer=self.optimizer, scheme=self.scheme,
            options=self.options)
        # Lowering happens here with compilation (compile_training prebuilds
        # it; this keeps the invariant even for custom options) so cached
        # variants always ship an ExecutionPlan and its generated step
        # function, and no tenant's first step pays for plan construction.
        program.plan().step_function()
        self._service._record_compile(self, key, program,
                                      (perf_counter() - began) * 1e3)
        return program

    def resident(self, batch: int) -> bool:
        """Whether the ``batch`` variant is compiled and in the cache, so
        running it compiles nothing."""
        with self._lock:
            key = self._bucket_keys.get(batch)
        return key is not None and key in self._service.cache

    def template_state(self) -> dict[str, np.ndarray]:
        """The initial mutable state new sessions copy (shared template)."""
        return self._template

    def mutable_names(self) -> list[str]:
        return list(self._mutable_names)


class FineTuneService:
    """Long-lived, multi-tenant serving layer over the one-shot compiler."""

    def __init__(self, *, cache_capacity: int = 32, max_batch: int = 8,
                 workers: int = 2, backend: str = "thread",
                 cache_dir: str | Path | None = None,
                 max_sessions: int | None = None,
                 session_ttl: float | None = None,
                 metrics: MetricsRegistry | None = None,
                 trace_sample: int = 0,
                 slow_ms: float | None = None,
                 trace_ring: int = 4096,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every: int = 0,
                 keep_checkpoints: int = 3,
                 worker_channel: str = "shm",
                 shm_slot_bytes: int | None = None,
                 batch_hold_ms: float = 0.0) -> None:
        if backend not in BACKENDS:
            raise ServeError(
                f"unknown serve backend {backend!r}; options: {BACKENDS}")
        self.backend = backend
        self.metrics = metrics or MetricsRegistry()
        #: the observability spine: request spans, the /v1/trace ring,
        #: sampled kernel timing (1 in trace_sample batches; 0 = off),
        #: and slow-request logging past slow_ms
        self.tracer = Tracer(self.metrics, ring_capacity=trace_ring,
                             sample_every=trace_sample, slow_ms=slow_ms)
        # The process backend feeds workers from persisted plan artifacts;
        # without a caller-provided cache_dir it uses a service-lifetime
        # temp dir (workers still skip compilation, persistence just does
        # not outlive the service).
        self._owned_cache_dir: tempfile.TemporaryDirectory | None = None
        if backend == "process" and cache_dir is None:
            self._owned_cache_dir = tempfile.TemporaryDirectory(
                prefix="repro-serve-cache-")
            cache_dir = self._owned_cache_dir.name
        self.cache = ProgramCache(capacity=cache_capacity,
                                  cache_dir=cache_dir)
        self._sessions_evicted = self.metrics.counter(
            "serve.sessions_evicted", "tenant sessions evicted (TTL/LRU)")
        self.sessions = SessionManager(
            max_sessions=max_sessions, ttl=session_ttl,
            busy=lambda session_id: self.scheduler.pending(session_id),
            on_evict=lambda session: self._sessions_evicted.inc())
        self._worker_restarts = self.metrics.counter(
            "serve.worker_restarts",
            "process pools rebuilt after a worker crash")
        # Durability: the versioned checkpoint store (None = checkpointing
        # only through explicit checkpoint_bytes downloads), auto-
        # checkpoint cadence, and the replay/deadline counters.
        if checkpoint_every < 0:
            raise ServeError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.checkpoint_every = checkpoint_every
        self.checkpoints = CheckpointStore(
            checkpoint_dir, keep=keep_checkpoints) \
            if checkpoint_dir is not None else None
        self._checkpoints_written = self.metrics.counter(
            "serve.checkpoints_written",
            "session checkpoints persisted (manual + auto)")
        self._checkpoints_restored = self.metrics.counter(
            "serve.checkpoints_restored",
            "sessions restored from a checkpoint")
        self._checkpoint_errors = self.metrics.counter(
            "serve.checkpoint_errors",
            "auto-checkpoint writes that failed (the step still succeeded)")
        self._steps_replayed = self.metrics.counter(
            "serve.steps_replayed",
            "retried steps answered from the idempotency window "
            "(no second optimizer update)")
        # shm_slot_bytes=None lets the engine size ring slots from each
        # model's actual state+feeds frame (growing on demand); an explicit
        # value pins the slot size (oversized payloads fall back to pickle).
        self.engine = ProcessPoolEngine(
            workers=workers, on_restart=self._worker_restarts.inc,
            channel=worker_channel, metrics=self.metrics,
            slot_bytes=shm_slot_bytes) \
            if backend == "process" else None
        self.scheduler = BatchScheduler(
            self._run_batch, max_batch=max_batch, workers=workers,
            metrics=self.metrics, batch_hold_ms=batch_hold_ms)
        # One counter shared by every shedding stage (service submit,
        # scheduler cut, gateway admission): the scheduler registered it,
        # the registry hands back the same object.
        self._deadline_expired = self.metrics.counter(
            "serve.deadline_expired")
        self._families: dict[str, ProgramFamily] = {}
        self._family_lock = threading.Lock()
        self._closed = False

        self._steps_total = self.metrics.counter(
            "serve.steps_total", "optimizer updates executed")
        self._examples_total = self.metrics.counter(
            "serve.examples_total", "training examples consumed")
        self._step_latency = self.metrics.histogram(
            "serve.step_latency_ms", "executor wall time per micro-batch")
        self._step_allocs = self.metrics.histogram(
            "serve.step_fresh_allocs",
            "fresh output buffers per step (0-ish once arenas are warm)")
        self._compile_latency = self.metrics.histogram(
            "serve.compile_ms", "compile wall time per cache miss")
        # Satellite of the memory story: the runtime-measured peak
        # transient bytes of the most recent step (the per-program
        # high-water marks live on the cache entries).
        self._step_peak_bytes = self.metrics.gauge(
            "serve.step_peak_transient_bytes",
            "peak transient bytes of the most recent executed step")
        self.metrics.callback_gauge(
            "serve.trace_spans_recorded",
            lambda: float(self.tracer.spans_recorded),
            "request spans published to the trace ring")
        self.metrics.callback_gauge(
            "serve.trace_kernel_samples",
            lambda: float(self.tracer.kernel_samples),
            "sampled per-instruction kernel timings recorded")
        self.metrics.callback_gauge(
            "serve.slow_requests",
            lambda: float(self.tracer.slow_requests),
            "requests logged for exceeding the slow-ms threshold")
        # Callback gauges so these can never go stale: TTL sweeps retire
        # sessions without passing through create/close, and the gateway
        # reads queue depth (registered by the scheduler, which owns the
        # number) between metric renders for admission control.
        self.metrics.callback_gauge(
            "serve.sessions_live", lambda: float(len(self.sessions)),
            "open tenant sessions (live)")

    # -- session lifecycle ---------------------------------------------------

    def create_session(
        self,
        model: str | Callable[[int], Graph],
        *,
        scheme: UpdateScheme | str = "paper",
        optimizer: OptimizerSpec | None = None,
        options: CompileOptions | None = None,
        loss: str = "softmax_ce",
        logits: str | None = None,
        tenant: str | None = None,
        weights: dict[str, np.ndarray] | None = None,
        model_kwargs: dict[str, Any] | None = None,
        model_id: str | None = None,
    ) -> TenantSession:
        """Open a tenant session; compiles (or reuses) its program family.

        ``model`` is a registry key or a ``batch -> Graph`` callable;
        callables need an explicit ``model_id`` for cache identity.
        ``weights`` optionally seeds the session's *mutable* state (the
        scheme's updated parameters and optimizer slots).
        """
        self._check_open()
        family = self._family_for(model, scheme=scheme, optimizer=optimizer,
                                  options=options, loss=loss, logits=logits,
                                  model_kwargs=model_kwargs,
                                  model_id=model_id)
        return self.sessions.create(family, tenant=tenant, weights=weights)

    def close_session(self, session_id: str) -> dict[str, np.ndarray]:
        """Retire a session; returns its final mutable state snapshot.

        Refuses while the session still has queued or in-flight step
        requests — a snapshot taken mid-stream would not be final. Resolve
        or await the outstanding futures (or :meth:`drain`) first.

        The check is best-effort against *concurrent* submitters: a
        ``submit`` for the same session racing this call can slip a step
        in after the snapshot. Don't do that — a tenant closing its own
        session must stop submitting first (await its futures); the
        serving layer only guarantees that tenants can't affect *each
        other*.
        """
        session = self.sessions.get(session_id)
        if self.scheduler.pending(session_id):
            raise ServeError(
                f"session {session_id} has outstanding step requests; "
                f"await its futures or drain() before closing"
            )
        snapshot = session.snapshot()
        self.sessions.close(session_id)
        return snapshot

    def snapshot(self, session_id: str) -> dict[str, np.ndarray]:
        return self.sessions.get(session_id).snapshot()

    def load_weights(self, session_id: str,
                     weights: dict[str, np.ndarray]) -> None:
        self.sessions.get(session_id).load(weights)

    # -- durability: checkpoint / restore ------------------------------------

    def _checkpoint_payload(self, session: TenantSession) -> SessionCheckpoint:
        """Assemble one consistent checkpoint of ``session``.

        Taken under the session lock, so it never interleaves with a
        step's in-place state mutation (the scheduler serializes steps
        per session; the lock covers direct library callers too).
        """
        family = session.family
        if family.restore_config is None:
            raise ServeError(
                f"session {session.id}: its program family predates "
                f"checkpoint support and records no restore config")
        with session.lock:
            state = {name: array.copy()
                     for name, array in session.state.items()}
            meta = {
                "id": session.id,
                "tenant": session.tenant,
                "step_seq": session.step_seq,
                "steps": session.steps,
                "examples": session.examples,
                "last_loss": session.last_loss,
            }
        idempotency = {key: asdict(result)
                       for key, result in
                       session.idempotency_window().items()}
        return SessionCheckpoint(session=meta,
                                 family=dict(family.restore_config),
                                 state=state, idempotency=idempotency)

    def checkpoint_session(self, session_id: str) -> dict[str, Any]:
        """Persist one checkpoint version to the store; returns its meta.

        Requires a ``checkpoint_dir``; for a download without server-side
        persistence use :meth:`checkpoint_bytes`.
        """
        if self.checkpoints is None:
            raise ServeError(
                "checkpointing to disk is disabled: the service was "
                "built without a checkpoint_dir")
        session = self.sessions.get(session_id)
        ckpt = self._checkpoint_payload(session)
        path = self.checkpoints.save(ckpt)
        with session.lock:
            session.steps_since_checkpoint = 0
        self._checkpoints_written.inc()
        return {
            "session_id": session.id,
            "step_seq": ckpt.step_seq,
            "state_bytes": ckpt.state_bytes(),
            "path": str(path),
            "versions": self.checkpoints.versions(session.id),
        }

    def checkpoint_bytes(self, session_id: str) -> bytes:
        """The session's current checkpoint, serialized (download/export)."""
        session = self.sessions.get(session_id)
        return dump_checkpoint(self._checkpoint_payload(session))

    def checkpoint_frame(self, session_id: str) -> bytes:
        """The current checkpoint as one wire frame (binary download for
        clients that negotiated :data:`repro.serve.wire.CONTENT_TYPE`)."""
        session = self.sessions.get(session_id)
        return checkpoint_to_wire(self._checkpoint_payload(session))

    def restore_session(self,
                        data: bytes | SessionCheckpoint | None = None, *,
                        session_id: str | None = None,
                        version: int | None = None,
                        model: Callable[[int], Graph] | None = None,
                        options: CompileOptions | None = None
                        ) -> TenantSession:
        """Resurrect a session from a checkpoint, under its original id.

        The checkpoint comes either as ``data`` (bytes produced by
        :meth:`checkpoint_bytes` / the gateway download route, or an
        already-decoded :class:`SessionCheckpoint` — the gateway's
        wire-frame upload path decodes before calling in) or by
        ``session_id`` from the store (newest intact version, or exactly
        ``version``). The restored overlay is byte-identical to the
        checkpointed one; counters and the idempotency window carry over,
        so a client retrying a step acked before the crash still gets the
        recorded result instead of a double-apply.

        ``model`` is only needed for families built from a callable (the
        checkpoint cannot serialize those); registry-key families rebuild
        themselves. ``options`` defaults to the family's compile options
        at checkpoint time semantics (i.e. the service default).
        """
        self._check_open()
        if isinstance(data, SessionCheckpoint):
            ckpt = data
        elif data is not None:
            ckpt = load_checkpoint(data)
        else:
            if self.checkpoints is None:
                raise ServeError(
                    "no checkpoint bytes given and the service has no "
                    "checkpoint_dir to restore from")
            if session_id is None:
                raise ServeError(
                    "restore needs checkpoint bytes or a session_id")
            ckpt = self.checkpoints.load(session_id, version=version)
        # Fail fast on the one conflict a caller can do nothing about by
        # changing arguments — before paying for the family rebuild.
        if any(live.id == ckpt.session_id for live in self.sessions):
            raise ServeError(
                f"session {ckpt.session_id!r} is already open; close it "
                f"before restoring a checkpoint over it")
        config = ckpt.family
        model_arg: Any = config.get("model") or model
        if model_arg is None:
            raise ServeError(
                f"checkpointed session {ckpt.session_id!r} was built from "
                f"a callable model ({config.get('model_id')!r}); pass the "
                f"builder via restore_session(model=...)")
        optim_cfg = config.get("optimizer") or {}
        optim_cls = _OPTIMIZERS.get(optim_cfg.get("family", ""))
        if optim_cls is None:
            raise CheckpointError(
                f"checkpoint names unknown optimizer family "
                f"{optim_cfg.get('family')!r}")
        scheme_cfg = config.get("scheme") or {}
        family = self._family_for(
            model_arg,
            scheme=UpdateScheme(name=scheme_cfg.get("name", "restored"),
                                updates=dict(scheme_cfg.get("updates", {}))),
            optimizer=optim_cls(**optim_cfg.get("params", {})),
            options=options,
            loss=config.get("loss", "softmax_ce"),
            logits=config.get("logits"),
            model_kwargs=config.get("model_kwargs"),
            model_id=config.get("model_id"),
        )
        session = TenantSession(
            ckpt.session_id, str(ckpt.session.get("tenant") or
                                 ckpt.session_id),
            family, family.template_state())
        missing = set(session.state) - set(ckpt.state)
        extra = set(ckpt.state) - set(session.state)
        if missing or extra:
            raise CheckpointError(
                f"checkpoint state does not match the family's mutable "
                f"state (missing {sorted(missing)}, unexpected "
                f"{sorted(extra)}); was the model or scheme changed?")
        session.load(ckpt.state)
        session.restore_counters(
            step_seq=ckpt.step_seq,
            steps=int(ckpt.session.get("steps", ckpt.step_seq)),
            examples=int(ckpt.session.get("examples", 0)),
            last_loss=float(ckpt.session.get("last_loss", float("nan"))),
        )
        session.restore_idempotency({
            key: StepResult(**fields)
            for key, fields in ckpt.idempotency.items()
        })
        self.sessions.adopt(session)
        self._checkpoints_restored.inc()
        return session

    # -- stepping ------------------------------------------------------------

    def submit(self, session_id: str, x: np.ndarray,
               y: np.ndarray,
               trace: TraceContext | None = None,
               deadline: float | None = None,
               idempotency_key: str | None = None,
               claim: bool = False) -> Future:
        """Enqueue one single-example step; returns a Future[StepResult].

        ``x`` and ``y`` are checked before anything is queued: shapes, and
        for a classification family labels that are class ids — integers
        in ``[0, num_classes)`` — else :class:`ServeError` (a 400 at the
        gateway).

        Every request carries a trace context: the gateway passes the one
        it minted at ingress (so the request ID in the response headers
        matches the spans), and direct library callers get one minted
        here. The resolved StepResult's ``timings`` holds this request's
        per-stage span durations.

        ``deadline`` is absolute on ``time.monotonic()``: already-expired
        requests raise :class:`~repro.errors.DeadlineExpired` here, and
        ones that expire while queued are shed at batch-cut time.

        ``idempotency_key`` makes the step safe to retry: a key already
        in the session's dedupe window returns an immediately-resolved
        future carrying the recorded result (``replayed=True``, no second
        optimizer update); a key still in flight returns the in-flight
        future; otherwise the step executes and its result is recorded
        under the key before the future resolves.

        ``claim`` asks to run the step on the caller's thread if the
        scheduler is idle (see :meth:`BatchScheduler.submit`); it is passed
        on only when :meth:`_claimable` holds. A caller that sets it must
        settle the future with ``scheduler.run_claimed`` or
        ``scheduler.release_claim``.
        """
        entered = perf_counter()
        self._check_open()
        if deadline is not None and monotonic() > deadline:
            self._deadline_expired.inc()
            raise DeadlineExpired(
                "deadline passed before the step was enqueued")
        # Opportunistic TTL sweep on the request path (self-throttled to
        # ~1/s inside the manager; a no-op without a session TTL).
        self.sessions.sweep()
        session = self.sessions.get(session_id)
        family = session.family
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != family.example_shape:
            raise ServeError(
                f"example for {family.model_id!r} must have shape "
                f"{family.example_shape}, got {x.shape} (submit one "
                f"example per request; the scheduler does the batching)"
            )
        if y.shape != family.label_shape:
            raise ServeError(
                f"label must have shape {family.label_shape}, got {y.shape}"
            )
        if np.issubdtype(family.label_dtype, np.integer):
            _check_class_ids(y, family.num_classes)
        if trace is None:
            trace = self.tracer.trace(session_id=session_id,
                                      tenant=session.tenant)
        x = x.astype(family.example_dtype, copy=False)
        y = y.astype(family.label_dtype, copy=False)
        claim = claim and self._claimable(session)
        if idempotency_key is None:
            # queue_wait is backdated to service entry so shape validation
            # and dtype copies are attributed to a span instead of falling
            # into the gap between admission and the scheduler queue.
            return self.scheduler.submit(session, x, y, trace=trace,
                                         submitted_at=entered,
                                         deadline=deadline, claim=claim)
        # The window probe, the in-flight probe, and the enqueue must be
        # one atomic step against a concurrent retry with the same key —
        # otherwise two retries racing a miss both enqueue and the step
        # applies twice. scheduler.submit is a lock + deque append, cheap
        # enough to run under the session's idempotency lock.
        with session.idem_lock:
            recorded = session.recall(idempotency_key)
            if recorded is not None:
                self._steps_replayed.inc()
                future: Future = Future()
                future.set_result(replace(recorded, replayed=True))
                return future
            pending = session.pending_future(idempotency_key)
            if pending is not None and not pending.cancelled():
                return pending
            future = self.scheduler.submit(session, x, y, trace=trace,
                                           submitted_at=entered,
                                           deadline=deadline,
                                           idem_key=idempotency_key,
                                           claim=claim)
            session.note_pending(idempotency_key, future)
            return future

    def _claimable(self, session: TenantSession) -> bool:
        """Whether a step of ``session`` may run on the submitting thread.

        Only on the thread backend, only when running it compiles nothing
        and writes no auto-checkpoint, and only when the session's last
        step executed in less than the interpreter's GIL switch interval:
        a claimed step then blocks its caller (the gateway's event loop) no
        longer than a pool thread holding the GIL already can.
        """
        last = session.last_execute_s
        return self.engine is None and last is not None \
            and last < sys.getswitchinterval() \
            and not self._checkpoint_due(session, steps=1) \
            and session.family.resident(1)

    def _checkpoint_due(self, session: TenantSession, steps: int = 0) -> bool:
        """Whether the auto-checkpoint cadence is reached ``steps``
        updates from now (0: by the updates already recorded)."""
        return self.checkpoints is not None and self.checkpoint_every > 0 \
            and session.steps_since_checkpoint + steps \
            >= self.checkpoint_every

    def step(self, session_id: str, x: np.ndarray,
             y: np.ndarray) -> StepResult:
        """Synchronous convenience wrapper around :meth:`submit`; the
        caller blocks anyway, so an idle service runs the step right on
        the caller's thread."""
        future = self.submit(session_id, x, y, claim=True)
        result = self.scheduler.run_claimed(future)
        return future.result() if result is None else result

    def drain(self, timeout: float | None = None) -> bool:
        return self.scheduler.drain(timeout=timeout)

    def warm(self, session_id: str, batches: list[int] | None = None) -> None:
        """Precompile program variants so first requests hit the cache."""
        family = self.sessions.get(session_id).family
        from .scheduler import bucket_sizes
        for batch in batches or bucket_sizes(self.scheduler.max_batch):
            family.bucket(batch)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Snapshot of service metrics, cache stats included."""
        self._sync_cache_metrics()
        return self.metrics.as_dict()

    def render_metrics(self, title: str = "repro.serve metrics") -> str:
        self._sync_cache_metrics()
        return self.metrics.render(title=title)

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition of the full registry.

        Histograms publish real cumulative ``le`` buckets (all-time, not
        the windowed quantile ring the human-readable render shows).
        """
        self._sync_cache_metrics()
        return render_prometheus(self.metrics)

    def _sync_cache_metrics(self) -> None:
        stats = self.cache.stats
        self.metrics.gauge(
            "serve.cache.entries", "live cached programs").set(len(self.cache))
        self.metrics.gauge("serve.cache.hits").set(stats.hits)
        self.metrics.gauge("serve.cache.misses").set(stats.misses)
        self.metrics.gauge("serve.cache.evictions").set(stats.evictions)
        self.metrics.gauge("serve.cache.hit_rate").set(stats.hit_rate)
        self.metrics.gauge(
            "serve.cache.compiles",
            "programs actually compiled in this process").set(stats.compiles)
        self.metrics.gauge(
            "serve.cache.disk_hits",
            "misses served by binding a persisted artifact").set(
                stats.disk_hits)
        self.metrics.gauge(
            "serve.cache.disk_writes").set(stats.disk_writes)
        self.metrics.gauge(
            "serve.cache.prebuilt_plans_dropped",
            "evictions that discarded an already-lowered plan").set(
                stats.prebuilt_plans_dropped)
        self.metrics.gauge(
            "serve.cache.plan_version_miss",
            "persisted artifacts recompiled due to plan version skew").set(
                stats.plan_version_miss)
        self.metrics.gauge(
            "serve.cache.compile_seconds_total").set(
                stats.compile_seconds_total)
        self.metrics.gauge(
            "serve.cache.corrupt_entries",
            "persisted artifacts quarantined as corrupt").set(
                stats.corrupt_entries)
        self.metrics.gauge(
            "serve.cache.verify_rejects",
            "persisted artifacts quarantined by the plan verifier").set(
                stats.verify_rejects)
        if self.checkpoints is not None:
            self.metrics.gauge(
                "serve.checkpoint.store_writes",
                "checkpoint files written by the store").set(
                    self.checkpoints.writes)
            self.metrics.gauge(
                "serve.checkpoint.store_corrupt",
                "checkpoint files quarantined as corrupt").set(
                    self.checkpoints.corrupt)
        # serve.queue_depth and serve.sessions_live are callback gauges
        # registered at construction: they sample live state on every
        # read and need no refresh here.
        per_program: dict[str, float] = {}
        for entry in self.cache.entries():
            short = entry.key[:12]
            gauge = entry.meta.get("peak_gauge")
            if gauge is not None:
                per_program[
                    f"serve.peak_transient_bytes[program={short}]"
                ] = gauge.value
            report = entry.program.meta.get("report")
            if report is not None:
                per_program[
                    f"serve.compiled_peak_transient_bytes[program={short}]"
                ] = report.peak_transient_bytes
        self.metrics.replace_prefixed(
            ("serve.peak_transient_bytes[",
             "serve.compiled_peak_transient_bytes["), per_program)

    # -- internals -----------------------------------------------------------

    def _family_for(self, model, *, scheme, optimizer, options, loss,
                    logits, model_kwargs, model_id) -> ProgramFamily:
        optimizer = optimizer or SGD(lr=0.01)
        options = options or CompileOptions()
        model_kwargs = dict(model_kwargs or {})
        if callable(model) and not isinstance(model, str):
            if model_id is None:
                raise ServeError(
                    "callable model builders need an explicit model_id"
                )
            build = lambda batch: model(batch, **model_kwargs)  # noqa: E731
        else:
            model_id = model_id or str(model)
            build = lambda batch: build_model(  # noqa: E731
                model, batch=batch, **model_kwargs)

        # Cheap pre-key so identical create_session calls reuse the family
        # without rebuilding/fingerprinting the forward graph every time.
        probe = json.dumps({
            "model_id": model_id,
            "kwargs": {k: repr(v) for k, v in sorted(model_kwargs.items())},
            "scheme": scheme if isinstance(scheme, str)
            else [scheme.name, sorted(scheme.updates.items())],
            "optimizer": repr(optimizer),
            "options": repr(options),
            "loss": loss,
            "logits": logits,
        }, sort_keys=True)
        with self._family_lock:
            family = self._families.get(probe)
        if family is not None:
            return family

        # Built once, reused both for named-scheme resolution and as the
        # family's bucket-1 template graph.
        forward_1 = build(1)
        if isinstance(scheme, str):
            try:
                resolver = SCHEME_RESOLVERS[scheme]
            except KeyError:
                raise ServeError(
                    f"unknown scheme {scheme!r}; named schemes: "
                    f"{sorted(SCHEME_RESOLVERS)}"
                ) from None
            scheme = resolver(forward_1)
        family = ProgramFamily(self, build, model_id, scheme, optimizer,
                               options, loss, logits, forward_1=forward_1)
        # What a checkpoint needs to rebuild this family in a fresh
        # process. Registry-key models round-trip completely; callable
        # builders record model=None, and restore then requires the
        # caller to supply the callable again (checked against model_id).
        family.restore_config = {
            "model": model if isinstance(model, str) else None,
            "model_id": model_id,
            "model_kwargs": model_kwargs,
            "scheme": {"name": scheme.name, "updates": dict(scheme.updates)},
            "optimizer": {"family": optimizer.family,
                          "params": asdict(optimizer)},
            "loss": loss,
            "logits": logits,
        }
        with self._family_lock:
            # Two threads may have built the family concurrently; the
            # canonical program key decides the winner so both end up
            # sharing one object (and one cache entry either way).
            existing = self._families.get(probe)
            if existing is not None:
                return existing
            self._families[probe] = family
        return family

    def _run_batch(self, session: TenantSession,
                   batch: list[StepRequest]) -> StepResult:
        family = session.family
        entry = family.bucket(len(batch))
        if len(batch) == 1:
            x = batch[0].x[None, ...]
            y = batch[0].y[None, ...]
        else:
            x = np.stack([request.x for request in batch])
            y = np.stack([request.y for request in batch])
        feeds = {family.input_name: x, family.labels_name: y}
        traces = [request.trace for request in batch
                  if request.trace is not None]
        trace_ids = tuple(t.request_id for t in traces)
        sample = self.tracer.should_sample()
        kernel_events: list[tuple[str, str, float, float]] = []
        began = perf_counter()
        if self.engine is not None:
            # Data-plane step: ship the session's mutable overlay and the
            # micro-batch to a worker holding the bound plan artifact; copy
            # the updated overlay back *into* the session arrays (never
            # rebind — snapshots and live views stay coherent). The trace
            # carrier rides along so the worker can stamp its events with
            # our request IDs; its observations come back *in the result*
            # (workers never share trace state, so a killed worker can't
            # tear the span ring).
            carrier = TraceCarrier(request_ids=trace_ids, sample=sample) \
                if trace_ids or sample else None
            with session.lock:
                fetched, new_state, peak_bytes, fresh_allocs, obs_payload = \
                    self.engine.run_step(
                        entry.meta.get("artifact_path"), entry.key,
                        session.state, feeds, fetch=(family.loss_name,),
                        trace=carrier)
                if new_state is not session.state:
                    # pickle channel: the worker mutated its own unpickled
                    # copies; land them back in the session arrays. The shm
                    # channel returns the session dict itself (the engine
                    # already copied the shared-memory views back).
                    for name, array in new_state.items():
                        session.state[name][...] = array
            loss = float(fetched[family.loss_name])
            if obs_payload is not None:
                self.tracer.record_worker_step(obs_payload, session.id)
        else:
            executor = session.executor_for(entry.key, entry.program)
            with session.lock:
                # instr_observer install/removal happens under the session
                # lock that also serializes executor.run, so a sampled
                # batch never records another batch's kernels.
                if sample:
                    executor.instr_observer = \
                        lambda instr, t0, t1: kernel_events.append(
                            (instr.node.op_type, instr.variant, t0, t1))
                try:
                    out = executor.run(feeds)
                finally:
                    executor.instr_observer = None
            loss = float(out[family.loss_name])
            peak_bytes = executor.peak_transient_bytes
            fresh_allocs = executor.last_step_fresh_allocs
            if kernel_events:
                self.tracer.record_kernels(
                    kernel_events, pid=os.getpid(),
                    request_ids=trace_ids, session_id=session.id)
        ended = perf_counter()
        elapsed_ms = (ended - began) * 1e3
        session.last_execute_s = ended - began
        session.record(loss, len(batch))
        if self._checkpoint_due(session):
            # Auto-checkpoint rides the step that crossed the threshold;
            # a failed write must not fail the step (the update is already
            # applied) — count it and keep serving.
            try:
                self.checkpoint_session(session.id)
            except Exception as exc:  # noqa: BLE001 - durability best-effort
                self._checkpoint_errors.inc()
                logger.warning("auto-checkpoint of %s failed: %s",
                               session.id, exc)
        self._steps_total.inc()
        self._examples_total.inc(len(batch))
        self._step_latency.observe(elapsed_ms)
        self._step_allocs.observe(float(fresh_allocs))
        self._step_peak_bytes.set(float(peak_bytes))
        # High-water mark travels with the cache entry (and dies with it on
        # eviction); _sync_cache_metrics publishes only live entries, so
        # per-program gauge cardinality stays bounded by the cache.
        peak = entry.meta.setdefault(
            "peak_gauge", Gauge(f"peak[{entry.key[:12]}]"))
        peak.max(peak_bytes)
        for request in batch:
            if request.trace is None:
                continue
            # batch_wait: cut from the queue until the batch hit the
            # engine (bucket compile on a cold cache lands here too).
            request.trace.add("batch_wait", request.cut_at, began)
            request.trace.add("execute", began, ended)
            self.tracer.maybe_log_slow(
                request.trace, loss=loss, step=session.steps,
                batch_size=len(batch), program_key=entry.key[:12],
                peak_transient_bytes=int(peak_bytes))
        return StepResult(
            session_id=session.id,
            loss=loss,
            step=session.steps,
            batch_size=len(batch),
            program_key=entry.key,
        )

    def _record_compile(self, family: ProgramFamily, key: str, program,
                        elapsed_ms: float) -> None:
        self._compile_latency.observe(elapsed_ms)

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once close/shutdown has begun; submits are refused."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service is closed")

    def close(self, wait: bool = True) -> None:
        self.shutdown(drain_timeout=None if wait else 0.0)

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Close with a bound on how long queued work may hold us up.

        ``drain_timeout=None`` waits for every queued request (exactly
        ``close(wait=True)``); a finite timeout drains for at most that
        long and then cancels whatever is still queued. Either way every
        outstanding future is *settled* — resolved, failed, or cancelled,
        never left hanging — which is what a front door needs on Ctrl-C.
        Returns True when the queue drained fully.
        """
        if self._closed:
            return True
        # Refuse new service-level submits first so the drain below races
        # only work that was already accepted.
        self._closed = True
        if drain_timeout is None:
            self.scheduler.close(wait=True)
            drained = True
        else:
            drained = drain_timeout > 0 \
                and self.scheduler.drain(timeout=drain_timeout)
            self.scheduler.close(wait=drained)
        if self.engine is not None:
            self.engine.shutdown(wait=drained)
        if self._owned_cache_dir is not None:
            self._owned_cache_dir.cleanup()
            self._owned_cache_dir = None
        return drained

    def __enter__(self) -> "FineTuneService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
