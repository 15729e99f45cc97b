"""Micro-batch scheduler: coalesce same-session step requests, fan out.

Requests arrive as single training examples. The scheduler keeps a FIFO
queue per session, and a dispatcher thread that cuts the head of a queue
into the largest power-of-two micro-batch that fits (``bucket sizes`` —
each bucket size maps to a separately cached program variant compiled for
that batch, which is why the program cache keys include input shapes).
Batches run on a thread worker pool.

Invariants:

* per-session FIFO order — a session's requests are executed in arrival
  order, never concurrently with each other (tenant state is mutable);
* round-robin fairness across sessions with pending work;
* work conservation — a dispatchable batch is dispatched immediately, the
  scheduler never waits for a bucket to fill.

Semantics of a coalesced batch: one optimizer update from the mean loss
over its examples (exactly gradient accumulation at the serving layer).
``max_batch=1`` degrades to strict per-request sequential SGD.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..errors import DeadlineExpired, ServeError, ServiceClosed
from ..obs import TraceContext
from .metrics import MetricsRegistry
from .sessions import TenantSession


@dataclass
class StepRequest:
    """A single-example training step submitted to the service."""

    session: TenantSession
    x: np.ndarray
    y: np.ndarray
    future: Future = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.perf_counter)
    #: request trace context (spans publish through the service tracer)
    trace: TraceContext | None = None
    #: perf_counter when the request was cut out of the queue into an
    #: executing batch (end of queue_wait, start of batch_wait)
    cut_at: float = 0.0
    #: absolute end-to-end deadline on time.monotonic(), or None; expired
    #: requests are shed at batch-cut time instead of executed
    deadline: float | None = None
    #: client idempotency key; the executed result is recorded in the
    #: session's dedupe window under this key before the future resolves
    idem_key: str | None = None


@dataclass(frozen=True)
class StepResult:
    """What a fulfilled step future resolves to."""

    session_id: str
    loss: float
    step: int          #: session step counter after this update
    batch_size: int    #: examples coalesced into the update
    program_key: str
    #: per-stage span durations in ms for *this* request (None when the
    #: request carried no trace context)
    timings: dict[str, float] | None = None
    #: True when this result was served from the session's idempotency
    #: window instead of re-applying the step (a retry after a dropped
    #: connection); the optimizer ran exactly once either way
    replayed: bool = False


def bucket_sizes(max_batch: int) -> list[int]:
    """Allowed micro-batch sizes: powers of two up to, plus, ``max_batch``."""
    if max_batch < 1:
        raise ServeError(f"max_batch must be >= 1, got {max_batch}")
    sizes = {1, max_batch}
    size = 2
    while size <= max_batch:
        sizes.add(size)
        size *= 2
    return sorted(sizes)


#: Executes one coalesced batch for one session; returns the shared result
#: fields (loss, program key) the scheduler expands into per-request
#: StepResults.
BatchRunner = Callable[[TenantSession, list[StepRequest]], StepResult]


class BatchScheduler:
    """Groups step requests into micro-batches and runs them on a pool."""

    def __init__(self, run_batch: BatchRunner, *, max_batch: int = 8,
                 workers: int = 2,
                 metrics: MetricsRegistry | None = None,
                 batch_hold_ms: float = 0.0) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if batch_hold_ms < 0:
            raise ServeError(
                f"batch_hold_ms must be >= 0, got {batch_hold_ms}")
        self.max_batch = max_batch
        self._buckets = bucket_sizes(max_batch)
        self._run_batch = run_batch
        self._workers_n = workers
        #: batch-aware dispatch: with every worker busy, an executing
        #: session may linger this long before cutting its batch so the
        #: queue refills a larger micro-batch bucket (0 = off, the
        #: work-conserving default). The hold is additionally bounded by
        #: the tightest deadline slack among the queued requests.
        self._hold_s = batch_hold_ms / 1e3
        self._metrics = metrics or MetricsRegistry()
        self._batch_hist = self._metrics.histogram(
            "serve.batch_size", "examples coalesced per executed step")
        self._batch_fill = self._metrics.histogram(
            "serve.batch_fill",
            "executed batch size as a fraction of max_batch")
        self._request_latency = self._metrics.histogram(
            "serve.request_latency_ms", "submit-to-result latency")
        self._batches_total = self._metrics.counter(
            "serve.batches_total", "micro-batches executed")
        self._deadline_expired = self._metrics.counter(
            "serve.deadline_expired",
            "requests shed because their end-to-end deadline passed")
        self._claims_run = self._metrics.counter(
            "serve.claims_run_total",
            "claimed steps run as a batch of one on the claiming thread")
        self._claims_released = self._metrics.counter(
            "serve.claims_released_total",
            "claimed steps handed to the worker pool instead")
        # Live, not set-on-render: the gateway's admission control and
        # /v1/metrics read this between renders, so it samples the real
        # queues on every read instead of whatever the last render saw.
        self._metrics.callback_gauge(
            "serve.queue_depth", self.queue_depth,
            "requests queued behind executing batches (live)")

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: dict[str, deque[StepRequest]] = {}
        self._ready: deque[str] = deque()   # sessions awaiting dispatch
        self._sessions: dict[str, TenantSession] = {}
        self._inflight: set[str] = set()
        #: the one request claimed by an idle-time submit and not yet run
        #: or released; its session is in ``_inflight`` meanwhile
        self._claim: StepRequest | None = None
        #: sessions whose executed batch's futures are still being resolved
        #: — a later batch of one waits its turn, so a session's acks
        #: resolve in step order; keeps drain() meaning "and every result
        #: delivered"
        self._acking: set[str] = set()
        self._closing = False
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()

    # -- producer side -------------------------------------------------------

    def submit(self, session: TenantSession, x: np.ndarray,
               y: np.ndarray,
               trace: TraceContext | None = None,
               submitted_at: float | None = None,
               deadline: float | None = None,
               idem_key: str | None = None,
               claim: bool = False) -> Future:
        """Enqueue one single-example step; returns a Future[StepResult].

        ``submitted_at`` backdates the queue_wait span to when the caller
        accepted the request (the service passes its own entry time so
        validation/copy overhead is attributed to queueing, not lost
        between spans); default is now. ``deadline`` (absolute, on
        ``time.monotonic()``) sheds the request at batch-cut time if it
        has already expired — the future fails with
        :class:`~repro.errors.DeadlineExpired` and no work runs.

        With ``claim`` set and nothing queued or in flight, the request is
        queued and its session marked in flight *without* waking the
        dispatcher: the caller owns it and must settle it with
        :meth:`run_claimed` or :meth:`release_claim` (until then
        :meth:`drain` waits for it). When the scheduler is busy the claim
        is simply not taken and the request queues as usual.
        """
        request = StepRequest(session=session, x=x, y=y, trace=trace,
                              deadline=deadline, idem_key=idem_key)
        if submitted_at is not None:
            request.submitted_at = submitted_at
        with self._work:
            if self._closing:
                raise ServiceClosed("scheduler is closed")
            if claim and not self._queues and not self._inflight:
                self._queues[session.id] = deque((request,))
                self._sessions[session.id] = session
                self._inflight.add(session.id)
                self._claim = request
                return request.future
            queue = self._queues.get(session.id)
            if queue is None:
                queue = self._queues[session.id] = deque()
                self._sessions[session.id] = session
            queue.append(request)
            if session.id not in self._inflight \
                    and session.id not in self._ready:
                self._ready.append(session.id)
            # notify_all: the dispatcher and any batch-hold waiters share
            # this condition; a single notify could wake only a holder and
            # strand the dispatcher until the next submit
            self._work.notify_all()
        return request.future

    def run_claimed(self, future: Future) -> StepResult | None:
        """Run the claimed request behind ``future`` on the calling thread.

        If that request is still the scheduler's only work, it runs as a
        batch of one right here and its :class:`StepResult` is returned
        (the batch's error is raised); ``future`` resolves as well, for
        any retry attached to it. Otherwise — other work arrived since the
        claim, or ``future`` holds no claim — the request goes to the
        dispatcher and None is returned: await ``future`` as usual. None
        also means the request was shed or cancelled before it ran;
        ``future`` says why.
        """
        with self._work:
            request = self._claim
            if request is None or request.future is not future:
                return None
            self._claim = None
            session_id = request.session.id
            queue = self._queues.get(session_id)
            if queue is None or len(queue) > 1 or len(self._queues) > 1 \
                    or len(self._inflight) > 1:
                self._release_locked(session_id)
                return None
        self._claims_run.inc()
        # A claimed run never holds for fill: while it holds the caller's
        # thread, nothing else that could fill the batch gets to submit.
        outcomes, error = self._execute(session_id, hold=False)
        if error is not None:
            raise error
        # a submit from another thread may have joined the batch since
        # the check above; the claimed request is still the first
        for done, final in outcomes:
            if done is request:
                return final
        return None

    def release_claim(self, future: Future) -> None:
        """Hand the claimed request behind ``future`` to the dispatcher
        (a no-op once it has run or been released)."""
        with self._work:
            request = self._claim
            if request is not None and request.future is future:
                self._claim = None
                self._release_locked(request.session.id)

    def _release_locked(self, session_id: str) -> None:
        """(lock held) Drop a claim's in-flight mark; queue what is left."""
        self._claims_released.inc()
        self._inflight.discard(session_id)
        if session_id in self._queues and session_id not in self._ready:
            self._ready.append(session_id)
        self._work.notify_all()
        self._idle.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every queued request has been executed and its
        future resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queues or self._inflight or self._acking:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def pending(self, session_id: str) -> bool:
        """Whether ``session_id`` has queued or in-flight requests."""
        with self._work:
            return session_id in self._queues or session_id in self._inflight

    def queue_depth(self) -> int:
        """Requests queued but not yet cut into an executing batch.

        The backpressure signal for the serving layer: with the process
        backend this is what grows when the worker pool saturates.
        """
        with self._work:
            return sum(len(queue) for queue in self._queues.values())

    @property
    def closing(self) -> bool:
        """True once :meth:`close` has begun; submits are being refused."""
        return self._closing

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for queued work to finish.

        Close-vs-submit ordering is deterministic: the *first* thing close
        does is flip the scheduler into closing state, so any ``submit``
        that races it either happened-before (its future is drained or
        cancelled like every other queued request, never silently lost) or
        happened-after (it raises ``ServeError``). Without this, a submit
        landing between ``drain()`` returning and the closed flag being
        set would be accepted and then cancelled despite ``wait=True``.

        With ``wait=False``, still-queued requests are cancelled (their
        futures report ``CancelledError``) instead of hanging forever;
        batches already on a worker run to completion in the background.
        """
        with self._work:
            self._closing = True
        if wait:
            self.drain()
        with self._work:
            if self._closed:
                return
            self._closed = True
            stranded = [request for queue in self._queues.values()
                        for request in queue]
            self._queues.clear()
            self._sessions.clear()
            self._ready.clear()
            self._work.notify_all()
        for request in stranded:
            if request.idem_key is not None:
                request.session.release(request.idem_key)
            request.future.cancel()
        self._dispatcher.join(timeout=5)
        self._pool.shutdown(wait=wait)

    # -- dispatcher / workers ------------------------------------------------

    def _cut_batch(self, queue: deque[StepRequest]) -> list[StepRequest]:
        pending = len(queue)
        size = 1
        for bucket in self._buckets:
            if bucket <= min(pending, self.max_batch):
                size = bucket
        return [queue.popleft() for _ in range(size)]

    def _hold_for_fill(self, queue: deque[StepRequest]) -> None:
        """Batch-aware dispatch: linger briefly while workers are saturated.

        Called with the scheduler lock held, on the worker thread about to
        cut ``queue`` into a batch. When every pool worker is busy (this
        one included), latency is queue-bound anyway — waiting up to the
        hold budget for the queue to refill a larger micro-batch bucket
        costs little and buys coalescing. The wait is bounded by the
        tightest deadline slack among the already-queued requests, so a
        hold can never push a request past its deadline. Work conservation
        is preserved in the only case it matters: with a free worker
        available, no hold happens at all.
        """
        if len(queue) >= self.max_batch \
                or len(self._inflight) < self._workers_n:
            return
        cap = self._hold_s
        now = time.monotonic()
        for request in queue:
            if request.deadline is not None:
                cap = min(cap, request.deadline - now - 0.002)
        if cap <= 0:
            return
        hold_until = time.monotonic() + cap
        while len(queue) < self.max_batch and not self._closed \
                and len(self._inflight) >= self._workers_n:
            remaining = hold_until - time.monotonic()
            if remaining <= 0:
                break
            self._work.wait(remaining)

    def _dispatch_loop(self) -> None:
        # The dispatcher only marks a session in-flight and hands it to the
        # pool; the worker cuts the actual micro-batch when it *starts*
        # executing. Requests that arrive while the session waits for a
        # free worker still coalesce into the batch — dispatch-time cutting
        # would freeze the batch too early and waste coalescing under load.
        while True:
            with self._work:
                while not self._ready and not self._closed:
                    self._work.wait()
                if self._closed and not self._ready:
                    return
                session_id = self._ready.popleft()
                self._inflight.add(session_id)
            self._pool.submit(self._execute, session_id)

    def _execute(self, session_id: str, hold: bool = True
                 ) -> tuple[list[tuple[StepRequest, StepResult]],
                            BaseException | None]:
        """Cut and run one batch of ``session_id``; returns the resolved
        ``(request, result)`` pairs and the batch's error, if any."""
        with self._work:
            session = self._sessions.get(session_id)
            if session is None:
                # close(wait=False) cancelled this session's queue between
                # dispatch and execution; nothing left to run.
                self._inflight.discard(session_id)
                self._idle.notify_all()
                return [], None
            queue = self._queues.get(session_id)
            if queue is None:
                self._inflight.discard(session_id)
                self._idle.notify_all()
                return [], None
            if hold and self._hold_s > 0.0:
                self._hold_for_fill(queue)
            batch = self._cut_batch(queue)
            if not queue:
                self._queues.pop(session_id, None)
                self._sessions.pop(session_id, None)
        # Client-cancelled requests drop out of the batch here; marking the
        # rest as running also makes their futures uncancellable, so the
        # optimizer step and the resolved results can't disagree. A
        # cancelled request's idempotency claim is released so a later
        # retry with the same key re-executes instead of attaching to a
        # dead future.
        live = []
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            elif request.idem_key is not None:
                request.session.release(request.idem_key)
        batch = live
        # Shed already-expired work *before* it costs an optimizer step:
        # nobody is waiting for these results (the gateway answered 504,
        # or will the moment the future fails), so executing them would
        # only burn a worker a saturated queue needs elsewhere.
        now = time.monotonic()
        expired = [request for request in batch
                   if request.deadline is not None
                   and now > request.deadline]
        if expired:
            batch = [request for request in batch
                     if request not in expired]
            self._deadline_expired.inc(len(expired))
            for request in expired:
                if request.idem_key is not None:
                    request.session.release(request.idem_key)
                request.future.set_exception(DeadlineExpired(
                    f"deadline passed {now - request.deadline:.3f}s before "
                    f"the step was cut from the queue"))
        cut = time.perf_counter()
        for request in batch:
            request.cut_at = cut
            if request.trace is not None:
                request.trace.add("queue_wait", request.submitted_at, cut)
        # Run first, acknowledge last: "ack" and "not busy" must be one
        # transition, so the session leaves ``_inflight`` *before* any
        # future resolves. A client holding a step response may immediately
        # close or checkpoint the session; it must never see ``pending()``
        # still true for the step it was just acked. A batch that ran while
        # the session's previous one is still acking waits its turn (still
        # in flight), so no ack of step N+1 overtakes one of step N.
        outcomes: list = []
        error: BaseException | None = None
        try:
            if batch:
                result = self._run_batch(session, batch)
                done = time.perf_counter()
                self._batches_total.inc()
                self._batch_hist.observe(len(batch))
                self._batch_fill.observe(len(batch) / self.max_batch)
                for request in batch:
                    self._request_latency.observe(
                        (done - request.submitted_at) * 1e3)
                    final = result if request.trace is None else replace(
                        result, timings=request.trace.timings_ms())
                    if request.idem_key is not None:
                        # Recorded before the future resolves: a client
                        # that receives the ack and instantly retries the
                        # same key must hit the window, never re-execute.
                        session.remember(request.idem_key, final)
                    outcomes.append((request, final))
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            error = exc
            for request in batch:
                if request.idem_key is not None:
                    request.session.release(request.idem_key)
        finally:
            with self._work:
                while session_id in self._acking:
                    self._idle.wait()
                self._inflight.discard(session_id)
                if session_id in self._queues \
                        and session_id not in self._ready:
                    self._ready.append(session_id)
                    self._work.notify_all()
                self._acking.add(session_id)
        try:
            if error is not None:
                for request in batch:
                    request.future.set_exception(error)
            else:
                for request, final in outcomes:
                    request.future.set_result(final)
        finally:
            with self._idle:
                self._acking.discard(session_id)
                self._idle.notify_all()
        return outcomes, error
