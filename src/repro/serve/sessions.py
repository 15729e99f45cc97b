"""Per-tenant session state over shared compiled programs.

A compiled :class:`~repro.runtime.Program` is immutable apart from its
``state`` mapping, and one training step only ever writes the entries that
in-place ``apply_*`` nodes touch — the scheme's updated parameters plus
their optimizer slots (:meth:`Program.mutable_state_names`). That makes a
program shareable across any number of tenants: each session owns a private
copy of exactly the mutable entries, and executes through a program *view*
(:meth:`Program.with_state`) that overlays them on the shared template.

Frozen weights, folded constants, graph, schedule: all shared, read-only.
Two sessions can therefore never observe each other's training state — the
only arrays a step writes belong to the session that ran it. (The paper's
sparse-update story is what makes this overlay small: a session's footprint
is the updated tensors, not the model.)
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ..errors import ServeError
from ..runtime import Executor, Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .service import ProgramFamily

#: recorded (idempotency key -> result) pairs retained per session; a
#: retry older than this window re-executes, so the window must exceed a
#: client's worst-case in-flight retries (it comfortably does: retries
#: target the most recent step)
IDEMPOTENCY_WINDOW = 128

_SESSION_ID_RE = re.compile(r"^sess-(\d+)$")


class TenantSession:
    """One tenant's mutable fine-tuning state bound to a program family."""

    def __init__(self, session_id: str, tenant: str,
                 family: "ProgramFamily",
                 template_state: dict[str, np.ndarray]) -> None:
        self.id = session_id
        self.tenant = tenant
        self.family = family
        #: private overlay: updated params + optimizer slots, mutated in
        #: place by the apply kernels through program views
        self.state = {name: array.copy()
                      for name, array in template_state.items()}
        #: serializes steps; the scheduler also guarantees one in-flight
        #: batch per session, this is the defence in depth for direct use
        self.lock = threading.RLock()
        self.steps = 0
        self.examples = 0
        self.last_loss = math.nan
        self.loss_history: deque[float] = deque(maxlen=512)
        #: monotonic count of optimizer updates ever applied to this
        #: session's state, *including* applications before a restore —
        #: the checkpoint version number and the dedupe anchor
        self.step_seq = 0
        #: optimizer updates applied since the last checkpoint write
        #: (drives --checkpoint-every)
        self.steps_since_checkpoint = 0
        #: wall seconds of the session's last executed step (None until
        #: the first): the bound that lets the service run the next step
        #: on the submitting thread
        self.last_execute_s: float | None = None
        # Idempotent replay bookkeeping. Guarded by its own small RLock,
        # NOT self.lock: the session lock is held across whole engine
        # steps, and a dedupe probe must never block behind one. The
        # lock is public (RLock) so the service can make its
        # check-window -> enqueue -> register-pending sequence atomic
        # against a concurrent retry carrying the same key.
        self.idem_lock = threading.RLock()
        self._idem_results: OrderedDict[str, Any] = OrderedDict()
        self._idem_pending: dict[str, Future] = {}
        #: monotonic timestamp of the last request touching this session
        #: (maintained by the SessionManager; drives TTL/idle-LRU eviction)
        self.last_used = 0.0
        self._executors: dict[str, Executor] = {}

    def executor_for(self, key: str, program: Program) -> Executor:
        """The session's executor over ``program`` with its state overlaid.

        Executors are created once per (session, compiled program) and
        reused for every subsequent step — the steady-state step path
        allocates no new engine objects. Each executor runs the variant's
        shared :class:`~repro.runtime.plan.ExecutionPlan` (the state
        overlay shares ``meta``, where the plan is cached) over its own
        registers and state. The slab of intermediates is not the
        session's: each step borrows one from the plan's pool and returns
        it, so a plan holds as many slabs as steps ever ran at once, not
        one per session.
        """
        executor = self._executors.get(key)
        if executor is None:
            executor = Executor(program.with_state(self.state))
            self._executors[key] = executor
        return executor

    def record(self, loss: float, batch_size: int) -> None:
        with self.lock:
            self.steps += 1
            self.step_seq += 1
            self.steps_since_checkpoint += 1
            self.examples += batch_size
            self.last_loss = loss
            self.loss_history.append(loss)

    # -- idempotent step replay ----------------------------------------------

    def recall(self, key: str):
        """The recorded result for ``key``, or None (window miss)."""
        with self.idem_lock:
            result = self._idem_results.get(key)
            if result is not None:
                self._idem_results.move_to_end(key)
            return result

    def pending_future(self, key: str) -> Future | None:
        """The in-flight future already carrying ``key``, if any — a
        concurrent retry attaches to it instead of enqueuing a duplicate
        step."""
        with self.idem_lock:
            return self._idem_pending.get(key)

    def note_pending(self, key: str, future: Future) -> None:
        with self.idem_lock:
            self._idem_pending[key] = future

    def remember(self, key: str, result) -> None:
        """Record ``key``'s result (called *before* the future resolves,
        so a client that acks and instantly retries always hits the
        window) and retire the pending claim."""
        with self.idem_lock:
            self._idem_pending.pop(key, None)
            self._idem_results[key] = result
            self._idem_results.move_to_end(key)
            while len(self._idem_results) > IDEMPOTENCY_WINDOW:
                self._idem_results.popitem(last=False)

    def release(self, key: str) -> None:
        """Drop a pending claim whose step failed — the retry re-executes."""
        with self.idem_lock:
            self._idem_pending.pop(key, None)

    def idempotency_window(self) -> dict[str, Any]:
        """Snapshot of the recorded (key -> result) window."""
        with self.idem_lock:
            return dict(self._idem_results)

    def restore_idempotency(self, window: dict[str, Any]) -> None:
        with self.idem_lock:
            self._idem_results = OrderedDict(window)
            while len(self._idem_results) > IDEMPOTENCY_WINDOW:
                self._idem_results.popitem(last=False)

    def restore_counters(self, *, step_seq: int, steps: int, examples: int,
                         last_loss: float) -> None:
        """Install counters from a checkpoint (restore path)."""
        with self.lock:
            self.step_seq = step_seq
            self.steps = steps
            self.examples = examples
            self.last_loss = last_loss
            self.steps_since_checkpoint = 0

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the session's mutable state (checkpointable)."""
        with self.lock:
            return {name: array.copy() for name, array in self.state.items()}

    def load(self, weights: dict[str, np.ndarray]) -> None:
        """Install values into the session's mutable state.

        Copies **into** the existing arrays (never rebinds) so every live
        executor view observes the new values. Only mutable entries can be
        loaded: frozen weights are shared across tenants by construction —
        a tenant needing different frozen weights is a different model,
        i.e. a different program family.
        """
        with self.lock:
            for name, value in weights.items():
                target = self.state.get(name)
                if target is None:
                    raise ServeError(
                        f"session {self.id}: {name!r} is not part of the "
                        f"mutable session state; loadable entries: "
                        f"{sorted(self.state)}"
                    )
                value = np.asarray(value)
                if value.shape != target.shape:
                    raise ServeError(
                        f"session {self.id}: {name!r} expects shape "
                        f"{target.shape}, got {value.shape}"
                    )
                target[...] = value.astype(target.dtype, copy=False)

    def state_bytes(self) -> int:
        return sum(array.nbytes for array in self.state.values())


class SessionManager:
    """Creates, resolves, evicts, and retires tenant sessions (thread-safe).

    Two eviction policies bound the fleet's session-state footprint:

    * **TTL** (``ttl`` seconds): :meth:`sweep` retires sessions idle longer
      than the TTL. The serving layer calls it opportunistically on the
      request path (throttled internally to at most ~1/s).
    * **idle-LRU at the cap** (``max_sessions``): :meth:`create` evicts the
      least-recently-used idle session to make room; if every session is
      busy (queued or in-flight work, per the ``busy`` predicate), creation
      fails instead of corrupting a live tenant.

    Evicted sessions simply vanish — their mutable state is dropped, and a
    later request for the id gets the usual unknown-session error. Tenants
    that care checkpoint via ``snapshot()``/``close_session``. ``on_evict``
    (e.g. a metrics hook) fires once per evicted session.
    """

    def __init__(self, max_sessions: int | None = None,
                 ttl: float | None = None,
                 busy: Callable[[str], bool] | None = None,
                 on_evict: Callable[[TenantSession], None] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ServeError(
                f"max_sessions must be >= 1, got {max_sessions}")
        if ttl is not None and ttl <= 0:
            raise ServeError(f"ttl must be > 0, got {ttl}")
        self.max_sessions = max_sessions
        self.ttl = ttl
        self._busy = busy or (lambda session_id: False)
        self._on_evict = on_evict
        self._clock = clock
        self._sessions: dict[str, TenantSession] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._last_sweep = clock()
        #: lifetime count of TTL/LRU evictions
        self.evicted = 0

    def create(self, family: "ProgramFamily", tenant: str | None = None,
               weights: dict[str, np.ndarray] | None = None) -> TenantSession:
        with self._lock:
            session_id = f"sess-{self._next_id:04d}"
            self._next_id += 1
        tenant = tenant or session_id
        session = TenantSession(session_id, tenant, family,
                                family.template_state())
        if weights:
            session.load(weights)
        session.last_used = self._clock()
        evicted: list[TenantSession] = []
        with self._lock:
            if self.max_sessions is not None \
                    and len(self._sessions) >= self.max_sessions:
                evicted = self._evict_idle_locked(
                    len(self._sessions) - self.max_sessions + 1)
                if len(self._sessions) >= self.max_sessions:
                    self._notify(evicted)
                    raise ServeError(
                        f"session limit {self.max_sessions} reached and "
                        f"every session is busy; close or drain one first")
            self._sessions[session_id] = session
        self._notify(evicted)
        return session

    def adopt(self, session: TenantSession) -> TenantSession:
        """Install a pre-built session under its *existing* id (restore).

        Refuses when the id is already live — restoring over a running
        session would fork its state. Applies the same at-capacity
        idle-LRU eviction as :meth:`create`, and bumps the id counter
        past numeric ``sess-NNNN`` ids so later :meth:`create` calls can
        never collide with a restored id.
        """
        session.last_used = self._clock()
        evicted: list[TenantSession] = []
        with self._lock:
            if session.id in self._sessions:
                raise ServeError(
                    f"session {session.id!r} is already open; close it "
                    f"before restoring a checkpoint over it")
            if self.max_sessions is not None \
                    and len(self._sessions) >= self.max_sessions:
                evicted = self._evict_idle_locked(
                    len(self._sessions) - self.max_sessions + 1)
                if len(self._sessions) >= self.max_sessions:
                    self._notify(evicted)
                    raise ServeError(
                        f"session limit {self.max_sessions} reached and "
                        f"every session is busy; close or drain one first")
            match = _SESSION_ID_RE.match(session.id)
            if match is not None:
                self._next_id = max(self._next_id, int(match.group(1)) + 1)
            self._sessions[session.id] = session
        self._notify(evicted)
        return session

    def get(self, session_id: str) -> TenantSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServeError(f"unknown session {session_id!r}")
        session.last_used = self._clock()
        return session

    def sweep(self, force: bool = False) -> list[TenantSession]:
        """Retire sessions idle past the TTL; returns the evicted ones.

        Cheap enough for the request path: without a TTL it is a no-op,
        and with one it self-throttles to roughly one scan per second
        unless ``force`` is set (tests, explicit maintenance).
        """
        if self.ttl is None:
            return []
        now = self._clock()
        with self._lock:
            if not force and now - self._last_sweep < 1.0:
                return []
            self._last_sweep = now
            expired = [
                session for session in self._sessions.values()
                if now - session.last_used > self.ttl
                and not self._busy(session.id)
            ]
            for session in expired:
                del self._sessions[session.id]
            self.evicted += len(expired)
        self._notify(expired)
        return expired

    def _evict_idle_locked(self, need: int) -> list[TenantSession]:
        """Evict up to ``need`` idle sessions, least-recently-used first.

        Callers hold ``self._lock``. Busy sessions are never evicted.
        """
        idle = sorted(
            (s for s in self._sessions.values() if not self._busy(s.id)),
            key=lambda s: s.last_used)
        victims = idle[:need]
        for session in victims:
            del self._sessions[session.id]
        self.evicted += len(victims)
        return victims

    def _notify(self, evicted: list[TenantSession]) -> None:
        if self._on_evict is not None:
            for session in evicted:
                self._on_evict(session)

    def close(self, session_id: str) -> TenantSession:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServeError(f"unknown session {session_id!r}")
        return session

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __iter__(self) -> Iterator[TenantSession]:
        with self._lock:
            return iter(list(self._sessions.values()))
