"""Fault injection for the serving stack (tests only).

A *fault point* is a named place in the serving code where a failure can
be injected: the code calls :func:`fire` unconditionally, and ``fire`` is
a no-op unless that point has been explicitly armed. Arming happens from
tests (``FAULTS.arm(...)``; the crash and retry drills are in
``tests/test_durability.py``) or — for code running in spawned worker
processes, which share no Python state with the parent — through the
``REPRO_FAULTS`` environment variable.

Catalog of instrumented points:

====================================  =====================================
point                                 where it fires
====================================  =====================================
``checkpoint.write``                  mid-checkpoint-write, after the
                                      header but before the payload is
                                      complete (atomicity tests)
``checkpoint.read``                   before parsing a checkpoint file
                                      (corrupt-restore fallback tests)
``cache.artifact_read``               before binding a persisted program
                                      artifact (quarantine tests)
``gateway.reset_after_send``          after a step executed but before
                                      its HTTP response is written — the
                                      connection is dropped, simulating a
                                      response lost on the wire
``worker.step``                       inside a step worker's step
                                      (armed via ``REPRO_FAULTS`` since
                                      workers are spawned; typically with
                                      ``action="kill"`` for SIGKILL loops)
``disk.slow``                         before checkpoint/artifact disk IO
                                      (latency injection)
====================================  =====================================

Semantics of one armed point: it fires for the next ``times`` calls
(``times=None`` = every call) and each firing, in order, sleeps
``delay`` seconds, runs ``handler(**ctx)`` if given, SIGKILLs the
process if ``action="kill"``, and finally raises ``exc`` (default
:class:`~repro.errors.FaultInjected`) unless ``exc=None`` was armed
explicitly, in which case the call continues normally (pure delay /
handler faults).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import FaultInjected

#: the instrumented fault points (arming an unknown name is an error so
#: tests fail loudly when a point is renamed or removed)
FAULT_POINTS = frozenset({
    "checkpoint.write",
    "checkpoint.read",
    "cache.artifact_read",
    "gateway.reset_after_send",
    "worker.step",
    "disk.slow",
})

#: environment variable spawned workers read to arm faults at import:
#: a JSON object {point: {"times": N, "delay": S, "action": "kill"}}
FAULTS_ENV = "REPRO_FAULTS"


@dataclass
class _Armed:
    times: int | None = 1          #: firings remaining (None = unlimited)
    delay: float = 0.0             #: sleep this long per firing
    action: str | None = None      #: "kill" -> SIGKILL this process
    exc: BaseException | type[BaseException] | None = FaultInjected
    handler: Callable[..., None] | None = None
    skip: int = 0                  #: no-op the first ``skip`` calls
    fired: int = 0                 #: lifetime firings (observability)
    calls: int = 0                 #: lifetime calls while armed
    meta: dict[str, Any] = field(default_factory=dict)


class FaultRegistry:
    """Thread-safe registry of armed fault points."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, _Armed] = {}

    def arm(self, point: str, *, times: int | None = 1, delay: float = 0.0,
            action: str | None = None,
            exc: BaseException | type[BaseException] | None = FaultInjected,
            handler: Callable[..., None] | None = None,
            skip: int = 0) -> None:
        """Arm ``point`` to fire on its next ``times`` calls.

        ``skip`` lets a test target the Nth call (e.g. corrupt only the
        second checkpoint read). Re-arming replaces the previous arming.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; catalog: "
                f"{sorted(FAULT_POINTS)}")
        if action not in (None, "kill"):
            raise ValueError(f"unknown fault action {action!r}")
        with self._lock:
            self._armed[point] = _Armed(
                times=times, delay=delay, action=action, exc=exc,
                handler=handler, skip=skip)

    def disarm(self, point: str | None = None) -> None:
        """Disarm one point, or every point (``None``): test teardown."""
        with self._lock:
            if point is None:
                self._armed.clear()
            else:
                self._armed.pop(point, None)

    def armed(self, point: str) -> bool:
        with self._lock:
            armed = self._armed.get(point)
            return armed is not None \
                and (armed.times is None or armed.fired < armed.times)

    def fired(self, point: str) -> int:
        """Lifetime firings of ``point`` under its current arming."""
        with self._lock:
            armed = self._armed.get(point)
            return armed.fired if armed is not None else 0

    def fire(self, point: str, **ctx: Any) -> bool:
        """Fire ``point`` if armed; returns True when a fault ran.

        Called unconditionally from the instrumented sites — the fast
        path (nothing armed, the overwhelmingly common case) is one dict
        lookup under a lock.
        """
        with self._lock:
            armed = self._armed.get(point)
            if armed is None:
                return False
            armed.calls += 1
            if armed.calls <= armed.skip:
                return False
            if armed.times is not None \
                    and armed.fired >= armed.times:
                return False
            armed.fired += 1
            # Snapshot under the lock; run effects outside it (a handler
            # or sleep must not serialize unrelated fault checks).
            delay, action = armed.delay, armed.action
            exc, handler = armed.exc, armed.handler
        if delay:
            time.sleep(delay)
        if handler is not None:
            handler(**ctx)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if exc is not None:
            raise exc if isinstance(exc, BaseException) \
                else exc(f"fault injected at {point}")
        return True

    def load_env(self, env: dict[str, str] | None = None) -> None:
        """Arm points from the ``REPRO_FAULTS`` env var (worker processes).

        The JSON shape mirrors :meth:`arm`'s keyword arguments minus
        ``exc``/``handler`` (not representable): ``{"worker.step":
        {"times": null, "skip": 5, "action": "kill"}}``. An armed env
        fault with no ``action`` raises :class:`FaultInjected`.
        """
        raw = (env if env is not None else os.environ).get(FAULTS_ENV)
        if not raw:
            return
        for point, spec in json.loads(raw).items():
            self.arm(point,
                     times=spec.get("times", 1),
                     delay=float(spec.get("delay", 0.0)),
                     action=spec.get("action"),
                     skip=int(spec.get("skip", 0)),
                     exc=None if spec.get("action") == "kill"
                     else FaultInjected)


#: the process-global registry every instrumented site fires through;
#: tests arm/disarm it directly, spawned workers arm it from the env
FAULTS = FaultRegistry()
FAULTS.load_env()
