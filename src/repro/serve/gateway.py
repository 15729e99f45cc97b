"""HTTP front door for :class:`~repro.serve.service.FineTuneService`.

Stdlib-only: an **asyncio** HTTP/1.1 server (``asyncio.start_server``)
in the style of model-serving front ends (Clipper et al.) where
admission control is first-class. Connections are coroutines on one
event loop, so the number of held connections is bounded by file
descriptors, not threads — thousands of keep-alive clients cost a few
KB each, while the old thread-per-connection design topped out at the
thread budget. The service behind the gateway is threaded: under load
the scheduler coalesces, the worker pool executes, and each step's
:class:`concurrent.futures.Future` is bridged onto the loop with
``asyncio.wrap_future`` so an awaiting handler suspends instead of
pinning a thread. An idle server skips that round trip: the step handler
*claims* its request at submit, yields once so every request already
readable reaches the queue, and — if its request is still the only work
— runs it as a batch of one right on the loop and answers with no thread
handoff. That is the one deliberate synchronous call on the loop, and it
is bounded: the service grants a claim only when the session's last step
executed in less than ``sys.getswitchinterval()``, so it blocks the loop
no longer than a pool thread holding the GIL already can.

Protocol (control bodies JSON; step bodies JSON or binary)::

    POST   /v1/sessions            {"model", "scheme"?, "tenant"?,
                                    "model_kwargs"?}        -> 201 session
    POST   /v1/sessions/{id}/step  {"x": [...], "y": ...}   -> 200 result
    GET    /v1/sessions/{id}                                -> 200 status
    DELETE /v1/sessions/{id}                                -> 200 summary
    POST   /v1/sessions/{id}/checkpoint                     -> 200 meta
    GET    /v1/sessions/{id}/checkpoint       -> 200 .ckpt bytes download
    POST   /v1/sessions/restore    .ckpt bytes, or JSON
                                   {"session_id", "version"?} -> 201 session
    GET    /v1/metrics                                      -> 200 stats
    GET    /v1/metrics?format=prometheus                    -> 200 text
    GET    /v1/trace                                        -> 200 chrome-trace
    GET    /v1/healthz                                      -> 200 health

**Binary step bodies** (:mod:`repro.serve.wire`): a step request whose
``Content-Type`` is ``application/x-repro-step`` carries one wire frame
with tensors ``x`` and ``y`` instead of JSON lists — raw dtype bytes,
no base64/decimal round trip. A request whose ``Accept`` includes the
same media type gets its result as a meta-only wire frame back. Both
directions are chosen independently; JSON stays the default (``curl``
and other outside clients use it) and the only format for control
routes, and a malformed frame is a clean ``400`` (never a poisoned
connection — the body is always drained by length first).
:class:`~repro.serve.client.ServeClient` always sends frames.
Checkpoints travel in one form only, the self-verifying ``.ckpt`` bytes
(:mod:`repro.serve.checkpoint`); a wire frame uploaded to the restore
route is refused with ``415``.

**Auth** (optional): constructed with ``auth_tokens`` (bearer token ->
tenant id), every route except ``/v1/healthz`` requires a valid
``Authorization: Bearer`` header (``401`` otherwise). A token acts for
exactly its tenant: session creation is pinned to it, and touching
another tenant's session is ``403``.

Tracing contract: every request gets a request ID — the caller's
``X-Request-Id`` header when present (up to 64 chars of
[A-Za-z0-9._-]), minted otherwise — and every response echoes it back
in ``X-Request-Id``. Step responses additionally carry a
``Server-Timing`` header with the request's per-stage span durations;
the same spans land in the trace ring served at ``/v1/trace``.

Durability contract (see the README's *Durability & fault tolerance*):

* ``Idempotency-Key`` on a step marks it safely retryable — a retry
  carrying the same key returns the recorded result (``"replayed":
  true``) instead of applying a second optimizer update;
* ``X-Deadline`` carries an absolute epoch-seconds deadline; work whose
  deadline has passed is shed wherever it is first noticed — admission,
  the scheduler's batch cut, or the blocked handler — with ``504`` and
  the shared ``serve.deadline_expired`` counter.

Backpressure — enforced *before* enqueue, in order:

1. **per-tenant token bucket** (:mod:`repro.serve.ratelimit`): a tenant
   past its rate gets ``429`` with ``Retry-After`` set to when its next
   token matures;
2. **global queue watermark**: when the scheduler's *live* queue depth
   (the ``serve.queue_depth`` callback gauge's source) is at or past
   ``max_queue_depth``, the request is shed with ``429`` and a
   ``Retry-After`` derived from recent request latency. The queue is
   therefore bounded by the watermark plus in-flight awaiting handlers
   — load never accumulates without bound.

Shutdown (:meth:`GatewayServer.close`) is ordered so no future is ever
left hanging: stop accepting connections, settle every in-flight
future via :meth:`FineTuneService.shutdown` (drain with a bound, then
cancel stragglers), then let the loop retire — idle keep-alive
connections are dropped immediately, while a handler still awaiting a
running batch stays alive (on the daemon loop thread) until it can
answer its client. Handlers whose future was cancelled answer ``503``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import re
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import parse_qs

import numpy as np

from ..errors import (CheckpointError, DeadlineExpired, FaultInjected,
                      ReproError, ServeError, ServiceClosed)
from ..obs import mint_request_id, server_timing_header
from . import wire
from .checkpoint import MAGIC as _CKPT_MAGIC
from .faults import FAULTS
from .ratelimit import RateLimiter
from .service import FineTuneService
from .sessions import TenantSession
from .wire import WireError

#: accepted shape for caller-supplied X-Request-Id values; anything else
#: (too long, header-injection attempts, empty) gets a minted ID instead
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: accepted shape for Idempotency-Key values (anything else is a 400: a
#: silently dropped key would turn a retry into a double-apply)
_IDEM_KEY_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: what this server speaks, listed in /v1/healthz for outside clients
_FEATURES = ("binary_step", "checkpoint", "deadline", "idempotency")

#: request bodies past this are refused with 413 before allocation
#: becomes hostile (an MCUNet batch-8 JSON step is ~12 MB)
_MAX_BODY = 256 << 20

#: header block bounds: enough for real clients, hostile ones get cut
_MAX_HEADERS = 100

#: threads for blocking control-plane calls (create compiles, restore /
#: checkpoint do file IO); the step path never touches this pool
_OFFLOAD_THREADS = 8


def _json_safe(value):
    """NaN/Inf-free copy of ``value`` (strict JSON has no NaN literal)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class _Request:
    """One parsed HTTP request plus its response plumbing."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes
    writer: asyncio.StreamWriter
    request_id: str = ""
    #: tenant the Authorization header maps to (None when auth is off)
    auth_tenant: str | None = None
    #: set False by a handler that killed the connection (fault drop)
    alive: bool = field(default=True)

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    @property
    def wants_close(self) -> bool:
        return (self.headers.get("connection") or "").lower() == "close"


class GatewayServer:
    """Serve a :class:`FineTuneService` over HTTP with admission control."""

    def __init__(self, service: FineTuneService, host: str = "127.0.0.1",
                 port: int = 0, *, max_queue_depth: int = 64,
                 rate_limit: float | None = None,
                 rate_burst: float | None = None,
                 step_timeout: float = 120.0,
                 auth_tokens: dict[str, str] | None = None) -> None:
        if max_queue_depth < 0:
            raise ServeError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.service = service
        self.max_queue_depth = max_queue_depth
        self.limiter = RateLimiter(rate_limit, burst=rate_burst)
        self.step_timeout = step_timeout
        self.auth_tokens = dict(auth_tokens) if auth_tokens else None

        metrics = service.metrics
        self._requests_total = metrics.counter(
            "serve.http_requests_total", "HTTP requests received")
        self._shed_total = metrics.counter(
            "serve.http_shed_total",
            "step requests shed at the queue-depth watermark")
        self._limited_total = metrics.counter(
            "serve.http_rate_limited_total",
            "step requests refused by per-tenant rate limits")
        self._unauthorized_total = metrics.counter(
            "serve.http_unauthorized_total",
            "requests refused for a missing or invalid bearer token")
        self._step_latency = metrics.histogram(
            "serve.http_step_ms", "gateway-side step latency (admitted)")
        # Wire-format accounting: bytes on the HTTP wire per step, split
        # by body format, so benches can compare JSON vs binary framing.
        self._steps_json = metrics.counter(
            "serve.http.steps_json", "steps served with JSON bodies")
        self._steps_binary = metrics.counter(
            "serve.http.steps_binary",
            "steps served with binary wire-frame bodies")
        self._step_bytes_json = metrics.counter(
            "serve.http.step_bytes_json",
            "request+response body bytes across JSON-format steps")
        self._step_bytes_binary = metrics.counter(
            "serve.http.step_bytes_binary",
            "request+response body bytes across binary-format steps")
        # Shared with the service/scheduler shedding stages (registry
        # get-or-create returns the one counter).
        self._deadline_expired = metrics.counter("serve.deadline_expired")
        # Sampled for Retry-After hints on shed responses.
        self._request_latency = metrics.histogram(
            "serve.request_latency_ms", "submit-to-result latency")

        # The socket is bound (and the ephemeral port known) at
        # construction; start() only begins accepting.
        self._sock = socket.create_server((host, port), backlog=512,
                                          reuse_port=False)
        self._sock.setblocking(False)
        self.host, self.port = self._sock.getsockname()[:2]

        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._offload = ThreadPoolExecutor(
            max_workers=_OFFLOAD_THREADS,
            thread_name_prefix="repro-gw-offload")
        #: writer -> currently-processing-a-request (loop thread only)
        self._conn_busy: dict[asyncio.StreamWriter, bool] = {}
        self._close_lock = threading.Lock()
        self._closed = False
        self._closing = False
        #: set by _begin_settling: from then on the last handler to end
        #: stops the loop (not before — close() is still awaiting
        #: _stop_accepting on it)
        self._settling = False
        self._drained = True

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GatewayServer":
        """Begin serving on a background event-loop thread; returns self."""
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), name="repro-serve-http",
            daemon=True)
        self._thread.start()
        ready.wait(timeout=10)
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)

        async def boot():
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock)

        loop.run_until_complete(boot())
        ready.set()
        loop.run_forever()
        # stopped by the settle path: give just-finishing handler tasks a
        # beat to unwind, then close the loop
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        if pending:
            loop.run_until_complete(asyncio.wait(pending, timeout=1.0))
        loop.close()

    def retry_after_hint(self, depth: int) -> float:
        """Seconds a shed client should back off: roughly how long the
        current backlog takes to clear at recent request latency."""
        p50_ms = self._request_latency.quantile(0.5) or 50.0
        return min(5.0, max(0.1, depth * p50_ms / 1000.0))

    def close(self, drain_timeout: float | None = None) -> bool:
        """Ordered shutdown; True when the queue drained fully.

        1. stop accepting connections (in-flight handlers keep running);
        2. settle every outstanding future via
           :meth:`FineTuneService.shutdown` — drained, failed, or
           cancelled, never hung; awaiting handlers answer their clients;
        3. drop idle keep-alive connections and let the loop retire once
           the last busy handler has answered. After a full drain every
           future has resolved, so close() waits (up to 5 s) for those
           answers to be written: a process exiting next would cut the
           clients off. After a timed-out drain a handler still awaiting
           a genuinely running batch keeps the (daemon) loop alive until
           its client is answered — close() does not wait for that.
        """
        with self._close_lock:
            if self._closed:
                return self._drained
            self._closed = True
        self._closing = True
        if self._thread is not None:
            stop = asyncio.run_coroutine_threadsafe(
                self._stop_accepting(), self._loop)
            try:
                stop.result(timeout=5)
            except Exception:  # pragma: no cover - defensive
                pass
        self._drained = self.service.shutdown(drain_timeout)
        if self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(self._begin_settling)
            except RuntimeError:
                pass  # the loop already settled itself (no connections)
            if self._drained:
                self._thread.join(timeout=5)
        else:
            self._sock.close()
        self._offload.shutdown(wait=False)
        return self._drained

    async def _stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def _begin_settling(self) -> None:
        """(loop thread) Drop idle connections; busy ones finish first."""
        self._settling = True
        for writer, busy in list(self._conn_busy.items()):
            if not busy:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
        self._maybe_settle()

    def _maybe_settle(self) -> None:
        """(loop thread) Stop the loop once settling and fully idle."""
        if self._settling and not self._conn_busy \
                and self._loop is not None and self._loop.is_running():
            self._loop.call_soon(self._loop.stop)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Small request/response pairs on a keep-alive connection
                # hit the Nagle + delayed-ACK interaction (~40ms per
                # exchange) unless responses go out immediately.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
        self._conn_busy[writer] = False
        try:
            while not self._closing:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self._requests_total.inc()
                self._conn_busy[writer] = True
                try:
                    await self._dispatch(request)
                    if request.alive:
                        await writer.drain()
                finally:
                    self._conn_busy[writer] = False
                if not request.alive or request.wants_close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError):
            # clients dropping a connection mid-exchange (benchmark
            # churn, Ctrl-C'd curl) is routine, not a server error
            pass
        except Exception:  # noqa: BLE001 - visible, never fatal
            traceback.print_exc(file=sys.stderr)
        finally:
            self._conn_busy.pop(writer, None)
            self._maybe_settle()
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> _Request | None:
        """Parse one request off the stream; None ends the connection.

        The body always comes off the wire in full before routing, so
        every refusal path (404 route miss, shed, malformed frame)
        leaves the keep-alive stream clean.
        """
        line = await reader.readline()
        if not line:
            return None  # clean EOF between requests
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return None  # garbage request line: drop the connection
        method, target = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                return None
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            self._write_response(writer, 413, json.dumps(
                {"error": "chunked bodies are not supported; send "
                          "Content-Length"}).encode(),
                "application/json", request_id=mint_request_id(),
                close=True)
            return None
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY:
            self._write_response(writer, 413, json.dumps(
                {"error": f"request body of {length} bytes exceeds the "
                          f"{_MAX_BODY}-byte cap"}).encode(),
                "application/json", request_id=mint_request_id(),
                close=True)
            return None
        body = bytearray()
        while len(body) < length:
            chunk = await reader.read(min(length - len(body), 1 << 16))
            if not chunk:
                return None  # connection died mid-body
            body += chunk
        path, _, query = target.partition("?")
        request = _Request(method=method, path=path, query=query,
                           headers=headers, body=bytes(body), writer=writer)
        supplied = request.header("x-request-id", "")
        request.request_id = supplied if _REQUEST_ID_RE.match(supplied) \
            else mint_request_id()
        return request

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str,
                        headers: dict[str, str] | None = None,
                        request_id: str | None = None,
                        close: bool = False) -> None:
        reason = http.client.responses.get(status, "")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 f"X-Request-Id: {request_id or mint_request_id()}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if close:
            lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)

    def _send_body(self, request: _Request, status: int, body: bytes,
                   content_type: str,
                   headers: dict[str, str] | None = None) -> None:
        self._write_response(request.writer, status, body, content_type,
                             headers, request_id=request.request_id,
                             close=request.wants_close)

    def _send_json(self, request: _Request, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        self._send_body(
            request, status, json.dumps(_json_safe(payload)).encode(),
            "application/json", headers)

    async def _offloaded(self, fn, *args):
        """Run a blocking control-plane call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._offload, fn, *args)

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: _Request) -> None:
        parts = [p for p in request.path.split("/") if p]
        if parts == ["v1", "healthz"] and request.method == "GET":
            return self._healthz(request)
        if not self._authorize(request):
            return None
        method = request.method
        if method == "GET":
            if parts == ["v1", "metrics"]:
                return self._metrics(request)
            if parts == ["v1", "trace"]:
                return self._trace(request)
            if len(parts) == 4 and parts[:2] == ["v1", "sessions"] \
                    and parts[3] == "checkpoint":
                return await self._download_checkpoint(request, parts[2])
            if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
                return self._session_status(request, parts[2])
        elif method == "POST":
            if parts == ["v1", "sessions"]:
                return await self._create_session(request)
            if parts == ["v1", "sessions", "restore"]:
                return await self._restore(request)
            if len(parts) == 4 and parts[:2] == ["v1", "sessions"]:
                if parts[3] == "step":
                    return await self._step(request, parts[2])
                if parts[3] == "checkpoint":
                    return await self._checkpoint(request, parts[2])
        elif method == "DELETE":
            if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
                return await self._close_session(request, parts[2])
        self._send_json(request, 404, {
            "error": f"no route for {method} {request.path}"})
        return None

    def _authorize(self, request: _Request) -> bool:
        """Resolve the bearer token to a tenant; False = 401 already sent."""
        if self.auth_tokens is None:
            return True
        header = request.header("authorization", "") or ""
        tenant = None
        if header[:7].lower() == "bearer ":
            tenant = self.auth_tokens.get(header[7:].strip())
        if tenant is None:
            self._unauthorized_total.inc()
            self._send_json(
                request, 401,
                {"error": "missing or invalid bearer token"},
                headers={"WWW-Authenticate": "Bearer"})
            return False
        request.auth_tenant = tenant
        return True

    def _tenant_mismatch(self, request: _Request,
                         session: TenantSession) -> bool:
        """True (and a 403 sent) when the token may not touch ``session``."""
        if request.auth_tenant is None \
                or session.tenant == request.auth_tenant:
            return False
        self._send_json(request, 403, {
            "error": f"token for tenant {request.auth_tenant!r} cannot "
                     f"access a session owned by {session.tenant!r}"})
        return True

    @staticmethod
    def _parse_json(raw: bytes) -> dict:
        if not raw:
            return {}
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- endpoints -----------------------------------------------------------

    def _healthz(self, request: _Request) -> None:
        closing = self.service.closed
        self._send_json(request, 503 if closing else 200, {
            "status": "closing" if closing else "ok",
            "queue_depth": self.service.scheduler.queue_depth(),
            "max_queue_depth": self.max_queue_depth,
            "sessions": len(self.service.sessions),
            "features": list(_FEATURES),
        })

    def _metrics(self, request: _Request) -> None:
        fmt = parse_qs(request.query).get("format", ["json"])[0]
        if fmt == "prometheus":
            self._send_body(
                request, 200, self.service.prometheus_metrics().encode(),
                "text/plain; version=0.0.4; charset=utf-8")
            return
        if fmt != "json":
            self._send_json(
                request, 400,
                {"error": f"unknown metrics format {fmt!r}; "
                          f"options: json, prometheus"})
            return
        self._send_json(request, 200, self.service.stats())

    def _trace(self, request: _Request) -> None:
        # The span ring as one chrome://tracing / Perfetto document;
        # request IDs live in each event's args for correlation.
        self._send_json(request, 200, self.service.tracer.export())

    async def _create_session(self, request: _Request) -> None:
        try:
            payload = self._parse_json(request.body)
            model = payload["model"]
            if not isinstance(model, str):
                raise ValueError(
                    "'model' must be a registry key string over HTTP")
            tenant = payload.get("tenant")
            if request.auth_tenant is not None:
                if tenant is not None and tenant != request.auth_tenant:
                    self._send_json(request, 403, {
                        "error": f"token for tenant "
                                 f"{request.auth_tenant!r} cannot create "
                                 f"a session for {tenant!r}"})
                    return
                tenant = request.auth_tenant
            # compiling a new program family blocks; keep it off the loop
            session = await self._offloaded(
                lambda: self.service.create_session(
                    model,
                    scheme=payload.get("scheme", "paper"),
                    tenant=tenant,
                    model_kwargs=payload.get("model_kwargs"),
                ))
        except ServeError as exc:
            status = 503 if isinstance(exc, ServiceClosed) else 400
            self._send_json(request, status, {"error": str(exc)})
            return
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            # unknown model, bad kwargs, malformed body: the client's fault
            self._send_json(request, 400, {"error": f"bad request: {exc}"})
            return
        family = session.family
        self._send_json(request, 201, {
            "session_id": session.id,
            "tenant": session.tenant,
            "model": family.model_id,
            "input_shape": list(family.example_shape),
            "input_dtype": np.dtype(family.example_dtype).name,
            "label_shape": list(family.label_shape),
            "label_dtype": np.dtype(family.label_dtype).name,
            "num_classes": family.num_classes,
        })

    def _session_status(self, request: _Request, session_id: str) -> None:
        try:
            session = self.service.sessions.get(session_id)
        except ServeError as exc:
            self._send_json(request, 404, {"error": str(exc)})
            return
        if self._tenant_mismatch(request, session):
            return
        self._send_json(request, 200, self._summary(session))

    async def _close_session(self, request: _Request,
                             session_id: str) -> None:
        try:
            session = self.service.sessions.get(session_id)
            if self._tenant_mismatch(request, session):
                return
            summary = self._summary(session)
            await self._offloaded(self.service.close_session, session_id)
        except ServeError as exc:
            status = 404 if "unknown session" in str(exc) else 409
            self._send_json(request, status, {"error": str(exc)})
            return
        self._send_json(request, 200, summary)

    @staticmethod
    def _summary(session: TenantSession) -> dict:
        return {
            "session_id": session.id,
            "tenant": session.tenant,
            "steps": session.steps,
            "examples": session.examples,
            "last_loss": session.last_loss,
        }

    # -- durability endpoints ------------------------------------------------

    async def _checkpoint(self, request: _Request, session_id: str) -> None:
        """POST: persist one checkpoint version to the server-side store."""
        try:
            session = self.service.sessions.get(session_id)
            if self._tenant_mismatch(request, session):
                return
            meta = await self._offloaded(
                self.service.checkpoint_session, session_id)
        except CheckpointError as exc:
            self._send_json(request, 500, {"error": str(exc)})
            return
        except ServeError as exc:
            msg = str(exc)
            # no checkpoint_dir / no restore config: a conflict with how
            # the server is configured, not a bad request
            status = 404 if "unknown session" in msg else 409
            self._send_json(request, status, {"error": msg})
            return
        self._send_json(request, 200, meta)

    async def _download_checkpoint(self, request: _Request,
                                   session_id: str) -> None:
        """GET: the session's current checkpoint as ``.ckpt`` bytes, the
        form the restore route takes back."""
        try:
            session = self.service.sessions.get(session_id)
            if self._tenant_mismatch(request, session):
                return
            data = await self._offloaded(
                self.service.checkpoint_bytes, session_id)
        except ServeError as exc:
            msg = str(exc)
            status = 404 if "unknown session" in msg else 409
            self._send_json(request, status, {"error": msg})
            return
        self._send_body(request, 200, data, "application/octet-stream",
                        headers={"Content-Disposition":
                                 f'attachment; filename="{session_id}.ckpt"'})

    async def _restore(self, request: _Request) -> None:
        """POST: resurrect a session from uploaded bytes or the store.

        The body is either ``.ckpt`` bytes (``application/octet-stream``;
        magic sniffing backs the header up, so a mislabelled upload still
        restores) or a JSON body naming a server-side stored checkpoint.
        A wire frame is no checkpoint: ``415``.
        """
        raw = request.body
        ctype = (request.header("content-type") or "") \
            .split(";")[0].strip().lower()
        if ctype == wire.CONTENT_TYPE:
            self._send_json(request, 415, {
                "error": "restore takes .ckpt bytes "
                         "(application/octet-stream) or JSON, not a wire "
                         "frame"})
            return
        try:
            if ctype == "application/octet-stream" \
                    or raw.startswith(_CKPT_MAGIC):
                session = await self._offloaded(
                    self.service.restore_session, raw)
            else:
                payload = self._parse_json(raw)
                session_id = payload.get("session_id")
                if not isinstance(session_id, str) or not session_id:
                    raise ValueError(
                        "restore wants checkpoint bytes "
                        "(application/octet-stream) or a JSON body with "
                        "'session_id' (and optional 'version')")
                version = payload.get("version")
                if version is not None:
                    version = int(version)
                session = await self._offloaded(
                    lambda: self.service.restore_session(
                        session_id=session_id, version=version))
        except CheckpointError as exc:
            # corrupt/unreadable/incompatible checkpoint: the *content*
            # is the problem, not the request shape
            self._send_json(request, 422, {"error": str(exc)})
            return
        except ServeError as exc:
            msg = str(exc)
            status = 503 if isinstance(exc, ServiceClosed) \
                else 409 if "already open" in msg else 400
            self._send_json(request, status, {"error": msg})
            return
        except (ValueError, TypeError) as exc:
            self._send_json(request, 400,
                            {"error": f"bad restore request: {exc}"})
            return
        body = self._summary(session)
        body["restored"] = True
        body["step_seq"] = session.step_seq
        self._send_json(request, 201, body)

    # -- the step path -------------------------------------------------------

    def _parse_step_body(self, request: _Request, family
                         ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Decode the step example from JSON or a binary wire frame.

        Returns ``(x, y, binary)``; raises ``ValueError``/``WireError``
        (mapped to 400 by the caller) on malformed bodies. Binary
        tensors are decoded with ``copy=True`` so downstream kernels see
        ordinary aligned arrays — byte-for-byte the same results as the
        JSON path.
        """
        ctype = (request.header("content-type") or "") \
            .split(";")[0].strip().lower()
        if ctype == wire.CONTENT_TYPE:
            _, tensors = wire.decode_frame(request.body, copy=True)
            if "x" not in tensors or "y" not in tensors:
                raise ValueError(
                    "binary step frame must carry tensors 'x' and 'y'")
            x = np.asarray(tensors["x"], dtype=family.example_dtype)
            return x, self._labels(tensors["y"], family), True
        payload = self._parse_json(request.body)
        x = np.asarray(payload["x"], dtype=family.example_dtype)
        return x, self._labels(payload["y"], family), False

    @staticmethod
    def _labels(raw, family) -> np.ndarray:
        """Class ids reach the service as sent — it refuses any that are
        not integers in range, where a cast here would truncate 1.5 to 1;
        regression targets take the family's dtype."""
        if np.issubdtype(family.label_dtype, np.integer):
            return np.asarray(raw)
        return np.asarray(raw, dtype=family.label_dtype)

    async def _step(self, request: _Request, session_id: str) -> None:
        began = time.perf_counter()
        try:
            session = self.service.sessions.get(session_id)
        except ServeError as exc:
            self._send_json(request, 404, {"error": str(exc)})
            return
        if self._tenant_mismatch(request, session):
            return

        # Admission control before the request touches the scheduler:
        # shed load costs the service one body read and nothing else.
        retry = self.limiter.try_acquire(session.tenant)
        if retry > 0.0:
            self._limited_total.inc()
            self._send_json(
                request, 429,
                {"error": f"tenant {session.tenant!r} is over its rate "
                          f"limit", "retry_after": retry},
                headers={"Retry-After": f"{retry:.3f}"})
            return
        depth = self.service.scheduler.queue_depth()
        if depth >= self.max_queue_depth:
            self._shed_total.inc()
            retry = self.retry_after_hint(depth)
            self._send_json(
                request, 429,
                {"error": f"queue depth {depth} at watermark "
                          f"{self.max_queue_depth}; shedding load",
                 "queue_depth": depth, "retry_after": retry},
                headers={"Retry-After": f"{retry:.3f}"})
            return

        # Durability headers. X-Deadline is absolute epoch seconds; it is
        # converted onto time.monotonic() once here and propagated so
        # every later shedding stage compares against the same clock.
        raw_deadline = request.header("x-deadline")
        deadline = None
        if raw_deadline is not None:
            try:
                deadline = time.monotonic() + (float(raw_deadline)
                                               - time.time())
            except ValueError:
                self._send_json(
                    request, 400,
                    {"error": f"bad X-Deadline header {raw_deadline!r}: "
                              f"want absolute epoch seconds"})
                return
            if time.monotonic() >= deadline:
                self._deadline_expired.inc()
                self._send_json(
                    request, 504,
                    {"error": "deadline already passed at admission",
                     "deadline_expired": True})
                return
        idem_key = request.header("idempotency-key")
        if idem_key is not None and not _IDEM_KEY_RE.match(idem_key):
            self._send_json(
                request, 400,
                {"error": "bad Idempotency-Key header: want 1-128 chars "
                          "of [A-Za-z0-9._:-]"})
            return

        try:
            x, y, binary = self._parse_step_body(request, session.family)
        except WireError as exc:
            self._send_json(request, 400,
                            {"error": f"bad step frame: {exc}"})
            return
        except (KeyError, ValueError, TypeError,
                json.JSONDecodeError) as exc:
            self._send_json(request, 400,
                            {"error": f"bad step body: {exc}"})
            return
        respond_binary = wire.CONTENT_TYPE in (
            request.header("accept") or "")

        # The trace context the whole request pipeline records into: the
        # gateway owns admission and serialize, the scheduler queue_wait,
        # the service batch_wait and execute.
        trace = self.service.tracer.trace(
            request.request_id, session_id=session_id,
            tenant=session.tenant)
        trace.add("admission", began, time.perf_counter())
        scheduler = self.service.scheduler
        try:
            future = self.service.submit(session_id, x, y, trace=trace,
                                         deadline=deadline,
                                         idempotency_key=idem_key,
                                         claim=True)
        except DeadlineExpired as exc:
            self._send_json(request, 504, {"error": str(exc),
                                           "deadline_expired": True})
            return
        except ServeError as exc:
            status = 503 if isinstance(exc, ServiceClosed) else 400
            self._send_json(request, status, {"error": str(exc)})
            return
        # One yield before running a claim: every request that is already
        # readable reaches admission and the queue, and run_claimed then
        # sees it and hands the claim to the pool, where it can coalesce.
        try:
            await asyncio.sleep(0)
        except asyncio.CancelledError:
            scheduler.release_claim(future)
            raise

        timeout = self.step_timeout
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        try:
            result = scheduler.run_claimed(future)
            if result is None:
                # Bridge the scheduler's concurrent future onto the loop:
                # the handler suspends here without pinning a thread, which
                # is what lets held connections outnumber the thread budget.
                result = await asyncio.wait_for(asyncio.wrap_future(future),
                                                timeout=timeout)
        except asyncio.CancelledError:
            if future.cancelled():
                # service shutdown cancelled the queued step
                self._send_json(request, 503, {
                    "error": "step cancelled: service is shutting down"})
                return
            raise  # the connection task itself was cancelled
        except asyncio.TimeoutError:
            # Abandon the wait without leaking the request: cancel()
            # succeeds only while it is still queued (the scheduler then
            # drops it at batch-cut and releases any idempotency claim);
            # once running it completes server-side and, if keyed, lands
            # in the replay window for the client's retry.
            future.cancel()
            self._deadline_expired.inc()
            self._send_json(
                request, 504,
                {"error": f"step did not complete within {timeout:.3f}s",
                 "deadline_expired": True})
            return
        except DeadlineExpired as exc:
            self._send_json(request, 504, {"error": str(exc),
                                           "deadline_expired": True})
            return
        except ServeError as exc:
            self._send_json(request, 500, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - surface, don't hang
            self._send_json(request, 500,
                            {"error": f"{type(exc).__name__}: {exc}"})
            return

        # Serialize opens the moment the result lands (covering response
        # bookkeeping + encode; socket write excluded: the span must be
        # *in* the headers it is reported through).
        serialize_began = time.perf_counter()
        self._step_latency.observe((serialize_began - began) * 1e3)
        if trace.spans:
            # resume: the scheduler thread resolved the future at the end
            # of its last span; the loop woke this coroutine here (about
            # nothing on a claimed step, which ran on the loop). Without
            # it the handoff is unaccounted time and span coverage lies.
            trace.add("resume", max(s.ended for s in trace.spans),
                      serialize_began)
        doc = _json_safe({
            "session_id": result.session_id,
            "loss": result.loss,
            "step": result.step,
            "batch_size": result.batch_size,
            "program_key": result.program_key,
            "request_id": trace.request_id,
            "replayed": result.replayed,
        })
        if respond_binary:
            body, content_type = wire.encode_frame(doc), wire.CONTENT_TYPE
        else:
            body, content_type = json.dumps(doc).encode(), "application/json"
        trace.add("serialize", serialize_began, time.perf_counter())
        try:
            FAULTS.fire("gateway.reset_after_send",
                        request_id=trace.request_id, session_id=session_id)
        except FaultInjected:
            # Chaos/e2e-retry tests: the step executed and (if keyed) is
            # in the replay window, but the client never hears — simulate
            # the response lost on the wire by dropping the connection.
            request.alive = False
            transport = request.writer.transport
            if transport is not None:
                transport.abort()
            return
        # Counted before the write: a client holding the response must
        # find its step in the metrics.
        if binary:
            self._steps_binary.inc()
            self._step_bytes_binary.inc(len(request.body) + len(body))
        else:
            self._steps_json.inc()
            self._step_bytes_json.inc(len(request.body) + len(body))
        self._send_body(request, 200, body, content_type, headers={
            "Server-Timing": server_timing_header(
                trace.timings_ms(), trace.total_ms()),
        })
