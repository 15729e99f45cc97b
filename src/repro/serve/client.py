"""Blocking Python client for the :mod:`repro.serve.gateway` HTTP API.

Stdlib-only (``http.client``), one persistent keep-alive connection per
calling thread — N client threads drive N concurrent handler threads on
the gateway, which is exactly the concurrency model the benchmark and CI
drive need.

Backpressure is surfaced as typed exceptions: a ``429`` raises
:class:`RateLimited` carrying the server's ``Retry-After`` hint, and
:meth:`ServeClient.step` can optionally honour it (``wait=True``) by
sleeping and retrying until ``max_wait`` is spent — the well-behaved
client the gateway's shedding is designed for. Every other HTTP error
raises :class:`GatewayError` with the status and the server's message.

Retry semantics: :meth:`ServeClient.step` mints one ``Idempotency-Key``
per *logical* step and retries transient failures — a connection lost
while awaiting the response (:class:`ResponseLost`), a 500, a 429 — under
that key with decorrelated-jitter backoff; the server replays the
recorded result instead of applying the update twice.

Wire format: :meth:`ServeClient.step` ships ``x``/``y`` as one
:mod:`repro.serve.wire` frame (raw dtype bytes) and asks for the result
as a frame too — no float->decimal->float round trip, ~4x fewer bytes per
step than the gateway's JSON step route, which stays for ``curl`` and
other outside clients. Checkpoints travel as the ``.ckpt`` bytes of
:mod:`repro.serve.checkpoint` both ways (:meth:`ServeClient.
download_checkpoint`, :meth:`ServeClient.restore`). A ``token`` adds
``Authorization: Bearer`` to every request for gateways started with an
auth token map.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import uuid
from typing import Any
from urllib.parse import urlsplit

import numpy as np

from ..errors import ServeError
from ..obs import parse_server_timing
from . import wire

#: decorrelated-jitter backoff bounds (seconds) for step retries
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class GatewayError(ServeError):
    """An HTTP-level failure reported by the gateway."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}" if status
                         else message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class RateLimited(GatewayError):
    """The gateway shed this request (rate limit or queue watermark)."""


class ResponseLost(GatewayError):
    """The request reached the server but its response was lost on the
    wire — the step *may have executed*. Safe to retry only under an
    idempotency key (the server then replays the recorded result)."""


class ServeClient:
    """Blocking client over one gateway; thread-safe via per-thread
    connections."""

    def __init__(self, url_or_host: str, port: int | None = None, *,
                 timeout: float = 120.0,
                 token: str | None = None) -> None:
        if "://" in url_or_host:
            parsed = urlsplit(url_or_host)
            self.host = parsed.hostname or "127.0.0.1"
            self.port = parsed.port or 80
        else:
            if port is None:
                raise ServeError(
                    "ServeClient needs a port (or a full http:// URL)")
            self.host = url_or_host
            self.port = port
        self.timeout = timeout
        self._token = token
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []

    # -- transport -----------------------------------------------------------

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            # Headers and body go out in separate writes; without
            # TCP_NODELAY, Nagle holds the body until the header ACK
            # (~40ms of delayed-ACK stall added to every step).
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _drop_conn(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _auth_headers(self) -> dict[str, str]:
        if self._token is None:
            return {}
        return {"Authorization": f"Bearer {self._token}"}

    def _request(self, method: str, path: str,
                 payload: dict | None = None, *,
                 headers: dict[str, str] | None = None,
                 raw: bytes | None = None,
                 frame: bytes | None = None) -> dict[str, Any]:
        if frame is not None:
            # one pre-encoded wire frame; ask for the result framed too
            body: bytes | None = frame
            send_headers = {"Content-Type": wire.CONTENT_TYPE,
                            "Accept": wire.CONTENT_TYPE}
        elif raw is not None:
            body = raw
            send_headers = {"Content-Type": "application/octet-stream"}
        else:
            body = None if payload is None else json.dumps(payload).encode()
            send_headers = {"Content-Type": "application/json"} \
                if body else {}
        send_headers.update(self._auth_headers())
        if headers:
            send_headers.update(headers)
        response = data = None
        for attempt in (0, 1):
            try:
                conn = self._conn()
                conn.request(method, path, body, send_headers)
            except (http.client.RemoteDisconnected, ConnectionError,
                    BrokenPipeError) as exc:
                # A stale keep-alive connection (server idled it out, or
                # restarted) fails while *sending*; the server never saw
                # the request, so one reconnect-and-retry is safe.
                self._drop_conn()
                if attempt:
                    raise GatewayError(
                        0, f"connection to {self.host}:{self.port} lost: "
                           f"{exc}") from exc
                continue
            try:
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                # The request reached the server but the response was
                # lost. Not retried *here*: only step() with an
                # idempotency key knows the retry is safe.
                self._drop_conn()
                raise ResponseLost(
                    0, f"connection lost awaiting the response ({exc}); "
                       f"the request may still have executed") from exc
            break
        parsed: dict[str, Any] = {}
        ctype = (response.headers.get("Content-Type") or "") \
            .split(";")[0].strip().lower()
        if data and ctype == wire.CONTENT_TYPE:
            try:
                parsed = dict(wire.decode_frame(data)[0] or {})
            except wire.WireError as exc:
                raise GatewayError(
                    response.status,
                    f"garbled wire-frame response: {exc}") from exc
        elif data:
            try:
                parsed = json.loads(data)
            except json.JSONDecodeError as exc:
                raise GatewayError(
                    response.status,
                    f"non-JSON response: {data[:200]!r}") from exc
        if response.status >= 400:
            message = parsed.get("error", response.reason)
            retry_after = parsed.get("retry_after")
            if retry_after is None:
                header = response.headers.get("Retry-After")
                retry_after = float(header) if header else None
            if response.status == 429:
                raise RateLimited(response.status, message, retry_after)
            raise GatewayError(response.status, message, retry_after)
        # The gateway's per-stage span breakdown rides in Server-Timing on
        # step responses; surface it without another round trip.
        timing = response.headers.get("Server-Timing")
        if timing:
            parsed["timings"] = parse_server_timing(timing)
        request_id = response.headers.get("X-Request-Id")
        if request_id and "request_id" not in parsed:
            parsed["request_id"] = request_id
        return parsed

    # -- API -----------------------------------------------------------------

    def create_session(self, model: str, *, scheme: str = "paper",
                       tenant: str | None = None,
                       model_kwargs: dict | None = None) -> dict:
        """Open a tenant session; returns the session document (id,
        input/label shapes and dtypes, num_classes)."""
        payload: dict[str, Any] = {"model": model, "scheme": scheme}
        if tenant is not None:
            payload["tenant"] = tenant
        if model_kwargs:
            payload["model_kwargs"] = model_kwargs
        return self._request("POST", "/v1/sessions", payload)

    def step(self, session_id: str, x, y, *, wait: bool = True,
             max_wait: float = 30.0, timeout: float | None = None) -> dict:
        """One training step; blocks until the result (or a refusal).

        With ``wait=True`` transient failures are retried until
        ``max_wait`` seconds have been spent, then the last error
        propagates: a 429 waits the server's ``Retry-After`` hint; a
        lost response (:class:`ResponseLost`) and a 500 are retried with
        decorrelated-jitter backoff — every attempt of one call carries
        the same minted ``Idempotency-Key``, so the server applies the
        update at most once and replays the recorded result to retries
        (``"replayed": true``). ``wait=False`` raises on the first
        refusal — benchmark loops measuring shed rate use it.

        ``timeout`` is an *end-to-end deadline* in seconds, shipped to
        the server as an absolute ``X-Deadline`` header: work still
        queued when it expires is shed server-side (504) instead of
        executed for nobody.
        """
        frame = wire.encode_frame(None, {"x": np.asarray(x),
                                         "y": np.asarray(y)})
        path = f"/v1/sessions/{session_id}/step"
        budget = time.monotonic() + max_wait
        headers: dict[str, str] = {}
        if timeout is not None:
            headers["X-Deadline"] = f"{time.time() + timeout:.6f}"
            budget = min(budget, time.monotonic() + timeout)
        # One key per logical step: every retry below re-sends it, so the
        # server can dedupe no matter which attempt(s) executed.
        headers["Idempotency-Key"] = f"{session_id}:{uuid.uuid4().hex}"
        pause = _BACKOFF_BASE
        while True:
            try:
                return self._request("POST", path, headers=headers,
                                     frame=frame)
            except RateLimited as exc:
                if not wait:
                    raise
                error: GatewayError = exc
                delay = exc.retry_after if exc.retry_after else pause
            except ResponseLost as exc:
                if not wait:
                    raise
                error, delay = exc, pause
            except GatewayError as exc:
                # 500 = the step itself failed (e.g. a worker crashed
                # mid-batch); with a key the server released the claim,
                # so re-execution is safe. 4xx/504 are not transient.
                if not wait or exc.status != 500:
                    raise
                error, delay = exc, pause
            remaining = budget - time.monotonic()
            if remaining <= 0:
                raise error
            # Decorrelated jitter: spreads synchronized retry storms
            # without the unbounded growth of pure exponential backoff.
            pause = min(_BACKOFF_CAP,
                        random.uniform(_BACKOFF_BASE, pause * 3))
            time.sleep(min(delay, remaining))

    def session(self, session_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}")

    def close_session(self, session_id: str) -> dict:
        """Retire the session; returns its final summary."""
        return self._request("DELETE", f"/v1/sessions/{session_id}")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def prometheus_metrics(self) -> str:
        """The Prometheus text exposition (``/v1/metrics?format=prometheus``)."""
        conn = self._conn()
        try:
            conn.request("GET", "/v1/metrics?format=prometheus",
                         headers=self._auth_headers())
            response = conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            self._drop_conn()
            raise GatewayError(0, f"connection lost: {exc}") from exc
        if response.status >= 400:
            raise GatewayError(response.status, data.decode(errors="replace"))
        return data.decode()

    def trace(self) -> dict:
        """The server's span ring as a chrome://tracing document."""
        return self._request("GET", "/v1/trace")

    # -- durability ----------------------------------------------------------

    def checkpoint(self, session_id: str) -> dict:
        """Persist one checkpoint version server-side; returns its meta
        (step_seq, path, retained versions)."""
        return self._request(
            "POST", f"/v1/sessions/{session_id}/checkpoint")

    def download_checkpoint(self, session_id: str) -> bytes:
        """The session's current checkpoint as ``.ckpt`` bytes (feed them
        back through :meth:`restore`, possibly against a different
        server)."""
        conn = self._conn()
        try:
            conn.request("GET", f"/v1/sessions/{session_id}/checkpoint",
                         headers=self._auth_headers())
            response = conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            self._drop_conn()
            raise GatewayError(0, f"connection lost: {exc}") from exc
        if response.status >= 400:
            try:
                message = json.loads(data).get("error", response.reason)
            except (json.JSONDecodeError, AttributeError):
                message = data.decode(errors="replace")
            raise GatewayError(response.status, message)
        return data

    def restore(self, data: bytes | None = None, *,
                session_id: str | None = None,
                version: int | None = None) -> dict:
        """Resurrect a session from checkpoint ``data`` bytes, or from
        the server's store by ``session_id`` (newest intact version, or
        exactly ``version``). Returns the restored session summary."""
        if data is not None:
            return self._request("POST", "/v1/sessions/restore", raw=data)
        if session_id is None:
            raise ServeError("restore needs checkpoint bytes or a "
                             "session_id")
        payload: dict[str, Any] = {"session_id": session_id}
        if version is not None:
            payload["version"] = version
        return self._request("POST", "/v1/sessions/restore", payload)

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = list(self._conns), []
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
