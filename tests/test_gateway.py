"""Tests for the HTTP front door: gateway, client, and rate limiting.

The heavyweight end-to-end path (real registry model over real sockets)
runs once against a module-scoped gateway; backpressure, rate-limit, and
shutdown semantics are tested against lightweight MLP-backed gateways
whose scheduler can be stalled deterministically.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ServeError
from repro.serve import (FineTuneService, GatewayError, GatewayServer,
                         RateLimited, RateLimiter, ServeClient)

from conftest import make_mlp_graph


def build_mlp(batch: int):
    return make_mlp_graph(batch=batch, din=5, dhidden=6, dout=3,
                          seed=0)[0].graph


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(interval)


def mlp_example(rng):
    return (rng.standard_normal(5).astype(np.float32),
            int(rng.integers(0, 3)))


def json_step(conn: http.client.HTTPConnection, session_id: str, x,
              y: int) -> dict:
    """One step on the gateway's JSON route, the one ``curl`` uses."""
    conn.request("POST", f"/v1/sessions/{session_id}/step",
                 json.dumps({"x": np.asarray(x).tolist(), "y": y}),
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    body = response.read()
    assert response.status == 200, body
    return json.loads(body)


@contextmanager
def mlp_gateway(*, workers=1, max_batch=2, max_queue_depth=64,
                rate_limit=None, rate_burst=None, sessions=1,
                **service_kwargs):
    """A gateway over an MLP-backed service with pre-opened sessions."""
    service = FineTuneService(max_batch=max_batch, workers=workers,
                              **service_kwargs)
    gateway = GatewayServer(service, max_queue_depth=max_queue_depth,
                            rate_limit=rate_limit, rate_burst=rate_burst)
    gateway.start()
    opened = [service.create_session(build_mlp, model_id="mlp",
                                     scheme="full", tenant=f"tenant-{i}")
              for i in range(sessions)]
    client = ServeClient(gateway.url)
    try:
        yield service, gateway, client, opened
    finally:
        client.close()
        gateway.close(drain_timeout=10.0)


def stall_scheduler(service, running: threading.Event | None = None):
    """Wrap the scheduler's batch runner behind a release event;
    ``running`` is set once a batch waits there."""
    release = threading.Event()
    original = service.scheduler._run_batch

    def stalled(session, batch):
        if running is not None:
            running.set()
        assert release.wait(timeout=30)
        return original(session, batch)

    service.scheduler._run_batch = stalled
    return release


# ---------------------------------------------------------------------------
# rate limiter
# ---------------------------------------------------------------------------

class TestRateLimiter:

    def _limiter(self, rate, burst=None):
        clock = {"now": 0.0}
        limiter = RateLimiter(rate, burst=burst,
                              clock=lambda: clock["now"])
        return limiter, clock

    def test_disabled_always_admits(self):
        limiter, _ = self._limiter(None)
        assert all(limiter.try_acquire("t") == 0.0 for _ in range(100))
        assert len(limiter) == 0  # no bucket state accrued

    def test_burst_then_refusal_with_retry_hint(self):
        limiter, _ = self._limiter(2.0, burst=3)
        assert [limiter.try_acquire("t") for _ in range(3)] == [0.0] * 3
        retry = limiter.try_acquire("t")
        assert retry == pytest.approx(0.5)  # 1 token at 2/s

    def test_refill_readmits(self):
        limiter, clock = self._limiter(2.0, burst=1)
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") > 0.0
        clock["now"] = 0.6  # > 0.5s -> one token matured
        assert limiter.try_acquire("t") == 0.0

    def test_tokens_cap_at_burst(self):
        limiter, clock = self._limiter(10.0, burst=2)
        clock["now"] = 100.0  # long idle must not bank unbounded credit
        grants = [limiter.try_acquire("t") for _ in range(3)]
        assert grants[:2] == [0.0, 0.0] and grants[2] > 0.0

    def test_keys_are_isolated(self):
        limiter, _ = self._limiter(1.0, burst=1)
        assert limiter.try_acquire("a") == 0.0
        assert limiter.try_acquire("a") > 0.0
        assert limiter.try_acquire("b") == 0.0  # b has its own bucket

    def test_validation(self):
        with pytest.raises(ServeError):
            RateLimiter(0.0)
        with pytest.raises(ServeError):
            RateLimiter(1.0, burst=0.5)


# ---------------------------------------------------------------------------
# HTTP protocol over a lightweight service
# ---------------------------------------------------------------------------

class TestGatewayProtocol:

    def test_step_and_lifecycle_roundtrip(self):
        rng = np.random.default_rng(0)
        with mlp_gateway() as (service, gateway, client, (session,)):
            results = [client.step(session.id, *mlp_example(rng))
                       for _ in range(3)]
            assert [r["step"] for r in results] == [1, 2, 3]
            assert all(np.isfinite(r["loss"]) for r in results)

            health = client.healthz()
            assert health["status"] == "ok"
            assert health["sessions"] == 1

            metrics = client.metrics()
            assert metrics["serve.steps_total"] == 3
            assert metrics["serve.queue_depth"] == 0
            assert metrics["serve.http_requests_total"] >= 3

            summary = client.close_session(session.id)
            assert summary["steps"] == 3
            with pytest.raises(GatewayError) as excinfo:
                client.session(session.id)
            assert excinfo.value.status == 404

    def test_error_statuses(self):
        with mlp_gateway() as (service, gateway, client, (session,)):
            with pytest.raises(GatewayError) as excinfo:
                client.step("sess-9999", np.zeros(5, np.float32), 0)
            assert excinfo.value.status == 404
            # wrong payload shape -> service-level validation -> 400
            with pytest.raises(GatewayError) as excinfo:
                client.step(session.id, np.zeros(3, np.float32), 0)
            assert excinfo.value.status == 400
            # unroutable path -> 404
            with pytest.raises(GatewayError) as excinfo:
                client._request("GET", "/v2/nope")
            assert excinfo.value.status == 404
            # bad model over HTTP -> 400
            with pytest.raises(GatewayError) as excinfo:
                client.create_session("no_such_model")
            assert excinfo.value.status == 400

    def test_labels_that_are_no_class_id_are_400(self):
        """Over JSON a label arrives as sent: 1.5 is refused, not cut to
        1; -1 and 3 (of 3 classes) are refused, not wrapped or left to
        fail in a batch."""
        import urllib.error

        with mlp_gateway() as (service, gateway, client, (session,)):
            for label in (-1, 3, 1.5):
                request = urllib.request.Request(
                    f"{gateway.url}/v1/sessions/{session.id}/step",
                    data=json.dumps({"x": [0.0] * 5, "y": label}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=30)
                assert excinfo.value.code == 400
                assert "class id" in json.loads(excinfo.value.read())["error"]
            assert session.step_seq == 0
            assert client.step(session.id, np.zeros(5, np.float32), 2)[
                "step"] == 1

    def test_plain_urllib_speaks_the_protocol(self):
        """The protocol is plain JSON-over-HTTP, not client-specific."""
        rng = np.random.default_rng(1)
        with mlp_gateway() as (service, gateway, client, (session,)):
            x, y = mlp_example(rng)
            request = urllib.request.Request(
                f"{gateway.url}/v1/sessions/{session.id}/step",
                data=json.dumps({"x": x.tolist(), "y": y}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
            assert response.status == 200
            assert np.isfinite(body["loss"])


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

class TestBackpressure:

    def test_zero_watermark_sheds_everything(self):
        rng = np.random.default_rng(2)
        with mlp_gateway(max_queue_depth=0) as (service, gateway, client,
                                                (session,)):
            with pytest.raises(RateLimited) as excinfo:
                client.step(session.id, *mlp_example(rng), wait=False)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
            assert client.metrics()["serve.http_shed_total"] >= 1

    def test_watermark_sheds_under_stalled_scheduler(self):
        """Queue at the watermark -> 429 + Retry-After; drained -> 200."""
        rng = np.random.default_rng(3)
        with mlp_gateway(max_queue_depth=2,
                         max_batch=1) as (service, gateway, client,
                                          (session,)):
            release = stall_scheduler(service)
            try:
                # One request occupies the worker; two more fill the queue
                # to the watermark (all live depth, no render needed).
                futures = [service.submit(session.id, *mlp_example(rng))
                           for _ in range(3)]
                with pytest.raises(RateLimited) as excinfo:
                    client.step(session.id, *mlp_example(rng), wait=False)
                assert excinfo.value.retry_after > 0
            finally:
                release.set()
            for future in futures:
                future.result(timeout=30)
            # Backlog cleared: the same request is admitted now.
            result = client.step(session.id, *mlp_example(rng))
            assert np.isfinite(result["loss"])
            metrics = client.metrics()
            assert metrics["serve.http_shed_total"] == 1

    def test_client_wait_retries_through_shed(self):
        """A wait=True client rides out a transient watermark."""
        rng = np.random.default_rng(4)
        with mlp_gateway(max_queue_depth=1,
                         max_batch=1) as (service, gateway, client,
                                          (session,)):
            release = stall_scheduler(service)
            futures = [service.submit(session.id, *mlp_example(rng))
                       for _ in range(2)]
            done = threading.Event()
            outcome = {}

            def patient_step():
                outcome["result"] = client.step(
                    session.id, *mlp_example(rng), wait=True, max_wait=30)
                done.set()

            thread = threading.Thread(target=patient_step, daemon=True)
            thread.start()
            # The client is retrying against a full queue right now.
            release.set()
            assert done.wait(timeout=30)
            thread.join(timeout=5)
            assert np.isfinite(outcome["result"]["loss"])
            for future in futures:
                future.result(timeout=30)


# ---------------------------------------------------------------------------
# per-tenant rate limits
# ---------------------------------------------------------------------------

class TestRateLimitEnforcement:

    def test_tenants_are_limited_independently(self):
        rng = np.random.default_rng(5)
        with mlp_gateway(rate_limit=1.0, rate_burst=1,
                         sessions=2) as (service, gateway, client, opened):
            greedy, polite = opened
            assert np.isfinite(
                client.step(greedy.id, *mlp_example(rng),
                            wait=False)["loss"])
            with pytest.raises(RateLimited) as excinfo:
                client.step(greedy.id, *mlp_example(rng), wait=False)
            assert excinfo.value.retry_after > 0
            # The other tenant's bucket is untouched.
            assert np.isfinite(
                client.step(polite.id, *mlp_example(rng),
                            wait=False)["loss"])
            assert client.metrics()["serve.http_rate_limited_total"] >= 1

    def test_wait_honours_retry_after(self):
        rng = np.random.default_rng(6)
        with mlp_gateway(rate_limit=5.0, rate_burst=1) as (
                service, gateway, client, (session,)):
            first = client.step(session.id, *mlp_example(rng))
            # Burst spent: the next step must wait ~0.2s for a token, and
            # wait=True absorbs that instead of surfacing the 429.
            second = client.step(session.id, *mlp_example(rng),
                                 wait=True, max_wait=10)
            assert second["step"] == first["step"] + 1


# ---------------------------------------------------------------------------
# shutdown semantics
# ---------------------------------------------------------------------------

class TestShutdown:

    def test_loop_awaits_tasks_spawned_after_the_stop(self):
        """A handler still unwinding when the settle path stops the loop,
        and spawning a task then, gets that task run to completion before
        the loop closes."""
        service = FineTuneService(workers=1)
        gateway = GatewayServer(service).start()
        finished = threading.Event()
        tasks = []

        async def spawned():
            await asyncio.sleep(0.05)
            finished.set()

        async def handler():
            await asyncio.sleep(0.2)  # outlives the loop's stop
            tasks.append(asyncio.get_running_loop().create_task(spawned()))

        asyncio.run_coroutine_threadsafe(handler(), gateway._loop)
        gateway.close()
        gateway._thread.join(timeout=5)
        assert not gateway._thread.is_alive()
        assert finished.is_set()

    def test_close_settles_every_future_and_refuses_new_work(self):
        rng = np.random.default_rng(7)
        service = FineTuneService(max_batch=1, workers=1)
        gateway = GatewayServer(service, max_queue_depth=64).start()
        session = service.create_session(build_mlp, model_id="mlp",
                                         scheme="full")
        client = ServeClient(gateway.url)
        running = threading.Event()
        release = stall_scheduler(service, running)
        outcomes: list[object] = []

        def blocked_step():
            try:
                outcomes.append(client.step(session.id, *mlp_example(rng),
                                            wait=False))
            except GatewayError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=blocked_step, daemon=True)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        # All three steps are on the server: one batch stalled, two queued
        # behind it. Two queued alone can be the first two steps before
        # the batch is cut, with the third client not yet connected: a
        # close() then refuses its connection, and that client gets no
        # HTTP status at all.
        wait_until(lambda: running.is_set()
                   and service.scheduler.queue_depth() >= 2)

        try:
            # Bounded shutdown against a stalled worker: drain times out,
            # queued futures are cancelled (503 to their clients), nothing
            # hangs.
            drained = gateway.close(drain_timeout=0.2)
            assert not drained
        finally:
            release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "a handler left a client hanging"
        assert len(outcomes) == 3
        statuses = [o.status if isinstance(o, GatewayError) else 200
                    for o in outcomes]
        # The in-flight batch finishes in the background (200); queued
        # requests were cancelled (503). Nothing else is acceptable.
        assert statuses.count(503) >= 1
        assert set(statuses) <= {200, 503}

        # The front door is genuinely down: new connections are refused
        # and service-level submits raise.
        with pytest.raises(GatewayError):
            client.healthz()
        with pytest.raises(ServeError):
            service.submit(session.id, *map(np.asarray, mlp_example(rng)))
        client.close()

    def test_every_route_answers_503_once_the_service_is_shut_down(self):
        """Shutdown is told apart by type, not by message: step, create
        and restore all answer 503 while the front door still listens."""
        rng = np.random.default_rng(3)
        with mlp_gateway() as (service, gateway, client, (session,)):
            blob = service.checkpoint_bytes(session.id)
            service.shutdown()
            calls = {
                "step": lambda: client.step(session.id, *mlp_example(rng),
                                            wait=False),
                "create": lambda: client.create_session("mcunet_micro"),
                "restore bytes": lambda: client.restore(blob),
                "restore stored": lambda: client.restore(
                    session_id=session.id),
            }
            for route, call in calls.items():
                with pytest.raises(GatewayError) as info:
                    call()
                assert info.value.status == 503, route

    def test_close_does_not_stall_on_a_handler_ending_mid_stop(self):
        """A connection handler that ends after ``close()`` began but
        before it stopped accepting must not stop the event loop under
        the stop-accepting coroutine (which ``close()`` then waited 5 s
        for). ``_stop_accepting`` is held on a future so the handler ends
        inside that window every time."""
        service = FineTuneService(max_batch=1, workers=1)
        gateway = GatewayServer(service).start()
        loop, original = gateway._loop, gateway._stop_accepting
        held: dict = {}
        entered = threading.Event()

        async def stop_accepting_held():
            held["gate"] = loop.create_future()
            entered.set()
            await held["gate"]
            await original()

        gateway._stop_accepting = stop_accepting_held
        sock = socket.create_connection((gateway.host, gateway.port))
        wait_until(lambda: len(gateway._conn_busy) == 1)
        closer = threading.Thread(target=gateway.close, daemon=True)
        closer.start()
        assert entered.wait(timeout=10)
        sock.close()  # the idle handler reads EOF and ends in the window
        wait_until(lambda: not gateway._conn_busy)
        # Had the handler stopped the loop, its thread retires within the
        # loop's 1 s grace for pending tasks, before the gate opens.
        gateway._thread.join(timeout=1.5)
        try:
            loop.call_soon_threadsafe(
                lambda: held["gate"].done() or held["gate"].set_result(None))
        except RuntimeError:
            pass  # the loop is already closed: close() is stuck
        closer.join(timeout=2.0)
        assert not closer.is_alive(), \
            "close() waited on a stop-accepting coroutine the loop dropped"

    def test_drained_close_resolves_everything(self):
        rng = np.random.default_rng(8)
        with mlp_gateway() as (service, gateway, client, (session,)):
            results = [client.step(session.id, *mlp_example(rng))
                       for _ in range(2)]
            assert all(np.isfinite(r["loss"]) for r in results)
        # context manager closed with no queued work -> full drain
        assert gateway.close() is True  # idempotent, reports drained

    def test_sigint_with_steps_in_flight_drains_and_exits_0(self):
        """``repro serve --http`` as its own process, SIGINT landing while
        four steps sit in its scheduler (a batch hold keeps them queued):
        the process exits 0 within its deadline, having drained, and every
        client gets its step's answer."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) \
            + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--workers", "1", "--max-batch", "8", "--batch-hold-ms", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        watchdog = threading.Timer(120, server.kill)
        watchdog.start()
        outcomes: list[object] = []
        try:
            line = ""
            while "listening on " not in line:
                line = server.stdout.readline()
                assert line, "the server exited before listening"
            url = line.split("listening on ")[1].split()[0]
            client, admin = ServeClient(url), ServeClient(url)
            doc = admin.create_session("mcunet_micro")
            rng = np.random.default_rng(14)
            examples = [
                (rng.standard_normal(doc["input_shape"]).astype(np.float32),
                 int(rng.integers(0, doc["num_classes"]))) for _ in range(4)]

            def step(x, y):
                try:
                    outcomes.append(client.step(doc["session_id"], x, y,
                                                wait=False))
                except GatewayError as exc:
                    outcomes.append(exc)

            threads = [threading.Thread(target=step, args=example,
                                        daemon=True) for example in examples]
            for thread in threads:
                thread.start()
            # the single worker holds the batch for fill: all four queued
            wait_until(lambda: admin.metrics()["serve.queue_depth"] == 4,
                       timeout=30)
            admin.close()
            server.send_signal(signal.SIGINT)
            output, _ = server.communicate(timeout=30)
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a client was left hanging"
            client.close()
        finally:
            watchdog.cancel()
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, output
        assert "shutdown: queue drained cleanly" in output
        assert len(outcomes) == 4
        assert all(isinstance(o, dict) and np.isfinite(o["loss"])
                   for o in outcomes), outcomes


# ---------------------------------------------------------------------------
# many connections held at once
# ---------------------------------------------------------------------------

class TestHeldConnections:

    def test_512_keep_alive_connections_are_held_and_served(self):
        """The event loop holds 512 keep-alive connections open at once;
        each answers two healthz round trips while all the others stay
        open, and a real step is served in the middle of the hold."""
        resource = pytest.importorskip("resource")
        target, senders = 512, 16
        # this process holds both ends of every connection
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        want = 2 * target + 256
        if hard != resource.RLIM_INFINITY and hard < want:
            pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {want}")
        if soft != resource.RLIM_INFINITY and soft < want:
            resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
        rng = np.random.default_rng(15)
        conns: list[http.client.HTTPConnection] = []
        try:
            with mlp_gateway() as (_service, gateway, client, (session,)):
                for _ in range(target):
                    conn = http.client.HTTPConnection(
                        gateway.host, gateway.port, timeout=60)
                    conn.connect()
                    conns.append(conn)
                wait_until(lambda: len(gateway._conn_busy) >= target)
                answered: list[int] = []
                failures: list[Exception] = []

                def sweep(shard):
                    for conn in shard:
                        try:
                            conn.request("GET", "/v1/healthz")
                            response = conn.getresponse()
                            response.read()
                            answered.append(response.status)
                        except (OSError, http.client.HTTPException) as exc:
                            failures.append(exc)

                for round_no in range(2):
                    threads = [threading.Thread(target=sweep,
                                                args=(conns[i::senders],))
                               for i in range(senders)]
                    for thread in threads:
                        thread.start()
                    if round_no == 0:
                        result = client.step(session.id, *mlp_example(rng))
                    for thread in threads:
                        thread.join(timeout=60)
                        assert not thread.is_alive()
                assert len(gateway._conn_busy) >= target
        finally:
            for conn in conns:
                conn.close()
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert len(conns) == target
        assert not failures, failures[:3]
        assert answered == [200] * (2 * target)
        assert np.isfinite(result["loss"])


# ---------------------------------------------------------------------------
# end-to-end over a real registry model (the acceptance-criteria path)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_gateway():
    with FineTuneService(max_batch=2, workers=2) as service:
        gateway = GatewayServer(service, max_queue_depth=256).start()
        try:
            yield gateway
        finally:
            gateway.close(drain_timeout=10.0)


class TestEndToEnd:

    def test_two_concurrent_tenants_over_http(self, real_gateway):
        """Two tenants, created and driven entirely over HTTP, train
        concurrently with per-session FIFO results."""
        client = ServeClient(real_gateway.url)
        docs = [client.create_session("mcunet_micro", scheme="paper",
                                      tenant=f"t{i}") for i in range(2)]
        assert docs[0]["session_id"] != docs[1]["session_id"]
        assert docs[0]["num_classes"] >= 2

        steps_per_tenant = 5
        results: dict[str, list[dict]] = {d["session_id"]: [] for d in docs}
        errors: list[Exception] = []

        def drive(doc):
            rng = np.random.default_rng(hash(doc["tenant"]) % 2**32)
            shape = tuple(doc["input_shape"])
            try:
                for _ in range(steps_per_tenant):
                    x = rng.standard_normal(shape).astype(np.float32)
                    y = int(rng.integers(0, doc["num_classes"]))
                    results[doc["session_id"]].append(
                        client.step(doc["session_id"], x, y))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(doc,), daemon=True)
                   for doc in docs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        assert not errors

        for doc in docs:
            mine = results[doc["session_id"]]
            assert len(mine) == steps_per_tenant
            assert all(r["session_id"] == doc["session_id"] for r in mine)
            assert [r["step"] for r in mine] == \
                sorted(r["step"] for r in mine), "per-session FIFO violated"
            assert all(np.isfinite(r["loss"]) for r in mine)

        metrics = client.metrics()
        assert metrics["serve.steps_total"] >= 2 * steps_per_tenant
        client.close()


# ---------------------------------------------------------------------------
# the binary step wire format over real sockets
# ---------------------------------------------------------------------------

class TestBinaryStepProtocol:

    def test_healthz_advertises_binary_step(self):
        with mlp_gateway() as (_service, _gateway, client, _sessions):
            assert "binary_step" in client.healthz()["features"]

    def test_binary_and_json_steps_are_byte_identical(self):
        """Two sessions with identical initial state, one driven binary
        (the client) and one JSON (the route ``curl`` uses), must see
        exactly the same losses — the formats carry the same bits into
        the same kernels."""
        rng = np.random.default_rng(11)
        examples = [mlp_example(rng) for _ in range(6)]
        with mlp_gateway(sessions=2) as (_service, gateway, client,
                                         sessions):
            conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                              timeout=30)
            try:
                json_losses = [json_step(conn, sessions[0].id, x, y)["loss"]
                               for x, y in examples]
            finally:
                conn.close()
            bin_losses = [client.step(sessions[1].id, x, y)["loss"]
                          for x, y in examples]
            assert json_losses == bin_losses

    def test_client_steps_are_binary_keyed_and_unprobed(self):
        """The client has one way to step: a binary frame carrying a
        fresh ``Idempotency-Key``, with no ``/v1/healthz`` probe first."""
        rng = np.random.default_rng(4)
        with mlp_gateway() as (service, _gateway, client, (session,)):
            for _ in range(3):
                client.step(session.id, *mlp_example(rng))
            metrics = service.metrics.as_dict()
            keys = session.idempotency_window()
        assert metrics["serve.http.steps_binary"] == 3
        assert metrics.get("serve.http.steps_json", 0) == 0
        assert metrics["serve.http_requests_total"] == 3   # steps only
        assert len(keys) == 3
        assert all(key.startswith(f"{session.id}:") for key in keys)

    def test_a_step_is_counted_before_its_response_is_written(self):
        """A client holding a step's response finds that step in the
        metrics: at the moment the gateway writes the response, the step
        and its request + response bytes are already on its counters."""
        rng = np.random.default_rng(6)
        with mlp_gateway() as (service, gateway, client, (session,)):
            seen = []
            write = gateway._write_response

            def counting_write(writer, status, body, content_type,
                               *args, **kwargs):
                metrics = service.metrics.as_dict()
                seen.append((len(body), *(metrics.get(f"serve.http.{name}", 0)
                                          for name in ("steps_binary",
                                                       "step_bytes_binary",
                                                       "steps_json",
                                                       "step_bytes_json"))))
                write(writer, status, body, content_type, *args, **kwargs)

            gateway._write_response = counting_write
            for _ in range(2):
                client.step(session.id, *mlp_example(rng))
            conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                              timeout=30)
            try:
                json_step(conn, session.id, *mlp_example(rng))
            finally:
                conn.close()
        (b1, n1, bytes1, j1, _), (b2, n2, bytes2, j2, _), \
            (b3, n3, bytes3, j3, jbytes3) = seen
        assert (n1, n2, n3) == (1, 2, 2)
        assert (j1, j2, j3) == (0, 0, 1)
        # each step's bytes are its request's plus its response's
        assert bytes1 > b1 and bytes2 - bytes1 > b2 and bytes3 == bytes2
        assert jbytes3 > b3

    def test_binary_step_body_is_a_quarter_of_json(self, real_gateway):
        """Per the gateway's own ``serve.http.step_bytes_*`` counters, one
        ``mcunet_micro`` step costs at most a quarter of the HTTP body
        bytes as a frame that it costs as JSON."""
        client = ServeClient(real_gateway.url)
        doc = client.create_session("mcunet_micro")
        rng = np.random.default_rng(2)
        conn = http.client.HTTPConnection(real_gateway.host,
                                          real_gateway.port, timeout=60)
        try:
            for _ in range(2):
                x = rng.standard_normal(doc["input_shape"]) \
                    .astype(np.float32)
                y = int(rng.integers(0, doc["num_classes"]))
                json_step(conn, doc["session_id"], x, y)
                client.step(doc["session_id"], x, y)
        finally:
            conn.close()
        metrics = client.metrics()
        client.close_session(doc["session_id"])
        client.close()
        per_json = metrics["serve.http.step_bytes_json"] \
            / metrics["serve.http.steps_json"]
        per_binary = metrics["serve.http.step_bytes_binary"] \
            / metrics["serve.http.steps_binary"]
        assert 4 * per_binary <= per_json

    def test_binary_response_negotiated_by_accept(self):
        from repro.serve import wire
        rng = np.random.default_rng(3)
        x, y = mlp_example(rng)
        with mlp_gateway() as (_service, gateway, _client, (session,)):
            import http.client as hc
            conn = hc.HTTPConnection(gateway.host, gateway.port, timeout=30)
            frame = wire.encode_frame(None, {
                "x": np.asarray(x), "y": np.asarray(y)})
            conn.request("POST", f"/v1/sessions/{session.id}/step", frame,
                         {"Content-Type": wire.CONTENT_TYPE,
                          "Accept": wire.CONTENT_TYPE})
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.headers["Content-Type"] == wire.CONTENT_TYPE
            meta, tensors = wire.decode_frame(body)
            assert tensors == {}
            assert np.isfinite(meta["loss"])
            assert meta["session_id"] == session.id
            conn.close()

    def test_malformed_frames_get_400_and_connection_survives(self):
        """Truncated / oversized / bad-magic frames are each a clean 400
        on a keep-alive connection that remains usable — never a hang,
        never a poisoned stream."""
        from repro.serve import wire
        rng = np.random.default_rng(5)
        x, y = mlp_example(rng)
        good = wire.encode_frame(None, {"x": np.asarray(x),
                                        "y": np.asarray(y)})
        bad_magic = b"EVIL" + good[4:]
        bad_bodies = [
            b"",                           # empty
            good[:7],                      # shorter than the magic
            good[: len(good) // 2],        # truncated mid-tensor
            bad_magic,                     # wrong magic
            bytes(rng.integers(0, 256, 512, dtype=np.uint8)),  # noise
            wire.encode_frame(None, {"x": np.asarray(x)}),     # missing y
        ]
        with mlp_gateway() as (_service, gateway, _client, (session,)):
            import http.client as hc
            conn = hc.HTTPConnection(gateway.host, gateway.port, timeout=30)
            path = f"/v1/sessions/{session.id}/step"
            for raw in bad_bodies:
                conn.request("POST", path, raw,
                             {"Content-Type": wire.CONTENT_TYPE})
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400, (raw[:16], body)
                assert "error" in body
            # same connection, valid frame: still fully serviceable
            conn.request("POST", path, good,
                         {"Content-Type": wire.CONTENT_TYPE})
            response = conn.getresponse()
            result = json.loads(response.read())
            assert response.status == 200
            assert np.isfinite(result["loss"])
            conn.close()


# ---------------------------------------------------------------------------
# bearer-token tenant auth
# ---------------------------------------------------------------------------

@contextmanager
def authed_gateway():
    service = FineTuneService(max_batch=2, workers=1)
    gateway = GatewayServer(service, auth_tokens={
        "token-a": "tenant-a", "token-b": "tenant-b"}).start()
    try:
        yield service, gateway
    finally:
        gateway.close(drain_timeout=10.0)


class TestTenantAuth:

    def test_healthz_is_open_everything_else_is_401(self):
        with authed_gateway() as (_service, gateway):
            anon = ServeClient(gateway.url)
            assert anon.healthz()["status"] == "ok"
            for call in (anon.metrics, anon.trace,
                         lambda: anon.session("nope"),
                         lambda: anon.step("nope", [0.0] * 5, 0,
                                           wait=False)):
                with pytest.raises(GatewayError) as excinfo:
                    call()
                assert excinfo.value.status == 401
            anon.close()

    def test_bad_token_is_401(self):
        with authed_gateway() as (_service, gateway):
            client = ServeClient(gateway.url, token="wrong")
            with pytest.raises(GatewayError) as excinfo:
                client.metrics()
            assert excinfo.value.status == 401
            client.close()

    def test_sessions_are_pinned_to_the_token_tenant(self):
        rng = np.random.default_rng(2)
        with authed_gateway() as (service, gateway):
            session = service.create_session(
                build_mlp, model_id="mlp", scheme="full", tenant="tenant-a")
            owner = ServeClient(gateway.url, token="token-a")
            other = ServeClient(gateway.url, token="token-b")
            try:
                x, y = mlp_example(rng)
                assert np.isfinite(owner.step(session.id, x, y)["loss"])
                assert owner.session(session.id)["tenant"] == "tenant-a"
                for call in (lambda: other.session(session.id),
                             lambda: other.step(session.id, x, y,
                                                wait=False),
                             lambda: other.close_session(session.id)):
                    with pytest.raises(GatewayError) as excinfo:
                        call()
                    assert excinfo.value.status == 403
            finally:
                owner.close()
                other.close()

    def test_create_session_ignores_cross_tenant_claims(self):
        with authed_gateway() as (_service, gateway):
            client = ServeClient(gateway.url, token="token-a")
            try:
                with pytest.raises(GatewayError) as excinfo:
                    client.create_session("mcunet_micro", scheme="paper",
                                          tenant="tenant-b")
                assert excinfo.value.status == 403
            finally:
                client.close()


# ---------------------------------------------------------------------------
# batch-aware dispatch (hold for fill)
# ---------------------------------------------------------------------------

class TestBatchHold:

    def test_hold_improves_fill_and_records_histogram(self):
        """With a hold window, staggered single submits coalesce into
        fuller batches; serve.batch_fill records the fill either way."""
        rng = np.random.default_rng(9)
        examples = [mlp_example(rng) for _ in range(8)]

        def drive(hold_ms):
            with FineTuneService(max_batch=4, workers=1,
                                 batch_hold_ms=hold_ms) as service:
                session = service.create_session(
                    build_mlp, model_id="mlp", scheme="full")
                futures = []
                for x, y in examples:
                    futures.append(service.submit(session.id, x, y))
                    time.sleep(0.002)
                for future in futures:
                    future.result(60)
                stats = service.metrics.as_dict()
            summary = stats.get("serve.batch_fill") or {}
            return summary.get("mean"), summary.get("count")

        fill_hold, count_hold = drive(hold_ms=50.0)
        assert count_hold and count_hold >= 1
        assert fill_hold is not None and fill_hold > 0.25, \
            "held dispatch should beat one-request batches"


# ---------------------------------------------------------------------------
# claimed steps: an idle server runs the step on the event loop
# ---------------------------------------------------------------------------

@pytest.fixture
def fast_bound(monkeypatch):
    """Lift the claim bound so a loaded host cannot push the MLP step
    past it (the bound itself is tested in test_serve.py)."""
    monkeypatch.setattr(sys, "getswitchinterval", lambda: 1.0)


class TestClaimedSteps:

    def test_sequential_steps_run_on_the_loop(self, fast_bound):
        rng = np.random.default_rng(11)
        with mlp_gateway() as (service, _gateway, client, (session,)):
            for _ in range(10):
                client.step(session.id, *mlp_example(rng))
            stats = service.stats()
        # the first step has no measured execute time yet: it pools
        assert stats["serve.claims_run_total"] >= 9
        assert stats["serve.batches_total"] == 10

    def test_concurrent_connections_still_coalesce(self, fast_bound):
        """2 sessions x 8 connections: the pool still cuts batches of more
        than one, and claims run only at idle moments."""
        rng = np.random.default_rng(12)
        with mlp_gateway(max_batch=8, sessions=2) as (
                service, gateway, _client, sessions):
            pools = [[mlp_example(rng) for _ in range(12)]
                     for _ in range(16)]
            barrier = threading.Barrier(16)
            errors = []

            def connection(i):
                with ServeClient(gateway.url) as client:
                    barrier.wait()
                    try:
                        for x, y in pools[i]:
                            client.step(sessions[i % 2].id, x, y)
                    except Exception as exc:  # noqa: BLE001 - reported
                        errors.append(exc)

            threads = [threading.Thread(target=connection, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            stats = service.stats()
        assert stats["serve.examples_total"] == 16 * 12
        assert stats["serve.batch_size"]["mean"] > 1
        assert stats["serve.claims_run_total"] \
            < stats["serve.batches_total"] / 4

    def test_claimed_run_never_holds_for_fill(self, fast_bound):
        """With a hold window and one worker, a lone client's pooled step
        enters the hold; a claimed one must not, since nothing else can
        submit while it holds the loop. Counted at the hold itself, not
        read off the clock."""
        rng = np.random.default_rng(13)
        with mlp_gateway(workers=1, batch_hold_ms=50.0) as (
                service, _gateway, client, (session,)):
            scheduler = service.scheduler
            hold, holds = scheduler._hold_for_fill, []

            def counted(queue):
                holds.append(len(queue))
                return hold(queue)

            scheduler._hold_for_fill = counted
            for _ in range(20):
                client.step(session.id, *mlp_example(rng))
            claims = service.stats()["serve.claims_run_total"]
        assert claims >= 19
        assert len(holds) == 20 - claims, holds
