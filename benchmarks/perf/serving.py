"""Serving workloads: the HTTP front door and the in-process batched service.

``serve_http_tenants`` boots ``python -m repro.cli serve --http 0 --model
mcunet_micro`` with no other flag (so a changed default shows) and drives it
closed-loop from two tenant threads. ``serve_inproc_batched`` bypasses the
gateway and wire: one generator thread keeps 32 ``submit()`` futures
outstanding over four sessions of a default ``FineTuneService()``.
"""

from __future__ import annotations

import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, deque
from pathlib import Path
from time import monotonic, perf_counter, sleep

import numpy as np

from repro.serve import wire
from repro.serve.client import GatewayError, ServeClient

import layers
from common import (ALL_CPUS, LOAD_CPUS, SUT_CPUS, RunResult, run_on,
                    self_rss_mb)
from spans import Tracer
from stats import Sample, pooled_p95_ms

MODEL = "mcunet_micro"
POOL = 64
BOOT_DEADLINE_S = 60.0
#: request spans kept for the Chrome trace (medians use every request)
KEEP_REQUEST_SPANS = 2000

GATEWAY_STAGES = ("admission", "resume", "serialize")
SERVICE_STAGES = ("queue_wait", "batch_wait", "execute")


def example_pool(seed: int, shape, classes: int):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((POOL, *shape)).astype(np.float32)
    ys = rng.integers(0, classes, POOL).astype(np.int64)
    return xs, ys, int(rng.integers(0, POOL))


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            found.append(int(entry))
    return found


class ServerProcess:
    """The gateway as a subprocess in its own process group."""

    def __init__(self, src: Path, scratch: Path, cpus: frozenset[int],
                 *flags: str) -> None:
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        # tempfile-backed cache dirs of the process backend land here
        env["TMPDIR"] = str(scratch)
        self.output: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        began = perf_counter()
        mine = os.sched_getaffinity(0)
        run_on(cpus)  # the child inherits the affinity it is forked under
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
                 "--model", MODEL, *flags],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env, cwd=scratch, start_new_session=True)
        finally:
            run_on(mine)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.boot_s = perf_counter() - began

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_listening(self) -> str:
        deadline = monotonic() + BOOT_DEADLINE_S
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"server did not listen within {BOOT_DEADLINE_S}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"server exited during boot (rc={self.proc.poll()}):\n"
                    + "".join(self.output))
            if "listening on http://" in line:
                return line.split("listening on ")[1].split()[0]

    def peak_rss_mb(self) -> float:
        """Sum of the high-water RSS of every process in the group."""
        total = 0.0
        for pid in group_members(self.proc.pid):
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    def stop(self, graceful: bool = False) -> None:
        """SIGINT first when a clean exit is worth waiting for, then SIGKILL
        the whole group; reap; fail on survivors."""
        pgid = self.proc.pid
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        deadline = monotonic() + 10
        while group_members(pgid) and monotonic() < deadline:
            sleep(0.05)
        shutil.rmtree(self.scratch, ignore_errors=True)
        survivors = group_members(pgid)
        if survivors:
            raise RuntimeError(f"server children survived: {survivors}")


def median_ms(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class ServeHttpTenants:
    name = "serve_http_tenants"
    #: sixteen acks per tenant: enough to even out whose turn it was
    min_chunk_ops = 32
    chunk_align = 1
    tenants = 2

    def __init__(self, tracer: Tracer, src: Path, scratch: Path,
                 flags: tuple[str, ...] = (),
                 server_cpus: frozenset[int] = SUT_CPUS) -> None:
        self.tracer, self.src, self.scratch = tracer, src, scratch
        #: server flags; the workload itself passes none
        self.flags = flags
        self.server_cpus = server_cpus
        self.attempted = self.failed = 0
        self.server: ServerProcess | None = None
        self.clients: list[ServeClient] = []

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.server = ServerProcess(self.src, self.scratch / "server",
                                    self.server_cpus, *self.flags)
        run_on(LOAD_CPUS)
        self.clients = [ServeClient(self.server.url)
                        for _ in range(self.tenants)]
        self.sessions = [client.create_session(MODEL)
                         for client in self.clients]
        doc = self.sessions[0]
        self.pools = [example_pool(seed * 1009 + t, tuple(doc["input_shape"]),
                                   int(doc["num_classes"]))
                      for t in range(self.tenants)]
        self.acked = [[] for _ in range(self.tenants)]
        self.attempted = self.failed = 0
        self._drive(count=24)

    def _drive(self, *, seconds: float = 0.0, count: int = 0,
               traced: bool = False) -> list[list]:
        """Each tenant steps its own session over its own keep-alive
        connection, sending the next request when the last one is acked."""
        barrier = threading.Barrier(self.tenants + 1)
        records: list[list] = [[] for _ in range(self.tenants)]
        errors: list[BaseException] = []

        def tenant(t: int) -> None:
            client = self.clients[t]
            sid = self.sessions[t]["session_id"]
            xs, ys, phase = self.pools[t]
            out, acked = records[t], self.acked[t]
            barrier.wait()
            deadline = perf_counter() + seconds
            i = len(acked)
            try:
                while (len(out) < count) if count \
                        else (perf_counter() < deadline):
                    k = (i + phase) % POOL
                    began = perf_counter()
                    try:
                        # wait=False: a refusal is a failure, not a retry
                        doc = client.step(sid, xs[k], ys[k], wait=False)
                    except GatewayError:
                        doc = None
                    ended = perf_counter()
                    out.append((ended, ended - began, doc))
                    if doc is not None:
                        acked.append((doc["step"], doc["loss"]))
                        if traced:
                            self._request_spans(t, i, began, ended, doc)
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=tenant, args=(t,))
                   for t in range(self.tenants)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.attempted += sum(len(out) for out in records)
        self.failed += sum(doc is None for out in records
                           for _, _, doc in out)
        return records

    def gate(self) -> list[str]:
        return []  # the oracle gate covers this model under compile_zoo

    def run(self, seconds: float) -> RunResult:
        began = perf_counter()
        records = self._drive(seconds=seconds)
        flat = [r for out in records for r in out]
        return RunResult(
            [Sample(e, s) for e, s, doc in flat if doc is not None], began)

    def verify(self) -> list[str]:
        found = []
        for t, acked in enumerate(self.acked):
            steps = [step for step, _ in acked]
            if any(b <= a for a, b in zip(steps, steps[1:])):
                found.append(f"tenant {t}: acked steps not increasing")
            if not all(math.isfinite(loss) for _, loss in acked):
                found.append(f"tenant {t}: non-finite loss acked")
            doc = self.clients[t].session(self.sessions[t]["session_id"])
            if doc["examples"] != len(acked):
                found.append(f"tenant {t}: server counts {doc['examples']} "
                             f"examples, client holds {len(acked)} acks")
        return found

    def peak_transient_bytes(self) -> int:
        metrics = self.clients[0].metrics()
        return int(sum(value for key, value in metrics.items()
                       if key.startswith("serve.peak_transient_bytes[")))

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            server, self.server = self.server, None
            # only the process backend has anything to clean up itself
            # (worker processes, shared-memory rings); the default server's
            # drain can take seconds and frees nothing the kill does not
            server.stop(graceful=bool(self.flags))

    # -- traced pass ---------------------------------------------------------

    def _request_spans(self, t: int, i: int, began: float, ended: float,
                       doc: dict) -> None:
        """Lay the server's stage durations out under the client span.

        ``Server-Timing`` carries durations, not clock readings, so the
        stages are placed back to back, centred in the client's interval.
        """
        if len(self.tracer.spans) > 8 * KEEP_REQUEST_SPANS:
            return
        timings = doc.get("timings") or {}
        op_id = f"tenant{t}:{i}"
        root = self.tracer.add("serve.client.step", "serve.client",
                               began, ended, op_id=op_id)
        stages = [(s, timings.get(s, 0.0) / 1e3) for s in (
            "admission", "queue_wait", "batch_wait", "execute", "resume",
            "serialize")]
        # the header rounds each duration to a microsecond: the stages may
        # add up to a hair more than the total they were cut from
        total = max(timings.get("total", 0.0) / 1e3,
                    sum(length for _, length in stages))
        cursor = began + max(0.0, (ended - began - total) / 2)
        inner = self.tracer.add("serve.gateway.request", "serve.gateway",
                                cursor, cursor + total, parent=root,
                                op_id=op_id)
        for stage, length in stages:
            layer = "serve.gateway" if stage in GATEWAY_STAGES \
                else "serve.scheduler" if stage == "queue_wait" \
                else "serve.service"
            self.tracer.add(f"{layer}.{stage}", layer, cursor,
                            cursor + length, parent=inner, op_id=op_id)
            cursor += length

    def trace(self, seconds: float, out_dir: Path) -> dict[str, float]:
        plain_rate, traced_rate, docs, client_ms, plain_s = \
            [], [], [], [], []
        rounds = max(2, int(seconds * 0.6 / 2.0))
        for _ in range(rounds):
            for rates, traced in ((plain_rate, False), (traced_rate, True)):
                began = perf_counter()
                records = self._drive(seconds=1.0, traced=traced)
                rates.append(sum(len(r) for r in records)
                             / (perf_counter() - began))
                for out in records:
                    for _, took, doc in out:
                        if doc is None:
                            continue
                        if not traced:
                            plain_s.append(took)
                        elif doc.get("timings"):
                            docs.append(doc["timings"])
                            client_ms.append(took * 1e3)
        stage = lambda name: median_ms(  # noqa: E731
            [t.get(name, 0.0) for t in docs])
        covered = [sum(t.get(s, 0.0)
                       for s in GATEWAY_STAGES + SERVICE_STAGES) / t["total"]
                   for t in docs if t.get("total")]
        metrics = {
            **{f"serve.gateway.{s}_ms": stage(s) for s in GATEWAY_STAGES},
            "serve.scheduler.queue_wait_ms": stage("queue_wait"),
            "serve.service.batch_wait_ms": stage("batch_wait"),
            "serve.service.execute_ms": stage("execute"),
            "serve.service.total_ms": stage("total"),
            "serve.service.span_coverage": median_ms(covered),
            "serve.client.overhead_ms": median_ms(
                [c - t.get("total", 0.0) for c, t in zip(client_ms, docs)]),
            "serve.gateway.boot_s": self.server.boot_s,
            "op_ms_p50": median_ms(plain_s) * 1e3,
            "op_ms_p95": pooled_p95_ms(plain_s),
            "obs.trace_overhead_share": 1 - statistics.median(traced_rate)
                / statistics.median(plain_rate),
        }
        metrics.update(registry_metrics(self.clients[0].metrics()))
        metrics.update(self._wire_costs())
        metrics["serve.workers.process_req_per_s"] = \
            self._process_backend_rate(min(5.0, seconds * 0.3))
        return metrics

    def _wire_costs(self, repeats: int = 2000) -> dict[str, float]:
        """Direct calls into the binary wire codec for one step's frames."""
        xs, ys, _ = self.pools[0]
        tensors = {"x": xs[0], "y": ys[0]}
        reply = {"session_id": "sess-0000", "loss": 1.0, "step": 1,
                 "batch_size": 1, "program_key": "0" * 64,
                 "request_id": "0" * 16, "replayed": False}
        with self.tracer.span("serve.wire.encode", "serve.wire"):
            began = perf_counter()
            for _ in range(repeats):
                frame = wire.encode_frame(None, tensors)
                answer = wire.encode_frame(reply)
            encode = perf_counter() - began
        with self.tracer.span("serve.wire.decode", "serve.wire"):
            began = perf_counter()
            for _ in range(repeats):
                wire.decode_frame(frame)
                wire.decode_frame(answer)
            decode = perf_counter() - began
        return {"serve.wire.encode_us": encode / repeats * 1e6,
                "serve.wire.decode_us": decode / repeats * 1e6,
                "serve.wire.bytes_per_step": len(frame) + len(answer)}

    def _process_backend_rate(self, seconds: float) -> float:
        """The same closed loop against ``--backend process``: what the
        second worker backend delivers, for the keep-both decision. Its
        worker processes are what could use a second CPU, so this server
        gets every CPU (the load generator stays on its own)."""
        other = ServeHttpTenants(self.tracer, self.src,
                                 self.scratch / "process-backend",
                                 flags=("--backend", "process"),
                                 server_cpus=ALL_CPUS)
        try:
            other.setup(self.seed)
            began = perf_counter()
            records = other._drive(seconds=seconds)
            done = sum(doc is not None for out in records for _, _, doc in out)
            return done / (perf_counter() - began)
        except (RuntimeError, OSError, GatewayError) as exc:
            print(f"warning: process-backend probe failed ({exc}); "
                  f"serve.workers.process_req_per_s reads 0", file=sys.stderr)
            return 0.0
        finally:
            other.close()
            self.attempted += other.attempted
            self.failed += other.failed


def registry_metrics(stats: dict) -> dict[str, float]:
    """Scheduler and cache figures from ``/v1/metrics`` / ``stats()``."""
    hist = lambda name, field: float(  # noqa: E731
        (stats.get(name) or {}).get(field, 0.0))
    return {
        "serve.scheduler.batch_size_mean": hist("serve.batch_size", "mean"),
        "serve.scheduler.batch_fill": hist("serve.batch_fill", "mean"),
        "serve.scheduler.batches": float(stats.get("serve.batches_total", 0)),
        "serve.cache.compiles": float(stats.get("serve.cache.compiles", 0)),
        "serve.cache.hit_ratio": float(stats.get("serve.cache.hit_rate", 0)),
        "serve.cache.compile_ms": hist("serve.compile_ms", "mean"),
    }


class ServeInprocBatched:
    name = "serve_inproc_batched"
    #: eight batches at least, so that one batch more or less is not the rate
    min_chunk_ops = 64
    chunk_align = 1
    tenants = 4
    window = 32

    def __init__(self, tracer: Tracer,
                 probe: layers.CompileProbe | None) -> None:
        self.tracer, self.probe = tracer, probe
        self.service = None

    def setup(self, seed: int) -> None:
        # imported here: the HTTP workload's client process must not pay for
        # (or hold in memory) the compiler stack the service pulls in
        from repro.serve import FineTuneService

        run_on(SUT_CPUS)
        if self.probe is not None:
            # the service builds its forward graphs through this name
            def counted(fn, args, kwargs):
                forward = fn(*args, **kwargs)
                self.probe.count_forward(forward)
                return forward

            self.tracer.wrap("repro.serve.service", "build_model",
                             "frontend.trace", "frontend", around=counted)
        self.service = FineTuneService()
        self.sessions = [self.service.create_session(MODEL)
                         for _ in range(self.tenants)]
        self.service.warm(self.sessions[0].id)
        if self.probe is not None:
            self.probe.end_round()
        family = self.sessions[0].family
        self.xs, self.ys, self.phase = example_pool(
            seed, family.example_shape, family.num_classes)
        self.sent = 0
        self.acked = {s.id: [] for s in self.sessions}
        self.attempted = self.failed = 0
        # the load itself is the warm-up: it executes every bucket size
        self._generate(count=800)

    def _generate(self, *, seconds: float = 0.0, count: int = 0,
                  traced: bool = False) -> list[tuple]:
        """One thread keeps ``window`` futures outstanding, round-robin over
        the sessions; a request's latency runs from ``submit()`` to the
        moment its future resolves."""
        service, sessions = self.service, self.sessions
        xs, ys = self.xs, self.ys
        done: list[tuple] = []
        submit_s: list[float] = []
        outstanding: deque = deque()

        def resolved(began, future):
            # keep plain numbers, not the future and its result: thousands
            # of those would show in this process's peak_rss_mb
            ended = perf_counter()
            ack = None
            if future.exception() is None:
                result = future.result()
                ack = (result.session_id, result.step, result.batch_size,
                       result.loss, result.timings if traced else None)
            done.append((ended, ended - began, ack))

        started = perf_counter()
        sent = 0
        while (sent < count) if count \
                else (perf_counter() - started < seconds):
            while len(outstanding) < self.window:
                i = self.sent
                k = (i + self.phase) % POOL
                began = perf_counter()
                future = service.submit(sessions[i % self.tenants].id,
                                        xs[k], ys[k])
                if traced:
                    submit_s.append(perf_counter() - began)
                future.add_done_callback(
                    lambda f, began=began: resolved(began, f))
                outstanding.append(future)
                self.sent += 1
                sent += 1
            outstanding.popleft().exception()  # wait for the oldest
        for future in outstanding:
            future.exception()
        service.drain()
        self.attempted += len(done)
        for _, _, ack in done:
            if ack is None:
                self.failed += 1
            else:
                self.acked[ack[0]].append(ack[1:4])
        self._submit_s = submit_s
        return done

    def gate(self) -> list[str]:
        return []  # the oracle gate covers this model under compile_zoo

    def run(self, seconds: float) -> RunResult:
        began = perf_counter()
        records = self._generate(seconds=seconds)
        return RunResult(
            [Sample(e, s) for e, s, r in records if r is not None], began)

    def verify(self) -> list[str]:
        found = []
        for session in self.sessions:
            acked = self.acked[session.id]  # (step, batch_size, loss)
            steps = [step for step, _, _ in acked]
            if any(b < a for a, b in zip(steps, steps[1:])):
                found.append(f"{session.id}: acked steps went backwards")
            sizes = Counter(steps)
            if any(sizes[step] != batch for step, batch, _ in acked):
                found.append(f"{session.id}: acks per step differ from the "
                             f"reported batch size")
            if not all(math.isfinite(loss) for _, _, loss in acked):
                found.append(f"{session.id}: non-finite loss acked")
            if session.examples != len(acked):
                found.append(f"{session.id}: session counts "
                             f"{session.examples} examples, "
                             f"{len(acked)} acks held")
        return found

    def peak_transient_bytes(self) -> int:
        return sum(entry.program.plan_spec().peak_transient_bytes
                   for entry in self.service.cache.entries())

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def close(self) -> None:
        if self.service is not None:
            service, self.service = self.service, None
            service.close()

    # -- traced pass ---------------------------------------------------------

    def trace(self, seconds: float, out_dir: Path) -> dict[str, float]:
        metrics = self.probe.metrics()
        plain_rate, traced_rate, timed, submit_us, plain_s = \
            [], [], [], [], []
        rounds = max(2, int(seconds * 0.9 / 2.0))
        for _ in range(rounds):
            for rates, traced in ((plain_rate, False), (traced_rate, True)):
                began = perf_counter()
                records = self._generate(seconds=1.0, traced=traced)
                if traced:
                    base = len(timed)
                    for n, (ended, took, ack) in enumerate(records):
                        if ack is not None and ack[4]:
                            timed.append((took * 1e3, ack[4]))
                            self._request_spans(base + n, ended, took,
                                                ack[4])
                    submit_us += [s * 1e6 for s in self._submit_s]
                else:
                    plain_s += [took for _, took, ack in records
                                if ack is not None]
                rates.append(len(records) / (perf_counter() - began))
        stage = lambda name: median_ms(  # noqa: E731
            [t.get(name, 0.0) for _, t in timed])
        metrics.update({
            "serve.scheduler.queue_wait_ms": stage("queue_wait"),
            "serve.service.batch_wait_ms": stage("batch_wait"),
            "serve.service.execute_ms": stage("execute"),
            "serve.service.total_ms": median_ms([took for took, _ in timed]),
            "serve.service.span_coverage": median_ms(
                [sum(t.get(s, 0.0) for s in SERVICE_STAGES) / took
                 for took, t in timed]),
            "serve.service.submit_us": median_ms(submit_us),
            "op_ms_p50": median_ms(plain_s) * 1e3,
            "op_ms_p95": pooled_p95_ms(plain_s),
            "obs.trace_overhead_share": 1 - statistics.median(traced_rate)
                / statistics.median(plain_rate),
        })
        metrics.update(registry_metrics(self.service.stats()))
        metrics.update(self._session_costs())
        return metrics

    def _request_spans(self, n: int, ended: float, took: float,
                       timings: dict) -> None:
        if n >= KEEP_REQUEST_SPANS:
            return
        op_id = f"slot{n % self.window}:{n}"
        began = ended - took
        root = self.tracer.add("serve.service.request", "serve.service",
                               began, ended, op_id=op_id)
        cursor = began
        for stage in SERVICE_STAGES:
            length = timings.get(stage, 0.0) / 1e3
            layer = "serve.scheduler" if stage == "queue_wait" \
                else "serve.service"
            self.tracer.add(f"{layer}.{stage}", layer, cursor,
                            cursor + length, parent=root, op_id=op_id)
            cursor += length

    def _session_costs(self, repeats: int = 20) -> dict[str, float]:
        """Session create on a warm family, and a checkpoint round trip of
        a session that has trained, beside the live sessions."""
        service, tracer = self.service, self.tracer
        create_ms = []
        for _ in range(repeats):
            with tracer.span("serve.sessions.create", "serve.sessions") as s:
                session = service.create_session(MODEL)
            create_ms.append(tracer.ms(s))
            service.close_session(session.id)
        session = service.create_session(MODEL)
        for k in range(8):
            service.step(session.id, self.xs[k], self.ys[k])
        service.drain()
        dump_ms, restore_ms, size = [], [], 0
        for _ in range(5):
            with tracer.span("serve.checkpoint.dump", "serve.checkpoint") as s:
                data = service.checkpoint_bytes(session.id)
            dump_ms.append(tracer.ms(s))
            size = len(data)
            service.close_session(session.id)
            with tracer.span("serve.checkpoint.restore",
                             "serve.checkpoint") as s:
                session = service.restore_session(data)
            restore_ms.append(tracer.ms(s))
        service.close_session(session.id)
        return {"serve.sessions.create_ms": statistics.median(create_ms),
                "serve.checkpoint.dump_ms": statistics.median(dump_ms),
                "serve.checkpoint.restore_ms": statistics.median(restore_ms),
                "serve.checkpoint.bytes": size}
