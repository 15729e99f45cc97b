"""Tests for the `repro.serve` subsystem.

Covers the satellite checklist: program-key stability and sensitivity,
cache LRU/eviction/single-flight, concurrent tenant isolation (weights
never cross sessions), and scheduler batching correctness against plain
sequential execution.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.frontend import InputSpec, Linear, Sequential, trace
from repro.ir import Graph, graph_fingerprint
from repro.runtime import Executor
from repro.runtime.compiler import CompileOptions, compile_training
from repro.serve import (FineTuneService, MetricsRegistry, ProgramCache,
                         bucket_sizes, program_key)
from repro.sparse import UpdateScheme, full_update
from repro.train import SGD

from conftest import make_mlp_graph


def build_mlp(batch: int, seed: int = 0) -> Graph:
    """A deterministic little MLP rebuildable at any batch size."""
    builder, _ = make_mlp_graph(batch=batch, din=5, dhidden=6, dout=3,
                                seed=seed)
    return builder.graph


def mlp_example(rng):
    return (rng.standard_normal(5).astype(np.float32),
            np.int64(rng.integers(0, 3)))


# ---------------------------------------------------------------------------
# program keys / fingerprints
# ---------------------------------------------------------------------------

class TestProgramKey:

    def test_same_graph_same_key(self):
        a, b = build_mlp(4), build_mlp(4)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        key_a = program_key(a, scheme=full_update(a), optimizer=SGD(0.01))
        key_b = program_key(b, scheme=full_update(b), optimizer=SGD(0.01))
        assert key_a == key_b

    def test_fingerprint_roundtrips_serialization(self, tmp_path):
        from repro.ir import load_graph, save_graph

        graph = build_mlp(4)
        save_graph(graph, tmp_path / "mlp")
        loaded = load_graph(tmp_path / "mlp")
        assert graph_fingerprint(graph, include_weights=True) == \
            graph_fingerprint(loaded, include_weights=True)

    def test_changed_scheme_changes_key(self):
        graph = build_mlp(4)
        base = program_key(graph, scheme=full_update(graph),
                           optimizer=SGD(0.01))
        biased = program_key(graph,
                             scheme=UpdateScheme("bias", {"b1": 1.0,
                                                          "b2": 1.0}),
                             optimizer=SGD(0.01))
        sliced = program_key(
            graph,
            scheme=UpdateScheme("slice", {"w1": 0.5, "b1": 1.0}),
            optimizer=SGD(0.01))
        assert len({base, biased, sliced}) == 3

    def test_scheme_name_is_cosmetic(self):
        graph = build_mlp(4)
        a = UpdateScheme("alpha", {"b1": 1.0})
        b = UpdateScheme("beta", {"b1": 1.0})
        key = lambda s: program_key(graph, scheme=s, optimizer=SGD(0.01))  # noqa: E731
        assert key(a) == key(b)

    def test_options_optimizer_shapes_weights_change_key(self):
        graph = build_mlp(4)
        base = program_key(graph, scheme=full_update(graph),
                           optimizer=SGD(0.01))
        assert base != program_key(graph, scheme=full_update(graph),
                                   optimizer=SGD(0.02))
        assert base != program_key(
            graph, scheme=full_update(graph), optimizer=SGD(0.01),
            options=CompileOptions(reorder=False))
        other_batch = build_mlp(8)
        assert base != program_key(other_batch,
                                   scheme=full_update(other_batch),
                                   optimizer=SGD(0.01))
        other_weights = build_mlp(4, seed=7)
        assert base != program_key(other_weights,
                                   scheme=full_update(other_weights),
                                   optimizer=SGD(0.01))
        # ... unless weights are excluded from the key on purpose
        assert program_key(graph, scheme=full_update(graph),
                           optimizer=SGD(0.01), include_weights=False) == \
            program_key(other_weights, scheme=full_update(other_weights),
                        optimizer=SGD(0.01), include_weights=False)

    def test_program_fingerprint_stable(self):
        graph = build_mlp(4)
        p1 = compile_training(graph, optimizer=SGD(0.01),
                              scheme=full_update(graph))
        p2 = compile_training(build_mlp(4), optimizer=SGD(0.01),
                              scheme=full_update(build_mlp(4)))
        assert p1.fingerprint() == p2.fingerprint()

    def test_mutable_state_names(self):
        graph = build_mlp(4)
        program = compile_training(
            graph, optimizer=SGD(0.01, momentum=0.9),
            scheme=UpdateScheme("bias", {"b1": 1.0, "b2": 1.0}))
        mutable = program.mutable_state_names()
        assert "b1" in mutable and "b2" in mutable
        assert "w1" not in mutable  # frozen under bias_only
        # momentum slots ride along with their parameters
        assert any("b1" in name and name != "b1" for name in mutable)

    def test_with_state_rejects_unknown_names(self):
        graph = build_mlp(4)
        program = compile_training(graph, optimizer=SGD(0.01),
                                   scheme=full_update(graph))
        with pytest.raises(Exception):
            program.with_state({"nope": np.zeros(3, np.float32)})


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _dummy_program(tag: str):
    graph = build_mlp(2)
    program = compile_training(graph, optimizer=SGD(0.01),
                               scheme=full_update(graph))
    program.meta["tag"] = tag
    return program


class TestProgramCache:

    def test_hit_after_miss(self):
        cache = ProgramCache(capacity=4)
        builds = []
        make = lambda: builds.append(1) or _dummy_program("a")  # noqa: E731
        first = cache.get_or_build("k", make)
        second = cache.get_or_build("k", make)
        assert first.program is second.program
        assert len(builds) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_build("a", lambda: _dummy_program("a"))
        cache.get_or_build("b", lambda: _dummy_program("b"))
        cache.get_or_build("a", lambda: _dummy_program("a"))  # refresh a
        cache.get_or_build("c", lambda: _dummy_program("c"))  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        # b recompiles on next demand
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1)
                           or _dummy_program("b"))
        assert rebuilt

    def test_single_flight_concurrent_misses(self):
        cache = ProgramCache(capacity=4)
        builds = []
        gate = threading.Event()

        def slow_build():
            builds.append(threading.get_ident())
            gate.wait(timeout=5)
            return _dummy_program("slow")

        entries = [None] * 8

        def worker(i):
            entries[i] = cache.get_or_build("k", slow_build)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(builds) == 1, "concurrent misses must compile once"
        assert all(e is entries[0] for e in entries)
        assert cache.stats.misses == 1 and cache.stats.hits == 7

    def test_failed_build_releases_waiters(self):
        cache = ProgramCache(capacity=4)

        def boom():
            raise RuntimeError("compile failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", boom)
        # the key is not poisoned
        entry = cache.get_or_build("k", lambda: _dummy_program("ok"))
        assert entry.program.meta["tag"] == "ok"


# ---------------------------------------------------------------------------
# sessions / isolation
# ---------------------------------------------------------------------------

class TestSessionIsolation:

    def test_two_tenants_never_share_weights(self):
        rng = np.random.default_rng(0)
        with FineTuneService(max_batch=1, workers=2) as service:
            s1 = service.create_session(build_mlp, model_id="mlp",
                                        scheme="full", tenant="alice")
            s2 = service.create_session(build_mlp, model_id="mlp",
                                        scheme="full", tenant="bob")
            # one program family, one cache entry per bucket — shared
            assert s1.family is s2.family
            before = service.snapshot(s2.id)

            for _ in range(6):
                x, y = mlp_example(rng)
                service.step(s1.id, x, y)

            after = service.snapshot(s2.id)
            for name in before:
                np.testing.assert_array_equal(before[name], after[name])
            # and alice actually trained
            trained = service.snapshot(s1.id)
            assert any(not np.array_equal(trained[n], before[n])
                       for n in trained)

    def test_concurrent_tenant_streams_stay_isolated(self):
        """Interleaved concurrent traffic == each tenant trained alone."""
        def run_alone(seed_stream):
            graph = build_mlp(1)
            program = compile_training(graph, optimizer=SGD(0.01),
                                       scheme=full_update(graph))
            executor = Executor(program)
            for x, y in seed_stream:
                executor.run({"x": x[None, ...], "labels": y[None, ...]})
            return {k: program.state[k].copy()
                    for k in program.mutable_state_names()}

        streams = {}
        for tenant in range(4):
            rng = np.random.default_rng(100 + tenant)
            streams[tenant] = [mlp_example(rng) for _ in range(8)]

        expected = {t: run_alone(stream) for t, stream in streams.items()}

        with FineTuneService(max_batch=1, workers=4) as service:
            sessions = {
                t: service.create_session(build_mlp, model_id="mlp",
                                          scheme="full", tenant=f"t{t}")
                for t in streams
            }
            futures = []
            for step in range(8):  # interleave all tenants each round
                for t, stream in streams.items():
                    x, y = stream[step]
                    futures.append(service.submit(sessions[t].id, x, y))
            for future in futures:
                future.result(timeout=30)

            for t, session in sessions.items():
                got = service.snapshot(session.id)
                for name, value in expected[t].items():
                    np.testing.assert_allclose(
                        got[name], value, rtol=1e-6, atol=1e-7,
                        err_msg=f"tenant {t} diverged on {name}")

    def test_load_weights_rejects_frozen_and_bad_shapes(self):
        with FineTuneService(max_batch=1, workers=1) as service:
            session = service.create_session(
                build_mlp, model_id="mlp",
                scheme=UpdateScheme("bias", {"b1": 1.0, "b2": 1.0}))
            with pytest.raises(ServeError):
                service.load_weights(session.id,
                                     {"w1": np.zeros((5, 6), np.float32)})
            with pytest.raises(ServeError):
                service.load_weights(session.id,
                                     {"b1": np.zeros(2, np.float32)})
            service.load_weights(session.id,
                                 {"b1": np.ones(6, np.float32)})
            assert np.all(service.snapshot(session.id)["b1"] == 1.0)

    @pytest.mark.parametrize("label", [
        -1, 3, 7, 2 ** 40, np.uint64(2 ** 63), 1.5, np.inf, np.nan, "2",
        True, None], ids=repr)
    def test_labels_that_are_no_class_id_are_refused(self, label):
        """3 classes: -1 used to wrap to class 2 and train on it, 7 to fail
        in the kernel after the batch was cut. Refused before enqueue,
        nothing moves."""
        rng = np.random.default_rng(0)
        with FineTuneService(max_batch=1, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            service.step(session.id, *mlp_example(rng))
            before, seq = service.snapshot(session.id), session.step_seq
            x = rng.standard_normal(5).astype(np.float32)
            with pytest.raises(ServeError, match="class id"):
                service.submit(session.id, x, np.asarray(label))
            assert session.step_seq == seq
            after = service.snapshot(session.id)
            for name in before:
                assert after[name].tobytes() == before[name].tobytes()
            # whole numbers of any dtype are class ids
            for good in (np.int32(2), np.uint8(0), np.float64(1.0)):
                service.step(session.id, x, good)
            assert session.step_seq == seq + 3

    def test_unknown_session_and_close(self):
        with FineTuneService(max_batch=1, workers=1) as service:
            with pytest.raises(ServeError):
                service.submit("sess-9999", np.zeros(5, np.float32),
                               np.int64(0))
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            snapshot = service.close_session(session.id)
            assert snapshot
            with pytest.raises(ServeError):
                service.snapshot(session.id)

    def test_close_session_refuses_while_requests_outstanding(self):
        """A 'final' snapshot must actually be final: drain first."""
        from repro.serve import BatchScheduler, StepResult

        class StubSession:
            def __init__(self, sid):
                self.id = sid

        release = threading.Event()

        def runner(session, batch):
            assert release.wait(timeout=10)
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=2, workers=1)
        try:
            session = StubSession("s")
            future = scheduler.submit(session, np.int64(0), np.int64(0))
            assert scheduler.pending("s")
            release.set()
            future.result(timeout=30)
            assert scheduler.drain(timeout=10)
            assert not scheduler.pending("s")
        finally:
            scheduler.close()

        rng = np.random.default_rng(9)
        with FineTuneService(max_batch=1, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            futures = [service.submit(session.id, *mlp_example(rng))
                       for _ in range(4)]
            # Either the requests are still pending (close refuses) or the
            # worker already finished them (close succeeds) — both are
            # correct; what must never happen is a snapshot racing live
            # mutation, so refusal is only required while work is pending.
            if service.scheduler.pending(session.id):
                with pytest.raises(ServeError):
                    service.close_session(session.id)
            for future in futures:
                future.result(timeout=30)
            service.drain()
            snapshot = service.close_session(session.id)
            assert snapshot


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

class TestScheduler:

    def test_bucket_sizes(self):
        assert bucket_sizes(1) == [1]
        assert bucket_sizes(8) == [1, 2, 4, 8]
        assert bucket_sizes(6) == [1, 2, 4, 6]
        with pytest.raises(ServeError):
            bucket_sizes(0)

    def test_unbatched_scheduler_matches_sequential(self):
        """max_batch=1: served losses == a plain sequential Trainer's."""
        rng = np.random.default_rng(3)
        stream = [mlp_example(rng) for _ in range(10)]

        graph = build_mlp(1)
        program = compile_training(graph, optimizer=SGD(0.01),
                                   scheme=full_update(graph))
        executor = Executor(program)
        expected_losses = []
        for x, y in stream:
            out = executor.run({"x": x[None, ...], "labels": y[None, ...]})
            expected_losses.append(float(out[program.meta["loss"]]))

        with FineTuneService(max_batch=1, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            got = [service.step(session.id, x, y).loss for x, y in stream]

        np.testing.assert_allclose(got, expected_losses, rtol=1e-6)

    def test_coalesced_batch_matches_manual_batched_step(self):
        """A coalesced micro-batch == one step of a batch-k program.

        Drives the service's batch runner directly (no scheduler timing
        races): four single-example requests coalesced into one batch must
        produce exactly the loss and post-step state of running the stacked
        batch through a batch-4 compiled program.
        """
        from repro.serve import StepRequest

        rng = np.random.default_rng(4)
        examples = [mlp_example(rng) for _ in range(4)]
        xs = np.stack([x for x, _ in examples])
        ys = np.stack([y for _, y in examples])

        graph = build_mlp(4)
        program = compile_training(graph, optimizer=SGD(0.01),
                                   scheme=full_update(graph))
        out = Executor(program).run({"x": xs, "labels": ys})
        expected_loss = float(out[program.meta["loss"]])
        expected_state = {k: program.state[k].copy()
                          for k in program.mutable_state_names()}

        with FineTuneService(max_batch=4, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            batch = [StepRequest(session=session, x=x, y=y)
                     for x, y in examples]
            result = service._run_batch(session, batch)
            got_state = service.snapshot(session.id)

        assert result.batch_size == 4
        np.testing.assert_allclose(result.loss, expected_loss, rtol=1e-6)
        assert sorted(got_state) == sorted(expected_state)
        for name, value in expected_state.items():
            np.testing.assert_allclose(got_state[name], value, rtol=1e-6,
                                       atol=1e-7, err_msg=name)

    def test_scheduler_coalesces_backlog_and_keeps_fifo(self):
        """While the one worker is busy, a session's backlog coalesces."""
        from repro.serve import BatchScheduler, StepResult

        class StubSession:
            def __init__(self, sid):
                self.id = sid

        calls = []
        started = threading.Event()
        release = threading.Event()

        def runner(session, batch):
            if session.id == "blocker":
                started.set()
                assert release.wait(timeout=10)
            calls.append((session.id, [int(r.x) for r in batch]))
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=4, workers=1)
        try:
            blocker, tenant = StubSession("blocker"), StubSession("a")
            scheduler.submit(blocker, np.int64(0), np.int64(0))
            assert started.wait(timeout=10)
            # Worker is stalled: six requests pile up for session "a".
            futures = [scheduler.submit(tenant, np.int64(i), np.int64(0))
                       for i in range(6)]
            release.set()
            for future in futures:
                future.result(timeout=30)
            assert scheduler.drain(timeout=10)
        finally:
            scheduler.close()

        tenant_calls = [payload for sid, payload in calls if sid == "a"]
        # backlog of 6 -> one batch of 4, then the remaining 2
        assert tenant_calls == [[0, 1, 2, 3], [4, 5]]

    def test_cancelled_request_drops_out_without_poisoning_batch(self):
        """Cancelling one queued request must not fail its batch-mates."""
        from concurrent.futures import CancelledError

        from repro.serve import BatchScheduler, StepResult

        class StubSession:
            def __init__(self, sid):
                self.id = sid

        executed = []
        started = threading.Event()
        release = threading.Event()

        def runner(session, batch):
            if session.id == "blocker":
                started.set()
                assert release.wait(timeout=10)
            executed.append((session.id, [int(r.x) for r in batch]))
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=4, workers=1)
        try:
            scheduler.submit(StubSession("blocker"), np.int64(0),
                             np.int64(0))
            assert started.wait(timeout=10)
            tenant = StubSession("a")
            futures = [scheduler.submit(tenant, np.int64(i), np.int64(0))
                       for i in range(3)]
            assert futures[1].cancel()
            release.set()
            results = [futures[0].result(timeout=30),
                       futures[2].result(timeout=30)]
            with pytest.raises(CancelledError):
                futures[1].result(timeout=1)
        finally:
            scheduler.close()
        # the cancelled example never executed; its batch-mates did
        ran = [x for sid, payload in executed if sid == "a" for x in payload]
        assert sorted(ran) == [0, 2]
        assert all(np.isfinite(r.loss) for r in results)

    def test_close_without_wait_cancels_stranded_requests(self):
        """close(wait=False) must not leave queued futures hanging."""
        from concurrent.futures import CancelledError

        from repro.serve import BatchScheduler, StepResult

        class StubSession:
            def __init__(self, sid):
                self.id = sid

        started = threading.Event()
        release = threading.Event()

        def runner(session, batch):
            started.set()
            assert release.wait(timeout=10)
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=1, workers=1)
        session = StubSession("s")
        first = scheduler.submit(session, np.int64(0), np.int64(0))
        assert started.wait(timeout=10)
        second = scheduler.submit(session, np.int64(1), np.int64(0))
        scheduler.close(wait=False)
        release.set()
        assert first.result(timeout=30).batch_size == 1
        with pytest.raises(CancelledError):
            second.result(timeout=5)

    def test_batching_fairness_across_sessions(self):
        rng = np.random.default_rng(6)
        with FineTuneService(max_batch=8, workers=2) as service:
            sessions = [service.create_session(build_mlp, model_id="mlp",
                                               scheme="full",
                                               tenant=f"t{i}")
                        for i in range(3)]
            futures = []
            for _ in range(8):
                for session in sessions:
                    x, y = mlp_example(rng)
                    futures.append(service.submit(session.id, x, y))
            results = [f.result(timeout=30) for f in futures]
            by_session = {}
            for r in results:
                by_session.setdefault(r.session_id, []).append(r)
            assert set(len(v) for v in by_session.values()) == {8}
            for rs in by_session.values():
                steps = [r.step for r in rs]
                assert steps == sorted(steps), "per-session FIFO violated"


class TestSchedulerLifecycle:
    """Failure/shutdown semantics hardened for the HTTP front door."""

    class StubSession:
        def __init__(self, sid):
            self.id = sid

    def _stalled_scheduler(self, max_batch=1, workers=1, metrics=None):
        """A scheduler whose runner blocks until ``release`` is set."""
        from repro.serve import BatchScheduler, StepResult

        release = threading.Event()

        def runner(session, batch):
            assert release.wait(timeout=30)
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=max_batch,
                                   workers=workers, metrics=metrics)
        return scheduler, release

    def test_a_sessions_acks_resolve_in_step_order(self):
        """No ack of a session's step N+1 overtakes one of step N: while a
        done callback of step 1 is still running, step 2 may run on the
        free worker, but its future resolves only after step 1's."""
        from concurrent.futures import wait

        from repro.serve import BatchScheduler, StepResult

        release, entered, gate = (threading.Event() for _ in range(3))
        steps = iter(range(1, 10))

        def runner(session, batch):
            assert release.wait(timeout=30)
            return StepResult(session_id=session.id, loss=0.0,
                              step=next(steps), batch_size=len(batch),
                              program_key="k")

        acked = []

        def held(future):
            entered.set()
            gate.wait(timeout=30)
            acked.append(future.result().step)

        scheduler = BatchScheduler(runner, max_batch=1, workers=2)
        try:
            session = self.StubSession("s")
            first = scheduler.submit(session, np.int64(0), np.int64(0))
            first.add_done_callback(held)
            second = scheduler.submit(session, np.int64(1), np.int64(0))
            second.add_done_callback(
                lambda future: acked.append(future.result().step))
            release.set()
            assert entered.wait(timeout=30)
            # time for the free worker to run step 2 (and, were acks not
            # ordered, to resolve it)
            wait([second], timeout=0.5)
            gate.set()
            assert second.result(timeout=30).step == 2
            assert scheduler.drain(timeout=30)
            assert acked == [1, 2]
        finally:
            release.set()
            gate.set()
            scheduler.close()

    @pytest.mark.parametrize("fail", [False, True])
    def test_ack_implies_not_busy(self, fail):
        """A resolved step future means the session is no longer busy.

        The done-callback runs on the worker thread inside
        ``set_result``/``set_exception`` — the earliest instant any client
        can observe the ack — so what it sees is exactly what a client
        that closes or checkpoints right after its response would see.
        """
        from repro.serve import BatchScheduler, StepResult

        def runner(session, batch):
            assert release.wait(timeout=30)
            if fail:
                raise RuntimeError("boom")
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        release = threading.Event()
        scheduler = BatchScheduler(runner, max_batch=1, workers=1)
        busy_at_ack = []
        try:
            future = scheduler.submit(self.StubSession("s"), np.int64(0),
                                      np.int64(0))
            future.add_done_callback(
                lambda _: busy_at_ack.append(scheduler.pending("s")))
            release.set()
            if fail:
                with pytest.raises(RuntimeError):
                    future.result(timeout=30)
            else:
                future.result(timeout=30)
            assert scheduler.drain(timeout=10)
        finally:
            release.set()
            scheduler.close()
        assert busy_at_ack == [False]

    def test_drain_waits_for_every_future_of_the_batch(self):
        """Releasing the session before acking must not weaken drain():
        it returns only once every future of the batch has resolved."""
        scheduler, release = self._stalled_scheduler(max_batch=2)
        first_acked, proceed = threading.Event(), threading.Event()
        try:
            session = self.StubSession("s")
            blocker = scheduler.submit(self.StubSession("b"), np.int64(0),
                                       np.int64(0))
            futures = [scheduler.submit(session, np.int64(i), np.int64(0))
                       for i in range(2)]

            def stall(_):
                first_acked.set()
                assert proceed.wait(timeout=30)

            futures[0].add_done_callback(stall)
            release.set()
            blocker.result(timeout=30)
            assert first_acked.wait(timeout=30)
            assert not scheduler.pending("s")
            assert not futures[1].done()
            assert scheduler.drain(timeout=0.05) is False
            proceed.set()
            assert scheduler.drain(timeout=30) is True
            assert futures[1].done()
        finally:
            release.set()
            proceed.set()
            scheduler.close()

    def test_queue_depth_gauge_is_live(self):
        """Regression: the gauge must sample live queues on every read,
        not the depth at the last metrics render."""
        from repro.serve import MetricsRegistry

        registry = MetricsRegistry()
        scheduler, release = self._stalled_scheduler(metrics=registry)
        try:
            session = self.StubSession("s")
            first = scheduler.submit(session, np.int64(0), np.int64(0))
            # Wait for the worker to cut the first request into a batch,
            # then pile three more behind it.
            deadline = time.monotonic() + 10
            while scheduler.queue_depth() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            futures = [scheduler.submit(session, np.int64(i), np.int64(0))
                       for i in range(1, 4)]
            # No render/sync in between: the registry read IS live.
            assert registry.as_dict()["serve.queue_depth"] == 3
            release.set()
            for future in [first, *futures]:
                future.result(timeout=30)
            assert registry.as_dict()["serve.queue_depth"] == 0
        finally:
            release.set()
            scheduler.close()

    def test_service_queue_depth_live_without_stats_call(self):
        """The service-level registry sees depth without stats()/render."""
        with FineTuneService(max_batch=1, workers=1) as service:
            assert service.metrics.as_dict()["serve.queue_depth"] == 0

    def test_submit_racing_close_raises_instead_of_silent_cancel(self):
        """Regression: once close begins, submits fail deterministically.

        Previously a submit landing between ``drain()`` returning and the
        closed flag being set was accepted and then silently cancelled —
        with ``wait=True``, a future the caller reasonably expected to
        resolve."""
        scheduler, release = self._stalled_scheduler()
        session = self.StubSession("s")
        inflight = scheduler.submit(session, np.int64(0), np.int64(0))

        closer_done = threading.Event()

        def closer():
            scheduler.close(wait=True)
            closer_done.set()

        thread = threading.Thread(target=closer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not scheduler.closing:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        # close() has begun (it is blocked draining the stalled batch):
        # a racing submit must be refused, not accepted-then-cancelled.
        with pytest.raises(ServeError, match="closed"):
            scheduler.submit(session, np.int64(1), np.int64(0))
        release.set()
        assert closer_done.wait(timeout=30)
        thread.join(timeout=10)
        # The pre-close future resolved; nothing was left unsettled.
        assert inflight.result(timeout=10).batch_size == 1

    def test_drain_timeout_expires_then_succeeds(self):
        scheduler, release = self._stalled_scheduler()
        try:
            session = self.StubSession("s")
            future = scheduler.submit(session, np.int64(0), np.int64(0))
            drained = []
            waiter = threading.Thread(
                target=lambda: drained.append(scheduler.drain(timeout=0.2)),
                daemon=True)
            waiter.start()
            waiter.join(timeout=30)
            # the timeout path returned on its own, the batch still stalled
            assert not waiter.is_alive() and drained == [False]
            release.set()
            assert scheduler.drain(timeout=30) is True
            assert future.result(timeout=10).batch_size == 1
        finally:
            release.set()
            scheduler.close()

    def test_client_cancellation_storm_under_concurrent_load(self):
        """Cancel a third of a deep backlog across sessions while the
        worker is stalled: cancelled futures report CancelledError, the
        rest resolve, and the executed examples are exactly the
        survivors."""
        from concurrent.futures import CancelledError

        from repro.serve import BatchScheduler, StepResult

        executed = []
        started = threading.Event()
        release = threading.Event()

        def runner(session, batch):
            if session.id == "blocker":
                started.set()
                assert release.wait(timeout=30)
            executed.extend((session.id, int(r.x)) for r in batch)
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        scheduler = BatchScheduler(runner, max_batch=4, workers=1)
        try:
            scheduler.submit(self.StubSession("blocker"), np.int64(-1),
                             np.int64(0))
            assert started.wait(timeout=10)
            sessions = [self.StubSession("a"), self.StubSession("b")]
            futures = {}
            for i in range(24):
                session = sessions[i % 2]
                futures[(session.id, i)] = scheduler.submit(
                    session, np.int64(i), np.int64(0))
            cancelled = {key for j, key in enumerate(futures)
                         if j % 3 == 0 and futures[key].cancel()}
            assert cancelled  # queued work must be cancellable
            release.set()
            for key, future in futures.items():
                if key in cancelled:
                    with pytest.raises(CancelledError):
                        future.result(timeout=30)
                else:
                    assert future.result(timeout=30).batch_size >= 1
            assert scheduler.drain(timeout=30)
        finally:
            release.set()
            scheduler.close()
        ran = {(sid, i) for sid, i in executed if sid != "blocker"}
        assert ran == {(sid, i) for sid, i in futures if (sid, i)
                       not in cancelled}


class TestClaimedSteps:
    """An idle scheduler lets the submitter run its step as a batch of one
    on its own thread; any other work sends the claim to the pool."""

    class StubSession:
        def __init__(self, sid):
            self.id = sid

    @staticmethod
    def _scheduler(max_batch=2, fail=False, gate=None):
        from repro.serve import BatchScheduler, StepResult

        ran = []

        def runner(session, batch):
            if gate is not None:
                assert gate.wait(timeout=30)
            ran.append((threading.current_thread(), len(batch)))
            if fail:
                raise RuntimeError("boom")
            return StepResult(session_id=session.id, loss=0.0, step=0,
                              batch_size=len(batch), program_key="k")

        registry = MetricsRegistry()
        scheduler = BatchScheduler(runner, max_batch=max_batch, workers=1,
                                   metrics=registry)
        return scheduler, ran, registry

    def test_idle_claim_runs_on_the_calling_thread(self):
        scheduler, ran, registry = self._scheduler()
        try:
            session = self.StubSession("s")
            future = scheduler.submit(session, np.int64(0), np.int64(0),
                                      claim=True)
            assert scheduler.pending("s") and not future.done()
            result = scheduler.run_claimed(future)
            assert result.batch_size == 1
            assert future.result(0) == result
            assert ran == [(threading.current_thread(), 1)]
            assert not scheduler.pending("s")
            assert scheduler.run_claimed(future) is None  # settled once
            stats = registry.as_dict()
            assert stats["serve.claims_run_total"] == 1
            assert stats["serve.claims_released_total"] == 0
        finally:
            scheduler.close()

    def test_busy_scheduler_takes_no_claim(self):
        gate = threading.Event()
        scheduler, ran, registry = self._scheduler(gate=gate)
        try:
            busy = scheduler.submit(self.StubSession("a"), np.int64(0),
                                    np.int64(0))
            future = scheduler.submit(self.StubSession("b"), np.int64(0),
                                      np.int64(0), claim=True)
            assert scheduler.run_claimed(future) is None
            gate.set()
            busy.result(timeout=30)
            assert future.result(timeout=30).batch_size == 1
            assert all(thread is not threading.current_thread()
                       for thread, _ in ran)
            assert registry.as_dict()["serve.claims_run_total"] == 0
        finally:
            gate.set()
            scheduler.close()

    def test_work_arriving_after_the_claim_sends_it_to_the_pool(self):
        """A second request of the same session queued behind the claim
        coalesces with it on the pool instead of running apart."""
        scheduler, ran, registry = self._scheduler(max_batch=2)
        try:
            session = self.StubSession("s")
            claimed = scheduler.submit(session, np.int64(0), np.int64(0),
                                       claim=True)
            behind = scheduler.submit(session, np.int64(1), np.int64(0))
            assert scheduler.run_claimed(claimed) is None
            assert claimed.result(timeout=30).batch_size == 2
            assert behind.result(timeout=30).batch_size == 2
            assert [size for _, size in ran] == [2]
            stats = registry.as_dict()
            assert stats["serve.claims_run_total"] == 0
            assert stats["serve.claims_released_total"] == 1
        finally:
            scheduler.close()

    def test_release_claim_hands_it_to_the_pool(self):
        scheduler, ran, registry = self._scheduler()
        try:
            future = scheduler.submit(self.StubSession("s"), np.int64(0),
                                      np.int64(0), claim=True)
            scheduler.release_claim(future)
            assert future.result(timeout=30).batch_size == 1
            assert ran[0][0] is not threading.current_thread()
            assert scheduler.run_claimed(future) is None
            assert registry.as_dict()["serve.claims_released_total"] == 1
        finally:
            scheduler.close()

    def test_claimed_error_is_raised_and_acked_not_busy(self):
        scheduler, _, _ = self._scheduler(fail=True)
        try:
            future = scheduler.submit(self.StubSession("s"), np.int64(0),
                                      np.int64(0), claim=True)
            busy_at_ack = []
            future.add_done_callback(
                lambda _: busy_at_ack.append(scheduler.pending("s")))
            with pytest.raises(RuntimeError, match="boom"):
                scheduler.run_claimed(future)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(0)
            assert busy_at_ack == [False]
        finally:
            scheduler.close()

    def test_close_without_wait_cancels_an_outstanding_claim(self):
        from concurrent.futures import CancelledError

        scheduler, ran, _ = self._scheduler()
        future = scheduler.submit(self.StubSession("s"), np.int64(0),
                                  np.int64(0), claim=True)
        scheduler.close(wait=False)
        assert scheduler.run_claimed(future) is None
        with pytest.raises(CancelledError):
            future.result(0)
        assert not scheduler.pending("s") and ran == []
        assert scheduler.drain(timeout=1)

    def test_service_claims_only_a_warm_fast_resident_step(
            self, tmp_path, monkeypatch):
        """No claim before the first step has been timed, none when the
        next step writes an auto-checkpoint, none on a slow session."""
        # a loaded host must not push the MLP step past the bound
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 1.0)
        rng = np.random.default_rng(0)
        with FineTuneService(max_batch=2, workers=1, checkpoint_dir=tmp_path,
                             checkpoint_every=3) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            assert session.last_execute_s is None
            assert not service._claimable(session)
            service.step(session.id, *mlp_example(rng))
            assert session.last_execute_s is not None
            assert service._claimable(session)
            service.step(session.id, *mlp_example(rng))
            assert not service._claimable(session)   # step 3 checkpoints
            service.step(session.id, *mlp_example(rng))
            assert service._claimable(session)
            session.last_execute_s = 1.0
            assert not service._claimable(session)
            claims = service.stats()["serve.claims_run_total"]
            assert claims == 1

    def test_claims_racing_pooled_submits_lose_no_step(self, monkeypatch):
        """Claimers that yield between claim and run, as the gateway does,
        race a pooled submitter on shared sessions under a short GIL switch
        interval: every ack is one applied example, in order."""
        previous = sys.getswitchinterval()
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 1.0)
        threads_n, steps = 3, 25
        with FineTuneService(max_batch=4, workers=2) as service:
            sessions = [service.create_session(build_mlp, model_id="mlp",
                                               scheme="full")
                        for _ in range(2)]
            acked = [[] for _ in range(threads_n)]
            errors = []

            def stepper(i):
                rng = np.random.default_rng(i)
                sid = sessions[i % 2].id
                try:
                    for _ in range(steps):
                        example = mlp_example(rng)
                        if i == 0:
                            result = service.submit(sid, *example) \
                                .result(timeout=30)
                        else:
                            future = service.submit(sid, *example,
                                                    claim=True)
                            time.sleep(0)
                            result = service.scheduler.run_claimed(future) \
                                or future.result(timeout=30)
                        acked[i].append(result.step)
                except Exception as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=stepper, args=(i,))
                           for i in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(previous)
            assert not errors
            assert service.drain(timeout=10)
            for i, steps_seen in enumerate(acked):
                assert len(steps_seen) == steps
                assert steps_seen == sorted(set(steps_seen)), i
            for k, session in enumerate(sessions):
                assert not service.scheduler.pending(session.id)
                stepping = sum(i % 2 == k for i in range(threads_n))
                assert session.examples == steps * stepping
            stats = service.stats()
            assert stats["serve.claims_run_total"] \
                + stats["serve.claims_released_total"] >= 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:

    def test_histogram_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.count == 100
        assert abs(hist.quantile(0.5) - 50.5) < 1.5
        assert abs(hist.quantile(0.95) - 95.0) < 1.5
        summary = hist.summary()
        assert summary["count"] == 100

    def test_registry_renders_and_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(7)
        registry.histogram("c").observe(1.0)
        table = registry.render()
        assert "a" in table and "p95" in table
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_service_metrics_populated(self):
        rng = np.random.default_rng(7)
        with FineTuneService(max_batch=2, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            for _ in range(4):
                x, y = mlp_example(rng)
                service.step(session.id, x, y)
            stats = service.stats()
        assert stats["serve.steps_total"] == 4
        assert stats["serve.examples_total"] == 4
        assert stats["serve.cache.misses"] >= 1
        assert stats["serve.step_latency_ms"]["count"] == 4
        assert any(k.startswith("serve.peak_transient_bytes") for k in stats)


class TestCompiledPlans:
    """Serving executes compiled execution plans, shared per variant."""

    def test_sessions_share_one_plan_per_variant(self):
        with FineTuneService(max_batch=1, workers=1) as service:
            a = service.create_session(build_mlp, model_id="mlp",
                                       scheme="full")
            b = service.create_session(build_mlp, model_id="mlp",
                                       scheme="full")
            entry = a.family.bucket(1)
            assert entry.plan is not None
            # the plan was lowered at compile time, before any step ran
            assert "__plan__" in entry.program.meta
            ex_a = a.executor_for(entry.key, entry.program)
            ex_b = b.executor_for(entry.key, entry.program)
            assert ex_a.plan is ex_b.plan is entry.plan
            # ...registers are per executor, and the slab is the plan's:
            # borrowed for one running step, then back in its pool
            assert ex_a is not ex_b
            assert ex_a.arena is ex_b.arena is entry.plan.slabs

    def test_slabs_are_per_running_step_not_per_session(self):
        """4 sessions x 4 buckets on 2 workers: every (session, bucket)
        keeps its own executor — registers, state overlay — but a plan
        never builds more slabs than steps run at once."""
        rng = np.random.default_rng(3)
        with FineTuneService(max_batch=8, workers=2) as service:
            sessions = [service.create_session(build_mlp, model_id="mlp",
                                               scheme="full",
                                               tenant=f"t{i}")
                        for i in range(4)]
            for session in sessions:
                service.warm(session.id)
            futures = []
            for burst in (1, 2, 4, 8, 8, 3, 1):
                for session in sessions:
                    for _ in range(burst):
                        x, y = mlp_example(rng)
                        futures.append(service.submit(session.id, x, y))
                for future in futures:
                    future.result(timeout=30)
            family = sessions[0].family
            entries = [family.bucket(n) for n in (1, 2, 4, 8)]
            executors = {id(session.executor_for(e.key, e.program))
                         for session in sessions for e in entries}
            assert len(executors) == 16
            used = [e for e in entries
                    if e.plan.slabs.takes + e.plan.slabs.misses]
            assert len(used) >= 2, "the bursts reached one bucket only"
            for entry in used:
                pool = entry.plan.slabs
                assert 1 <= pool.misses <= 2, (pool.misses, pool.takes)
                assert pool.retained_bytes() \
                    == pool.misses * entry.plan.spec.slab_bytes

    def test_steady_state_alloc_metric_published(self):
        rng = np.random.default_rng(11)
        with FineTuneService(max_batch=1, workers=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            for _ in range(6):
                x, y = mlp_example(rng)
                service.step(session.id, x, y)
            stats = service.stats()
        hist = stats["serve.step_fresh_allocs"]
        assert hist["count"] == 6
        # a static count: the first step allocates what every step does
        assert hist["p50"] == hist["p95"] == hist["mean"]
