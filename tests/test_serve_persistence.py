"""Cross-process program cache, session eviction, process-pool backend."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ServeError
from repro.runtime.compiler import compile_training
from repro.serve import (FAULTS, FineTuneService, GatewayServer,
                         ProgramCache, ServeClient, SessionManager)
from repro.train import SGD

from conftest import make_mlp_graph


def _program(seed=0):
    builder, _ = make_mlp_graph(seed=seed)
    return compile_training(builder.graph, optimizer=SGD(0.05))


def _fail_build():
    raise AssertionError("builder must not run")


class TestPersistentProgramCache:
    def test_build_persists_artifact(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = cache.get_or_build("k1", _program)
        assert cache.stats.compiles == 1
        assert cache.stats.disk_writes == 1
        assert cache.artifact_path("k1") is not None
        assert entry.program.meta.get("__plan__") is not None

    def test_second_cache_loads_without_compiling(self, tmp_path, rng):
        ProgramCache(capacity=4, cache_dir=tmp_path).get_or_build(
            "k1", _program)
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _fail_build)
        assert entry.from_disk
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.compiles == 0
        # The persisted program is executable and carries a bound plan.
        assert entry.program.meta.get("__plan__") is not None
        program = entry.program
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = rng.integers(0, 3, 4).astype(np.int64)
        from repro.runtime import Executor
        out = Executor(program).run({"x": x, program.meta["labels"]: y})
        assert np.isfinite(out[program.meta["loss"]])

    def test_a_second_process_binds_without_compiling(self, tmp_path):
        """Two service lifetimes in two processes, under different
        ``PYTHONHASHSEED``s, on one ``cache_dir``: the second compiles
        nothing, binds the first one's artifacts from disk and takes the
        same first step."""
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.serve import FineTuneService\n"
            "with FineTuneService(workers=1, cache_dir=sys.argv[1]) as s:\n"
            "    session = s.create_session('mcunet_micro', scheme='paper')\n"
            "    x = np.ones(session.family.example_shape, np.float32)\n"
            "    loss = s.step(session.id, x, np.int64(1)).loss\n"
            "    stats = s.cache.stats\n"
            "print(json.dumps({'compiles': stats.compiles,\n"
            "                  'disk_hits': stats.disk_hits,\n"
            "                  'loss': float(loss)}))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)], env=env,
                capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            runs.append(json.loads(result.stdout.splitlines()[-1]))
        first, second = runs
        assert first["compiles"] >= 1
        assert second["compiles"] == 0
        assert second["disk_hits"] >= 1
        assert second["loss"] == first["loss"]

    def test_unreadable_artifact_recompiles_and_repairs(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.get_or_build("k1", _program)
        (tmp_path / "k1" / "manifest.json").write_text("{broken")
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _program)
        assert not entry.from_disk
        assert fresh.stats.compiles == 1
        # The rebuild overwrote the broken artifact: the next process
        # loads from disk again instead of hitting it forever.
        repaired = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert repaired.get_or_build("k1", _fail_build).from_disk

    def test_missing_graph_file_recompiles_and_repairs(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.get_or_build("k1", _program)
        (tmp_path / "k1" / "graph.json").unlink()
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _program)
        assert not entry.from_disk
        assert fresh.stats.compiles == 1
        repaired = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert repaired.get_or_build("k1", _fail_build).from_disk

    def test_plan_version_skew_recompiles_and_counts(self, tmp_path):
        """A persisted artifact whose embedded plan speaks a newer (or
        older-than-supported) spec version is a counted miss, never a
        hard failure: the serve load path recompiles and overwrites."""
        import json

        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.get_or_build("k1", _program)
        manifest_path = tmp_path / "k1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["plan"]["plan_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _program)
        assert not entry.from_disk
        assert fresh.stats.compiles == 1
        assert fresh.stats.plan_version_miss == 1
        assert entry.program.meta.get("__plan__") is not None
        # The skewed artifact was overwritten with a current-version one.
        current = json.loads(manifest_path.read_text())
        from repro.runtime.plan import PLAN_SPEC_VERSION
        assert current["plan"]["plan_version"] == PLAN_SPEC_VERSION
        repaired = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert repaired.get_or_build("k1", _fail_build).from_disk
        assert repaired.stats.plan_version_miss == 0

    def test_a_v5_cache_is_refused_and_relowered(self, tmp_path, rng):
        """A cache directory written before a plan's peak became the live
        load of the storage it holds (spec v5, which also carried
        ``final_transient_bytes``): every artifact is refused with
        ``PlanVersionError`` and re-lowered through the version-miss path,
        and a step served on the new entry trains."""
        import json

        from repro.deploy import load_artifact
        from repro.errors import PlanVersionError
        from repro.runtime.plan import PLAN_SPEC_VERSION

        def serve_one_step():
            with FineTuneService(workers=1, max_batch=1,
                                 cache_dir=tmp_path) as service:
                session = service.create_session("mcunet_micro",
                                                 scheme="paper")
                x = rng.standard_normal(session.family.example_shape) \
                    .astype(np.float32)
                return service.step(session.id, x, np.int64(0)), \
                    service.cache.stats

        serve_one_step()
        manifests = sorted(tmp_path.glob("*/manifest.json"))
        assert manifests
        for path in manifests:
            manifest = json.loads(path.read_text())
            manifest["plan"]["plan_version"] = 5
            manifest["plan"]["final_transient_bytes"] = 0
            path.write_text(json.dumps(manifest))
            with pytest.raises(PlanVersionError, match="version 5"):
                load_artifact(path.parent)
        result, stats = serve_one_step()
        assert np.isfinite(result.loss)
        assert stats.plan_version_miss == len(manifests)
        assert stats.corrupt_entries == stats.verify_rejects == 0
        for path in manifests:
            assert json.loads(path.read_text())["plan"]["plan_version"] \
                == PLAN_SPEC_VERSION
            load_artifact(path.parent)

    def test_artifact_of_a_deleted_kernel_recompiles(self, tmp_path, rng):
        """A cache directory written before ``onehot`` left the kernel set
        holds artifacts whose schedule names it: each is refused as
        unrunnable, quarantined and recompiled — no request fails."""
        import json

        from repro.kernels import KERNELS

        assert "onehot" not in KERNELS
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.get_or_build("k1", _program)
        manifest_path = tmp_path / "k1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["kernels"] = sorted(manifest["kernels"] + ["onehot"])
        manifest_path.write_text(json.dumps(manifest))
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        entry = fresh.get_or_build("k1", _program)
        assert not entry.from_disk
        assert fresh.stats.compiles == 1 and fresh.stats.corrupt_entries == 1
        assert (tmp_path / "k1.corrupt").exists()
        program = entry.program
        from repro.runtime import Executor
        out = Executor(program).run({
            "x": rng.standard_normal((4, 5)).astype(np.float32),
            program.meta["labels"]: rng.integers(0, 3, 4)})
        assert np.isfinite(out[program.meta["loss"]])
        repaired = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert repaired.get_or_build("k1", _fail_build).from_disk

    def test_memoryless_cache_unchanged(self):
        cache = ProgramCache(capacity=4)
        entry = cache.get_or_build("k1", _program)
        assert not entry.from_disk
        assert cache.artifact_path("k1") is None
        assert cache.stats.disk_writes == 0

    def test_eviction_counts_dropped_plans(self):
        """Satellite: evicting a prebuilt plan is a metric, not silence."""
        cache = ProgramCache(capacity=1)
        cache.get_or_build("k1", _program)
        cache.get_or_build("k2", lambda: _program(seed=1))  # evicts k1
        assert cache.stats.evictions == 1
        assert cache.stats.prebuilt_plans_dropped == 1
        # Re-admission re-prebuilds eagerly: no tenant pays lowering.
        entry = cache.get_or_build("k1", _program)
        assert entry.program.meta.get("__plan__") is not None

    def test_explicit_evict_and_clear_count_plans(self):
        cache = ProgramCache(capacity=4)
        cache.get_or_build("k1", _program)
        cache.get_or_build("k2", lambda: _program(seed=1))
        assert cache.evict("k1")
        cache.clear()
        assert cache.stats.prebuilt_plans_dropped == 2


class _FakeFamily:
    def __init__(self):
        self._template = {"w": np.zeros(4, np.float32)}

    def template_state(self):
        return self._template


class TestSessionEviction:
    def _manager(self, **kwargs):
        clock = {"now": 0.0}
        evicted = []
        manager = SessionManager(clock=lambda: clock["now"],
                                 on_evict=evicted.append, **kwargs)
        return manager, clock, evicted

    def test_ttl_sweep_evicts_idle(self):
        manager, clock, evicted = self._manager(ttl=10.0)
        a = manager.create(_FakeFamily())
        b = manager.create(_FakeFamily())
        clock["now"] = 5.0
        manager.get(b.id)  # touch b
        clock["now"] = 12.0
        gone = manager.sweep(force=True)
        assert [s.id for s in gone] == [a.id]
        assert manager.evicted == 1
        assert evicted == [a]
        assert manager.get(b.id) is b
        with pytest.raises(ServeError, match="unknown session"):
            manager.get(a.id)

    def test_sweep_throttles_on_request_path(self):
        manager, clock, _ = self._manager(ttl=1.0)
        manager.create(_FakeFamily())
        clock["now"] = 2.0
        manager.sweep(force=True)
        clock["now"] = 2.5
        manager.create(_FakeFamily())
        assert manager.sweep() == []  # < 1s since last sweep

    def test_max_sessions_evicts_idle_lru(self):
        manager, clock, evicted = self._manager(max_sessions=2)
        a = manager.create(_FakeFamily())
        clock["now"] = 1.0
        b = manager.create(_FakeFamily())
        clock["now"] = 2.0
        manager.get(a.id)  # a is now more recently used than b
        clock["now"] = 3.0
        c = manager.create(_FakeFamily())  # evicts b (LRU)
        assert evicted == [b]
        assert len(manager) == 2
        assert manager.get(a.id) is a
        assert manager.get(c.id) is c

    def test_busy_sessions_never_evicted(self):
        clock = {"now": 0.0}
        busy_ids = set()
        manager = SessionManager(max_sessions=1, ttl=10.0,
                                 busy=lambda sid: sid in busy_ids,
                                 clock=lambda: clock["now"])
        a = manager.create(_FakeFamily())
        busy_ids.add(a.id)
        clock["now"] = 100.0
        assert manager.sweep(force=True) == []
        with pytest.raises(ServeError, match="session limit"):
            manager.create(_FakeFamily())
        busy_ids.clear()
        b = manager.create(_FakeFamily())  # a idle now -> evicted
        assert manager.evicted == 1
        assert manager.get(b.id) is b

    def test_service_publishes_eviction_metric(self):
        with FineTuneService(workers=1, max_batch=2,
                             session_ttl=1e-9) as service:
            session = service.create_session(
                lambda batch: make_mlp_graph(batch=batch)[0].graph,
                scheme="full", model_id="mlp")
            service.sessions.sweep(force=True)
            stats = service.stats()
            assert stats["serve.sessions_evicted"] == 1
            assert stats["serve.sessions_live"] == 0
            with pytest.raises(ServeError, match="unknown session"):
                service.snapshot(session.id)


class TestProcessBackend:
    @pytest.fixture(scope="class")
    def proc_service(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("plans")
        with FineTuneService(workers=2, max_batch=4, backend="process",
                             cache_dir=cache_dir) as service:
            yield service

    def test_steps_train_and_workers_stay_compiler_free(self, proc_service,
                                                        rng):
        service = proc_service
        sessions = [service.create_session("mcunet_micro", scheme="paper",
                                           tenant=f"t{i}") for i in range(2)]
        family = sessions[0].family
        futures = []
        for _ in range(3):
            for session in sessions:
                x = rng.standard_normal(family.example_shape) \
                    .astype(np.float32)
                y = np.int64(rng.integers(0, family.num_classes))
                futures.append(service.submit(session.id, x, y))
        results = [f.result() for f in futures]
        assert all(np.isfinite(r.loss) for r in results)
        assert sessions[0].steps >= 1
        # Training state actually advanced and is isolated per tenant.
        snap0 = service.snapshot(sessions[0].id)
        assert any(array.any() for array in snap0.values())
        probe = service.engine.probe()
        assert probe["programs_bound"]
        assert not probe["compiler_imported"]
        assert not probe["autodiff_imported"]
        # Every variant the workers ran came from a persisted artifact.
        assert service.cache.stats.disk_writes >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServeError, match="unknown serve backend"):
            FineTuneService(backend="carrier-pigeon")


class TestWorkerCrashRecovery:
    """Satellite: a crashed worker fails one batch, not the service.

    Without recovery, ``BrokenProcessPool`` poisons the executor and every
    later step on every session fails forever.
    """

    def test_killed_worker_fails_batch_rebuilds_pool(self, tmp_path, rng):
        import os
        import signal

        def example(family):
            x = rng.standard_normal(family.example_shape) \
                .astype(np.float32)
            y = np.int64(rng.integers(0, family.num_classes))
            return x, y

        with FineTuneService(workers=1, max_batch=2, backend="process",
                             cache_dir=tmp_path) as service:
            session = service.create_session(
                lambda batch: make_mlp_graph(batch=batch)[0].graph,
                scheme="full", model_id="mlp")
            family = session.family
            first = service.step(session.id, *example(family))
            assert np.isfinite(first.loss)

            # SIGKILL the live worker mid-run: the next batch lands on a
            # dead pool.
            pids = service.engine.worker_pids()
            assert pids, "worker pool never spawned"
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(ServeError, match="worker process died"):
                service.step(session.id, *example(family))

            # The pool was rebuilt exactly once; fresh workers rebind the
            # persisted artifact and serving resumes for every session.
            recovered = service.step(session.id, *example(family))
            assert np.isfinite(recovered.loss)
            assert recovered.step == first.step + 1  # failed batch: no step
            assert service.engine.restarts == 1
            assert service.stats()["serve.worker_restarts"] == 1
            probe = service.engine.probe()
            assert not probe["compiler_imported"]

    def test_killed_worker_step_is_retried_through_the_gateway(
            self, tmp_path, rng):
        """Over HTTP: the step that failed on a killed worker is retried by
        the client under its ``Idempotency-Key`` and applied once on the
        rebuilt pool; a later step whose response is lost after it applied
        is answered from the replay window. The session's examples are
        exactly the client's acks."""
        with FineTuneService(workers=1, max_batch=2, backend="process",
                             cache_dir=tmp_path) as service:
            gateway = GatewayServer(service).start()
            client = ServeClient(gateway.url)
            try:
                session = service.create_session(
                    lambda batch: make_mlp_graph(batch=batch)[0].graph,
                    scheme="full", model_id="mlp")

                def step():
                    x = rng.standard_normal(session.family.example_shape) \
                        .astype(np.float32)
                    return client.step(session.id, x,
                                       int(rng.integers(0, 3)))

                acks = [step()]
                for pid in service.engine.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                acks.append(step())    # a 500 from the dead pool, retried
                FAULTS.arm("gateway.reset_after_send", times=1)
                acks.append(step())    # applied, response lost, replayed
                stats = service.stats()
            finally:
                FAULTS.disarm()
                client.close()
                gateway.close(drain_timeout=10.0)
        assert [ack["step"] for ack in acks] == [1, 2, 3]
        assert [ack.get("replayed", False) for ack in acks] \
            == [False, False, True]
        assert session.examples == len(acks)
        assert stats["serve.worker_restarts"] >= 1
        # three logical steps, each retry under its first attempt's key
        assert stats["serve.http_requests_total"] == 5
        assert len(session.idempotency_window()) == 3
