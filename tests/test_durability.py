"""Durability tests: checkpoint/restore, idempotent replay, deadlines,
fault injection, and corrupt-artifact quarantine.

The crash-safety invariants under test:

* a checkpoint write killed mid-flight leaves the previous version
  byte-identically intact (atomic temp-file + rename);
* a restored session's next step is bit-for-bit equal to the same step
  on the uninterrupted session (restore loses nothing);
* a retried step carrying the same idempotency key returns the recorded
  result without a second optimizer update (no double-apply);
* expired-deadline work is shed, never executed.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (CheckpointError, DeadlineExpired, FaultInjected,
                          ServeError)
from repro.serve import (FAULTS, CheckpointStore, FineTuneService,
                         GatewayError, GatewayServer, ResponseLost,
                         ServeClient, SessionCheckpoint, dump_checkpoint,
                         load_checkpoint, read_checkpoint, write_checkpoint)
from repro.serve.faults import FaultRegistry

from conftest import make_mlp_graph


def build_mlp(batch: int):
    return make_mlp_graph(batch=batch, din=5, dhidden=6, dout=3,
                          seed=0)[0].graph


def mlp_example(rng):
    return (rng.standard_normal(5).astype(np.float32),
            int(rng.integers(0, 3)))


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


def sample_ckpt(step_seq=3, session_id="sess-0000"):
    rng = np.random.default_rng(7)
    return SessionCheckpoint(
        session={"id": session_id, "tenant": "t0", "step_seq": step_seq,
                 "steps": step_seq, "examples": step_seq * 2,
                 "last_loss": 0.5},
        family={"model": "mcunet_micro", "model_id": "mcunet_micro",
                "model_kwargs": {}, "scheme": {"name": "s", "updates": {}},
                "optimizer": {"family": "sgd", "params": {"lr": 0.01}},
                "loss": "softmax_ce", "logits": None},
        state={"w": rng.standard_normal((4, 3)).astype(np.float32),
               "b": rng.standard_normal(3).astype(np.float32)},
        idempotency={"key-1": {"session_id": session_id, "loss": 0.5,
                               "step": step_seq, "batch_size": 1,
                               "program_key": "k", "timings": None,
                               "replayed": False}},
    )


def stall_scheduler(service):
    release = threading.Event()
    original = service.scheduler._run_batch

    def stalled(session, batch):
        assert release.wait(timeout=30)
        return original(session, batch)

    service.scheduler._run_batch = stalled
    return release


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

class TestCheckpointFormat:

    def test_roundtrip_is_exact(self):
        ckpt = sample_ckpt()
        back = load_checkpoint(dump_checkpoint(ckpt))
        assert back.session == ckpt.session
        assert back.family == ckpt.family
        assert back.idempotency == ckpt.idempotency
        assert set(back.state) == set(ckpt.state)
        for name in ckpt.state:
            assert back.state[name].dtype == ckpt.state[name].dtype
            assert np.array_equal(back.state[name], ckpt.state[name])

    def test_any_flipped_byte_is_detected(self):
        data = dump_checkpoint(sample_ckpt())
        # sample positions across header, payload, and digest
        for pos in (0, 9, len(data) // 2, len(data) - 1):
            bad = bytearray(data)
            bad[pos] ^= 0xFF
            with pytest.raises(CheckpointError):
                load_checkpoint(bytes(bad))

    def test_truncation_is_detected(self):
        data = dump_checkpoint(sample_ckpt())
        for cut in (4, 20, len(data) - 1):
            with pytest.raises(CheckpointError):
                load_checkpoint(data[:cut])

    def test_not_a_checkpoint(self):
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(b"x" * 100)

    def test_unsupported_version(self):
        import json as json_mod
        import struct

        from repro.serve.checkpoint import _DIGEST, MAGIC
        header = json_mod.dumps({"version": 99, "session": {},
                                 "family": {}, "tensors": []}).encode()
        body = MAGIC + struct.pack(">Q", len(header)) + header
        data = body + _DIGEST(body).digest()
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(data)

    def test_write_read_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, sample_ckpt())
        assert read_checkpoint(path).step_seq == 3
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "missing.ckpt")


def split_checkpoint(data: bytes) -> tuple[dict, bytes]:
    """``(header, payload)`` of checkpoint bytes."""
    from repro.serve.checkpoint import _DIGEST_BYTES, MAGIC

    (hlen,) = struct.unpack_from(">Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return (json.loads(data[start:start + hlen]),
            data[start + hlen:-_DIGEST_BYTES])


def sealed(header, payload: bytes) -> bytes:
    """Checkpoint bytes around ``header`` (an object, or raw bytes) whose
    digest holds — what anyone who can upload a checkpoint can make."""
    from repro.serve.checkpoint import _DIGEST, MAGIC

    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = MAGIC + struct.pack(">Q", len(raw)) + raw + payload
    return body + _DIGEST(body).digest()


def restore_reads(ckpt: SessionCheckpoint) -> None:
    """Read what ``FineTuneService.restore_session`` reads from a
    checkpoint, the way it reads it, short of building the family."""
    from repro.serve.scheduler import StepResult

    str(ckpt.session.get("tenant") or ckpt.session_id)
    int(ckpt.session.get("steps", ckpt.step_seq))
    int(ckpt.session.get("examples", 0))
    float(ckpt.session.get("last_loss", float("nan")))
    optimizer = ckpt.family.get("optimizer") or {}
    optimizer.get("family", "").lower()
    dict(**optimizer.get("params", {}))
    scheme = ckpt.family.get("scheme") or {}
    scheme.get("name", "restored").lower()
    [0.0 < ratio for ratio in dict(scheme.get("updates", {})).values()]
    dict(**(ckpt.family.get("model_kwargs") or {}))
    for key in ("model", "model_id", "loss", "logits"):
        (ckpt.family.get(key) or "").lower()
    for fields in ckpt.idempotency.values():
        StepResult(**fields)


def loads_or_refuses(data: bytes) -> None:
    """The one failure a checkpoint may cause is a CheckpointError — on
    load, or nowhere: what loads, a restore can read."""
    try:
        ckpt = load_checkpoint(data)
    except CheckpointError:
        return
    restore_reads(ckpt)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
    | st.sampled_from(["|O", "zz", "<U3", "V8", "f4,f4", "M8[s]", "<f4"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


class TestMalformedHeaders:
    """The digest is SHA-256, not a MAC: a header that passes it can still
    be anything. Only :class:`CheckpointError` may escape."""

    @pytest.mark.parametrize("case", [
        "list header", "no tensors", "object dtype", "nbytes mismatch",
        "session a string", "unknown dtype", "negative offset",
        "nbytes true", "bad utf-8", "deep nesting", "entry a string",
        "step_seq a string", "examples negative", "last_loss a string",
        "optimizer a list", "optimizer params a list", "scheme a list",
        "update ratio a string", "model_kwargs a list",
        "unknown result field", "result without its loss",
        "result step a float"])
    def test_crafted_headers_are_refused(self, case):
        header, payload = split_checkpoint(dump_checkpoint(sample_ckpt()))
        entry = header["tensors"][0]
        session, family = header["session"], header["family"]
        result = header["idempotency"]["key-1"]
        if case == "step_seq a string":
            session["step_seq"] = "x"
        elif case == "examples negative":
            session["examples"] = -1
        elif case == "last_loss a string":
            session["last_loss"] = "0.5"
        elif case == "optimizer a list":
            family["optimizer"] = ["sgd"]
        elif case == "optimizer params a list":
            family["optimizer"]["params"] = [0.01]
        elif case == "scheme a list":
            family["scheme"] = ["s"]
        elif case == "update ratio a string":
            family["scheme"]["updates"] = {"w": "1"}
        elif case == "model_kwargs a list":
            family["model_kwargs"] = [1]
        elif case == "unknown result field":
            result["bogus"] = 1
        elif case == "result without its loss":
            del result["loss"]
        elif case == "result step a float":
            result["step"] = 3.5
        elif case == "list header":
            header = [header]
        elif case == "no tensors":
            del header["tensors"]
        elif case == "object dtype":
            entry["dtype"] = "|O"
        elif case == "nbytes mismatch":
            entry["shape"] = [entry["shape"][0] + 1]
        elif case == "session a string":
            header["session"] = "sess-0000"
        elif case == "unknown dtype":
            entry["dtype"] = "zz"
        elif case == "negative offset":
            entry["offset"] = -4
        elif case == "nbytes true":
            entry["nbytes"], entry["shape"] = True, []
            entry["dtype"] = "|b1"
        elif case == "bad utf-8":
            header = b"\xff\xfe{}"
        elif case == "deep nesting":
            header = b"[" * 100_000 + b"]" * 100_000
        else:
            header["tensors"][0] = "w"
        with pytest.raises(CheckpointError):
            load_checkpoint(sealed(header, payload))

    @given(where=st.sampled_from(["header", "payload", "digest"]),
           at=st.integers(0, 2 ** 16), flip=st.integers(1, 255),
           reseal=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_byte_flips_anywhere(self, where, at, flip, reseal):
        """A flipped byte fails the digest; re-sealed over a flipped
        header or payload, it may load or be refused, nothing else."""
        from repro.serve.checkpoint import _DIGEST_BYTES, MAGIC

        data = bytearray(dump_checkpoint(sample_ckpt()))
        (hlen,) = struct.unpack_from(">Q", data, len(MAGIC))
        start = len(MAGIC) + 8
        span = {"header": (start, start + hlen),
                "payload": (start + hlen, len(data) - _DIGEST_BYTES),
                "digest": (len(data) - _DIGEST_BYTES, len(data))}[where]
        data[span[0] + at % (span[1] - span[0])] ^= flip
        if not reseal or where == "digest":
            with pytest.raises(CheckpointError):
                load_checkpoint(bytes(data))
            return
        header = bytes(data[start:start + hlen])
        loads_or_refuses(sealed(header, bytes(data[start + hlen:
                                                   -_DIGEST_BYTES])))

    @given(path=st.sampled_from(
        ["version", "session", "family", "idempotency", "tensors",
         "tensors.0", "tensors.0.name", "tensors.0.dtype", "tensors.0.shape",
         "tensors.0.offset", "tensors.0.nbytes", "idempotency.key-1",
         "session.id", "session.step_seq", "session.steps",
         "session.last_loss", "family.optimizer", "family.optimizer.family",
         "family.optimizer.params", "family.scheme", "family.scheme.updates",
         "family.scheme.updates.w", "family.model_kwargs", "family.model",
         "idempotency.key-1.loss", "idempotency.key-1.step",
         "idempotency.key-1.timings", "idempotency.key-1.bogus"]),
        value=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_value_anywhere_in_the_header(self, path, value):
        header, payload = split_checkpoint(dump_checkpoint(sample_ckpt()))
        *parents, leaf = path.split(".")
        node = header
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(leaf) if leaf.isdigit() else leaf] = value
        loads_or_refuses(sealed(header, payload))

    def test_recorded_results_are_checked_field_by_field(self):
        """The loader's table of a recorded result is ``StepResult``'s
        fields, required exactly where the dataclass has no default."""
        import dataclasses

        from repro.serve.checkpoint import STEP_RESULT_FIELDS
        from repro.serve.scheduler import StepResult

        fields = dataclasses.fields(StepResult)
        assert {f.name: f.default is dataclasses.MISSING for f in fields} \
            == {name: required
                for name, (required, _) in STEP_RESULT_FIELDS.items()}

    def test_the_wire_form_is_checked_alike(self):
        from repro.serve.checkpoint import (checkpoint_from_wire,
                                            checkpoint_to_wire)

        ckpt = sample_ckpt()
        ckpt.session["step_seq"] = "x"
        with pytest.raises(CheckpointError, match="session.step_seq"):
            checkpoint_from_wire(checkpoint_to_wire(ckpt))


class TestCheckpointWireForm:
    """The transport form: a checkpoint as one serve.wire frame."""

    def test_wire_roundtrip_is_exact(self):
        from repro.serve import wire
        from repro.serve.checkpoint import (checkpoint_from_wire,
                                            checkpoint_to_wire)

        ckpt = sample_ckpt()
        frame = checkpoint_to_wire(ckpt)
        assert frame.startswith(wire.MAGIC)
        back = checkpoint_from_wire(frame)
        assert back.session == ckpt.session
        assert back.family == ckpt.family
        assert back.idempotency == ckpt.idempotency
        assert set(back.state) == set(ckpt.state)
        for name in ckpt.state:
            assert back.state[name].dtype == ckpt.state[name].dtype
            assert np.array_equal(back.state[name], ckpt.state[name])
            # copy=True decode: the checkpoint outlives the request body
            assert back.state[name].flags.writeable

    def test_wire_form_matches_ckpt_form_values(self):
        from repro.serve.checkpoint import checkpoint_from_wire, \
            checkpoint_to_wire

        ckpt = sample_ckpt()
        via_wire = checkpoint_from_wire(checkpoint_to_wire(ckpt))
        via_ckpt = load_checkpoint(dump_checkpoint(ckpt))
        assert via_wire.session == via_ckpt.session
        for name in via_ckpt.state:
            assert via_wire.state[name].tobytes() \
                == via_ckpt.state[name].tobytes()

    def test_damaged_wire_frame_is_checkpoint_error(self):
        from repro.serve.checkpoint import checkpoint_from_wire, \
            checkpoint_to_wire

        frame = checkpoint_to_wire(sample_ckpt())
        with pytest.raises(CheckpointError):
            checkpoint_from_wire(frame[: len(frame) // 2])
        with pytest.raises(CheckpointError, match="magic|wire"):
            checkpoint_from_wire(b"x" * 64)

    def test_step_frame_is_not_a_checkpoint(self):
        """A valid wire frame that is not a checkpoint must be refused —
        the restore route dispatches on the same magic."""
        from repro.serve import wire
        from repro.serve.checkpoint import checkpoint_from_wire

        frame = wire.encode_frame(
            {"kind": "step"}, {"x": np.zeros(3, np.float32)})
        with pytest.raises(CheckpointError, match="kind"):
            checkpoint_from_wire(frame)

    def test_wrong_version_is_refused(self):
        from repro.serve import wire
        from repro.serve.checkpoint import checkpoint_from_wire

        frame = wire.encode_frame(
            {"kind": "checkpoint", "checkpoint_version": 99,
             "session": {}, "family": {}}, {})
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_from_wire(frame)


# ---------------------------------------------------------------------------
# checkpoint store: versioning, pruning, quarantine, atomicity
# ---------------------------------------------------------------------------

class TestCheckpointStore:

    def test_versions_retained_and_pruned(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for seq in (1, 2, 3):
            store.save(sample_ckpt(step_seq=seq))
        assert store.versions("sess-0000") == [2, 3]
        assert store.load("sess-0000").step_seq == 3
        assert store.load("sess-0000", version=2).step_seq == 2
        assert store.session_ids() == ["sess-0000"]

    def test_corrupt_newest_falls_back_and_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(sample_ckpt(step_seq=1))
        store.save(sample_ckpt(step_seq=2))
        newest = store.path_for("sess-0000", 2)
        newest.write_bytes(newest.read_bytes()[:-10])  # torn write
        loaded = store.load("sess-0000")
        assert loaded.step_seq == 1
        assert store.corrupt == 1
        assert not newest.exists()
        assert newest.with_suffix(".corrupt").exists()

    def test_malformed_newest_is_quarantined_too(self, tmp_path):
        """Its digest holds, its header is no checkpoint's: the walk goes
        on to the previous version instead of stopping there."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save(sample_ckpt(step_seq=1))
        store.save(sample_ckpt(step_seq=2))
        newest = store.path_for("sess-0000", 2)
        header, payload = split_checkpoint(newest.read_bytes())
        header["tensors"][0]["dtype"] = "|O"
        newest.write_bytes(sealed(header, payload))
        assert store.load("sess-0000").step_seq == 1
        assert store.corrupt == 1
        assert newest.with_suffix(".corrupt").exists()

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(sample_ckpt(step_seq=1))
        store.path_for("sess-0000", 1).write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("sess-0000")
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("never-seen")

    def test_kill_mid_write_leaves_previous_version_intact(self, tmp_path):
        """The tentpole atomicity guarantee: a failure between the header
        and the payload hitting disk never tears the previous version."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save(sample_ckpt(step_seq=1))
        before = store.path_for("sess-0000", 1).read_bytes()

        FAULTS.arm("checkpoint.write", times=1)
        with pytest.raises(FaultInjected):
            store.save(sample_ckpt(step_seq=2))

        assert store.versions("sess-0000") == [1]
        assert store.path_for("sess-0000", 1).read_bytes() == before
        # no stray temp files either — the failed write cleaned up
        assert not list(tmp_path.glob("**/.tmp-*"))
        # and the next save (process restarted, fault gone) succeeds
        store.save(sample_ckpt(step_seq=2))
        assert store.load("sess-0000").step_seq == 2


# ---------------------------------------------------------------------------
# fault registry
# ---------------------------------------------------------------------------

class TestFaultRegistry:

    def test_unknown_point_or_action_rejected(self):
        reg = FaultRegistry()
        with pytest.raises(ValueError, match="unknown fault point"):
            reg.arm("no.such.point")
        with pytest.raises(ValueError, match="unknown fault action"):
            reg.arm("disk.slow", action="explode")

    def test_times_skip_and_disarm(self):
        reg = FaultRegistry()
        reg.arm("disk.slow", times=2, skip=1)
        assert not reg.fire("disk.slow")          # skipped
        with pytest.raises(FaultInjected):
            reg.fire("disk.slow")
        with pytest.raises(FaultInjected):
            reg.fire("disk.slow")
        assert not reg.fire("disk.slow")          # times exhausted
        assert reg.fired("disk.slow") == 2
        reg.arm("disk.slow", times=1)
        reg.disarm("disk.slow")
        assert not reg.fire("disk.slow")

    def test_exc_none_is_a_pure_side_effect(self):
        reg = FaultRegistry()
        seen = {}
        reg.arm("disk.slow", exc=None, handler=lambda **ctx: seen.update(ctx))
        assert reg.fire("disk.slow", path="p")
        assert seen == {"path": "p"}

    def test_load_env(self):
        reg = FaultRegistry()
        reg.load_env({"REPRO_FAULTS":
                      '{"disk.slow": {"times": 2, "skip": 1}}'})
        assert not reg.fire("disk.slow")
        with pytest.raises(FaultInjected):
            reg.fire("disk.slow")
        reg2 = FaultRegistry()
        reg2.load_env({})                          # unset: no-op
        assert not reg2.fire("disk.slow")


# ---------------------------------------------------------------------------
# service-level checkpoint / restore
# ---------------------------------------------------------------------------

@contextmanager
def mlp_service(tmp_path=None, **kwargs):
    kwargs.setdefault("max_batch", 1)
    kwargs.setdefault("workers", 1)
    if tmp_path is not None:
        kwargs.setdefault("checkpoint_dir", tmp_path)
    service = FineTuneService(**kwargs)
    try:
        yield service
    finally:
        service.close()


class TestServiceCheckpointRestore:

    def _drive(self, service, session, steps, seed=3):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            service.step(session.id, *mlp_example(rng))
        return rng

    def test_checkpoint_requires_store(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            with pytest.raises(ServeError, match="checkpoint_dir"):
                service.checkpoint_session(session.id)
            # bytes download works without a store
            assert service.checkpoint_bytes(session.id)[:8] == b"RPCKPT1\n"

    def test_restore_is_byte_identical_and_deterministic(self, tmp_path):
        """Restored state must equal the checkpointed state exactly, and
        the restored session's next step must be bit-for-bit equal to the
        uninterrupted session's."""
        with mlp_service(tmp_path) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            rng = self._drive(service, session, 3)
            service.checkpoint_session(session.id)
            frozen = {k: v.copy() for k, v in session.state.items()}
            counters = (session.step_seq, session.steps, session.examples)
            # the uninterrupted continuation
            x, y = mlp_example(rng)
            uninterrupted = service.step(session.id, x, y)
            after = {k: v.copy() for k, v in session.state.items()}

        with mlp_service(tmp_path) as fresh:
            restored = fresh.restore_session(session_id=session.id,
                                             model=build_mlp)
            assert restored.id == session.id
            assert (restored.step_seq, restored.steps,
                    restored.examples) == counters
            for name, array in frozen.items():
                assert restored.state[name].tobytes() == array.tobytes()
            # replaying the same example lands on the same bits
            result = fresh.step(restored.id, x, y)
            assert result.loss == uninterrupted.loss
            for name, array in after.items():
                assert restored.state[name].tobytes() == array.tobytes()

    def test_restore_from_bytes_without_store(self, tmp_path):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            self._drive(service, session, 2)
            blob = service.checkpoint_bytes(session.id)
            frozen = {k: v.copy() for k, v in session.state.items()}
        with mlp_service() as fresh:
            restored = fresh.restore_session(blob, model=build_mlp)
            for name, array in frozen.items():
                assert np.array_equal(restored.state[name], array)

    def test_restore_refuses_live_session(self, tmp_path):
        with mlp_service(tmp_path) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            self._drive(service, session, 1)
            service.checkpoint_session(session.id)
            with pytest.raises(ServeError, match="already open"):
                service.restore_session(session_id=session.id,
                                        model=build_mlp)
            service.close_session(session.id)
            restored = service.restore_session(session_id=session.id,
                                               model=build_mlp)
            assert restored.step_seq == 1

    def test_callable_family_requires_model_on_restore(self, tmp_path):
        with mlp_service(tmp_path) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            self._drive(service, session, 1)
            service.checkpoint_session(session.id)
            service.close_session(session.id)
            with pytest.raises(ServeError, match="callable model"):
                service.restore_session(session_id=session.id)

    def test_registry_model_restores_without_model_arg(self, tmp_path):
        with mlp_service(tmp_path, max_batch=2) as service:
            session = service.create_session("mcunet_micro", scheme="paper")
            rng = np.random.default_rng(0)
            family = session.family
            x = rng.standard_normal(family.example_shape).astype(
                family.example_dtype)
            y = np.asarray(0, dtype=family.label_dtype)
            service.step(session.id, x, y)
            service.checkpoint_session(session.id)
            frozen = {k: v.copy() for k, v in session.state.items()}
        with mlp_service(tmp_path, max_batch=2) as fresh:
            restored = fresh.restore_session(session_id=session.id)
            for name, array in frozen.items():
                assert np.array_equal(restored.state[name], array)

    def test_auto_checkpoint_every_n_steps(self, tmp_path):
        with mlp_service(tmp_path, checkpoint_every=2) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            self._drive(service, session, 5)
            versions = service.checkpoints.versions(session.id)
            assert versions == [2, 4]
            assert session.steps_since_checkpoint == 1

    def test_failed_auto_checkpoint_does_not_fail_the_step(self, tmp_path):
        with mlp_service(tmp_path, checkpoint_every=1) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            FAULTS.arm("checkpoint.write", times=1)
            rng = np.random.default_rng(0)
            result = service.step(session.id, *mlp_example(rng))
            assert result.step == 1                # the update applied
            stats = service.stats()
            assert stats["serve.checkpoint_errors"] == 1

    def test_checkpoint_state_mismatch_detected(self, tmp_path):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            blob = service.checkpoint_bytes(session.id)
        ckpt = load_checkpoint(blob)
        ckpt.state["not-a-real-tensor"] = np.zeros(3, dtype=np.float32)
        with mlp_service() as fresh:
            with pytest.raises(CheckpointError, match="does not match"):
                fresh.restore_session(dump_checkpoint(ckpt),
                                      model=build_mlp)


# ---------------------------------------------------------------------------
# idempotent step replay
# ---------------------------------------------------------------------------

class TestIdempotentReplay:

    def test_replay_returns_recorded_result_without_reapplying(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            first = service.submit(session.id, x, y,
                                   idempotency_key="step-1").result()
            assert not first.replayed
            state = {k: v.copy() for k, v in session.state.items()}
            examples = session.examples

            replay = service.submit(session.id, x, y,
                                    idempotency_key="step-1").result()
            assert replay.replayed
            assert replay.loss == first.loss
            assert replay.step == first.step
            assert session.examples == examples     # no second update
            for name, array in state.items():
                assert np.array_equal(session.state[name], array)
            stats = service.stats()
            assert stats["serve.steps_replayed"] == 1

    def test_concurrent_same_key_shares_one_future(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            release = stall_scheduler(service)
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            f1 = service.submit(session.id, x, y, idempotency_key="k")
            f2 = service.submit(session.id, x, y, idempotency_key="k")
            assert f2 is f1                        # attached, not enqueued
            release.set()
            assert f1.result(timeout=10).step == 1
            assert session.examples == 1

    def test_failed_step_releases_the_claim(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            boom = RuntimeError("engine exploded")
            original = service.scheduler._run_batch
            calls = {"n": 0}

            def flaky(sess, batch):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise boom
                return original(sess, batch)

            service.scheduler._run_batch = flaky
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            future = service.submit(session.id, x, y, idempotency_key="k")
            with pytest.raises(RuntimeError, match="exploded"):
                future.result(timeout=10)
            # the retry with the same key re-executes (claim released)
            retry = service.submit(session.id, x, y,
                                   idempotency_key="k").result(timeout=10)
            assert not retry.replayed
            assert retry.step == 1

    def test_window_eviction(self):
        from repro.serve import IDEMPOTENCY_WINDOW
        from repro.serve.sessions import TenantSession
        session = TenantSession.__new__(TenantSession)
        import threading as _t
        from collections import OrderedDict
        session.idem_lock = _t.RLock()
        session._idem_results = OrderedDict()
        session._idem_pending = {}
        for i in range(IDEMPOTENCY_WINDOW + 10):
            session.remember(f"k{i}", i)
        assert session.recall("k0") is None        # evicted
        assert session.recall(f"k{IDEMPOTENCY_WINDOW + 9}") is not None


# ---------------------------------------------------------------------------
# end-to-end deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:

    def test_pre_expired_submit_is_shed(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            with pytest.raises(DeadlineExpired):
                service.submit(session.id, x, y,
                               deadline=time.monotonic() - 0.1)
            assert session.examples == 0
            stats = service.stats()
            assert stats["serve.deadline_expired"] == 1

    def test_queued_request_expiring_is_shed_at_cut(self):
        with mlp_service() as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            release = stall_scheduler(service)
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            # the stalled batch occupies the worker; the next request
            # waits in queue past its deadline
            blocker = service.submit(session.id, x, y)
            doomed = service.submit(session.id, x, y,
                                    deadline=time.monotonic() + 0.05,
                                    idempotency_key="doomed")
            time.sleep(0.15)
            release.set()
            assert blocker.result(timeout=10).step == 1
            with pytest.raises(DeadlineExpired):
                doomed.result(timeout=10)
            service.drain()
            assert session.examples == 1           # doomed never applied
            # its idempotency claim was released: a fresh attempt runs
            retry = service.submit(session.id, x, y,
                                   idempotency_key="doomed").result(10)
            assert not retry.replayed


# ---------------------------------------------------------------------------
# corrupt program-cache artifacts
# ---------------------------------------------------------------------------

class TestCacheQuarantine:

    def test_corrupt_artifact_quarantined_and_recompiled(self, tmp_path):
        with mlp_service(cache_dir=tmp_path) as service:
            session = service.create_session(build_mlp, model_id="mlp",
                                             scheme="full")
            rng = np.random.default_rng(1)
            service.step(session.id, *mlp_example(rng))
        artifact_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert artifact_dirs
        (artifact_dirs[0] / "manifest.json").write_text("{ garbled")

        with mlp_service(cache_dir=tmp_path) as fresh:
            session = fresh.create_session(build_mlp, model_id="mlp",
                                           scheme="full")
            rng = np.random.default_rng(1)
            result = fresh.step(session.id, *mlp_example(rng))
            assert result.step == 1                # recompiled and served
            assert fresh.cache.stats.corrupt_entries == 1
            stats = fresh.stats()
            assert stats["serve.cache.corrupt_entries"] == 1
        corrupt = [p for p in tmp_path.iterdir()
                   if p.name.endswith(".corrupt")]
        assert len(corrupt) == 1

    def test_injected_read_fault_quarantines(self, tmp_path):
        with mlp_service(cache_dir=tmp_path) as service:
            service.create_session(build_mlp, model_id="mlp", scheme="full")
            service.warm("sess-0000", batches=[1])
        FAULTS.arm("cache.artifact_read", times=1)
        with mlp_service(cache_dir=tmp_path) as fresh:
            fresh.create_session(build_mlp, model_id="mlp", scheme="full")
            fresh.warm("sess-0000", batches=[1])
            assert fresh.cache.stats.corrupt_entries == 1


# ---------------------------------------------------------------------------
# gateway + client end-to-end durability
# ---------------------------------------------------------------------------

@contextmanager
def mlp_gateway(tmp_path=None, *, step_timeout=30.0, **service_kwargs):
    service_kwargs.setdefault("max_batch", 2)
    service_kwargs.setdefault("workers", 1)
    if tmp_path is not None:
        service_kwargs.setdefault("checkpoint_dir", tmp_path)
    service = FineTuneService(**service_kwargs)
    gateway = GatewayServer(service, step_timeout=step_timeout)
    gateway.start()
    session = service.create_session(build_mlp, model_id="mlp",
                                     scheme="full")
    client = ServeClient(gateway.url)
    try:
        yield service, gateway, client, session
    finally:
        client.close()
        gateway.close(drain_timeout=10.0)


class TestGatewayDurability:

    def test_healthz_advertises_features(self):
        with mlp_gateway() as (_service, _gw, client, _session):
            features = client.healthz()["features"]
            assert set(features) >= {"binary_checkpoint", "checkpoint",
                                     "deadline", "idempotency"}

    def test_lost_response_is_retried_exactly_once_applied(self):
        """The e2e retry satellite: the response to an applied step is
        dropped on the wire; the client retries under its idempotency
        key and gets the recorded result — one update, one ack."""
        with mlp_gateway() as (service, _gw, client, session):
            rng = np.random.default_rng(1)
            FAULTS.arm("gateway.reset_after_send", times=1)
            result = client.step(session.id, *mlp_example(rng))
            assert result["replayed"] is True
            assert result["step"] == 1
            assert session.examples == 1           # applied exactly once
            assert FAULTS.fired("gateway.reset_after_send") == 1

    def test_legacy_client_does_not_retry_lost_response(self):
        with mlp_gateway() as (service, _gw, client, session):
            client._features_cache = frozenset()   # server "predates" keys
            rng = np.random.default_rng(1)
            FAULTS.arm("gateway.reset_after_send", times=1)
            with pytest.raises(ResponseLost):
                client.step(session.id, *mlp_example(rng))
            service.drain()
            assert session.examples == 1           # applied, just unacked

    def test_pre_expired_deadline_504(self):
        with mlp_gateway() as (_service, _gw, client, session):
            rng = np.random.default_rng(1)
            with pytest.raises(GatewayError) as info:
                client.step(session.id, *mlp_example(rng), timeout=-0.5,
                            wait=False)
            assert info.value.status == 504

    def test_step_timeout_504_without_leaking_the_session(self):
        with mlp_gateway(step_timeout=0.2) as (service, _gw, client,
                                               session):
            release = stall_scheduler(service)
            rng = np.random.default_rng(1)
            x, y = mlp_example(rng)
            with pytest.raises(GatewayError) as info:
                client.step(session.id, x, y, wait=False)
            assert info.value.status == 504
            release.set()
            service.drain()
            # busy-protection was not leaked: the session can be closed
            client.close_session(session.id)
            stats = service.stats()
            assert stats["serve.deadline_expired"] >= 1

    def test_bad_durability_headers_400(self):
        with mlp_gateway() as (_service, _gw, client, session):
            for headers in ({"X-Deadline": "not-a-number"},
                            {"Idempotency-Key": "bad key with spaces"}):
                with pytest.raises(GatewayError) as info:
                    client._request(
                        "POST", f"/v1/sessions/{session.id}/step",
                        {"x": [0.0] * 5, "y": 0}, headers=headers)
                assert info.value.status == 400

    def test_checkpoint_routes_roundtrip(self, tmp_path):
        # A registry-key model: the only kind restorable over HTTP (a
        # callable builder cannot ride in a checkpoint).
        with mlp_gateway(tmp_path) as (service, _gw, client, _mlp):
            doc = client.create_session("mcunet_micro")
            sid = doc["session_id"]
            rng = np.random.default_rng(1)
            x = rng.standard_normal(doc["input_shape"])
            y = int(rng.integers(0, doc["num_classes"]))
            client.step(sid, x, y)
            session = service.sessions.get(sid)
            meta = client.checkpoint(sid)
            assert meta["step_seq"] == 1
            assert meta["versions"] == [1]
            blob = client.download_checkpoint(sid, binary=False)
            assert blob[:8] == b"RPCKPT1\n"
            frozen = {k: v.copy() for k, v in session.state.items()}

            # restore over a live session is a conflict
            with pytest.raises(GatewayError) as info:
                client.restore(session_id=sid)
            assert info.value.status == 409

            client.close_session(sid)
            restored_doc = client.restore(session_id=sid)
            assert restored_doc["restored"]
            assert restored_doc["session_id"] == sid
            restored = service.sessions.get(sid)
            for name, array in frozen.items():
                assert np.array_equal(restored.state[name], array)

            # restore from the downloaded bytes too
            client.close_session(sid)
            assert client.restore(blob)["step_seq"] == 1

    def test_binary_checkpoint_download_and_restore(self, tmp_path):
        """Negotiated wire-frame checkpoint transport: the default
        download against a ``binary_checkpoint`` server is a frame, both
        forms decode to identical state, and both restore."""
        from repro.serve import wire
        from repro.serve.checkpoint import checkpoint_from_wire

        with mlp_gateway(tmp_path) as (service, _gw, client, _mlp):
            doc = client.create_session("mcunet_micro")
            sid = doc["session_id"]
            rng = np.random.default_rng(5)
            x = rng.standard_normal(doc["input_shape"])
            y = int(rng.integers(0, doc["num_classes"]))
            client.step(sid, x, y)

            framed = client.download_checkpoint(sid)   # negotiated
            legacy = client.download_checkpoint(sid, binary=False)
            assert framed.startswith(wire.MAGIC)
            assert legacy.startswith(b"RPCKPT1\n")
            via_wire = checkpoint_from_wire(framed)
            via_ckpt = load_checkpoint(legacy)
            assert via_wire.session == via_ckpt.session
            assert set(via_wire.state) == set(via_ckpt.state)
            for name in via_ckpt.state:
                assert via_wire.state[name].tobytes() \
                    == via_ckpt.state[name].tobytes()

            # a wire-framed upload restores bit-for-bit
            frozen = {k: v.copy()
                      for k, v in service.sessions.get(sid).state.items()}
            client.close_session(sid)
            restored_doc = client.restore(framed)
            assert restored_doc["restored"]
            assert restored_doc["session_id"] == sid
            restored = service.sessions.get(sid)
            for name, array in frozen.items():
                assert np.array_equal(restored.state[name], array)

            # garbled frame uploads are 422 (content, not request shape)
            client.close_session(sid)
            with pytest.raises(GatewayError) as info:
                client.restore(framed[: len(framed) // 2])
            assert info.value.status == 422

    def test_restore_over_a_live_session_named_closed_is_409(self):
        """Regression: a conflict whose message happens to contain
        "closed" (here, via the session id) is a 409, not a shutdown
        503."""
        with mlp_gateway() as (service, _gw, client, _mlp):
            sid = client.create_session("mcunet_micro")["session_id"]
            ckpt = service._checkpoint_payload(service.sessions.get(sid))
            ckpt.session["id"] = "closed-1"
            blob = dump_checkpoint(ckpt)
            assert client.restore(blob)["session_id"] == "closed-1"
            with pytest.raises(GatewayError) as info:
                client.restore(blob)
            assert info.value.status == 409

    def test_claimed_ack_then_delete_is_200(self, monkeypatch):
        """A claimed step resolves its future on the loop thread; the
        client holding its ack may close the session at once."""
        # a loaded host must not push the MLP step past the claim bound
        monkeypatch.setattr("sys.getswitchinterval", lambda: 1.0)
        with mlp_gateway() as (service, _gw, client, _mlp):
            rng = np.random.default_rng(2)
            for _ in range(5):
                session = service.create_session(build_mlp, model_id="mlp",
                                                 scheme="full")
                for _ in range(2):  # the first step is timed on the pool
                    client.step(session.id, *mlp_example(rng))
                assert client.close_session(session.id)["steps"] == 2
            assert service.stats()["serve.claims_run_total"] == 5

    def test_checkpoint_route_conflicts(self, tmp_path):
        with mlp_gateway() as (_service, _gw, client, session):
            with pytest.raises(GatewayError) as info:
                client.checkpoint(session.id)      # no checkpoint_dir
            assert info.value.status == 409
        with mlp_gateway(tmp_path) as (_service, _gw, client, _session):
            with pytest.raises(GatewayError) as info:
                client.checkpoint("sess-9999")
            assert info.value.status == 404
            with pytest.raises(GatewayError) as info:
                client.restore(session_id="never-checkpointed")
            assert info.value.status == 422
            with pytest.raises(GatewayError) as info:
                client.restore(b"RPCKPT1\n" + b"junk" * 10)
            assert info.value.status == 422
