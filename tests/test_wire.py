"""Tests for the binary step wire format and the shared-memory slab ring.

Correctness oracle throughout: the process backend's shm ring must be
*byte-identical* to the in-process thread backend — same losses, same
final state bytes — because both feed the same kernels; any drift means
the transport changed alignment or dtype somewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import FineTuneService, shm, wire
from repro.serve.scheduler import StepRequest
from repro.serve.shm import SlabRing
from repro.serve.wire import WireError

from conftest import make_mlp_graph


def build_mlp(batch: int, dhidden: int = 6):
    return make_mlp_graph(batch=batch, din=5, dhidden=dhidden, dout=3,
                          seed=0)[0].graph


# ---------------------------------------------------------------------------
# frame round trips
# ---------------------------------------------------------------------------


class TestFrameRoundTrip:
    DTYPES = ["float32", "float64", "float16", "int64", "int32", "int8",
              "uint8", "bool"]
    SHAPES = [(), (1,), (7,), (3, 4), (2, 3, 5), (0,), (4, 0, 2)]

    def test_every_dtype_and_shape_round_trips(self):
        rng = np.random.default_rng(0)
        tensors = {}
        for i, dtype in enumerate(self.DTYPES):
            for j, shape in enumerate(self.SHAPES):
                arr = (rng.standard_normal(shape) * 10).astype(dtype)
                tensors[f"t{i}_{j}"] = arr
        meta = {"kind": "test", "nested": {"a": [1, 2.5, None, "s"]}}
        frame = wire.encode_frame(meta, tensors)
        got_meta, got = wire.decode_frame(frame)
        assert got_meta == meta
        assert set(got) == set(tensors)
        for name, arr in tensors.items():
            assert got[name].dtype == arr.dtype, name
            assert got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name

    def test_big_endian_round_trips(self):
        arr = np.arange(6, dtype=">f4").reshape(2, 3)
        _, got = wire.decode_frame(wire.encode_frame(None, {"x": arr}))
        assert got["x"].dtype == arr.dtype
        assert got["x"].tobytes() == arr.tobytes()
        assert np.array_equal(got["x"].astype("<f4"), arr.astype("<f4"))

    def test_meta_only_frame(self):
        frame = wire.encode_frame({"loss": 0.5, "step": 3})
        meta, tensors = wire.decode_frame(frame)
        assert meta == {"loss": 0.5, "step": 3}
        assert tensors == {}

    def test_frame_nbytes_matches_encode(self):
        tensors = {"a": np.ones((3, 5), np.float32),
                   "b": np.arange(4, dtype=np.int64)}
        meta = {"k": "v" * 100}
        assert wire.frame_nbytes(meta, tensors) == \
            len(wire.encode_frame(meta, tensors))

    def test_zero_copy_views_then_copy_owns(self):
        frame = wire.encode_frame(None,
                                  {"x": np.arange(8, dtype=np.float32)})
        _, views = wire.decode_frame(frame)
        assert views["x"].base is not None  # a view into the frame
        _, copies = wire.decode_frame(frame, copy=True)
        assert copies["x"].flags.owndata or copies["x"].base is None \
            or copies["x"].flags.writeable
        copies["x"][0] = 99.0  # writable, detached from the frame
        _, again = wire.decode_frame(frame)
        assert again["x"][0] == 0.0

    def test_tensor_segments_are_64_byte_aligned(self):
        # alignment is load-bearing: numpy's ALIGNED flag steers kernel
        # selection, and byte-exactness vs the JSON path depends on it
        # (relative to the frame start: the shm ring places each frame on
        # a 64-byte boundary of a page-aligned segment, so frame-relative
        # 64-alignment is absolute alignment where it matters)
        frame = wire.encode_frame({"pad": "x" * 37}, {
            "a": np.ones(3, np.int8), "b": np.ones((2, 2), np.float64)})
        base = np.frombuffer(frame, dtype=np.uint8).ctypes.data
        _, tensors = wire.decode_frame(frame)
        for name, arr in tensors.items():
            assert (arr.ctypes.data - base) % 64 == 0, name

    def test_non_contiguous_tensor_is_copied_in_c_order(self):
        arr = np.arange(16, dtype=np.float32).reshape(4, 4).T[::2]
        assert not arr.flags.c_contiguous
        frame = wire.encode_frame(None, {"x": arr})
        assert frame == wire.encode_frame(
            None, {"x": np.ascontiguousarray(arr)})
        _, got = wire.decode_frame(frame)
        assert got["x"].flags.c_contiguous
        assert np.array_equal(got["x"], arr)

    def test_encode_into_overflow_is_clean(self):
        tensors = {"x": np.ones(1024, np.float64)}
        need = wire.frame_nbytes(None, tensors)
        buf = memoryview(bytearray(need // 2))
        with pytest.raises(WireError):
            wire.encode_into(buf, None, tensors)
        # exact-size buffer succeeds
        buf = memoryview(bytearray(need))
        assert wire.encode_into(buf, None, tensors) == need


# ---------------------------------------------------------------------------
# malformed frames
# ---------------------------------------------------------------------------


class TestMalformedFrames:
    def _good(self):
        return wire.encode_frame({"m": 1}, {"x": np.ones(4, np.float32)})

    def test_bad_magic(self):
        frame = bytearray(self._good())
        frame[:4] = b"EVIL"
        with pytest.raises(WireError):
            wire.decode_frame(bytes(frame))

    def test_truncations_never_crash(self):
        good = self._good()
        for cut in range(len(good)):
            with pytest.raises(WireError):
                wire.decode_frame(good[:cut])

    def test_oversized_header_claim(self):
        import struct
        frame = bytearray(self._good())
        hlen_at = len(wire.MAGIC)
        struct.pack_into(">I", frame, hlen_at, wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(WireError):
            wire.decode_frame(bytes(frame))

    def test_header_is_not_json(self):
        good = self._good()
        prefix = len(wire.MAGIC) + 4
        frame = good[:prefix] + b"{not json!" + good[prefix + 10:]
        with pytest.raises(WireError):
            wire.decode_frame(frame)

    def test_random_garbage_fuzz(self):
        rng = np.random.default_rng(7)
        for size in (0, 1, 7, 8, 64, 4096):
            blob = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            if blob[:len(wire.MAGIC)] == wire.MAGIC:  # pragma: no cover
                blob = b"\x00" + blob[1:]
            with pytest.raises(WireError):
                wire.decode_frame(blob)


# ---------------------------------------------------------------------------
# the slab ring
# ---------------------------------------------------------------------------


class TestSlabRing:
    def test_lease_cycle_and_exhaustion(self):
        with SlabRing(2, 1 << 12) as ring:
            a = ring.acquire()
            b = ring.acquire()
            assert {a, b} == {0, 1}
            assert ring.free_slots() == 0
            with pytest.raises(ServeError):
                ring.acquire(timeout=0.05)
            ring.release(a)
            assert ring.acquire() == a

    def test_frame_round_trip_through_shared_memory(self):
        with SlabRing(1, 1 << 16) as ring:
            slot = ring.acquire()
            x = np.arange(12, dtype=np.float32).reshape(3, 4)
            ring.write_frame(slot, {"state": [], "feeds": ["x"]}, {"x": x})
            meta, tensors = ring.read_frame(slot)
            assert meta == {"state": [], "feeds": ["x"]}
            assert tensors["x"].tobytes() == x.tobytes()
            # zero-copy: a write through the view lands in the segment
            tensors["x"][0, 0] = 42.0
            _, again = ring.read_frame(slot)
            assert again["x"][0, 0] == 42.0
            del meta, tensors, again
            ring.release(slot)

    def test_strided_tensor_is_copied_into_the_slot(self):
        """A view is written once, in C order, straight into the slot —
        the same bytes and length as its contiguous copy would take."""
        base = np.arange(48, dtype=np.float32).reshape(6, 8)
        views = {"t": base.T, "s": base[::2, 1::3],
                 "f": np.asfortranarray(base)}
        assert not any(v.flags.c_contiguous for v in views.values())
        dense = {k: np.ascontiguousarray(v) for k, v in views.items()}
        with SlabRing(1, 1 << 16) as ring:
            slot = ring.acquire()
            length = ring.write_frame(slot, None, views)
            assert length == wire.frame_nbytes(None, dense)
            _, tensors = ring.read_frame(slot, copy=True)
            for name, view in views.items():
                assert tensors[name].flags.c_contiguous, name
                assert tensors[name].shape == view.shape, name
                assert tensors[name].tobytes() == dense[name].tobytes(), name
            ring.release(slot)

    def test_torn_write_is_detected(self):
        with SlabRing(1, 1 << 12) as ring:
            slot = ring.acquire()
            ring.write_frame(slot, {"ok": True}, {})
            # a writer that died after begin_write leaves an odd seq
            shm.begin_write(ring._shm.buf, slot, ring.slot_bytes)
            with pytest.raises(ServeError, match="mid-write"):
                ring.read_frame(slot)

    def test_worker_busy_marker_is_torn_to_readers(self):
        with SlabRing(1, 1 << 12) as ring:
            slot = ring.acquire()
            ring.write_frame(slot, {"ok": True}, {})
            shm.mark_busy(ring._shm.buf, slot, ring.slot_bytes)
            with pytest.raises(ServeError, match="mid-write"):
                ring.read_frame(slot)
            shm.mark_done(ring._shm.buf, slot, ring.slot_bytes)
            meta, _ = ring.read_frame(slot)
            assert meta == {"ok": True}  # length survived the markers

    def test_oversized_payload_leaves_slot_committed(self):
        with SlabRing(1, 1 << 12) as ring:
            slot = ring.acquire()
            with pytest.raises(WireError):
                ring.write_frame(slot, None,
                                 {"x": np.ones(1 << 14, np.float64)})
            # the slot is committed-empty, not torn: reusable immediately
            ring.write_frame(slot, {"after": 1}, {})
            meta, _ = ring.read_frame(slot)
            assert meta == {"after": 1}

    def test_closed_ring_refuses_leases(self):
        ring = SlabRing(1, 1 << 12)
        ring.close()
        with pytest.raises(ServeError, match="closed"):
            ring.acquire(timeout=0.05)
        ring.close()  # idempotent


# ---------------------------------------------------------------------------
# backend parity: process (shm ring) vs thread — the byte-exactness oracle
# ---------------------------------------------------------------------------


def _run_losses_and_state(backend: str):
    rng = np.random.default_rng(7)
    examples = [(rng.standard_normal(5).astype(np.float32),
                 np.int64(rng.integers(0, 3))) for _ in range(10)]
    with FineTuneService(workers=2, max_batch=4,
                         backend=backend) as service:
        session = service.create_session(build_mlp, model_id="mlp",
                                         scheme="full")
        losses = [service.submit(session.id, x, y).result(60).loss
                  for x, y in examples]
        snapshot = service.snapshot(session.id)
        metrics = service.metrics.as_dict()
    return losses, snapshot, metrics


def _run_batches(backend: str, batches, dhidden: int = 6):
    """Feed ``batches`` (lists of ``(x, y)``) to one session through
    ``_run_batch``, so both backends see exactly the same batching: a
    batch of one takes the ``x[None, ...]`` path, a longer one is
    stacked."""
    with FineTuneService(workers=1, max_batch=4,
                         backend=backend) as service:
        session = service.create_session(
            lambda batch: build_mlp(batch, dhidden),
            model_id=f"mlp{dhidden}", scheme="full")
        losses = [service._run_batch(session, [
            StepRequest(session=session, x=x, y=y) for x, y in batch]).loss
            for batch in batches]
        snapshot = service.snapshot(session.id)
        metrics = service.metrics.as_dict()
    return losses, snapshot, metrics


def _strided_batches(sizes=(1, 1, 4, 1, 2)):
    """Batches whose every ``x`` is a non-C-contiguous view."""
    rng = np.random.default_rng(11)
    batches = []
    for size in sizes:
        batch = []
        for _ in range(size):
            x = rng.standard_normal((5, 2)).astype(np.float32)[:, 1]
            assert not x.flags.c_contiguous
            batch.append((x, np.int64(rng.integers(0, 3))))
        batches.append(batch)
    return batches


class TestBackendParity:
    def test_shm_ring_is_byte_identical_to_thread(self):
        l_thread, s_thread, _ = _run_losses_and_state("thread")
        l_shm, s_shm, m_shm = _run_losses_and_state("process")
        assert l_shm == l_thread
        assert set(s_shm) == set(s_thread)
        for key in s_shm:
            assert s_shm[key].tobytes() == s_thread[key].tobytes(), key
        # and every step really crossed the ring
        assert m_shm.get("serve.worker.steps_shm", 0) == 10

    def test_strided_inputs_are_byte_identical_to_thread(self):
        """A non-contiguous ``x`` is copied once into the slot: batch-1
        (``x[None, ...]`` stays a strided view) and coalesced (stacked)
        batches alike match the thread backend bit for bit."""
        batches = _strided_batches()
        l_thread, s_thread, _ = _run_batches("thread", batches)
        l_shm, s_shm, m_shm = _run_batches("process", batches)
        assert l_shm == l_thread
        assert set(s_shm) == set(s_thread)
        for key in s_shm:
            assert s_shm[key].tobytes() == s_thread[key].tobytes(), key
        assert m_shm["serve.worker.steps_shm"] == len(batches)

    def test_serialized_bytes_do_not_grow_with_the_state(self):
        """Only the fetched loss and a fixed stub are pickled per step;
        the state overlay travels through shared memory, so a model with
        ~10x the state pickles the same bytes per step."""
        from repro.serve.workers import _STUB_OVERHEAD

        batches = _strided_batches((1, 2, 1))
        per_step, shm_per_step, state_bytes = {}, {}, {}
        for dhidden in (6, 64):
            _, state, metrics = _run_batches("process", batches, dhidden)
            steps = metrics["serve.worker.steps_shm"]
            per_step[dhidden] = \
                metrics["serve.worker.serialized_bytes"] / steps
            shm_per_step[dhidden] = metrics["serve.worker.shm_bytes"] / steps
            state_bytes[dhidden] = sum(a.nbytes for a in state.values())
        loss_bytes = np.dtype(np.float32).itemsize
        assert per_step[6] == per_step[64] <= loss_bytes + _STUB_OVERHEAD
        # the overlay went through the ring instead, all of it
        assert state_bytes[64] > 8 * state_bytes[6]
        for dhidden, nbytes in state_bytes.items():
            assert shm_per_step[dhidden] > nbytes

    def test_ring_grows_mid_run_and_stays_byte_identical(self):
        """A bigger model joining a live pool grows the ring once; both
        sessions' losses and state still match the thread backend, and
        the small model's later steps reuse the grown ring."""
        rng = np.random.default_rng(13)
        examples = [(rng.standard_normal(5).astype(np.float32),
                     np.int64(rng.integers(0, 3))) for _ in range(6)]
        order = ("small", "big", "small", "big", "small", "small")

        def run(backend):
            with FineTuneService(workers=1, max_batch=1,
                                 backend=backend) as service:
                sessions = {
                    "small": service.create_session(
                        lambda batch: build_mlp(batch, 6),
                        model_id="mlp6", scheme="full"),
                    "big": service.create_session(
                        lambda batch: build_mlp(batch, 8192),
                        model_id="mlp8192", scheme="full")}
                losses = [service.submit(sessions[name].id, x, y)
                          .result(60).loss
                          for name, (x, y) in zip(order, examples)]
                states = {name: service.snapshot(session.id)
                          for name, session in sessions.items()}
                metrics = service.metrics.as_dict()
            return losses, states, metrics

        l_thread, s_thread, _ = run("thread")
        l_shm, s_shm, m_shm = run("process")
        assert l_shm == l_thread
        for name in s_thread:
            assert set(s_shm[name]) == set(s_thread[name])
            for key in s_thread[name]:
                assert s_shm[name][key].tobytes() \
                    == s_thread[name][key].tobytes(), (name, key)
        assert m_shm["serve.worker.steps_shm"] == len(order)
        assert m_shm["serve.worker.ring_resizes"] == 1


# ---------------------------------------------------------------------------
# slab-ring auto-sizing: slots sized from the model's frame, not a fixed slab
# ---------------------------------------------------------------------------


class TestRingAutoSizing:
    def test_auto_slot_bytes_rounds_to_granule_with_headroom(self):
        from repro.serve.workers import ProcessPoolEngine

        granule = 64 << 10
        # tiny frames get the floor, not the old 4 MiB slab
        assert ProcessPoolEngine._auto_slot_bytes(100) == granule
        # headroom: the sized slot always fits more than the measured need
        for need in (granule, granule + 1, 1 << 20, (4 << 20) + 17):
            sized = ProcessPoolEngine._auto_slot_bytes(need)
            assert sized >= need + need // 8
            assert sized % granule == 0

    def test_ring_created_lazily_and_grows_for_bigger_frames(self):
        from repro.serve.workers import ProcessPoolEngine

        engine = ProcessPoolEngine(1)
        try:
            assert engine._ring is None  # no frame measured yet
            small = {"x": np.zeros(8, np.float32)}
            ring1 = engine._ensure_ring({"state": [], "feeds": ["x"]}, small)
            assert engine.ring_resizes == 0
            assert ring1.slot_bytes == 64 << 10
            engine._ring_unref(ring1)

            big = {"x": np.zeros(1 << 18, np.float32)}  # 1 MiB frame
            ring2 = engine._ensure_ring({"state": [], "feeds": ["x"]}, big)
            assert ring2 is not ring1
            assert engine.ring_resizes == 1
            assert ring2.slot_bytes >= (1 << 20) + (1 << 17)
            # the small frame reuses the grown ring — no shrink churn
            ring3 = engine._ensure_ring({"state": [], "feeds": ["x"]}, small)
            assert ring3 is ring2
            engine._ring_unref(ring2)
            engine._ring_unref(ring3)
        finally:
            engine.shutdown()

    def test_retired_ring_stays_open_until_inflight_steps_drain(self):
        from repro.serve.workers import ProcessPoolEngine

        engine = ProcessPoolEngine(1)
        try:
            small = {"x": np.zeros(8, np.float32)}
            ring1 = engine._ensure_ring({"state": [], "feeds": ["x"]}, small)
            slot = ring1.acquire()  # a step holds a lease on the old ring

            big = {"x": np.zeros(1 << 18, np.float32)}
            ring2 = engine._ensure_ring({"state": [], "feeds": ["x"]}, big)
            assert ring2 is not ring1
            # the in-flight step's ring is retired, not closed under it
            ring1.write_frame(slot, {"still": "alive"}, {})
            meta, _ = ring1.read_frame(slot)
            assert meta == {"still": "alive"}
            ring1.release(slot)
            engine._ring_unref(ring1)  # last lease drains → now closed
            with pytest.raises(ServeError, match="closed"):
                ring1.acquire(timeout=0.05)
            engine._ring_unref(ring2)
        finally:
            engine.shutdown()
