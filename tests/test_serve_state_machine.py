"""The serving state machine, tested as a state machine.

A Hypothesis ``RuleBasedStateMachine`` drives one tenant session of a
thread-backend :class:`FineTuneService` (MLP family, ``max_batch=2``,
``workers=1``) through pooled submits, claimed steps run on the test
thread, keyed retries, checkpoint downloads, close-then-restore, and
close. After every rule it checks the invariants the serving layer
promises:

* an acked session is not ``pending()`` unless the machine still holds
  other futures for it;
* ``step_seq`` strictly increases across acked updates;
* a keyed retry of an acked key replays (``replayed=True``) and moves no
  state byte;
* a step whose label is no class id (outside ``[0, classes)``) is
  refused before it is queued and moves nothing: no counter, no state
  byte, no idempotency key;
* restore ∘ checkpoint is byte-identical in state and counters;
* a session aged past the session TTL goes at the next forced sweep once
  nothing of it is queued or running, strands none of its futures, and
  its next submit is refused before it is queued, moving no byte of the
  shadow session;
* a shadow session in a second service, fed the same examples in the
  same batches but only through the worker pool, holds byte-identical
  state: where a step runs never changes its bytes.

Worker crashes are not a rule yet.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.errors import ServeError
from repro.serve import FineTuneService, load_checkpoint

from conftest import make_mlp_graph

WAIT_S = 30.0
#: the machine's session TTL: long enough that no session expires unless
#: a rule ages it
TTL_S = 3600.0
#: futures the machine may hold unresolved at once; with one worker, two
#: held plus a step that queues behind them is what coalesces a batch
MAX_HELD = 2


def build_mlp(batch: int):
    return make_mlp_graph(batch=batch, din=5, dhidden=6, dout=3,
                          seed=0)[0].graph


examples = st.tuples(
    st.lists(st.floats(-2.0, 2.0, width=32), min_size=5, max_size=5),
    st.integers(0, 2),
).map(lambda pair: (np.asarray(pair[0], np.float32), np.int64(pair[1])))


def open_session(service: FineTuneService):
    return service.create_session(build_mlp, model_id="mlp", scheme="full")


def state_bytes(session) -> dict[str, bytes]:
    return {name: array.tobytes() for name, array in session.state.items()}


def counters(session) -> tuple:
    return (session.step_seq, session.steps, session.examples,
            np.float64(session.last_loss).tobytes())


class Shadow:
    """A session in its own service that steps only through the pool, in
    exactly the batches the machine's session was cut into.

    A batch of two is forced by parking the shadow service's one worker
    on a gate session while both examples queue behind it.
    """

    def __init__(self, service: FineTuneService) -> None:
        self.service = service
        self.gate_open = threading.Event()
        self.gate = open_session(service)
        run_batch = service.scheduler._run_batch

        def gated(session, batch):
            if session is self.gate:
                assert self.gate_open.wait(WAIT_S)
            return run_batch(session, batch)

        service.scheduler._run_batch = gated

    def step(self, session, batch: list[tuple[np.ndarray, np.int64]]):
        scheduler = self.service.scheduler
        if len(batch) == 1:
            return [self.service.submit(session.id, *batch[0])
                    .result(WAIT_S)]
        self.gate_open.clear()
        gate = self.service.submit(self.gate.id, *batch[0])
        deadline = time.monotonic() + WAIT_S
        while scheduler.queue_depth():  # the gate batch is on the worker
            assert time.monotonic() < deadline
            time.sleep(0.0005)
        futures = [self.service.submit(session.id, x, y) for x, y in batch]
        self.gate_open.set()
        gate.result(WAIT_S)
        return [future.result(WAIT_S) for future in futures]


class ServeMachine(RuleBasedStateMachine):

    def __init__(self, service: FineTuneService, shadow: Shadow) -> None:
        super().__init__()
        self.service = service
        self.shadow = shadow
        self.keys = 0
        self._open_pair()

    def _open_pair(self) -> None:
        self.session = open_session(self.service)
        self.twin = open_session(self.shadow.service)
        #: (x, y, key, future) in submission order, not yet mirrored
        self.unmirrored: list[tuple] = []
        #: (key, result) for every acked, non-replayed step
        self.acked: list[tuple] = []
        self.step_seq = self.session.step_seq

    def _next_key(self) -> str:
        self.keys += 1
        return f"k{self.keys}"

    def _held(self) -> list:
        return [entry for entry in self.unmirrored if not entry[3].done()]

    def _ack(self, future) -> None:
        """Await one step; check what a client holding its ack may see."""
        result = future.result(WAIT_S)
        if all(entry[3].done() for entry in self.unmirrored):
            assert not self.service.scheduler.pending(self.session.id)
        assert not result.replayed
        return result

    def _settle(self) -> None:
        """Resolve every held future and replay the batches on the twin."""
        for *_, future in self.unmirrored:
            self._ack(future)
        entries, self.unmirrored = self.unmirrored, []
        i = 0
        while i < len(entries):
            step = entries[i][3].result().step
            group = [e for e in entries[i:] if e[3].result().step == step]
            assert [e[3].result().step for e in entries[i:i + len(group)]] \
                == [step] * len(group), "a batch must be a contiguous run"
            assert all(e[3].result().batch_size == len(group)
                       for e in group)
            assert step > self.step_seq, "step_seq must strictly increase"
            self.step_seq = step
            results = self.shadow.step(self.twin,
                                       [(e[0], e[1]) for e in group])
            for entry, mirrored in zip(group, results):
                assert mirrored.batch_size == len(group)
                assert np.float32(mirrored.loss) \
                    == np.float32(entry[3].result().loss)
                self.acked.append((entry[2], entry[3].result()))
            i += len(group)

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: len(self._held()) < MAX_HELD)
    @rule(example=examples)
    def pooled_submit(self, example):
        key = self._next_key()
        future = self.service.submit(self.session.id, *example,
                                     idempotency_key=key)
        self.unmirrored.append((*example, key, future))

    @rule(example=examples)
    def claimed_step(self, example):
        key = self._next_key()
        future = self.service.submit(self.session.id, *example,
                                     idempotency_key=key, claim=True)
        self.unmirrored.append((*example, key, future))
        result = self.service.scheduler.run_claimed(future)
        if result is not None:
            assert result == future.result(0)
        self._ack(future)

    @rule()
    def await_held(self):
        self._settle()

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def keyed_retry(self, data):
        self._settle()
        key, recorded = data.draw(st.sampled_from(self.acked))
        before = state_bytes(self.session)
        x = np.zeros(5, np.float32)
        replay = self.service.submit(self.session.id, x, np.int64(0),
                                     idempotency_key=key).result(WAIT_S)
        assert replay.replayed
        assert (replay.step, replay.loss) == (recorded.step, recorded.loss)
        assert state_bytes(self.session) == before
        assert not self.service.scheduler.pending(self.session.id)

    @rule(example=examples, label=st.integers(-4, -1) | st.integers(3, 7),
          claim=st.booleans())
    def refused_label(self, example, label, claim):
        self._settle()
        key = self._next_key()
        before = (state_bytes(self.session), counters(self.session))
        with pytest.raises(ServeError, match="class ids"):
            self.service.submit(self.session.id, example[0],
                                np.int64(label), idempotency_key=key,
                                claim=claim)
        assert not self.service.scheduler.pending(self.session.id)
        assert self.session.recall(key) is None
        assert self.session.pending_future(key) is None
        assert (state_bytes(self.session), counters(self.session)) == before
        assert before == (state_bytes(self.twin), counters(self.twin))

    @rule(example=examples, claim=st.booleans())
    def ttl_evict(self, example, claim):
        manager = self.service.sessions
        evictions = self.service.stats()["serve.sessions_evicted"]
        self.session.last_used -= TTL_S + 1.0
        evicted = manager.sweep(force=True)
        self._settle()  # every future it holds resolves, evicted or not
        if not evicted:  # busy at that sweep; idle now, it goes
            self.session.last_used -= TTL_S + 1.0
            evicted = manager.sweep(force=True)
        assert evicted == [self.session]
        assert self.service.stats()["serve.sessions_evicted"] \
            == evictions + 1
        twin = (state_bytes(self.twin), counters(self.twin))
        key = self._next_key()
        with pytest.raises(ServeError, match="unknown session"):
            self.service.submit(self.session.id, *example,
                                idempotency_key=key, claim=claim)
        assert not self.service.scheduler.pending(self.session.id)
        assert self.service.scheduler.queue_depth() == 0
        assert self.session.pending_future(key) is None
        assert self.session.recall(key) is None
        assert (state_bytes(self.twin), counters(self.twin)) == twin
        assert state_bytes(self.session) == twin[0]
        self.shadow.service.close_session(self.twin.id)
        self._open_pair()

    @rule()
    def checkpoint_bytes(self):
        self._settle()
        ckpt = load_checkpoint(self.service.checkpoint_bytes(self.session.id))
        assert {name: array.tobytes() for name, array in ckpt.state.items()} \
            == state_bytes(self.session)
        assert ckpt.step_seq == self.session.step_seq

    @rule()
    def close_then_restore(self):
        self._settle()
        blob = self.service.checkpoint_bytes(self.session.id)
        before = (state_bytes(self.session), counters(self.session))
        self.service.close_session(self.session.id)
        self.session = self.service.restore_session(blob, model=build_mlp)
        assert (state_bytes(self.session), counters(self.session)) == before

    @rule()
    def close_session(self):
        self._settle()
        before = state_bytes(self.session)
        final = self.service.close_session(self.session.id)
        assert {name: array.tobytes() for name, array in final.items()} \
            == before
        self.shadow.service.close_session(self.twin.id)
        self._open_pair()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def matches_the_pool_only_twin(self):
        if not self.unmirrored:
            assert state_bytes(self.session) == state_bytes(self.twin)
            assert self.session.step_seq == self.twin.step_seq

    def teardown(self):
        self._settle()
        self.service.close_session(self.session.id)
        self.shadow.service.close_session(self.twin.id)


def test_serving_state_machine(monkeypatch):
    # a loaded host must not push the MLP step past the claim bound
    monkeypatch.setattr("sys.getswitchinterval", lambda: 1.0)
    service = FineTuneService(max_batch=2, workers=1, session_ttl=TTL_S)
    shadow = Shadow(FineTuneService(max_batch=2, workers=1))
    try:
        run_state_machine_as_test(
            lambda: ServeMachine(service, shadow),
            settings=settings(max_examples=25, stateful_step_count=15,
                              deadline=None,
                              suppress_health_check=[HealthCheck.too_slow]))
        assert service.stats()["serve.claims_run_total"] >= 1
    finally:
        service.close()
        shadow.gate_open.set()
        shadow.service.close()
