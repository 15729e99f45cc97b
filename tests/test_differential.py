"""Optimized plan == oracle, on generated programs, over the product of
everything a compile can be told.

Random graph x {full, sparse} x plan-pass selection {``default``,
``none``, each pass alone} x ``autotune`` {off, ``cost``}: the plan backend
against ``backend="interpreter"`` from copies of the same state, with the
static plan verifier on after every pass stage. Outputs and all state are
byte-equal on every step; ``peak_transient_bytes`` equals the
interpreter's measurement for ``passes="none"`` (the oracle lowering) and
may only be lower once a pass removed an intermediate.

The generator is ``tests/test_arena_safety.py``'s with ``layouts=True``:
besides the zoo's shapes of aliasing it draws elementwise ops over
transposed operands, views of the feed and of the parameter, and reshapes
that must copy. (No seed has failed on the plan backend so far; one that
does gets pinned here as an ``@example``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AutodiffError
from repro.runtime import Executor
from repro.runtime.compiler import CompileOptions, compile_training
from repro.runtime.passes import DEFAULT_PASSES
from repro.sparse import UpdateScheme
from repro.train import SGD

from test_arena_safety import random_feed, random_forward
from test_plan import fork

PASS_CONFIGS = ["default", "none", *[(name,) for name in DEFAULT_PASSES]]


def config_id(config) -> str:
    return config if isinstance(config, str) else config[0]


def compile_random(seed: int, ratio: float, passes, autotune):
    """The seed's random training program under one compile configuration,
    and the generator's rng (for feeds).

    Raises:
        AutodiffError: the random DAG routed the output around ``w``.
    """
    rng = np.random.default_rng(seed)
    b = random_forward(rng, layouts=True, state_views=ratio == 1.0)
    program = compile_training(
        b.graph, loss="mse", optimizer=SGD(0.01, momentum=0.9),
        scheme=UpdateScheme("w", {"w": ratio}),
        options=CompileOptions(plan_passes=passes, autotune=autotune,
                               verify_plans=True))
    return program, rng


def assert_matches_interpreter(program, rng, steps: int = 3) -> None:
    dut, ref = Executor(fork(program)), \
        Executor(fork(program), backend="interpreter")
    unoptimized = not program.plan_spec().passes
    graph = program.graph
    for step in range(steps):
        feeds = {name: random_feed(rng, graph.spec(name).shape)
                 for name in graph.inputs}
        got, want = dut.run(feeds), ref.run(feeds)
        assert list(got) == list(want)
        for name in want:
            a, b = np.asarray(got[name]), np.asarray(want[name])
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), f"step {step} output {name}"
        for name in sorted(program.state):
            assert dut.program.state[name].tobytes() \
                == ref.program.state[name].tobytes(), \
                f"step {step} state {name}"
        if unoptimized:
            assert dut.peak_transient_bytes == ref.peak_transient_bytes
        else:
            assert dut.peak_transient_bytes <= ref.peak_transient_bytes
        assert dut.last_transient_bytes == ref.last_transient_bytes


@pytest.mark.parametrize("autotune", [None, "cost"], ids=["plain", "tuned"])
@pytest.mark.parametrize("passes", PASS_CONFIGS, ids=config_id)
@pytest.mark.parametrize("ratio", [1.0, 0.5], ids=["full", "sparse"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_plan_equals_interpreter(ratio, passes, autotune, seed):
    try:
        program, rng = compile_random(seed, ratio, passes, autotune)
    except AutodiffError:
        assume(False)  # nothing to train
    assert_matches_interpreter(program, rng)


def test_the_generator_reaches_every_layout_case():
    """The product above is only a safety net if the graphs it draws hold
    the cases it exists for."""
    seen = set()
    for seed in range(60):
        graph = random_forward(np.random.default_rng(seed),
                               layouts=True).graph
        producer = {out: node for node in graph.nodes
                    for out in node.outputs}
        for node in graph.nodes:
            sources = [producer.get(name) for name in node.inputs]
            ops = [s.op_type if s is not None else None for s in sources]
            if node.op_type == "add" and ops == ["transpose", "transpose"]:
                seen.add("elementwise over transposed operands")
            if node.op_type == "reshape" and ops == ["transpose"]:
                seen.add("reshape of a transpose")
            if node.op_type in ("reshape", "transpose"):
                if node.inputs[0] in graph.initializers:
                    seen.add("view of state")
                if node.inputs[0] in graph.inputs:
                    seen.add("view of a feed")
    assert seen == {"elementwise over transposed operands",
                    "reshape of a transpose", "view of state",
                    "view of a feed"}
