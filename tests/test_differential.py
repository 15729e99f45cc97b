"""Optimized plan == oracle, on generated programs, over the product of
everything a compile can be told.

Random graph x {full, sparse} x plan-pass selection {``default``,
``none``, each pass alone once there are two}: the plan backend
against ``backend="interpreter"`` from copies of the same state, with the
static plan verifier on after every pass stage. Outputs and all state are
byte-equal on every step; ``peak_transient_bytes`` equals the
interpreter's measurement for ``passes="none"`` (the oracle lowering)
when no value shares bytes, and may only be lower once an alias or an
in-place reuse counts a buffer once, or a pass removed an intermediate.

The generator is ``tests/test_arena_safety.py``'s with ``layouts=True``
and ``activations=True``: besides the zoo's shapes of aliasing it draws
elementwise ops over transposed operands, views of the feed and of the
parameter, reshapes that must copy, and the relu family on backward paths
— ``relu6`` around both clamps, conv -> bias -> relu6 chains, a second conv
reading the activation (so the mask folds into its ``conv2d_dx``), a
stride-1 depthwise conv writing over its dying input (and its
``conv2d_dx`` over its gradient), packed
masks over element counts that are not a multiple of 8 — fed batches with a
zero row, which lands pre-activations exactly on 0.0 and 6.0. Graph-level
fusion off gives the same bytes (``test_graph_fusion_changes_no_byte``). A
sub-layer update of a parameter that a ``reshape`` / ``transpose`` also
reads cannot be compiled; the sparse half accepts exactly that typed
refusal. Every third seed ends the program in the cross-entropy loss
instead of the squared error — ``pick`` and the folded ``log_softmax``
adjoint, fed labels in range — chosen from the seed alone, so the other
graphs draw what they drew before. A seed that fails on the plan backend
gets pinned here as an ``@example``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import AutodiffError, CompileError
from repro.runtime import Executor, interpret
from repro.runtime.compiler import CompileOptions, compile_training
from repro.runtime.passes import DEFAULT_PASSES
from repro.sparse import UpdateScheme
from repro.train import SGD

from test_arena_safety import random_feed, random_forward
from test_plan import fork, shares_no_bytes

#: each pass alone only where that is not the default pipeline itself
PASS_CONFIGS = ["default", "none",
                *[(name,) for name in DEFAULT_PASSES
                  if (name,) != DEFAULT_PASSES]]


def config_id(config) -> str:
    return config if isinstance(config, str) else config[0]


def loss_for(seed: int) -> str:
    return "softmax_ce" if seed % 3 == 0 else "mse"


def compile_random(seed: int, ratio: float, passes, fusion=True):
    """The seed's random training program under one compile configuration,
    and the generator's rng (for feeds).

    Raises:
        AutodiffError: the random DAG routed the output around ``w``.
        CompileError: ``ratio < 1`` and something besides its matmul reads
            ``w`` on a backward path.
    """
    rng = np.random.default_rng(seed)
    b = random_forward(rng, layouts=True, activations=True)
    program = compile_training(
        b.graph, loss=loss_for(seed), optimizer=SGD(0.01, momentum=0.9),
        scheme=UpdateScheme("w", {"w": ratio}),
        options=CompileOptions(plan_passes=passes, fusion=fusion,
                               verify_plans=True))
    return program, rng


def boundary_feed(rng, shape):
    """A random batch whose first row is zero half of the time: whatever
    is linear in it is then exactly zero, and a bias of 0.0 / 6.0 on top
    exactly a clamp boundary."""
    feed = random_feed(rng, shape)
    if rng.random() < 0.5:
        feed[0] = 0.0
    return feed


def random_feeds(program, rng) -> dict[str, np.ndarray]:
    """A boundary batch for the float feeds; class ids for the labels of a
    cross-entropy loss."""
    graph = program.graph
    classes = graph.spec(program.meta["logits"]).shape[-1]
    return {name: boundary_feed(rng, graph.spec(name).shape)
            if graph.spec(name).dtype.is_float
            else rng.integers(0, classes, graph.spec(name).shape)
            for name in graph.inputs}


def assert_matches_interpreter(program, rng, steps: int = 3) -> None:
    dut, ref = Executor(fork(program)), \
        Executor(fork(program), backend="interpreter")
    spec = program.plan_spec()
    exact = not spec.passes and shares_no_bytes(spec)
    for step in range(steps):
        feeds = random_feeds(program, rng)
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
        if exact:
            assert dut.peak_transient_bytes == ref.peak_transient_bytes
        else:
            assert dut.peak_transient_bytes <= ref.peak_transient_bytes


@pytest.mark.parametrize("passes", PASS_CONFIGS, ids=config_id)
@pytest.mark.parametrize("ratio", [1.0, 0.5], ids=["full", "sparse"])
@given(seed=st.integers(0, 100_000))
# once exposed a byte-ledger hole in a since-deleted fusion phase (the
# plan's peak 64 B above the oracle's); kept as a plan peak <= oracle input
@example(seed=330)
@settings(max_examples=25, deadline=None)
def test_plan_equals_interpreter(ratio, passes, seed):
    try:
        program, rng = compile_random(seed, ratio, passes)
    except AutodiffError:
        assume(False)  # nothing to train
    except CompileError as exc:
        # the one refusal the sparse half may meet; draw another graph
        assert ratio < 1.0 and "sub-layer update of 'w'" in str(exc)
        assume(False)
    assert_matches_interpreter(program, rng)


@pytest.mark.parametrize("passes", ["default", "none"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_graph_fusion_changes_no_byte(passes, seed):
    """``CompileOptions.fusion`` off: conv -> bias -> relu6 stays three
    nodes and ``conv2d_dx -> mask_mul`` two. That plan equals its
    interpreter too — and, fed the same batches, the fused program's."""
    try:
        program, rng = compile_random(seed, 1.0, passes, fusion=False)
        fused, _ = compile_random(seed, 1.0, passes)
    except AutodiffError:
        assume(False)
    assert not any(len(node.inputs) == 3 for node in program.graph.nodes
                   if node.op_type in ("conv2d", "conv2d_dx"))
    state = rng.bit_generator.state
    assert_matches_interpreter(program, rng)
    rng.bit_generator.state = state
    pair, fold = Executor(fork(program)), Executor(fork(fused))
    for step in range(3):
        feeds = random_feeds(program, rng)
        want, got = pair.run(feeds), fold.run(feeds)
        for name in want:
            assert np.asarray(got[name]).tobytes() \
                == np.asarray(want[name]).tobytes(), f"step {step} {name}"
    for name in sorted(program.mutable_state_names()):
        assert fold.program.state[name].tobytes() \
            == pair.program.state[name].tobytes(), name


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


def test_the_generator_reaches_the_relu_family():
    """... and the cases a bit-mask backward exists for, on backward paths
    of the compiled program; the cross-entropy loss; and both answers of
    the sparse half."""
    seen = set()
    for seed in range(60):
        try:
            program, rng = compile_random(seed, 1.0, "default")
        except AutodiffError:
            continue
        graph = program.graph
        producer = graph.producer_map()
        if any(node.op_type == "log_softmax_grad" and len(node.inputs) == 3
               for node in graph.nodes):
            seen.add("the cross-entropy loss, its adjoints folded")
        for node in graph.nodes:
            if node.op_type != "range_mask":
                continue
            if "hi" in node.attrs:
                seen.add("relu6 on a backward path")
            if graph.spec(node.inputs[0]).num_elements % 8:
                seen.add("a mask over a count that is not a multiple of 8")
            source = producer[node.inputs[0]]
            if source.op_type == "conv2d" and len(source.inputs) == 3 \
                    and source.attrs.get("activation") == "relu6":
                seen.add("conv + bias + relu6 fused under a mask")
        for node in graph.nodes:
            if node.op_type == "conv2d_dx" and len(node.inputs) == 3:
                kh = graph.spec(node.inputs[1]).shape[2]
                seen.add("a mask folded into a 1x1 conv2d_dx" if kh == 1
                         else "a mask folded into a gathering conv2d_dx")

        forward = random_forward(np.random.default_rng(seed), layouts=True,
                                 activations=True).graph
        clamped = [node.inputs[0] for node in forward.nodes
                   if node.op_type == "relu6"]
        forward.outputs = clamped
        feed = random_feed(rng, forward.spec("x").shape)
        feed[0] = 0.0
        for pre in interpret(forward, {"x": feed}).values():
            if (pre == 0.0).any() and (pre == 6.0).any():
                seen.add("a pre-activation exactly on both boundaries")

        try:
            compile_random(seed, 0.5, "default")
            seen.add("a sub-layer update that compiles")
        except CompileError:
            seen.add("a sub-layer update that is refused")
    assert seen == {"the cross-entropy loss, its adjoints folded",
                    "relu6 on a backward path",
                    "a mask over a count that is not a multiple of 8",
                    "conv + bias + relu6 fused under a mask",
                    "a mask folded into a 1x1 conv2d_dx",
                    "a mask folded into a gathering conv2d_dx",
                    "a pre-activation exactly on both boundaries",
                    "a sub-layer update that compiles",
                    "a sub-layer update that is refused"}
