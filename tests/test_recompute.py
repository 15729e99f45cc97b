"""Recompute, don't hold: a cheap forward value is cloned for its backward.

:func:`repro.passes.recompute.recompute_for_backward` clones a single-output
one-pass elementwise forward node whose inputs the backward holds anyway,
rewires its backward readers to the clone, and has the scheduler run the
clone just after the gradient its first non-view reader takes with it.
Against a compile with the rewrite taken out, this file requires

* the same bytes: loss of two steps and every state tensor, on the 36 zoo
  configurations (six micro models x {paper, full} x batch {1, 2, 8});
* less memory: the plan's ``peak_transient_bytes`` never higher, and lower
  by exactly the cloned outputs' worth on the nine full-update transformer
  programs, the only ones with an FFN activation that qualifies;
* the structure that buys it: every clone reads only what is resident or
  read by another backward node, and runs after its gradient's producer
  and before its first reader; no clone over an input the backward does
  not read downstream of that gradient, nor without a gradient to wait
  for (on graphs written out by hand, the rewrite called directly);
* that a compile keeps the clones only where they lower the schedule's
  peak, and :meth:`Recompute.undo` restores the graph exactly;
* on random DAGs with an FFN tail: the same bytes and a peak never higher;
* the observability: ``CompileReport.pass_stats["recompute"]``;
* the SwiGLU gate against its two-op form without the rewrite, as the
  autodiff rules alone decide it: same bytes, strictly lower peak, no
  more instructions (``tests/test_activation_adjoints.py`` compares them
  as shipped).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AutodiffError
from repro.ir import GraphBuilder
from repro.models import build_model
from repro.passes.recompute import SUFFIX, Recompute, recompute_for_backward
from repro.runtime import Executor, compiler
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import UpdateScheme, full_update
from repro.train import SGD, Adam

from reference_autodiff import swap_in_primitive_swiglu
from test_activation_adjoints import (SCHEMES, assert_same_bytes_less_memory,
                                      compile_at)
from test_arena_safety import random_feed, random_forward
from test_codegen import assert_same_bytes, make_feeds

ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")

#: (model, batch) -> (plan peak without the rewrite, with it, clones) at
#: the full update; every other zoo configuration clones nothing
LOWER = {
    ("bert_micro", 1): (117_380, 105_092, 4),
    ("bert_micro", 2): (226_820, 201_988, 4),
    ("bert_micro", 8): (907_268, 783_364, 4),
    ("distilbert_micro", 1): (63_876, 59_780, 2),
    ("distilbert_micro", 2): (119_812, 111_364, 2),
    ("distilbert_micro", 8): (479_236, 420_868, 2),
    ("llama_micro", 1): (240_676, 216_100, 4),
    ("llama_micro", 2): (469_632, 420_480, 4),
    ("llama_micro", 8): (1_878_528, 1_681_920, 4),
}


def without_recompute(monkeypatch):
    """Compile as if the rewrite did not exist."""
    monkeypatch.setattr(compiler, "recompute_for_backward",
                        lambda graph, loss: Recompute())


def recording_recompute(monkeypatch):
    """Run the rewrite as usual; the list fills with what it returned and
    the clone count it returned with (a compile may undo them later)."""
    seen: list[tuple[Recompute, int]] = []

    def record(graph, loss):
        result = real(graph, loss)
        seen.append((result, result.stats["clones"]))
        return result

    real = compiler.recompute_for_backward
    monkeypatch.setattr(compiler, "recompute_for_backward", record)
    return seen


def two_steps(program, feeds):
    """Losses of the two steps, then every state tensor, of a replica."""
    executor = Executor(program.with_state(
        {name: array.copy() for name, array in program.state.items()}))
    loss = program.meta["loss"]
    losses = [np.array(executor.run(batch)[loss]) for batch in feeds]
    return losses, executor.program.state


def assert_same_steps(program, reference, feeds):
    losses, state = two_steps(program, feeds)
    want_losses, want_state = two_steps(reference, feeds)
    for step, (got, want) in enumerate(zip(losses, want_losses)):
        assert_same_bytes(got, want, f"loss of step {step}")
    assert state.keys() == want_state.keys()
    for name in state:
        assert_same_bytes(state[name], want_state[name], name)


def clones_of(program):
    return [node for node in program.graph.nodes
            if node.name.endswith(SUFFIX)]


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", ZOO_MODELS)
def test_zoo_same_bytes_never_more_memory(model, scheme, batch,
                                          monkeypatch):
    program = compile_at(model, scheme, batch)
    with monkeypatch.context() as patch:
        without_recompute(patch)
        reference = compile_at(model, scheme, batch)
    rng = np.random.default_rng(5)
    assert_same_steps(program, reference,
                      [make_feeds(reference, rng) for _ in range(2)])

    peak = program.plan_spec().peak_transient_bytes
    old = reference.plan_spec().peak_transient_bytes
    stats = program.meta["report"].pass_stats["recompute"]
    graph, clones = program.graph, clones_of(program)
    assert stats["clones"] == len(clones)
    if scheme == "full_update" and (model, batch) in LOWER:
        want_old, want, count = LOWER[model, batch]
        assert (old, peak, len(clones)) == (want_old, want, count)
        # an FFN activation per block, and nothing else
        assert {node.op_type for node in clones} \
            == {"swiglu" if model == "llama_micro" else "gelu"}
        # the peak falls by what the clones no longer hold, at most
        assert stats["bytes"] == sum(graph.spec(node.outputs[0]).nbytes
                                     for node in clones)
        assert old - peak <= stats["bytes"]
    else:
        assert not clones and stats == {"clones": 0, "bytes": 0}
        assert program.plan_spec().to_dict() \
            == reference.plan_spec().to_dict()


@pytest.mark.parametrize("model", ["bert_micro", "distilbert_micro",
                                   "llama_micro"])
def test_clones_read_only_what_the_backward_holds(model, monkeypatch):
    """Each clone's inputs are resident or read by another backward node;
    its backward readers read nothing of the original any more; and it
    runs after its gradient's producer and before its first reader."""
    seen = recording_recompute(monkeypatch)
    program = compile_at(model, "full_update", 2)
    ((recompute, _),) = seen
    graph = program.graph
    consumers = graph.consumer_map()
    producer = graph.producer_map()
    loss_at = next(at for at, node in enumerate(program.schedule)
                   if program.meta["loss"] in node.outputs)
    forward = {id(node) for node in program.schedule[:loss_at + 1]}
    resident = set(graph.initializers) | set(graph.inputs)
    at = {id(node): pos for pos, node in enumerate(program.schedule)}
    clones = clones_of(program)
    assert clones and len(recompute.after) == len(clones)
    for clone in clones:
        original = producer[clone.outputs[0][:-len(SUFFIX)]]
        assert (original.op_type, original.inputs, original.attrs) \
            == (clone.op_type, clone.inputs, clone.attrs)
        assert id(original) in forward and id(clone) not in forward
        # the original's readers are all forward nodes now
        assert all(id(r) in forward for r in consumers[original.outputs[0]])
        for value in clone.inputs:
            assert value in resident or any(
                reader is not clone and id(reader) not in forward
                for reader in consumers[value])
        readers = consumers[clone.outputs[0]]
        assert at[id(clone)] < min(at[id(r)] for r in readers)
    for first, clone in recompute.after:
        assert at[id(first)] < at[id(clone)]


def test_no_rewrite_without_the_memory_aware_schedule():
    """A conventional framework (``reorder=False``) holds every forward
    value its backward reads."""
    forward = build_model("llama_micro", batch=2)
    program = compile_training(
        forward, optimizer=Adam(1e-3), scheme=full_update(forward),
        options=CompileOptions(reorder=False, materialize_state=False))
    assert "recompute" not in program.meta["report"].pass_stats
    assert not clones_of(program)


def gelu_ffn_by_hand(input_read_later=True, gradient=True):
    """A forward ``loss = matmul(h, w2)``, ``h = gelu(m)``, ``m =
    matmul(x, w1)``, and backward nodes written out by hand:

    * with ``gradient``, ``g = neg(loss)`` and ``h``'s weight gradient
      ``matmul(transpose(h), g)``; without, ``reduce_sum(h)``, which takes
      no gradient beside it, and ``h = gelu(x)`` over the (resident) feed;
    * with ``input_read_later``, ``mul(m, dh)`` over ``dh = matmul(g,
      transpose(w2))`` (the shape of ``gelu_grad``); without, ``dh``
      alone, so no backward node reads ``m``.

    Returns the graph, the loss and ``g``'s producer (or ``None``)."""
    b = GraphBuilder("gelu_ffn_by_hand")
    x = b.input("x", (8, 4))
    hidden = 16 if gradient else 4
    w1 = b.initializer("w1", np.full((4, hidden), 0.1, np.float32))
    w2 = b.initializer("w2", np.full((hidden, 4), 0.1, np.float32))
    m = b.matmul(x, w1) if gradient else x
    h = b.emit("gelu", [m])
    loss = b.matmul(h, w2)
    b.mark_output(loss)
    if not gradient:
        b.mark_output(b.reduce_sum(h))
        return b.graph, loss, None
    g = b.neg(loss)
    b.mark_output(b.matmul(b.transpose(h, (1, 0)), g))
    dh = b.matmul(g, b.transpose(w2, (1, 0)))
    b.mark_output(b.mul(m, dh) if input_read_later else dh)
    return b.graph, loss, b.graph.producer_map()[g]


def snapshot(graph):
    return ([(n.op_type, n.name, n.inputs, n.outputs) for n in graph.nodes],
            dict(graph.values))


def test_a_clone_by_hand_and_its_undo():
    """``h`` is cloned for its weight gradient, right behind ``g``'s
    producer, reading ``m``, which ``mul(m, dh)`` holds anyway; undo puts
    the graph back as it was."""
    graph, loss, neg = gelu_ffn_by_hand()
    before = snapshot(graph)
    recompute = recompute_for_backward(graph, loss)
    (clone, readers), = recompute.rewired
    h = clone.outputs[0][:-len(SUFFIX)]
    assert (clone.op_type, clone.outputs) == ("gelu", (h + SUFFIX,))
    assert recompute.after == [(neg, clone)]
    assert recompute.stats == {"clones": 1,
                               "bytes": graph.spec(h).nbytes}
    assert [r.op_type for r in readers] == ["transpose"]
    assert readers[0].inputs == (clone.outputs[0],)
    assert graph.nodes.index(clone) == graph.nodes.index(neg) + 1
    assert graph.nodes.index(clone) < graph.nodes.index(readers[0])
    recompute.undo(graph)
    assert snapshot(graph) == before
    assert recompute.stats == {"clones": 0, "bytes": 0}
    assert recompute.after == [] and recompute.rewired == []


@pytest.mark.parametrize("input_read_later, gradient",
                         [(False, True), (True, False)],
                         ids=["input-not-held", "no-gradient"])
def test_no_clone_the_backward_would_not_hold(input_read_later, gradient):
    """A clone whose input no backward node reads downstream of its
    gradient (it would hold ``m`` into the backward in ``h``'s stead), or
    whose first reader takes no gradient to run just in time for, is not
    made: the graph is left as it was."""
    graph, loss, _ = gelu_ffn_by_hand(input_read_later, gradient)
    before = snapshot(graph)
    recompute = recompute_for_backward(graph, loss)
    assert recompute.stats == {"clones": 0, "bytes": 0}
    assert recompute.after == [] and snapshot(graph) == before


def wide_forward_then_ffn():
    """A frozen 8x512 forward intermediate, then a trainable GELU FFN on a
    8x4 result: the step's peak is in the forward, where a clone for the
    FFN's backward changes nothing."""
    b = GraphBuilder("wide_forward_then_ffn")
    x = b.input("x", (8, 4))

    def weight(name, shape, trainable=False):
        return b.initializer(name, np.full(shape, 0.01, np.float32),
                             trainable=trainable)

    wide = b.emit("relu", [b.matmul(x, weight("w0", (4, 512)))])
    c = b.matmul(wide, weight("w1", (512, 4)))
    h = b.emit("gelu", [b.matmul(c, weight("up", (4, 16), True))])
    b.mark_output(b.matmul(h, weight("down", (16, 4), True)))
    return b.graph


def test_clones_that_do_not_lower_the_peak_are_undone(monkeypatch):
    seen = recording_recompute(monkeypatch)

    def compile_it():
        graph = wide_forward_then_ffn()
        return compile_training(
            graph, loss="mse", optimizer=SGD(0.1),
            scheme=UpdateScheme("ffn", {"up": 1.0, "down": 1.0}))

    program = compile_it()
    ((_, made),) = seen
    assert made == 1
    assert program.meta["report"].pass_stats["recompute"] \
        == {"clones": 0, "bytes": 0}
    assert not clones_of(program)
    without_recompute(monkeypatch)
    assert program.plan_spec().to_dict() == compile_it().plan_spec().to_dict()


def ffn_forward(seed):
    """``random_forward(activations=True)``'s DAG with an FFN tail: its
    result, one element a row, through an up projection, a GELU or a
    SwiGLU gate, and a down projection, all three trainable. The random
    DAGs alone give the rewrite nothing: no forward value there is read
    by a gradient whose inputs a gradient reads too."""
    rng = np.random.default_rng(seed)
    b = random_forward(rng, activations=True)
    (last,) = b.graph.outputs
    b.graph.outputs = []
    rows = int(np.prod(b.shape(last)))
    column = b.emit("reshape", [last], {"shape": (rows, 1)})
    hidden = int(rng.integers(2, 17))

    def weight(shape):
        return b.initializer(
            b.fresh("ffn"),
            rng.uniform(-0.25, 0.25, shape).astype(np.float32),
            trainable=True)

    gate = b.matmul(column, weight((1, hidden)))
    if rng.random() < 0.5:
        h = b.emit("gelu", [gate])
    else:
        h = b.emit("swiglu", [gate, b.matmul(column, weight((1, hidden)))])
    b.mark_output(b.matmul(h, weight((hidden, 4))))
    return b.graph, rng


def compile_ffn(seed):
    graph, rng = ffn_forward(seed)
    optimizer = SGD(0.01, momentum=0.9)
    try:
        program = compile_training(graph, loss="mse", optimizer=optimizer,
                                   scheme=full_update(graph))
    except AutodiffError:
        # the random DAG routed its result around w: train the FFN only
        ffn = {name: 1.0 for name in graph.trainable if name != "w"}
        program = compile_training(graph, loss="mse", optimizer=optimizer,
                                   scheme=UpdateScheme("ffn", ffn))
    return program, rng


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_ffn_same_bytes_never_more_memory(seed):
    with pytest.MonkeyPatch.context() as patch:
        seen = recording_recompute(patch)
        program, rng = compile_ffn(seed)
    with pytest.MonkeyPatch.context() as patch:
        without_recompute(patch)
        reference, _ = compile_ffn(seed)
    # the FFN tail always gives the rewrite a clone to try
    assert seen[-1][1] >= 1
    labels = reference.meta["labels"]
    feeds = [{"x": random_feed(rng, reference.graph.spec("x").shape),
              labels: random_feed(rng, reference.graph.spec(labels).shape)}
             for _ in range(2)]
    assert_same_steps(program, reference, feeds)
    assert program.plan_spec().peak_transient_bytes \
        <= reference.plan_spec().peak_transient_bytes


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_swiglu_gate_without_the_rewrite(scheme, batch, monkeypatch):
    """Against the gate traced as ``mul(silu(gate), up)``, both compiled
    without the rewrite: the held ``silu`` outputs are all the
    difference."""
    without_recompute(monkeypatch)
    program = compile_at("llama_micro", scheme, batch)
    with monkeypatch.context() as patch:
        swap_in_primitive_swiglu(patch)
        reference = compile_at("llama_micro", scheme, batch)
    assert_same_bytes_less_memory(program, reference)
