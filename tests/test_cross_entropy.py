"""A label is an index, and a training step returns its loss.

``softmax_cross_entropy`` reads one log-probability per row (``pick``), and
the rule for ``log_softmax`` takes the scatter ``pick``'s rule emits as row
gradients and ids (``log_softmax_grad(g, x, ids)``), so no logits-sized
float row of the labels exists anywhere. This file requires

* the kernels to be the composite they replace, byte for byte, on
  generated inputs: ``log_softmax_grad(g, x, ids)`` ==
  ``log_softmax_grad(pick_grad(g, ids), x)`` == softmax / reduce_sum / mul /
  sub over ``onehot · g`` — float32 and float16, ranks 2 and 3, ``g`` of
  either sign and both zeros, softmaxes that underflow to 0 — and ``pick``
  == ``reduce_sum(onehot · x)`` on finite ``x``;
* a class id outside ``[0, classes)`` to be a typed error on the plan and
  on the interpreter alike;
* the structure that buys the memory, on every zoo program at batch 1, 2
  and 8: one folded ``log_softmax_grad``, no scatter, no ``onehot``, no
  node fed only by feeds and constants (nothing for the scheduler to start
  early), ``meta["logits"]`` a value of the graph, and a step returning
  its loss and its updates — the gradients too in ``masked_sparse`` mode;
* the fold to be the autodiff rule's, not a graph pass's: it holds with
  ``CompileOptions.fusion`` off, and a ``log_softmax`` output with a
  second reader gets the unfolded adjoint, with the right gradient.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import build_backward
from repro.errors import ExecutionError
from repro.ir import DType, GraphBuilder
from repro.kernels import KERNELS, OUT_KERNELS
from repro.models import build_model, paper_scheme
from repro.runtime import Executor, interpret
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import full_update
from repro.train import SGD, Adam
from repro.train.loss import softmax_cross_entropy

from conftest import make_mlp_graph
from test_codegen import assert_same_bytes

ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")


def run(op, ins, attrs=None):
    return KERNELS[op](ins, attrs or {})[0]


def onehot(ids, depth, dtype):
    """What the deleted ``onehot`` kernel returned, in ``dtype``."""
    return np.eye(depth, dtype=np.float32)[ids].astype(dtype)


def composite_grad(g_rows, x, ids):
    """The graph the parent's rules built for ``log_softmax``'s adjoint
    over ``onehot · g``, op by op through today's kernels."""
    depth = x.shape[-1]
    d = run("mul", [np.broadcast_to(g_rows[..., None], x.shape),
                    onehot(ids, depth, x.dtype)])
    soft = run("softmax", [x], {"axis": x.ndim - 1})
    total = run("reduce_sum", [d], {"axes": (x.ndim - 1,), "keepdims": True})
    return d, run("sub", [d, run("mul", [soft, total])])


@st.composite
def label_grads(draw):
    """Logits, ids and row gradients: float32 / float16, ranks 2 and 3,
    gradients of both signs and both zeros — all rows negative as the
    mean loss's are, or mixed — and logits spread wide enough that softmax
    underflows to 0 (the label's entry included) half of the time."""
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    rows = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    depth = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    spread = draw(st.sampled_from(
        [1.0, 30.0] + ([300.0] if dtype == np.float32 else [])))
    x = (rng.standard_normal(rows + (depth,)) * spread).astype(dtype)
    ids = rng.integers(0, depth, rows).astype(
        draw(st.sampled_from([np.int32, np.int64])))
    g = rng.standard_normal(rows)
    if draw(st.booleans()):
        g = -np.abs(g) / 7
    zeros = rng.random(rows)
    g = np.where(zeros < 0.2, -0.0, np.where(zeros < 0.3, 0.0, g))
    return x, ids, g.astype(dtype)


class TestKernelsAreTheComposite:
    @given(label_grads())
    @settings(max_examples=400, deadline=None)
    def test_folded_adjoint_is_the_scatter_then_the_adjoint(self, case):
        x, ids, g = case
        scattered, want = composite_grad(g, x, ids)
        assert_same_bytes(run("pick_grad", [g, ids], {"depth": x.shape[-1]}),
                          scattered, "pick_grad is onehot · g")
        unfolded = run("log_softmax_grad", [scattered, x],
                       {"axis": x.ndim - 1})
        assert_same_bytes(unfolded, want, "log_softmax_grad(scatter, x)")
        folded = run("log_softmax_grad", [g, x, ids], {"axis": x.ndim - 1})
        assert_same_bytes(folded, want, "log_softmax_grad(g, x, ids)")
        for ins in ([scattered, x], [g, x, ids]):
            out = np.full(want.shape, np.nan, want.dtype)
            assert OUT_KERNELS["log_softmax_grad"](
                ins, {"axis": x.ndim - 1}, out) is out
            assert_same_bytes(out, want, f"into-form, {len(ins)} inputs")

    def test_the_strategy_reaches_the_edges(self):
        """Non-vacuity: -0.0 and +0.0 gradients, an underflowed softmax
        at the label, both dtypes and ranks."""
        seen = set()

        @given(label_grads())
        @settings(max_examples=200, deadline=None, database=None)
        def draw(case):
            x, ids, g = case
            seen.add((x.dtype.name, x.ndim))
            seen.update(f"{np.signbit(z)} zero" for z in g.ravel() if z == 0)
            soft = run("softmax", [x], {"axis": x.ndim - 1})
            if (np.take_along_axis(soft, ids[..., None], -1) == 0).any():
                seen.add("underflow at the label")

        draw()
        assert seen >= {("float32", 2), ("float32", 3), ("float16", 2),
                        ("float16", 3), "True zero", "False zero",
                        "underflow at the label"}

    def test_an_underflowed_label_and_a_negative_zero(self):
        x = np.array([[0.0, -200.0, 5.0], [1.0, 1.0, 1.0]], np.float32)
        ids = np.array([1, 0])
        for g in (np.array([-0.25, -0.0], np.float32),
                  np.array([0.5, 0.0], np.float32)):
            _, want = composite_grad(g, x, ids)
            assert_same_bytes(run("log_softmax_grad", [g, x, ids]), want,
                              f"g = {g}")
        assert run("softmax", [x], {"axis": 1})[0, 1] == 0.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pick_is_the_row_sum_of_onehot_times_x(self, data):
        """On finite ``x``. (A -0.0 at the label would sum to +0.0 —
        numpy's sum starts from +0.0 — and no log-softmax holds one.)"""
        x, ids, _ = data.draw(label_grads())
        x = np.where(x == 0, x.dtype.type(0.0), x)
        want = run("reduce_sum", [run("mul", [onehot(ids, x.shape[-1],
                                                     x.dtype), x])],
                   {"axes": (x.ndim - 1,)})
        assert_same_bytes(run("pick", [x, ids]), want, "pick")


def mlp_program(**options):
    builder, _ = make_mlp_graph(seed=3)
    return compile_training(builder.graph, optimizer=SGD(0.1),
                            options=CompileOptions(**options))


class TestOutOfRangeIds:
    @pytest.mark.parametrize("label", [3, 7, -1])
    @pytest.mark.parametrize("backend", ["plan", "interpreter"])
    def test_typed_error_on_either_backend(self, backend, label):
        """3 classes: no label may be wrapped or silently dropped."""
        program = mlp_program(
            plan_passes="default" if backend == "plan" else "none")
        executor = Executor(program, backend=backend)
        x = np.zeros((4, 5), np.float32)
        labels = np.array([0, 1, label, 2])
        with pytest.raises(ExecutionError, match=r"out of range \[0, 3\)"):
            executor.run({"x": x, "labels": labels})
        # the step failed whole: a good batch still trains
        loss = executor.run({"x": x, "labels": np.array([0, 1, 2, 2])})
        assert np.isfinite(loss[program.meta["loss"]])


def compile_zoo_at(model, scheme, batch, **options):
    forward = build_model(model, batch=batch)
    if scheme == "paper_scheme":
        return compile_training(forward, optimizer=SGD(0.05),
                                scheme=paper_scheme(forward),
                                options=CompileOptions(**options))
    return compile_training(forward, optimizer=Adam(1e-3),
                            scheme=full_update(forward),
                            options=CompileOptions(**options))


def assert_loss_region(program, forward_params):
    graph = program.graph
    ops = [node.op_type for node in graph.nodes]
    assert "onehot" not in ops and "pick_grad" not in ops
    (adjoint,) = [n for n in graph.nodes if n.op_type == "log_softmax_grad"]
    (pick,) = [n for n in graph.nodes if n.op_type == "pick"]
    logits, labels = program.meta["logits"], program.meta["labels"]
    # the fold: rows and ids, never a [..., classes] gradient
    assert adjoint.inputs[1:] == (logits, labels)
    assert graph.spec(adjoint.inputs[0]).shape == graph.spec(labels).shape
    assert pick.inputs[1] == labels
    # 1(b): nothing reads only feeds and constants
    sources = set(graph.inputs) | set(graph.initializers)
    early = [node.name for node in graph.nodes
             if sources.issuperset(node.inputs)
             and not forward_params.intersection(node.inputs)]
    assert early == []


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", ["paper_scheme", "full_update"])
@pytest.mark.parametrize("model", ZOO_MODELS)
def test_the_loss_region_holds_logits_and_one_gradient(model, scheme, batch):
    program = compile_zoo_at(model, scheme, batch)
    assert_loss_region(program, set(build_model(model, batch=1).initializers))
    # a step returns its loss and its updates, nothing of the forward's
    applies = [n.outputs[0] for n in program.graph.nodes
               if n.op_type.startswith("apply_")]
    assert program.outputs[0] == program.meta["loss"]
    assert sorted(program.outputs[1:]) == sorted(applies)
    assert program.meta["logits"] not in program.outputs
    assert [name for name, _ in program.plan_spec().output_slots] \
        == program.outputs


def test_the_fold_is_the_rules_not_a_passes():
    program = compile_zoo_at("llama_micro", "full_update", 2, fusion=False)
    assert_loss_region(program, set(build_model("llama_micro").initializers))


def test_masked_sparse_steps_also_return_their_gradients():
    builder, _ = make_mlp_graph(seed=3)
    program = compile_training(builder.graph, optimizer=SGD(0.1),
                               options=CompileOptions(masked_sparse=True))
    graph = program.graph
    applies = {n.outputs[0] for n in graph.nodes
               if n.op_type.startswith("apply_")}
    grads = {n.inputs[1] for n in graph.nodes
             if n.op_type.startswith("apply_")}
    assert program.outputs[0] == program.meta["loss"]
    assert set(program.outputs[1:]) == applies | grads


def test_a_second_reader_gets_the_unfolded_adjoint():
    """``log_softmax``'s output read twice: its gradient is a sum, the
    rule takes it whole — and it is still the cross-entropy's."""
    rng = np.random.default_rng(5)
    b = GraphBuilder("ce")
    logits = b.input("logits", (3, 4))
    labels = b.input("labels", (3,), DType.INT64)
    loss = softmax_cross_entropy(b, logits, labels)
    logp = next(n.outputs[0] for n in b.graph.nodes
                if n.op_type == "log_softmax")
    total = b.add(loss, b.reduce_mean(logp))
    b.mark_output(total)
    result = build_backward(b.graph, total, ["logits"])
    adjoint = [n for n in b.graph.nodes if n.op_type == "log_softmax_grad"]
    assert [len(n.inputs) for n in adjoint] == [2]
    x = rng.standard_normal((3, 4)).astype(np.float32)
    ids = np.array([0, 3, 1])
    got = interpret(b.graph, {"logits": x, "labels": ids})[
        result.grads["logits"]]
    soft = np.exp(x) / np.exp(x).sum(-1, keepdims=True)
    # d/dx of mean CE + mean(log_softmax): (soft - onehot)/3 + (1/12 -
    # soft * 4/12) per row
    want = (soft - np.eye(4)[ids]) / 3 + (1 - 4 * soft) / 12
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_priced_as_gather_and_normalize():
    from repro.deploy.binsize import KERNEL_CODE_BYTES
    from repro.devices.cost import op_class

    assert [op_class(op) for op in ("pick", "pick_grad", "log_softmax_grad")] \
        == ["gather", "gather", "normalize"]
    assert {"pick", "pick_grad", "log_softmax_grad"} <= set(KERNEL_CODE_BYTES)
    assert "onehot" not in KERNEL_CODE_BYTES and "onehot" not in KERNELS
