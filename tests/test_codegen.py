"""Same step, less work: the generated step function against a plain loop.

``backend="plan"`` runs Python generated from the bound instruction stream
(:mod:`repro.runtime.codegen`): kernel calls writing ``out=`` into arrays
that exist before the first step. ``tests/reference_executor.py`` holds
the generic loop over the same plan; this file requires

* outputs, mutable state and allocation counts equal to that loop's, over
  three steps, on the twelve zoo programs (default plan, ``passes="none"``,
  ``autotune="cost"``) and random graphs x {full, sparse};
* every into-form to equal its base kernel byte for byte on generated
  inputs — called, emitted, and with ``out`` aliasing each input
  :func:`repro.kernels.aliasable_inputs` names for the attrs — for every
  op that has one; a stride-1 depthwise conv and its ``conv2d_dx`` to
  write over input 0 (across group chunks too), and nothing else to;
* the observed variant to fire the observers exactly as the loop does;
* the generated text to be a function of the plan alone: deterministic,
  one statement group per instruction, no runtime layout / pool / alias
  check left in it, one function object per plan however many threads race
  to build it, the same text from a saved artifact in a fresh process;
* a failing kernel to surface as ``ExecutionError`` naming op and node, and
  to leave nothing pinned.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import linecache
import os
import re
import subprocess
import sys
import threading
import traceback
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.deploy import save_artifact
from repro.errors import AutodiffError, ExecutionError
from repro.kernels import (DENSE_OPS, KERNELS, OUT_EMITTERS, OUT_KERNELS,
                           PRECOMPUTE_TRANSFORMS, VARIANT_KERNELS, VIEW_OPS,
                           aliasable_inputs)
from repro.kernels import conv2d as conv_module
from repro.runtime import Executor, codegen
from repro.runtime import plan as plan_module
from repro.runtime.compiler import compile_training
from repro.sparse import UpdateScheme
from repro.train import SGD

from conftest import make_mlp_graph
from reference_executor import ReferenceExecutor
from test_arena_safety import random_feed, random_forward
from test_compile_single_sweep import ZOO_PROGRAMS, compile_zoo
from test_kernels import conv_cases
from test_plan import fork

def relowered(program, passes):
    """``program`` lowered again under another plan-pass selection."""
    meta = {k: v for k, v in program.meta.items()
            if k not in ("__plan__", "__plan_spec__")}
    meta["plan_passes"] = passes
    return dataclasses.replace(program, meta=meta)


def make_feeds(program, rng):
    """One seeded batch for every graph input of a zoo training program."""
    graph = program.graph
    feeds = {}
    for name in graph.inputs:
        spec = graph.spec(name)
        if not np.issubdtype(spec.dtype.np, np.integer):
            feeds[name] = rng.standard_normal(spec.shape) \
                .astype(spec.dtype.np)
            continue
        if name == program.meta["labels"]:
            bound = graph.spec(program.meta["logits"]).shape[-1]
        else:  # token ids: bounded by the embedding table they index
            bound = min(graph.spec(node.inputs[0]).shape[0]
                        for node in graph.nodes
                        if node.op_type == "embedding"
                        and name in node.inputs[1:])
        feeds[name] = rng.integers(0, bound, spec.shape).astype(spec.dtype.np)
    return feeds


#: what the arena-era step was made of; contiguity, pooling and aliasing
#: are static facts now and none of it may come back
FORBIDDEN = (".flags.c_contiguous", "take(", "give(", "np.shares_memory")


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_steps(program, batches):
    """The generated step against the reference loop, step by step."""
    for pattern in FORBIDDEN:
        assert pattern not in program.plan().source(), pattern
    dut, ref = Executor(fork(program)), ReferenceExecutor(fork(program))
    for step, feeds in enumerate(batches):
        got, want = dut.run(feeds), ref.run(feeds)
        assert list(got) == list(want)
        for name in want:
            assert_same_bytes(got[name], want[name], f"step {step} {name}")
        assert dut.last_step_fresh_allocs == ref.last_step_fresh_allocs
        assert dut.slab_bytes == ref.slab_bytes \
            == program.plan_spec().slab_bytes
    for name in sorted(program.state):
        assert_same_bytes(dut.program.state[name], ref.program.state[name],
                          f"state {name}")
    assert dut.peak_transient_bytes == ref.peak_transient_bytes


# -- (i) the same step as the loop ------------------------------------------

class TestSameStepAsTheLoop:
    @pytest.mark.parametrize("model,scheme", ZOO_PROGRAMS)
    def test_zoo_default_and_unoptimized_plans(self, model, scheme):
        program = compile_zoo(model, scheme)
        rng = np.random.default_rng(7)
        batches = [make_feeds(program, rng) for _ in range(3)]
        assert_same_steps(program, batches)
        assert_same_steps(relowered(program, "none"), batches)

    @pytest.mark.parametrize("model,scheme", [
        ("mcunet_micro", "paper_scheme"), ("resnet_micro", "full_update"),
        ("bert_micro", "paper_scheme"), ("llama_micro", "full_update")])
    def test_zoo_autotuned_plans(self, model, scheme):
        program = compile_zoo(model, scheme, autotune="cost")
        rng = np.random.default_rng(11)
        assert_same_steps(program,
                          [make_feeds(program, rng) for _ in range(3)])

    @pytest.mark.parametrize("ratio", [1.0, 0.5], ids=["full", "sparse"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, ratio, seed):
        rng = np.random.default_rng(seed)
        b = random_forward(rng)
        try:
            program = compile_training(
                b.graph, loss="mse", optimizer=SGD(0.01, momentum=0.9),
                scheme=UpdateScheme("w", {"w": ratio}))
        except AutodiffError:
            assume(False)  # the random DAG routed the output around w
        labels = program.meta["labels"]
        rows = b.graph.spec("x").shape[0]
        batches = [{"x": random_feed(rng, (rows, 4)),
                    labels: random_feed(rng,
                                        program.graph.spec(labels).shape)}
                   for _ in range(3)]
        assert_same_steps(program, batches)


# -- (ii) every into-form equals its kernel ----------------------------------

BINARY = ("add", "sub", "mul", "div", "maximum", "minimum", "equal",
          "swiglu")
UNARY = ("neg", "exp", "log", "sqrt", "abs", "sign", "tanh", "step", "relu",
         "relu6", "sigmoid", "silu", "gelu")
#: an activation's adjoint ``op_grad(g, x)``: two operands of one shape
ADJOINTS = ("silu_grad", "gelu_grad")
POSITIVE = ("log", "sqrt")
ANY_LAYOUT = ("c", "transposed", "strided")


@st.composite
def arrays(draw, shape=None, dtypes=(np.float32, np.float64),
           positive=False, layouts=("c",)):
    """An array of magnitudes in [0.5, 4] in one of ``layouts``."""
    if shape is None:
        shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    dtype = draw(st.sampled_from(dtypes))
    layout = draw(st.sampled_from(layouts)) if shape else "c"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))

    def values(shape):
        v = rng.uniform(0.5, 4.0, shape)
        if not positive:
            v = v * rng.choice([-1.0, 1.0], shape)
        return np.asarray(v).astype(dtype)

    if layout == "transposed":
        return values(shape[::-1]).T
    if layout == "strided":
        return values(tuple(2 * d for d in shape))[
            tuple(slice(None, None, 2) for _ in shape)]
    return values(shape)


@st.composite
def elementwise_case(draw, arity, positive):
    first = draw(arrays(positive=positive))
    ins = [first]
    if arity == 2:
        shape = first.shape
        other = draw(st.sampled_from(
            [shape, (), shape[-1:], tuple(1 if i % 2 else d
                                          for i, d in enumerate(shape))]))
        ins.append(draw(arrays(shape=other, dtypes=(first.dtype.type,))))
    return ins, {}


@st.composite
def adjoint_case(draw):
    g = draw(arrays())
    return [g, draw(arrays(shape=g.shape, dtypes=(g.dtype.type,)))], {}


@st.composite
def reshape_case(draw):
    x = draw(arrays(layouts=ANY_LAYOUT))
    target = draw(st.sampled_from(
        [(-1,), (x.size,), x.shape[::-1], (1,) + x.shape, x.shape + (1,)]))
    form = draw(st.sampled_from([tuple, list, np.array]))
    return [x], {"shape": form(target)}


@st.composite
def transpose_case(draw):
    x = draw(arrays(layouts=ANY_LAYOUT))
    perm = draw(st.permutations(range(x.ndim)))
    return [x], {"perm": draw(st.sampled_from([tuple, list]))(perm)}


@st.composite
def slice_case(draw):
    x = draw(arrays(shape=tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                              max_size=3))),
                    layouts=ANY_LAYOUT))
    axis = draw(st.integers(0, x.ndim - 1))
    start = draw(st.integers(0, x.shape[axis] - 1))
    end = draw(st.integers(start + 1, x.shape[axis]))
    return [x], {"axis": axis, "start": start, "end": end}


@st.composite
def matmul_case(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    batch = draw(st.sampled_from([(), (2,), (2, 3)]))
    trans_a, trans_b = draw(st.booleans()), draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # dense: its into-form takes operands of any layout
    a = draw(arrays(shape=batch + ((k, m) if trans_a else (m, k)),
                    dtypes=(dtype,), layouts=ANY_LAYOUT))
    b = draw(arrays(shape=draw(st.sampled_from([batch, ()]))
                    + ((n, k) if trans_b else (k, n)), dtypes=(dtype,),
                    layouts=ANY_LAYOUT))
    ins, attrs = [a, b], {}
    if draw(st.booleans()):
        ins.append(draw(arrays(shape=(n,), dtypes=(dtype,))))
    if trans_a or draw(st.booleans()):
        attrs["trans_a"] = trans_a
    if trans_b or draw(st.booleans()):
        attrs["trans_b"] = trans_b
    activation = draw(st.sampled_from(
        ["absent", None, "none", "relu", "relu6", "gelu"]))
    if activation != "absent":
        attrs["activation"] = activation
    return ins, attrs


@st.composite
def reduce_case(draw):
    x = draw(arrays(dtypes=(np.float32, np.float64, np.float16)))
    attrs = {}
    axes = draw(st.one_of(st.none(), st.sets(
        st.integers(0, max(x.ndim - 1, 0)), max_size=x.ndim)))
    if axes is not None:
        attrs["axes"] = draw(st.sampled_from([tuple, list]))(sorted(axes))
    elif draw(st.booleans()):
        attrs["axes"] = None
    if draw(st.booleans()):
        attrs["keepdims"] = draw(st.booleans())
    return [x], attrs


@st.composite
def norm_case(draw, params):
    """softmax / log_softmax (no params), rmsnorm (gamma), layernorm
    (gamma, beta) over the last axis."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.float16]))
    x = draw(arrays(shape=shape, dtypes=(dtype,)))
    ins = [x] + [draw(arrays(shape=shape[-1:], dtypes=(dtype,)))
                 for _ in range(params)]
    attrs = {}
    if params and draw(st.booleans()):
        attrs["eps"] = 1e-3
    if not params and draw(st.booleans()):
        attrs["axis"] = draw(st.integers(-x.ndim, x.ndim - 1))
    return ins, attrs


@st.composite
def bias_add_case(draw):
    x = draw(arrays(shape=tuple(draw(st.lists(st.integers(1, 4), min_size=2,
                                              max_size=4)))))
    axis = draw(st.integers(0, x.ndim - 1))
    bias = draw(arrays(shape=(x.shape[axis],), dtypes=(x.dtype.type,)))
    return [x, bias], {"axis": axis}


@st.composite
def cast_case(draw):
    x = draw(arrays(dtypes=(np.float32, np.float64, np.int32)))
    return [x], {"dtype": draw(st.sampled_from(
        ["float32", "float64", "float16", "int32"]))}


@st.composite
def mask_mul_case(draw):
    """A gradient and the packed mask ``range_mask`` takes of a clamped
    activation holding both boundaries: 0-d and sizes 1-17, so most masks
    end in pad bits. (``range_mask`` itself has no into-form; what it packs
    is pinned in ``tests/test_activation_masks.py``.)"""
    shape = draw(st.sampled_from(
        [(), *[(n,) for n in range(1, 18)], (3, 5), (2, 2, 3)]))
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    g = draw(arrays(shape=shape, dtypes=(dtype,)))
    x = draw(arrays(shape=shape, dtypes=(dtype,)))
    x = np.where(x > 3.5, dtype(6.0), np.where(x < -3.5, dtype(0.0), 2 * x))
    attrs = draw(st.sampled_from([{"lo": 0.0}, {"lo": 0.0, "hi": 6.0}]))
    y = np.clip(x.astype(dtype), 0, attrs.get("hi"))
    return [g, KERNELS["range_mask"]([y], attrs)[0]], {}


@st.composite
def embedding_case(draw):
    rows, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    table = draw(arrays(shape=(rows, dim)))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    ids = rng.integers(-rows, rows, shape).astype(
        draw(st.sampled_from([np.int32, np.int64])))
    return [table, ids], {}


@st.composite
def label_case(draw, op):
    """``pick(x, ids)``, ``pick_grad(g, ids)`` or ``log_softmax_grad(g, x
    [, ids])`` over ranks 1-3, ids of either integer width in range."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.float16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    ids = rng.integers(0, shape[-1], shape[:-1]).astype(
        draw(st.sampled_from([np.int32, np.int64])))
    x = draw(arrays(shape=shape, dtypes=(dtype,)))
    if op == "pick":
        return [x, ids], {}
    if op == "pick_grad":
        return [draw(arrays(shape=shape[:-1], dtypes=(dtype,))), ids], \
            {"depth": shape[-1]}
    if draw(st.booleans()):
        return [draw(arrays(shape=shape[:-1], dtypes=(dtype,))), x, ids], \
            {"axis": len(shape) - 1}
    return [draw(arrays(shape=shape, dtypes=(dtype,))), x], \
        {"axis": draw(st.integers(-x.ndim, x.ndim - 1))}


@st.composite
def conv_case(draw, backward):
    """conv2d (optional bias / activation / algo) or conv2d_dx (optional
    bit mask) over every static branch ``tests/test_kernels.py`` draws for
    the adjoint test."""
    x_shape, w_shape, attrs = draw(conv_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    if not backward:
        ins = [x, w]
        if draw(st.booleans()):
            ins.append(rng.standard_normal(w_shape[0]).astype(np.float32))
        activation = draw(st.sampled_from([None, "relu", "relu6", "gelu"]))
        if activation:
            attrs["activation"] = activation
        sh, sw = attrs["stride"]
        if w_shape[2] == 3 and (sh, sw) == (1, 1) and attrs["groups"] == 1 \
                and attrs["padding"][0] == attrs["padding"][1] \
                and draw(st.booleans()):
            attrs["algo"] = "winograd"
            attrs["padding"] = attrs["padding"][0]
        return ins, attrs
    grad = KERNELS["conv2d"]([x, w], attrs)[0]
    assume(grad.size)
    ins = [rng.standard_normal(grad.shape).astype(np.float32), w]
    if draw(st.booleans()):  # a folded mask_mul: the packed bit mask of dx
        ins.append(np.packbits(rng.random(x.size) < 0.5))
    return ins, {**attrs, "input_shape": x_shape}


@st.composite
def global_avg_pool_case(draw):
    shape = tuple(draw(st.integers(1, 5)) for _ in range(4))
    return [draw(arrays(shape=shape, dtypes=(np.float16, np.float32,
                                             np.float64)))], {}


@st.composite
def broadcast_to_case(draw):
    """A target shape, and a source with some axes of length 1 and some
    leading axes absent."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    source = tuple(d if draw(st.booleans()) else 1 for d in shape)
    source = source[draw(st.integers(0, len(shape))):]
    return [draw(arrays(shape=source))], \
        {"shape": draw(st.sampled_from([tuple, list]))(shape)}


@st.composite
def precomputed_case(draw, variant):
    """A plan-selected variant's inputs: the base op's, plus the hoisted
    transform of its frozen operand as the trailing input."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = lambda *shape: rng.standard_normal(shape)  # noqa: E731
    bias = draw(st.booleans())
    attrs = {"activation": draw(st.sampled_from(
        [None, "relu", "relu6", "gelu"]))}
    if variant == "pretransposed_b":
        m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
        ins = [values(2, m, k), values(n, k)] + [values(n)] * bias
        attrs["trans_b"] = True
        transform = "transpose_last2"
    else:
        n, cin, cout = (draw(st.integers(1, 3)) for _ in range(3))
        h, w = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        ins = [values(n, cin, h, w), values(cout, cin, 3, 3)] \
            + [values(cout)] * bias
        attrs.update(algo="winograd", padding=draw(st.integers(0, 1)))
        transform = "winograd_weight"
    ins = [x.astype(np.float32) for x in ins]
    return ins + [PRECOMPUTE_TRANSFORMS[transform](ins[1])], attrs


STRATEGIES = {
    "conv2d": conv_case(False), "conv2d_dx": conv_case(True),
    **{key: precomputed_case(key[1]) for key in OUT_KERNELS
       if isinstance(key, tuple)},
    **{op: elementwise_case(2, False) for op in BINARY},
    **{op: elementwise_case(1, op in POSITIVE) for op in UNARY},
    **{op: adjoint_case() for op in ADJOINTS},
    # its base kernel does not take 0-d input (np.abs returns a scalar)
    "sigmoid": arrays(shape=(3, 2)).map(lambda x: ([x], {})),
    "reshape": reshape_case(), "transpose": transpose_case(),
    "slice": slice_case(), "matmul": matmul_case(),
    "reduce_sum": reduce_case(), "reduce_mean": reduce_case(),
    "softmax": norm_case(0), "log_softmax": norm_case(0),
    "rmsnorm": norm_case(1), "layernorm": norm_case(2),
    "bias_add": bias_add_case(), "cast": cast_case(),
    "embedding": embedding_case(), "mask_mul": mask_mul_case(),
    **{op: label_case(op) for op in ("pick", "pick_grad",
                                     "log_softmax_grad")},
    "global_avg_pool": global_avg_pool_case(),
    "broadcast_to": broadcast_to_case(),
}


def poisoned(like):
    """A C-contiguous buffer shaped like ``like``, holding garbage."""
    like = np.asarray(like)
    raw = np.full(like.nbytes, 0xA5, np.uint8)
    return np.ndarray(like.shape, like.dtype, raw)


class TestEmittersEqualTheirKernels:
    """Every into-form, called and (where it has an emitter) emitted."""

    @pytest.mark.parametrize("key", sorted(set(OUT_KERNELS)
                                           | set(OUT_EMITTERS), key=str),
                             ids=lambda key: key if isinstance(key, str)
                             else "-".join(key))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_registry_wide_parity(self, key, data):
        assert key in STRATEGIES, \
            f"{key!r} has an into-form but no input strategy in this file"
        ins, attrs = data.draw(STRATEGIES[key])
        # a plan-selected variant is keyed (op, variant)
        op, base = (key, KERNELS[key]) if isinstance(key, str) \
            else (key[0], VARIANT_KERNELS[key])
        if op in DENSE_OPS:
            # beyond C-contiguous inputs: the layouts its predicate takes
            assume(DENSE_OPS[op]([(x.shape, x.strides) for x in ins]))
        elif op not in VIEW_OPS:
            assert all(x.flags.c_contiguous for x in ins)
        want = base(ins, attrs)[0]
        # the layout contract the static slab is built on
        if op not in VIEW_OPS:
            assert np.asarray(want).flags.c_contiguous
        elif not any(np.shares_memory(want, x) for x in ins):
            assert want.flags.c_contiguous

        buf = poisoned(want)
        assert OUT_KERNELS[key](ins, attrs, buf) is buf
        assert_same_bytes(buf, want, "into-form against base")

        emit = OUT_EMITTERS.get(key)
        source = emit([f"ins[{i}]" for i in range(len(ins))], attrs,
                      "buf") if emit is not None else None
        if source is not None:
            emitted = poisoned(want)
            exec(source, {"np": np, "ins": ins, "buf": emitted})
            assert_same_bytes(emitted, want, "emitted into-form")

        # ``out`` may be any input the alias rule names for these attrs, of
        # the output's own shape and dtype
        variant = "base" if isinstance(key, str) else key[1]
        for i in aliasable_inputs(op, variant, attrs, buf.shape, len(ins)):
            x = ins[i]
            if (x.shape, x.dtype) != (buf.shape, buf.dtype):
                continue
            alias = x.copy()
            same = [alias if y is x else y for y in ins]
            assert OUT_KERNELS[key](same, attrs, alias) is alias
            assert_same_bytes(alias, want, f"out aliasing input {i}")

    def test_emitters_decline_what_is_not_one_expression(self):
        emit = OUT_EMITTERS["matmul"]
        assert emit(["a", "b"], {}, "o") == "np.matmul(a, b, out=o)"
        assert emit(["a", "b"], {"trans_b": True, "activation": "none"},
                    "o") == "np.matmul(a, b.swapaxes(-1, -2), out=o)"
        assert emit(["a", "b", "c"], {}, "o") is None
        assert emit(["a", "b"], {"activation": "relu"}, "o") is None

    def test_only_the_registry_kernel_is_replaced(self):
        """An into-form patched onto an instruction is called, not
        inlined."""
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        plan = program.plan()
        index = next(i for i, instr in enumerate(plan.instructions)
                     if instr.node.op_type == "matmul"
                     and instr.out_kernel is OUT_KERNELS["matmul"])
        calls = []

        def counting(inputs, attrs, out):
            calls.append(len(inputs))
            return OUT_KERNELS["matmul"](inputs, attrs, out)

        plan.instructions[index].out_kernel = counting
        Executor(program).run(make_feeds(program, np.random.default_rng(0)))
        assert len(calls) == 1


class TestDepthwiseWritesOverItsInput:
    """The alias rule of ``conv2d`` / ``conv2d_dx``: a stride-1 depthwise
    conv's output may take over input 0 — and nothing else may."""

    DEPTHWISE = [((2, 24, 16, 16), 3), ((2, 48, 8, 8), 3),
                 ((1, 8, 7, 5), 5), ((2, 6, 4, 4), 1)]

    @staticmethod
    def split_into_chunks(monkeypatch, shape, k):
        """Shrink the grouped path's scratch cap to five groups a chunk,
        so the aliased output is written chunk by chunk."""
        n, c, h, w = shape
        per_group = n * k * k * h * w * 4
        monkeypatch.setattr(conv_module, "_GROUP_SCRATCH_CAP", 5 * per_group)
        assert conv_module._group_chunk(c, per_group) == 5 < c

    @staticmethod
    def assert_aliased_equal(key, ins, attrs):
        want = KERNELS[key](ins, attrs)[0]
        assert want.shape == ins[0].shape
        assert list(aliasable_inputs(key, "base", attrs, want.shape,
                                     len(ins))) == [0]
        alias = ins[0].copy()
        assert OUT_KERNELS[key]([alias, *ins[1:]], attrs, alias) is alias
        assert_same_bytes(alias, want, f"{key} writing over input 0")

    @pytest.mark.parametrize("shape,k", DEPTHWISE)
    @pytest.mark.parametrize("epilogue", [False, True],
                             ids=["plain", "bias-relu6"])
    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["one-chunk", "chunked"])
    def test_forward(self, monkeypatch, shape, k, epilogue, chunked):
        if chunked:
            self.split_into_chunks(monkeypatch, shape, k)
        rng = np.random.default_rng(k)
        c = shape[1]
        ins = [rng.standard_normal(shape).astype(np.float32),
               rng.standard_normal((c, 1, k, k)).astype(np.float32)]
        attrs = {"stride": 1, "padding": k // 2, "groups": c}
        if epilogue:
            ins.append(rng.standard_normal(c).astype(np.float32))
            attrs["activation"] = "relu6"
        self.assert_aliased_equal("conv2d", ins, attrs)

    @pytest.mark.parametrize("shape,k", DEPTHWISE)
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["plain", "masked"])
    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["one-chunk", "chunked"])
    def test_input_gradient(self, monkeypatch, shape, k, masked, chunked):
        if chunked:
            self.split_into_chunks(monkeypatch, shape, k)
        rng = np.random.default_rng(k)
        c = shape[1]
        ins = [rng.standard_normal(shape).astype(np.float32),
               rng.standard_normal((c, 1, k, k)).astype(np.float32)]
        if masked:
            ins.append(np.packbits(rng.random(int(np.prod(shape))) < 0.5))
        attrs = {"stride": (1, 1), "padding": (k // 2, k // 2),
                 "groups": c, "input_shape": shape}
        self.assert_aliased_equal("conv2d_dx", ins, attrs)

    @pytest.mark.parametrize("key", ["conv2d", "conv2d_dx"])
    def test_everything_else_keeps_its_own_buffer(self, key):
        depthwise = {"stride": 1, "padding": 1, "groups": 8}
        shape = (2, 8, 6, 6)
        refused = [
            {**depthwise, "groups": 1},
            {**depthwise, "stride": 2},
            {**depthwise, "stride": (1, 2)},
            {**depthwise, "algo": "winograd"},
        ]
        for attrs in refused:
            assert not aliasable_inputs(key, "base", attrs, shape, 3), attrs
        assert not aliasable_inputs(key, "base", depthwise, (2, 1, 6, 6), 3)
        # the weight, the bias and the mask are never written over
        assert list(aliasable_inputs(key, "base", depthwise, shape, 3)) \
            == [0]
        if key == "conv2d":
            assert not aliasable_inputs(key, "winograd_precomputed",
                                        depthwise, shape, 4)

    def test_a_dense_1x1_conv_would_copy_its_input(self):
        """Refused for groups 1: the 1x1 operand is a view of ``x``, and
        ``np.matmul`` handed an ``out`` over it copies ``x`` first — the
        bytes the slab would save come back as a temporary nothing counts.
        The aliased call allocates a whole input; the plain one does not.
        """
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 8, 8)).astype(np.float32)
        w = rng.standard_normal((16, 16, 1, 1)).astype(np.float32)
        attrs = {"stride": 1, "padding": 0, "groups": 1}
        assert not aliasable_inputs("conv2d", "base", attrs, x.shape, 2)
        fresh, alias = np.empty_like(x), x.copy()
        OUT_KERNELS["conv2d"]([x, w], attrs, fresh)  # warm

        def peak(ins, out):
            tracemalloc.start()
            try:
                OUT_KERNELS["conv2d"](ins, attrs, out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak([x, w], fresh) < x.nbytes <= peak([alias, w], alias)
        assert_same_bytes(alias, fresh, "numpy's copy keeps the bytes")


# -- (iii) the observed variant ----------------------------------------------

@pytest.fixture(scope="module")
def bert():
    """A multi-chunk program: several fused chains, const args, views."""
    return compile_zoo("bert_micro", "full_update")


class TestObservedVariant:
    def test_observers_fire_once_per_instruction_in_order(self, bert):
        program = fork(bert)
        plan = program.plan()
        assert len(plan.instructions) > 2 * codegen.CHUNK
        executor = Executor(program)
        feeds = make_feeds(program, np.random.default_rng(3))
        seen, nodes = [], []
        executor.instr_observer = \
            lambda instr, t0, t1: seen.append((instr, t0, t1))
        executor.observer = lambda node, seconds: nodes.append(
            (node, seconds))
        executor.run(feeds)
        assert len(seen) == len(plan.instructions)
        for (instr, t0, t1), expected in zip(seen, plan.instructions):
            assert instr is expected
            assert t0 <= t1
        assert [t0 for _, t0, _ in seen] == sorted(t0 for _, t0, _ in seen)
        assert [node for node, _ in nodes] \
            == [instr.node for instr in plan.instructions]
        assert [seconds for _, seconds in nodes] \
            == [t1 - t0 for _, t0, t1 in seen]

    def test_toggling_switches_variants_without_rebinding(self, bert):
        program = fork(bert)
        plan = program.plan()
        executor, reference = Executor(program), \
            ReferenceExecutor(fork(bert))
        rng = np.random.default_rng(5)
        events = []
        for step in range(4):
            feeds = make_feeds(program, rng)
            observed = step % 2 == 1
            executor.instr_observer = reference.instr_observer = \
                (lambda instr, t0, t1: events.append(instr)) \
                if observed else None
            before = len(events)
            got, want = executor.run(feeds), reference.run(feeds)
            for name in want:
                assert_same_bytes(got[name], want[name], f"step {step}")
            fired = len(events) - before
            assert fired == (2 * len(plan.instructions) if observed else 0)
            assert executor.last_step_fresh_allocs \
                == reference.last_step_fresh_allocs
        assert program.plan() is plan
        assert plan.step_function(False) is not plan.step_function(True)
        assert "perf_counter" not in plan.source()
        assert "perf_counter" in plan.source(observed=True)

    def test_an_observer_that_raises_is_not_a_kernel_failure(self, bert):
        executor = Executor(fork(bert))

        def broken(instr, t0, t1):
            raise KeyError("observer bug")

        executor.instr_observer = broken
        with pytest.raises(KeyError, match="observer bug"):
            executor.run(make_feeds(bert, np.random.default_rng(0)))


# -- (iv) the text is a function of the plan ---------------------------------

class TestGeneratedText:
    def test_deterministic_and_complete(self, bert):
        plan = bert.plan()
        again = compile_zoo("bert_micro", "full_update").plan()
        assert again is not plan
        for observed in (False, True):
            text = plan.source(observed)
            assert text == again.source(observed)
            assert text == codegen.generate(plan, observed)[1]
            indices = [int(i) for i in
                       re.findall(r"^\s+pc = (\d+)$", text, re.M)]
            assert indices == list(range(len(plan.instructions)))
            chunks = text.count("def _chunk(")
            assert chunks == -(-len(plan.instructions) // codegen.CHUNK)

    def test_static_attrs_are_literals(self, bert):
        text = bert.plan().source()
        assert re.search(r"^\s+np\.matmul\(b\[\d+\], [br]\[\d+\], "
                         r"out=b\[\d+\]\)$", text, re.M)
        assert re.search(r"np\.add\.reduce\(b\[\d+\], axis=\(", text)
        # views of slab slots are aliases: no statement at all
        assert ".transpose(" not in text and "k_reshape" not in text
        for pattern in FORBIDDEN:
            assert pattern not in text
        spec = bert.plan().spec
        assert len(spec.aliases) > 50
        assert len(spec.instructions) + len(spec.aliases) \
            == len(bert.schedule) - sum(
                len(i.fused) - 1 for i in spec.instructions if i.fused)

    def test_chunks_are_in_linecache_until_the_plan_dies(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        plan = program.plan()
        text = plan.source()
        name = f"<plan:{id(plan):x}:chunk0>"
        assert linecache.getline(name, 1).startswith("def _chunk(")
        assert text.startswith("".join(linecache.getlines(name)))
        del program, plan
        gc.collect()
        assert linecache.getlines(name) == []

    def test_racing_first_users_share_one_function(self, monkeypatch):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        plan = program.plan()
        built = []
        generate = plan_module.generate

        def counting(plan, observed):
            built.append(observed)
            return generate(plan, observed)

        monkeypatch.setattr(plan_module, "generate", counting)
        feeds = make_feeds(program, np.random.default_rng(0))
        workers = 8
        barrier = threading.Barrier(workers)
        functions, errors = [], []

        def first_use():
            try:
                executor = Executor(fork(program))
                barrier.wait(timeout=30)
                executor.run(feeds)
                functions.append(plan.step_function())
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use)
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert built == [False]
        assert len(functions) == workers
        assert all(fn is functions[0] for fn in functions)

    def test_binding_generates_nothing(self, monkeypatch):
        """``program.plan()`` — what compile_zoo times — must not pay."""
        monkeypatch.setattr(
            plan_module, "generate",
            lambda plan, observed: pytest.fail("generated at bind time"))
        b, _ = make_mlp_graph()
        compile_training(b.graph, optimizer=SGD(0.1)).plan()


# -- (v) the same text from a saved artifact ---------------------------------

class TestArtifactText:
    def test_fresh_process_generates_the_same_text(self, tmp_path):
        program = compile_zoo("mcunet_micro", "paper_scheme")
        save_artifact(program, tmp_path / "model")
        script = tmp_path / "fresh_text.py"
        script.write_text(
            "import hashlib\n"
            "from repro.deploy import load_artifact\n"
            f"dep = load_artifact({str(tmp_path / 'model')!r})\n"
            "plan = dep.program.plan()\n"
            "for observed in (False, True):\n"
            "    text = plan.source(observed)\n"
            "    print(hashlib.sha256(text.encode()).hexdigest())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) \
            + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, str(script)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        plan = program.plan()
        assert result.stdout.split() == [
            hashlib.sha256(plan.source(observed).encode()).hexdigest()
            for observed in (False, True)]


# -- a failed step -------------------------------------------------------------

class TestFailedStep:
    def failing_program(self):
        """An MLP training step whose first matmul raises once."""
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        plan = program.plan()
        index = [i for i, instr in enumerate(plan.instructions)
                 if instr.node.op_type == "matmul"][0]
        instr = plan.instructions[index]
        kernel, seen, armed = instr.out_kernel, [], [True]
        state = {id(array) for array in program.state.values()}

        def once(inputs, attrs, out):
            if armed:
                armed.clear()
                # the feed it reads; slab arrays outlive every step
                seen.extend(weakref.ref(x) for x in inputs
                            if id(x) not in state and x.base is None)
                raise ValueError("forced")
            return kernel(inputs, attrs, out)

        instr.out_kernel = once
        return program, instr, seen

    @pytest.mark.parametrize("observed", [False, True])
    def test_names_the_instruction_and_pins_nothing(self, observed):
        program, instr, seen = self.failing_program()
        executor = Executor(program)
        if observed:
            executor.instr_observer = lambda instr, t0, t1: None
        rng = np.random.default_rng(0)
        feeds = make_feeds(program, rng)
        fed = [weakref.ref(array) for array in feeds.values()]
        with pytest.raises(ExecutionError) as caught:
            executor.run(feeds)
        message = str(caught.value)
        assert repr(instr.node.op_type) in message
        assert repr(instr.node.name) in message
        assert "forced" in message
        assert isinstance(caught.value.__cause__, ValueError)
        shown = "".join(traceback.format_exception(caught.value.__cause__))
        assert "<plan:" in shown and f"at{self.index_of(program, instr)}" \
            in shown, "the traceback shows the generated line"
        # the exception's traceback holds the chunk's frame; drop it first
        del caught, feeds
        gc.collect()
        assert seen and all(ref() is None for ref in seen)
        assert all(ref() is None for ref in fed)
        assert executor._registers is None

        # ... and the next run is an ordinary step
        reference = ReferenceExecutor(fork(program))
        feeds = make_feeds(program, rng)
        got, want = executor.run(feeds), reference.run(feeds)
        for name in want:
            assert_same_bytes(got[name], want[name], name)

    @staticmethod
    def index_of(program, instr):
        return program.plan().instructions.index(instr)
