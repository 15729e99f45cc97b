"""Slab safety: bytes of the static slab must never alias live values.

The plan's memory layout is static, so the property to defend is dynamic:
across many randomized graphs and repeated steps, a slab waiting in the
plan's pool can never share memory with (a) any array the last run
returned, (b) any mutable state entry, or (c) a feed. And because every
step overwrites the slab — two values may occupy the same bytes at
different times, an output may take over a dying input's — every
randomized program is also cross-checked value-for-value against the
interpreter: an overlap or lifetime hole would surface as silent
corruption there.

Kernel scratch (im2col columns, pad buffers) is a fresh allocation per
call and never pooled; what is checked of it is that every buffer a zoo
step takes is its own memory and dies with the step — nothing the plan
keeps (the slab, an output, a state entry) is or views it — and that the
column matrix is never a view of the input an in-place depthwise conv
writes its output over.
"""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AutodiffError
from repro.ir import GraphBuilder
from repro.kernels import workspace
from repro.kernels.conv2d import im2col
from repro.models import build_model, paper_scheme
from repro.runtime import Executor, Program
from repro.runtime.compiler import compile_training
from repro.sparse import UpdateScheme, full_update
from repro.train import SGD, Adam


#: |x| <= 1 and |w| <= 0.25 put every entry of x @ w within 1; values are
#: then kept within MAX_BOUND and at most quadratic in w, so three SGD
#: steps cannot walk a chain of squarings to inf (and inf * 0 to NaN) —
#: the property under test is aliasing, and it is tested on finite values.
MAX_BOUND = 8.0


def random_feed(rng, shape):
    return rng.uniform(-1.0, 1.0, shape).astype(np.float32)


def random_forward(rng, layouts=False, activations=False):
    """A random DAG mixing fresh elementwise ops, view ops, and params.

    ``layouts`` adds the shapes of aliasing the zoo never produces:
    elementwise ops over transposed operands (a result that is not
    C-contiguous), views of the parameter itself, and a reshape of a
    transposed value (which has to copy). (A sub-layer ``slice_k`` update
    of a parameter that something other than its matmul also reads is a
    typed ``CompileError``; sparse callers accept it.)

    ``activations`` adds what a bit-mask backward has to get right:
    ``relu6`` over values around 0.0 or around 6.0, and conv -> bias ->
    relu6 chains whose bias holds exact 0.0 and 6.0 (so a zero row of the
    feed puts the pre-activation exactly on both boundaries) and whose
    element count is often not a multiple of 8 — half of them read by a
    second conv, whose ``conv2d_dx`` then takes the mask as its third
    input, and half of them ending in a stride-1 depthwise conv that
    writes over its input. Both draws come before the
    others and only when asked for, so the graphs of the other callers do
    not change.
    """
    b = GraphBuilder("g")
    rows = int(rng.integers(2, 6))
    values = [b.input("x", (rows, 4))]
    w = b.initializer("w", rng.uniform(-0.25, 0.25, (4, 4))
                      .astype(np.float32), trainable=True)
    values.append(b.matmul(values[0], w))
    # per value: (bound on |v| at the initial w, polynomial degree in w)
    growth = [(1.0, 0), (1.0, 1)]

    def push(value, bound, degree):
        values.append(value)
        growth.append((bound, degree))

    for i in range(int(rng.integers(3, 12))):
        pick = int(rng.integers(0, len(values)))
        src, (bound, degree) = values[pick], growth[pick]
        roll = rng.random()
        if activations and rng.random() < 0.3:
            _push_activation_case(b, rng, push, src, degree)
        elif layouts and rng.random() < 0.35:
            _push_layout_case(b, rng, push, w, src, bound, degree)
        elif roll < 0.25:
            push(b.emit("relu", [src]), bound, degree)
        elif roll < 0.45:
            pick = int(rng.integers(0, len(values)))
            other, (other_bound, other_degree) = values[pick], growth[pick]
            if b.shape(src) == b.shape(other) \
                    and bound + other_bound <= MAX_BOUND:
                push(b.add(src, other), bound + other_bound,
                     max(degree, other_degree))
            else:
                push(b.emit("tanh", [src]), 1.0, 0)
        elif roll < 0.6:
            shape = b.shape(src)
            push(b.emit("transpose", [src],
                        {"perm": tuple(reversed(range(len(shape))))}),
                 bound, degree)
        elif roll < 0.75:
            shape = b.shape(src)
            push(b.emit("reshape", [src],
                        {"shape": (int(np.prod(shape)),)}),
                 bound, degree)
        elif bound * bound <= MAX_BOUND and degree <= 1:
            push(b.emit("mul", [src, src]), bound * bound, 2 * degree)
        else:
            push(b.emit("tanh", [src]), 1.0, 0)
    b.mark_output(values[-1])
    return b


def _push_layout_case(b, rng, push, w, src, bound, degree):
    """One of the ``layouts=True`` cases of :func:`random_forward`."""
    shape = b.shape(src)
    flip = {"perm": tuple(reversed(range(len(shape))))}
    roll = rng.random()
    if roll < 0.35 and 2 * bound <= MAX_BOUND:
        # two transposed views into one ufunc: its result follows their
        # layout, so every later consumer sees a non-C value
        left = b.emit("transpose", [src], flip)
        right = b.emit("transpose", [b.emit("tanh", [src])], flip)
        push(b.add(left, right), bound + 1.0, degree)
    elif roll < 0.6:
        # a reshape that cannot be a view
        flipped = b.emit("transpose", [src], flip)
        push(b.emit("reshape", [flipped],
                    {"shape": (int(np.prod(shape)),)}), bound, degree)
    elif roll < 0.8 and shape[-1] == 4 and degree == 0:
        # a view of the parameter (the runtime has to copy it: the
        # optimizer updates w in place while the view is still read)
        wt = b.emit("transpose", [w], {"perm": (1, 0)})
        push(b.matmul(src, wt), bound, 1)
    else:
        push(b.emit("reshape", [w], {"shape": (16,)}), 0.25, 1)


def _push_activation_case(b, rng, push, src, degree):
    """One of the ``activations=True`` cases of :func:`random_forward`;
    either result lies in [0, 6] whatever ``src`` holds."""
    if rng.random() < 0.4:
        # values on both sides of one clamp (|src| is mostly below 1), and
        # exactly on it wherever src is exactly zero
        edge = b.constant(np.float32(rng.choice([0.0, 6.0])), hint="c")
        push(b.emit("relu6", [b.add(src, edge)]), 6.0, degree)
        return
    # conv -> bias -> relu6 over src as one (1, 1, n, 1) image. Three output
    # channels make 3n elements: 36 or 60 (not a multiple of 8) for the
    # usual n = 12 or 20. Channel 0 straddles 0.0, channel 1 straddles 6.0,
    # channel 2 sits inside; a 1x1 kernel keeps an exact zero of src an
    # exact 0.0 / 6.0 of the pre-activation.
    n = int(np.prod(b.shape(src)))
    kh = int(rng.choice([1, 3]))
    image = b.emit("reshape", [src], {"shape": (1, 1, n, 1)})
    kernel = b.initializer(
        b.fresh("cw"),
        rng.uniform(-1.0, 1.0, (3, 1, kh, 1)).astype(np.float32))
    bias = b.initializer(b.fresh("cb"),
                         np.array([0.0, 6.0, 3.0], np.float32))
    conv = b.emit("conv2d", [image, kernel],
                  {"stride": 1, "padding": (kh // 2, 0)})
    clamped = b.emit("relu6", [b.bias_add(conv, bias, axis=1)])
    taps = b.graph.initializers[kernel][:, 0, 0, 0]
    if taps[0] > 0:
        # half of the time a second conv reads the activation itself, so
        # its conv2d_dx is what the relu6's mask multiplies: 1x1 (the GEMM
        # result is dx) or 3x1 (the gather). Its weight is the first
        # kernel's taps again, scaled to keep |result| within 6 — no draw
        # is taken, so every other graph stays the one it was.
        again = np.stack([taps, -taps])[:, :, None, None] \
            * np.ones((1, 1, kh, 1), np.float32) / (3 * kh)
        clamped = b.emit(
            "conv2d", [clamped, b.initializer(b.fresh("cw"), again)],
            {"stride": 1, "padding": (kh // 2, 0)})
    if taps[1] > 0:
        # half of the time a stride-1 depthwise conv is the result's last
        # reader, so it writes over the result's bytes, and its conv2d_dx
        # over its gradient's (masked when it reads the relu6 itself). Its
        # taps are the first kernel's again, scaled to keep |result|
        # within 6 — no draw is taken here either.
        channels = b.shape(clamped)[1]
        spread = taps[:channels, None, None, None] \
            * np.ones((1, 1, kh, 1), np.float32) / kh
        clamped = b.emit(
            "conv2d", [clamped, b.initializer(b.fresh("cw"), spread)],
            {"stride": 1, "padding": (kh // 2, 0), "groups": channels})
    push(clamped, 6.0, degree)


def pooled_slabs(executor):
    return [buffers.slab for buffers in executor.arena._free]


def assert_arena_disjoint(executor, outputs):
    """Nothing the caller can see lives in a pooled slab."""
    live = list(outputs.values()) + list(executor.program.state.values())
    slabs = pooled_slabs(executor)
    assert slabs, "the step's slab went back to the pool"
    for slab in slabs:
        for arr in live:
            assert not np.shares_memory(slab, arr), \
                "a pooled slab aliases a live value"


class TestRandomizedGraphs:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_recycling_never_corrupts_or_aliases(self, seed):
        rng = np.random.default_rng(seed)
        b = random_forward(rng)
        program = Program.from_graph(b.graph)
        mirror = Program.from_graph(b.graph)
        ex_plan = Executor(program)
        ex_int = Executor(mirror, backend="interpreter")
        rows = b.graph.spec("x").shape[0]
        for step in range(4):
            feeds = {"x": random_feed(rng, (rows, 4))}
            out_plan = ex_plan.run(feeds)
            out_int = ex_int.run(feeds)
            for name in out_int:
                np.testing.assert_array_equal(
                    out_plan[name], out_int[name],
                    err_msg=f"seed {seed} step {step} output {name}")
            assert_arena_disjoint(ex_plan, out_plan)
            # feeds are caller-owned and never part of a slab
            for slab in pooled_slabs(ex_plan):
                assert not np.shares_memory(slab, feeds["x"])

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_training_state_never_aliases_arena(self, seed):
        rng = np.random.default_rng(seed)
        b = random_forward(rng)
        try:
            program = compile_training(
                b.graph, loss="mse", optimizer=SGD(0.01, momentum=0.9),
                scheme=UpdateScheme("w", {"w": 1.0}))
        except AutodiffError:
            # The random DAG routed the output around w — nothing to train.
            assume(False)
        mirror = program.with_state(
            {n: a.copy() for n, a in program.state.items()})
        ex_plan = Executor(program)
        ex_int = Executor(mirror, backend="interpreter")
        labels = program.meta["labels"]
        label_shape = program.graph.spec(labels).shape
        rows = b.graph.spec("x").shape[0]
        for step in range(3):
            feeds = {"x": random_feed(rng, (rows, 4)),
                     labels: random_feed(rng, label_shape)}
            out_plan = ex_plan.run(feeds)
            out_int = ex_int.run(feeds)
            for name in out_int:
                np.testing.assert_array_equal(
                    out_plan[name], out_int[name],
                    err_msg=f"seed {seed} step {step} output {name}")
            for name in mirror.state:
                np.testing.assert_array_equal(
                    program.state[name], mirror.state[name],
                    err_msg=f"seed {seed} step {step} state {name}")
            assert_arena_disjoint(ex_plan, out_plan)


class TestDonationSafety:
    """In-place reuse — what donation became: two slots at one offset."""

    def test_chain_runs_in_one_buffer(self, rng):
        """An alias-safe output takes over the bytes of a same-shape input
        dying at its instruction: the whole chain is one slab buffer."""
        b = GraphBuilder("chain")
        x = b.input("x", (32, 32))
        h = b.emit("relu", [x])
        h = b.emit("tanh", [h])     # writes over relu's bytes
        h = b.emit("relu", [h])     # writes over tanh's
        h = b.emit("mul", [h, h])
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = program.plan_spec()
        ex = Executor(program)
        feeds = {"x": rng.standard_normal((32, 32)).astype(np.float32)}
        want = Executor(Program.from_graph(b.graph),
                        backend="interpreter").run(feeds)
        for _ in range(3):
            out = ex.run(feeds)
            assert_arena_disjoint(ex, out)
            np.testing.assert_array_equal(out[y], want[y])
        # Every instruction writes the slab; nothing is allocated.
        assert ex.last_step_fresh_allocs == 0
        assert all(instr.mode == "out" for instr in spec.instructions)
        # the feed is caller-owned, so relu opens the buffer; the rest of
        # the elementwise chain lives in it
        assert spec.slab_bytes == 32 * 32 * 4 + 64
        assert ex.slab_bytes == spec.slab_bytes

    def test_view_consumers_block_recycling(self, rng):
        """A value some view still reads keeps its bytes: the reshape is
        an alias of the same buffer, so relu's bytes must outlive it."""
        b = GraphBuilder("views")
        x = b.input("x", (8, 8))
        h = b.emit("relu", [x])
        v = b.emit("reshape", [h], {"shape": (64,)})
        t = b.emit("tanh", [h])     # h dies here, but v views its bytes
        y = b.add(b.emit("reshape", [t], {"shape": (64,)}), v)
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = program.plan_spec()
        assert len(spec.aliases) == 2
        tanh = next(i for i in spec.instructions if i.kernel == "tanh")
        assert tanh.reuse_slot == -1
        feeds = {"x": rng.standard_normal((8, 8)).astype(np.float32)}
        got = Executor(program).run(feeds)
        want = Executor(Program.from_graph(b.graph),
                        backend="interpreter").run(feeds)
        np.testing.assert_array_equal(got[y], want[y])

    def test_multi_step_stability_under_recycling(self, rng):
        """The slab carries garbage from prior steps; results must still
        be bit-stable run over run for identical feeds."""
        b = GraphBuilder("stable")
        x = b.input("x", (16, 16))
        h = b.emit("relu", [x])
        h = b.emit("mul", [h, h])
        h = b.emit("tanh", [h])
        b.mark_output(h)
        ex = Executor(Program.from_graph(b.graph))
        feeds = {"x": rng.standard_normal((16, 16)).astype(np.float32)}
        first = ex.run(feeds)
        snap = {k: v.copy() for k, v in first.items()}
        for _ in range(5):
            again = ex.run(feeds)
            for k in snap:
                np.testing.assert_array_equal(again[k], snap[k])


class TestKernelScratchNeverAliasesThePlan:
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("scheme", [paper_scheme, full_update])
    @pytest.mark.parametrize("model", ["mcunet_micro", "mobilenetv2_micro",
                                       "resnet_micro"])
    def test_zoo_workspace_holds_only_its_own_buffers(self, model, scheme,
                                                      batch, rng):
        """Every scratch buffer a step takes owns its memory and is gone
        when the step returns: no output, state entry or slab is (or is
        a view of) kernel scratch."""
        forward = build_model(model, batch=batch)
        program = compile_training(
            forward, scheme=scheme(forward),
            optimizer=SGD(0.05) if scheme is paper_scheme else Adam(1e-3))
        graph, labels = program.graph, program.meta["labels"]
        classes = graph.spec(program.meta["logits"]).shape[-1]
        executor = Executor(program)
        taken = []

        def take(shape, dtype):
            scratch = np.empty(shape, dtype)
            assert scratch.flags.owndata
            taken.append(weakref.ref(scratch))
            return scratch

        for _ in range(3):
            feeds = {name: rng.integers(0, classes, graph.spec(name).shape)
                     .astype(graph.spec(name).dtype.np) if name == labels
                     else rng.standard_normal(graph.spec(name).shape)
                     .astype(graph.spec(name).dtype.np)
                     for name in graph.inputs}
            taken.clear()
            with mock.patch.object(workspace, "take", take):
                outputs = executor.run(feeds)
            assert taken, "conv scratch comes from workspace.take"
            kept = [ref() for ref in taken if ref() is not None]
            assert not kept, \
                f"{len(kept)} scratch buffers outlived the step " \
                f"({[scratch.shape for scratch in kept]})"
            assert_arena_disjoint(executor, outputs)

    @pytest.mark.parametrize("conv", [
        (1, 1, 1, 1, 0, 0), (3, 3, 1, 1, 1, 1), (3, 3, 2, 2, 1, 1),
        (1, 1, 2, 2, 0, 0), (2, 2, 1, 1, 0, 0), (1, 3, 1, 1, 0, 1)])
    def test_im2col_returns_owned_scratch(self, rng, conv):
        """Also where the column matrix is a plain copy of the input: it
        owns its memory and shares none with ``x``."""
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        cols, _, _ = im2col(x, *conv)
        owner = cols
        while owner.base is not None:
            owner = owner.base
        assert isinstance(owner, np.ndarray) and owner.flags.owndata
        assert not np.shares_memory(cols, x)
