"""A ReLU's backward needs one bit per element, not a float.

``relu`` / ``relu6`` differentiate into ``range_mask`` (one bit per element
of the activation's *output*, packed) and ``mask_mul``. The float-mask
rules they replaced live on in ``tests/reference_autodiff.py``; this file
requires, against them,

* the same bytes: loss of four steps and every mutable state tensor, on the
  six CNN zoo programs at batch 1, 2 and 8 — and identical plan specs on
  the six transformer programs, which have no relu-family op;
* less memory: ``peak_transient_bytes`` strictly lower on every CNN program
  whose peak lies in the backward pass, equal on the one whose peak is a
  forward-pass moment;
* the structure that buys it: every ``range_mask`` runs before the loss
  node (no activation is kept only to be masked later), the pre-activation
  is gone (conv + bias + relu6 fuse on backward paths), the masks are
  ``uint8`` slab slots, no ``mask_mul`` reads a ``conv2d_dx`` (the mask is
  that kernel's third input, applied in its epilogue), and the ``mask_mul``
  instructions that remain — after an ``add`` or a ``broadcast_to`` — write
  over their dying gradient, never over the mask;
* the kernels' contract on generated inputs: numpy's default bit order,
  zero pad bits, exact 0.0 / 6.0 boundaries, signed zeros, 0-d and
  non-multiple-of-8 sizes, float16 staying float16.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.planlint import verify_plan_spec
from repro.errors import ShapeError
from repro.ir import DType, GraphBuilder
from repro.kernels import KERNELS, OUT_KERNELS
from repro.models import build_model, paper_scheme
from repro.runtime import Executor
from repro.runtime.compiler import compile_training
from repro.sparse import full_update
from repro.train import SGD, Adam

from reference_autodiff import swap_in_float_masks
from test_codegen import assert_same_bytes, make_feeds

CNN_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro")
TRANSFORMER_MODELS = ("bert_micro", "distilbert_micro", "llama_micro")
SCHEMES = {"paper_scheme": paper_scheme, "full_update": full_update}
#: the one CNN program whose peak is a forward-pass moment (schedule step 8
#: of 77 at batch 2: the first residual add, its two conv operands and its
#: result) where no mask is live under either rule, so the peak cannot move
FORWARD_PEAK = ("resnet_micro", "paper_scheme")


def compile_at(model, scheme, batch):
    forward = build_model(model, batch=batch)
    optimizer = SGD(0.05) if scheme == "paper_scheme" else Adam(1e-3)
    return compile_training(forward, optimizer=optimizer,
                            scheme=SCHEMES[scheme](forward))


def position_of_loss(program):
    loss = program.meta["loss"]
    return next(i for i, node in enumerate(program.schedule)
                if loss in node.outputs)


def train(program, steps=4):
    """Losses of ``steps`` seeded steps, then every mutable state tensor."""
    executor = Executor(program)
    rng = np.random.default_rng(17)
    loss = program.meta["loss"]
    losses = [np.array(executor.run(make_feeds(program, rng))[loss])
              for _ in range(steps)]
    return losses, {name: program.state[name]
                    for name in sorted(program.mutable_state_names())}


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", CNN_MODELS)
class TestBitMasksAgainstFloatMasks:
    def test_same_bytes_less_memory(self, model, scheme, batch, monkeypatch):
        program = compile_at(model, scheme, batch)
        with monkeypatch.context() as patch:
            swap_in_float_masks(patch)
            reference = compile_at(model, scheme, batch)
        ops = {node.op_type for node in program.graph.nodes}
        old_ops = {node.op_type for node in reference.graph.nodes}
        assert "range_mask" in ops and "step" not in ops
        assert "step" in old_ops and "range_mask" not in old_ops

        losses, state = train(program)
        want_losses, want_state = train(reference)
        for step, (got, want) in enumerate(zip(losses, want_losses)):
            assert_same_bytes(got, want, f"loss of step {step}")
        assert state.keys() == want_state.keys()
        for name in state:
            assert_same_bytes(state[name], want_state[name], name)

        spec, old = program.plan_spec(), reference.plan_spec()
        if (model, scheme) == FORWARD_PEAK:
            assert spec.peak_transient_bytes == old.peak_transient_bytes
            report = program.meta["report"]
            assert report.peak_transient_bytes \
                == reference.meta["report"].peak_transient_bytes
        else:
            assert spec.peak_transient_bytes < old.peak_transient_bytes
        assert spec.slab_bytes <= old.slab_bytes
        assert len(spec.instructions) <= len(old.instructions)

    def test_masks_are_taken_in_the_forward_pass(self, model, scheme, batch):
        program = compile_at(model, scheme, batch)
        graph, schedule = program.graph, program.schedule
        loss_at = position_of_loss(program)
        producer = graph.producer_map()
        masks = [(i, node) for i, node in enumerate(schedule)
                 if node.op_type == "range_mask"]
        assert masks
        fused = 0
        for at, node in masks:
            assert at < loss_at, \
                f"{node.name} runs at {at}, after the loss at {loss_at}"
            source = producer[node.inputs[0]]
            # the mask reads the activation's output, whoever computes it
            assert source.op_type in ("relu", "relu6") \
                or source.attrs.get("activation") in ("relu", "relu6")
            fused += source.op_type == "conv2d"
        # non-vacuity: conv + bias + activation fused on a backward path
        assert fused >= 1
        # ... because nothing but the activation reads a pre-activation
        consumers = graph.consumer_map()
        for node in graph.nodes:
            if node.op_type in ("relu", "relu6"):
                assert [user.op_type for user
                        in consumers[node.inputs[0]]] == [node.op_type]

    def test_masks_are_uint8_slab_slots(self, model, scheme, batch):
        program = compile_at(model, scheme, batch)
        spec = program.plan_spec()
        by_slot = {entry.slot: entry for entry in spec.slab_slots}
        nodes = {node.name: node for node in program.schedule}
        producer = program.graph.producer_map()
        masks = folded = 0
        for instr in spec.instructions:
            if instr.kernel == "range_mask":
                entry = by_slot[instr.output_slots[0]]
                activation = program.graph.spec(nodes[instr.node].inputs[0])
                assert entry.dtype == "uint8"
                assert entry.shape == ((activation.num_elements + 7) // 8,)
                assert entry.strides == (1,) and entry.offset % 64 == 0
                assert instr.mode == "copy"  # np.packbits has no out=
                masks += 1
            elif instr.kernel == "conv2d_dx" and len(instr.input_slots) == 3:
                # the mask rides as the third input and is applied in the
                # kernel's own output: a depthwise one may take over its
                # gradient's bytes (input 0), never the mask's
                assert by_slot[instr.input_slots[2]].dtype == "uint8"
                assert instr.mode == "out" \
                    and instr.reuse_slot in (-1, instr.input_slots[0])
                folded += 1
            elif instr.kernel == "mask_mul":
                # what fusion leaves follows an add or a broadcast_to ...
                gradient = producer[nodes[instr.node].inputs[0]]
                assert gradient.op_type in ("add", "broadcast_to")
                # ... and takes the gradient's bytes, never the mask's
                assert instr.mode == "out" and instr.reuse_slot >= 0
                assert by_slot[instr.reuse_slot].dtype != "uint8"
        assert masks >= 1 and folded >= 1
        assert masks == folded + sum(
            instr.kernel == "mask_mul" for instr in spec.instructions)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", TRANSFORMER_MODELS)
def test_transformers_do_not_notice(model, scheme, monkeypatch):
    program = compile_at(model, scheme, 2)
    with monkeypatch.context() as patch:
        swap_in_float_masks(patch)
        reference = compile_at(model, scheme, 2)
    assert program.plan_spec().to_dict() == reference.plan_spec().to_dict()
    assert program.fingerprint() == reference.fingerprint()


# -- the plan may reuse the gradient's bytes, never the mask's ----------------

def relu_program(count=8):
    """``relu`` over ``count`` float32 elements, trained through it —
    ``count=8`` makes the packed mask exactly one byte."""
    rng = np.random.default_rng(0)
    b = GraphBuilder("masked")
    x = b.input("x", (1, count))
    w = b.initializer("w", rng.standard_normal((count, count))
                      .astype(np.float32), trainable=True)
    v = b.initializer("v", rng.standard_normal((count, 2))
                      .astype(np.float32), trainable=True)
    b.mark_output(b.matmul(b.emit("relu", [b.matmul(x, w)]), v))
    return compile_training(b.graph, optimizer=SGD(0.1))


class TestPlanNeverWritesOverTheMask:
    def test_reusing_the_mask_is_a_finding(self):
        program = relu_program()
        spec = program.plan_spec()
        assert verify_plan_spec(spec, program) == []
        at, instr = next((i, instr) for i, instr
                         in enumerate(spec.instructions)
                         if instr.kernel == "mask_mul")
        mask_slot = instr.input_slots[1]
        instructions = list(spec.instructions)
        instructions[at] = instr._replace(reuse_slot=mask_slot)
        tampered = dataclasses.replace(spec,
                                       instructions=tuple(instructions))
        rules = {f.rule for f in verify_plan_spec(tampered, program)}
        assert "donation-shape-mismatch" in rules

    def test_mask_mul_refuses_a_mask_of_the_wrong_size(self):
        b = GraphBuilder("bad")
        g = b.input("g", (3, 3))
        mask = b.input("mask", (1,), DType.UINT8)
        with pytest.raises(ShapeError, match=r"\(2,\) uint8 bit mask"):
            b.emit("mask_mul", [g, mask])
        with pytest.raises(ShapeError, match="must be float"):
            b.emit("range_mask", [mask], {"lo": 0.0})

    def test_conv2d_dx_refuses_a_mask_that_is_not_its_outputs(self):
        """The third input is the packed mask of ``input_shape``: 18
        elements want ``(3,)`` ``uint8``."""
        b = GraphBuilder("bad")
        g = b.input("g", (1, 2, 3, 3))
        w = b.input("w", (2, 2, 1, 1))
        attrs = {"input_shape": (1, 2, 3, 3)}
        good = b.input("good", (3,), DType.UINT8)
        assert b.graph.spec(b.emit("conv2d_dx", [g, w, good], attrs)).shape \
            == (1, 2, 3, 3)
        short = b.input("short", (2,), DType.UINT8)
        with pytest.raises(ShapeError, match=r"\(3,\) uint8 bit mask"):
            b.emit("conv2d_dx", [g, w, short], attrs)
        floats = b.input("floats", (3,))
        with pytest.raises(ShapeError, match=r"\(3,\) uint8 bit mask"):
            b.emit("conv2d_dx", [g, w, floats], attrs)
        with pytest.raises(ShapeError, match="between 2 and 3 inputs"):
            b.emit("conv2d_dx", [g, w, good, good], attrs)


def test_both_ops_are_priced_as_one_elementwise_pass():
    """``n`` FLOPs at the float's width — not ``n / 8`` at int8 rate, which
    is what the packed ``uint8`` output would otherwise select."""
    from repro.devices.cost import _compute_itemsize, op_class
    from repro.ir import TensorSpec, op_flops

    y = TensorSpec("y", (2, 24, 16, 16))
    mask = TensorSpec("m", (1536,), DType.UINT8)
    for op, ins, outs in (("range_mask", [y], [mask]),
                          ("mask_mul", [y, mask], [y])):
        assert op_class(op) == "elementwise"
        assert op_flops(op, ins, outs, {}) == y.num_elements \
            == op_flops("step", [y], [y], {})
        assert _compute_itemsize(op, ins, outs) == 4


def test_a_folded_mask_costs_its_bytes_and_one_multiply_per_element():
    """``conv2d_dx(g, w, mask)`` against ``conv2d_dx(g, w)`` + ``mask_mul``:
    the same FLOPs, the mask's bytes read once, the gradient's round trip
    through memory and one kernel launch gone — at the float's width,
    whatever the ``uint8`` operand suggests."""
    from repro.devices import get_device
    from repro.devices.cost import (PlanCostModel, _compute_itemsize,
                                    op_class)
    from repro.ir import TensorSpec, op_bytes, op_flops

    g = TensorSpec("g", (2, 24, 16, 16))
    w = TensorSpec("w", (24, 1, 3, 3))
    mask = TensorSpec("m", (1536,), DType.UINT8)
    attrs = {"padding": 1, "groups": 24, "input_shape": g.shape}
    plain = op_flops("conv2d_dx", [g, w], [g], attrs)
    assert op_flops("conv2d_dx", [g, w, mask], [g], attrs) \
        == plain + op_flops("mask_mul", [g, mask], [g], {})
    assert op_bytes([g, w, mask], [g]) == op_bytes([g, w], [g]) + 1536 \
        == op_bytes([g, w], [g]) + op_bytes([g, mask], [g]) - 2 * g.nbytes
    assert op_class("conv2d_dx", attrs) == "depthwise"
    assert _compute_itemsize("conv2d_dx", [g, w, mask], [g]) == 4
    model = PlanCostModel(get_device("raspberry_pi_4"))
    fused = model.estimate_us("a", "conv2d_dx", [g, w, mask], [g], attrs)
    pair = model.estimate_us("b", "conv2d_dx", [g, w], [g], attrs) \
        + model.estimate_us("c", "mask_mul", [g, mask], [g], {})
    assert fused < pair


# -- the kernels ---------------------------------------------------------------

def float_mask_product(g, x, hi):
    """What the float-mask rules computed: ``g * step(x) [* step(hi - x)]``
    with the kernels' own ``step`` (``(x > 0).astype(x.dtype)``)."""
    def step(v):
        return (v > 0).astype(v.dtype)

    mask = step(x)
    if hi is not None:
        mask = mask * step(np.asarray(hi, x.dtype) - x)
    return g * mask


@st.composite
def activations(draw):
    """A pre-activation holding the boundary values exactly, its clamp,
    and an upstream gradient with signed zeros."""
    shape = draw(st.sampled_from(
        [(), (1,), (7,), (8,), (9,), (16,), (17,), (3, 5), (2, 2, 3)]))
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    hi = draw(st.sampled_from([None, 6.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = np.asarray(rng.uniform(-9.0, 9.0, shape)).astype(dtype)
    special = np.array([0.0, -0.0, 6.0, np.nextafter(dtype(6.0), dtype(0)),
                        np.finfo(dtype).tiny, np.inf], dtype)
    pick = rng.random(shape) < 0.4
    x = np.where(pick, rng.choice(special, shape), x).astype(dtype)
    g = np.asarray(rng.standard_normal(shape)).astype(dtype)
    g = np.where(rng.random(shape) < 0.2, dtype(-0.0), g).astype(dtype)
    return x, g, hi


@st.composite
def masked_dx_cases(draw):
    """A ``conv2d_dx`` call in a named branch of the kernel's static rule,
    and a random bit mask of its output: 1x1 / stride 1 / pad 0 dense (the
    GEMM result is dx), stride 1 (the forward kernel over the flipped
    weight), strided depthwise (the same over the zero-inserted gradient)
    and the GEMM + col2im fold (strided and not depthwise, or pad > k-1)."""
    branch = draw(st.sampled_from(["1x1", "gather", "depthwise", "fold"]))
    n, h, wd = (draw(st.integers(1, 3)), draw(st.integers(3, 7)),
                draw(st.integers(3, 7)))
    if branch == "1x1":
        k, stride, pad, groups = 1, 1, 0, 1
    elif branch == "gather":
        k, stride, groups = 3, 1, draw(st.sampled_from([1, 2]))
        pad = draw(st.integers(0, 2))
    elif branch == "depthwise":
        k, stride, pad = 3, 2, draw(st.integers(0, 2))
        groups = draw(st.integers(1, 3))
    else:
        k, groups = 3, draw(st.sampled_from([1, 2]))
        stride, pad = draw(st.sampled_from([(2, 1), (1, 3), (3, 0)]))
    if branch == "depthwise":
        cin_g = cg_out = 1
    else:  # (a strided conv with one channel a group *is* depthwise)
        cin_g, cg_out = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    x_shape = (n, groups * cin_g, h, wd)
    attrs = {"stride": stride, "padding": pad, "groups": groups,
             "input_shape": x_shape}
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    w = rng.standard_normal((groups * cg_out, cin_g, k, k)).astype(dtype)
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    grad = rng.standard_normal((n, groups * cg_out, ho, wo)).astype(dtype)
    grad = np.where(rng.random(grad.shape) < 0.1, dtype(-0.0), grad)
    mask = np.packbits(rng.random(int(np.prod(x_shape))) < 0.6)
    return branch, [grad.astype(dtype), w, mask], attrs


class TestMaskInTheConvEpilogue:
    @given(masked_dx_cases())
    @settings(max_examples=300, deadline=None)
    def test_the_fold_is_mask_mul_after_conv2d_dx(self, case):
        branch, (grad, w, mask), attrs = case
        (dx,) = KERNELS["conv2d_dx"]([grad, w], attrs)
        (want,) = KERNELS["mask_mul"]([dx, mask], {})
        (got,) = KERNELS["conv2d_dx"]([grad, w, mask], attrs)
        assert_same_bytes(got, want, branch)
        assert got.dtype == grad.dtype and got.flags.c_contiguous
        out = np.full(want.shape, np.nan, want.dtype)
        assert OUT_KERNELS["conv2d_dx"]([grad, w, mask], attrs, out) is out
        assert_same_bytes(out, want, f"{branch}, into-form")

    def test_every_branch_and_ragged_sizes_are_drawn(self):
        """Non-vacuity of the strategy above: each of the kernel's four
        branches, and output sizes that are no multiple of 8."""
        import repro.kernels.conv2d as conv2d
        from unittest import mock

        seen, ragged = set(), 0

        @given(masked_dx_cases())
        @settings(max_examples=120, deadline=None, database=None)
        def draw(case):
            nonlocal ragged
            branch, ins, attrs = case
            with mock.patch.object(conv2d, "_conv2d_dx_fold",
                                   wraps=conv2d._conv2d_dx_fold) as fold, \
                    mock.patch.object(conv2d, "_dilate",
                                      wraps=conv2d._dilate) as dilate, \
                    mock.patch.object(conv2d, "conv2d_forward",
                                      wraps=conv2d.conv2d_forward) as gather:
                KERNELS["conv2d_dx"](ins, attrs)
            took = "fold" if fold.called else "depthwise" if dilate.called \
                else "gather" if gather.called else "1x1"
            assert took == branch
            seen.add(took)
            ragged += ins[2].size * 8 != int(np.prod(attrs["input_shape"]))

        draw()
        assert seen == {"1x1", "gather", "depthwise", "fold"} and ragged


class TestMaskKernels:
    @given(activations())
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_output_equal_floats_of_the_input(self, case):
        x, g, hi = case
        y = np.maximum(x, 0) if hi is None else np.clip(x, 0, 6)
        attrs = {"lo": 0.0} if hi is None else {"lo": 0.0, "hi": hi}
        (mask,) = KERNELS["range_mask"]([y], attrs)
        keep = (x > 0) if hi is None else (x > 0) & (x < hi)
        assert mask.dtype == np.uint8 and mask.flags.c_contiguous
        assert mask.shape == ((x.size + 7) // 8,)
        # numpy's default bit order, pad bits zero
        assert mask.tobytes() == np.packbits(keep.reshape(-1)).tobytes()

        want = float_mask_product(g, x, hi)
        (got,) = KERNELS["mask_mul"]([g, mask], {})
        assert_same_bytes(got, want, "mask_mul against the float mask")
        assert np.asarray(got).dtype == g.dtype  # float16 stays float16

        out = np.full(g.shape, np.nan, g.dtype)
        assert OUT_KERNELS["mask_mul"]([g, mask], {}, out) is out
        assert_same_bytes(out, want, "into-form")
        alias = np.array(g)
        OUT_KERNELS["mask_mul"]([alias, mask], {}, alias)
        assert_same_bytes(alias, want, "out aliasing the gradient")

    def test_strided_activations_pack_in_c_order(self):
        y = np.arange(24, dtype=np.float32).reshape(4, 6).T - 7.5
        (mask,) = KERNELS["range_mask"]([y], {"lo": 0.0, "hi": 6.0})
        keep = (y > 0) & (y < 6)
        assert mask.tobytes() == np.packbits(keep).tobytes()
        g = np.ones((6, 4), np.float32)
        (got,) = KERNELS["mask_mul"]([g, mask], {})
        assert_same_bytes(got, keep.astype(np.float32), "unpacked mask")
