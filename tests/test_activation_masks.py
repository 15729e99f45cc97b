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
  ``uint8`` slab slots, and ``mask_mul`` writes over its dying gradient —
  never over the mask;
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
#: of 81 at batch 2: the first residual add, its two conv operands and its
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
        assert {"range_mask", "mask_mul"} <= ops and "step" not in ops
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
        masks = reuses = 0
        for instr in spec.instructions:
            if instr.kernel == "range_mask":
                entry = by_slot[instr.output_slots[0]]
                activation = program.graph.spec(nodes[instr.node].inputs[0])
                assert entry.dtype == "uint8"
                assert entry.shape == ((activation.num_elements + 7) // 8,)
                assert entry.strides == (1,) and entry.offset % 64 == 0
                assert instr.mode == "copy"  # np.packbits has no out=
                masks += 1
            elif instr.kernel == "mask_mul":
                assert instr.mode == "out"
                if instr.reuse_slot >= 0:
                    # the gradient's bytes, never the mask's
                    assert by_slot[instr.reuse_slot].dtype != "uint8"
                    reuses += 1
        assert masks >= 1 and reuses >= 1


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
