"""The column matrix is the same bytes, however it is unfolded.

``repro.kernels.conv2d`` builds its GEMM operand by three static rules — a
stride-1 "same" conv from flat shifted runs of the input plane, a strided
depthwise ``conv2d_dx`` from a gradient zero-inserted at the input's own
size, a 1x1 conv from a view of its input. The padded slice-copy unfold
they replaced lives on in ``tests/reference_unfold.py``; this file
requires, against it,

* ``im2col`` byte-equal on generated cases — every kernel size, padding,
  stride and float dtype, channel slices, over NaN-filled scratch — so the
  rule *and* its fallbacks (even kernels, asymmetric padding, strides) are
  pinned, and every plane too small for the kernel on an exhaustive grid;
* the rules to be taken where they are claimed: no stride-1 "same" conv,
  forward or backward, pads a copy of its input, and a 1x1 conv takes no
  scratch at all;
* ``conv2d_dx`` (rule 2) and the 1x1 forms (rule 3) byte-equal to the
  operands the old code handed the same GEMM;
* with the old unfold swapped onto the compile path: loss of four steps
  and every mutable state tensor byte-equal on the six CNN zoo programs at
  batch 1, 2 and 8.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.kernels.conv2d as conv2d
from repro.kernels import OUT_KERNELS, run_op, workspace
from repro.kernels.conv2d import _flip_transpose, conv2d_forward, im2col

import reference_unfold as reference
from reference_unfold import swap_in_padded_unfold
from test_activation_masks import CNN_MODELS, SCHEMES, compile_at, train
from test_codegen import assert_same_bytes


def dirty_take(shape, dtype):
    """Kernel scratch that arrives full of NaN: an element the unfold does
    not write shows in the bytes."""
    return np.full(shape, np.nan, dtype)


@contextlib.contextmanager
def scratch_from():
    """Every kernel's scratch from a call-counting :func:`dirty_take` for
    the block; yields the counter."""
    take = mock.Mock(side_effect=dirty_take)
    with mock.patch.object(workspace, "take", take):
        yield take


def plane_contiguous(rng, shape, dtype, sliced):
    """An input of ``shape``; ``sliced`` makes it the channel slice of a
    wider array that the chunked grouped path hands to ``im2col``."""
    n, c, h, w = shape
    if not sliced:
        return rng.standard_normal(shape).astype(dtype)
    wide = rng.standard_normal((n, c + 2, h, w)).astype(dtype)
    return wide[:, 1:1 + c]


def assert_same_unfold(x, kh, kw, sh, sw, ph, pw):
    got, ho, wo = im2col(x, kh, kw, sh, sw, ph, pw)
    want, want_ho, want_wo = reference.im2col(x, kh, kw, sh, sw, ph, pw)
    assert (ho, wo) == (want_ho, want_wo)
    assert got.flags.c_contiguous
    assert_same_bytes(got, want, (x.shape, kh, kw, sh, sw, ph, pw))
    return got


@st.composite
def unfold_cases(draw):
    same = draw(st.booleans())  # half the cases on the rule under test
    kh, kw = (draw(st.sampled_from([1, 3, 5, 7] if same
                                   else [1, 2, 3, 5, 7])) for _ in range(2))
    if same:
        ph, pw, sh, sw = kh // 2, kw // 2, 1, 1
    else:
        ph, pw = draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1))
        sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, hi)) for hi in (3, 3, 9, 9))
    assume(shape[2] + 2 * ph >= kh and shape[3] + 2 * pw >= kw)
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    return shape, dtype, draw(st.booleans()), (kh, kw, sh, sw, ph, pw)


class TestSameBytesAsThePaddedUnfold:
    @given(case=unfold_cases(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_generated_cases(self, case, seed):
        shape, dtype, sliced, conv = case
        x = plane_contiguous(np.random.default_rng(seed), shape, dtype,
                             sliced)
        with scratch_from():
            assert_same_unfold(x, *conv)

    def test_every_plane_smaller_than_the_kernel(self, rng):
        """Taps whose shift is past the plane, row fills that would start
        before row 0: all of it on planes the zoo never has."""
        with scratch_from():
            for h, w in itertools.product(range(1, 5), range(1, 5)):
                x = rng.standard_normal((2, 2, h, w)).astype(np.float32)
                for kh, kw in itertools.product((1, 3, 5, 7), repeat=2):
                    assert_same_unfold(x, kh, kw, 1, 1, kh // 2, kw // 2)

    def test_other_layouts_take_the_padded_path(self, rng):
        """Planes that are not one flat run each: no hidden copy to make
        them so — the padded copy is the copy."""
        base = rng.standard_normal((2, 3, 6, 10)).astype(np.float32)
        layouts = (base[:, :, :, ::2], base[:, :, ::2],
                   base.transpose(0, 1, 3, 2))
        padded = mock.Mock(side_effect=conv2d._pad2d)
        with scratch_from(), mock.patch.object(conv2d, "_pad2d", padded):
            for x in layouts:
                assert_same_unfold(x, 3, 3, 1, 1, 1, 1)
        assert padded.call_count == len(layouts)


def same_conv_calls(rng):
    """Every conv kernel call whose unfold is a stride-1 "same" one:
    forwards, ``conv2d_dw``, stride-1 ``conv2d_dx`` (the forward kernel over
    the flipped weight) and strided depthwise ``conv2d_dx`` (rule 2)."""
    values = lambda *shape: rng.standard_normal(shape)  # noqa: E731
    for k, (cin, cout, groups) in itertools.product(
            (1, 3, 5), [(3, 4, 1), (4, 6, 2), (4, 4, 4)]):
        attrs = {"stride": 1, "padding": k // 2, "groups": groups}
        x, w = values(2, cin, 6, 5), values(cout, cin // groups, k, k)
        yield "conv2d", [x, w], attrs
        grad = values(2, cout, 6, 5)
        yield "conv2d_dx", [grad, w], {**attrs, "input_shape": x.shape}
        yield "conv2d_dw", [x, grad], {**attrs, "kernel_hw": (k, k)}
    for k, p, s in [(3, 1, 2), (3, 0, 2), (5, 2, 3), (5, 1, 2), (1, 0, 2)]:
        attrs = {"stride": s, "padding": p, "groups": 4}
        x, w = values(2, 4, 8, 7), values(4, 1, k, k)
        [y] = run_op("conv2d", [x, w], attrs)
        yield "conv2d_dx", [values(*y.shape), w], \
            {**attrs, "input_shape": x.shape}


class TestTheRulesAreTaken:
    def test_no_same_conv_pads_a_copy(self, rng):
        calls = list(same_conv_calls(rng))
        want = [run_op(op, ins, attrs)[0] for op, ins, attrs in calls]
        padded = mock.Mock(side_effect=conv2d._pad2d)
        with mock.patch.object(conv2d, "_pad2d", padded):
            for (op, ins, attrs), expected in zip(calls, want):
                assert_same_bytes(run_op(op, ins, attrs)[0], expected, op)
            assert padded.call_count == 0, padded.call_args_list[:3]
            # non-vacuity: a conv that is not "same" does go through it
            run_op("conv2d", [rng.standard_normal((1, 2, 5, 5)),
                              rng.standard_normal((3, 2, 3, 3))],
                   {"stride": 2, "padding": 1})
            assert padded.call_count == 1

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_dw"])
    def test_a_pointwise_conv_takes_no_scratch(self, rng, op):
        x = rng.standard_normal((2, 5, 4, 3)).astype(np.float32)
        other = rng.standard_normal((7, 5, 1, 1) if op == "conv2d"
                                    else (2, 7, 4, 3)).astype(np.float32)
        attrs = {"kernel_hw": (1, 1)}
        with scratch_from() as take:
            [got] = run_op(op, [x, other], attrs)
            assert take.call_count == 0
            # any other layout is copied, as it always was
            [strided] = run_op(op, [np.asfortranarray(x), other], attrs)
            assert take.call_count == 1
        assert not np.shares_memory(got, x)
        assert_same_bytes(strided, got, "copied operand")

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_dw"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_a_grouped_conv_holds_one_chunk_of_scratch(self, rng,
                                                       monkeypatch, op,
                                                       stride):
        """``_GROUP_SCRATCH_CAP`` bounds a grouped conv's scratch: a
        chunk's column (and pad buffer) is freed before the next chunk
        takes its own."""
        n, c, h, k = 2, 12, 6, 3
        ho = (h + 2 - k) // stride + 1
        monkeypatch.setattr(conv2d, "_GROUP_SCRATCH_CAP",
                            5 * n * k * k * ho * ho * 4)
        x = rng.standard_normal((n, c, h, h)).astype(np.float32)
        other = rng.standard_normal((c, 1, k, k) if op == "conv2d"
                                    else (n, c, ho, ho)).astype(np.float32)
        attrs = {"stride": stride, "padding": 1, "groups": c,
                 "kernel_hw": (k, k)}
        # a same conv unfolds unpadded; a strided one pads, then unfolds
        per_chunk = 1 if stride == 1 else 2
        held, stale = [], []

        def take(shape, dtype):
            chunk_began = len(held) - len(held) % per_chunk
            stale.extend(i for i, ref in enumerate(held[:chunk_began])
                         if ref() is not None)
            buf = np.empty(shape, dtype)
            held.append(weakref.ref(buf))
            return buf

        want = run_op(op, [x, other], attrs)[0]
        with mock.patch.object(workspace, "take", take):
            got = run_op(op, [x, other], attrs)[0]
        assert len(held) == 3 * per_chunk  # 5 + 5 + 2 groups
        assert stale == []
        assert_same_bytes(got, want, op)


class TestSameOperandsIntoTheSameGemm:
    """Rules 2 and 3 against what the old code handed the GEMM."""

    @given(k=st.sampled_from([1, 2, 3, 4, 5]), data=st.data(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_strided_depthwise_dx(self, k, data, seed):
        """Odd ``k`` with ``p <= (k-1)/2`` writes the gradient at the
        input's size; every other case keeps the padded form."""
        draw = data.draw
        sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        assume((sh, sw) != (1, 1))
        ph, pw = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        h = draw(st.integers(max(1, k - 2 * ph), 9))
        wd = draw(st.integers(max(1, k - 2 * pw), 9))
        c = draw(st.integers(1, 3))
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((c, 1, k, k)).astype(np.float32)
        gh, gw = (h + 2 * ph - k) // sh + 1, (wd + 2 * pw - k) // sw + 1
        grad = rng.standard_normal((2, c, gh, gw)).astype(np.float32)
        attrs = {"stride": (sh, sw), "padding": (ph, pw), "groups": c,
                 "input_shape": (2, c, h, wd)}
        z = reference._dilate(grad, (h, wd), (k, k), (sh, sw), (ph, pw))
        want = conv2d_forward(z, _flip_transpose(w, c), 1, 0, c)
        with scratch_from():
            [got] = run_op("conv2d_dx", [grad, w], attrs)
            into = np.full_like(want, np.nan)
            assert OUT_KERNELS["conv2d_dx"]([grad, w], attrs, into) is into
        assert_same_bytes(got, want, attrs)
        assert_same_bytes(into, want, attrs)

    @given(shape=st.tuples(*[st.integers(1, 5)] * 4),
           cout=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_pointwise_forward_and_dw(self, shape, cout, seed, dtype):
        rng = np.random.default_rng(seed)
        n, cin, h, wd = shape
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((cout, cin, 1, 1)).astype(dtype)
        cols, _, _ = reference.im2col(x, 1, 1, 1, 1, 0, 0)
        want = np.matmul(w.reshape(cout, -1), cols)
        assert_same_bytes(conv2d_forward(x, w),
                          want.reshape(n, cout, h, wd), "forward")
        grad = rng.standard_normal((n, cout, h, wd)).astype(dtype)
        want = np.tensordot(grad.reshape(n, cout, -1), cols,
                            axes=([0, 2], [0, 2]))
        [dw] = run_op("conv2d_dw", [x, grad], {"kernel_hw": (1, 1)})
        assert_same_bytes(dw, want.reshape(cout, cin, 1, 1), "dw")


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", CNN_MODELS)
def test_zoo_trains_to_the_same_bytes(model, scheme, batch, monkeypatch):
    losses, state = train(compile_at(model, scheme, batch))
    swap_in_padded_unfold(monkeypatch)
    with mock.patch.object(reference, "_pad2d",
                           mock.Mock(side_effect=reference._pad2d)) as padded:
        want_losses, want_state = train(compile_at(model, scheme, batch))
    assert padded.call_count > 0, "the reference unfold never ran"
    for step, (got, want) in enumerate(zip(losses, want_losses)):
        assert_same_bytes(got, want, f"loss of step {step}")
    assert state.keys() == want_state.keys()
    for name in state:
        assert_same_bytes(state[name], want_state[name], name)
