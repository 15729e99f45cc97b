"""Kernel correctness against numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import OUT_KERNELS, run_op
from repro.kernels.conv2d import col2im, conv2d_forward, im2col


def naive_conv2d(x, w, stride=1, padding=0, groups=1):
    """O(N^7) reference convolution."""
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float32)
    cg_out = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // cg_out
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, g * cin_g:(g + 1) * cin_g,
                               i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 0, 1), (1, 1, 4), (1, 2, 2),
    ])
    def test_matches_naive(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        w = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
        got = conv2d_forward(x, w, stride, padding, groups)
        want = naive_conv2d(x, w, stride, padding, groups)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_depthwise(self, rng):
        x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
        w = rng.standard_normal((6, 1, 3, 3)).astype(np.float32)
        got = conv2d_forward(x, w, 1, 1, groups=6)
        want = naive_conv2d(x, w, 1, 1, groups=6)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_im2col_col2im_adjoint(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float64)
        cols, ho, wo = im2col(x, 3, 3, 2, 2, 1, 1)
        y = rng.standard_normal(cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * col2im(y, x.shape, 3, 3, 2, 2, 1, 1)).sum()
        assert abs(lhs - rhs) < 1e-9

    def test_fused_bias_activation(self, rng):
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        [y] = run_op("conv2d", [x, w, bias],
                     {"padding": 1, "activation": "relu"})
        ref = np.maximum(
            conv2d_forward(x, w, 1, 1) + bias.reshape(1, -1, 1, 1), 0)
        np.testing.assert_allclose(y, ref, atol=1e-4)


class TestFusedEpilogue:
    """The ``+ bias`` / activation tail is written into the GEMM's own
    result; it must stay byte-equal to the allocating textbook form."""

    ACTIVATIONS = {None: lambda y: y, "relu": lambda y: np.maximum(y, 0),
                   "relu6": lambda y: np.clip(y, 0, 6)}

    @pytest.mark.parametrize("activation", [None, "relu", "relu6"])
    @pytest.mark.parametrize("form", ["direct", "grouped", "winograd",
                                      "pointwise", "strided"])
    def test_conv_forms(self, rng, form, activation):
        k = 1 if form == "pointwise" else 3
        groups = 4 if form == "grouped" else 1
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((8, 4 // groups, k, k)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        attrs = {"padding": k // 2, "groups": groups,
                 "stride": 2 if form == "strided" else 1}
        if form == "winograd":
            attrs["algo"] = "winograd"
        [plain] = run_op("conv2d", [x, w], attrs)
        want = self.ACTIVATIONS[activation](
            plain + bias.reshape(1, -1, 1, 1))
        [got] = run_op("conv2d", [x, w, bias],
                       {**attrs, "activation": activation})
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        [bare] = run_op("conv2d", [x, w], {**attrs, "activation": activation})
        assert bare.tobytes() == self.ACTIVATIONS[activation](plain).tobytes()

    @pytest.mark.parametrize("activation", [None, "relu", "relu6"])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_matmul_forms(self, rng, trans_b, activation):
        a = rng.standard_normal((2, 5, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        bias = rng.standard_normal(3).astype(np.float32)
        attrs = {"trans_b": trans_b, "activation": activation}
        if not trans_b:
            b = np.ascontiguousarray(b.T)
        want = self.ACTIVATIONS[activation](
            a @ (b.T if trans_b else b) + bias)
        [got] = run_op("matmul", [a, b, bias], attrs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_wider_bias_keeps_the_allocating_form(self, rng):
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((4, 3)).astype(np.float32)
        bias = rng.standard_normal(3)  # float64: the sum is wider than y
        want = np.maximum(a @ b + bias, 0)
        [got] = run_op("matmul", [a, b, bias], {"activation": "relu"})
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestConvGrads:
    def test_dx_matches_numeric(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        [dx] = run_op("conv2d_dx", [g, w],
                      {"padding": 1, "input_shape": x.shape})
        eps = 1e-3
        # spot-check a few coordinates
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 1, 4, 4)]:
            hi, lo = x.copy(), x.copy()
            hi[idx] += eps
            lo[idx] -= eps
            num = ((conv2d_forward(hi, w, 1, 1) * g).sum()
                   - (conv2d_forward(lo, w, 1, 1) * g).sum()) / (2 * eps)
            assert abs(dx[idx] - num) < 1e-2

    def test_dw_matches_numeric(self, rng):
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        g = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        [dw] = run_op("conv2d_dw", [x, g],
                      {"stride": 2, "padding": 1, "kernel_hw": (3, 3)})
        eps = 1e-3
        for idx in [(0, 0, 0, 0), (2, 1, 1, 2), (1, 0, 2, 2)]:
            hi, lo = w.copy(), w.copy()
            hi[idx] += eps
            lo[idx] -= eps
            num = ((conv2d_forward(x, hi, 2, 1) * g).sum()
                   - (conv2d_forward(x, lo, 2, 1) * g).sum()) / (2 * eps)
            assert abs(dw[idx] - num) < 1e-2

    def test_grouped_dx_dw_shapes(self, rng):
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        [dx] = run_op("conv2d_dx", [g, w],
                      {"padding": 1, "groups": 4, "input_shape": x.shape})
        [dw] = run_op("conv2d_dw", [x, g],
                      {"padding": 1, "groups": 4, "kernel_hw": (3, 3)})
        assert dx.shape == x.shape and dw.shape == w.shape


@st.composite
def conv_cases(draw):
    """(x shape, w shape, attrs) over every static branch of conv2d_dx:
    dense / grouped / depthwise, unit and non-unit (also mixed) strides,
    ``pad <= k-1`` and the ``pad > k-1`` fallback, sizes where the last
    rows/cols fall off the strided window grid."""
    k = draw(st.sampled_from([1, 3, 5]))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        ph, pw = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    else:  # at least one side beyond k-1: no gather form exists
        ph, pw = draw(st.integers(k, k + 1)), draw(st.integers(0, k + 1))
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    if kind == "depthwise":
        groups = draw(st.integers(1, 4))
        cin_g = cg_out = 1
    else:
        groups = 1 if kind == "dense" else 2
        cin_g, cg_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * ph), 9))
    wd = draw(st.integers(max(1, k - 2 * pw), 9))
    attrs = {"stride": (sh, sw), "padding": (ph, pw), "groups": groups}
    return ((n, groups * cin_g, h, wd), (groups * cg_out, cin_g, k, k),
            attrs)


class TestConvDxAdjoint:
    @given(case=conv_cases(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_dx_is_the_adjoint_of_forward(self, case, seed):
        """<conv2d(x, w), g> == <x, conv2d_dx(g, w)> — exact up to float64
        rounding, whichever formulation the static attrs select."""
        x_shape, w_shape, attrs = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        [y] = run_op("conv2d", [x, w], attrs)
        g = rng.standard_normal(y.shape)
        [dx] = run_op("conv2d_dx", [g, w], {**attrs, "input_shape": x_shape})
        assert dx.shape == x_shape and dx.dtype == g.dtype
        lhs, rhs = (y * g).sum(), (x * dx).sum()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_every_padding_off_the_window_grid(self, rng, k, stride):
        """Every ``p`` in ``0..k-1`` — the zero-inserted gradient at the
        input's own size up to ``(k-1)/2``, padded beyond — at heights with
        ``(h + 2p - k) % s != 0``, where the last rows are in no window."""
        checked = 0
        for p, groups in [(p, g) for p in range(k) for g in (1, 3)]:
            lo = max(1, k - 2 * p)
            for h in range(lo, lo + 2 * stride):
                if stride > 1 and (h + 2 * p - k) % stride == 0:
                    continue
                x = rng.standard_normal((2, 3, h, h + 1))
                w = rng.standard_normal((3, 3 // groups, k, k))
                attrs = {"stride": stride, "padding": p, "groups": groups}
                [y] = run_op("conv2d", [x, w], attrs)
                g = rng.standard_normal(y.shape)
                [dx] = run_op("conv2d_dx", [g, w],
                              {**attrs, "input_shape": x.shape})
                lhs, rhs = (y * g).sum(), (x * dx).sum()
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), \
                    (p, groups, h)
                checked += 1
        assert checked >= 2 * k

    @pytest.mark.parametrize("groups,stride", [(1, 1), (1, 2), (4, 1),
                                               (4, 2)])
    def test_untouched_trailing_rows_get_zero_gradient(self, rng, groups,
                                                       stride):
        """(h + 2p - k) % s != 0: the last input row/col is in no window."""
        x_shape = (2, 4, 8, 8)
        w = rng.standard_normal((4, 4 // groups, 3, 3)).astype(np.float32)
        attrs = {"stride": stride, "padding": 0, "groups": groups}
        ho = (8 - 3) // stride + 1
        g = rng.standard_normal((2, 4, ho, ho)).astype(np.float32)
        [dx] = run_op("conv2d_dx", [g, w], {**attrs, "input_shape": x_shape})
        assert dx.flags.c_contiguous
        if stride == 2:
            assert not dx[:, :, 7].any() and not dx[:, :, :, 7].any()
        assert dx[:, :, :7, :7].any()


class TestWinograd:
    """``algo="winograd"`` prices a conv for the target device (paper
    §3.2); the host runs the direct conv for it, byte for byte, on every
    shape the selection pass may annotate."""

    @pytest.mark.parametrize("shape,cout,padding", [
        ((1, 1, 5, 9), 7, 1), ((3, 5, 7, 4), 3, 0), ((2, 3, 3, 3), 2, 0),
        ((2, 7, 11, 6), 5, (1, 0)), ((1, 2, 2, 2), 3, 1),
    ])
    def test_matches_direct_odd_shapes(self, rng, shape, cout, padding):
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((cout, shape[1], 3, 3)).astype(np.float32)
        [got] = run_op("conv2d", [x, w],
                       {"padding": padding, "algo": "winograd"})
        want = conv2d_forward(x, w, 1, padding)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hw", [(8, 8), (7, 5)])
    def test_into_form_over_dirty_memory_bitwise_equal(self, rng, hw):
        """The executor hands the into-form a slab slot holding whatever
        the last value left there: NaN in it must not reach the result."""
        x = rng.standard_normal((2, 3) + hw).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        attrs = {"padding": 1, "algo": "winograd", "activation": "relu"}
        [base] = run_op("conv2d", [x, w, bias], attrs)
        out = np.full(base.shape, np.nan, base.dtype)
        OUT_KERNELS["conv2d"]([x, w, bias], attrs, out)
        assert out.tobytes() == base.tobytes()

    @pytest.mark.parametrize("hw,padding", [(8, 1), (7, 1), (6, 0), (9, 1)])
    def test_matches_direct(self, rng, hw, padding):
        x = rng.standard_normal((2, 3, hw, hw)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        [got] = run_op("conv2d", [x, w],
                       {"padding": padding, "algo": "winograd"})
        assert got.tobytes() == conv2d_forward(x, w, 1, padding).tobytes()

    def test_kernel_dispatch_via_algo_attr(self, rng):
        """``algo="winograd"`` prices the conv for the target device; the
        host kernel runs the direct conv for it, byte for byte."""
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        [direct] = run_op("conv2d", [x, w], {"padding": 1})
        [wino] = run_op("conv2d", [x, w], {"padding": 1, "algo": "winograd"})
        assert wino.tobytes() == direct.tobytes()


class TestPooling:
    def test_maxpool(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        [y] = run_op("maxpool2d", [x], {"kernel": 2, "stride": 2})
        assert y.shape == (1, 2, 2, 2)
        assert y[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_maxpool_grad_routes_to_argmax(self):
        x = np.array([[[[1., 5.], [2., 3.]]]], dtype=np.float32)
        g = np.array([[[[7.]]]], dtype=np.float32)
        [dx] = run_op("maxpool2d_grad", [x, g], {"kernel": 2, "stride": 2})
        assert dx[0, 0, 0, 1] == 7.0
        assert dx.sum() == 7.0

    def test_avgpool_grad_uniform(self):
        g = np.ones((1, 1, 1, 1), dtype=np.float32)
        [dx] = run_op("avgpool2d_grad", [g],
                      {"kernel": 2, "stride": 2, "input_shape": (1, 1, 2, 2)})
        np.testing.assert_allclose(dx, 0.25 * np.ones((1, 1, 2, 2)))

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        [y] = run_op("global_avg_pool", [x], {})
        np.testing.assert_allclose(y, x.mean(axis=(2, 3)), atol=1e-6)


class TestNormSoftmax:
    def test_softmax_rows_sum_to_one(self, rng):
        x = (rng.standard_normal((3, 7)) * 10).astype(np.float32)
        [y] = run_op("softmax", [x], {"axis": -1})
        np.testing.assert_allclose(y.sum(-1), np.ones(3), atol=1e-5)

    def test_softmax_stable_for_large_inputs(self):
        x = np.array([[1000.0, 1000.0]], dtype=np.float32)
        [y] = run_op("softmax", [x], {"axis": -1})
        assert np.isfinite(y).all()

    def test_log_softmax_consistent(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        [ls] = run_op("log_softmax", [x], {"axis": -1})
        [s] = run_op("softmax", [x], {"axis": -1})
        np.testing.assert_allclose(np.exp(ls), s, atol=1e-5)

    def test_layernorm_normalizes(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        gamma, beta = np.ones(8, np.float32), np.zeros(8, np.float32)
        [y] = run_op("layernorm", [x, gamma, beta], {"eps": 1e-5})
        np.testing.assert_allclose(y.mean(-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(y.std(-1), np.ones(4), atol=1e-3)

    def test_rmsnorm(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        gamma = np.full(8, 2.0, np.float32)
        [y] = run_op("rmsnorm", [x, gamma], {"eps": 1e-6})
        rms = np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6)
        np.testing.assert_allclose(y, 2 * x / rms, atol=1e-5)


class TestEmbedding:
    def test_lookup(self, rng):
        table = rng.standard_normal((10, 4)).astype(np.float32)
        ids = np.array([[1, 3], [9, 1]])
        [y] = run_op("embedding", [table, ids], {})
        np.testing.assert_array_equal(y[0, 0], table[1])
        np.testing.assert_array_equal(y[1, 0], table[9])

    def test_grad_accumulates_duplicates(self):
        ids = np.array([[0, 0, 2]])
        g = np.ones((1, 3, 4), dtype=np.float32)
        [dt] = run_op("embedding_grad", [ids, g], {"num_rows": 5})
        assert dt[0].sum() == 8.0  # two hits on row 0
        assert dt[2].sum() == 4.0
        assert dt[1].sum() == 0.0

    def test_pick(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        [y] = run_op("pick", [x, np.array([2, 0])], {})
        np.testing.assert_array_equal(y, np.array([2, 3], np.float32))

    @pytest.mark.parametrize("ids", [
        np.array(3), np.array([4, 0, 4]), np.array([[1, 2], [0, 4]]),
        np.zeros((2, 0), np.int64),
    ])
    def test_pick_grad_is_a_row_gather_from_the_identity(self, ids):
        g = np.full(ids.shape, 2.5, np.float32)
        [y] = run_op("pick_grad", [g, ids], {"depth": 5})
        want = np.eye(5, dtype=np.float32)[ids] * g[..., None]
        assert y.dtype == want.dtype and y.shape == want.shape
        np.testing.assert_array_equal(y, want)

    @pytest.mark.parametrize("op", ["pick", "pick_grad", "log_softmax_grad"])
    @pytest.mark.parametrize("bad", [5, -1, -6])
    def test_out_of_range_ids_are_refused(self, op, bad):
        """A negative id is refused too: indexing would wrap it to a class
        counted from the end."""
        ids = np.array([0, bad])
        x = np.zeros((2, 5), np.float32)
        g = np.ones(2, np.float32)
        ins = {"pick": [x, ids], "pick_grad": [g, ids],
               "log_softmax_grad": [g, x, ids]}[op]
        with pytest.raises(IndexError, match=r"out of range \[0, 5\)"):
            run_op(op, ins, {"depth": 5} if op == "pick_grad" else {})

    def test_pick_grad_cost_is_linear_in_depth(self):
        depth = 50_000
        ids = np.array([[0, depth - 1, 7], [1, 123, 7]])
        [y] = run_op("pick_grad", [np.ones(ids.shape, np.float32), ids],
                     {"depth": depth})
        assert y.shape == (2, 3, depth) and y.dtype == np.float32
        assert y.sum() == ids.size
        np.testing.assert_array_equal(y.argmax(-1), ids)


# The textbook forms the single-pass kernels replaced, kept verbatim: the
# kernels must reproduce their bytes, not merely their values.

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    neg_exp = np.exp(x[~pos])
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    out[~pos] = neg_exp / (1.0 + neg_exp)
    return out


def ref_gelu(x):
    inner = np.float32(np.sqrt(2.0 / np.pi)) * (x + 0.044715 * x * x * x)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(x.dtype)


def ref_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def ref_log_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - logsum


def ref_layernorm(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mean) / np.sqrt(var + eps)
    return (xhat * gamma + beta).astype(x.dtype)


def ref_rmsnorm(x, gamma, eps):
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return (x / np.sqrt(ms + eps) * gamma).astype(x.dtype)


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def tensors(draw):
    """A float16/float32 tensor, C-contiguous or a transposed view."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    dtype = draw(st.sampled_from([np.float16, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1.0, 8.0]))
    x = (rng.standard_normal(shape) * scale).astype(dtype)
    if draw(st.booleans()):
        x = x.T
    return x


class TestSinglePassKernels:
    """One result buffer, ufuncs in the textbook order: same bytes."""

    @given(tensors())
    @settings(max_examples=60, deadline=None)
    def test_sigmoid_and_gelu(self, x):
        same_bytes(run_op("sigmoid", [x], {})[0], ref_sigmoid(x))
        same_bytes(run_op("gelu", [x], {})[0], ref_gelu(x))

    @given(tensors(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_softmax_and_log_softmax(self, x, data):
        axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
        same_bytes(run_op("softmax", [x], {"axis": axis})[0],
                   ref_softmax(x, axis))
        same_bytes(run_op("log_softmax", [x], {"axis": axis})[0],
                   ref_log_softmax(x, axis))

    @given(tensors(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_rmsnorm_and_layernorm(self, x, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.standard_normal(x.shape[-1]).astype(x.dtype)
        beta = rng.standard_normal(x.shape[-1]).astype(x.dtype)
        same_bytes(run_op("rmsnorm", [x, gamma], {"eps": 1e-6})[0],
                   ref_rmsnorm(x, gamma, 1e-6))
        [y] = run_op("layernorm", [x, gamma, beta], {"eps": 1e-5})
        want = ref_layernorm(x, gamma, beta, 1e-5)
        if x.dtype == np.float16:
            # The variance is centred on the float32-accumulated mean;
            # np.var re-sums its own mean in float16.
            assert y.dtype == np.float16
            np.testing.assert_allclose(y.astype(np.float32),
                                       want.astype(np.float32),
                                       rtol=2e-2, atol=2e-2)
        else:
            same_bytes(y, want)

    @given(tensors(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reduce_sum_and_mean(self, x, data):
        axes = tuple(data.draw(st.lists(st.integers(-x.ndim, x.ndim - 1),
                                        min_size=1, unique_by=lambda a:
                                        a % x.ndim)))
        keepdims = data.draw(st.booleans())
        attrs = {"axes": axes, "keepdims": keepdims}
        same_bytes(run_op("reduce_sum", [x], attrs)[0],
                   x.sum(axis=axes, keepdims=keepdims, dtype=x.dtype))
        # float32: the same bytes as x.mean(dtype=x.dtype), the form the
        # kernel used to call. float16 takes np.mean's default float32
        # accumulation instead of summing in float16.
        same_bytes(run_op("reduce_mean", [x], attrs)[0],
                   x.mean(axis=axes, keepdims=keepdims))

    @given(tensors(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_full_reduction_is_zero_d(self, x, keepdims):
        attrs = {"keepdims": keepdims}
        [total] = run_op("reduce_sum", [x], attrs)
        [mean] = run_op("reduce_mean", [x], attrs)
        assert np.shape(total) == np.shape(mean) == \
            ((1,) * x.ndim if keepdims else ())
        same_bytes(total, x.sum(keepdims=keepdims, dtype=x.dtype))
        same_bytes(mean, x.mean(keepdims=keepdims))

    def test_float16_mean_divides_by_the_exact_count(self):
        # 2049 is not a float16: a float16 division would round it to 2048.
        x = np.full((2049,), 3.0, np.float16)
        [y] = run_op("reduce_mean", [x], {})
        assert y.dtype == np.float16 and y == 3.0
        gamma = np.ones(2049, np.float16)
        [y] = run_op("rmsnorm", [x, gamma], {"eps": 0.0})
        same_bytes(y, np.ones(2049, np.float16))

    SPECIALS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 88.8, -88.8, 1e4, -1e4,
                1e-30, -1e-30]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_at_the_edges_raises_no_flag(self, dtype):
        x = np.array(self.SPECIALS, dtype)
        # Every flag numpy warns on by default; underflow (exp(-1e4) == 0,
        # in either form) is not one of them.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            [y] = run_op("sigmoid", [x], {})
        want = ref_sigmoid(x)
        finite = ~np.isnan(x)
        # A NaN's sign and payload are not part of the contract.
        np.testing.assert_array_equal(np.isnan(y), ~finite)
        same_bytes(y[finite], want[finite])
        np.testing.assert_allclose(
            y[finite], [1, 0, 0.5, 0.5, 1, 0, 1, 0, 0.5, 0.5], atol=1e-30)

    def test_sigmoid_out_may_alias_its_input(self, rng):
        x = (rng.standard_normal((2, 24, 64)) * 4).astype(np.float32)
        want = ref_sigmoid(x)
        buf = x.copy()
        assert OUT_KERNELS["sigmoid"]([buf], {}, buf) is buf
        same_bytes(buf, want)
        # ... and a distinct out leaves x untouched
        keep = x.copy()
        out = np.empty_like(x)
        OUT_KERNELS["sigmoid"]([x], {}, out)
        same_bytes(out, want)
        same_bytes(x, keep)


def primitive(op, *ins):
    return run_op(op, list(ins), {})[0]


def ref_silu_grad(g, x):
    """``mul(x, sigmoid(x))`` differentiated by the ``mul`` and
    ``sigmoid`` rules, gradients summed: ``g·s + (g·x)·(s·(1−s))``."""
    s = primitive("sigmoid", x)
    one = np.float32(1.0)
    ds = primitive("mul", s, primitive("sub", one, s))
    return primitive("add", primitive("mul", g, s),
                     primitive("mul", primitive("mul", g, x), ds))


def ref_gelu_grad(g, x):
    """The tanh-GELU derivative as the primitive chain its rule emitted,
    with the rule's float32 constants."""
    c_half, one = np.float32(0.5), np.float32(1.0)
    c_a = np.float32(np.sqrt(2.0 / np.pi))
    c_b, c_3b = np.float32(0.044715), np.float32(3 * 0.044715)
    x2 = primitive("mul", x, x)
    x3 = primitive("mul", x2, x)
    inner = primitive("mul", c_a,
                      primitive("add", x, primitive("mul", c_b, x3)))
    t = primitive("tanh", inner)
    one_plus_t = primitive("add", one, t)
    sech2 = primitive("sub", one, primitive("mul", t, t))
    dinner = primitive("mul", c_a, primitive(
        "add", one, primitive("mul", c_3b, x2)))
    left = primitive("mul", c_half, one_plus_t)
    right = primitive("mul", primitive(
        "mul", primitive("mul", c_half, x), sech2), dinner)
    return primitive("mul", g, primitive("add", left, right))


@st.composite
def adjoint_operands(draw):
    """``(g, x)``: float32, one shape, ``x`` of magnitude up to ~30."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1.0, 8.0]))
    return (rng.standard_normal(shape).astype(np.float32),
            (rng.standard_normal(shape) * scale).astype(np.float32))


class TestActivationAdjoints:
    """``silu`` and the one-kernel adjoints ``silu_grad`` / ``gelu_grad``
    reproduce the bytes of the primitive kernels they replace, may write
    over any input, and stay finite where the primitives would."""

    REFERENCES = {"silu_grad": ref_silu_grad, "gelu_grad": ref_gelu_grad}

    @given(adjoint_operands())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_the_primitives(self, operands):
        g, x = operands
        same_bytes(primitive("silu", x),
                   primitive("mul", x, primitive("sigmoid", x)))
        for op, reference in self.REFERENCES.items():
            same_bytes(primitive(op, g, x), reference(g, x))

    @pytest.mark.parametrize("op", ["silu_grad", "gelu_grad"])
    def test_out_may_alias_either_input(self, op, rng):
        g = rng.standard_normal((2, 24, 64)).astype(np.float32)
        x = (rng.standard_normal((2, 24, 64)) * 4).astype(np.float32)
        want = self.REFERENCES[op](g, x)
        for alias in (0, 1):
            ins = [g.copy(), x.copy()]
            assert OUT_KERNELS[op](ins, {}, ins[alias]) is ins[alias]
            same_bytes(ins[alias], want)
            same_bytes(ins[1 - alias], (g, x)[1 - alias])
        both = x.copy()  # g and x one buffer, out over it too
        OUT_KERNELS[op]([both, both], {}, both)
        same_bytes(both, self.REFERENCES[op](x, x))
        out = np.empty_like(x)
        OUT_KERNELS["silu"]([x], {}, out)
        keep = x.copy()
        assert OUT_KERNELS["silu"]([keep], {}, keep) is keep
        same_bytes(keep, out)

    def test_finite_at_the_edges(self):
        x = np.array([0.0, -0.0, 20.0, -20.0, 90.0, -90.0], np.float32)
        g = np.ones_like(x)
        for op in ("silu", "gelu", "silu_grad", "gelu_grad"):
            y = primitive(op, x) if op in ("silu", "gelu") \
                else primitive(op, g, x)
            assert np.isfinite(y).all(), (op, y)
        # the saturated ends: an identity and a zero
        for op in ("silu_grad", "gelu_grad"):
            np.testing.assert_allclose(primitive(op, g, x)[4:], [1.0, 0.0],
                                       rtol=0, atol=1e-30)


def ref_swiglu(gate, up):
    """The SwiGLU gate as it was traced: ``mul(silu(gate), up)``."""
    return primitive("mul", primitive("silu", gate), up)


class TestSwiGLU:
    """``swiglu(gate, up)`` is ``silu`` then ``mul``, byte for byte, in
    its base form and its into-form, whichever input ``out`` is over."""

    @given(adjoint_operands())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_silu_then_mul(self, operands):
        up, gate = operands
        want = ref_swiglu(gate, up)
        same_bytes(primitive("swiglu", gate, up), want)
        out = np.full_like(want, np.nan)
        assert OUT_KERNELS["swiglu"]([gate, up], {}, out) is out
        same_bytes(out, want)

    def test_out_may_alias_either_input(self, rng):
        gate = (rng.standard_normal((2, 24, 64)) * 4).astype(np.float32)
        up = rng.standard_normal((2, 24, 64)).astype(np.float32)
        want = ref_swiglu(gate, up)
        for alias in (0, 1):
            ins = [gate.copy(), up.copy()]
            assert OUT_KERNELS["swiglu"](ins, {}, ins[alias]) is ins[alias]
            same_bytes(ins[alias], want)
            same_bytes(ins[1 - alias], (gate, up)[1 - alias])
        both = gate.copy()  # gate and up one buffer, out over it too
        OUT_KERNELS["swiglu"]([both, both], {}, both)
        same_bytes(both, ref_swiglu(gate, gate))

    def test_broadcasts_like_mul(self, rng):
        gate = rng.standard_normal((3, 1, 4)).astype(np.float32)
        up = rng.standard_normal((5, 4)).astype(np.float32)
        for a, b in ((gate, up), (up, gate)):
            same_bytes(primitive("swiglu", a, b), ref_swiglu(a, b))

    def test_finite_at_the_edges(self):
        gate = np.array([0.0, -0.0, 20.0, -20.0, 90.0, -90.0], np.float32)
        y = primitive("swiglu", gate, np.full_like(gate, 3.0))
        assert np.isfinite(y).all(), y
        same_bytes(y, ref_swiglu(gate, np.full_like(gate, 3.0)))
        np.testing.assert_allclose(y[4:], [270.0, 0.0], rtol=0, atol=1e-30)


@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_elementwise_ops_match_numpy(n, h, w):
    rng = np.random.default_rng(n * 100 + h * 10 + w)
    x = rng.standard_normal((n, h, w)).astype(np.float32)
    y = rng.standard_normal((n, h, w)).astype(np.float32)
    checks = {
        "add": x + y, "sub": x - y, "mul": x * y,
        "maximum": np.maximum(x, y), "minimum": np.minimum(x, y),
    }
    for op, want in checks.items():
        [got] = run_op(op, [x, y], {})
        np.testing.assert_allclose(got, want, atol=1e-6)
    [got] = run_op("relu6", [x * 10], {})
    np.testing.assert_allclose(got, np.clip(x * 10, 0, 6), atol=1e-6)
    [got] = run_op("step", [x], {})
    np.testing.assert_array_equal(got, (x > 0).astype(np.float32))
