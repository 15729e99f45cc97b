"""Compile-time autodiff: gradient rules vs finite differences, engine
semantics (pruning by construction, accumulation, mixed precision)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import build_backward
from repro.errors import AutodiffError
from repro.ir import DType, GraphBuilder, validate_graph
from repro.runtime import interpret

from conftest import gradcheck_single_op, make_mlp_graph


class TestElementwiseGrads:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div",
                                    "maximum", "minimum"])
    def test_binary(self, op):
        def mk(rng):
            a = rng.standard_normal((3, 4)).astype(np.float32)
            b = rng.standard_normal((3, 4)).astype(np.float32) + 3.0
            return [a, b]
        gradcheck_single_op(op, None, make_inputs=mk)

    def test_broadcast_grads(self):
        def mk(rng):
            return [rng.standard_normal((3, 4)).astype(np.float32),
                    rng.standard_normal((4,)).astype(np.float32)]
        gradcheck_single_op("add", None, make_inputs=mk)
        gradcheck_single_op("mul", None, make_inputs=mk)

    @pytest.mark.parametrize("up_shape", [(3, 4), (4,), (2, 1, 4)])
    def test_swiglu_both_inputs(self, up_shape):
        """``silu(gate) * up`` against finite differences in ``gate`` and
        in ``up``, with ``up`` of the gate's shape, broadcast into it and
        broadcasting it."""
        def mk(rng):
            return [rng.standard_normal((3, 4)).astype(np.float32) * 2,
                    rng.standard_normal(up_shape).astype(np.float32)]
        gradcheck_single_op("swiglu", None, make_inputs=mk)
        gradcheck_single_op("swiglu", None, make_inputs=lambda rng:
                            mk(rng)[::-1])

    @pytest.mark.parametrize("op", ["neg", "exp", "tanh", "sigmoid",
                                    "silu", "gelu", "abs"])
    def test_unary(self, op):
        gradcheck_single_op(op, [(3, 4)])

    def test_log_sqrt_positive_domain(self):
        def mk(rng):
            return [rng.random((3, 4)).astype(np.float32) + 0.5]
        gradcheck_single_op("log", None, make_inputs=mk)
        gradcheck_single_op("sqrt", None, make_inputs=mk)

    def test_relu_relu6_away_from_kinks(self):
        def mk(rng):
            x = rng.standard_normal((4, 4)).astype(np.float32) * 3
            x[np.abs(x) < 0.1] = 0.5
            x[np.abs(x - 6) < 0.1] = 5.0
            return [x]
        gradcheck_single_op("relu", None, make_inputs=mk)
        gradcheck_single_op("relu6", None, make_inputs=mk)


class TestShapeGrads:
    def test_reshape(self):
        gradcheck_single_op("reshape", [(2, 6)], {"shape": (3, 4)})

    def test_transpose(self):
        gradcheck_single_op("transpose", [(2, 3, 4)], {"perm": (2, 0, 1)})

    def test_slice(self):
        gradcheck_single_op("slice", [(4, 6)],
                            {"axis": 1, "start": 1, "end": 5})

    def test_concat(self):
        gradcheck_single_op("concat", [(2, 3), (2, 2)], {"axis": 1})

    def test_pad(self):
        gradcheck_single_op("pad", [(2, 3)], {"pads": ((1, 0), (0, 2))})

    def test_broadcast_to(self):
        gradcheck_single_op("broadcast_to", [(1, 3)], {"shape": (4, 3)})


class TestReduceGrads:
    @pytest.mark.parametrize("keepdims", [True, False])
    def test_sum_mean(self, keepdims):
        gradcheck_single_op("reduce_sum", [(3, 4)],
                            {"axes": (1,), "keepdims": keepdims})
        gradcheck_single_op("reduce_mean", [(3, 4)],
                            {"axes": (0,), "keepdims": keepdims})

    def test_reduce_max(self):
        def mk(rng):
            x = rng.standard_normal((3, 5)).astype(np.float32)
            return [(x + np.arange(5) * 2).astype(np.float32)]  # break ties
        gradcheck_single_op("reduce_max", None, {"axes": (1,),
                                                 "keepdims": False},
                            make_inputs=mk)


class TestNNGrads:
    def test_matmul(self):
        gradcheck_single_op("matmul", [(3, 4), (4, 5)])

    def test_matmul_batched_activation(self):
        gradcheck_single_op("matmul", [(2, 3, 4), (4, 5)])

    def test_conv2d(self):
        gradcheck_single_op("conv2d", [(2, 3, 5, 5), (4, 3, 3, 3)],
                            {"stride": 1, "padding": 1})

    def test_conv2d_strided(self):
        gradcheck_single_op("conv2d", [(1, 2, 6, 6), (4, 2, 3, 3)],
                            {"stride": 2, "padding": 1})

    def test_conv2d_depthwise(self):
        gradcheck_single_op("conv2d", [(1, 4, 5, 5), (4, 1, 3, 3)],
                            {"padding": 1, "groups": 4})

    def test_bias_add(self):
        gradcheck_single_op("bias_add", [(2, 5, 3, 3), (5,)], {"axis": 1})

    def test_softmax_logsoftmax(self):
        gradcheck_single_op("softmax", [(3, 6)], {"axis": -1})
        gradcheck_single_op("log_softmax", [(3, 6)], {"axis": 1})

    def test_layernorm(self):
        def mk(rng):
            return [rng.standard_normal((3, 8)).astype(np.float32),
                    rng.random(8).astype(np.float32) + 0.5,
                    rng.standard_normal(8).astype(np.float32)]
        gradcheck_single_op("layernorm", None, {"eps": 1e-5}, make_inputs=mk,
                            tol=5e-2)

    def test_rmsnorm(self):
        def mk(rng):
            return [rng.standard_normal((3, 8)).astype(np.float32),
                    rng.random(8).astype(np.float32) + 0.5]
        gradcheck_single_op("rmsnorm", None, {"eps": 1e-6}, make_inputs=mk,
                            tol=5e-2)

    def test_pooling(self):
        def mk(rng):
            return [rng.standard_normal((1, 2, 4, 4)).astype(np.float32)]
        gradcheck_single_op("maxpool2d", None, {"kernel": 2, "stride": 2},
                            make_inputs=mk)
        gradcheck_single_op("avgpool2d", None, {"kernel": 2, "stride": 2},
                            make_inputs=mk)
        gradcheck_single_op("global_avg_pool", [(2, 3, 4, 4)])

    def test_embedding(self):
        def mk(rng):
            return [rng.standard_normal((7, 4)).astype(np.float32),
                    rng.integers(0, 7, (2, 3))]
        gradcheck_single_op("embedding", None, make_inputs=mk)


class TestEngine:
    def test_stops_at_deepest_trainable(self):
        """With only layer-2 weights requested, no backward nodes touch
        layer 1 (the paper's 'backpropagation stops here')."""
        b, names = make_mlp_graph()
        sq = b.mul(names["logits"], names["logits"])
        loss = b.reduce_mean(sq)
        b.mark_output(loss)

        full = b.graph.clone()
        res_full = build_backward(full, loss, ["w1", "w2"])
        res_sparse = build_backward(b.graph, loss, ["w2"])
        assert len(b.graph.nodes) < len(full.nodes)
        # dX through layer 1 requires the relu-mask mul; sparse has none.
        sparse_ops = [n.op_type for n in b.graph.nodes]
        assert "step" not in sparse_ops

    def test_gradient_accumulation_for_shared_input(self):
        b = GraphBuilder("g")
        x = b.initializer("x", np.array([2.0], np.float32), trainable=True)
        y = b.add(b.mul(x, x), x)  # y = x^2 + x -> dy/dx = 2x + 1 = 5
        b.mark_output(y)
        res = build_backward(b.graph, y, ["x"])
        out = interpret(b.graph)
        np.testing.assert_allclose(out[res.grads["x"]], [5.0], atol=1e-5)

    def test_unreachable_wrt_raises(self):
        b, names = make_mlp_graph()
        loss = b.reduce_mean(names["logits"])
        b.mark_output(loss)
        orphan = b.initializer("orphan", np.zeros(2, np.float32),
                               trainable=True)
        with pytest.raises(AutodiffError):
            build_backward(b.graph, loss, ["orphan"])

    def test_unknown_wrt_raises(self):
        b, names = make_mlp_graph()
        loss = b.reduce_mean(names["logits"])
        with pytest.raises(AutodiffError):
            build_backward(b.graph, loss, ["nope"])

    def test_result_graph_validates(self):
        b, names = make_mlp_graph()
        loss = b.reduce_mean(b.mul(names["logits"], names["logits"]))
        b.mark_output(loss)
        build_backward(b.graph, loss, ["w1", "b1", "w2", "b2", "x"])
        validate_graph(b.graph)

    def test_mixed_precision_grads_cast_to_param_dtype(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 3))
        w = b.initializer(
            "w", np.zeros((3, 4), np.float16), trainable=True)
        xh = b.emit("cast", [x], {"dtype": "float16"})
        y = b.matmul(xh, w)
        loss = b.reduce_mean(b.emit("cast", [y], {"dtype": "float32"}))
        b.mark_output(loss)
        res = build_backward(b.graph, loss, ["w"])
        assert b.graph.spec(res.grads["w"]).dtype == DType.FLOAT16

    def test_channel_sparse_grad_matches_full_slice(self):
        """dW for W[:k] under channel-sparse == the slice of the full dW."""
        rng = np.random.default_rng(3)
        xa = rng.standard_normal((4, 6)).astype(np.float32)

        def build(slice_k):
            b = GraphBuilder("g")
            x = b.input("x", (4, 6))
            w = b.initializer("w", rng.standard_normal((6, 3))
                              .astype(np.float32), trainable=True)
            y = b.matmul(x, w)
            loss = b.reduce_mean(b.mul(y, y))
            b.mark_output(loss)
            res = build_backward(b.graph, loss, ["w"],
                                 slice_k=slice_k)
            return b.graph, res

        g_full, r_full = build({})
        g_sp, r_sp = build({"w": 2})
        # Same weights: copy from full graph.
        g_sp.initializers["w"] = g_full.initializers["w"]
        full_grad = interpret(g_full, {"x": xa})[r_full.grads["w"]]
        sp_grad = interpret(g_sp, {"x": xa})[r_sp.grads["w"]]
        assert sp_grad.shape == (2, 3)
        np.testing.assert_allclose(sp_grad, full_grad[:2], atol=1e-5)

    def test_slice_k_requires_wrt(self):
        b, names = make_mlp_graph()
        loss = b.reduce_mean(names["logits"])
        b.mark_output(loss)
        with pytest.raises(AutodiffError):
            build_backward(b.graph, loss, ["w2"], slice_k={"w1": 2})


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_random_elementwise_chain_gradcheck(seed):
    """Property: random chains of differentiable unary ops gradcheck."""
    rng = np.random.default_rng(seed)
    ops = ["tanh", "sigmoid", "silu", "gelu", "neg", "exp"]
    depth = int(rng.integers(1, 4))
    b = GraphBuilder("chain")
    x0 = rng.standard_normal((2, 3)).astype(np.float32) * 0.5
    x = b.initializer("x", x0, trainable=True)
    h = x
    chain = [str(rng.choice(ops)) for _ in range(depth)]
    for op in chain:
        h = b.emit(op, [h])
    loss = b.reduce_mean(b.mul(h, h))
    b.mark_output(loss)
    res = build_backward(b.graph, loss, ["x"])
    got = interpret(b.graph)[res.grads["x"]]

    def f(val):
        arr = np.asarray(val, dtype=np.float64)
        for op in chain:
            if op == "tanh":
                arr = np.tanh(arr)
            elif op == "sigmoid":
                arr = 1 / (1 + np.exp(-arr))
            elif op == "silu":
                arr = arr / (1 + np.exp(-arr))
            elif op == "gelu":
                arr = 0.5 * arr * (1 + np.tanh(
                    np.sqrt(2 / np.pi) * (arr + 0.044715 * arr ** 3)))
            elif op == "neg":
                arr = -arr
            elif op == "exp":
                arr = np.exp(arr)
        return (arr * arr).mean()

    from conftest import numeric_grad

    want = numeric_grad(f, x0)
    np.testing.assert_allclose(got, want, atol=5e-2, rtol=5e-2)
