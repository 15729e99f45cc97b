"""Shape inference for every operator family, including failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.ir import DType, GraphBuilder, broadcast_shapes, get_schema
from repro.ir.tensor import TensorSpec


def infer(op, shapes, attrs=None, dtypes=None):
    dtypes = dtypes or [DType.FLOAT32] * len(shapes)
    specs = [TensorSpec(f"t{i}", s, d)
             for i, (s, d) in enumerate(zip(shapes, dtypes))]
    return get_schema(op).infer(specs, attrs or {})


class TestBroadcasting:
    def test_simple(self):
        assert broadcast_shapes((2, 1), (1, 3)) == (2, 3)

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            broadcast_shapes((2, 3), (4, 5))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_with_self_is_identity(self, dims):
        shape = tuple(dims)
        assert broadcast_shapes(shape, shape) == shape

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.lists(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, a, b):
        try:
            want = np.broadcast_shapes(tuple(a), tuple(b))
        except ValueError:
            with pytest.raises(ShapeError):
                broadcast_shapes(tuple(a), tuple(b))
            return
        assert broadcast_shapes(tuple(a), tuple(b)) == tuple(want)


class TestElementwise:
    def test_add_broadcast(self):
        [(shape, dtype)] = infer("add", [(4, 1), (3,)])
        assert shape == (4, 3)

    def test_unary_preserves(self):
        [(shape, _)] = infer("relu", [(2, 3)])
        assert shape == (2, 3)

    def test_cast_changes_dtype(self):
        [(_, dtype)] = infer("cast", [(2,)], {"dtype": "float16"})
        assert dtype == DType.FLOAT16


class TestShapeOps:
    def test_reshape_minus_one(self):
        [(shape, _)] = infer("reshape", [(2, 3, 4)], {"shape": (2, -1)})
        assert shape == (2, 12)

    def test_reshape_bad_count(self):
        with pytest.raises(ShapeError):
            infer("reshape", [(2, 3)], {"shape": (4, 2)})

    def test_reshape_two_minus_ones(self):
        with pytest.raises(ShapeError):
            infer("reshape", [(4,)], {"shape": (-1, -1)})

    def test_transpose(self):
        [(shape, _)] = infer("transpose", [(2, 3, 4)], {"perm": (2, 0, 1)})
        assert shape == (4, 2, 3)

    def test_transpose_bad_perm(self):
        with pytest.raises(ShapeError):
            infer("transpose", [(2, 3)], {"perm": (0, 0)})

    def test_slice(self):
        [(shape, _)] = infer("slice", [(4, 6)],
                             {"axis": 1, "start": 1, "end": 4})
        assert shape == (4, 3)

    def test_slice_end_clamped(self):
        [(shape, _)] = infer("slice", [(4,)],
                             {"axis": 0, "start": 0, "end": 100})
        assert shape == (4,)

    def test_concat(self):
        [(shape, _)] = infer("concat", [(2, 3), (2, 5)], {"axis": 1})
        assert shape == (2, 8)

    def test_concat_rank_mismatch(self):
        with pytest.raises(ShapeError):
            infer("concat", [(2, 3), (2, 3, 1)], {"axis": 0})

    def test_pad(self):
        [(shape, _)] = infer("pad", [(2, 3)], {"pads": ((1, 1), (0, 2))})
        assert shape == (4, 5)

    def test_broadcast_to(self):
        [(shape, _)] = infer("broadcast_to", [(1, 3)], {"shape": (5, 3)})
        assert shape == (5, 3)

    def test_broadcast_to_invalid(self):
        with pytest.raises(ShapeError):
            infer("broadcast_to", [(2, 3)], {"shape": (5, 3)})


class TestReductions:
    def test_keepdims(self):
        [(shape, _)] = infer("reduce_sum", [(2, 3, 4)],
                             {"axes": (1,), "keepdims": True})
        assert shape == (2, 1, 4)

    def test_no_keepdims(self):
        [(shape, _)] = infer("reduce_mean", [(2, 3, 4)],
                             {"axes": (0, 2), "keepdims": False})
        assert shape == (3,)

    def test_all_axes_default(self):
        [(shape, _)] = infer("reduce_max", [(2, 3)], {"axes": None})
        assert shape == ()


class TestMatmulConv:
    def test_matmul_batched(self):
        [(shape, _)] = infer("matmul", [(7, 2, 3), (3, 5)])
        assert shape == (7, 2, 5)

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            infer("matmul", [(2, 3), (4, 5)])

    def test_conv2d(self):
        [(shape, _)] = infer("conv2d", [(2, 3, 8, 8), (6, 3, 3, 3)],
                             {"stride": 2, "padding": 1})
        assert shape == (2, 6, 4, 4)

    def test_conv2d_depthwise(self):
        [(shape, _)] = infer("conv2d", [(2, 8, 6, 6), (8, 1, 3, 3)],
                             {"padding": 1, "groups": 8})
        assert shape == (2, 8, 6, 6)

    def test_conv2d_group_mismatch(self):
        with pytest.raises(ShapeError):
            infer("conv2d", [(2, 8, 6, 6), (8, 2, 3, 3)], {"groups": 8})

    def test_conv2d_dx_uses_input_shape(self):
        [(shape, _)] = infer("conv2d_dx", [(2, 6, 4, 4), (6, 3, 3, 3)],
                             {"stride": 2, "padding": 1,
                              "input_shape": (2, 3, 8, 8)})
        assert shape == (2, 3, 8, 8)

    def test_conv2d_dw(self):
        [(shape, _)] = infer("conv2d_dw", [(2, 3, 8, 8), (2, 6, 8, 8)],
                             {"padding": 1, "kernel_hw": (3, 3)})
        assert shape == (6, 3, 3, 3)

    def test_pool(self):
        [(shape, _)] = infer("maxpool2d", [(2, 4, 8, 8)],
                             {"kernel": 2, "stride": 2})
        assert shape == (2, 4, 4, 4)

    def test_empty_conv_output_rejected(self):
        with pytest.raises(ShapeError):
            infer("conv2d", [(1, 3, 2, 2), (4, 3, 5, 5)], {})


class TestNNOps:
    def test_layernorm_checks_scale(self):
        with pytest.raises(ShapeError):
            infer("layernorm", [(2, 8), (4,), (8,)], {"eps": 1e-5})

    def test_embedding(self):
        [(shape, _)] = infer("embedding", [(100, 16), (2, 5)],
                             dtypes=[DType.FLOAT32, DType.INT64])
        assert shape == (2, 5, 16)

    def test_embedding_float_ids_rejected(self):
        with pytest.raises(ShapeError):
            infer("embedding", [(100, 16), (2, 5)])

    def test_pick_and_its_adjoints(self):
        ints = [DType.FLOAT16, DType.INT32]
        [(shape, dtype)] = infer("pick", [(2, 3, 7), (2, 3)], dtypes=ints)
        assert shape == (2, 3) and dtype == DType.FLOAT16
        [(shape, dtype)] = infer("pick_grad", [(2, 3), (2, 3)], {"depth": 7},
                                 dtypes=ints)
        assert shape == (2, 3, 7) and dtype == DType.FLOAT16
        [(shape, _)] = infer("log_softmax_grad", [(2, 3), (2, 3, 7), (2, 3)],
                             {"axis": 2}, dtypes=ints[:1] * 2 + ints[1:])
        assert shape == (2, 3, 7)
        [(shape, _)] = infer("log_softmax_grad", [(2, 3, 7), (2, 3, 7)],
                             {"axis": 0})
        assert shape == (2, 3, 7)

    @pytest.mark.parametrize("op, shapes, attrs, dtypes", [
        ("pick", [(4, 7), (4,)], {}, None),                  # float ids
        ("pick", [(4, 7), (4, 1)], {}, [DType.FLOAT32, DType.INT64]),
        ("pick_grad", [(4,), (3,)], {"depth": 7},
         [DType.FLOAT32, DType.INT64]),
        ("log_softmax_grad", [(4,), (4, 7), (4,)], {"axis": 0},
         [DType.FLOAT32, DType.FLOAT32, DType.INT64]),   # ids: last axis
        ("log_softmax_grad", [(4, 7), (4, 7), (4,)], {"axis": 1},
         [DType.FLOAT32, DType.FLOAT32, DType.INT64]),   # rows, not a tensor
        ("log_softmax_grad", [(4, 6), (4, 7)], {}, None),
    ])
    def test_pick_family_refuses(self, op, shapes, attrs, dtypes):
        with pytest.raises(ShapeError):
            infer(op, shapes, attrs, dtypes=dtypes)

    @pytest.mark.parametrize("op", ["silu_grad", "gelu_grad"])
    def test_activation_adjoints(self, op):
        [(shape, dtype)] = infer(op, [(2, 3), (2, 3)],
                                 dtypes=[DType.FLOAT16] * 2)
        assert shape == (2, 3) and dtype == DType.FLOAT16
        # no broadcasting: the gradient is the activation's own shape
        for shapes, dtypes in (([(2, 3), (3,)], None),
                               ([(1, 3), (2, 3)], None),
                               ([(2, 3), (2, 3)],
                                [DType.FLOAT16, DType.FLOAT32])):
            with pytest.raises(ShapeError):
                infer(op, shapes, dtypes=dtypes)

    def test_swiglu_broadcasts_like_mul(self):
        [(shape, dtype)] = infer("swiglu", [(2, 24, 64), (2, 24, 64)],
                                 dtypes=[DType.FLOAT16] * 2)
        assert shape == (2, 24, 64) and dtype == DType.FLOAT16
        for gate, up, want in (((2, 1, 4), (3, 4), (2, 3, 4)),
                               ((4,), (2, 3, 4), (2, 3, 4)),
                               ((), (2, 3), (2, 3))):
            [(shape, _)] = infer("swiglu", [gate, up])
            assert shape == want
        with pytest.raises(ShapeError):
            infer("swiglu", [(2, 3), (2, 4)])

    def test_unknown_op(self):
        with pytest.raises(ShapeError):
            get_schema("not_an_op")

    def test_arity_check(self):
        with pytest.raises(ShapeError):
            get_schema("add").check_arity(3)


class TestBuilderChecks:
    def test_unknown_attr_rejected(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 2))
        with pytest.raises(Exception):
            b.emit("relu", [x], {"bogus": 1})

    def test_fresh_names_unique(self):
        b = GraphBuilder("g")
        names = {b.fresh("t") for _ in range(100)}
        assert len(names) == 100
