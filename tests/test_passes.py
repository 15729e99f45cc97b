"""Graph-optimization passes: semantics preserved, savings real."""

import numpy as np
import pytest

from repro.ir import GraphBuilder, validate_graph
from repro.ir import DType
from repro.passes import (BiasActivationFusionPass,
                          CommonSubexpressionEliminationPass,
                          ConstantFoldingPass, DeadCodeEliminationPass,
                          ElementwiseGroupPass, GradientMaskFusionPass,
                          LayoutSelectionPass, PassContext, PassManager,
                          WinogradSelectionPass, default_schedule,
                          memory_aware_schedule)
from repro.runtime import interpret

from conftest import make_mlp_graph


def conv_act_graph(rng, mark_intermediate=False):
    b = GraphBuilder("g")
    x = b.input("x", (2, 3, 8, 8))
    w = b.initializer("w", rng.standard_normal((4, 3, 3, 3))
                      .astype(np.float32), trainable=True)
    bias = b.initializer("bias", rng.standard_normal(4).astype(np.float32),
                         trainable=True)
    conv = b.conv2d(x, w, padding=1)
    biased = b.bias_add(conv, bias, axis=1)
    act = b.emit("relu", [biased])
    if mark_intermediate:
        b.mark_output(biased)
    b.mark_output(act)
    return b, x


class TestFusion:
    def test_conv_bias_relu_fuses_to_one_node(self, rng):
        b, x = conv_act_graph(rng)
        before = interpret(b.graph, {"x": np.ones((2, 3, 8, 8), np.float32)})
        result = BiasActivationFusionPass().run(b.graph, PassContext())
        assert result.stats["fused"] == 1
        assert len(b.graph.nodes) == 1
        node = b.graph.nodes[0]
        assert node.op_type == "conv2d" and len(node.inputs) == 3
        assert node.attrs["activation"] == "relu"
        validate_graph(b.graph)
        after = interpret(b.graph, {"x": np.ones((2, 3, 8, 8), np.float32)})
        for key in before:
            np.testing.assert_allclose(before[key], after[key], atol=1e-5)

    def test_activation_not_fused_when_intermediate_is_output(self, rng):
        """With the biased value needed downstream, bias may fuse into the
        conv (it adopts that output name) but the activation must stay a
        separate node."""
        b, _ = conv_act_graph(rng, mark_intermediate=True)
        xa = np.ones((2, 3, 8, 8), np.float32)
        before = interpret(b.graph, {"x": xa})
        BiasActivationFusionPass().run(b.graph, PassContext())
        validate_graph(b.graph)
        assert any(n.op_type == "relu" for n in b.graph.nodes)
        after = interpret(b.graph, {"x": xa})
        for key in before:
            np.testing.assert_allclose(before[key], after[key], atol=1e-5)

    def test_matmul_bias_gelu_fuses(self, rng):
        b, names = make_mlp_graph(activation="gelu")
        xa = rng.standard_normal((4, 5)).astype(np.float32)
        before = interpret(b.graph, {"x": xa})
        result = BiasActivationFusionPass().run(b.graph, PassContext())
        assert result.stats["fused"] == 2  # both layers fuse (2nd: bias only)
        after = interpret(b.graph, {"x": xa})
        np.testing.assert_allclose(before[names["logits"]],
                                   after[names["logits"]], atol=1e-5)

    def test_elementwise_groups_assigned(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (4, 4))
        h = b.emit("tanh", [b.emit("sigmoid", [b.emit("relu", [x])])])
        b.mark_output(h)
        result = ElementwiseGroupPass().run(b.graph, PassContext())
        groups = b.graph.metadata["fusion_groups"]
        assert result.stats["groups"] == 1
        assert len(groups) == 3

    def test_elementwise_group_breaks_at_fanout(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (4, 4))
        mid = b.emit("relu", [x])
        a = b.emit("tanh", [mid])
        c = b.emit("sigmoid", [mid])  # mid has two consumers
        b.mark_output(a)
        b.mark_output(c)
        ElementwiseGroupPass().run(b.graph, PassContext())
        groups = b.graph.metadata["fusion_groups"]
        assert groups.get(b.graph.nodes[0].name) is None


def masked_gradient_graph(rng, *, second_reader=False, keep_dx=False):
    """``mask_mul(conv2d_dx(g, w), range_mask(y))`` emitted in autodiff's
    order: the gradient first, then the mask it is multiplied by."""
    b = GraphBuilder("g")
    g = b.input("g", (2, 4, 5, 5))
    y = b.input("y", (2, 3, 5, 5))
    w = b.initializer("w", rng.standard_normal((4, 3, 3, 3))
                      .astype(np.float32))
    dx = b.emit("conv2d_dx", [g, w],
                {"padding": 1, "input_shape": (2, 3, 5, 5)})
    mask = b.emit("range_mask", [y], {"lo": 0.0, "hi": 6.0})
    b.mark_output(b.emit("mask_mul", [dx, mask]))
    if second_reader:
        b.mark_output(b.emit("neg", [dx]))
    if keep_dx:
        b.mark_output(dx)
    feeds = {"g": rng.standard_normal((2, 4, 5, 5)).astype(np.float32),
             "y": rng.uniform(-2, 8, (2, 3, 5, 5)).astype(np.float32)}
    return b, feeds


class TestGradientMaskFusion:
    def test_mask_mul_folds_into_its_conv2d_dx(self, rng):
        b, feeds = masked_gradient_graph(rng)
        masked = b.graph.outputs[0]
        before = interpret(b.graph, feeds)
        result = GradientMaskFusionPass().run(b.graph, PassContext())
        assert result.changed and result.stats == {"fused": 1}
        # the fused node reads the mask, so it sits where the mask_mul did
        assert [n.op_type for n in b.graph.nodes] \
            == ["range_mask", "conv2d_dx"]
        mask_node, node = b.graph.nodes
        assert node.inputs == ("g", "w", mask_node.outputs[0])
        assert node.outputs == (masked,) == tuple(b.graph.outputs)
        # the unmasked gradient's value is gone with its only reader
        assert set(b.graph.values) == {"g", "y", "w", *mask_node.outputs,
                                       masked}
        validate_graph(b.graph)
        after = interpret(b.graph, feeds)
        assert after[masked].tobytes() == before[masked].tobytes()
        assert not GradientMaskFusionPass().run(b.graph,
                                                PassContext()).changed

    @pytest.mark.parametrize("why", ["second_reader", "keep_dx"])
    def test_a_gradient_someone_else_needs_stays_unmasked(self, rng, why):
        """Sole consumer, not a graph output — or the unmasked gradient
        would be gone for its other reader."""
        b, feeds = masked_gradient_graph(rng, **{why: True})
        before = [(n.op_type, n.inputs, n.outputs) for n in b.graph.nodes]
        result = GradientMaskFusionPass().run(b.graph, PassContext())
        assert not result.changed and result.stats == {"fused": 0}
        assert [(n.op_type, n.inputs, n.outputs)
                for n in b.graph.nodes] == before

    def test_a_mask_mul_after_anything_else_stays(self, rng):
        """Only ``conv2d_dx`` has the epilogue: a gradient summed over two
        branches (``add``) or spread by a pooling adjoint
        (``broadcast_to``) keeps its ``mask_mul``."""
        b = GraphBuilder("g")
        g = b.input("g", (2, 3, 1, 1))
        h = b.input("h", (2, 3, 4, 4))
        mask = b.input("mask", (12,), DType.UINT8)
        spread = b.emit("broadcast_to", [g], {"shape": (2, 3, 4, 4)})
        b.mark_output(b.emit("mask_mul", [spread, mask]))
        b.mark_output(b.emit("mask_mul", [b.add(h, h), mask]))
        assert not GradientMaskFusionPass().run(b.graph,
                                                PassContext()).changed
        assert [n.op_type for n in b.graph.nodes].count("mask_mul") == 2

    def test_fusion_off_leaves_the_pair(self):
        from repro.models import build_model
        from repro.runtime.compiler import CompileOptions, compile_training

        forward = build_model("mcunet_micro", batch=2)

        def pairs(**options):
            graph = compile_training(
                forward, options=CompileOptions(**options)).graph
            producer = graph.producer_map()
            masked = sum(len(n.inputs) == 3 for n in graph.nodes
                         if n.op_type == "conv2d_dx")
            unfused = sum(producer[n.inputs[0]].op_type == "conv2d_dx"
                          for n in graph.nodes if n.op_type == "mask_mul")
            return masked, unfused

        assert pairs(fusion=False) == (0, 9)
        # 9 of 10: the tenth mask_mul follows an add
        assert pairs() == (9, 0)


class TestFoldingCseDce:
    def test_constant_folding_frozen_only(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (2, 3))
        frozen = b.initializer("frozen", np.ones((3,), np.float32))
        train = b.initializer("train", np.ones((2, 3), np.float32),
                              trainable=True)
        doubled = b.mul(frozen, b.constant(np.float32(2.0)))  # foldable
        scaled = b.mul(train, b.constant(np.float32(3.0)))    # trainable!
        out = b.add(b.add(x, doubled), scaled)
        b.mark_output(out)
        ctx = PassContext(updated_params={"train"})
        result = ConstantFoldingPass().run(b.graph, ctx)
        assert result.stats["folded"] == 1
        np.testing.assert_allclose(
            b.graph.initializers[doubled], 2 * np.ones(3), atol=1e-6)
        validate_graph(b.graph)

    def test_cse_merges_duplicates(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (2, 2))
        a1 = b.emit("relu", [x])
        a2 = b.emit("relu", [x])
        out = b.add(a1, a2)
        b.mark_output(out)
        result = CommonSubexpressionEliminationPass().run(b.graph,
                                                          PassContext())
        assert result.stats["removed"] == 1
        validate_graph(b.graph)
        got = interpret(b.graph, {"x": np.array([[1, -1], [2, -2]],
                                                np.float32)})
        np.testing.assert_allclose(got[out], [[2, 0], [4, 0]])

    def test_cse_respects_attrs(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (2, 4))
        s1 = b.reduce_sum(x, axes=(0,))
        s2 = b.reduce_sum(x, axes=(1,))
        b.mark_output(b.add(b.reshape(s1, (4,))[:0] if False else s1, s1))
        b.mark_output(s2)
        removed = CommonSubexpressionEliminationPass().run(
            b.graph, PassContext()).stats["removed"]
        assert removed == 0

    def test_dce_pass(self, rng):
        b, names = make_mlp_graph()
        b.emit("relu", [names["logits"]])
        result = DeadCodeEliminationPass().run(b.graph, PassContext())
        assert result.stats["removed"] == 1


class TestKernelSelect:
    def test_winograd_only_for_frozen_3x3_s1(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        w_frozen = b.initializer("wf", rng.standard_normal((4, 3, 3, 3))
                                 .astype(np.float32), trainable=True)
        w_train = b.initializer("wt", rng.standard_normal((4, 3, 3, 3))
                                .astype(np.float32), trainable=True)
        w_5x5 = b.initializer("w5", rng.standard_normal((4, 3, 5, 5))
                              .astype(np.float32))
        y1 = b.conv2d(x, w_frozen, padding=1)
        y2 = b.conv2d(x, w_train, padding=1)
        y3 = b.conv2d(x, w_5x5, padding=2)
        y4 = b.conv2d(x, w_frozen, stride=2, padding=1)
        for y in (y1, y2, y3, y4):
            b.mark_output(y)
        ctx = PassContext(updated_params={"wt"})
        result = WinogradSelectionPass().run(b.graph, ctx)
        algos = {n.outputs[0]: n.attrs.get("algo") for n in b.graph.nodes}
        assert algos[y1] == "winograd"
        assert algos[y2] is None       # trainable: transform not amortisable
        assert algos[y3] is None       # 5x5
        assert algos[y4] is None       # strided
        assert result.stats["winograd_convs"] == 1

    def test_winograd_numerically_safe(self, rng):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        w = b.initializer("w", rng.standard_normal((4, 3, 3, 3))
                          .astype(np.float32))
        y = b.conv2d(x, w, padding=1)
        b.mark_output(y)
        xa = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        before = interpret(b.graph, {"x": xa})[y]
        WinogradSelectionPass().run(b.graph, PassContext())
        after = interpret(b.graph, {"x": xa})[y]
        assert after.tobytes() == before.tobytes()

    @staticmethod
    def _one_conv(rng, w_shape, fed_weight=False, **conv):
        b = GraphBuilder("g")
        x = b.input("x", (1, 4, 8, 8))
        w = b.input("w", w_shape) if fed_weight else b.initializer(
            "w", rng.standard_normal(w_shape).astype(np.float32))
        b.mark_output(b.conv2d(x, w, **conv))
        return b.graph

    @pytest.mark.parametrize("w_shape,fed_weight,conv", [
        ((4, 2, 3, 3), False, {"padding": 1, "groups": 2}),
        ((4, 1, 3, 3), False, {"padding": 1, "groups": 4}),
        ((4, 4, 3, 3), True, {"padding": 1}),
        ((4, 4, 1, 3), False, {"padding": (0, 1)}),
        ((4, 4, 3, 1), False, {"padding": (1, 0)}),
        ((4, 4, 3, 3), False, {"padding": 1, "stride": (2, 1)}),
        ((4, 4, 3, 3), False, {"padding": 1, "stride": (1, 2)}),
    ], ids=["grouped", "depthwise", "fed_weight", "1x3", "3x1",
            "strided_rows", "strided_cols"])
    def test_winograd_skips(self, rng, w_shape, fed_weight, conv):
        """F(2x2,3x3) needs a dense 3x3 stride-1 conv over a weight the
        compile can see: anything else stays on the direct algorithm."""
        graph = self._one_conv(rng, w_shape, fed_weight, **conv)
        result = WinogradSelectionPass().run(graph, PassContext())
        assert [n.attrs.get("algo") for n in graph.nodes] == [None]
        assert result.stats["winograd_convs"] == 0 and not result.changed

    @pytest.mark.parametrize("conv", [
        {"padding": 0}, {"padding": (1, 0)}, {"padding": 1, "stride": (1, 1)},
    ], ids=["unpadded", "row_padded", "tuple_stride"])
    def test_winograd_selects_any_padding(self, rng, conv):
        graph = self._one_conv(rng, (4, 4, 3, 3), **conv)
        xa = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        [out] = graph.outputs
        before = interpret(graph, {"x": xa})[out]
        result = WinogradSelectionPass().run(graph, PassContext())
        assert [n.attrs.get("algo") for n in graph.nodes] == ["winograd"]
        assert result.stats["winograd_convs"] == 1 and result.changed
        assert interpret(graph, {"x": xa})[out].tobytes() == before.tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("model", ["mcunet_micro", "mobilenetv2_micro",
                                       "resnet_micro"])
    def test_annotation_changes_no_byte_on_the_zoo(self, model, batch):
        """The frozen 3x3 stride-1 dense convs the pass annotates (the
        stems, resnet's block convs) are priced for the device and run
        direct on the host: a paper-scheme step compiled with and without
        the pass gives the same outputs, state and plan peak."""
        from repro.models import build_model, paper_scheme
        from repro.runtime import Executor
        from repro.runtime.compiler import CompileOptions, compile_training
        from repro.train import SGD

        programs = []
        for winograd in (True, False):
            forward = build_model(model, batch=batch)
            programs.append(compile_training(
                forward, optimizer=SGD(0.05), scheme=paper_scheme(forward),
                options=CompileOptions(winograd=winograd)))
        annotated, direct = programs
        assert any(node.attrs.get("algo") == "winograd"
                   for node in annotated.schedule)
        assert annotated.plan_spec().peak_transient_bytes \
            == direct.plan_spec().peak_transient_bytes
        labels = annotated.meta["labels"]
        classes = annotated.graph.spec(annotated.meta["logits"]).shape[-1]
        feed_rng = np.random.default_rng(batch)
        runs = [Executor(annotated), Executor(direct)]
        for _ in range(2):
            feeds = {name: feed_rng.integers(0, classes, spec.shape)
                     if name == labels
                     else feed_rng.standard_normal(spec.shape)
                     .astype(np.float32)
                     for name, spec in ((name, annotated.graph.spec(name))
                                        for name in annotated.graph.inputs)}
            got, want = (run.run(feeds) for run in runs)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
        for name in direct.state:
            assert annotated.state[name].tobytes() \
                == direct.state[name].tobytes(), name

    def test_layout_pass_records_device_preference(self):
        from repro.devices import get_device

        b, _ = make_mlp_graph()
        ctx = PassContext(device=get_device("raspberry_pi_4"))
        LayoutSelectionPass().run(b.graph, ctx)
        assert b.graph.metadata["layout"] == "NHWC"


class TestScheduling:
    def test_memory_aware_is_valid_topological_order(self, rng):
        b, names = make_mlp_graph()
        schedule = memory_aware_schedule(b.graph)
        assert len(schedule) == len(b.graph.nodes)
        seen = set(b.graph.inputs) | set(b.graph.initializers)
        for node in schedule:
            assert all(i in seen for i in node.inputs)
            seen.update(node.outputs)

    def test_memory_aware_not_worse_than_default(self):
        from repro.memory import profile_memory
        from repro.models import build_model
        from repro.runtime.compiler import CompileOptions, compile_training
        from repro.train import SGD

        g = build_model("mcunet_micro", batch=2)
        program = compile_training(
            g, optimizer=SGD(0.1),
            options=CompileOptions(reorder=False, applies_last=True))
        naive = profile_memory(program.graph,
                               default_schedule(program.graph, True))
        smart = profile_memory(program.graph,
                               memory_aware_schedule(program.graph))
        assert smart.peak_transient_bytes <= naive.peak_transient_bytes

    def test_apply_ordering_respects_read_hazard(self):
        """An in-place update may not run before another reader of the
        parameter (write-after-read)."""
        b = GraphBuilder("g")
        x = b.input("x", (2, 2))
        w = b.initializer("w", np.ones((2, 2), np.float32), trainable=True)
        y1 = b.matmul(x, w)
        y2 = b.matmul(y1, w)  # second read of w
        grad = b.mul(y1, y1)
        upd = b.emit("apply_sgd", [w, grad], {"lr": 0.1})
        b.mark_output(y2)
        b.mark_output(upd)
        schedule = memory_aware_schedule(b.graph)
        order = {n.name: i for i, n in enumerate(schedule)}
        apply_node = next(n for n in schedule if n.op_type == "apply_sgd")
        for node in schedule:
            if node is not apply_node and "w" in node.inputs:
                assert order[node.name] < order[apply_node.name]

    def test_an_update_runs_before_a_pick_that_would_set_a_new_mark(self):
        """Ready together: an ``add`` freeing 64 B net of its 32 B result
        and an ``apply_sgd`` freeing a 4 B gradient. By delta alone the add
        goes first and its result exists beside both operands and the
        gradient (100 B); it would lift memory above the 68 B held so far,
        so the update — which allocates nothing — goes first (96 B)."""
        from repro.memory import profile_memory

        b = GraphBuilder("g")
        x = b.input("x", (8,))
        w = b.initializer("w", np.ones((1,), np.float32), trainable=True)
        grad = b.emit("reduce_sum", [x], {"axes": [0], "keepdims": True})
        p = b.emit("exp", [x])
        q = b.mul(p, w)  # the update waits for this read of w
        b.mark_output(b.emit("neg", [b.add(p, q)]))
        b.mark_output(b.emit("apply_sgd", [w, grad], {"lr": 0.1}))
        schedule = memory_aware_schedule(b.graph)
        order = [n.op_type for n in schedule]
        assert order.index("apply_sgd") < order.index("add")
        peak = profile_memory(b.graph, schedule).peak_transient_bytes
        assert peak == 96  # p, q and the add's result; the feed is dead

    def test_default_schedule_applies_last(self):
        b, names = make_mlp_graph()
        from repro.runtime.compiler import compile_training, CompileOptions
        from repro.train import SGD

        program = compile_training(
            b.graph, optimizer=SGD(0.1),
            options=CompileOptions(reorder=False, applies_last=True))
        tail_types = [n.op_type for n in program.schedule[-4:]]
        assert all(t == "apply_sgd" for t in tail_types)

    def test_pass_manager_runs_pipeline(self, rng):
        b, _ = conv_act_graph(rng)
        manager = PassManager([
            BiasActivationFusionPass(),
            DeadCodeEliminationPass(),
        ], debug=True)
        report = manager.run(b.graph)
        assert report["fuse_bias_act"].stats["fused"] == 1
