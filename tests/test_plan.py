"""Plan-vs-interpreter equivalence suite.

The compiled execution plan must be observationally identical to the legacy
interpreter: byte-identical outputs, byte-identical mutable state after any
number of steps, and the exact same ``peak_transient_bytes`` (which the
memory tests in turn cross-check against the analytical profiler). Every
test here runs both backends side by side over independent state copies.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.ir import GraphBuilder
from repro.runtime import Executor, Program, build_plan
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import (LoRAConfig, UpdateScheme, full_update, inject_lora,
                          lora_scheme)
from repro.train import SGD, Adam, Lion

from conftest import make_mlp_graph


def fork(program):
    """An independent replica of ``program``: shared plan, private state."""
    return program.with_state(
        {name: array.copy() for name, array in program.state.items()})


def shares_no_bytes(spec) -> bool:
    """Does every value of ``spec`` own its bytes (no alias, no in-place
    reuse)? Then the plan's peak is the interpreter's exactly."""
    return not spec.aliases \
        and all(instr.reuse_slot < 0 for instr in spec.instructions)


def assert_equivalent(program, feeds_fn, steps=4):
    """Run plan and interpreter side by side; everything must match.

    Outputs and mutable state must be byte-identical on every step. The
    interpreter's measured peak bounds the plan's: the ``passes="none"``
    lowering equals it when it has no alias and no in-place reuse (the
    interpreter charges a view or a reused buffer beside the bytes it
    shares; the plan counts them once), and the optimized default plan's
    peak may only be lower — fused chains eliminate intermediates the
    interpreter still materialises.
    """
    from repro.runtime import build_plan_spec

    plan_prog = fork(program)
    int_prog = fork(program)
    ex_plan = Executor(plan_prog)  # the default backend
    ex_int = Executor(int_prog, backend="interpreter")
    baseline = build_plan_spec(program, passes="none")
    for step in range(steps):
        feeds = feeds_fn(step)
        out_plan = ex_plan.run(feeds)
        out_int = ex_int.run(feeds)
        assert set(out_plan) == set(out_int)
        for name in out_int:
            assert out_plan[name].dtype == out_int[name].dtype, name
            np.testing.assert_array_equal(out_plan[name], out_int[name],
                                          err_msg=f"output {name} step {step}")
        if shares_no_bytes(baseline):
            assert baseline.peak_transient_bytes \
                == ex_int.peak_transient_bytes
        else:
            assert baseline.peak_transient_bytes \
                <= ex_int.peak_transient_bytes
        assert ex_plan.peak_transient_bytes <= ex_int.peak_transient_bytes
        for name in int_prog.state:
            np.testing.assert_array_equal(
                plan_prog.state[name], int_prog.state[name],
                err_msg=f"state {name} diverged at step {step}")
    return ex_plan


class TestMLPTraining:
    @pytest.mark.parametrize("opt", [SGD(0.2), SGD(0.1, momentum=0.9),
                                     SGD(0.1, weight_decay=0.01),
                                     Adam(0.01), Lion(0.01)])
    def test_full_update(self, opt, rng):
        b, _ = make_mlp_graph(seed=1)
        program = compile_training(b.graph, optimizer=opt)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = np.array([0, 1, 2, 0], np.int64)
        assert_equivalent(program, lambda step: {"x": x, "labels": y},
                          steps=5)

    @pytest.mark.parametrize("scheme", [
        UpdateScheme("bias", {"b1": 1.0, "b2": 1.0}),
        UpdateScheme("channel", {"w1": 0.5, "w2": 1.0, "b2": 1.0}),
    ])
    def test_sparse_schemes(self, scheme, rng):
        b, _ = make_mlp_graph(din=8, seed=2)
        program = compile_training(b.graph, optimizer=SGD(0.2),
                                   scheme=scheme)
        xs = [rng.standard_normal((4, 8)).astype(np.float32)
              for _ in range(4)]
        y = np.array([0, 1, 2, 0], np.int64)
        assert_equivalent(program, lambda step: {"x": xs[step], "labels": y})

    def test_accumulation_and_momentum(self, rng):
        b, _ = make_mlp_graph(seed=3)
        program = compile_training(
            b.graph, optimizer=SGD(0.1, momentum=0.9, accum_steps=2))
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = np.array([1, 0, 2, 1], np.int64)
        assert_equivalent(program, lambda step: {"x": x, "labels": y},
                          steps=6)


class TestConvAndSparseBP:
    def test_cnn_sparse_training(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)

        forward = build_sequential([
            Conv2D(8, 3, padding="same", activation="relu"),
            Conv2D(8, 3, strides=2, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=5)
        params = sorted(forward.trainable)
        scheme = UpdateScheme("tail", {params[-1]: 1.0, params[-2]: 1.0})
        program = compile_training(forward, optimizer=SGD(0.1),
                                   scheme=scheme)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        y = np.array([0, 3], np.int64)
        labels = program.meta["labels"]
        assert_equivalent(program,
                          lambda step: {forward.inputs[0]: x, labels: y})

    def test_mcunet_paper_scheme(self, rng):
        from repro.models import build_model, paper_scheme

        forward = build_model("mcunet_micro", batch=2)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        x = rng.standard_normal(
            forward.spec(forward.inputs[0]).shape).astype(np.float32)
        y = rng.integers(0, 10, 2).astype(np.int64)
        labels = program.meta["labels"]
        assert_equivalent(program,
                          lambda step: {forward.inputs[0]: x, labels: y},
                          steps=3)


class TestInt8AndLoRA:
    def test_int8_inference(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)
        from repro.quant import collect_ranges, quantize_inference_graph

        forward = build_sequential([
            Conv2D(6, 3, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=7)
        calib = [{forward.inputs[0]:
                  rng.standard_normal((2, 3, 8, 8)).astype(np.float32)}
                 for _ in range(2)]
        int8 = quantize_inference_graph(forward,
                                        collect_ranges(forward, calib))
        program = Program.from_graph(int8)
        assert_equivalent(program, lambda step: calib[0], steps=2)

    def test_lora_training(self, rng):
        from repro.models import build_model

        base = build_model("bert_micro", batch=2, seq_len=8, num_classes=2)
        lora = inject_lora(base, LoRAConfig(rank=2))
        program = compile_training(lora, optimizer=SGD(0.1),
                                   scheme=lora_scheme(lora))
        ids = rng.integers(0, 50, base.spec(base.inputs[0]).shape)
        feeds = {base.inputs[0]: ids.astype(np.int64),
                 program.meta["labels"]: rng.integers(0, 2, 2).astype(
                     np.int64)}
        assert_equivalent(program, lambda step: feeds, steps=3)


class TestEdgeSemantics:
    def test_state_aliasing_views_materialised(self, rng):
        """transpose(param) must not observe the in-place update the apply
        node performs later in the same (reordered) step."""
        b = GraphBuilder("alias")
        x = b.input("x", (4, 6))
        w = b.initializer("w", rng.standard_normal((3, 6))
                          .astype(np.float32), trainable=True)
        wt = b.emit("transpose", [w], {"perm": (1, 0)})
        logits = b.matmul(x, wt)
        b.mark_output(logits)
        program = compile_training(b.graph, optimizer=SGD(0.5),
                                   scheme=full_update(b.graph))
        xv = rng.standard_normal((4, 6)).astype(np.float32)
        y = np.array([0, 1, 2, 0], np.int64)
        labels = program.meta["labels"]
        ex = assert_equivalent(program, lambda step: {"x": xv, labels: y},
                               steps=4)
        # and the plan decided it statically: a view of state is a copy
        # into its own slab slot, never an alias or a runtime view
        spec = ex.plan.spec
        in_slab = {entry.slot for entry in spec.slab_slots}
        state_slots = {slot for slot, _ in spec.state_bindings}
        assert not any(alias.base in state_slots for alias in spec.aliases)
        for ins in spec.instructions:
            if ins.kernel in ("transpose", "reshape", "slice") \
                    and set(ins.input_slots) & state_slots:
                assert ins.mode == "out"
                assert set(ins.output_slots) <= in_slab

    def test_dead_outputs_freed_identically(self):
        b = GraphBuilder("dead")
        x = b.input("x", (16, 16))
        b.emit("relu", [x])        # dead: nobody consumes, not an output
        y = b.emit("tanh", [x])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        assert_equivalent(program,
                          lambda step: {"x": np.ones((16, 16), np.float32)},
                          steps=3)

    def test_unknown_feed_rejected_on_both_backends(self):
        b, _ = make_mlp_graph()
        program = Program.from_graph(b.graph)
        feeds = {"x": np.ones((4, 5), np.float32),
                 "bogus": np.ones(3, np.float32)}
        for backend in ("plan", "interpreter"):
            with pytest.raises(ExecutionError, match="unknown feed"):
                Executor(program, backend=backend).run(feeds)

    def test_feed_errors_keep_their_messages(self):
        """The per-executor feed table reports exactly what the per-step
        graph lookups reported."""
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        labels = program.meta["labels"]
        good = {"x": np.ones((4, 5), np.float32),
                labels: np.zeros(program.graph.spec(labels).shape,
                                 program.graph.spec(labels).dtype.np)}
        for backend in ("plan", "interpreter"):
            executor = Executor(program, backend=backend)
            with pytest.raises(ExecutionError) as missing:
                executor.run({"x": good["x"]})
            assert str(missing.value) \
                == f"missing feed for graph input {labels!r}"
            with pytest.raises(ExecutionError) as shape:
                executor.run({**good, "x": np.ones((5, 4))})
            assert str(shape.value) \
                == "feed 'x' has shape (5, 4), expected (4, 5)"
            with pytest.raises(ExecutionError) as unknown:
                executor.run({**good, "zz": 1, "aa": 2})
            assert str(unknown.value) == (
                "unknown feed name(s) ['aa', 'zz']; graph inputs are "
                f"{sorted(['x', labels])}")
            # float64 in, the graph's float32 through: coerced, not refused
            executor.run({**good, "x": np.ones((4, 5))})

    def test_outputs_survive_later_steps(self, rng):
        """Arrays returned from step k must never be clobbered by the
        slab of step k+1 (returned outputs are copied out of it)."""
        b, names = make_mlp_graph(seed=4)
        program = Program.from_graph(b.graph)
        ex = Executor(program)
        x1 = rng.standard_normal((4, 5)).astype(np.float32)
        x2 = rng.standard_normal((4, 5)).astype(np.float32)
        out1 = ex.run({"x": x1})[names["logits"]]
        snapshot = out1.copy()
        ex.run({"x": x2})
        ex.run({"x": x2})
        np.testing.assert_array_equal(out1, snapshot)


class TestPlanStructure:
    def test_plan_shared_across_state_overlays(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        overlay = program.with_state(
            {name: arr.copy() for name, arr in program.state.items()})
        assert program.plan() is overlay.plan()

    def test_compiler_prebuilds_plan(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        assert "__plan__" in program.meta

    def test_plan_static_accounting_matches_profiler(self):
        from repro.memory import profile_memory
        from repro.runtime import build_plan_spec

        b, _ = make_mlp_graph(batch=8, din=12, dhidden=16, dout=4)
        program = compile_training(b.graph, optimizer=SGD(0.1))
        profile = profile_memory(program.graph, program.schedule)
        # The unoptimized lowering replicates the analytic profiler
        # exactly; the optimized default can only shave the peak.
        assert build_plan_spec(program, passes="none").peak_transient_bytes \
            == profile.peak_transient_bytes
        assert program.plan_spec().peak_transient_bytes \
            <= profile.peak_transient_bytes

    def test_bad_schedule_rejected_at_build(self):
        b, _ = make_mlp_graph()
        program = Program.from_graph(b.graph)
        program.schedule.reverse()
        program.meta.pop("__plan__", None)
        with pytest.raises(ExecutionError):
            build_plan(program)

    def test_unknown_backend_rejected(self):
        b, _ = make_mlp_graph()
        with pytest.raises(ValueError):
            Executor(Program.from_graph(b.graph), backend="jit")

    def test_steady_state_allocations_reach_floor(self, rng):
        """From the first step on every into-form writes the slab: the only
        arrays a step allocates are the results of kernels without one
        (copied into the slab) — a static count, read off the plan."""
        b, _ = make_mlp_graph(seed=6)
        program = compile_training(b.graph, optimizer=SGD(0.1))
        ex = Executor(program)
        feeds = {"x": rng.standard_normal((4, 5)).astype(np.float32),
                 "labels": np.array([0, 1, 2, 0], np.int64)}
        ex.run(feeds)
        first = ex.last_step_fresh_allocs
        for _ in range(3):
            ex.run(feeds)
        floor = sum(len(i.output_slots) for i in ex.plan.spec.instructions
                    if i.mode == "copy")
        assert ex.last_step_fresh_allocs == floor == first
        assert not any(i.mode == "base" and not i.kernel.startswith("apply_")
                       for i in ex.plan.spec.instructions)
        ex_int = Executor(program, backend="interpreter")
        ex_int.run(feeds)
        assert ex_int.last_step_fresh_allocs > ex.last_step_fresh_allocs
