"""Pass-pipeline equivalence suite (`repro.runtime.passes`).

Every optimization pass must be a pure lowering decision: byte-identical
outputs and mutable state against the interpreter (and against
``passes="none"``) for any program, under any on/off combination —
including scalar-constant folding and the autotune variant-selection
pass. On top of that, the structural claims: fused chains really remove
instructions and slots, precomputed transforms really bind once per
session, donation never hands a fused chain a buffer a later link still
reads, autotuning is deterministic, and version-1/2 plan specs still
load through the compat shims.
"""

from __future__ import annotations

from dataclasses import replace

import json

import numpy as np
import pytest

from repro.errors import ExecutionError, PlanVersionError
from repro.ir import GraphBuilder
from repro.runtime import Executor, PlanSpec, Program, bind_plan, \
    build_plan_spec
from repro.runtime.compiler import CompileOptions, compile_training
from repro.runtime.passes import DEFAULT_PASSES, resolve_passes, run_pipeline
from repro.sparse import LoRAConfig, UpdateScheme, inject_lora, lora_scheme
from repro.train import SGD

from conftest import make_mlp_graph

PASS_CONFIGS = ["none", "default",
                ("fuse_elementwise",), ("precompute_frozen",),
                ("fuse_elementwise", "fold_scalars"),
                ("fuse_elementwise", "fold_scalars", "precompute_frozen",
                 "autotune")]


def with_passes(program, passes):
    """An independent lowering of ``program`` under a pass config.

    Shares graph/schedule, gets private state and a private meta (so the
    cached plan of one config never leaks into another).
    """
    meta = {k: v for k, v in program.meta.items()
            if k not in ("__plan__", "__plan_spec__")}
    meta["plan_passes"] = passes
    return replace(program, meta=meta,
                   state={n: a.copy() for n, a in program.state.items()})


def assert_all_configs_equivalent(program, feeds_fn, steps=3):
    """Each pass config must match the interpreter byte-for-byte."""
    ex_int = Executor(with_passes(program, "none"), backend="interpreter")
    runners = {cfg: Executor(with_passes(program, cfg))
               for cfg in PASS_CONFIGS}
    for step in range(steps):
        feeds = feeds_fn(step)
        want = ex_int.run(feeds)
        for cfg, ex in runners.items():
            got = ex.run(feeds)
            assert set(got) == set(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), \
                    f"passes={cfg} output {name} step {step}"
            for name in ex_int.program.state:
                assert ex.program.state[name].tobytes() \
                    == ex_int.program.state[name].tobytes(), \
                    f"passes={cfg} state {name} step {step}"
            assert ex.peak_transient_bytes <= ex_int.peak_transient_bytes
    return runners


class TestEquivalenceMatrix:
    def test_mlp_training(self, rng):
        b, _ = make_mlp_graph(seed=11)
        program = compile_training(b.graph, optimizer=SGD(0.2))
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = np.array([0, 1, 2, 0], np.int64)
        assert_all_configs_equivalent(
            program, lambda step: {"x": x, "labels": y}, steps=4)

    def test_cnn_sparse_training_with_frozen_winograd(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)

        forward = build_sequential([
            Conv2D(8, 3, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=13)
        params = sorted(forward.trainable)
        # Train only the dense tail: the 3x3 conv freezes -> winograd.
        scheme = UpdateScheme("tail", {params[-1]: 1.0, params[-2]: 1.0})
        program = compile_training(forward, optimizer=SGD(0.1),
                                   scheme=scheme)
        assert any(n.attrs.get("algo") == "winograd"
                   for n in program.schedule), "fixture lost its winograd"
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        y = np.array([0, 3], np.int64)
        labels = program.meta["labels"]
        runners = assert_all_configs_equivalent(
            program, lambda step: {forward.inputs[0]: x, labels: y})
        spec = runners["default"].program.plan_spec()
        assert len(spec.precomputed) == 1
        assert spec.precomputed[0].transform == "winograd_weight"
        assert spec.precomputed_bytes > 0

    def test_int8_inference(self, rng):
        from repro.frontend.keras_like import (Conv2D, Dense,
                                               GlobalAveragePooling2D,
                                               build_sequential)
        from repro.quant import collect_ranges, quantize_inference_graph

        forward = build_sequential([
            Conv2D(6, 3, padding="same", activation="relu"),
            GlobalAveragePooling2D(),
            Dense(4),
        ], input_shape=(2, 3, 8, 8), seed=17)
        calib = [{forward.inputs[0]:
                  rng.standard_normal((2, 3, 8, 8)).astype(np.float32)}
                 for _ in range(2)]
        int8 = quantize_inference_graph(forward,
                                        collect_ranges(forward, calib))
        program = Program.from_graph(int8)
        assert_all_configs_equivalent(program, lambda step: calib[0],
                                      steps=2)

    def test_lora_training(self, rng):
        from repro.models import build_model

        base = build_model("bert_micro", batch=2, seq_len=8, num_classes=2)
        lora = inject_lora(base, LoRAConfig(rank=2))
        program = compile_training(lora, optimizer=SGD(0.1),
                                   scheme=lora_scheme(lora))
        ids = rng.integers(0, 50, base.spec(base.inputs[0]).shape)
        feeds = {base.inputs[0]: ids.astype(np.int64),
                 program.meta["labels"]:
                 rng.integers(0, 2, 2).astype(np.int64)}
        assert_all_configs_equivalent(program, lambda step: feeds, steps=2)


class TestFusionStructure:
    def _chain_program(self):
        b = GraphBuilder("chain")
        x = b.input("x", (16, 16))
        h = b.emit("relu", [x])
        h = b.emit("tanh", [h])
        h = b.emit("sigmoid", [h])
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        return Program.from_graph(b.graph)

    def test_chain_collapses_instructions_and_slots(self):
        program = self._chain_program()
        fused = build_plan_spec(program, passes="default")
        none = build_plan_spec(program, passes="none")
        assert len(fused.instructions) < len(none.instructions)
        assert fused.num_slots < none.num_slots
        chain = [i for i in fused.instructions if i.fused is not None]
        assert len(chain) == 1
        assert [link.kernel for link in chain[0].fused] \
            == ["relu", "tanh", "sigmoid"]
        assert fused.passes == DEFAULT_PASSES
        assert none.passes == ()

    def test_fused_chain_runs_byte_identically(self, rng):
        program = self._chain_program()
        feeds = {"x": rng.standard_normal((16, 16)).astype(np.float32)}
        ex = Executor(with_passes(program, "default"))
        ex_int = Executor(with_passes(program, "none"),
                          backend="interpreter")
        for _ in range(4):  # recycled buffers carry garbage across steps
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

    def test_output_values_never_fused_away(self, rng):
        """A chain intermediate marked as a program output must
        materialise, capping the chain."""
        b = GraphBuilder("keepmid")
        x = b.input("x", (8, 8))
        h1 = b.emit("relu", [x])
        h2 = b.emit("tanh", [h1])
        b.mark_output(h1)
        b.mark_output(h2)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        assert all(i.fused is None for i in spec.instructions)
        feeds = {"x": rng.standard_normal((8, 8)).astype(np.float32)}
        got = Executor(program).run(feeds)
        want = Executor(Program.from_graph(b.graph),
                        backend="interpreter").run(feeds)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    def test_broadcast_into_chain_fuses(self, rng):
        """bias_add broadcasts its bias *into* a link; the carried value
        keeps its shape, so the chain is legal."""
        b = GraphBuilder("bcast")
        x = b.input("x", (4, 6))
        bias = b.initializer("bias", np.arange(6, dtype=np.float32))
        h = b.emit("bias_add", [x, bias], {"axis": 1})
        h = b.emit("relu", [h])
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        chain = [i for i in spec.instructions if i.fused is not None]
        assert len(chain) == 1
        assert [link.kernel for link in chain[0].fused] \
            == ["bias_add", "relu"]
        feeds = {"x": rng.standard_normal((4, 6)).astype(np.float32)}
        got = Executor(program).run(feeds)
        want = Executor(Program.from_graph(b.graph),
                        backend="interpreter").run(feeds)
        out = program.outputs[0]
        assert got[out].tobytes() == want[out].tobytes()

    def test_shape_changing_intermediate_blocks_chain(self, rng):
        """A link whose carried value would change shape mid-chain (here
        (6,) -> broadcast to (4, 6)) must not fuse."""
        b = GraphBuilder("grow")
        x = b.input("x", (4, 6))
        v = b.input("v", (6,))
        s = b.emit("exp", [v])          # (6,)
        h = b.emit("add", [x, s])       # (4, 6): shape grows at this link
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        assert all(i.fused is None for i in spec.instructions)
        feeds = {"x": rng.standard_normal((4, 6)).astype(np.float32),
                 "v": rng.standard_normal(6).astype(np.float32)}
        got = Executor(program).run(feeds)
        want = Executor(Program.from_graph(b.graph),
                        backend="interpreter").run(feeds)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    def test_repeated_chain_value_fuses(self, rng):
        """mul(h, h) consumes the chain value twice — both occurrences in
        the sole next instruction, so the chain is legal."""
        b = GraphBuilder("square")
        x = b.input("x", (8, 8))
        h = b.emit("tanh", [x])
        m = b.emit("mul", [h, h])
        y = b.emit("reduce_sum", [m])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        chain = [i for i in spec.instructions if i.fused is not None]
        assert len(chain) == 1
        assert chain[0].fused[1].args == (None, None)
        feeds = {"x": rng.standard_normal((8, 8)).astype(np.float32)}
        ex = Executor(program)
        ex_int = Executor(Program.from_graph(b.graph),
                          backend="interpreter")
        for _ in range(3):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()


class TestDonationInterplay:
    def test_later_link_reader_blocks_donation(self, rng):
        """An input a *later* link still reads must never share the
        chain's output bytes — the first link's write would clobber it."""
        b = GraphBuilder("nodonate")
        x = b.input("x", (32, 32))
        t = b.emit("tanh", [x])         # materialised: two consumers below
        r = b.emit("relu", [t])
        m = b.emit("mul", [r, t])       # chain [relu, mul]; t read by mul
        y = b.emit("reduce_sum", [m])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        chain = [i for i in spec.instructions if i.fused is not None]
        assert len(chain) == 1
        assert [link.kernel for link in chain[0].fused] == ["relu", "mul"]
        # t dies at the fused instruction and matches the output's shape —
        # its bytes would be reused if the safety rule did not block it.
        assert chain[0].reuse_slot == -1
        ex = Executor(program)
        ex_int = Executor(Program.from_graph(b.graph),
                          backend="interpreter")
        feeds = {"x": rng.standard_normal((32, 32)).astype(np.float32)}
        for _ in range(4):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

    def test_first_link_only_input_is_donated(self, rng):
        """A dying input read only by the first link is safe to reuse:
        the chain writes over it exactly as an alias-safe out= would."""
        b = GraphBuilder("donate")
        x = b.input("x", (16, 16))
        w = b.initializer(
            "w", np.eye(16, dtype=np.float32), trainable=False)
        p = b.matmul(x, w)              # materialised, recyclable producer
        h = b.emit("relu", [p])
        h = b.emit("tanh", [h])
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        program = Program.from_graph(b.graph)
        spec = build_plan_spec(program, passes="default")
        chain = [i for i in spec.instructions if i.fused is not None]
        assert len(chain) == 1
        assert chain[0].reuse_slot >= 0
        offsets = {e.slot: e.offset for e in spec.slab_slots}
        assert offsets[chain[0].reuse_slot] \
            == offsets[chain[0].output_slots[0]]
        ex = Executor(program)
        ex_int = Executor(Program.from_graph(b.graph),
                          backend="interpreter")
        feeds = {"x": rng.standard_normal((16, 16)).astype(np.float32)}
        for _ in range(4):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()


def _frozen_conv_program():
    """Training step whose 3x3 conv is frozen -> winograd + precompute."""
    from repro.frontend.keras_like import (Conv2D, Dense,
                                           GlobalAveragePooling2D,
                                           build_sequential)

    forward = build_sequential([
        Conv2D(8, 3, padding="same", activation="relu"),
        GlobalAveragePooling2D(),
        Dense(4),
    ], input_shape=(2, 3, 8, 8), seed=23)
    params = sorted(forward.trainable)
    scheme = UpdateScheme("tail", {params[-1]: 1.0, params[-2]: 1.0})
    return compile_training(forward, optimizer=SGD(0.1), scheme=scheme)


class TestPrecomputeFrozen:
    def test_transform_computed_once_per_session(self, rng):
        program = _frozen_conv_program()
        spec = program.plan_spec()
        assert len(spec.precomputed) == 1
        entry = spec.precomputed[0]
        ex = Executor(program)
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                 program.meta["labels"]: np.array([0, 1], np.int64)}
        ex.run(feeds)
        first = ex._precomputed[entry.slot][1]
        assert first.shape == entry.shape
        ex.run(feeds)
        assert ex._precomputed[entry.slot][1] is first  # cached, not redone

    def test_overlayed_frozen_weights_recompute(self, rng):
        """A with_state overlay swapping the frozen weight must invalidate
        the cached transform (identity keying) — and the overlaid session
        must then match a from-scratch session bit for bit."""
        program = _frozen_conv_program()
        entry = program.plan_spec().precomputed[0]
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                 program.meta["labels"]: np.array([0, 1], np.int64)}
        ex = Executor(program.with_state(
            {n: a.copy() for n, a in program.state.items()}))
        ex.run(feeds)
        first = ex._precomputed[entry.slot][1]
        new_w = rng.standard_normal(
            program.state[entry.state].shape).astype(np.float32)
        overlay = {n: a.copy() for n, a in program.state.items()}
        overlay[entry.state] = new_w
        ex.program = program.with_state(overlay)
        got = ex.run(feeds)[program.meta["loss"]]
        assert ex._precomputed[entry.slot][1] is not first
        fresh_overlay = {n: a.copy() for n, a in program.state.items()}
        fresh_overlay[entry.state] = new_w.copy()
        fresh = Executor(program.with_state(fresh_overlay))
        want = fresh.run(feeds)[program.meta["loss"]]
        assert got.tobytes() == want.tobytes()

    def test_precomputed_variant_in_required_kernels(self):
        program = _frozen_conv_program()
        spec = program.plan_spec()
        assert "winograd_precomputed" in spec.required_kernels()["conv2d"]
        assert spec.required_transforms() == {"winograd_weight"}


def _mcunet_sparse_program(**option_kwargs):
    from repro.models import build_model, paper_scheme

    forward = build_model("mcunet_micro", batch=2)
    options = CompileOptions(**option_kwargs) if option_kwargs else None
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward), options=options)


class TestFoldScalarsStructure:
    def test_mcunet_folds_scalars_and_meets_instruction_budget(self):
        """The second-wave pipeline target: fusion plus constant folding
        push the MCUNet sparse step under 99 instructions, with scalar
        hyperparameters spliced as const args instead of occupying
        slots."""
        spec = _mcunet_sparse_program().plan_spec()
        assert len(spec.instructions) < 99
        folded = sum(len(i.const_args) for i in spec.instructions)
        assert folded > 0
        const_names = {name for i in spec.instructions
                       for _, name in i.const_args}
        bound_names = {name for _, name in spec.state_bindings}
        # A folded-only scalar holds no slot; nothing is double-bound.
        assert not (const_names & bound_names)

    def test_default_pipeline_keeps_oracle_peak(self):
        """The default pipeline's peak transient never exceeds the
        unoptimized plan's, nor do its instructions or the arrays a warm
        step allocates outside the slab."""
        program = _mcunet_sparse_program()
        tuned = program.plan_spec()
        oracle = build_plan_spec(_mcunet_sparse_program(), passes="none")
        assert tuned.peak_transient_bytes <= oracle.peak_transient_bytes
        assert len(tuned.instructions) <= len(oracle.instructions)
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: np.ones(program.graph.spec(name).shape, np.float32),
                 program.meta["labels"]: np.array([1, 2], np.int64)}
        allocs = []
        for passes in ("default", "none"):
            executor = Executor(with_passes(program, passes))
            for _ in range(2):
                executor.run(feeds)
            allocs.append(executor.last_step_fresh_allocs)
        assert allocs[0] <= allocs[1]


class TestAutotune:
    def test_cost_mode_is_deterministic(self):
        """Same program, same options -> byte-identical PlanSpec JSON,
        compile after compile (no wall-clock in the ranking)."""
        docs = []
        for _ in range(2):
            spec = _mcunet_sparse_program(autotune="cost").plan_spec()
            docs.append(json.dumps(spec.to_dict(), sort_keys=True))
        assert docs[0] == docs[1]
        spec = PlanSpec.from_dict(json.loads(docs[0]))
        assert any(t.variant != "base" for t in spec.tuned_variants)
        assert all(t.source == "cost" for t in spec.tuned_variants)
        assert all(t.predicted_us >= 0 for t in spec.tuned_variants)
        assert "autotune" in spec.passes
        # tuning picks variants; it never lengthens the stream
        default = _mcunet_sparse_program().plan_spec()
        assert len(spec.instructions) <= len(default.instructions)

    def test_cost_mode_byte_exact_vs_oracle(self, rng):
        program = _mcunet_sparse_program(autotune="cost")
        oracle = _mcunet_sparse_program()
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal(
            program.graph.spec(name).shape).astype(np.float32),
                 program.meta["labels"]: np.array([1, 2], np.int64)}
        ex = Executor(program)
        ex_int = Executor(with_passes(oracle, "none"),
                          backend="interpreter")
        for _ in range(3):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes()
        for key in ex_int.program.state:
            assert ex.program.state[key].tobytes() \
                == ex_int.program.state[key].tobytes()

    def test_measure_mode_byte_exact_and_caches_benchmarks(self, rng):
        from repro.runtime.passes.autotune import (clear_measure_cache,
                                                   measure_cache_stats)

        clear_measure_cache()
        program = _mcunet_sparse_program(autotune="measure")
        spec = program.plan_spec()
        assert spec.tuned_variants
        assert all(t.source == "measure" for t in spec.tuned_variants)
        assert all(t.measured_us is not None and t.measured_us >= 0
                   for t in spec.tuned_variants)
        entries = measure_cache_stats()["entries"]
        assert entries > 0
        # Repeat compile: every (op, variant, shapes, dtype) timing is
        # served from the cache — no new microbenchmarks run.
        _mcunet_sparse_program(autotune="measure").plan_spec()
        assert measure_cache_stats()["entries"] == entries

        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal(
            program.graph.spec(name).shape).astype(np.float32),
                 program.meta["labels"]: np.array([0, 1], np.int64)}
        got = Executor(program).run(feeds)
        want = Executor(with_passes(_mcunet_sparse_program(), "none"),
                        backend="interpreter").run(feeds)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()

    def test_none_pipeline_is_never_tuned(self):
        """``passes="none"`` stays the untouched byte-exactness oracle
        even when the compile asks for autotuning."""
        program = _mcunet_sparse_program(autotune="cost",
                                         plan_passes="none")
        spec = program.plan_spec()
        assert spec.passes == ()
        assert spec.tuned_variants == ()
        assert spec.precomputed == ()
        assert all(i.fused is None and not i.const_args
                   for i in spec.instructions)

    def test_autotune_separates_program_keys(self):
        from repro.serve.keys import program_key
        from repro.models import build_model, paper_scheme

        forward = build_model("mcunet_micro", batch=2)
        base = dict(scheme=paper_scheme(forward), optimizer=SGD(0.05))
        k_plain = program_key(forward, options=CompileOptions(), **base)
        k_tuned = program_key(
            forward, options=CompileOptions(autotune="cost"), **base)
        k_device = program_key(
            forward, options=CompileOptions(autotune="cost",
                                            autotune_device="jetson_nano"),
            **base)
        assert len({k_plain, k_tuned, k_device}) == 3

    def test_tuned_variants_reach_manifest_and_probe(self, tmp_path):
        from repro.deploy import load_artifact, save_artifact

        program = _mcunet_sparse_program(autotune="cost")
        spec = program.plan_spec()
        save_artifact(program, tmp_path / "tuned")
        manifest = json.loads(
            (tmp_path / "tuned" / "manifest.json").read_text())
        assert manifest["tuned_variants"] \
            == {t.node: t.variant for t in spec.tuned_variants}
        deployed = load_artifact(tmp_path / "tuned")
        assert deployed.program.plan_spec().tuned_variants \
            == spec.tuned_variants


class TestPretransposedMatmul:
    def _trans_b_program(self, rng):
        b = GraphBuilder("transb")
        x = b.input("x", (4, 8))
        b.initializer("w", rng.standard_normal((16, 8)).astype(np.float32),
                      trainable=False)
        h = b.emit("matmul", ["x", "w"], {"trans_b": True})
        y = b.emit("reduce_sum", [h])
        b.mark_output(y)
        return Program.from_graph(b.graph)

    def test_frozen_trans_b_operand_is_pretransposed(self, rng):
        program = self._trans_b_program(rng)
        spec = build_plan_spec(program, passes=("precompute_frozen",))
        assert len(spec.precomputed) == 1
        assert spec.precomputed[0].transform == "transpose_last2"
        assert spec.precomputed[0].shape == (8, 16)
        assert "pretransposed_b" in spec.required_kernels()["matmul"]

    def test_pretransposed_runs_byte_identically(self, rng):
        program = self._trans_b_program(rng)
        feeds = {"x": rng.standard_normal((4, 8)).astype(np.float32)}
        ex = Executor(with_passes(program, ("precompute_frozen",)))
        ex_int = Executor(with_passes(program, "none"),
                          backend="interpreter")
        for _ in range(3):
            got = ex.run(feeds)
            want = ex_int.run(feeds)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

    def test_placeholder_state_is_never_probed(self, rng, monkeypatch):
        """``materialize_state=False`` over lazy init (how ``repro memory``
        compiles a paper-scale model) leaves zero-stride placeholders as
        state: the probe would run a full-size GEMM pair on bytes that
        decide nothing, so it is not entered and the base kernel stays.
        The same small shape materialised is probed and hoisted."""
        import importlib

        module = importlib.import_module(
            "repro.runtime.passes.precompute_frozen")
        probed = []

        def probe(ctx, op, b):
            probed.append(b)
            return real(ctx, op, b)

        real = module._pretransposed_probe
        monkeypatch.setattr(module, "_pretransposed_probe", probe)

        program = self._trans_b_program(rng)
        lazy = replace(program, state={
            "w": np.broadcast_to(np.float32(0.0), (16, 8))})
        spec = build_plan_spec(lazy, passes=("precompute_frozen",))
        assert probed == [] and spec.precomputed == ()
        build_plan_spec(program, passes=("precompute_frozen",))
        assert len(probed) == 1 and probed[0] is program.state["w"]

    def test_a_graph_only_llama_compiles_without_a_probe_or_a_copy(
            self, monkeypatch):
        """The same through the front door, on ``llama_micro`` built lazily
        as ``llama7b`` is: no probe, and the merged Q/K/V weight of
        ``parallel_fusion`` is still a placeholder, not a concatenated
        copy."""
        import importlib

        from repro.models import build_model, paper_scheme

        module = importlib.import_module(
            "repro.runtime.passes.precompute_frozen")
        monkeypatch.setattr(
            module, "_pretransposed_probe",
            lambda *args: pytest.fail("probed a placeholder"))
        forward = build_model("llama_micro", batch=1, lazy=True)
        program = compile_training(
            forward, optimizer=SGD(0.01), scheme=paper_scheme(forward),
            options=CompileOptions(materialize_state=False))
        merged = [array for name, array in program.state.items()
                  if name.endswith(".qkv")]
        assert merged and all(not any(a.strides) for a in merged)
        assert program.plan_spec().precomputed == ()

    def test_cost_model_keeps_the_variant(self, rng):
        """The strided-GEMM penalty on base trans_b matmuls makes the
        pretransposed variant win the cost ranking."""
        program = self._trans_b_program(rng)
        spec = build_plan_spec(
            program, passes=("precompute_frozen", "autotune"))
        tuned = {t.node: t for t in spec.tuned_variants}
        assert len(tuned) == 1
        (entry,) = tuned.values()
        assert entry.kernel == "matmul"
        assert entry.variant == "pretransposed_b"


class TestSpecCompatAndConfig:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_older_spec_versions_refused(self, version):
        """No compat shims: an older document — a v3 whose Winograd slot
        declares the ``(O, C, 4, 4)`` layout this runtime's kernel cannot
        consume, a v4 written for the dynamic buffer arena, a v5 whose
        peak charges a view beside its base — raises ``PlanVersionError``
        and the cache recompiles."""
        b, _ = make_mlp_graph()
        doc = build_plan_spec(Program.from_graph(b.graph)).to_dict()
        assert doc["plan_version"] == 6
        doc["plan_version"] = version
        with pytest.raises(PlanVersionError):
            PlanSpec.from_dict(json.loads(json.dumps(doc)))

    def test_unsupported_version_raises_plan_version_error(self):
        b, _ = make_mlp_graph()
        doc = build_plan_spec(Program.from_graph(b.graph)).to_dict()
        doc["plan_version"] = 999
        with pytest.raises(PlanVersionError):
            PlanSpec.from_dict(doc)

    def test_unknown_pass_rejected(self):
        b, _ = make_mlp_graph()
        program = Program.from_graph(b.graph)
        with pytest.raises(ExecutionError, match="unknown"):
            build_plan_spec(program, passes=("bogus_pass",))
        with pytest.raises(ExecutionError, match="unknown"):
            build_plan_spec(program, passes="bogus")

    def test_resolve_passes_normalisation(self):
        assert resolve_passes(None) == DEFAULT_PASSES
        assert resolve_passes("default") == DEFAULT_PASSES
        assert resolve_passes("none") == ()
        assert resolve_passes(["fuse_elementwise"]) == ("fuse_elementwise",)

    def test_compile_options_plumb_passes(self):
        b, _ = make_mlp_graph()
        program = compile_training(
            b.graph, optimizer=SGD(0.1),
            options=CompileOptions(plan_passes="none"))
        assert program.plan_spec().passes == ()
        assert program.meta["plan_passes"] == "none"

    def test_pipeline_report_stages(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        report: dict = {}
        run_pipeline(program, passes="default", report=report)
        stages = [s["stage"] for s in report["stages"]]
        assert stages == ["lower", "fuse_elementwise", "fold_scalars",
                          "precompute_frozen", "allocate"]
        counts = [s["instructions"] for s in report["stages"]]
        assert counts[-1] <= counts[0]

    def test_pass_config_separates_program_keys(self):
        from repro.serve.keys import program_key
        from repro.sparse import full_update

        b, _ = make_mlp_graph()
        scheme = full_update(b.graph)
        base = dict(scheme=scheme, optimizer=SGD(0.1))
        k_default = program_key(
            b.graph, options=CompileOptions(), **base)
        k_none = program_key(
            b.graph, options=CompileOptions(plan_passes="none"), **base)
        assert k_default != k_none


class TestArtifactRoundTripOptimized:
    def test_fused_and_precomputed_plan_survives_artifact(self, tmp_path,
                                                          rng):
        """ResNet sparse exercises both passes at once through a full
        save/load/execute cycle: a hoisted Winograd weight and fused
        residual chains. (MCUNet sparse, the paper workload, fuses nothing
        since its one chain, the loss's, became a ``log_softmax_grad``.)"""
        from repro.deploy import load_artifact, save_artifact
        from repro.models import build_model, paper_scheme

        forward = build_model("resnet_micro", batch=2)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        spec = program.plan_spec()
        assert spec.precomputed and any(
            i.fused is not None for i in spec.instructions)
        save_artifact(program, tmp_path / "model")
        manifest = json.loads(
            (tmp_path / "model" / "manifest.json").read_text())
        assert manifest["plan_passes"] == list(DEFAULT_PASSES)
        assert manifest["transforms"] == ["winograd_weight"]
        deployed = load_artifact(tmp_path / "model")
        assert deployed.program.plan_spec() == spec
        name = [n for n in program.graph.inputs
                if n != program.meta["labels"]][0]
        feeds = {name: rng.standard_normal(
            program.graph.spec(name).shape).astype(np.float32),
                 program.meta["labels"]: np.array([1, 2], np.int64)}
        ex_ref = Executor(program)
        ex_dep = Executor(deployed.program)
        for _ in range(3):
            want = ex_ref.run(feeds)
            got = ex_dep.run(dict(feeds))
            for key in want:
                assert want[key].tobytes() == got[key].tobytes()
        for key in program.state:
            assert program.state[key].tobytes() \
                == deployed.program.state[key].tobytes()
