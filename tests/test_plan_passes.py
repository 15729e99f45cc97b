"""Pass-pipeline equivalence suite (`repro.runtime.passes`).

Every optimization pass must be a pure lowering decision: byte-identical
outputs and mutable state against the interpreter (and against
``passes="none"``) for any program, under any on/off combination. On top
of that, the structural claims: fused chains really remove instructions
and slots, donation never hands a fused chain a buffer a later link still
reads, a Winograd-annotated conv binds its base kernel, every program
state is a register slot bound per step (so a ``with_state`` overlay of a
frozen scalar takes effect on the next step), and older plan specs are
refused, not shimmed.
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
from test_codegen import make_feeds

PASS_CONFIGS = ["none", "default", ("fuse_elementwise",)]


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
        # the annotation prices the conv for the device; the host runs
        # the base (direct) kernel for it
        spec = runners["default"].program.plan_spec()
        assert {i.variant for i in spec.instructions
                if i.kernel == "conv2d"} == {"base"}

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


def _mcunet_sparse_program():
    from repro.models import build_model, paper_scheme

    forward = build_model("mcunet_micro", batch=2)
    return compile_training(forward, optimizer=SGD(0.05),
                            scheme=paper_scheme(forward))


class TestInstructionBudget:
    def test_mcunet_meets_instruction_budget_and_binds_every_state(self):
        """Fusion pushes the MCUNet sparse step under 99 instructions, and
        every program state is one register slot bound per step: named
        exactly once in ``state_bindings``, never spliced in."""
        program = _mcunet_sparse_program()
        spec = program.plan_spec()
        assert len(spec.instructions) < 99
        bound = [name for _, name in spec.state_bindings]
        assert sorted(bound) == sorted(program.state)
        slots = [slot for slot, _ in spec.state_bindings]
        assert len(set(slots)) == len(slots)

    def test_frozen_scalar_overlay_changes_the_next_step(self, rng):
        """A ``with_state`` overlay that swaps a frozen shape-() state
        value (llama_micro's attention scale) changes the very next step's
        output through the one shared plan, and the default plan and the
        interpreter agree bytewise with and without it."""
        from repro.models import build_model, paper_scheme

        forward = build_model("llama_micro", batch=1)
        program = compile_training(forward, optimizer=SGD(0.01),
                                   scheme=paper_scheme(forward))
        mutable = program.mutable_state_names()
        name = max((n for n, a in program.state.items()
                    if a.shape == () and n not in mutable and 0 < a < 1),
                   key=lambda n: float(program.state[n]))
        feeds = make_feeds(program, rng)
        loss = program.meta["loss"]

        def first_loss(overlay: dict, backend: str) -> bytes:
            # fresh trainable state, so each step starts from the same
            # weights and only the overlay differs
            fresh = program.with_state(
                {n: program.state[n].copy() for n in mutable} | overlay)
            assert fresh.plan() is program.plan()
            return Executor(fresh, backend=backend).run(feeds)[loss] \
                .tobytes()

        scaled = {name: np.asarray(program.state[name] * 4)}
        plain = first_loss({}, "plan")
        assert plain == first_loss({}, "interpreter")
        assert first_loss(scaled, "plan") \
            == first_loss(scaled, "interpreter") != plain

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


class TestGraphOnlyCompile:
    def test_a_graph_only_llama_compiles_without_a_copy(self):
        """``llama_micro`` built lazily, as ``llama7b`` is (how ``repro
        memory`` compiles a paper-scale model): the merged Q/K/V weight of
        ``parallel_fusion`` is still a zero-stride placeholder, not a
        concatenated copy."""
        from repro.models import build_model, paper_scheme

        forward = build_model("llama_micro", batch=1, lazy=True)
        program = compile_training(
            forward, optimizer=SGD(0.01), scheme=paper_scheme(forward),
            options=CompileOptions(materialize_state=False))
        merged = [array for name, array in program.state.items()
                  if name.endswith(".qkv")]
        assert merged and all(not any(a.strides) for a in merged)
        program.plan_spec()


class TestSpecCompatAndConfig:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_older_spec_versions_refused(self, version):
        """No compat shims: an older document — a v3 whose Winograd slot
        declares the ``(O, C, 4, 4)`` layout this runtime's kernel cannot
        consume, a v4 written for the dynamic buffer arena, a v5 whose
        peak charges a view beside its base, a v6 that may bind a
        precomputed Winograd slot or a tuned kernel variant, a v7 that
        splices folded scalars into an instruction's inputs — raises
        ``PlanVersionError`` and the cache recompiles."""
        b, _ = make_mlp_graph()
        doc = build_plan_spec(Program.from_graph(b.graph)).to_dict()
        assert doc["plan_version"] == 8
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
        assert stages == ["lower", "fuse_elementwise", "allocate"]
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
    def test_fused_plan_survives_artifact(self, tmp_path, rng):
        """ResNet sparse through a full save/load/execute cycle: fused
        residual chains and Winograd-annotated frozen convs. (MCUNet
        sparse, the paper workload, fuses nothing since its one chain, the
        loss's, became a ``log_softmax_grad``.)"""
        from repro.deploy import load_artifact, save_artifact
        from repro.models import build_model, paper_scheme

        forward = build_model("resnet_micro", batch=2)
        program = compile_training(forward, optimizer=SGD(0.05),
                                   scheme=paper_scheme(forward))
        spec = program.plan_spec()
        assert any(i.fused is not None for i in spec.instructions)
        assert any(node.attrs.get("algo") == "winograd"
                   for node in program.schedule)
        save_artifact(program, tmp_path / "model")
        manifest = json.loads(
            (tmp_path / "model" / "manifest.json").read_text())
        assert manifest["plan_passes"] == list(DEFAULT_PASSES)
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
