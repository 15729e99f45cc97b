"""Same output, less work: the compile path against its previous bodies.

The graph passes and the greedy scheduler build their whole-graph facts
once and keep them exact across rewrites. ``tests/reference_passes.py``
holds the bodies they replaced; this file requires

* identical node lists, schedules, fingerprints and plan specs from both,
  on the twelve zoo programs, their inference compiles and random graphs
  x {full, sparse} schemes;
* whole-graph rebuild counts that do not grow with model depth;
* compiling twice to give the same fingerprint and plan (the cache key).
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AutodiffError, CompileError
from repro.frontend import InputSpec, trace
from repro.ir import DType, Graph, GraphBuilder, TensorSpec
from repro.ir.node import Node
from repro.memory import profile_memory, value_lifetimes
from repro.memory.profiler import ProfiledSchedule
from repro.models import build_model, paper_scheme
from repro.models.llama import CONFIGS as LLAMA_CONFIGS, Llama
from repro.passes import (CommonSubexpressionEliminationPass, PassContext,
                          memory_aware_schedule)
from repro.passes.reorder import _greedy_schedule
from repro.runtime.compiler import (CompileOptions, compile_inference,
                                    compile_training)
from repro.sparse import UpdateScheme, full_update
from repro.train import SGD, Adam

from reference_passes import (REFERENCES,
                              ReferenceCommonSubexpressionEliminationPass,
                              reference_greedy_schedule, swap_in_references)
from test_arena_safety import random_forward

ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")
SCHEMES = {"paper_scheme": paper_scheme, "full_update": full_update}
ZOO_PROGRAMS = [(model, scheme) for model in ZOO_MODELS for scheme in SCHEMES]
#: one per model family and scheme, for the compiles with graph fusion off
UNFUSED_ZOO_PROGRAMS = [
    ("mcunet_micro", "paper_scheme"), ("resnet_micro", "full_update"),
    ("bert_micro", "paper_scheme"), ("llama_micro", "full_update")]


def compile_zoo(model, scheme, **option_kwargs):
    forward = build_model(model)
    optimizer = SGD(0.05) if scheme == "paper_scheme" else Adam(1e-3)
    options = CompileOptions(**option_kwargs) if option_kwargs else None
    return compile_training(forward, optimizer=optimizer,
                            scheme=SCHEMES[scheme](forward), options=options)


def describe(program):
    """Everything the compile decides, in comparable form."""
    graph = program.graph
    return {
        "nodes": [(n.op_type, n.name, n.inputs, n.outputs,
                   sorted(n.attrs.items(), key=lambda kv: kv[0]))
                  for n in graph.nodes],
        "values": [(name, spec.shape, spec.dtype)
                   for name, spec in graph.values.items()],
        "initializers": list(graph.initializers),
        "outputs": list(graph.outputs),
        "fusion_groups": graph.metadata.get("fusion_groups"),
        "schedule": [n.name for n in program.schedule],
        "fingerprint": program.fingerprint(),
        "plan": program.plan_spec().to_dict(),
    }


def assert_same_compile(got, want):
    got, want = describe(got), describe(want)
    for key in want:
        assert got[key] == want[key], key


# -- (i) + (iii): zoo identity against the references, and determinism ------

class TestZooIdentity:
    @pytest.mark.parametrize("model,scheme", ZOO_PROGRAMS)
    def test_training_compile_matches_reference_and_repeats(
            self, model, scheme, monkeypatch):
        first = compile_zoo(model, scheme)
        second = compile_zoo(model, scheme)
        assert_same_compile(second, first)
        report = first.meta["report"]
        swap_in_references(monkeypatch)
        reference = compile_zoo(model, scheme)
        assert_same_compile(first, reference)
        assert dataclasses.asdict(report) \
            == dataclasses.asdict(reference.meta["report"])

    @pytest.mark.parametrize("model", ZOO_MODELS)
    def test_inference_compile_matches_reference(self, model, monkeypatch):
        got = compile_inference(build_model(model))
        swap_in_references(monkeypatch)
        assert_same_compile(got, compile_inference(build_model(model)))

    @pytest.mark.parametrize("model,scheme", UNFUSED_ZOO_PROGRAMS)
    def test_unfused_compile_matches_reference(self, model, scheme,
                                               monkeypatch):
        options = {"fusion": False, "parallel_fusion": False}
        got = compile_zoo(model, scheme, **options)
        assert not got.graph.metadata.get("fusion_groups")
        swap_in_references(monkeypatch)
        assert_same_compile(got, compile_zoo(model, scheme, **options))

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("model,scheme", [
        ("mcunet_micro", "paper_scheme"), ("bert_micro", "full_update")])
    def test_each_reference_alone(self, model, scheme, name, monkeypatch):
        got = compile_zoo(model, scheme)
        swap_in_references(monkeypatch, [name])
        assert_same_compile(got, compile_zoo(model, scheme))


class TestRandomGraphIdentity:
    @pytest.mark.parametrize("ratio", [1.0, 0.5], ids=["full", "sparse"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_training_compile_matches_reference(self, ratio, seed):
        def compile_random():
            b = random_forward(np.random.default_rng(seed))
            return compile_training(
                b.graph, loss="mse", optimizer=SGD(0.01, momentum=0.9),
                scheme=UpdateScheme("w", {"w": ratio}))
        try:
            got = compile_random()
        except AutodiffError:
            assume(False)  # the random DAG routed the output around w
        with pytest.MonkeyPatch.context() as patch:
            swap_in_references(patch)
            assert_same_compile(got, compile_random())


# -- graph passes -----------------------------------------------------------

def duplicate_chains_graph():
    """Duplicates whose consumers are themselves duplicates, three deep,
    listed so that every copy precedes the chain it duplicates."""
    b = GraphBuilder("dups")
    x = b.input("x", (4, 4))
    tails = []
    for _ in range(3):
        h = b.emit("relu", [x])
        h = b.emit("tanh", [h])
        h = b.mul(h, h)
        tails.append(h)
    total = b.add(b.add(tails[0], tails[1]), tails[2])
    b.mark_output(total)
    return b.graph


class TestSingleSweepGraphPasses:
    def test_cse_single_sweep_is_a_fixpoint(self):
        graph = duplicate_chains_graph()
        result = CommonSubexpressionEliminationPass().run(
            graph, PassContext())
        assert result.stats["removed"] == 6
        again = CommonSubexpressionEliminationPass().run(
            graph, PassContext())
        assert again.stats["removed"] == 0 and not again.changed

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cse_equals_loop_until_fixpoint(self, seed):
        graphs = []
        for cls in (CommonSubexpressionEliminationPass,
                    ReferenceCommonSubexpressionEliminationPass):
            graph = random_forward(np.random.default_rng(seed)).graph
            # duplicate every node once so there is something to merge
            builder = GraphBuilder(graph=graph)
            rename: dict[str, str] = {}
            for node in list(graph.nodes):
                copy = builder.emit(
                    node.op_type, [rename.get(i, i) for i in node.inputs],
                    dict(node.attrs))
                rename[node.outputs[0]] = copy
            builder.mark_output(rename[graph.outputs[0]])
            stats = cls().run(graph, PassContext()).stats
            graphs.append((stats, [(n.op_type, n.name, n.inputs, n.outputs)
                                   for n in graph.nodes],
                           list(graph.values), list(graph.outputs)))
        assert graphs[0] == graphs[1]
        assert graphs[0][0]["removed"] > 0

    def test_remove_nodes_matches_identity_not_equality(self):
        graph = Graph("twins")
        graph.add_value(TensorSpec("x", (2,)))
        graph.add_value(TensorSpec("y", (2,)))
        first = Node("relu", "twin", ("x",), ("y",))
        second = Node("relu", "twin", ("x",), ("y",))
        assert first == second and first is not second
        graph.nodes = [first, second]
        graph.remove_nodes([second])
        assert len(graph.nodes) == 1 and graph.nodes[0] is first
        graph.remove_nodes([second])  # already gone: nothing to do
        assert graph.nodes == [first]

    def test_tensor_spec_sizes_are_fixed_at_construction(self):
        spec = TensorSpec("t", (2, 3, 4), DType.FLOAT16)
        assert (spec.num_elements, spec.nbytes) == (24, 48)
        scalar = TensorSpec("s", ())
        assert (scalar.num_elements, scalar.nbytes) == (1, 4)
        assert TensorSpec("e", (0, 5)).nbytes == 0
        assert spec == TensorSpec("t", [2, 3, 4], DType.FLOAT16)
        assert hash(spec) == hash(TensorSpec("t", (2, 3, 4), DType.FLOAT16))
        assert spec.with_name("u").nbytes == 48
        assert "nbytes" not in repr(spec)
        with pytest.raises(TypeError):
            TensorSpec("t", (2,), DType.FLOAT32, 2)  # sizes are not inputs


# -- scheduler --------------------------------------------------------------

class TestScheduler:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_greedy_schedule_equals_closure_scored_reference(self, seed):
        b = random_forward(np.random.default_rng(seed))
        try:
            program = compile_training(
                b.graph, loss="mse", optimizer=SGD(0.01),
                scheme=UpdateScheme("w", {"w": 1.0}),
                options=CompileOptions(reorder=False))
        except AutodiffError:
            assume(False)
        graph = program.graph
        assert [n.name for n in _greedy_schedule(graph)] \
            == [n.name for n in reference_greedy_schedule(graph)]

    def test_winner_carries_its_profile(self):
        graph = compile_zoo("mcunet_micro", "paper_scheme").graph
        schedule = memory_aware_schedule(graph)
        assert isinstance(schedule, ProfiledSchedule)
        carried = profile_memory(graph, schedule)
        assert carried is schedule.profile
        assert carried == profile_memory(graph, list(schedule))
        # a timeline, or another graph, is not what was stored
        assert profile_memory(graph, schedule, keep_timeline=True).timeline
        assert profile_memory(graph.clone(), schedule) is not carried

    def test_lifetimes_are_a_view_of_live_ranges(self):
        from repro.memory.liveness import live_ranges
        program = compile_zoo("mcunet_micro", "paper_scheme")
        start, end = live_ranges(program.graph, program.schedule)
        lives = value_lifetimes(program.graph, program.schedule)
        assert {n: (life.start, life.end) for n, life in lives.items()} \
            == {n: (start[n], end[n]) for n in start}

    def test_unorderable_hazard_raises_typed_error(self):
        """An in-place apply whose result is read by a node that also
        reads the parameter: the reader must precede the apply (hazard)
        and follow it (dataflow)."""
        b = GraphBuilder("hazard")
        x = b.input("x", (4,))
        w = b.initializer("w", np.ones(4, np.float32), trainable=True)
        grad = b.mul(x, x)
        updated = b.emit("apply_sgd", [w, grad],
                         {"lr": 0.1, "momentum": 0.0, "weight_decay": 0.0})
        both = b.add(updated, w)
        b.mark_output(both)
        graph = b.graph
        apply_node = next(n for n in graph.nodes if n.op_type == "apply_sgd")
        reader = graph.nodes[-1]
        with pytest.raises(CompileError) as err:
            memory_aware_schedule(graph)
        message = str(err.value)
        assert apply_node.name in message and reader.name in message
        assert f"{apply_node.name} must follow {reader.name}" in message
        assert "'w'" in message
        assert not isinstance(err.value, ValueError)


# -- (ii): whole-graph rebuilds do not grow with depth ----------------------

def llama_at_depth(num_blocks):
    config = dataclasses.replace(LLAMA_CONFIGS["llama_micro"],
                                 num_blocks=num_blocks)
    return trace(Llama(config, seed=0),
                 [InputSpec("ids", (1, config.max_len), DType.INT64)],
                 name=config.name)


def count_whole_graph_work(monkeypatch, build):
    """Compile ``build()`` under full update; calls per whole-graph helper."""
    calls = Counter()

    def counted(module, attr, label):
        target = importlib.import_module(module) \
            if isinstance(module, str) else module
        fn = getattr(target, attr)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(target, attr, wrapper)

    counted(Graph, "consumer_map", "consumer_map")
    counted(Graph, "_drop_orphan_values", "_drop_orphan_values")
    counted(Graph, "topological_order", "topological_order")
    counted("repro.memory.profiler", "profile_memory", "profile_memory")
    counted("repro.memory.profiler", "live_ranges", "live_ranges")
    forward = build()
    program = compile_training(
        forward, optimizer=Adam(1e-3), scheme=full_update(forward),
        options=CompileOptions(verify_plans=False))
    return program, calls


class TestWorkDoesNotGrowWithDepth:
    @pytest.mark.parametrize("shallow,deep", [
        (lambda: llama_at_depth(2), lambda: llama_at_depth(4)),
        (lambda: build_model("distilbert_micro"),
         lambda: build_model("bert_micro")),
    ], ids=["llama_2_vs_4", "bert_2_vs_4"])
    def test_call_counts_are_depth_independent(self, shallow, deep):
        with pytest.MonkeyPatch.context() as patch:
            small, small_calls = count_whole_graph_work(patch, shallow)
        with pytest.MonkeyPatch.context() as patch:
            large, large_calls = count_whole_graph_work(patch, deep)
        assert len(large.graph.nodes) > 1.5 * len(small.graph.nodes)
        assert large_calls == small_calls
        # the three candidates, and the greedy one again with the FFN
        # activations recomputed for the backward (both models clone them)
        assert small_calls["live_ranges"] == 4
        assert small_calls["profile_memory"] == 4

    def test_reference_counts_did_grow(self, monkeypatch):
        """What the counters above would have read before: one rebuild per
        rewrite."""
        swap_in_references(monkeypatch)
        with pytest.MonkeyPatch.context() as patch:
            _, small = count_whole_graph_work(
                patch, lambda: build_model("distilbert_micro"))
        with pytest.MonkeyPatch.context() as patch:
            _, large = count_whole_graph_work(
                patch, lambda: build_model("bert_micro"))
        assert large["consumer_map"] > small["consumer_map"]
        assert large["_drop_orphan_values"] > small["_drop_orphan_values"]
