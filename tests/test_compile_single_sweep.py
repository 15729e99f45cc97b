"""Same output, less work: the compile path against its previous bodies.

The graph passes, the deferral phase of ``fuse_elementwise`` and the greedy
scheduler build their whole-graph facts once and keep them exact across
rewrites. ``tests/reference_passes.py`` holds the bodies they replaced;
this file requires

* identical node lists, schedules, fingerprints and plan specs from both,
  on the twelve zoo programs, their inference compiles, ``autotune="cost"``
  and random graphs x {full, sparse} schemes;
* the facts carried across a deferred merge to equal the facts recomputed
  from scratch, after every merge;
* whole-graph rebuild counts that do not grow with model depth;
* compiling twice to give the same fingerprint and plan (the cache key).
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.effects import stream_effects
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
from repro.runtime.passes import LoweredOp, LoweringContext, lower
from repro.sparse import UpdateScheme, full_update
from repro.train import SGD, Adam

from reference_autodiff import swap_in_primitive_activations
from reference_passes import (REFERENCES,
                              ReferenceCommonSubexpressionEliminationPass,
                              reference_greedy_schedule,
                              reference_merge_sole_consumers,
                              reference_stream_effects, swap_in_references)
from test_arena_safety import random_forward

fuse_module = importlib.import_module("repro.runtime.passes.fuse_elementwise")

ZOO_MODELS = ("mcunet_micro", "mobilenetv2_micro", "resnet_micro",
              "bert_micro", "distilbert_micro", "llama_micro")
SCHEMES = {"paper_scheme": paper_scheme, "full_update": full_update}
ZOO_PROGRAMS = [(model, scheme) for model in ZOO_MODELS for scheme in SCHEMES]


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


# -- (i) + (iv): zoo identity against the references, and determinism -------

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

    @pytest.mark.parametrize("model,scheme", [
        ("mcunet_micro", "paper_scheme"), ("resnet_micro", "full_update"),
        ("bert_micro", "paper_scheme"), ("llama_micro", "full_update")])
    def test_autotune_cost_matches_reference(self, model, scheme,
                                             monkeypatch):
        got = compile_zoo(model, scheme, autotune="cost")
        swap_in_references(monkeypatch)
        assert_same_compile(got, compile_zoo(model, scheme, autotune="cost"))

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


# -- (ii): facts carried across deferred merges are exact -------------------

def checked_merge(counter):
    """``_DeferralState.merge`` that re-derives every carried fact after
    the merge and compares."""
    merge = fuse_module._DeferralState.merge

    def wrapper(state, i, j, companions):
        merge(state, i, j, companions)
        counter["merges"] += 1
        live = [k for k, op in enumerate(state.stream) if op is not None]
        compact = state.compact()
        assert [state.effects[k] for k in live] == stream_effects(compact)
        assert stream_effects(compact) == reference_stream_effects(compact)
        assert [state.candidate[k] for k in live] \
            == [fuse_module._chain_candidate(op) for op in compact]
        for k, op in enumerate(state.stream):
            if op is None:
                assert state.effects[k] == fuse_module._NO_EFFECTS
                assert not state.candidate[k]
        consumers: dict[str, list[int]] = {}
        producer_of: dict[str, int] = {}
        for k in live:
            for name in state.stream[k].inputs:
                consumers.setdefault(name, []).append(k)
            for name in state.stream[k].outputs:
                producer_of[name] = k
        assert state.consumers == consumers
        assert state.producer_of == producer_of

    return wrapper


class FakeContext:
    """The slice of ``LoweringContext`` the fusion pass reads."""

    def __init__(self, specs, state_names, keep):
        self.specs, self.state_names, self.keep = specs, state_names, keep

    def spec(self, name):
        return self.specs[name]

    def shape_dtype(self, name):
        spec = self.specs[name]
        return spec.shape, np.dtype(spec.dtype.np)

    def nbytes(self, name):
        return self.specs[name].nbytes


UNARY = ("relu", "tanh", "neg", "step")
BINARY = ("add", "mul")


@st.composite
def lowered_streams(draw):
    """A random SSA stream of pure elementwise ops, views and in-place
    updates over two tensor forms, plus the context describing it."""
    forms = ((4, 4), (4,))
    specs = {}
    state_names = {"p0", "p1"}

    def declare(name, shape):
        specs[name] = TensorSpec(name, shape)
        return name

    values = [declare("x0", forms[0]), declare("x1", forms[1]),
              declare("p0", forms[0]), declare("p1", forms[1])]
    stream = []
    for index in range(draw(st.integers(3, 24))):
        kind = draw(st.sampled_from(("unary",) * 4 + ("binary",) * 3
                                    + ("view", "apply")))
        src = draw(st.sampled_from(values))
        out = f"v{index}"
        if kind == "unary":
            stream.append(LoweredOp(f"n{index}", draw(st.sampled_from(UNARY)),
                                    (src,), (out,)))
            values.append(declare(out, specs[src].shape))
        elif kind == "binary":
            other = draw(st.sampled_from(values))
            shape = max(specs[src].shape, specs[other].shape, key=len)
            stream.append(LoweredOp(f"n{index}",
                                    draw(st.sampled_from(BINARY)),
                                    (src, other), (out,)))
            values.append(declare(out, shape))
        elif kind == "view":
            stream.append(LoweredOp(f"n{index}", "reshape", (src,), (out,)))
            values.append(declare(out, specs[src].shape))
        else:
            param = "p0" if specs[src].shape == forms[0] else "p1"
            stream.append(LoweredOp(f"n{index}", "apply_sgd", (param, src),
                                    (out,)))
            declare(out, specs[param].shape)  # aliases the parameter
    produced = [op.outputs[0] for op in stream]
    keep = set(draw(st.lists(st.sampled_from(produced), max_size=3)))
    keep.add(produced[-1])
    return stream, FakeContext(specs, state_names, keep)


def stream_form(stream):
    return [(op.node, op.kernel, op.inputs, op.outputs, op.fused)
            for op in stream]


class TestCarriedDeferralState:
    @given(lowered_streams())
    @settings(max_examples=150, deadline=None)
    def test_carried_facts_equal_recomputed_after_every_merge(self, case):
        stream, ctx = case
        counter = Counter()
        with mock.patch.object(fuse_module._DeferralState, "merge",
                               checked_merge(counter)):
            got, merged = fuse_module._merge_sole_consumers(list(stream), ctx)
        assert merged == counter["merges"]
        want, want_merged = reference_merge_sole_consumers(list(stream), ctx)
        assert merged == want_merged
        assert stream_form(got) == stream_form(want)

    @given(lowered_streams())
    @settings(max_examples=100, deadline=None)
    def test_whole_pass_equals_reference(self, case):
        stream, ctx = case
        got, stats = fuse_module.fuse_elementwise(list(stream), ctx)
        with mock.patch.object(fuse_module, "_merge_sole_consumers",
                               reference_merge_sole_consumers):
            want, want_stats = fuse_module.fuse_elementwise(list(stream), ctx)
        assert stream_form(got) == stream_form(want)
        assert stats == want_stats

    def test_generator_reaches_merges_and_companions(self):
        """The property above is not vacuous: the strategy's streams do
        defer, with and without companions."""
        counter = Counter()
        merge = fuse_module._DeferralState.merge

        def counting(state, i, j, companions):
            counter["merges"] += 1
            counter["with_companions"] += bool(companions)
            merge(state, i, j, companions)

        @given(lowered_streams())
        @settings(max_examples=200, deadline=None, database=None,
                  derandomize=True)
        def run(case):
            stream, ctx = case
            fuse_module._merge_sole_consumers(list(stream), ctx)

        with mock.patch.object(fuse_module._DeferralState, "merge", counting):
            run()
        assert counter["merges"] >= 20
        assert counter["with_companions"] >= 1

    @pytest.mark.parametrize("model,scheme", [
        ("bert_micro", "full_update"), ("bert_micro", "paper_scheme"),
        ("distilbert_micro", "full_update")])
    def test_zoo_merges_keep_carried_facts_exact(self, model, scheme,
                                                 monkeypatch):
        """Deferral on zoo-sized streams. No zoo program defers under
        today's rules: the CNNs' deferred merges were all float ReLU-mask
        chains, which are bits now, the BERTs' were their GELU backward
        chains, which are one ``gelu_grad`` now, and ``llama_micro`` never
        had one. So the BERTs are compiled with GELU's primitive chain
        (``tests/reference_autodiff.py``), and both counts are pinned."""
        counter = Counter()
        with mock.patch.object(fuse_module._DeferralState, "merge",
                               checked_merge(counter)):
            compile_zoo(model, scheme)
            assert counter["merges"] == 0
            swap_in_primitive_activations(monkeypatch)
            program = compile_zoo(model, scheme)
        assert counter["merges"] >= 3
        stream = lower(LoweringContext(program))
        assert stream_effects(stream) == reference_stream_effects(stream)


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


# -- (iii): whole-graph rebuilds do not grow with depth ---------------------

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

    counted("repro.runtime.passes.fuse_elementwise", "stream_effects",
            "stream_effects")
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
        assert small_calls["stream_effects"] == 1
        assert small_calls["live_ranges"] == 3   # the three candidates
        assert small_calls["profile_memory"] == 3

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
