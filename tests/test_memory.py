"""Liveness analysis, memory profiler, slab placement — including the
cross-check that the analytical profiler matches the executor's measured
peak exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import planlint
from repro.errors import MemoryPlanError
from repro.ir import GraphBuilder
from repro.memory import (SlabPlan, live_load, place, profile_memory,
                          value_lifetimes)
from repro.models import build_model, paper_scheme
from repro.runtime import Executor, Program
from repro.runtime.compiler import CompileOptions, compile_training
from repro.sparse import UpdateScheme, bias_only, full_update
from repro.train import SGD

from conftest import make_mlp_graph


class TestLiveness:
    def test_basic_intervals(self):
        b, names = make_mlp_graph()
        schedule = b.graph.topological_order()
        lives = value_lifetimes(b.graph, schedule)
        assert lives[names["x"]].start == -1
        out = names["logits"]
        assert lives[out].end == len(schedule)  # graph output lives on

    def test_intermediate_dies_at_last_use(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 2))
        h = b.emit("relu", [x])
        y = b.emit("tanh", [h])
        b.mark_output(y)
        lives = value_lifetimes(b.graph, b.graph.topological_order())
        assert lives[h].start == 0 and lives[h].end == 1

    def test_use_before_production_rejected(self):
        b, _ = make_mlp_graph()
        schedule = list(reversed(b.graph.topological_order()))
        with pytest.raises(MemoryPlanError):
            value_lifetimes(b.graph, schedule)

    def test_inplace_outputs_pinned(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        lives = value_lifetimes(program.graph, program.schedule)
        for node in program.inplace_nodes():
            assert lives[node.inputs[0]].end == len(program.schedule)


class TestProfilerMatchesExecutor:
    @pytest.mark.parametrize("scheme_kind", ["full", "bias", "channel"])
    def test_peak_transient_exact(self, scheme_kind):
        b, _ = make_mlp_graph(batch=8, din=12, dhidden=16, dout=4)
        if scheme_kind == "full":
            scheme = full_update(b.graph)
        elif scheme_kind == "bias":
            scheme = UpdateScheme("b", {"b1": 1.0, "b2": 1.0})
        else:
            scheme = UpdateScheme("c", {"w1": 0.5, "w2": 1.0})
        program = compile_training(b.graph, optimizer=SGD(0.1),
                                   scheme=scheme)
        profile = profile_memory(program.graph, program.schedule)
        feeds = {"x": np.ones((8, 12), np.float32),
                 "labels": np.zeros(8, np.int64)}
        interpreter = Executor(program, backend="interpreter")
        interpreter.run(feeds)
        assert interpreter.peak_transient_bytes \
            == profile.peak_transient_bytes
        # the plan counts a view or an in-place reuse once, not twice
        executor = Executor(program)
        executor.run(feeds)
        assert executor.peak_transient_bytes <= profile.peak_transient_bytes

    def test_resident_counts_params_and_state(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1, momentum=0.9))
        profile = profile_memory(program.graph, program.schedule)
        assert profile.resident_bytes == program.state_bytes()

    def test_timeline_when_requested(self):
        b, _ = make_mlp_graph()
        profile = profile_memory(b.graph, keep_timeline=True)
        assert len(profile.timeline) == len(b.graph.nodes)
        assert max(profile.timeline) == profile.peak_transient_bytes


class TestSparseMemorySavings:
    def test_bias_only_below_full(self):
        b, _ = make_mlp_graph(batch=16, din=32, dhidden=64, dout=8)
        full_prog = compile_training(b.graph, optimizer=SGD(0.1),
                                     scheme=full_update(b.graph))
        bias_prog = compile_training(
            b.graph, optimizer=SGD(0.1),
            scheme=UpdateScheme("b", {"b1": 1.0, "b2": 1.0}))
        full_peak = profile_memory(full_prog.graph,
                                   full_prog.schedule).peak_total_bytes
        bias_peak = profile_memory(bias_prog.graph,
                                   bias_prog.schedule).peak_total_bytes
        assert bias_peak < full_peak

    def test_reorder_reduces_gradient_buffer_peak(self):
        """Paper §3.2: applying updates immediately vs holding all grads."""
        b, _ = make_mlp_graph(batch=4, din=64, dhidden=128, dout=32)
        held = compile_training(
            b.graph, optimizer=SGD(0.1),
            options=CompileOptions(reorder=False, applies_last=True))
        reordered = compile_training(b.graph, optimizer=SGD(0.1))
        peak_held = profile_memory(held.graph, held.schedule)
        peak_reord = profile_memory(reordered.graph, reordered.schedule)
        assert peak_reord.peak_transient_bytes \
            < peak_held.peak_transient_bytes


def live_peak(intervals, alignment=1):
    """Most (aligned) bytes live at once: the lower bound of any placement."""
    return max(live_load(intervals, alignment))


def slab_intervals(program):
    """The plan's spec, and the offsets and ``(bytes, birth, death)`` of its
    slab buffers as planlint's placement check reconstructs them."""
    spec = program.plan_spec()
    slab = [interval for interval in planlint.plan_intervals(spec, program)
            if interval.offset is not None]
    return (spec, [interval.offset for interval in slab],
            [interval[:3] for interval in slab])


class TestArenaPlanner:
    def test_plan_validates(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        spec, offsets, intervals = slab_intervals(program)
        SlabPlan(spec.slab_bytes, offsets, intervals).validate()
        assert spec.slab_bytes >= live_peak(intervals) > 0

    def test_arena_at_least_peak_and_bounded(self):
        b, _ = make_mlp_graph(batch=8, din=16, dhidden=24, dout=4)
        program = compile_training(b.graph, optimizer=SGD(0.1))
        _, _, intervals = slab_intervals(program)
        plan = place(intervals, alignment=1)
        assert plan.slab_bytes >= live_peak(intervals)
        # Greedy first-fit should stay within 2x of the lower bound here.
        assert plan.slab_bytes <= 2 * live_peak(intervals)

    def test_overlap_detection_fires(self):
        b, _ = make_mlp_graph()
        program = compile_training(b.graph, optimizer=SGD(0.1))
        spec, offsets, intervals = slab_intervals(program)
        # Force two buffers that are live together to the same offset.
        order = sorted(range(len(intervals)), key=lambda i: -intervals[i][0])
        a = order[0]
        clash = next(i for i in order[1:] if intervals[i][0]
                     and intervals[i][1] <= intervals[a][2]
                     and intervals[a][1] <= intervals[i][2])
        offsets[clash] = offsets[a]
        with pytest.raises(MemoryPlanError):
            SlabPlan(spec.slab_bytes, offsets, intervals).validate()

    def test_lifetimes_are_closed(self):
        """A buffer dying where another is born is live with it."""
        plan = place([(64, 0, 3), (64, 3, 5), (64, 4, 6)])
        assert plan.offsets[0] != plan.offsets[1]
        assert plan.offsets[2] == plan.offsets[0]
        assert plan.slab_bytes == 128

    def test_the_most_crowded_moment_is_placed_first(self):
        """``mobilenetv2_micro`` sparse around its peak, in 1 KB units: two
        288s and a 96 live together at position 11, then a 96 and a 288
        that each outlive one of them. Largest-first put the late 288 at
        offset 0 and stranded the late 96 on top (768); taking the crowded
        moments first packs the peak and fits both under it."""
        intervals = [(288, 10, 11), (288, 11, 12), (96, 9, 13),
                     (96, 12, 14), (288, 14, 15)]
        plan = place(intervals, alignment=1)
        plan.validate()
        assert plan.slab_bytes == live_peak(intervals) == 672

    def test_a_stranded_buffer_is_placed_first_and_the_slab_repacked(self):
        """``mcunet_micro`` sparse around its two peaks, in 1 KB units: a
        depthwise conv's 48s live with a long 16 (the residual) at
        positions 9 and 77, and between them a second long 16 (11-71)
        meets the end of one 48 and all of another (13-15). Most crowded
        first, the 48s and the first 16 pack to 112, the middle 48 takes
        offset 0, and the second 16 — every byte below 112 taken at some
        moment of its life — lands on top (128, 1.14x the bound; 134 592 B
        for 116 544 on the real program). It is the one buffer above the
        bound, so the repair places it first: at offset 0 it is in nobody's
        way, and the rest packs around it at the bound."""
        intervals = [(48, 7, 9), (48, 9, 11), (16, 5, 78), (48, 76, 77),
                     (48, 77, 78), (48, 13, 15), (16, 11, 71)]
        plan = place(intervals, alignment=1)
        plan.validate()
        assert plan.slab_bytes == live_peak(intervals) == 112
        assert plan.offsets[6] == 0

    @pytest.mark.parametrize("scheme", [paper_scheme, full_update],
                             ids=lambda scheme: scheme.__name__)
    @pytest.mark.parametrize("model", [
        "mcunet_micro", "mobilenetv2_micro", "resnet_micro", "bert_micro",
        "distilbert_micro", "llama_micro"])
    def test_zoo_slabs_sit_on_the_live_load_bound(self, model, scheme):
        """Within 2% of the floor of any placement, on all twelve zoo
        programs at the three batch sizes the benchmark runs them at."""
        for batch in (1, 2, 8):
            forward = build_model(model, batch=batch)
            program = compile_training(forward, optimizer=SGD(0.05),
                                       scheme=scheme(forward))
            spec, offsets, intervals = slab_intervals(program)
            SlabPlan(spec.slab_bytes, offsets, intervals).validate()
            bound = live_peak(intervals, alignment=64)
            assert bound <= spec.slab_bytes <= 1.02 * bound, (batch, bound)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graph_plans_never_overlap(self, seed):
        """Property: placement never overlaps live buffers, covers the
        live set, and is aligned."""
        rng = np.random.default_rng(seed)
        intervals = []
        for _ in range(int(rng.integers(1, 40))):
            birth = int(rng.integers(0, 30))
            intervals.append((int(rng.integers(0, 5000)), birth,
                              birth + int(rng.integers(0, 12))))
        plan = place(intervals)
        plan.validate()
        assert all(offset % 64 == 0 for offset in plan.offsets)
        assert plan.slab_bytes >= live_peak(intervals)
