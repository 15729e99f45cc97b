"""The memory plan is the allocation: what the executor holds is what the
plan declared, and nothing in a step depends on what the slab held before.

* measured, not copied: ``Executor.slab_bytes`` is the size of the
  ``uint8`` buffer the step really ran in; it equals the spec's
  ``slab_bytes``, which lies between the aligned live load of its buffers
  (the floor of any placement) and 1.02 times that. The plan's own
  ``peak_transient_bytes`` counts those buffers unaligned, plus the feeds
  and registers: never under their unaligned live load, and at or above
  ``slab_bytes`` on eight of the twelve zoo programs — on the other four
  the peak holds the 4 B loss (and 96 B norm vectors), which the slab
  rounds up to 64 B, and the slab stands above it by that padding alone;
* a poisoned slab changes nothing: every slot is written before it is
  read, on every step — NaN-filled and ``0xA5``-filled slabs give the
  interpreter's bytes;
* every static layout fact is what the interpreter's arrays really look
  like (the kernel layout contract, the alias strides), checked against a
  shadow run on the zoo and on random graphs;
* the slab belongs to a running step: borrowed from the plan's pool, back
  in it whether the step returns or raises; ``detach()`` still leaves an
  executor holding nothing borrowed;
* kernel scratch is not pooled: a warm step's tracemalloc peak includes
  its largest im2col column, and what a step leaves traced beyond the
  slab and its outputs is less than that one column.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.analysis.planlint import plan_intervals, verify_plan_spec
from repro.errors import AutodiffError, ExecutionError
from repro.kernels import VIEW_OPS
from repro.kernels.shape import c_strides, normal_strides
from repro.memory import live_load
from repro.runtime import BufferSet, Executor
from repro.runtime import executor as executor_module
from repro.runtime.compiler import compile_training
from repro.runtime.plan import SLAB_ALIGNMENT
from repro.train import SGD

from conftest import make_mlp_graph
from test_activation_masks import compile_at
from test_codegen import assert_same_bytes, make_feeds, relowered
from test_compile_single_sweep import ZOO_PROGRAMS, compile_zoo
from test_differential import compile_random
from test_plan import fork


@pytest.fixture(scope="module", params=ZOO_PROGRAMS,
                ids=lambda p: f"{p[0]}-{p[1]}")
def zoo_program(request):
    return compile_zoo(*request.param)


class TestMeasuredNotCopied:
    def test_executor_holds_the_declared_slab(self, zoo_program, request):
        spec = zoo_program.plan_spec()
        executor = Executor(fork(zoo_program))
        assert executor.slab_bytes == 0
        executor.run(make_feeds(zoo_program, np.random.default_rng(0)))
        assert executor.slab_bytes == spec.slab_bytes
        assert executor.arena.retained_bytes() == spec.slab_bytes
        # The slab is what its buffers need at their most crowded moment,
        # give or take placement: never under the aligned live load (the
        # floor of any placement), at most 2% over it.
        slab = [i for i in plan_intervals(spec, zoo_program)
                if i.offset is not None]
        bound = max(live_load(slab, SLAB_ALIGNMENT))
        assert 0 < bound <= spec.slab_bytes <= 1.02 * bound
        # The plan's own peak counts the same buffers, each once, without
        # alignment, and adds the feeds (outside the slab) and registers.
        assert max(live_load(slab, 1)) <= spec.peak_transient_bytes
        # Where the peak holds buffers that are not a multiple of 64 B,
        # the slab stands above it by their padding, less the feeds. On
        # mcunet_micro sparse the peak is the block-2 forward stride-2
        # depthwise conv (the stride-1 ones write over their input) —
        # input, output, two residuals and three bit masks, every one a
        # multiple of 64 B — beside the 64 B labels feed: all three counts
        # agree. On bert_micro and distilbert_micro sparse the peak holds
        # the 4 B loss, which the slab rounds up to 64 B. On llama_micro
        # it is lm_head's weight gradient, beside the 96 B RMSNorm vectors
        # still held (two at the sparse update, nine at the full one) and
        # the loss, rounded up to 128 and 64 B — less, at the full update,
        # the 192 B ids feed only the ledger holds.
        pinned = {("mcunet_micro", "paper_scheme"):
                  (395_328, 395_328, 395_328),
                  ("bert_micro", "paper_scheme"):
                  (395_840, 395_840, 395_780),
                  ("distilbert_micro", "paper_scheme"):
                  (214_592, 214_592, 214_532),
                  ("llama_micro", "paper_scheme"): (77_120, 77_120, 76_996),
                  ("llama_micro", "full_update"):
                  (240_832, 240_832, 240_676)}
        which = request.node.callspec.params["zoo_program"]
        if which in pinned:
            assert (spec.slab_bytes, bound, spec.peak_transient_bytes) \
                == pinned[which]
        else:
            assert spec.slab_bytes <= spec.peak_transient_bytes
        assert executor.peak_transient_bytes == spec.peak_transient_bytes
        # what a step allocates outside the slab is a count, not a guess
        assert executor.last_step_fresh_allocs == sum(
            len(i.output_slots) for i in spec.instructions
            if i.mode == "copy" or (i.mode == "base"
                                    and not i.kernel.startswith("apply_")))

    def test_llama_full_update_counts(self):
        """The numbers CI pins on ``train_llm_full``."""
        spec = compile_zoo("llama_micro", "full_update").plan_spec()
        assert len(spec.instructions) <= 400
        assert len(spec.aliases) >= 90
        executor = Executor(fork(compile_zoo("llama_micro", "full_update")))
        executor.run(make_feeds(executor.program, np.random.default_rng(0)))
        assert executor.last_step_fresh_allocs < 20


class TestPoisonedSlab:
    @pytest.mark.parametrize("poison", ["nan", "0xA5"])
    def test_results_do_not_depend_on_what_the_slab_held(self, zoo_program,
                                                         poison):
        """A read-before-write or a stale view would read the poison."""
        dut = Executor(fork(zoo_program))
        ref = Executor(fork(relowered(zoo_program, "none")),
                       backend="interpreter")
        pool = zoo_program.plan().slabs
        rng = np.random.default_rng(1)
        for step in range(3):
            buffers = pool.take()
            if poison == "nan":
                buffers.slab.view(np.float32)[...] = np.nan
            else:
                buffers.slab[...] = 0xA5
            pool.give(buffers)
            feeds = make_feeds(zoo_program, rng)
            got, want = dut.run(feeds), ref.run(feeds)
            for name in want:
                assert_same_bytes(got[name], want[name],
                                  f"step {step} {name}")
        for name in sorted(zoo_program.state):
            assert_same_bytes(dut.program.state[name],
                              ref.program.state[name], f"state {name}")


def shadow_layouts(program, feeds):
    """name -> the array the interpreter really produced for it."""
    produced = []
    run_op = executor_module.run_op

    def recording(op_type, inputs, attrs):
        results = run_op(op_type, inputs, attrs)
        if op_type in VIEW_OPS:
            assert np.shares_memory(results[0], inputs[0]) \
                or results[0].flags.c_contiguous, \
                f"{op_type}: a view kernel copies into C order"
        elif all(np.asarray(x).flags.c_contiguous for x in inputs):
            assert all(np.asarray(r).flags.c_contiguous for r in results), \
                f"{op_type} breaks the kernel layout contract"
        produced.append(results)
        return results

    executor_module.run_op = recording
    try:
        Executor(fork(program), backend="interpreter").run(feeds)
    finally:
        executor_module.run_op = run_op
    state = set(program.state)
    seen = {}
    for node, results in zip(program.schedule, produced):
        for name, value in zip(node.outputs, results):
            # the interpreter materialises views of state
            if node.op_type in VIEW_OPS and set(node.inputs) & state:
                value = value.copy()
            seen[name] = np.asarray(value)
    return seen


def assert_static_facts_hold(program, feeds):
    spec = program.plan_spec()
    seen = shadow_layouts(program, feeds)
    outputs = {node.name: node.outputs for node in program.schedule}
    names = {alias.slot: outputs[alias.node][0] for alias in spec.aliases}
    for instr in spec.instructions:
        names.update(zip(instr.output_slots, outputs[instr.node]))
    checked = 0
    for entry in spec.slab_slots:
        real = seen[names[entry.slot]]
        assert real.shape == entry.shape and real.dtype == entry.dtype
        assert entry.strides == normal_strides(
            real.shape, real.strides, real.itemsize), \
            (names[entry.slot], entry.strides, real.strides)
        checked += 1
    return checked


class TestStaticLayoutFacts:
    def test_zoo_slots_look_like_the_interpreters_arrays(self, zoo_program):
        feeds = make_feeds(zoo_program, np.random.default_rng(2))
        assert assert_static_facts_hold(zoo_program, feeds) > 30

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("model,scheme", ZOO_PROGRAMS)
    def test_length_one_axes_do_not_split_plan_and_verifier(self, model,
                                                            scheme, batch):
        """At batch 1 a view's leading axes have length 1 and numpy gives
        them any stride it likes: ``allocate`` declares, and planlint
        compares, :func:`normal_strides` of what numpy says."""
        program = compile_at(model, scheme, batch)
        assert verify_plan_spec(program.plan_spec(), program) == []
        feeds = make_feeds(program, np.random.default_rng(2))
        assert assert_static_facts_hold(program, feeds) > 30

    def test_normal_strides(self):
        # numpy's own answer for a (1, 1, 32) slice of a (1, 16, 32) array
        assert normal_strides((1, 1, 32), (2048, 128, 4), 4) \
            == c_strides((1, 1, 32), 4) == (128, 128, 4)
        assert normal_strides((2, 1, 3), (4, 999, 8), 4) == (4, 24, 8)
        assert normal_strides((), (), 4) == ()
        for shape in [(3, 1, 4), (1, 5), (1, 1, 1)]:
            x = np.empty(shape, np.float32)
            assert normal_strides(shape, x.strides, 4) == c_strides(shape, 4)
            assert normal_strides(shape[::-1], x.T.strides, 4) \
                == normal_strides(shape[::-1], normal_strides(
                    shape[::-1], x.T.strides, 4), 4)

    def test_random_graph_slots_do_too(self):
        compiled = 0
        for seed in range(40):
            try:
                program, rng = compile_random(seed, 1.0, "default")
            except AutodiffError:
                continue  # the random DAG routed the output around w
            graph = program.graph
            feeds = {name: rng.uniform(-1, 1, graph.spec(name).shape)
                     .astype(np.float32) for name in graph.inputs}
            assert_static_facts_hold(program, feeds)
            compiled += 1
        assert compiled >= 20


def mlp_program():
    b, _ = make_mlp_graph()
    return compile_training(b.graph, optimizer=SGD(0.1))


class TestSlabBelongsToTheStep:
    def test_borrowed_and_returned(self):
        program = mlp_program()
        pool = program.plan().slabs
        first, second = Executor(fork(program)), Executor(fork(program))
        rng = np.random.default_rng(0)
        for executor in (first, second, first, second):
            executor.run(make_feeds(program, rng))
        # sequential steps of two sessions: one slab ever built
        assert (pool.misses, pool.takes) == (1, 3)
        assert first.arena is second.arena is pool
        assert pool.retained_bytes() == program.plan_spec().slab_bytes

    def test_a_failed_step_returns_its_slab(self):
        program = mlp_program()
        plan = program.plan()
        instr = next(i for i in plan.instructions if i.mode == "out")
        kernel, armed = instr.out_kernel, [True]

        def once(inputs, attrs, out):
            if armed:
                armed.clear()
                raise ValueError("forced")
            return kernel(inputs, attrs, out)

        instr.out_kernel = once
        executor = Executor(fork(program))
        feeds = make_feeds(program, np.random.default_rng(0))
        with pytest.raises(ExecutionError, match="forced"):
            executor.run(feeds)
        assert (plan.slabs.misses, len(plan.slabs._free)) == (1, 1)
        executor.run(feeds)
        assert (plan.slabs.misses, plan.slabs.takes) == (1, 1)

    def test_outputs_are_copies_not_slab_views(self):
        program = mlp_program()
        executor = Executor(fork(program))
        out = executor.run(make_feeds(program, np.random.default_rng(0)))
        [buffers] = program.plan().slabs._free
        for value in out.values():
            assert not np.shares_memory(buffers.slab, np.asarray(value))

    def test_a_buffer_set_is_the_spec_made_arrays(self):
        spec = mlp_program().plan_spec()
        buffers = BufferSet(spec)
        assert buffers.slab.nbytes == spec.slab_bytes
        base = buffers.slab.__array_interface__["data"][0]
        for entry in spec.slab_slots:
            array = buffers.arrays[entry.slot]
            assert (array.shape, array.strides, array.dtype) \
                == (entry.shape, entry.strides, np.dtype(entry.dtype))
            assert array.__array_interface__["data"][0] - base \
                == entry.offset
        owners = {e.slot for e in spec.slab_slots} \
            - {a.slot for a in spec.aliases}
        assert all(e.offset % 64 == 0 for e in spec.slab_slots
                   if e.slot in owners)

    def test_detach_leaves_nothing_borrowed(self):
        """The step worker's contract: state arrays that view borrowed
        memory (a shared-memory slot) are not pinned once it detaches."""
        program = mlp_program()
        executor = Executor(program)
        overlay = {name: program.state[name].copy()
                   for name in program.mutable_state_names()}
        borrowed = [weakref.ref(array) for array in overlay.values()]
        feeds = make_feeds(program, np.random.default_rng(0))
        fed = [weakref.ref(array) for array in feeds.values()]
        executor.program = program.with_state(overlay)
        out = executor.run(feeds)
        loss = float(out[program.meta["loss"]])
        executor.program = program
        executor.detach()
        del overlay, feeds, out
        gc.collect()
        assert all(ref() is None for ref in borrowed + fed)
        assert np.isfinite(loss)

    def test_strided_state_is_refused_up_front(self):
        program = mlp_program()
        name = next(n for n in program.mutable_state_names()
                    if program.state[n].ndim == 2)
        flipped = np.asfortranarray(program.state[name])
        with pytest.raises(ExecutionError, match="C-contiguous"):
            program.with_state({name: flipped})

    def test_strided_feeds_are_made_contiguous_for_both_backends(self):
        program = mlp_program()
        feeds = make_feeds(program, np.random.default_rng(0))
        x = next(n for n in feeds if feeds[n].ndim == 2)
        strided = dict(feeds)
        strided[x] = np.asfortranarray(feeds[x])
        for backend in ("plan", "interpreter"):
            got = Executor(fork(program), backend=backend).run(strided)
            want = Executor(fork(program), backend=backend).run(feeds)
            for key in want:
                assert_same_bytes(got[key], want[key], f"{backend} {key}")


class TestKernelScratchIsNotPooled:
    #: the im2col column of mcunet_micro's 2x24x16x16 3x3 depthwise input
    COLUMN = 2 * 24 * 9 * 16 * 16 * 4

    def test_scratch_is_seen_per_step_and_not_kept(self):
        program = compile_at("mcunet_micro", "paper_scheme", 2)
        program.plan().step_function()  # generated code is not the step's
        executor = Executor(program)
        rng = np.random.default_rng(0)
        feeds = [make_feeds(program, rng) for _ in range(2)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outputs = executor.run(feeds[0])
            left = tracemalloc.get_traced_memory()[0] - base
            held = executor.slab_bytes \
                + sum(array.nbytes for array in outputs.values())
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            executor.run(feeds[1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert left - held < self.COLUMN, "scratch outlived its step"
        assert peak >= self.COLUMN, "a warm step allocated no column"
