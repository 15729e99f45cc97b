"""One byte ledger: a plan's ``peak_transient_bytes`` is the live load of the
storage it holds, and planlint re-derives it from the spec alone.

* the number is the unaligned :func:`repro.memory.live_load` maximum over
  :func:`repro.analysis.planlint.plan_intervals` — each slab buffer once
  (aliases and in-place reuse chains are their owner's bytes), every feed
  and every register result;
* the interpreter's count is an upper bound on it and equals the graph's
  estimate (:func:`repro.memory.profile_memory`), which charges a view or
  an in-place result beside the bytes it shares;
* the bound is not vacuous: a generated program with an alias or a reuse
  holds strictly less than the interpreter charges, and some generated
  program's depthwise convs write over their inputs;
* a spec declaring any other number — the old double-counting ledger's,
  say — is rejected as ``peak-bytes-mismatch``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.planlint import plan_intervals, verify_plan_spec
from repro.errors import AutodiffError, CompileError
from repro.memory import live_load, profile_memory
from repro.runtime import Executor

from test_activation_masks import compile_at
from test_codegen import make_feeds
from test_compile_single_sweep import ZOO_PROGRAMS, compile_zoo
from test_differential import (assert_matches_interpreter, compile_random,
                               random_feeds)
from test_plan import fork, shares_no_bytes


def interpreter_peak(program, feeds) -> int:
    executor = Executor(fork(program), backend="interpreter")
    executor.run(feeds)
    return executor.peak_transient_bytes


def assert_one_ledger(program, feeds) -> tuple[int, int]:
    """The plan's peak is its intervals' live load, under the interpreter's
    count, which is the graph's estimate. Returns (plan, interpreter)."""
    spec = program.plan_spec()
    assert spec.peak_transient_bytes \
        == max(live_load(plan_intervals(spec, program), 1))
    interpreted = interpreter_peak(program, feeds)
    assert interpreted == profile_memory(
        program.graph, program.schedule).peak_transient_bytes
    assert spec.peak_transient_bytes <= interpreted
    return spec.peak_transient_bytes, interpreted


def generated(seed: int, ratio: float, passes: str):
    """The seed's generated training program, or None when the generator
    drew a graph there is nothing to train in (or a refused sparse
    update)."""
    try:
        return compile_random(seed, ratio, passes)
    except AutodiffError:
        return None
    except CompileError as exc:
        assert ratio < 1.0 and "sub-layer update of 'w'" in str(exc)
        return None


@pytest.mark.parametrize("passes", ["default", "none"])
@pytest.mark.parametrize("ratio", [1.0, 0.5], ids=["full", "sparse"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_generated_programs_keep_one_ledger(ratio, passes, seed):
    drawn = generated(seed, ratio, passes)
    assume(drawn is not None)
    program, rng = drawn
    assert_one_ledger(program, random_feeds(program, rng))


@pytest.mark.parametrize("model,scheme", ZOO_PROGRAMS)
def test_zoo_keeps_one_ledger(model, scheme):
    """Every zoo program at the three batch sizes the benchmark runs."""
    for batch in (1, 2, 8):
        program = compile_at(model, scheme, batch)
        assert_one_ledger(program, make_feeds(program,
                                              np.random.default_rng(batch)))


def test_sharing_bytes_is_counted_once():
    """Some generated program views or reuses a buffer, and its plan holds
    strictly less than the interpreter, which counts both names."""
    for seed in range(40):
        drawn = generated(seed, 1.0, "none")
        if drawn is None or shares_no_bytes(drawn[0].plan_spec()):
            continue
        program, rng = drawn
        plan, interpreted = assert_one_ledger(program,
                                              random_feeds(program, rng))
        if plan < interpreted:
            return
    pytest.fail("no generated program shares bytes below the "
                "interpreter's count")


def test_generated_depthwise_convs_write_over_their_inputs():
    """Some generated program's stride-1 depthwise ``conv2d`` and
    ``conv2d_dx`` both take over input 0's buffer: the plan still verifies,
    holds its intervals' live load, and steps byte for byte as the
    interpreter does."""
    for seed in range(40):
        drawn = generated(seed, 1.0, "default")
        if drawn is None:
            continue
        program, rng = drawn
        spec = program.plan_spec()
        reusing = [instr for instr in spec.instructions
                   if instr.kernel in ("conv2d", "conv2d_dx")
                   and instr.reuse_slot >= 0]
        if {instr.kernel for instr in reusing} != {"conv2d", "conv2d_dx"}:
            continue
        assert all(instr.reuse_slot == instr.input_slots[0]
                   for instr in reusing)
        assert verify_plan_spec(spec, program) == []
        assert_one_ledger(program, random_feeds(program, rng))
        assert_matches_interpreter(program, rng)
        return
    pytest.fail("no generated plan has a conv2d and a conv2d_dx writing "
                "over their input")


def test_the_old_ledgers_number_is_a_mismatch():
    """resnet_micro sparse: the interpreter (and the ledger before it)
    charges the residual adds beside the buffers they reuse, 393 280 B;
    the plan's storage holds 327 744 B at most."""
    program = compile_zoo("resnet_micro", "paper_scheme")
    spec = program.plan_spec()
    assert spec.peak_transient_bytes == 327_744
    assert verify_plan_spec(spec, program) == []
    assert interpreter_peak(program, make_feeds(
        program, np.random.default_rng(0))) == 393_280
    old = dataclasses.replace(spec, peak_transient_bytes=393_280)
    assert [f.rule for f in verify_plan_spec(old, program)] \
        == ["peak-bytes-mismatch"]
