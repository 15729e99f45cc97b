"""The interpretive plan loop, as a readable second opinion.

``ReferenceExecutor._execute_instructions`` runs a bound plan the slow way:
one generic loop that re-takes, per instruction and per step, every
decision the generated step (:mod:`repro.runtime.codegen`) has baked into
its text — where each slot lives, which of the three statement shapes
applies, which constants to splice — and always *calls* the bound kernels,
never their emitted source. ``tests/test_codegen.py`` requires the
generated step to be the *same step*: outputs, mutable state and
allocation count. (Until spec v5 this file held the arena-era loop
verbatim and also pinned arena traffic — take / miss / recycle counts —
a behaviour that left with the arena.)
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ExecutionError
from repro.runtime import Executor
from repro.runtime.plan import ExecutionPlan


class ReferenceExecutor(Executor):
    def _execute_instructions(self, plan: ExecutionPlan, regs: list,
                              arrays: list) -> None:
        """Run the instruction stream over ``regs`` and ``arrays``."""
        observer = self.observer
        instr_observer = self.instr_observer
        timed = observer is not None or instr_observer is not None
        perf_counter = time.perf_counter
        state = self.program.state
        in_slab = plan.in_slab
        for instr in plan.instructions:
            inputs = [arrays[slot] if slot in in_slab else regs[slot]
                      for slot in instr.input_slots]
            # Scalar-constant folded inputs: spliced from live state (the
            # overlay's value, not a baked copy) at their original
            # positions, so the kernel sees the exact pre-fold input list.
            for pos, name in instr.const_args:
                inputs.insert(pos, state[name])
            began = perf_counter() if timed else 0.0
            try:
                if instr.mode == "out":
                    # the into-form writes the output's own slab array
                    out = arrays[instr.output_slots[0]]
                    assert instr.out_kernel(inputs, instr.attrs, out) is out
                else:
                    results = instr.kernel(inputs, instr.attrs)
                    for slot, value in zip(instr.output_slots, results):
                        if instr.mode == "copy":
                            np.copyto(arrays[slot], value)
                        else:
                            regs[slot] = value
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"kernel {instr.node.op_type!r} failed at node "
                    f"{instr.node.name!r}: {exc}"
                ) from exc
            if timed:
                ended = perf_counter()
                if observer is not None:
                    observer(instr.node, ended - began)
                if instr_observer is not None:
                    instr_observer(instr, began, ended)
            for slot in instr.frees:
                regs[slot] = None
