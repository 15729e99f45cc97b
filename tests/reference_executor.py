"""The interpretive plan loop the generated step function replaced.

``ReferenceExecutor._execute_instructions`` is the previous body of
``Executor._execute_instructions``, copied without edits (the two
``pragma: no cover`` markers aside): one generic loop that re-takes, per
instruction and per step, every decision binding already made.
``tests/test_codegen.py`` requires the generated step to be the *same step*
— outputs, mutable state, fresh-allocation count and arena traffic — while
doing less work.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ExecutionError
from repro.runtime import Executor
from repro.runtime.plan import ExecutionPlan


class ReferenceExecutor(Executor):
    def _execute_instructions(self, plan: ExecutionPlan, regs: list) -> int:
        """Run the instruction stream over ``regs``; returns fresh allocs."""
        arena = self.arena
        observer = self.observer
        instr_observer = self.instr_observer
        timed = observer is not None or instr_observer is not None
        fresh_allocs = 0
        perf_counter = time.perf_counter
        state = self.program.state
        for instr in plan.instructions:
            inputs = [regs[slot] for slot in instr.input_slots]
            # Scalar-constant folded inputs: spliced from live state (the
            # overlay's value, not a baked copy) at their original
            # positions, so the kernel sees the exact pre-fold input list.
            for pos, name in instr.const_args:
                inputs.insert(pos, state[name])
            began = perf_counter() if timed else 0.0
            try:
                out_fn = instr.out_kernel
                # The out= path requires C-contiguous inputs: ufuncs follow
                # their operands' memory order, so a view-layout input would
                # naturally produce a non-C result, and forcing it into a C
                # buffer shifts downstream BLAS onto different (1-ulp
                # different) code paths. Non-contiguous inputs fall back to
                # the base kernel, preserving bitwise interpreter parity.
                if out_fn is not None and \
                        all(a.flags.c_contiguous for a in inputs):
                    donate = instr.donate_slot
                    buf = regs[donate] if donate >= 0 \
                        else arena.take(instr.out_key)
                    if buf is None:
                        buf = np.empty(instr.out_shape, instr.out_dtype)
                        fresh_allocs += 1
                    elif buf.shape != instr.out_shape:
                        # Byte-bucketed arena: a pooled buffer of another
                        # shape with the same byte count is reshaped into
                        # place — a free view, since only C-contiguous
                        # buffers ever enter the pool.
                        buf = buf.reshape(instr.out_shape)
                    results = (out_fn(inputs, instr.attrs, buf),)
                else:
                    results = instr.kernel(inputs, instr.attrs)
                    fresh_allocs += instr.fresh_outputs
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

            # View-capable kernels over mutable state: materialise results
            # aliasing a parameter (same semantics as the interpreter).
            if instr.check_state_slots:
                state_arrays = [regs[s] for s in instr.check_state_slots]
                results = [
                    value.copy() if any(np.shares_memory(value, s)
                                        for s in state_arrays) else value
                    for value in results
                ]

            outs = instr.output_slots
            if len(outs) == 1:
                regs[outs[0]] = results[0]
            else:
                for slot, value in zip(outs, results):
                    regs[slot] = value

            for slot, key in instr.frees:
                if key is not None:
                    value = regs[slot]
                    # Pool only standard-layout buffers: a view-shaped
                    # (non-C) array handed to a later out= instruction
                    # would leak its layout into the result.
                    if value.flags.c_contiguous:
                        arena.give(key, value)
                regs[slot] = None
        return fresh_allocs
