"""The numpy executor: runs compiled programs and measures real memory.

Two backends share one feed-validation front door:

* ``"plan"`` (default) — runs the compiled
  :class:`~repro.runtime.plan.ExecutionPlan`'s generated step function
  (:mod:`repro.runtime.codegen`) over this executor's registers (feeds,
  state, plan constants) and a buffer set — one slab holding every
  intermediate at its compile-time offset — borrowed from the plan's pool
  for the step. The executor reports what it really held: ``slab_bytes``
  is the size of that ``uint8`` buffer, ``last_step_fresh_allocs`` the
  arrays allocated outside it, and ``peak_transient_bytes`` the plan's
  own ledger: the most bytes its slab buffers, feeds and registers hold
  at once, each slab buffer counted once.
* ``"interpreter"`` — the legacy per-node loop, kept as the cross-check
  oracle for the plan path and as the backend of :func:`interpret`. It is
  deliberately dumb: walks the schedule, dispatches kernels by name, frees
  buffers the moment their reference count drops to zero, and records the
  observed peak of transient bytes — charging a view or an in-place
  result beside the bytes it shares, as the analytical profiler does.

Both backends produce byte-identical outputs and state. The
interpreter's ``peak_transient_bytes`` equals
:func:`repro.memory.profile_memory`'s and bounds the plan's from above:
equal when the plan has no alias and no in-place reuse, below it
otherwise.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError
from ..ir import Graph
from ..ir.node import Node
from ..kernels import run_op
from ..ir.ops import get_schema
from .plan import ExecutionPlan, SlabPool
from .program import Program

#: Per-node observer: (node, seconds) after each kernel completes.
NodeObserver = Callable[[Node, float], None]

#: Per-instruction observer (plan backend only): (instruction, began,
#: ended) in perf_counter seconds — the kernel-level tracing hook, which
#: unlike NodeObserver sees the bound variant actually dispatched.
InstrObserver = Callable[[Any, float, float], None]

BACKENDS = ("plan", "interpreter")


class Executor:
    """Executes a :class:`Program` over its mutable state."""

    def __init__(self, program: Program,
                 observer: NodeObserver | None = None,
                 backend: str = "plan") -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; options: {BACKENDS}")
        self.program = program
        self.observer = observer
        #: opt-in kernel-level tracing hook; None keeps the hot path free
        #: of timing calls (see InstrObserver)
        self.instr_observer: InstrObserver | None = None
        self.backend = backend
        self.peak_transient_bytes = 0
        #: arrays the last plan-backed run allocated outside the slab:
        #: dynamic values plus base-kernel results copied into it
        self.last_step_fresh_allocs = 0
        #: bytes of the slab the last plan-backed run executed in, read
        #: off the buffer itself (equals ``plan.spec.slab_bytes``)
        self.slab_bytes = 0
        self._registers: list[np.ndarray | None] | None = None
        #: (name, shape, numpy dtype) per graph input, in declaration
        #: order — what _validate_feeds checks every step
        graph = program.graph
        self._feed_specs = tuple(
            (name, graph.spec(name).shape, graph.spec(name).dtype.np)
            for name in graph.inputs)
        #: per-executor cache of plan-owned precomputed constants
        #: (slot -> (source state array, transformed value)). Keyed by the
        #: source array's *identity*: frozen state is never written by the
        #: program, so the same array always yields the same bytes, and a
        #: with_state overlay swapping the array in is recomputed.
        self._precomputed: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def plan(self) -> ExecutionPlan:
        return self.program.plan()

    @property
    def arena(self) -> SlabPool:
        """The pool this executor's steps borrow their slab from — the
        plan's, shared with every executor of the same plan."""
        return self.plan.slabs

    def detach(self) -> None:
        """Drop register bindings left over from the last run.

        State slots stay bound in ``_registers`` between steps; callers
        whose state arrays view borrowed memory (e.g. shared-memory slab
        slots in :mod:`repro.deploy.stepworker`) call this after a step
        so the executor does not pin the buffer once the slot is
        released. Costs one list allocation on the next run.
        """
        self._registers = None

    def run(self, feeds: dict[str, np.ndarray] | None = None
            ) -> dict[str, np.ndarray]:
        """Execute one step; returns the graph outputs by name."""
        feeds = self._validate_feeds(feeds)
        if self.backend == "plan":
            return self._run_plan(feeds)
        return self._run_interpreter(feeds)

    def _validate_feeds(self, feeds: dict[str, np.ndarray] | None
                        ) -> dict[str, np.ndarray]:
        """Shape-check, dtype-coerce, and reject unknown feed names."""
        feeds = dict(feeds or {})
        for name, shape, dtype in self._feed_specs:
            if name not in feeds:
                raise ExecutionError(f"missing feed for graph input {name!r}")
            got = np.asarray(feeds[name])
            if got.shape != shape:
                raise ExecutionError(
                    f"feed {name!r} has shape {got.shape}, "
                    f"expected {shape}"
                )
            # C-contiguous, for both backends: the plan's layouts are
            # static facts, and a strided feed would not be the same
            # computation on the oracle either.
            feeds[name] = np.asarray(got, dtype=dtype, order="C")
        if len(feeds) != len(self._feed_specs):
            inputs = sorted(name for name, _, _ in self._feed_specs)
            extra = sorted(set(feeds) - set(inputs))
            raise ExecutionError(
                f"unknown feed name(s) {extra}; graph inputs are {inputs}"
            )
        return feeds

    # -- plan backend --------------------------------------------------------

    def _run_plan(self, feeds: dict[str, np.ndarray]
                  ) -> dict[str, np.ndarray]:
        plan = self.plan
        spec = plan.spec
        regs = self._registers
        if regs is None or len(regs) != spec.num_slots:
            regs = self._registers = [None] * spec.num_slots
        state = self.program.state
        # Re-bound every step (not pre-bound at plan build) so the one plan
        # serves every with_state overlay and survives state rebinding.
        for slot, name in spec.state_bindings:
            regs[slot] = state[name]
        for name, slot in spec.feed_specs:
            regs[slot] = feeds[name]
        # Plan-owned constants hoisted from frozen state (e.g. Winograd
        # weight transforms): computed on this executor's first step,
        # republished for free afterwards.
        for slot, name, transform in plan.precomputed:
            source = state[name]
            cached = self._precomputed.get(slot)
            if cached is None or cached[0] is not source:
                cached = (source, transform(source))
                self._precomputed[slot] = cached
            regs[slot] = cached[1]

        # The slab belongs to this running step: borrowed here, back in
        # the plan's pool before the caller sees the outputs. Kernel
        # scratch (im2col columns, pad buffers) is not pooled: each kernel
        # call allocates its own, on either backend.
        buffers = plan.slabs.take()
        arrays = buffers.arrays
        try:
            self._execute_instructions(plan, regs, arrays)
            # Returned values leave the slab as copies (in their own
            # layout); register values are the caller's or fresh already.
            outputs = {name: arrays[slot].copy(order="K") if in_slab
                       else regs[slot]
                       for name, slot, in_slab in plan.outputs}
        except BaseException:
            # A failed step must not pin its feeds, outputs and every
            # not-yet-dropped dynamic value until the next run.
            self.detach()
            raise
        finally:
            plan.slabs.give(buffers)

        self.slab_bytes = buffers.slab.nbytes
        self.peak_transient_bytes = spec.peak_transient_bytes
        self.last_step_fresh_allocs = plan.allocs_per_step
        for slot in plan.clear_slots:  # don't pin feeds/outputs across steps
            regs[slot] = None
        return outputs

    def _execute_instructions(self, plan: ExecutionPlan, regs: list,
                              arrays: list) -> None:
        """Run the stream over ``regs`` and a buffer set's ``arrays``: the
        plan's generated step function; an observer of either kind selects
        the variant that times each kernel."""
        observer, instr_observer = self.observer, self.instr_observer
        step = plan.step_function(
            observer is not None or instr_observer is not None)
        step(regs, arrays, self.program.state, observer, instr_observer)

    # -- interpreter backend -------------------------------------------------

    def _run_interpreter(self, feeds: dict[str, np.ndarray]
                         ) -> dict[str, np.ndarray]:
        program = self.program

        env: dict[str, np.ndarray] = {}
        env.update(feeds)
        refcounts = dict(program.consumer_counts)
        keep = set(program.outputs)
        fresh_allocs = 0  # every non-inplace output is a fresh buffer here
        # Input batches occupy memory until their last use, exactly as the
        # analytical profiler accounts them.
        transient = sum(array.nbytes for array in feeds.values())
        peak = transient

        for node in program.schedule:
            inputs = []
            state_inputs = []
            for name in node.inputs:
                if name in env:
                    inputs.append(env[name])
                elif name in program.state:
                    inputs.append(program.state[name])
                    state_inputs.append(program.state[name])
                else:
                    raise ExecutionError(
                        f"node {node.name!r} input {name!r} unavailable"
                    )
            began = time.perf_counter() if self.observer else 0.0
            try:
                results = run_op(node.op_type, inputs, node.attrs)
            except ExecutionError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise ExecutionError(
                    f"kernel {node.op_type!r} failed at node "
                    f"{node.name!r}: {exc}"
                ) from exc
            if self.observer:
                self.observer(node, time.perf_counter() - began)

            inplace = get_schema(node.op_type).inplace
            # Kernels like transpose/reshape return views. A view of a
            # *parameter* would silently observe later in-place optimizer
            # updates (the reorder pass schedules those early), so results
            # aliasing mutable state are materialised.
            if state_inputs and not inplace:
                results = [
                    value.copy() if any(np.shares_memory(value, s)
                                        for s in state_inputs) else value
                    for value in results
                ]

            for out, value in zip(node.outputs, results):
                env[out] = value
                if not inplace:
                    transient += value.nbytes
                    fresh_allocs += 1
            peak = max(peak, transient)

            # Outputs nobody consumes (dead values in unoptimized graphs)
            # are released immediately after production.
            if not inplace:
                for out in node.outputs:
                    if refcounts.get(out, 0) == 0 and out not in keep \
                            and out in env:
                        transient -= env[out].nbytes
                        del env[out]

            # Release inputs (including feeds) whose last consumer just ran.
            for name in node.inputs:
                refcounts[name] -= 1
                if (refcounts[name] == 0 and name in env
                        and name not in program.state
                        and name not in keep):
                    transient -= env[name].nbytes
                    del env[name]

        self.peak_transient_bytes = peak
        self.last_step_fresh_allocs = fresh_allocs
        outputs = {}
        for name in program.outputs:
            if name in env:
                outputs[name] = env[name]
            elif name in program.state:
                outputs[name] = program.state[name]
            else:
                raise ExecutionError(f"output {name!r} was never produced")
        return outputs


def interpret(graph: Graph, feeds: dict[str, np.ndarray] | None = None,
              copy_state: bool = True) -> dict[str, np.ndarray]:
    """One-shot convenience: build a program for ``graph`` and run it.

    Uses the legacy interpreter backend — no plan lowering, no slab — so
    it stays the reference oracle for the compiled path.
    """
    program = Program.from_graph(graph, copy_state=copy_state)
    return Executor(program, backend="interpreter").run(feeds)
