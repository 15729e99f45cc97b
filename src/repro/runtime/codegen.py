"""The step is generated code: an :class:`ExecutionPlan` as straight-line Python.

Binding resolves every name in a plan and ``allocate`` every byte: each
value's array exists before the first step, as a view over the plan's slab
(``b[slot]``) or — feeds, state, plan constants, the rare value whose layout
is not a static fact — as a register (``r[slot]``). What is left per
instruction is one kernel call. :func:`generate` emits exactly that, with
kernels and attrs bound as names in the function's globals, shapes and
axes as literals, and — for into-forms whose body is one numpy statement
(:data:`repro.kernels.OUT_EMITTERS`) — the statement itself in place of the
call. From ``llama_micro``'s step::

    pc = 9
    np.matmul(b[239], b[243], out=b[246])
    pc = 10
    np.multiply(b[246], state['const.32.33'], out=b[247])
    np.add(b[247], r[226], out=b[247])
    pc = 11
    o_softmax([b[247]], at11, b[248])
    pc = 12
    np.matmul(b[248], b[241], out=b[249])

``b[239]`` / ``b[243]`` / ``b[241]`` are the Q / Kᵀ / V heads: transposed
reshapes of three matmul results, the same bytes under other strides, built
with the buffer set — the ``reshape`` and ``transpose`` nodes do not appear.
There is no layout gate (contiguity is a per-slot fact
:mod:`repro.analysis.planlint` proves), no buffer pool traffic, no release
of slab slots (their bytes are simply some later slot's), and no alias scan
(a view of mutable state is statically a copy). Three statement shapes:

* *out*: the into-form writes the output's slab array; a fused elementwise
  chain is emitted link by link through it (``pc = 10``);
* *copy*: a kernel without an into-form (conv, pooling, plan-selected
  variants) runs as is and its fresh result is copied into the slab —
  ``np.copyto(b[7], k_conv2d_base([b[4], r[2]], at7)[0])``;
* *base*: the kernel's result is the value — in-place optimizer applies,
  views of feeds, values of unknown layout — stored in a register and
  dropped (``r[12] = None``) when its last reader has run.

``pc`` names the running instruction, so a failure is reported with its op
type and node. One generator serves two variants: the *observed* one also
brackets each kernel with ``perf_counter()`` and calls ``observer`` /
``instr_observer`` with the :class:`~repro.runtime.plan.Instruction`
objects the plan holds; it is only built for a plan somebody traces.

The source is compiled in chunks of :data:`CHUNK` instructions (one
function for all of ``llama_micro`` costs CPython's compiler several MB of
peak RSS; chunks cost next to none and run at the same speed), each
registered in :mod:`linecache` under ``<plan:KEY:chunkN>`` so a traceback
shows the failing line.
"""

from __future__ import annotations

import linecache
import weakref
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError
from ..kernels import OUT_EMITTERS, OUT_KERNELS

#: instructions per compiled function (see the module docstring)
CHUNK = 24

_ARGS = "r, b, state, observer, instr_observer"
_INDENT = "    "


def _indent(lines: list[str]) -> list[str]:
    return [_INDENT + line for line in lines]


def _guarded(lines: list[str]) -> list[str]:
    """``lines`` with a failure reported as the instruction ``pc`` names."""
    return ["try:", *_indent(lines),
            "except ExecutionError:", _INDENT + "raise",
            "except Exception as exc:",
            _INDENT + "raise fail(pc, exc) from exc"]


class _Generator:
    """Emits the source of one plan variant and the names it refers to."""

    def __init__(self, plan, observed: bool) -> None:
        self.instructions = instructions = plan.instructions
        self.in_slab = plan.in_slab
        self.observed = observed

        def fail(pc: int, exc: Exception) -> ExecutionError:
            node = instructions[pc].node
            return ExecutionError(f"kernel {node.op_type!r} failed at node "
                                  f"{node.name!r}: {exc}")

        #: globals of the generated functions
        self.names: dict[str, Any] = {
            "np": np, "perf_counter": perf_counter, "fail": fail,
            "ExecutionError": ExecutionError}
        # Emitters by the function they stand for: only the registry's own
        # into-form for an op is ever replaced by its statement — a kernel
        # patched onto an instruction is always called.
        self._emit_out = {id(OUT_KERNELS[op]): emit
                          for op, emit in OUT_EMITTERS.items()
                          if op in OUT_KERNELS}

    def bind(self, stem: str, value: Any) -> str:
        """The global name for ``value``: ``stem``, suffixed when another
        object already holds it (numbering follows the stream, so the text
        is a function of the plan alone)."""
        name, n = stem, 0
        while self.names.setdefault(name, value) is not value:
            n += 1
            name = f"{stem}_{n}"
        return name

    def chunk(self, start: int, stop: int) -> str:
        """Source of the function running instructions ``[start, stop)``."""
        body: list[str] = []
        for index in range(start, stop):
            kernel, after = self.instruction(index)
            run = [f"pc = {index}"]
            if not self.observed:
                body += run + kernel + after
                continue
            instr = self.instructions[index]
            body += _guarded(run + ["t0 = perf_counter()", *kernel,
                                    "t1 = perf_counter()"])
            body += [
                "if observer is not None:",
                f"{_INDENT}observer({self.bind(f'n{index}', instr.node)}, "
                "t1 - t0)",
                "if instr_observer is not None:",
                f"{_INDENT}instr_observer({self.bind(f'i{index}', instr)}, "
                "t0, t1)",
            ] + after
        if not self.observed:
            body = _guarded(body)
        return "\n".join([f"def _chunk({_ARGS}):", *_indent(body), ""])

    def ref(self, slot: int) -> str:
        """Where ``slot``'s array is: the buffer set or the registers."""
        return f"b[{slot}]" if slot in self.in_slab else f"r[{slot}]"

    def instruction(self, index: int) -> tuple[list[str], list[str]]:
        """One instruction as (kernel lines, register bookkeeping)."""
        instr = self.instructions[index]
        args = [self.ref(slot) for slot in instr.input_slots]
        # Folded scalar constants are read from live state (the overlay's
        # value, not a baked copy) at their original positions.
        for pos, name in instr.const_args:
            args.insert(pos, f"state[{name!r}]")
        outs = [self.ref(slot) for slot in instr.output_slots]
        if instr.mode == "out":  # repro.runtime.plan.MODE_OUT / _COPY
            kernel = self.out_call(index, args, outs[0])
        else:
            fn = self.bind(f"k_{instr.node.op_type}_{instr.variant}",
                           instr.kernel)
            call = (f"{fn}([{', '.join(args)}], "
                    f"{self.bind(f'at{index}', instr.attrs)})")
            store = "np.copyto({}, {})" if instr.mode == "copy" \
                else "{} = {}"
            if len(outs) == 1:
                kernel = [store.format(outs[0], f"{call}[0]")]
            else:
                kernel = [f"res = {call}"] + [
                    store.format(out, f"res[{i}]")
                    for i, out in enumerate(outs)]
        return kernel, [f"r[{slot}] = None" for slot in instr.frees]

    def out_call(self, index: int, args: list[str], out: str) -> list[str]:
        """The into-form writing ``out`` — one statement per fused link."""
        instr = self.instructions[index]
        if instr.links is None:
            return [self.out_source(
                instr.node.op_type, instr.out_kernel, args,
                f"at{index}", instr.attrs, out)]
        # A fused chain runs link after link through the output's array,
        # as make_fused_kernel's into-form does.
        return [self.out_source(
            out_fn.__name__.strip("_"), out_fn,
            [out if pick is None else args[pick] for pick in picks],
            f"at{index}_{n}", attrs, out)
            for n, (_base, out_fn, attrs, picks) in enumerate(instr.links)]

    def out_source(self, label: str, out_fn, args: list[str],
                   attrs_name: str, attrs, out: str) -> str:
        emit = self._emit_out.get(id(out_fn))
        source = emit(args, attrs, out) if emit is not None else None
        if source is None:
            source = (f"{self.bind(f'o_{label}', out_fn)}"
                      f"([{', '.join(args)}], "
                      f"{self.bind(attrs_name, attrs)}, {out})")
        return source


def generate(plan, observed: bool
             ) -> tuple[Callable[..., None], str]:
    """Generate, compile and load one variant of ``plan``'s step.

    Returns ``(step, source)``. ``step(regs, arrays, state, observer,
    instr_observer)`` runs the whole stream over the registers and a
    buffer set's arrays; ``source`` is the text of every chunk in stream
    order. The linecache entries are dropped when ``plan`` is collected.
    """
    generator = _Generator(plan, observed)
    label = f"<plan:{id(plan):x}:{'observed:' if observed else ''}chunk"
    chunks, sources, files = [], [], []
    for n, start in enumerate(range(0, len(plan.instructions), CHUNK)):
        source = generator.chunk(
            start, min(start + CHUNK, len(plan.instructions)))
        filename = f"{label}{n}>"
        exec(compile(source, filename, "exec"), generator.names)
        chunks.append(generator.names.pop("_chunk"))
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename)
        sources.append(source)
        files.append(filename)
    weakref.finalize(plan, _forget_sources, files)
    chunks = tuple(chunks)

    def step(regs, arrays, state, observer=None, instr_observer=None):
        for chunk in chunks:
            chunk(regs, arrays, state, observer, instr_observer)

    return step, "\n".join(sources)


def _forget_sources(files: list[str]) -> None:
    for filename in files:
        linecache.cache.pop(filename, None)
