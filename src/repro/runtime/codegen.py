"""The step is generated code: an :class:`ExecutionPlan` as straight-line Python.

Binding resolves every name in a plan; what is left per instruction is a
list of static decisions — does it have an ``out=`` kernel, a donated
buffer, folded constants, a state-alias scan, one output or several, which
frees return to the arena. An interpreter loop re-takes those decisions 483
times per ``llama_micro`` step. :func:`generate` takes them once: it emits
one statement group per instruction holding only what that instruction
needs, with kernels, attrs, arena keys and dtypes bound as names in the
function's globals and shapes as literals, and — for kernels whose body is
one numpy expression (:data:`repro.kernels.EMITTERS`) — the expression
itself in place of the call. From ``llama_micro``'s step::

    pc = 16
    r[243] = r[235].transpose((0, 2, 3, 1))
    pc = 17
    r[244] = r[235].transpose((0, 2, 1, 3))
    r[235] = None
    pc = 18
    a0 = r[227]
    a1 = r[231]
    if a0.flags.c_contiguous and a1.flags.c_contiguous:
        buf = take(key6144_float32)
        if buf is None:
            buf = np.empty((2, 24, 32), dt_float32)
            fresh += 1
        elif buf.shape != (2, 24, 32):
            buf = buf.reshape((2, 24, 32))
        r[245] = np.multiply(a0, a1, out=buf)
    else:
        r[245] = (a0 * a1)
        fresh += 1
    pc = 19
    r[246] = (r[239] @ r[243])
    r[239] = None
    r[243] = None

Every runtime check of the loop it replaced is still there (the contiguity
gate before an ``out=`` path, arena take / reshape / miss, the contiguity
gate before ``give``, the ``shares_memory`` copy, fresh-alloc counting,
const args read from live state); what is gone is deciding, per step,
whether each applies. A fused elementwise chain is emitted link by link
through its one buffer. ``pc`` names the running instruction, so a failure
is reported with its op type and node.

One generator serves two variants. The *observed* one additionally brackets
each kernel with ``perf_counter()`` and calls ``observer`` /
``instr_observer`` with the same :class:`~repro.runtime.plan.Instruction`
objects the plan holds; it is only built for a plan somebody traces.

The source is compiled in chunks of :data:`CHUNK` instructions: one
function for all of ``llama_micro`` is 3.5k lines, and CPython's compiler
needs +12.8 MB of peak RSS for it (40.8 -> 53.6 MB); chunks driven by a
three-line loop need 0.0-0.4 MB and run at the same speed. Each
chunk is registered in :mod:`linecache` under ``<plan:KEY:chunkN>`` so a
traceback shows the failing line.
"""

from __future__ import annotations

import linecache
import weakref
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError
from ..kernels import EMITTERS, KERNELS, OUT_EMITTERS, OUT_KERNELS

#: instructions per compiled function (see the module docstring)
CHUNK = 24

_ARGS = "r, state, take, give, fresh, observer, instr_observer"
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

    def __init__(self, instructions, observed: bool) -> None:
        self.instructions = instructions
        self.observed = observed

        def fail(pc: int, exc: Exception) -> ExecutionError:
            node = instructions[pc].node
            return ExecutionError(f"kernel {node.op_type!r} failed at node "
                                  f"{node.name!r}: {exc}")

        #: globals of the generated functions
        self.names: dict[str, Any] = {
            "np": np, "perf_counter": perf_counter, "fail": fail,
            "ExecutionError": ExecutionError}
        self._keys: dict[Any, str] = {}
        # Emitters by the function they stand for: only the registry's own
        # kernel for an op is ever replaced by its expression — a variant
        # or a patched-in kernel is always called.
        self._emit = {id(KERNELS[op]): emit
                      for op, emit in EMITTERS.items() if op in KERNELS}
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
        fresh = 0  # allocations the chunk makes whatever path it takes
        for index in range(start, stop):
            loads, kernel, after, always_fresh = self.instruction(index)
            fresh += always_fresh
            run = [f"pc = {index}", *loads]
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
        return "\n".join([f"def _chunk({_ARGS}):", *_indent(body),
                          f"{_INDENT}return fresh + {fresh}", ""])

    def instruction(self, index: int
                    ) -> tuple[list[str], list[str], list[str], int]:
        """One instruction as (input loads, kernel lines, bookkeeping,
        fresh outputs it allocates unconditionally)."""
        instr = self.instructions[index]
        args = [f"r[{slot}]" for slot in instr.input_slots]
        # Folded scalar constants are read from live state (the overlay's
        # value, not a baked copy) at their original positions.
        for pos, name in instr.const_args:
            args.insert(pos, f"state[{name!r}]")
        outs = instr.output_slots
        # Results go straight to their registers unless the alias scan
        # below may have to replace them first.
        values = [f"v{i}" if instr.check_state_slots else f"r[{slot}]"
                  for i, slot in enumerate(outs)]
        loads: list[str] = []
        local_of: dict[str, str] = {}
        always_fresh = 0
        if instr.out_kernel is None:
            kernel = self.base_call(index, args, values)
            always_fresh = instr.fresh_outputs
        else:
            # Inputs are named once: the gate, the donation, both calls and
            # the frees read them.
            loads = [f"a{i} = {arg}" for i, arg in enumerate(args)]
            local_of = {arg: f"a{i}" for i, arg in enumerate(args)}
            args = [f"a{i}" for i in range(len(args))]
            shape = repr(tuple(instr.out_shape))
            claim = f"r[{instr.donate_slot}]" if instr.donate_slot >= 0 \
                else f"take({self.bind_key(instr.out_key)})"
            dtype = self.bind(f"dt_{instr.out_dtype.name}", instr.out_dtype)
            out_path = [
                f"buf = {local_of.get(claim, claim)}",
                "if buf is None:",
                f"{_INDENT}buf = np.empty({shape}, {dtype})",
                f"{_INDENT}fresh += 1",
                # Byte-bucketed arena: a pooled buffer of another shape
                # with the same byte count is reshaped into place.
                f"elif buf.shape != {shape}:",
                f"{_INDENT}buf = buf.reshape({shape})",
                *self.out_call(index, args, values[0]),
            ]
            # The out= path requires C-contiguous inputs (ufuncs follow
            # their operands' memory order, so a view-layout input would
            # force a non-C result into a C buffer); others take the base
            # kernel, preserving bitwise interpreter parity.
            gate = " and ".join(f"{a}.flags.c_contiguous" for a in args)
            kernel = out_path if not gate else [
                f"if {gate}:", *_indent(out_path), "else:",
                *_indent(self.base_call(index, args, values)),
                *_indent([f"fresh += {instr.fresh_outputs}"]
                         if instr.fresh_outputs else [])]

        after: list[str] = []
        if instr.check_state_slots:
            # View-capable kernel over mutable state: materialise a result
            # aliasing a parameter (same semantics as the interpreter).
            for value, slot in zip(values, outs):
                scan = " or ".join(f"np.shares_memory({value}, r[{state}])"
                                   for state in instr.check_state_slots)
                after += [f"if {scan}:",
                          f"{_INDENT}{value} = {value}.copy()",
                          f"r[{slot}] = {value}"]
        for slot, key in instr.frees:
            if key is not None:
                # Pool only standard-layout buffers: a view-shaped array
                # handed to a later out= instruction would leak its layout
                # into the result.
                dying = local_of.get(f"r[{slot}]")
                if dying is None:
                    dying = "t"
                    after.append(f"t = r[{slot}]")
                after += [f"if {dying}.flags.c_contiguous:",
                          f"{_INDENT}give({self.bind_key(key)}, {dying})"]
            after.append(f"r[{slot}] = None")
        return loads, kernel, after, always_fresh

    def base_call(self, index: int, args: list[str], values: list[str]
                  ) -> list[str]:
        """Assign ``values`` from the base kernel: its emitted expression
        when it has one, the call otherwise."""
        instr = self.instructions[index]
        emit = self._emit.get(id(instr.kernel))
        if emit is not None and len(values) == 1:
            source = emit(args, instr.attrs)
            if source is not None:
                return [f"{values[0]} = {source}"]
        fn = self.bind(f"k_{instr.node.op_type}_{instr.variant}",
                       instr.kernel)
        call = (f"{fn}([{', '.join(args)}], "
                f"{self.bind(f'at{index}', instr.attrs)})")
        if len(values) == 1:
            return [f"{values[0]} = {call}[0]"]
        return [f"res = {call}"] + [f"{value} = res[{i}]"
                                    for i, value in enumerate(values)]

    def out_call(self, index: int, args: list[str], value: str
                 ) -> list[str]:
        """Assign ``value`` from the ``out=`` kernel writing into ``buf``."""
        instr = self.instructions[index]
        if instr.links is None:
            return [f"{value} = " + self.out_source(
                f"{instr.node.op_type}_{instr.variant}", instr.out_kernel,
                args, f"at{index}", instr.attrs)]
        # A fused chain runs link after link through the one buffer, as
        # make_fused_kernel's out form does; every link returns ``buf``.
        lines = []
        for n, (_base, out_fn, attrs, picks) in enumerate(instr.links):
            lines.append(self.out_source(
                out_fn.__name__.strip("_"), out_fn,
                ["buf" if pick is None else args[pick] for pick in picks],
                f"at{index}_{n}", attrs))
        return lines + [f"{value} = buf"]

    def out_source(self, label: str, out_fn, args: list[str],
                   attrs_name: str, attrs) -> str:
        emit = self._emit_out.get(id(out_fn))
        source = emit(args, attrs, "buf") if emit is not None else None
        if source is None:
            source = (f"{self.bind(f'o_{label}', out_fn)}"
                      f"([{', '.join(args)}], "
                      f"{self.bind(attrs_name, attrs)}, buf)")
        return source

    def bind_key(self, key) -> str:
        """One global per distinct arena key."""
        name = self._keys.get(key)
        if name is None:
            name = self._keys[key] = self.bind(
                f"key{key[0]}_{key[1].name}", key)
        return name


def generate(plan, observed: bool
             ) -> tuple[Callable[..., int], str]:
    """Generate, compile and load one variant of ``plan``'s step.

    Returns ``(step, source)``. ``step(regs, state, arena, observer,
    instr_observer)`` runs the whole stream over ``regs`` and returns the
    number of fresh output allocations; ``source`` is the text of every
    chunk in stream order. The linecache entries are dropped when ``plan``
    is collected.
    """
    generator = _Generator(plan.instructions, observed)
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

    def step(regs, state, arena, observer=None, instr_observer=None) -> int:
        fresh, take, give = 0, arena.take, arena.give
        for chunk in chunks:
            fresh = chunk(regs, state, take, give, fresh,
                          observer, instr_observer)
        return fresh

    return step, "\n".join(sources)


def _forget_sources(files: list[str]) -> None:
    for filename in files:
        linecache.cache.pop(filename, None)
