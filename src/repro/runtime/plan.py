"""Compiled execution plans: the memory plan *is* the allocation.

"Compilation first" means everything about a training step is decided
before the first step runs — memory included. :func:`build_plan_spec`
lowers a :class:`~repro.runtime.program.Program` **once**, through the
pass pipeline of :mod:`repro.runtime.passes` (``lower``, the optimization
passes, then ``allocate`` over the stream that actually runs), into a flat
instruction stream plus a static memory plan:

* every value name is an integer slot. Feeds, state and plan-owned
  precomputed constants are *register* slots, bound per step; every other
  value the plan can lay out statically is a *slab* slot: a fixed
  ``(offset, shape, strides)`` (:class:`SlotSpec`) in one byte slab of
  ``slab_bytes``. An executor builds each slab slot's ``ndarray`` once, as
  views over one ``np.empty(slab_bytes, uint8)`` (:class:`BufferSet`), and
  the generated step (:mod:`repro.runtime.codegen`) is kernel calls
  writing ``out=`` into those arrays;
* a ``reshape`` / ``transpose`` / ``slice`` whose result is a view of a
  slab slot is not an instruction: it is one more ``(offset, shape,
  strides)`` over the same bytes (:class:`AliasSpec`). A view that may not
  stay one (its source is mutable state, updated in place while the view
  is still read) or that numpy has to copy is a copy into its own slot;
* contiguity is a static per-slot fact (kernels keep C-contiguous inputs
  C-contiguous, see :mod:`repro.kernels`), proven by
  :mod:`repro.analysis.planlint`: no runtime layout gate. A value whose
  layout the plan cannot know (an elementwise result over transposed
  operands follows them) keeps its base kernel and a *dynamic* register
  holding a fresh array, as the interpreter would produce it — no zoo
  model has one;
* lifetimes are closed instruction intervals (a view keeps its base
  alive); two live slots share bytes only as a declared alias or the
  declared in-place reuse (``reuse_slot``: an elementwise or stride-1
  depthwise conv output taking over a same-shape input that dies at that
  instruction, :func:`repro.kernels.aliasable_inputs`);
* the peak is a fact of the spec too: ``peak_transient_bytes`` is the
  live load of the storage the plan holds (each slab buffer once, every
  feed and register result), counted at build time, so the step does
  zero accounting.

Plans are **portable**: :class:`PlanSpec` is pure JSON-serializable data
(it names kernels, never holds them) that round-trips through deployment
artifacts, so a plan compiled in one process executes in another that
never imports the compiler; only the current spec version decodes, any
other raises :class:`~repro.errors.PlanVersionError` and the program cache
recompiles. :func:`bind_plan` is the thin load-time step resolving those
names against :mod:`repro.kernels` into an :class:`ExecutionPlan`.

The plan depends on state *names* only, so one plan is shared by every
:meth:`Program.with_state` tenant overlay. A slab belongs to a *running
step*, not to a session: executors borrow a :class:`BufferSet` from the
plan's :class:`SlabPool` for one step (every slot is written before it is
read; returned outputs are copied out), so N sessions on W workers build
at most W slabs. Registers and the precomputed-transform cache live on the
executor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from ..errors import ExecutionError, PlanVersionError
from ..ir.node import Node
from ..ir.ops import get_schema
from ..kernels import (DONATING_KERNELS, KERNELS, PRECOMPUTE_TRANSFORMS,
                       VARIANT_KERNELS, into_form, make_fused_kernel)
from .codegen import generate

#: bump when the serialized PlanSpec layout — or the contract of anything
#: it names — changes incompatibly. Older documents are refused, not
#: shimmed: plans are a cache of a compile, and the program cache
#: recompiles on :class:`PlanVersionError`.
#: v5: the static slab — ``slab_bytes`` / ``slab_slots`` / ``aliases``,
#: per-instruction ``mode`` and ``reuse_slot``; arena keys, caps, donation
#: and the state-alias scan are gone (v4 ran a dynamic buffer arena).
#: v6: ``peak_transient_bytes`` is the live load of the storage the plan
#: holds, each slab buffer once; ``final_transient_bytes`` is gone.
PLAN_SPEC_VERSION = 6

#: every owning slab slot starts on a multiple of this (a cache line)
SLAB_ALIGNMENT = 64

#: kernel variants an instruction may reference (resolved at bind time);
#: anything else is looked up in :data:`repro.kernels.VARIANT_KERNELS`
#: (e.g. ``winograd_precomputed``).
VARIANT_BASE = "base"
VARIANT_DONATING = "donating"

#: how an instruction produces its outputs: the into-form writes the slab
#: slot directly; the base kernel's fresh result is copied into the slab
#: (no into-form yet: conv, pooling, kernel variants); or the base kernel's
#: result is the value, held in a register (in-place ops, views of
#: register values, anything whose layout is not statically C-contiguous)
MODE_OUT = "out"
MODE_COPY = "copy"
MODE_BASE = "base"


class SlotSpec(NamedTuple):
    """One slab-resident value: a static ``ndarray`` over the plan's slab."""

    slot: int
    offset: int                     #: first byte, from the slab's start
    shape: tuple[int, ...]
    strides: tuple[int, ...]        #: in bytes
    dtype: str


class AliasSpec(NamedTuple):
    """A view node resolved at bind time instead of executed.

    ``slot`` (a :class:`SlotSpec` over ``base``'s bytes) stands for
    ``node``'s output; ``at`` is its place in the stream — the number of
    instructions that run before it — which the static checks need to
    order it against them.
    """

    node: str
    slot: int
    base: int
    at: int


class BufferSet:
    """One slab and the array of every slab slot over it, built once."""

    __slots__ = ("slab", "arrays")

    def __init__(self, spec: "PlanSpec") -> None:
        self.slab = slab = np.empty(spec.slab_bytes, np.uint8)
        #: slot -> ndarray for slab slots, None for register slots
        arrays = self.arrays = [None] * spec.num_slots
        for entry in spec.slab_slots:
            arrays[entry.slot] = np.ndarray(
                entry.shape, entry.dtype, slab, entry.offset, entry.strides)


class SlabPool:
    """A plan's free list of :class:`BufferSet` s.

    ``take`` / ``give`` bracket one running step (``list.pop`` /
    ``append``: safe from any thread). ``misses`` counts the buffer sets
    ever built — at most one per concurrently running step — and ``takes``
    the steps served by a pooled one.
    """

    __slots__ = ("_spec", "_free", "takes", "misses")

    def __init__(self, spec: "PlanSpec") -> None:
        self._spec = spec
        self._free: list[BufferSet] = []
        self.takes = 0
        self.misses = 0

    def take(self) -> BufferSet:
        try:
            buffers = self._free.pop()
        except IndexError:
            self.misses += 1
            return BufferSet(self._spec)
        self.takes += 1
        return buffers

    def give(self, buffers: BufferSet) -> None:
        self._free.append(buffers)

    def retained_bytes(self) -> int:
        """Slab bytes held for the next steps."""
        return sum(buffers.slab.nbytes for buffers in self._free)


@dataclass(frozen=True)
class FusedLinkSpec:
    """One constituent op of a fused elementwise instruction.

    ``args`` maps the link's kernel inputs onto the fused instruction:
    ``None`` means "the previous link's result" (held in the shared output
    buffer on the ``out=`` path), an int indexes the instruction's
    ``input_slots``.
    """

    node: str                       #: schedule node this link came from
    kernel: str                     #: kernel registry name (== op type)
    args: tuple[int | None, ...]

    def to_dict(self) -> list:
        return [self.node, self.kernel, list(self.args)]

    @classmethod
    def from_dict(cls, doc: list) -> "FusedLinkSpec":
        node, op, args = doc
        return cls(node=node, kernel=op,
                   args=tuple(None if a is None else int(a) for a in args))


@dataclass(frozen=True)
class TunedVariantSpec:
    """One autotune decision: which kernel variant an instruction runs.

    Emitted by the ``autotune`` pass for every instruction that had more
    than one applicable variant. ``variant`` is what the plan actually
    binds (it may be ``base`` — keeping the default *is* a decision).
    ``predicted_us`` comes from the :mod:`repro.devices.cost` model;
    ``measured_us`` is filled in only under
    ``CompileOptions(autotune="measure")``.
    """

    node: str                       #: instruction this decision applies to
    kernel: str                     #: kernel registry name (== op type)
    variant: str                    #: the chosen variant
    predicted_us: float
    measured_us: float | None = None
    #: how the winner was picked: ``cost`` (model only) or ``measure``
    source: str = "cost"

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "kernel": self.kernel,
                "variant": self.variant,
                "predicted_us": self.predicted_us,
                "measured_us": self.measured_us,
                "source": self.source}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TunedVariantSpec":
        measured = doc.get("measured_us")
        return cls(node=doc["node"], kernel=doc["kernel"],
                   variant=doc["variant"],
                   predicted_us=float(doc["predicted_us"]),
                   measured_us=float(measured)
                   if measured is not None else None,
                   source=doc.get("source", "cost"))


@dataclass(frozen=True)
class PrecomputedSpec:
    """A plan-owned constant slot derived from frozen state at bind time.

    ``transform`` names an entry in
    :data:`repro.kernels.PRECOMPUTE_TRANSFORMS`; the executor applies it to
    ``state[state_name]`` once (cached per executor, keyed by the source
    array's identity — frozen inputs never change, which is what makes the
    hoist bitwise-safe) and publishes the result in ``slot``.
    """

    slot: int
    state: str
    transform: str
    shape: tuple[int, ...]
    dtype: str

    def to_dict(self) -> dict[str, Any]:
        return {"slot": self.slot, "state": self.state,
                "transform": self.transform, "shape": list(self.shape),
                "dtype": self.dtype}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PrecomputedSpec":
        return cls(slot=int(doc["slot"]), state=doc["state"],
                   transform=doc["transform"],
                   shape=tuple(int(d) for d in doc["shape"]),
                   dtype=doc["dtype"])

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class InstructionSpec(NamedTuple):
    """One lowered node as pure data: slots, names, static decisions.

    The kernel is referenced by registry name (``kernel`` — the op type)
    plus ``variant`` (:data:`VARIANT_BASE`, :data:`VARIANT_DONATING`, or a
    :data:`repro.kernels.VARIANT_KERNELS` name); ``mode`` says how its
    outputs reach their slots (:data:`MODE_OUT` / :data:`MODE_COPY` /
    :data:`MODE_BASE`). ``fused`` (when set) lists the elementwise links
    this instruction collapsed; the bound kernel then runs the whole chain
    through the output's buffer and no intermediate slot exists at all.
    Attributes and input/output names live on the graph nodes the specs
    refer to — the artifact ships the graph anyway, so the spec never
    duplicates them. (A tuple, not a frozen dataclass: ``allocate`` builds
    thousands per zoo sweep.)
    """

    node: str                       #: schedule node name
    kernel: str                     #: kernel registry name (== op type)
    variant: str                    #: base | donating | registered variant
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    mode: str                       #: out | copy | base
    #: register slots (feeds, dynamic values) dropped after this
    #: instruction; slab slots need no release — their bytes are simply
    #: some later slot's
    frees: tuple[int, ...] = ()
    #: the dying input whose bytes the output takes over (-1: none) — the
    #: one declared exception to "an output shares no bytes with an input"
    reuse_slot: int = -1
    fused: tuple[FusedLinkSpec, ...] | None = None
    #: scalar-constant folded inputs: (position, state name) pairs. The
    #: step assembles the kernel's input list by inserting
    #: ``program.state[name]`` (a live lookup — overlay-safe by
    #: construction) at ``position``; ``input_slots`` covers the remaining
    #: positions in order. Folded states need no register slot at all.
    const_args: tuple[tuple[int, str], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "node": self.node,
            "kernel": self.kernel,
            "variant": self.variant,
            "input_slots": list(self.input_slots),
            "output_slots": list(self.output_slots),
            "mode": self.mode,
            "frees": list(self.frees),
            "reuse_slot": self.reuse_slot,
        }
        if self.fused is not None:
            doc["fused"] = [link.to_dict() for link in self.fused]
        if self.const_args:
            doc["const_args"] = [[pos, name]
                                 for pos, name in self.const_args]
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "InstructionSpec":
        try:
            fused_doc = doc.get("fused")
            mode = doc["mode"]
            if mode not in (MODE_OUT, MODE_COPY, MODE_BASE):
                raise ValueError(f"unknown mode {mode!r}")
            return cls(
                node=doc["node"],
                kernel=doc["kernel"],
                variant=doc["variant"],
                input_slots=tuple(doc["input_slots"]),
                output_slots=tuple(doc["output_slots"]),
                mode=mode,
                frees=tuple(int(slot) for slot in doc["frees"]),
                reuse_slot=int(doc["reuse_slot"]),
                fused=tuple(FusedLinkSpec.from_dict(entry)
                            for entry in fused_doc)
                if fused_doc is not None else None,
                const_args=tuple((int(pos), name) for pos, name
                                 in doc.get("const_args", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(
                f"garbled plan instruction spec: {exc!r}") from None


@dataclass(frozen=True)
class PlanSpec:
    """A fully-lowered plan as a pure, serializable data object.

    Everything the executor needs except the kernel functions themselves:
    :func:`bind_plan` resolves those from the registry at load time. The
    spec depends only on graph structure, schedule, outputs, state names,
    and the pass configuration (recorded in ``passes``), so it is
    identical whether built in the compiling process or reloaded from an
    artifact.
    """

    num_slots: int
    feed_specs: tuple[tuple[str, int], ...]
    state_bindings: tuple[tuple[int, str], ...]
    output_slots: tuple[tuple[str, int], ...]
    #: size of the one buffer every slab slot lives in
    slab_bytes: int
    #: every slab-resident slot (owners and aliases alike), by slot
    slab_slots: tuple[SlotSpec, ...]
    #: view nodes resolved into ``slab_slots`` entries, in stream order
    aliases: tuple[AliasSpec, ...]
    #: the most bytes the plan's storage holds at once: slab buffers,
    #: feeds and register results (see :mod:`.passes.allocate`)
    peak_transient_bytes: int
    instructions: tuple[InstructionSpec, ...]
    #: names of the optimization passes that shaped this stream, in order
    passes: tuple[str, ...] = ()
    #: plan-owned constant slots bound from frozen state (see
    #: :class:`PrecomputedSpec`)
    precomputed: tuple[PrecomputedSpec, ...] = ()
    #: autotune decision table (empty unless the ``autotune`` pass ran):
    #: one entry per instruction that had more than one applicable variant
    tuned_variants: tuple[TunedVariantSpec, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe encoding (embedded in artifact manifests)."""
        return {
            "plan_version": PLAN_SPEC_VERSION,
            "num_slots": self.num_slots,
            "feed_specs": [[name, slot] for name, slot in self.feed_specs],
            "state_bindings": [[slot, name]
                               for slot, name in self.state_bindings],
            "output_slots": [[name, slot]
                             for name, slot in self.output_slots],
            "slab_bytes": self.slab_bytes,
            # tuples of ints / strings: JSON-safe as they are
            "slab_slots": [list(entry) for entry in self.slab_slots],
            "aliases": [list(entry) for entry in self.aliases],
            "peak_transient_bytes": self.peak_transient_bytes,
            "instructions": [instr.to_dict() for instr in self.instructions],
            "passes": list(self.passes),
            "precomputed": [entry.to_dict() for entry in self.precomputed],
            "tuned_variants": [entry.to_dict()
                               for entry in self.tuned_variants],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PlanSpec":
        """Inverse of :meth:`to_dict`.

        Raises:
            PlanVersionError: when the document speaks any plan version
                but this runtime's (callers fall back to re-lowering).
            ExecutionError: on a structurally garbled document.
        """
        version = doc.get("plan_version")
        if version != PLAN_SPEC_VERSION:
            raise PlanVersionError(
                f"unsupported plan spec version {version!r} "
                f"(runtime speaks {PLAN_SPEC_VERSION})")
        try:
            return cls(
                num_slots=int(doc["num_slots"]),
                feed_specs=tuple((name, int(slot))
                                 for name, slot in doc["feed_specs"]),
                state_bindings=tuple((int(slot), name)
                                     for slot, name in doc["state_bindings"]),
                output_slots=tuple((name, int(slot))
                                   for name, slot in doc["output_slots"]),
                slab_bytes=int(doc["slab_bytes"]),
                slab_slots=tuple(
                    SlotSpec(slot, offset, tuple(shape), tuple(strides), dt)
                    for slot, offset, shape, strides, dt
                    in doc["slab_slots"]),
                aliases=tuple(AliasSpec(*entry)
                              for entry in doc["aliases"]),
                peak_transient_bytes=int(doc["peak_transient_bytes"]),
                instructions=tuple(InstructionSpec.from_dict(entry)
                                   for entry in doc["instructions"]),
                passes=tuple(doc["passes"]),
                precomputed=tuple(PrecomputedSpec.from_dict(entry)
                                  for entry in doc["precomputed"]),
                tuned_variants=tuple(TunedVariantSpec.from_dict(entry)
                                     for entry in doc["tuned_variants"]),
            )
        except ExecutionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(f"garbled plan spec: {exc!r}") from None

    @property
    def precomputed_bytes(self) -> int:
        """Resident bytes the precomputed slots add (not transient — they
        live for the plan's lifetime, like state)."""
        return sum(entry.nbytes for entry in self.precomputed)

    def required_kernels(self) -> dict[str, set[str]]:
        """Kernel registry names -> the variants this plan binds.

        Variants: ``base``, ``donating``, ``out`` (the into-form), plus any
        registered special variant (``winograd_precomputed``). Fused
        instructions contribute their constituent links (each needing
        ``base`` and ``out``). What a runtime must provide to execute the
        plan (the deployment manifest records it).
        """
        needed: dict[str, set[str]] = {}
        for instr in self.instructions:
            if instr.fused is not None:
                for link in instr.fused:
                    variants = needed.setdefault(link.kernel, set())
                    variants.update(("base", "out"))
                continue
            variants = needed.setdefault(instr.kernel, set())
            variants.add(instr.variant)
            if instr.mode == MODE_OUT:
                variants.add("out")
        return needed

    def required_transforms(self) -> set[str]:
        """Precompute transforms the runtime must provide at bind time."""
        return {entry.transform for entry in self.precomputed}


@dataclass(slots=True, eq=False)
class Instruction:
    """One bound node: slots in, slots out, everything else pre-resolved."""

    node: Node
    kernel: Callable
    attrs: dict[str, Any]
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    mode: str
    #: the into-form MODE_OUT runs (a fused instruction's runs the whole
    #: chain through the output's buffer)
    out_kernel: Callable | None
    #: register slots dropped after this instruction
    frees: tuple[int, ...]
    #: arrays this instruction allocates per step: none when it writes the
    #: slab, one per result the base kernel returns otherwise
    allocs: int
    #: kernel-variant label for profiling ("base", "donating", "fused", or
    #: a registry variant like "winograd_precomputed")
    variant: str = VARIANT_BASE
    #: (position, state name) scalar constants folded out of the slot space
    #: — the step splices live state values in at these positions
    const_args: tuple[tuple[int, str], ...] = ()
    #: fused instructions only: the bound ``(base_fn, out_fn, attrs, args)``
    #: links ``kernel`` / ``out_kernel`` run in order
    links: tuple | None = None


class ExecutionPlan:
    """A :class:`PlanSpec` bound to live kernel functions and graph nodes.

    Executing it means calling :meth:`step_function` — Python generated
    from ``instructions`` (:mod:`repro.runtime.codegen`), built on first
    use and shared by every executor of every ``with_state`` overlay —
    over the executor's registers and a :class:`BufferSet` borrowed from
    ``slabs``.
    """

    __slots__ = ("spec", "instructions", "precomputed", "in_slab",
                 "outputs", "clear_slots", "slabs", "allocs_per_step",
                 "_generated", "_generating", "__weakref__")

    def __init__(self, spec: PlanSpec, instructions, precomputed) -> None:
        #: the serializable half this plan was bound from (slot table,
        #: feed / state bindings, static byte accounting)
        self.spec = spec
        self.instructions = instructions
        #: (slot, state name, transform fn) constant slots the executor
        #: computes once from frozen state and re-publishes every step
        self.precomputed = precomputed
        #: slots that live in the slab (everything else is a register)
        self.in_slab = frozenset(entry.slot for entry in spec.slab_slots)
        #: (name, slot, lives in the slab?) per program output — slab
        #: outputs are copied out, the slab goes back to the pool
        self.outputs = tuple((name, slot, slot in self.in_slab)
                             for name, slot in spec.output_slots)
        #: non-state registers reset after each run (don't pin caller
        #: arrays or dynamic values)
        kept = {slot for slot, _ in spec.state_bindings} \
            | {slot for slot, _, _ in precomputed} | self.in_slab
        self.clear_slots = tuple(slot for slot in range(spec.num_slots)
                                 if slot not in kept)
        #: free list of buffer sets, shared by every executor of this plan
        self.slabs = SlabPool(spec)
        #: arrays one step allocates outside the slab (dynamic values and
        #: base-kernel results copied in); static, like the stream
        self.allocs_per_step = sum(instr.allocs for instr in instructions)
        #: observed? -> (step function, its source); see step_function
        self._generated: dict[bool, tuple[Callable[..., None], str]] = {}
        self._generating = threading.Lock()

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def step_function(self, observed: bool = False) -> Callable[..., None]:
        """The generated ``step(regs, arrays, state, observer,
        instr_observer)`` for this plan.

        ``observed`` selects the variant that times each kernel and calls
        the observers; the plain one has no trace of them. Each is
        generated once, on first use — not at bind time, so compiling or
        loading a program never pays for code nobody runs — and executors
        racing on a shared plan get the same function.
        """
        return self._generate(observed)[0]

    def source(self, observed: bool = False) -> str:
        """The generated text :meth:`step_function` runs, chunk by chunk."""
        return self._generate(observed)[1]

    def _generate(self, observed: bool) -> tuple[Callable[..., None], str]:
        built = self._generated.get(observed)
        if built is None:
            with self._generating:
                built = self._generated.get(observed)
                if built is None:
                    built = self._generated[observed] = \
                        generate(self, observed)
        return built


def build_plan_spec(program, passes: Any = None) -> PlanSpec:
    """Lower ``program`` through the pass pipeline into a :class:`PlanSpec`.

    ``passes`` selects the optimization pipeline: ``"default"`` (or None
    with no override in ``program.meta["plan_passes"]``) runs every
    registered pass, ``"none"`` runs only lower+allocate (the interpreter
    oracle configuration), and an explicit sequence of pass names runs
    exactly those.

    Raises:
        ExecutionError: on an op without a registered kernel, an output
            name nothing produces, or an unknown pass name.
    """
    from .passes import run_pipeline

    return run_pipeline(program, passes=passes)


def bind_plan(spec: PlanSpec, nodes: Mapping[str, Node]) -> ExecutionPlan:
    """Resolve a :class:`PlanSpec` against the live kernel registry.

    ``nodes`` maps schedule node names to their :class:`~repro.ir.node.
    Node` objects (attributes and the observer identity come from there).
    This is the *entire* load-time step — no graph analysis, no compiler,
    and no memory: buffer sets are built by the first steps that need
    them. Fused instructions bind each constituent link's base and
    into-form kernels into one chain executor; precomputed slots bind
    their transform functions (the executor applies them lazily, once per
    session).

    Raises:
        ExecutionError: when the spec references a node the schedule lacks,
            a kernel/variant/transform the registry lacks, or a kernel
            whose op type disagrees with the node's.
    """
    instructions: list[Instruction] = []
    for ispec in spec.instructions:
        node = nodes.get(ispec.node)
        if node is None:
            raise ExecutionError(
                f"plan references unknown node {ispec.node!r}")
        if node.op_type != ispec.kernel:
            raise ExecutionError(
                f"plan instruction {ispec.node!r} binds kernel "
                f"{ispec.kernel!r} but the node is {node.op_type!r}")
        out_kernel = links = None
        attrs = node.attrs
        if ispec.fused is not None:
            links = _bind_fused(ispec, nodes)
            kernel, out_kernel = make_fused_kernel(links)
            attrs = {}
        elif ispec.variant == VARIANT_DONATING:
            kernel = DONATING_KERNELS.get(ispec.kernel)
        elif ispec.variant == VARIANT_BASE:
            kernel = KERNELS.get(ispec.kernel)
        else:
            kernel = VARIANT_KERNELS.get((ispec.kernel, ispec.variant))
            if kernel is None:
                raise ExecutionError(
                    f"unknown kernel variant {ispec.variant!r} for "
                    f"{ispec.kernel!r}")
        if kernel is None:
            raise ExecutionError(
                f"runtime lacks {ispec.variant!r} kernel for "
                f"{ispec.kernel!r}")
        if ispec.mode == MODE_OUT and out_kernel is None:
            # fused chains bound theirs above
            out_kernel = into_form(ispec.kernel, ispec.variant)
            if out_kernel is None:
                raise ExecutionError(
                    f"runtime lacks an into-form for {ispec.variant!r} "
                    f"{ispec.kernel!r}")
        if ispec.mode == MODE_OUT or \
                (links is None and get_schema(ispec.kernel).inplace):
            allocs = 0
        else:  # the base kernel materialises every result (every link)
            allocs = len(links) if links else len(ispec.output_slots)
        instructions.append(Instruction(
            node=node, kernel=kernel, attrs=attrs,
            input_slots=ispec.input_slots, output_slots=ispec.output_slots,
            mode=ispec.mode, out_kernel=out_kernel, frees=ispec.frees,
            allocs=allocs,
            variant="fused" if ispec.fused is not None else ispec.variant,
            const_args=ispec.const_args, links=links))
    precomputed = []
    for entry in spec.precomputed:
        transform = PRECOMPUTE_TRANSFORMS.get(entry.transform)
        if transform is None:
            raise ExecutionError(
                f"runtime lacks precompute transform {entry.transform!r}")
        precomputed.append((entry.slot, entry.state, transform))
    return ExecutionPlan(spec, tuple(instructions), tuple(precomputed))


def _bind_fused(ispec: InstructionSpec, nodes: Mapping[str, Node]):
    """Bind one fused instruction's links: ``(base, out, attrs, args)``."""
    links = []
    for link in ispec.fused:
        node = nodes.get(link.node)
        if node is None:
            raise ExecutionError(
                f"fused instruction {ispec.node!r} references unknown "
                f"node {link.node!r}")
        if node.op_type != link.kernel:
            raise ExecutionError(
                f"fused link {link.node!r} binds kernel {link.kernel!r} "
                f"but the node is {node.op_type!r}")
        base = KERNELS.get(link.kernel)
        out = into_form(link.kernel)
        if base is None or out is None:
            raise ExecutionError(
                f"runtime lacks base/out kernels for fused link "
                f"{link.kernel!r}")
        links.append((base, out, node.attrs, link.args))
    return tuple(links)


def build_plan(program, passes: Any = None) -> ExecutionPlan:
    """Lower ``program`` and bind the result in one step (in-process use).

    Raises:
        ExecutionError: on an op without a registered kernel, or an output
            name nothing produces.
    """
    return bind_plan(build_plan_spec(program, passes=passes),
                     {node.name: node for node in program.schedule})
