"""Compiled execution plans: pay per-step interpretation cost at compile time.

The legacy interpreter re-derives per-node facts on every step: name-keyed
dict lookups, schema fetches, string kernel dispatch, ``np.shares_memory``
aliasing scans, refcount bookkeeping, and a fresh allocation per
intermediate. :func:`build_plan_spec` lowers a :class:`~repro.runtime.
program.Program` **once** into a flat instruction stream where all of that
is precomputed:

* every value name is resolved to an integer slot in one registers list
  (feeds, mutable state, and intermediates share the space);
* kernels are referenced by **registry name + variant** — no string
  dispatch or schema lookups at run time, and no live function objects in
  the plan data;
* the state-aliasing materialisation check runs only for instructions that
  both touch mutable state and use a view-capable kernel
  (:data:`repro.kernels.VIEW_OPS`);
* per-instruction free-lists replace runtime refcounting, and the
  transient-byte timeline is simulated at build time (byte-exact against
  the interpreter for an unoptimized stream, and recomputed honestly for
  an optimized one) so the step does zero accounting;
* a :class:`BufferArena` recycles freed intermediate buffers across steps,
  feeding ``out=``-capable kernels so a fixed-shape training step reaches a
  (near-)zero-alloc steady state. Safety is static: only buffers produced
  by fresh-output kernels with no view-op consumers are ever recycled, so a
  recycled buffer can never alias a live value, a returned output, a feed,
  or mutable state.

Lowering itself is a staged **pass pipeline** (:mod:`repro.runtime.passes`):
``lower`` turns the scheduled graph into a linear stream, optimization
passes rewrite that stream (fusing adjacent elementwise instructions,
hoisting Winograd weight transforms for frozen parameters into plan-owned
precomputed slots), and ``allocate`` assigns slots, free-lists, arena caps
and the static byte accounting *after* optimization so the numbers reflect
the stream that actually runs. ``passes="none"`` skips every optimization
pass and reproduces the interpreter's accounting byte-exactly — the oracle
configuration the equivalence tests pin everything else against.

The lowering is split in two so plans are **portable**:

* :class:`PlanSpec` is a pure, JSON-serializable data object — it names
  kernels (and the passes that shaped it), it never holds them.
  ``to_dict``/``from_dict`` round-trip it through deployment artifacts
  (:mod:`repro.deploy.artifact`), so a plan compiled in one process
  executes in another that never imports the compiler. Only the current
  spec version decodes; any other raises
  :class:`~repro.errors.PlanVersionError` so callers like the program
  cache fall back to recompilation (``plan_version_miss``).
* :func:`bind_plan` is the thin load-time step that resolves those names
  against the live registries in :mod:`repro.kernels` and produces the
  executable :class:`ExecutionPlan`, whose first step generates the Python
  that runs it (:meth:`ExecutionPlan.step_function`).

The plan depends only on the graph, schedule, outputs, and state *names* —
never on state values — so one plan is shared by every
:meth:`Program.with_state` tenant overlay (they share the ``meta`` dict the
plan is cached in). Registers, arena, and the precomputed-transform cache
live on the executor: concurrent sessions never share buffers, and a
session overlaying different frozen weights recomputes its transforms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from ..errors import ExecutionError, PlanVersionError
from ..ir.node import Node
from ..kernels import (DONATING_KERNELS, KERNELS, OUT_KERNELS,
                       PRECOMPUTE_TRANSFORMS, VARIANT_KERNELS,
                       make_fused_kernel)
from .codegen import generate

#: arena bucket key: (nbytes, dtype). Byte-bucketing lets a freed buffer
#: of one shape satisfy a later request of another shape with the same
#: byte count — the executor reshapes the (always C-contiguous) pooled
#: buffer, a free view.
ArenaKey = tuple[int, Any]

#: bump when the serialized PlanSpec layout — or the contract of anything
#: it names — changes incompatibly. Older documents are refused, not
#: shimmed: plans are a cache of a compile, and the program cache
#: recompiles on :class:`PlanVersionError`.
#: v4: the ``winograd_weight`` precomputed slot is the GEMM-ready
#: ``(16, O, C)`` layout (v3 declared ``(O, C, 4, 4)``).
PLAN_SPEC_VERSION = 4

#: kernel variants an instruction may reference (resolved at bind time);
#: anything else is looked up in :data:`repro.kernels.VARIANT_KERNELS`
#: (e.g. ``winograd_precomputed``).
VARIANT_BASE = "base"
VARIANT_DONATING = "donating"


class BufferArena:
    """Size/dtype-bucketed free-lists of recycled intermediate buffers.

    One arena per executor. ``give`` receives buffers the plan proved
    unaliased at their death; ``take`` hands them back to ``out=``-capable
    instructions. Counters feed the steady-state-allocation metrics.

    ``caps`` bounds each pool at the number of instructions that can
    actually re-request that key (the plan computes this); buffers past the
    cap are dropped to the allocator instead of accumulating — shapes only
    ever produced but never consumed would otherwise grow the pool by a
    fixed amount every step.
    """

    __slots__ = ("_pools", "caps", "takes", "misses", "recycled", "dropped")

    def __init__(self, caps: dict[ArenaKey, int] | None = None) -> None:
        self._pools: dict[ArenaKey, list[np.ndarray]] = {}
        #: per-key pool bound; None = unbounded
        self.caps = caps
        self.takes = 0
        self.misses = 0
        self.recycled = 0
        self.dropped = 0

    def take(self, key: ArenaKey) -> np.ndarray | None:
        pool = self._pools.get(key)
        if pool:
            self.takes += 1
            return pool.pop()
        self.misses += 1
        return None

    def give(self, key: ArenaKey, array: np.ndarray) -> None:
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = []
        if self.caps is not None and len(pool) >= self.caps.get(key, 0):
            self.dropped += 1
            return
        self.recycled += 1
        pool.append(array)

    def buffers(self) -> list[np.ndarray]:
        """Snapshot of every pooled buffer (for safety checks/tests)."""
        return [a for pool in self._pools.values() for a in pool]

    def retained_bytes(self) -> int:
        return sum(a.nbytes for a in self.buffers())

    def clear(self) -> None:
        self._pools.clear()


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


@dataclass(frozen=True)
class InstructionSpec:
    """One lowered node as pure data: slots, names, static decisions.

    The kernel is referenced by registry name (``kernel`` — the op type)
    plus ``variant`` (:data:`VARIANT_BASE`, :data:`VARIANT_DONATING`, or a
    :data:`repro.kernels.VARIANT_KERNELS` name) and ``use_out`` (whether
    the ``out=`` variant from :data:`repro.kernels.OUT_KERNELS` drives this
    instruction when inputs are contiguous). ``fused`` (when set) lists the
    elementwise links this instruction collapsed; the bound kernel then
    runs the whole chain through one shared buffer and no intermediate
    slot exists at all. Attributes and input/output names live on the
    graph nodes the specs refer to — the artifact ships the graph anyway,
    so the spec never duplicates them.
    """

    node: str                       #: schedule node name
    kernel: str                     #: kernel registry name (== op type)
    variant: str                    #: base | donating | registered variant
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    use_out: bool                   #: bind the out=-writing variant
    out_shape: tuple[int, ...] | None
    out_dtype: str | None
    donate_slot: int                #: dying buffer the out= kernel reuses
    check_state_slots: tuple[int, ...]
    frees: tuple[tuple[int, ArenaKey | None], ...]
    fresh_outputs: int
    fused: tuple[FusedLinkSpec, ...] | None = None
    #: scalar-constant folded inputs: (position, state name) pairs. The
    #: executor assembles the kernel's input list by inserting
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
            "use_out": self.use_out,
            "out_shape": list(self.out_shape)
            if self.out_shape is not None else None,
            "out_dtype": self.out_dtype,
            "donate_slot": self.donate_slot,
            "check_state_slots": list(self.check_state_slots),
            "frees": [[slot, _key_to_json(key)] for slot, key in self.frees],
            "fresh_outputs": self.fresh_outputs,
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
            return cls(
                node=doc["node"],
                kernel=doc["kernel"],
                variant=doc["variant"],
                input_slots=tuple(doc["input_slots"]),
                output_slots=tuple(doc["output_slots"]),
                use_out=bool(doc["use_out"]),
                out_shape=tuple(doc["out_shape"])
                if doc["out_shape"] is not None else None,
                out_dtype=doc["out_dtype"],
                donate_slot=int(doc["donate_slot"]),
                check_state_slots=tuple(doc["check_state_slots"]),
                frees=tuple((int(slot), _key_from_json(key))
                            for slot, key in doc["frees"]),
                fresh_outputs=int(doc["fresh_outputs"]),
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
    clear_slots: tuple[int, ...]
    arena_caps: tuple[tuple[ArenaKey, int], ...]
    peak_transient_bytes: int
    final_transient_bytes: int
    instructions: tuple[InstructionSpec, ...]
    #: names of the optimization passes that shaped this stream, in order
    passes: tuple[str, ...] = ()
    #: plan-owned constant slots bound from frozen state (see
    #: :class:`PrecomputedSpec`)
    precomputed: tuple[PrecomputedSpec, ...] = ()
    #: resident bytes the precomputed slots add (not transient — they live
    #: for the plan's lifetime, like state)
    precomputed_bytes: int = 0
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
            "clear_slots": list(self.clear_slots),
            "arena_caps": [[_key_to_json(key), count]
                           for key, count in self.arena_caps],
            "peak_transient_bytes": self.peak_transient_bytes,
            "final_transient_bytes": self.final_transient_bytes,
            "instructions": [instr.to_dict() for instr in self.instructions],
            "passes": list(self.passes),
            "precomputed": [entry.to_dict() for entry in self.precomputed],
            "precomputed_bytes": self.precomputed_bytes,
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
                clear_slots=tuple(doc["clear_slots"]),
                arena_caps=tuple((_key_from_json(key), int(count))
                                 for key, count in doc["arena_caps"]),
                peak_transient_bytes=int(doc["peak_transient_bytes"]),
                final_transient_bytes=int(doc["final_transient_bytes"]),
                instructions=tuple(InstructionSpec.from_dict(entry)
                                   for entry in doc["instructions"]),
                passes=tuple(doc["passes"]),
                precomputed=tuple(PrecomputedSpec.from_dict(entry)
                                  for entry in doc["precomputed"]),
                precomputed_bytes=int(doc["precomputed_bytes"]),
                tuned_variants=tuple(TunedVariantSpec.from_dict(entry)
                                     for entry in doc["tuned_variants"]),
            )
        except ExecutionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(f"garbled plan spec: {exc!r}") from None

    def required_kernels(self) -> dict[str, set[str]]:
        """Kernel registry names -> the variants this plan binds.

        Variants: ``base``, ``donating``, ``out``, plus any registered
        special variant (``winograd_precomputed``). Fused instructions
        contribute their constituent links (each needing ``base`` and
        ``out``). What a runtime must provide to execute the plan (the
        deployment manifest records it).
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
            if instr.use_out:
                variants.add("out")
        return needed

    def required_transforms(self) -> set[str]:
        """Precompute transforms the runtime must provide at bind time."""
        return {entry.transform for entry in self.precomputed}


def arena_key_for(shape: tuple[int, ...], dtype: Any) -> ArenaKey:
    """The byte bucket a buffer of ``(shape, dtype)`` pools under."""
    dtype = np.dtype(dtype)
    count = 1
    for dim in shape:
        count *= int(dim)
    return (count * dtype.itemsize, dtype)


def _key_to_json(key: ArenaKey | None) -> list | None:
    if key is None:
        return None
    nbytes, dtype = key
    return [int(nbytes), np.dtype(dtype).name]


def _key_from_json(doc: list | None) -> ArenaKey | None:
    if doc is None:
        return None
    nbytes, dtype = doc
    return (int(nbytes), np.dtype(dtype))


class Instruction:
    """One bound node: slots in, slots out, everything else pre-resolved."""

    __slots__ = ("node", "kernel", "attrs", "input_slots", "output_slots",
                 "out_kernel", "out_key", "out_shape", "out_dtype",
                 "donate_slot", "check_state_slots", "frees",
                 "fresh_outputs", "variant", "const_args", "links")

    def __init__(self, node: Node, kernel, attrs, input_slots, output_slots,
                 out_kernel, out_key, out_shape, out_dtype, donate_slot,
                 check_state_slots, frees, fresh_outputs,
                 variant: str = VARIANT_BASE, const_args=(),
                 links=None) -> None:
        self.node = node
        self.kernel = kernel
        self.attrs = attrs
        self.input_slots = input_slots
        self.output_slots = output_slots
        #: out=-writing variant (single-output, non-inplace ops only; for
        #: fused instructions this runs the whole chain through one buffer)
        self.out_kernel = out_kernel
        self.out_key = out_key
        self.out_shape = out_shape
        self.out_dtype = out_dtype
        #: slot whose dying buffer the out= kernel writes into (-1: none)
        self.donate_slot = donate_slot
        #: mutable-state slots to scan with shares_memory (view ops only)
        self.check_state_slots = check_state_slots
        #: (slot, arena_key_or_None) freed after this instruction; a key
        #: means the buffer is provably unaliased and returns to the arena
        self.frees = frees
        #: non-inplace outputs allocated fresh when the out= path is not
        #: taken (feeds the steady-state allocation metric)
        self.fresh_outputs = fresh_outputs
        #: kernel-variant label for profiling ("base", "donating",
        #: "fused", or a registry variant like "winograd_precomputed")
        self.variant = variant
        #: (position, state name) scalar constants folded out of the slot
        #: space — the executor splices live state values in at these
        #: positions when assembling the kernel's inputs
        self.const_args = const_args
        #: fused instructions only: the bound ``(base_fn, out_fn, attrs,
        #: args)`` links ``kernel`` / ``out_kernel`` run in order
        self.links = links


class ExecutionPlan:
    """A :class:`PlanSpec` bound to live kernel functions and graph nodes.

    Executing it means calling :meth:`step_function` — Python generated
    from ``instructions`` (:mod:`repro.runtime.codegen`), built on first
    use and shared by every executor of every ``with_state`` overlay.
    """

    __slots__ = ("spec", "num_slots", "feed_specs", "state_bindings",
                 "instructions", "output_slots", "clear_slots", "arena_caps",
                 "peak_transient_bytes", "final_transient_bytes",
                 "precomputed", "passes", "_generated", "_generating",
                 "__weakref__")

    def __init__(self, spec, num_slots, feed_specs, state_bindings,
                 instructions, output_slots, clear_slots, arena_caps,
                 peak_transient_bytes, final_transient_bytes,
                 precomputed=(), passes=()) -> None:
        #: the serializable half this plan was bound from
        self.spec = spec
        self.num_slots = num_slots
        #: (name, slot) per graph input, in declaration order
        self.feed_specs = feed_specs
        #: (slot, name) pairs re-bound from program.state at every step
        self.state_bindings = state_bindings
        self.instructions = instructions
        #: (name, slot) per program output
        self.output_slots = output_slots
        #: non-state slots reset after each run (don't pin caller arrays)
        self.clear_slots = clear_slots
        #: per-key pool bounds for this plan's BufferArena instances
        self.arena_caps = arena_caps
        #: static replica of the optimized stream's transient peak (equals
        #: the interpreter's measurement for an unoptimized stream)
        self.peak_transient_bytes = peak_transient_bytes
        self.final_transient_bytes = final_transient_bytes
        #: (slot, state name, transform fn) constant slots the executor
        #: computes once from frozen state and re-publishes every step
        self.precomputed = precomputed
        #: optimization passes applied at lowering, in order
        self.passes = passes
        #: observed? -> (step function, its source); see step_function
        self._generated: dict[bool, tuple[Callable[..., int], str]] = {}
        self._generating = threading.Lock()

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def step_function(self, observed: bool = False) -> Callable[..., int]:
        """The generated ``step(regs, state, arena, observer,
        instr_observer) -> fresh allocations`` for this plan.

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

    def _generate(self, observed: bool) -> tuple[Callable[..., int], str]:
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
    This is the *entire* load-time step — no graph analysis, no compiler.
    Fused instructions bind each constituent link's base and ``out=``
    kernels into one chain executor; precomputed slots bind their
    transform functions (the executor applies them lazily, once per
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
        out_kernel = out_key = out_shape = out_dtype = links = None
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
        if ispec.use_out:
            if out_kernel is None:  # fused chains bound theirs above
                out_kernel = OUT_KERNELS.get(ispec.kernel)
                if out_kernel is None:
                    raise ExecutionError(
                        f"runtime lacks out= kernel for {ispec.kernel!r}")
            out_shape = ispec.out_shape
            out_dtype = np.dtype(ispec.out_dtype)
            out_key = arena_key_for(out_shape, out_dtype)
        instructions.append(Instruction(
            node=node, kernel=kernel, attrs=attrs,
            input_slots=ispec.input_slots, output_slots=ispec.output_slots,
            out_kernel=out_kernel, out_key=out_key, out_shape=out_shape,
            out_dtype=out_dtype, donate_slot=ispec.donate_slot,
            check_state_slots=ispec.check_state_slots, frees=ispec.frees,
            fresh_outputs=ispec.fresh_outputs,
            variant="fused" if ispec.fused is not None else ispec.variant,
            const_args=ispec.const_args, links=links))
    precomputed = []
    for entry in spec.precomputed:
        transform = PRECOMPUTE_TRANSFORMS.get(entry.transform)
        if transform is None:
            raise ExecutionError(
                f"runtime lacks precompute transform {entry.transform!r}")
        precomputed.append((entry.slot, entry.state, transform))
    return ExecutionPlan(
        spec=spec,
        num_slots=spec.num_slots,
        feed_specs=spec.feed_specs,
        state_bindings=spec.state_bindings,
        instructions=tuple(instructions),
        output_slots=spec.output_slots,
        clear_slots=spec.clear_slots,
        arena_caps=dict(spec.arena_caps),
        peak_transient_bytes=spec.peak_transient_bytes,
        final_transient_bytes=spec.final_transient_bytes,
        precomputed=tuple(precomputed),
        passes=spec.passes,
    )


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
        out = OUT_KERNELS.get(link.kernel)
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
