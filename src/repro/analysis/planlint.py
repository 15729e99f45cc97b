"""Static plan verifier: prove a PlanSpec safe before anything executes it.

The pass pipeline (``lower -> fuse_elementwise -> fold_scalars ->
precompute_frozen [-> autotune] -> allocate``) rewrites slot tables,
layouts, slab offsets, in-place reuse and kernel variants on every compile
— and the step that runs the result has no runtime checks left:
contiguity, aliasing and buffer lifetimes are facts of the spec. They are
proven here, by a pure-static checker over :class:`~repro.runtime.plan.
PlanSpec` + the program it claims to lower. Views resolved at bind time
(``spec.aliases``) are walked in stream order with the instructions:

* **def-before-use** — every slot read was bound before (feed, state,
  precomputed constant, or an earlier output), each defined exactly once;
* **register lifetimes** — no read of a register an earlier free-list
  entry dropped, only live registers the step owns are freed (never
  state, an output, a plan constant or a slab slot), and every dying
  register is on a free-list;
* **slab-overlap** — lifetimes are recomputed from the reads (closed
  intervals; a returned output lives to the end) and two live slab buffers
  share bytes only as a declared alias or in-place reuse
  (:meth:`repro.memory.planner.SlabPlan.validate`, on plan slots);
* **alias-lifetime** — a base outlives its views: an alias is created
  after its base, views slab bytes only (a register holds a different
  array every step), and nothing reuses those bytes while a view of them
  is still read;
* **slab-layout** — every slab owner is declared C-contiguous with the
  graph's shape and dtype, each alias's offset and strides equal what
  numpy yields for that view of its base, and layouts are re-derived along
  the stream so that every into-form (``mode="out"``) and every copied-in
  base result (``mode="copy"``) is justified: its inputs are C-contiguous
  or its kernel's dense predicate holds; no view of state survives;
* **in-place reuse** (the ``donation-*`` rules, restated as the overlap
  exception) — a reused input is a private slab buffer of exactly the
  output's shape, dtype and offset that dies at that instruction and that
  nothing views (so a ``mask_mul`` may reuse its gradient, never its packed
  ``uint8`` mask), the kernel may write over that input under the node's
  attrs (:func:`repro.kernels.aliasable_inputs`: any input of an
  elementwise op, input 0 of a stride-1 depthwise conv), and — for fused
  chains — only the first link reads it; a ``donating``-variant
  instruction's clobbered inputs all die there;
* **precomputed slots** — a registered transform over frozen state,
  declaring exactly the C-contiguous shape/dtype that transform emits;
* **dtype/shape consistency** — slots map to exactly the node's
  input/output names, and the graph they name is itself schema-valid
  (:func:`repro.ir.validate.validate_graph`);
* **every mutable state slot written per step** — a dropped ``apply_*``
  instruction is a silent no-training bug;
* **fused-link invariants** — interior link values own no slot, chains
  are shape/dtype-stable, every link is a fusable single-output
  elementwise op, only the first link reads no "previous value";
* **schedule-order** — the instructions, each fused one expanded into its
  links, name schedule nodes in strictly increasing schedule position: no
  pass moves a computation, so the plan runs the order the scheduler
  profiled;
* **const-arg splices** — a folded scalar names frozen shape-``()``
  state at an in-range position;
* **honest tuning decisions** (``tuned-*`` rules) — every
  ``tuned_variants`` row names a real instruction, the registered variant
  it actually binds, a known source and finite non-negative costs, once;
* **the byte ledger, rebuilt** — the live load of the storage the plan
  holds, rebuilt from the reads alone (:func:`plan_intervals`), must be
  the ``peak_transient_bytes`` that ``allocate`` recorded.

Verification runs (gated by ``CompileOptions.verify_plans`` /
``REPRO_VERIFY_PLANS=1``) after every pass stage inside
:func:`repro.runtime.passes.run_pipeline`, unconditionally on artifact
load before binding, in the program cache's compile path, and on demand
via ``repro lint-plan <artifact>``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from ..errors import (GraphError, MemoryPlanError, PlanVerifyError,
                      ReproError, ShapeError)
from ..ir.ops import get_schema
from ..ir.validate import validate_graph
from ..kernels import (DENSE_OPS, DONATED_INPUTS, DONATING_KERNELS,
                       OUT_ALIAS_SAFE, OUT_KERNELS, PRECOMPUTE_TRANSFORMS,
                       VARIANT_KERNELS, VIEW_OPS, aliasable_inputs,
                       into_form)
from ..kernels.shape import (c_strides, is_c_contiguous, normal_strides,
                             view_layout)
from ..memory.planner import SlabPlan, live_load
from ..runtime.plan import (MODE_BASE, MODE_COPY, MODE_OUT, InstructionSpec,
                            PlanSpec, VARIANT_BASE, VARIANT_DONATING)
from .report import Finding, Report, format_findings

#: environment flag that turns per-stage verification on in the compile
#: pipeline (always-on call sites — artifact load, the program cache —
#: accept "0" as an explicit escape hatch)
ENV_FLAG = "REPRO_VERIFY_PLANS"

_FALSEY = ("", "0", "false", "no", "off")


def verify_enabled(default: bool = False) -> bool:
    """Resolve the ``REPRO_VERIFY_PLANS`` environment switch."""
    value = os.environ.get(ENV_FLAG)
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY


def verify_plan_spec(spec: PlanSpec, program) -> list[Finding]:
    """Every invariant violation in ``spec`` against ``program`` (no raise)."""
    return _PlanChecker(spec, program).run()


def verify_program(program) -> list[Finding]:
    """Verify ``program``'s (cached or freshly lowered) plan spec."""
    return verify_plan_spec(program.plan_spec(), program)


def check_plan(spec: PlanSpec, program, *, stage: str | None = None) -> None:
    """Raise :class:`~repro.errors.PlanVerifyError` on any finding."""
    findings = verify_plan_spec(spec, program)
    if findings:
        where = f" after stage {stage!r}" if stage else ""
        raise PlanVerifyError(
            f"plan verification failed{where} with {len(findings)} "
            f"finding(s): {format_findings(findings)}")


def report_for(spec: PlanSpec, program, target: str = "<plan>") -> Report:
    return Report(analyzer="planlint", target=target,
                  findings=verify_plan_spec(spec, program))


class PlanInterval(NamedTuple):
    """Storage a plan holds over closed instruction positions, and the
    values in it: ``(birth, name)`` of each member of its in-place reuse
    chain, in order (one for a buffer no output takes over)."""

    nbytes: int
    birth: int
    death: int
    values: tuple[tuple[int, str], ...]
    offset: int | None  #: None for a feed or a register

    def name_at(self, position: int) -> str:
        """The value the storage holds at ``position``: the chain member
        born last at or before it."""
        return next((name for birth, name in reversed(self.values)
                     if birth <= position), self.values[0][1])


def plan_intervals(spec: PlanSpec, program) -> list[PlanInterval]:
    """What ``spec`` holds, rebuilt from its reads: each slab buffer once
    (a reuse chain and its aliases alive to the last read of any), then
    its feeds and register results, by the rule of
    :mod:`repro.runtime.passes.allocate`."""
    checker = _PlanChecker(spec, program)
    checker.run()
    return checker.intervals()


_UNDEF, _LIVE, _FREED = 0, 1, 2


class _PlanChecker:
    """One verification walk; collects findings instead of raising."""

    def __init__(self, spec: PlanSpec, program) -> None:
        self.spec = spec
        self.program = program
        self.graph = program.graph
        self.nodes = {node.name: node for node in program.schedule}
        self.state_names = set(program.state)
        self.keep = set(program.outputs)
        self.mutable = set(program.mutable_state_names())
        self.findings: list[Finding] = []
        #: fused link nodes count as executed schedule nodes
        self._fused_seen: set[str] = set()
        #: slot -> bound value name (slots map 1:1 to names in this IR)
        self.names: dict[int, str] = {}
        self.status: dict[int, int] = {}
        self._specs: dict[str, object] = {}
        self.accounting_ok = True
        #: layouts the walk so far makes known facts: slots C-contiguous,
        #: and the strides of those laid out otherwise (views)
        self.dense: set[int] = set()
        self.strided: dict[int, tuple[int, ...]] = {}
        #: slab slot -> the owner whose bytes it is (itself, or the base
        #: of the alias chain); owner -> [birth, last read of the owner,
        #: last read counting its views], in instruction positions
        self.root: dict[int, int] = {}
        self.life: dict[int, list[int]] = {}
        #: output slot -> the dying input it takes over (in-place reuse)
        self.reused: dict[int, int] = {}
        #: feed and register slot -> [birth, death]
        self.charged: dict[int, list[int]] = {}

    def flag(self, rule: str, where: str, message: str) -> None:
        self.findings.append(Finding(rule=rule, where=where, message=message))

    # -- graph fact helpers ---------------------------------------------------

    def value_spec(self, name: str, where: str):
        cached = self._specs.get(name)
        if cached is not None:
            return cached
        try:
            spec = self.graph.spec(name)
        except ReproError:
            self.flag("unknown-value", where,
                      f"value {name!r} has no spec in the graph")
            self.accounting_ok = False
            return None
        self._specs[name] = spec
        return spec

    @staticmethod
    def _is_view(instr: InstructionSpec) -> bool:
        return instr.fused is None and instr.kernel in VIEW_OPS

    @staticmethod
    def _is_inplace(instr: InstructionSpec) -> bool:
        try:
            return instr.fused is None and get_schema(instr.kernel).inplace
        except ReproError:
            return False

    # -- slot bookkeeping -----------------------------------------------------

    def bind(self, slot: int, name: str, where: str) -> None:
        if not 0 <= slot < self.spec.num_slots:
            self.flag("slot-range", where,
                      f"slot {slot} outside [0, {self.spec.num_slots})")
            return
        other = self.names.get(slot)
        if other is not None and other != name:
            self.flag("slot-collision", where,
                      f"slot {slot} binds both {other!r} and {name!r}")
            return
        self.names[slot] = name

    def _check_precomputed_shape(self, entry, where: str) -> None:
        """The declared slot shape/dtype is what the transform emits.

        Transforms are layout changes of the weight — output shape and
        dtype depend on the source's shape and dtype only — so a zero
        stand-in of the source's declared spec decides it without state.
        """
        transform = PRECOMPUTE_TRANSFORMS.get(entry.transform)
        if transform is None:
            return  # already flagged as unknown-transform
        source = self.graph.spec(entry.state)
        try:
            out = transform(np.zeros(source.shape, source.dtype.np))
        except (ValueError, IndexError, TypeError) as exc:
            self.flag("precompute-shape", where,
                      f"transform rejects source {entry.state!r} "
                      f"{tuple(source.shape)}: {exc!r}")
            return
        declared = (tuple(entry.shape), np.dtype(entry.dtype))
        if (out.shape, out.dtype) != declared:
            self.flag("precompute-shape", where,
                      f"declares {declared[0]} {declared[1].name} but "
                      f"{entry.transform!r} emits {out.shape} "
                      f"{out.dtype.name}")
        elif not out.flags.c_contiguous:
            self.flag("slab-layout", where,
                      f"{entry.transform!r} emits a non-C-contiguous "
                      f"constant; its consumers' layouts assume one")

    # -- main walk ------------------------------------------------------------

    def _bind_static(self) -> None:
        """Feeds, state, precomputed constants: register slots bound per
        step, C-contiguous by the executor's contract."""
        spec, graph = self.spec, self.graph
        feed_names = [name for name, _ in spec.feed_specs]
        if feed_names != list(graph.inputs):
            self.flag("feed-mismatch", "feed_specs",
                      f"plan feeds {feed_names} != graph inputs "
                      f"{list(graph.inputs)}")
        bound_state = {name for _, name in spec.state_bindings}
        const_state = {name for instr in spec.instructions
                       for _, name in instr.const_args}
        if bound_state | const_state != self.state_names:
            self.flag("state-binding-mismatch", "state_bindings",
                      f"plan binds state {sorted(bound_state)} (+ "
                      f"{sorted(const_state)} const-folded) but the "
                      f"program owns {sorted(self.state_names)}")
        for where, pairs in (
                ("feed_specs", [(s, n) for n, s in spec.feed_specs]),
                ("state_bindings", spec.state_bindings)):
            for slot, name in pairs:
                self.bind(slot, name, where)
                self.status[slot] = _LIVE
                self.dense.add(slot)
        self.state_slots = {slot for slot, _ in spec.state_bindings}
        for _, slot in spec.feed_specs:
            self.charged[slot] = [0, self.end]
        self.pre_slots = set()
        for entry in spec.precomputed:
            where = f"precomputed {entry.state}.{entry.transform}"
            self.bind(entry.slot,
                      f"__precomputed__{entry.state}.{entry.transform}",
                      where)
            self.status[entry.slot] = _LIVE
            self.dense.add(entry.slot)  # _check_precomputed_shape's job
            self.pre_slots.add(entry.slot)
            if entry.transform not in PRECOMPUTE_TRANSFORMS:
                self.flag("unknown-transform", where,
                          f"transform {entry.transform!r} is not registered")
            if entry.state not in self.state_names:
                self.flag("precompute-source", where,
                          f"source {entry.state!r} is not program state")
            elif entry.state in self.mutable:
                self.flag("precompute-mutable", where,
                          f"source {entry.state!r} is mutated in-place; "
                          f"hoisting it is not bitwise-safe")
            else:
                self._check_precomputed_shape(entry, where)

    def run(self) -> list[Finding]:
        spec = self.spec
        instrs = spec.instructions
        self.end = len(instrs)
        try:  # arity, attrs and inferred output specs of every node
            validate_graph(self.graph)
        except (GraphError, ShapeError) as exc:
            self.flag("schema-mismatch", "graph", str(exc))
        self._bind_static()
        self.slab = {entry.slot: entry for entry in spec.slab_slots}
        if len(self.slab) != len(spec.slab_slots):
            self.flag("slot-collision", "slab_slots",
                      "a slot appears twice in the slab table")

        # The stream as it would have executed: the views resolved at bind
        # time interleaved with the instructions, by ``at``.
        events = sorted(
            [(alias.at, 0, n, alias) for n, alias in enumerate(spec.aliases)]
            + [(idx, 1, 0, instr) for idx, instr in enumerate(instrs)])
        if any(not 0 <= alias.at <= self.end for alias in spec.aliases):
            self.flag("alias-lifetime", "aliases",
                      "an alias lies outside the instruction stream")

        # Reads, recomputed — never trusted from the spec: the last event
        # reading each slot, the slots something views, and the slots
        # holding a kernel's own fresh result (not a view, not state).
        last_read = self.last_read = {}
        self.viewed: set[int] = set()
        self.fresh: set[int] = set()
        for when, (_, is_instr, _, event) in enumerate(events):
            reads = event.input_slots if is_instr else (event.base,)
            for slot in reads:
                last_read[slot] = when
            if not is_instr or self._is_view(event):
                self.viewed.update(reads)
            elif not self._is_inplace(event):
                self.fresh.update(event.output_slots)

        written_state: set[str] = set()
        seen_nodes: set[str] = set()
        interior_names: list[tuple[str, str]] = []
        for when, (position, is_instr, _, event) in enumerate(events):
            where = f"instr {position} ({event.node!r})" if is_instr \
                else f"alias {event.node!r}"
            node = self.nodes.get(event.node)
            if node is None:
                self.flag("unknown-node", where,
                          "references a node the schedule lacks")
                continue
            seen_nodes.add(event.node)
            if not is_instr:
                self._walk_alias(event, node, where)
                continue

            instr = event
            if node.op_type != instr.kernel:
                self.flag("kernel-mismatch", where,
                          f"kernel {instr.kernel!r} but node is "
                          f"{node.op_type!r}")
            inplace = self._is_inplace(instr)
            view = self._is_view(instr)
            for slot in instr.input_slots:  # def-before-use on every read
                state = self.status.get(slot, _UNDEF)
                if state == _UNDEF:
                    self.flag("def-before-use", where,
                              f"reads slot {slot} before any definition")
                elif state == _FREED:
                    self.flag("use-after-free", where,
                              f"reads slot {slot} after it was freed")
                self._touch(slot, position)
            if instr.const_args:
                self._check_const_args(instr, where, inplace, view)
            if instr.fused is not None:
                self._check_fused(position, instr, node, where,
                                  interior_names)
            else:
                self._check_plain(instr, node, where, inplace)

            # Outputs: exactly the node's outputs, each defined once.
            if len(instr.output_slots) != len(node.outputs):
                self.flag("output-arity", where,
                          f"{len(instr.output_slots)} output slots for "
                          f"{len(node.outputs)} node outputs")
            outs = list(zip(instr.output_slots, node.outputs))
            for slot, name in outs:
                self._define(slot, name, where)
            self._check_results(instr, node, outs, where, inplace, view,
                                position)
            if instr.reuse_slot >= 0 and self._check_reuse(instr, node,
                                                           where, when):
                self.reused[instr.output_slots[0]] = instr.reuse_slot
            if instr.variant == VARIANT_DONATING:
                self._check_donating_variant(instr, where, when)
            if inplace:
                written_state.update(
                    name for name in node.inputs
                    if name in self.state_names)
            if not inplace:
                self.charged.update((slot, [position, self.end])
                                    for slot, _ in outs
                                    if slot not in self.slab)
            dying = self._dying(outs, instr.input_slots, inplace, when)
            for slot in dying & self.charged.keys():
                self.charged[slot][1] = position
            self._check_frees(instr, where, dying)

        self._check_slab()
        self._check_end_state(written_state, seen_nodes, interior_names)
        return self.findings

    # -- liveness, layouts and the slab ---------------------------------------

    def _define(self, slot: int, name: str, where: str) -> None:
        if self.status.get(slot, _UNDEF) != _UNDEF:
            self.flag("slot-redefined", where,
                      f"slot {slot} ({self.names.get(slot)!r}) defined "
                      f"more than once")
        self.bind(slot, name, where)
        self.status[slot] = _LIVE

    def _touch(self, slot: int, position: int) -> None:
        """A read at ``position`` keeps ``slot``'s slab buffer alive."""
        life = self.life.get(self.root.get(slot))
        if life is not None:
            if self.root[slot] == slot:
                life[1] = max(life[1], position)
            life[2] = max(life[2], position)

    def _dying(self, outs, reads, inplace: bool, when: int) -> set[int]:
        """The slots that die at event ``when``: outputs nobody reads, and
        whatever was read for the last time."""
        dying = set() if inplace else {
            slot for slot, name in outs
            if slot not in self.last_read and name not in self.keep}
        dying.update(
            slot for slot in reads
            if self.last_read.get(slot) == when
            and slot not in self.state_slots and slot not in self.pre_slots
            and self.names.get(slot) not in self.keep)
        return dying

    def _strides(self, slot: int) -> tuple[int, ...] | None:
        """``slot``'s byte strides, when the walk so far makes them a
        known fact."""
        if slot not in self.dense:
            return self.strided.get(slot)
        spec = self.graph.values.get(self.names.get(slot))
        return spec and c_strides(tuple(spec.shape),
                                  np.dtype(spec.dtype.np).itemsize)

    def _view_of(self, node, source: int):
        """What numpy makes of view ``node`` over ``source``'s layout:
        False when that layout is unknown, None for a copy, else
        (offset, shape, strides) — strides in the normal form the plan
        declares them in."""
        strides = self._strides(source)
        if strides is None:
            return False
        spec = self.graph.values[self.names[source]]
        view = view_layout(node.op_type, node.attr_key(), tuple(spec.shape),
                           strides, spec.dtype.value)
        if view is None:
            return None
        offset, shape, strides = view
        return offset, shape, normal_strides(
            shape, strides, np.dtype(spec.dtype.np).itemsize)

    def _note_layout(self, slot: int, shape, strides, dtype) -> None:
        if is_c_contiguous(tuple(shape), tuple(strides),
                           np.dtype(dtype).itemsize):
            self.dense.add(slot)
        else:
            self.strided[slot] = tuple(strides)

    def _walk_alias(self, alias, node, where: str) -> None:
        """One bind-time view."""
        if node.op_type not in VIEW_OPS or len(node.outputs) != 1 \
                or len(node.inputs) != 1:
            self.flag("unknown-node", where,
                      "alias does not name a single-input view node")
            return
        name = node.outputs[0]
        self._define(alias.slot, name, where)
        if self.names.get(alias.base) != node.inputs[0]:
            self.flag("input-slot-mismatch", where,
                      f"base slot {alias.base} holds "
                      f"{self.names.get(alias.base)!r}, node reads "
                      f"{node.inputs[0]!r}")
        owner = self.root.get(alias.base)
        base, entry = self.slab.get(alias.base), self.slab.get(alias.slot)
        if self.status.get(alias.base) != _LIVE or owner is None \
                or entry is None:
            self.flag("alias-lifetime", where,
                      f"views slot {alias.base}, which is not a slab value "
                      f"defined before it — only slab bytes are the same "
                      f"array every step")
            return
        self.root[alias.slot] = owner
        if name in self.keep:
            self.life[owner][2] = self.end
        seen = self._view_of(node, alias.base)
        declared = (entry.offset - base.offset, tuple(entry.shape),
                    tuple(entry.strides))
        if not seen or entry.dtype != base.dtype or declared != tuple(seen):
            self.flag("slab-layout", where,
                      f"declares (offset, shape, strides) {declared} "
                      f"{entry.dtype}; numpy yields {seen or 'a copy'} "
                      f"{base.dtype}")
        self._note_layout(alias.slot, entry.shape, entry.strides,
                          entry.dtype)

    def _check_results(self, instr, node, outs, where: str, inplace: bool,
                       view: bool, position: int) -> None:
        """Where an instruction's results live, and in what layout."""
        source = instr.input_slots[0] if view and instr.input_slots \
            else None
        seen = self._view_of(node, source) if source is not None else None
        # Are the results C-contiguous as a static fact? In-place results
        # are the state arrays; a view kernel's copy is C-contiguous, its
        # view is when copied into a slot; otherwise the kernel layout
        # contract (C-contiguous in, C-contiguous out) or a dense op's own
        # predicate over the layouts known so far.
        if view:
            dense = seen is None or (seen is not False
                                     and instr.mode != MODE_BASE)
        else:
            dense = inplace or all(slot in self.dense
                                   for slot in instr.input_slots)
            predicate = DENSE_OPS.get(instr.kernel) \
                if instr.fused is None else None
            if not dense and predicate is not None:
                layouts = [(self.graph.values.get(self.names.get(slot)),
                            self._strides(slot))
                           for slot in instr.input_slots]
                dense = all(spec is not None and strides is not None
                            for spec, strides in layouts) and predicate(
                    [(tuple(spec.shape), s) for spec, s in layouts])

        if instr.mode == MODE_BASE:
            # the kernel's own result, held in a register
            if any(slot in self.slab for slot, _ in outs):
                self.flag("slab-layout", where,
                          "a base-mode result is declared a slab slot but "
                          "nothing writes it there")
            if view and source in self.slab:
                self.flag("alias-lifetime", where,
                          f"a runtime view of slab slot {source}: its "
                          f"bytes could be reused under it")
            if view and seen and self.names.get(source) in self.state_names:
                self.flag("slab-layout", where,
                          "a view of state survives as a view")
            for slot, name in outs:
                spec = self.value_spec(name, where)
                if spec is None:
                    continue
                if view and seen:
                    self._note_layout(slot, spec.shape, seen[2],
                                      spec.dtype.np)
                elif dense or sum(d != 1 for d in spec.shape) <= 1:
                    self.dense.add(slot)
            return

        legal = instr.mode in (MODE_OUT, MODE_COPY) and not inplace \
            and all(slot in self.slab for slot, _ in outs) \
            and (instr.mode == MODE_COPY or (
                len(outs) == 1 and (instr.fused is not None or into_form(
                    instr.kernel, instr.variant) is not None)))
        if not legal:
            self.flag("invalid-use-out", where,
                      f"mode {instr.mode!r} needs slab output slots on a "
                      f"non-in-place instruction, and 'out' an into-form")
            return
        if not dense:
            self.flag("slab-layout", where,
                      "writes a C-contiguous slab slot, but its inputs "
                      "are not declared C-contiguous (or the source of "
                      "the view has no known layout)")
        for slot, name in outs:
            # a slab owner: the graph's shape and dtype, C-contiguous
            # (_check_slab sees to it that it lies inside the slab)
            entry, spec = self.slab[slot], self.value_spec(name, where)
            if spec is None:
                continue
            dtype = np.dtype(spec.dtype.np)
            want = (tuple(spec.shape), c_strides(tuple(spec.shape),
                                                 dtype.itemsize), dtype)
            if (tuple(entry.shape), tuple(entry.strides),
                    np.dtype(entry.dtype)) != want:
                self.flag("slab-layout", where,
                          f"slot {slot} ({name!r}) declares "
                          f"{tuple(entry[2:])}; a C-contiguous "
                          f"{want[0]}/{dtype.name} is written there")
            self.dense.add(slot)
            self.root[slot] = slot
            self.life[slot] = [position, position,
                               self.end if name in self.keep else position]

    def _check_frees(self, instr, where: str, dying: set[int]) -> None:
        """The register free-list: exactly the registers that die here. (A
        free that comes too early shows as ``use-after-free`` at the next
        read.)"""
        for slot in instr.frees:
            name = self.names.get(slot)
            if self.status.get(slot) != _LIVE or slot in self.slab \
                    or slot in self.state_slots or slot in self.pre_slots \
                    or name in self.keep:
                self.flag("bad-free", where,
                          f"frees slot {slot} ({name!r}), which is not a "
                          f"live register this step owns (undefined, freed "
                          f"before, a slab slot, state, a plan constant or "
                          f"a returned output)")
            else:
                self.status[slot] = _FREED
        for slot in sorted(dying - self.slab.keys()):
            if self.status.get(slot) == _LIVE:
                self.flag("missing-free", where,
                          f"slot {slot} ({self.names.get(slot)!r}) "
                          f"dies here but is not on the free-list")

    def slab_buffers(self) -> dict[int, list[int]]:
        """The slab's buffers after the walk: owner slot -> ``[birth, last
        read of the owner, last read counting its views]``. An in-place
        reuse chain is one buffer: an output reusing an input is that
        buffer living on."""
        merged: dict[int, list[int]] = {}
        for slot, (birth, own, full) in self.life.items():
            life = merged.setdefault(self._head(slot), [birth, own, full])
            life[:] = (min(life[0], birth), max(life[1], own),
                       max(life[2], full))
        return dict(sorted(merged.items()))

    def _head(self, slot: int) -> int:
        """The slot that opened ``slot``'s buffer."""
        while slot in self.reused:
            slot = self.reused[slot]
        return slot

    def _size(self, slot: int) -> int:
        """Bytes of the value ``slot`` holds (0 when it holds none)."""
        name = self.names.get(slot)
        spec = None if name is None else self.value_spec(name, "ledger")
        return 0 if spec is None else spec.nbytes

    def intervals(self) -> list[PlanInterval]:
        """The ledger after the walk (see :func:`plan_intervals`)."""
        chains: dict[int, list[tuple[int, str]]] = {}
        for slot, (birth, _, _) in self.life.items():  # in birth order
            chains.setdefault(self._head(slot), []).append(
                (birth, self.names.get(slot, "")))
        return [PlanInterval(self._size(slot), birth, full,
                             tuple(chains[slot]), self.slab[slot].offset)
                for slot, (birth, _, full) in self.slab_buffers().items()] \
            + [PlanInterval(self._size(slot), birth, death,
                            ((birth, self.names.get(slot, "")),), None)
               for slot, (birth, death) in sorted(self.charged.items())]

    def _check_slab(self) -> None:
        """No two live buffers share bytes, in-place reuse chains aside."""
        buffers = self.slab_buffers()
        offsets = [self.slab[slot].offset for slot in buffers]
        for rule, column, note in (
                ("slab-overlap", 1, ""),
                ("alias-lifetime", 2, " while a view of one is still read")):
            try:
                SlabPlan(self.spec.slab_bytes, offsets,
                         [(self._size(slot), life[0], life[column])
                          for slot, life in buffers.items()]).validate()
            except MemoryPlanError as exc:
                self.flag(rule, "slab", f"{exc}{note}")
                return

    # -- per-instruction helpers ----------------------------------------------

    def _check_const_args(self, instr, where: str, inplace: bool,
                          view: bool) -> None:
        """Folded-scalar splices: frozen shape-() state at distinct,
        in-range positions of a non-view, non-in-place instruction."""
        total = len(instr.input_slots) + len(instr.const_args)
        positions = [pos for pos, _ in instr.const_args]
        if inplace or view or len(set(positions)) != len(positions) \
                or not all(0 <= pos < total for pos in positions):
            self.flag("const-arg-position", where,
                      f"const splices at {positions} of {total} assembled "
                      f"inputs (in-place / view instructions take none)")
        for pos, name in instr.const_args:
            spec = self.graph.values.get(name) \
                if name in self.state_names else None
            if spec is None or name in self.mutable \
                    or tuple(spec.shape) != ():
                self.flag("const-arg-source", f"{where} const_arg {pos}",
                          f"{name!r} is not frozen shape-() program state; "
                          f"only that may fold")

    def _check_plain(self, instr, node, where: str, inplace: bool) -> None:
        """Non-fused: arity, slot->name mapping, schema inference."""
        expected_inputs = list(node.inputs)
        if instr.const_args:
            consts = dict(instr.const_args)
            kept = []
            for pos, name in enumerate(expected_inputs):
                want = consts.pop(pos, None)
                if want is None:
                    kept.append(name)
                elif want != name:
                    self.flag("const-arg-mismatch", where,
                              f"const position {pos} splices {want!r}, "
                              f"node reads {name!r}")
            expected_inputs = kept
        if instr.fused is None \
                and instr.variant not in (VARIANT_BASE, VARIANT_DONATING):
            if (instr.kernel, instr.variant) not in VARIANT_KERNELS:
                self.flag("unknown-variant", where,
                          f"variant {instr.variant!r} is not registered "
                          f"for {instr.kernel!r}")
            entry = next((e for e in self.spec.precomputed
                          if instr.input_slots
                          and e.slot == instr.input_slots[-1]), None)
            if entry is None:
                self.flag("precompute-slot", where,
                          f"variant {instr.variant!r} lacks a trailing "
                          f"precomputed input slot")
            else:
                expected_inputs.append(
                    f"__precomputed__{entry.state}.{entry.transform}")
        if len(instr.input_slots) != len(expected_inputs):
            self.flag("input-arity", where,
                      f"{len(instr.input_slots)} input slots for "
                      f"{len(expected_inputs)} node inputs")
        else:
            for slot, name in zip(instr.input_slots, expected_inputs):
                bound = self.names.get(slot)
                if bound is not None and bound != name:
                    self.flag("input-slot-mismatch", where,
                              f"input slot {slot} holds {bound!r}, node "
                              f"reads {name!r}")

    def _check_fused(self, idx: int, instr, node, where: str,
                     interior_names: list) -> None:
        """Fused-chain invariants; also maps external inputs to names."""
        links = instr.fused
        if not links:
            self.flag("fused-empty", where, "fused instruction has no links")
            return
        if links[-1].node != instr.node or links[-1].kernel != instr.kernel:
            self.flag("fused-tail-mismatch", where,
                      f"instruction node/kernel != last link "
                      f"({links[-1].node!r}/{links[-1].kernel!r})")
        final_spec = self.value_spec(node.outputs[0], where) \
            if node.outputs else None
        # Link args index the *assembled* input list: slots in order, with
        # const-folded state spliced back at its recorded positions.
        const_at = dict(instr.const_args)
        total = len(instr.input_slots) + len(const_at)
        slots = iter(instr.input_slots)
        assembled = [None if pos in const_at else next(slots, None)
                     for pos in range(total)]
        external: dict[int, str] = {}
        prev_value: str | None = None
        for pos, link in enumerate(links):
            lwhere = f"{where} link {pos} ({link.node!r})"
            lnode = self.nodes.get(link.node)
            if lnode is None:
                self.flag("unknown-node", lwhere,
                          "fused link references a node the schedule lacks")
                return
            self._fused_seen.add(link.node)
            if lnode.op_type != link.kernel:
                self.flag("kernel-mismatch", lwhere,
                          f"link kernel {link.kernel!r} but node is "
                          f"{lnode.op_type!r}")
            k = link.kernel
            try:
                eligible = len(lnode.outputs) == 1 and k in OUT_KERNELS \
                    and k in OUT_ALIAS_SAFE and k not in VIEW_OPS \
                    and not get_schema(k).inplace
            except ReproError:
                eligible = False
            if not eligible:
                self.flag("fused-ineligible-link", lwhere,
                          f"{k!r} is not a single-output alias-safe "
                          f"elementwise kernel")
            if (pos == 0) == (None in link.args):
                self.flag("fused-chain-break", lwhere,
                          "the first link reads a previous value, or a "
                          "later one never reads its predecessor's result")
            if len(link.args) != len(lnode.inputs):
                self.flag("fused-arg-mismatch", lwhere,
                          f"{len(link.args)} args for "
                          f"{len(lnode.inputs)} node inputs")
                continue
            for arg, name in zip(link.args, lnode.inputs):
                known = prev_value if arg is None else \
                    external.setdefault(arg, name) \
                    if 0 <= arg < total else None
                if known != name:
                    self.flag("fused-arg-mismatch", lwhere,
                              f"arg {arg} stands for {known!r} (of {total} "
                              f"assembled inputs) but node reads {name!r}")
            # mid-chain shape/dtype stability
            lspec = self.value_spec(lnode.outputs[0], lwhere) \
                if lnode.outputs else None
            if lspec is not None and final_spec is not None \
                    and (tuple(lspec.shape) != tuple(final_spec.shape)
                         or lspec.dtype != final_spec.dtype):
                self.flag("fused-shape-drift", lwhere,
                          f"link output {tuple(lspec.shape)}/{lspec.dtype} "
                          f"!= chain output {tuple(final_spec.shape)}/"
                          f"{final_spec.dtype}")
            if lnode.outputs and pos < len(links) - 1:
                interior_names.append((lnode.outputs[0], where))
            prev_value = lnode.outputs[0] if lnode.outputs else None
        # every assembled position (slot or const splice) must be some
        # link's external arg, and the position->name mapping must agree
        if set(external) != set(range(total)):
            self.flag("fused-input-mismatch", where,
                      f"external args {sorted(external)} do not cover "
                      f"assembled positions 0..{total - 1}")
            return
        for arg, name in external.items():
            bound = const_at.get(arg) or self.names.get(assembled[arg])
            if bound is not None and bound != name:
                self.flag("input-slot-mismatch" if arg not in const_at
                          else "const-arg-mismatch", where,
                          f"assembled position {arg} holds {bound!r}, "
                          f"link arg reads {name!r}")

    def _check_reuse(self, instr, node, where: str, when: int) -> bool:
        """In-place reuse: the one declared exception to "an output shares
        no bytes with an input of its instruction". True when the bytes are
        shared as declared; a kernel that may not write over that input is
        a finding of its own, not also a slab overlap."""
        slot = instr.reuse_slot
        if instr.mode != MODE_OUT:
            self.flag("donation-without-out", where,
                      "reuse_slot set on an instruction without an "
                      "into-form")
            return False
        if slot not in instr.input_slots:
            self.flag("donation-not-input", where,
                      f"reused slot {slot} is not an input of this "
                      f"instruction")
            return False
        name = self.names.get(slot)
        findings = len(self.findings)
        if self.last_read.get(slot) != when:
            self.flag("donation-not-freed", where,
                      f"reused slot {slot} ({name!r}) is read again later "
                      f"— it would see the output's bytes")
        if slot not in self.fresh or slot in self.viewed \
                or name in self.keep:
            self.flag("donation-unsafe", where,
                      f"reused slot {slot} ({name!r}) is a view, is "
                      f"viewed, or is caller-owned")
        mine = self.slab.get(instr.output_slots[0])
        theirs = self.slab.get(slot)
        if mine is None or theirs is None or mine[1:] != theirs[1:]:
            self.flag("donation-shape-mismatch", where,
                      f"reused slot {slot} is {theirs and theirs[1:]}, the "
                      f"output is {mine and mine[1:]}: in-place reuse "
                      f"needs the same offset, shape, strides and dtype")
        shared = len(self.findings) == findings
        # kernel inputs and link args index the assembled list: the
        # slot's positions shifted past the const splices before them
        consts = {pos for pos, _ in instr.const_args}
        total = len(instr.input_slots) + len(consts)
        free = [pos for pos in range(total) if pos not in consts]
        args = [free[i] for i, s in enumerate(instr.input_slots)
                if s == slot]
        if instr.fused is None:
            out = self.value_spec(node.outputs[0], where) \
                if node.outputs else None
            safe_args = () if out is None else aliasable_inputs(
                instr.kernel, instr.variant, node.attrs, tuple(out.shape),
                total)
        else:
            later = {a for link in instr.fused[1:] for a in link.args}
            safe_args = set(instr.fused[0].args) - later
        if not all(arg in safe_args for arg in args):
            self.flag("donation-alias-unsafe", where,
                      f"{instr.kernel!r} may read slot {slot} after "
                      f"writing it (not alias-safe for these attrs and "
                      f"this input, or a later fused link reads it)")
        return shared

    def _check_donating_variant(self, instr, where: str,
                                when: int) -> None:
        if instr.fused is not None or instr.kernel not in DONATING_KERNELS:
            self.flag("unknown-variant", where,
                      f"donating variant but {instr.kernel!r} has no "
                      f"donating kernel")
            return
        for i in DONATED_INPUTS.get(instr.kernel, ()):
            if i >= len(instr.input_slots):
                self.flag("donating-variant-unsafe", where,
                          f"clobbered input index {i} out of range")
                continue
            slot = instr.input_slots[i]
            name = self.names.get(slot)
            if self.last_read.get(slot) != when or slot not in self.fresh \
                    or slot in self.viewed or name in self.keep:
                self.flag("donating-variant-unsafe", where,
                          f"clobbered input slot {slot} ({name!r}) is not "
                          f"a dying unaliased buffer")

    def _check_tuned(self) -> None:
        """Tuned-variant table: every decision names a real instruction,
        a registered (or base) variant, and matches what the instruction
        actually runs — a table that lies about tuning is rejected."""
        by_node = {instr.node: instr for instr in self.spec.instructions}
        seen: set[str] = set()
        for entry in self.spec.tuned_variants:
            where = f"tuned_variants {entry.node!r}"
            if entry.node in seen:
                self.flag("tuned-duplicate", where,
                          "two tuning decisions for one instruction")
            seen.add(entry.node)
            if entry.source not in ("cost", "measure"):
                self.flag("tuned-source", where,
                          f"unknown tuning source {entry.source!r}")
            for label in ("predicted_us", "measured_us"):
                value = getattr(entry, label)
                if value is not None and not (
                        isinstance(value, (int, float)) and value >= 0):
                    self.flag("tuned-cost-invalid", where,
                              f"{label} {value!r} is not a non-negative "
                              f"number")
            instr = by_node.get(entry.node)
            if instr is None:
                self.flag("tuned-unknown-node", where,
                          "no instruction with this node in the stream")
                continue
            if instr.kernel != entry.kernel:
                self.flag("tuned-kernel-mismatch", where,
                          f"table says {entry.kernel!r}, instruction runs "
                          f"{instr.kernel!r}")
            if entry.variant == VARIANT_BASE:
                if instr.variant not in (VARIANT_BASE, VARIANT_DONATING):
                    self.flag("tuned-variant-mismatch", where,
                              f"table says base but instruction runs "
                              f"{instr.variant!r}")
                continue
            if (entry.kernel, entry.variant) not in VARIANT_KERNELS:
                self.flag("tuned-unregistered-variant", where,
                          f"variant {entry.variant!r} is not registered "
                          f"for {entry.kernel!r}")
            if instr.variant != entry.variant:
                self.flag("tuned-variant-mismatch", where,
                          f"table says {entry.variant!r}, instruction "
                          f"runs {instr.variant!r}")

    def _check_schedule_order(self) -> None:
        """Instructions and fused links run in strictly increasing
        schedule position (an unknown node is ``unknown-node``'s
        finding)."""
        position = {name: idx for idx, name in enumerate(self.nodes)}
        last, prev = -1, None
        for idx, instr in enumerate(self.spec.instructions):
            names = [link.node for link in instr.fused] if instr.fused \
                else [instr.node]
            for name in names:
                here = position.get(name)
                if here is None:
                    continue
                if here <= last:
                    self.flag("schedule-order", f"instr {idx} ({name!r})",
                              f"runs schedule node {here} after node "
                              f"{last} ({prev!r})")
                last, prev = here, name

    # -- end-of-stream checks -------------------------------------------------

    def _check_end_state(self, written_state, seen_nodes,
                         interior_names) -> None:
        spec = self.spec
        where = "plan"
        self._check_tuned()
        self._check_schedule_order()

        for name in sorted(self.mutable - written_state):
            self.flag("state-not-written", where,
                      f"mutable state {name!r} is never written by any "
                      f"in-place instruction — the step silently stops "
                      f"training it")

        executed = seen_nodes | self._fused_seen
        missing = {node.name for node in self.program.schedule} - executed
        for name in sorted(missing):
            self.flag("missing-instruction", where,
                      f"schedule node {name!r} has no instruction in the "
                      f"stream")

        name_to_slot = {name: slot for slot, name in self.names.items()}
        for name, owner in interior_names:
            if name in name_to_slot:
                self.flag("fused-interior-slot", owner,
                          f"interior fused value {name!r} owns slot "
                          f"{name_to_slot[name]}; interior links must not "
                          f"materialize")

        produced = {name for name, _ in spec.output_slots}
        if produced != self.keep:
            self.flag("output-set-mismatch", where,
                      f"plan outputs {sorted(produced)} != program "
                      f"outputs {sorted(self.keep)}")
        for name, slot in spec.output_slots:
            if self.names.get(slot) != name:
                self.flag("output-slot-mismatch", where,
                          f"output {name!r} points at slot {slot} which "
                          f"holds {self.names.get(slot)!r}")
            elif self.status.get(slot) != _LIVE:
                self.flag("output-freed", where,
                          f"output {name!r} (slot {slot}) is not live at "
                          f"the end of the stream")

        if len(self.names) != spec.num_slots:
            self.flag("slot-count-mismatch", where,
                      f"{len(self.names)} slots bound, spec claims "
                      f"{spec.num_slots}")
        if self.accounting_ok:
            peak = max(live_load(self.intervals(), 1))
            if peak != spec.peak_transient_bytes:
                self.flag("peak-bytes-mismatch", where,
                          f"declared peak {spec.peak_transient_bytes} != "
                          f"recomputed {peak}")
