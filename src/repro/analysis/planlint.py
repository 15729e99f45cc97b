"""Static plan verifier: prove a PlanSpec safe before anything executes it.

The pass pipeline (``lower -> fuse_elementwise -> fold_scalars ->
precompute_frozen [-> autotune] -> allocate``) rewrites slot tables,
free-lists, donation decisions, kernel variants, and arena caps on
every compile. Until now the only safety net was the
byte-exactness oracle — which *runs* the plan, so a bad free-list or an
alias-unsafe donation shows up as silent corruption of a tenant's
optimizer state rather than a compile-time error. This module closes
that gap with a pure-static checker over :class:`~repro.runtime.plan.
PlanSpec` + the program it claims to lower. Per instruction stream it
proves:

* **def-before-use** — every slot an instruction reads was bound before
  (feed, state, precomputed constant, or an earlier instruction's
  output), and each slot is defined exactly once (values are SSA);
* **no use-after-free** — no instruction reads a slot an earlier
  free-list entry released, no double-free, no free of an undefined
  slot, and state/output/precomputed slots are never freed;
* **donation / alias safety** — a donated buffer is a dying, provably
  unaliased input of the same (shape, dtype) as the output, is freed at
  the donating instruction with no arena key (the buffer lives on as
  the output), and — for fused chains — is read only by the first link;
  a ``donating``-variant instruction's clobbered inputs all die there;
* **precomputed slots** — each names a registered transform over frozen
  program state, and declares exactly the shape/dtype that transform
  emits (the slot layout is a kernel contract: a stale layout must not
  bind);
* **dtype/shape consistency** — each instruction's slots map to exactly
  the node's input/output names, arity and inferred output specs match
  the kernel schema, and the recorded ``out=`` shape/dtype equals the
  graph's declared output spec;
* **every mutable state slot written per step** — each state name some
  in-place node mutates is actually touched by an in-place instruction
  in the stream (a dropped ``apply_*`` instruction is a silent
  no-training bug);
* **fused-link invariants** — interior link values own no slot, chains
  are shape/dtype-stable, every link is a fusable single-output
  elementwise op, the first link reads no "previous value", and later
  links do;
* **const-arg splices** — a folded scalar names frozen shape-``()``
  state, its assembled position is in range, and the folded name owns
  no slot anywhere in the plan;
* **honest tuning decisions** (``tuned-*`` rules) — every
  ``tuned_variants`` row names a real instruction, a registered
  variant of the right kernel, the variant the instruction actually
  binds, a known source (``cost``/``measure``), finite non-negative
  costs, and no instruction is tuned twice;
* **independent byte accounting** — the transient-byte timeline, peak,
  arena caps, precomputed bytes, and clear-slot set are recomputed from
  scratch and must equal the numbers ``allocate`` recorded. A plan that
  lies about its arena caps or peak is rejected even when every
  individual instruction looks fine.

Verification runs (gated by ``CompileOptions.verify_plans`` /
``REPRO_VERIFY_PLANS=1``) after every pass stage inside
:func:`repro.runtime.passes.run_pipeline`, unconditionally on artifact
load before binding, in the program cache's compile path, and on demand
via ``repro lint-plan <artifact>``.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import PlanVerifyError, ReproError
from ..ir.ops import get_schema
from ..kernels import (DONATED_INPUTS, DONATING_KERNELS, OUT_ALIAS_SAFE,
                       OUT_KERNELS, PRECOMPUTE_TRANSFORMS, VARIANT_KERNELS,
                       VIEW_OPS)
from ..runtime.plan import (InstructionSpec, PlanSpec, VARIANT_BASE,
                            VARIANT_DONATING, arena_key_for)
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

    def nbytes(self, name: str, where: str) -> int:
        spec = self.value_spec(name, where)
        if spec is None:
            return 0
        return spec.nbytes

    def arena_key(self, name: str, where: str):
        spec = self.value_spec(name, where)
        if spec is None:
            return None
        return arena_key_for(tuple(spec.shape), np.dtype(spec.dtype.np))

    @staticmethod
    def _is_view(instr: InstructionSpec) -> bool:
        return instr.fused is None and instr.kernel in VIEW_OPS

    @staticmethod
    def _is_inplace(instr: InstructionSpec) -> bool:
        if instr.fused is not None or instr.kernel not in VIEW_OPS:
            try:
                return instr.fused is None \
                    and get_schema(instr.kernel).inplace
            except ReproError:
                return False
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

    # -- main walk ------------------------------------------------------------

    def run(self) -> list[Finding]:
        spec = self.spec
        graph = self.graph

        # Static bindings: feeds, state, precomputed constants.
        feed_names = [name for name, _ in spec.feed_specs]
        if feed_names != list(graph.inputs):
            self.flag("feed-mismatch", "feed_specs",
                      f"plan feeds {feed_names} != graph inputs "
                      f"{list(graph.inputs)}")
        for name, slot in spec.feed_specs:
            self.bind(slot, name, "feed_specs")
            self.status[slot] = _LIVE
        bound_state = {name for _, name in spec.state_bindings}
        const_state = {name for instr in spec.instructions
                       for _, name in instr.const_args}
        if bound_state | const_state != self.state_names:
            self.flag("state-binding-mismatch", "state_bindings",
                      f"plan binds state {sorted(bound_state)} (+ "
                      f"{sorted(const_state)} const-folded) but the "
                      f"program owns {sorted(self.state_names)}")
        state_slots = set()
        for slot, name in spec.state_bindings:
            self.bind(slot, name, "state_bindings")
            self.status[slot] = _LIVE
            state_slots.add(slot)
        pre_slots = set()
        for entry in spec.precomputed:
            where = f"precomputed {entry.state}.{entry.transform}"
            self.bind(entry.slot,
                      f"__precomputed__{entry.state}.{entry.transform}",
                      where)
            self.status[entry.slot] = _LIVE
            pre_slots.add(entry.slot)
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

        # Producer/consumer facts over the spec stream (recomputed, never
        # trusted from the spec) — recyclability needs them.
        produced_by: dict[int, int] = {}
        consumed_view: set[int] = set()
        last_read: dict[int, int] = {}
        for idx, instr in enumerate(spec.instructions):
            for slot in instr.output_slots:
                produced_by.setdefault(slot, idx)
            for slot in instr.input_slots:
                last_read[slot] = idx
            if self._is_view(instr):
                consumed_view.update(instr.input_slots)
        instrs = spec.instructions

        def recyclable(slot: int) -> bool:
            idx = produced_by.get(slot)
            if idx is None:
                return False  # feeds/state/precomputed: caller-owned
            p = instrs[idx]
            if self._is_view(p) or self._is_inplace(p):
                return False
            if self.names.get(slot) in self.keep:
                return False
            return slot not in consumed_view

        transient = sum(self.nbytes(name, "inputs")
                        for name in graph.inputs)
        peak = transient
        arena_caps: dict = {}
        written_state: set[str] = set()
        seen_nodes: set[str] = set()
        interior_names: list[tuple[str, str]] = []

        for idx, instr in enumerate(spec.instructions):
            where = f"instr {idx} ({instr.node!r})"
            node = self.nodes.get(instr.node)
            if node is None:
                self.flag("unknown-node", where,
                          "references a node the schedule lacks")
                continue
            seen_nodes.add(instr.node)
            if node.op_type != instr.kernel:
                self.flag("kernel-mismatch", where,
                          f"kernel {instr.kernel!r} but node is "
                          f"{node.op_type!r}")
            inplace = self._is_inplace(instr)
            view = self._is_view(instr)

            # def-before-use / use-after-free on every read.
            for slot in instr.input_slots:
                state = self.status.get(slot, _UNDEF)
                if state == _UNDEF:
                    self.flag("def-before-use", where,
                              f"reads slot {slot} before any definition")
                elif state == _FREED:
                    self.flag("use-after-free", where,
                              f"reads slot {slot} after it was freed")

            if instr.const_args:
                self._check_const_args(instr, where, inplace, view)

            if instr.fused is not None:
                self._check_fused(idx, instr, node, where, interior_names)
                expected_inputs = None  # checked inside _check_fused
            else:
                expected_inputs = self._check_plain(instr, node, where,
                                                    inplace)

            # Outputs: exactly the node's outputs, each defined once.
            out_names = node.outputs
            if len(instr.output_slots) != len(out_names):
                self.flag("output-arity", where,
                          f"{len(instr.output_slots)} output slots for "
                          f"{len(out_names)} node outputs")
            for slot, name in zip(instr.output_slots, out_names):
                if self.status.get(slot, _UNDEF) != _UNDEF:
                    self.flag("slot-redefined", where,
                              f"slot {slot} ({self.names.get(slot)!r}) "
                              f"defined more than once")
                self.bind(slot, name, where)
                self.status[slot] = _LIVE

            # use_out / donation invariants.
            self._check_out_and_donation(instr, node, where, inplace,
                                         recyclable)
            if instr.variant == VARIANT_DONATING:
                self._check_donating_variant(instr, node, where, recyclable)

            # check_state_slots: exactly the state inputs of view kernels.
            expected_check = ()
            if view and not inplace and expected_inputs is not None:
                expected_check = tuple(
                    slot for slot, name in zip(instr.input_slots,
                                               expected_inputs)
                    if name in self.state_names)
            if tuple(instr.check_state_slots) != expected_check:
                self.flag("state-check-mismatch", where,
                          f"check_state_slots {instr.check_state_slots} "
                          f"!= expected {expected_check}")

            if inplace:
                if instr.use_out or instr.donate_slot >= 0 \
                        or instr.fresh_outputs != 0:
                    self.flag("inplace-invariant", where,
                              "in-place instruction carries out=/donation/"
                              "fresh-output decisions")
                written_state.update(
                    name for name in node.inputs
                    if name in self.state_names)
            expected_fresh = 0 if inplace else (
                len(instr.fused) if instr.fused is not None
                else len(node.outputs))
            if instr.fresh_outputs != expected_fresh:
                self.flag("fresh-outputs-mismatch", where,
                          f"fresh_outputs {instr.fresh_outputs} != "
                          f"{expected_fresh}")

            # Byte timeline: outputs materialize, then the free-list runs.
            if not inplace:
                for name in out_names:
                    transient += self.nbytes(name, where)
            if transient > peak:
                peak = transient
            freed_here = set()
            for slot, key in instr.frees:
                state = self.status.get(slot, _UNDEF)
                name = self.names.get(slot)
                if state == _UNDEF:
                    self.flag("free-undefined", where,
                              f"frees slot {slot} which was never defined")
                    continue
                if state == _FREED or slot in freed_here:
                    self.flag("double-free", where,
                              f"frees slot {slot} ({name!r}) twice")
                    continue
                if slot in state_slots:
                    self.flag("freed-state", where,
                              f"frees state slot {slot} ({name!r})")
                if slot in pre_slots:
                    self.flag("freed-precomputed", where,
                              f"frees precomputed slot {slot}")
                if name in self.keep:
                    self.flag("freed-output", where,
                              f"frees program output {name!r}")
                freed_here.add(slot)
                self.status[slot] = _FREED
                if name is not None:
                    transient -= self.nbytes(name, where)
                if key is not None:
                    if not recyclable(slot):
                        self.flag("unsafe-recycle", where,
                                  f"slot {slot} ({name!r}) returns to the "
                                  f"arena but may be aliased/caller-owned")
                    elif name is not None:
                        expect = self.arena_key(name, where)
                        if expect is not None \
                                and (int(key[0]), np.dtype(key[1])) \
                                != expect:
                            self.flag("arena-key-mismatch", where,
                                      f"free of {name!r} recycles under "
                                      f"{key}, spec says {expect}")

            # Independent free-list recomputation: every buffer allocate
            # would release here (dead output or last-read input) must be
            # on this instruction's free-list, or the plan leaks it.
            expected_frees = set()
            if not inplace:
                for slot, name in zip(instr.output_slots, out_names):
                    if slot not in last_read and name not in self.keep:
                        expected_frees.add(slot)
            for slot in instr.input_slots:
                if last_read.get(slot) == idx and slot not in state_slots \
                        and slot not in pre_slots \
                        and self.names.get(slot) not in self.keep:
                    expected_frees.add(slot)
            for slot in sorted(expected_frees - freed_here):
                if self.status.get(slot) == _LIVE:
                    self.flag("missing-free", where,
                              f"slot {slot} ({self.names.get(slot)!r}) "
                              f"dies here but is not on the free-list")

            if instr.use_out and instr.donate_slot < 0 \
                    and instr.out_shape is not None \
                    and instr.out_dtype is not None:
                cap_key = arena_key_for(tuple(instr.out_shape),
                                        np.dtype(instr.out_dtype))
                arena_caps[cap_key] = arena_caps.get(cap_key, 0) + 1

        self._check_end_state(arena_caps, peak, transient, written_state,
                              seen_nodes, interior_names, state_slots,
                              pre_slots)
        return self.findings

    # -- per-instruction helpers ----------------------------------------------

    def _check_const_args(self, instr, where: str, inplace: bool,
                          view: bool) -> None:
        """Folded-scalar splices: frozen shape-() state at valid positions."""
        if inplace or view:
            self.flag("const-arg-context", where,
                      "const-folded inputs on an in-place/view instruction")
        total = len(instr.input_slots) + len(instr.const_args)
        seen: set[int] = set()
        for pos, name in instr.const_args:
            cwhere = f"{where} const_arg {pos}"
            if not 0 <= pos < total:
                self.flag("const-arg-range", cwhere,
                          f"position {pos} outside the assembled input "
                          f"list of {total}")
            if pos in seen:
                self.flag("const-arg-duplicate", cwhere,
                          "position spliced twice")
            seen.add(pos)
            if name not in self.state_names:
                self.flag("const-arg-source", cwhere,
                          f"{name!r} is not program state")
                continue
            if name in self.mutable:
                self.flag("const-arg-mutable", cwhere,
                          f"{name!r} is mutated in place; only frozen "
                          f"state may fold")
            cspec = self.value_spec(name, cwhere)
            if cspec is not None and tuple(cspec.shape) != ():
                self.flag("const-arg-shape", cwhere,
                          f"{name!r} has shape {tuple(cspec.shape)}; "
                          f"only scalars fold")

    def _check_plain(self, instr, node, where: str, inplace: bool):
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
        self._check_schema(node, where)
        return tuple(node.inputs)

    def _check_schema(self, node, where: str) -> None:
        """Node arity + inferred output specs against the kernel schema."""
        try:
            schema = get_schema(node.op_type)
        except ReproError:
            self.flag("unknown-kernel", where,
                      f"no schema for op {node.op_type!r}")
            return
        if not (schema.min_inputs <= len(node.inputs)
                <= schema.max_inputs):
            self.flag("schema-arity", where,
                      f"{len(node.inputs)} inputs outside "
                      f"[{schema.min_inputs}, {schema.max_inputs}]")
            return
        in_specs = [self.value_spec(name, where) for name in node.inputs]
        if any(s is None for s in in_specs):
            return
        try:
            inferred = schema.infer(in_specs, node.attrs)
        except Exception as exc:  # noqa: BLE001 - schema disagreement
            self.flag("schema-infer", where,
                      f"schema inference rejects the node: {exc}")
            return
        if len(inferred) != len(node.outputs):
            self.flag("schema-mismatch", where,
                      f"schema infers {len(inferred)} outputs, node "
                      f"declares {len(node.outputs)}")
            return
        for name, (shape, dtype) in zip(node.outputs, inferred):
            declared = self.value_spec(name, where)
            if declared is None:
                continue
            if tuple(declared.shape) != tuple(shape) \
                    or declared.dtype != dtype:
                self.flag("schema-mismatch", where,
                          f"output {name!r} declared "
                          f"{tuple(declared.shape)}/{declared.dtype} but "
                          f"schema infers {tuple(shape)}/{dtype}")

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
        final_spec = None
        if node.outputs:
            final_spec = self.value_spec(node.outputs[0], where)
        # Link args index the *assembled* input list: slots in order, with
        # const-folded state spliced back at its recorded positions.
        const_at = dict(instr.const_args)
        total = len(instr.input_slots) + len(const_at)
        slot_of: dict[int, int] = {}
        nxt = 0
        for pos in range(total):
            if pos not in const_at:
                slot_of[pos] = nxt
                nxt += 1
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
            eligible = (len(lnode.outputs) == 1
                        and k in OUT_KERNELS and k in OUT_ALIAS_SAFE
                        and k not in VIEW_OPS)
            try:
                eligible = eligible and not get_schema(k).inplace
            except ReproError:
                eligible = False
            if not eligible:
                self.flag("fused-ineligible-link", lwhere,
                          f"{k!r} is not a single-output alias-safe "
                          f"elementwise kernel")
            if pos == 0 and any(a is None for a in link.args):
                self.flag("fused-chain-break", lwhere,
                          "first link reads a previous value")
            if pos > 0 and not any(a is None for a in link.args):
                self.flag("fused-chain-break", lwhere,
                          "link never reads the previous link's result")
            if len(link.args) != len(lnode.inputs):
                self.flag("fused-arg-arity", lwhere,
                          f"{len(link.args)} args for "
                          f"{len(lnode.inputs)} node inputs")
            else:
                for arg, name in zip(link.args, lnode.inputs):
                    if arg is None:
                        if name != prev_value:
                            self.flag("fused-arg-mismatch", lwhere,
                                      f"arg None stands for {prev_value!r} "
                                      f"but node reads {name!r}")
                        continue
                    if not 0 <= arg < total:
                        self.flag("fused-arg-range", lwhere,
                                  f"arg index {arg} outside the assembled "
                                  f"input list of {total}")
                        continue
                    known = external.get(arg)
                    if known is None:
                        external[arg] = name
                    elif known != name:
                        self.flag("fused-arg-mismatch", lwhere,
                                  f"external input {arg} is both "
                                  f"{known!r} and {name!r}")
            # mid-chain shape/dtype stability
            if lnode.outputs:
                lspec = self.value_spec(lnode.outputs[0], lwhere)
                if lspec is not None and final_spec is not None \
                        and (tuple(lspec.shape) != tuple(final_spec.shape)
                             or lspec.dtype != final_spec.dtype):
                    self.flag("fused-shape-drift", lwhere,
                              f"link output {tuple(lspec.shape)}/"
                              f"{lspec.dtype} != chain output "
                              f"{tuple(final_spec.shape)}/"
                              f"{final_spec.dtype}")
                if pos < len(links) - 1:
                    interior_names.append((lnode.outputs[0], where))
            self._check_schema(lnode, lwhere)
            prev_value = lnode.outputs[0] if lnode.outputs else None
        # every assembled position (slot or const splice) must be some
        # link's external arg, and the position->name mapping must agree
        if set(external) != set(range(total)):
            self.flag("fused-input-mismatch", where,
                      f"external args {sorted(external)} do not cover "
                      f"assembled positions 0..{total - 1}")
        else:
            for arg, name in external.items():
                cname = const_at.get(arg)
                if cname is not None:
                    if cname != name:
                        self.flag("const-arg-mismatch", where,
                                  f"assembled position {arg} splices "
                                  f"{cname!r}, link arg reads {name!r}")
                    continue
                bound = self.names.get(instr.input_slots[slot_of[arg]])
                if bound is not None and bound != name:
                    self.flag("input-slot-mismatch", where,
                              f"input slot "
                              f"{instr.input_slots[slot_of[arg]]} holds "
                              f"{bound!r}, link arg {arg} reads {name!r}")

    def _check_out_and_donation(self, instr, node, where: str,
                                inplace: bool, recyclable) -> None:
        if instr.use_out:
            legal = not inplace and len(node.outputs) == 1 \
                and (instr.fused is not None
                     or instr.kernel in OUT_KERNELS)
            if not legal:
                self.flag("invalid-use-out", where,
                          "use_out set on an instruction with no out= "
                          "variant (or multiple outputs)")
            if instr.out_shape is None or instr.out_dtype is None:
                self.flag("out-spec-mismatch", where,
                          "use_out without a recorded out shape/dtype")
            elif node.outputs:
                declared = self.value_spec(node.outputs[0], where)
                if declared is not None and (
                        tuple(instr.out_shape) != tuple(declared.shape)
                        or np.dtype(instr.out_dtype)
                        != np.dtype(declared.dtype.np)):
                    self.flag("out-spec-mismatch", where,
                              f"out= records {tuple(instr.out_shape)}/"
                              f"{instr.out_dtype}, graph declares "
                              f"{tuple(declared.shape)}/"
                              f"{np.dtype(declared.dtype.np).name}")
        elif instr.donate_slot >= 0:
            self.flag("donation-without-out", where,
                      "donate_slot set on a non-out= instruction")
            return
        if instr.donate_slot < 0:
            return
        slot = instr.donate_slot
        if slot not in instr.input_slots:
            self.flag("donation-not-input", where,
                      f"donated slot {slot} is not an input of this "
                      f"instruction")
            return
        freed_keys = dict(instr.frees)
        if slot not in freed_keys:
            self.flag("donation-not-freed", where,
                      f"donated slot {slot} is not freed here — a later "
                      f"read would see the clobbered buffer")
        elif freed_keys[slot] is not None:
            self.flag("donation-recycled", where,
                      f"donated slot {slot} also returns to the arena; "
                      f"the buffer would alias the output")
        if not recyclable(slot):
            self.flag("donation-unsafe", where,
                      f"donated slot {slot} "
                      f"({self.names.get(slot)!r}) may be aliased or "
                      f"caller-owned")
        name = self.names.get(slot)
        if name is not None and instr.out_shape is not None \
                and instr.out_dtype is not None:
            # Donation requires the *exact* (shape, dtype) — an out= kernel
            # writes element-for-element, so a same-byte-bucket buffer of
            # another shape is not good enough.
            dspec = self.value_spec(name, where)
            if dspec is not None and (
                    tuple(dspec.shape) != tuple(instr.out_shape)
                    or np.dtype(dspec.dtype.np)
                    != np.dtype(instr.out_dtype)):
                self.flag("donation-shape-mismatch", where,
                          f"donated buffer {name!r} is "
                          f"{(tuple(dspec.shape), dspec.dtype)}, output "
                          f"wants {(tuple(instr.out_shape), instr.out_dtype)}")
        if instr.fused is not None:
            first = {a for a in instr.fused[0].args if a is not None}
            later = {a for link in instr.fused[1:]
                     for a in link.args if a is not None}
            safe = first - later
            try:
                arg = instr.input_slots.index(slot)
            except ValueError:
                return
            if instr.const_args:
                # link args index the assembled list: shift the slot
                # position past the const splices before it
                const_positions = {pos for pos, _ in instr.const_args}
                total = len(instr.input_slots) + len(const_positions)
                k = -1
                for pos in range(total):
                    if pos in const_positions:
                        continue
                    k += 1
                    if k == arg:
                        arg = pos
                        break
            if arg not in safe:
                self.flag("donation-alias-unsafe", where,
                          f"donated input {arg} is read by a later fused "
                          f"link; the first link's write clobbers it")
        elif instr.kernel not in OUT_ALIAS_SAFE:
            self.flag("donation-alias-unsafe", where,
                      f"{instr.kernel!r} is not alias-safe; it may read "
                      f"the donated buffer after writing it")

    def _check_donating_variant(self, instr, node, where: str,
                                recyclable) -> None:
        if instr.fused is not None or instr.kernel not in DONATING_KERNELS:
            self.flag("unknown-variant", where,
                      f"donating variant but {instr.kernel!r} has no "
                      f"donating kernel")
            return
        freed = {slot for slot, _ in instr.frees}
        for i in DONATED_INPUTS.get(instr.kernel, ()):
            if i >= len(instr.input_slots):
                self.flag("donating-variant-unsafe", where,
                          f"clobbered input index {i} out of range")
                continue
            slot = instr.input_slots[i]
            if slot not in freed or not recyclable(slot):
                self.flag("donating-variant-unsafe", where,
                          f"clobbered input slot {slot} "
                          f"({self.names.get(slot)!r}) is not a dying "
                          f"unaliased buffer")

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
            for label, value in (("predicted_us", entry.predicted_us),
                                 ("measured_us", entry.measured_us)):
                if value is None:
                    continue
                if not isinstance(value, (int, float)) or value != value \
                        or value < 0:
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

    # -- end-of-stream checks -------------------------------------------------

    def _check_end_state(self, arena_caps, peak, transient, written_state,
                         seen_nodes, interior_names, state_slots,
                         pre_slots) -> None:
        spec = self.spec
        where = "plan"
        self._check_tuned()

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
        expected_clear = {slot for slot in self.names
                          if slot not in state_slots
                          and slot not in pre_slots}
        if set(spec.clear_slots) != expected_clear:
            self.flag("clear-slots-mismatch", where,
                      f"clear_slots disagree with the non-state, "
                      f"non-precomputed slot set "
                      f"(got {len(set(spec.clear_slots))}, expected "
                      f"{len(expected_clear)})")

        if self.accounting_ok:
            declared = {(int(nbytes), np.dtype(dtype)): count
                        for (nbytes, dtype), count in spec.arena_caps}
            if declared != arena_caps:
                self.flag("arena-caps-mismatch", where,
                          f"declared arena caps {declared} != recomputed "
                          f"{arena_caps}")
            if peak != spec.peak_transient_bytes:
                self.flag("peak-bytes-mismatch", where,
                          f"declared peak {spec.peak_transient_bytes} != "
                          f"recomputed {peak}")
            if transient != spec.final_transient_bytes:
                self.flag("final-bytes-mismatch", where,
                          f"declared final transient "
                          f"{spec.final_transient_bytes} != recomputed "
                          f"{transient}")
        pre_bytes = sum(entry.nbytes for entry in spec.precomputed)
        if pre_bytes != spec.precomputed_bytes:
            self.flag("precomputed-bytes-mismatch", where,
                      f"declared precomputed_bytes "
                      f"{spec.precomputed_bytes} != {pre_bytes}")
