"""Final lowering stage: slots, layouts, slab offsets, the byte ledger.

Runs *after* the optimization passes, so everything it derives describes
the optimized stream: fused-away intermediates get no slot and no bytes.
One walk over the stream decides, per value:

* **layout** — C-contiguous, known strides, or unknown. Feeds, state and
  precomputed constants are C-contiguous (the executor's front door and
  :meth:`Program.with_state` see to that); a kernel keeps C-contiguous
  inputs C-contiguous, and a dense kernel (matmul) takes transposed
  operands too; a view's strides are what numpy says they are
  (:func:`repro.kernels.shape.view_layout`). An elementwise result over a
  non-C operand follows that operand, which the plan does not model.
* **storage** — a *slab* buffer for every non-in-place result known
  C-contiguous (written by the kernel's into-form, or copied in from the
  base kernel's result when it has none); an *alias* of its source's bytes
  for a view of a slab value (no instruction is emitted); a *register*
  for the rest: in-place results (they are the state array), views of
  feeds, and unknown-layout values, which run their base kernel and hold
  its fresh array.
* **in-place reuse** — an into-form may write over an input of the
  output's own shape and dtype that dies at this very instruction, that
  nothing views, and that :func:`repro.kernels.aliasable_inputs` names for
  the node: the output joins the input's buffer instead of opening a new
  one. That is any input of an elementwise op (a ``mask_mul`` so takes
  over its gradient's bytes, never those of its packed ``uint8`` mask —
  the few that graph fusion leaves, after an ``add`` or a
  ``broadcast_to``), and input 0 of a stride-1 depthwise ``conv2d`` or
  ``conv2d_dx``: its ``x`` or its gradient, never the weight, the bias or
  the mask a ``conv2d_dx`` applies in its own output. A full-update
  depthwise conv keeps its ``x`` for ``conv2d_dw``, so only a frozen one's
  dies there.

Buffers are then placed by :func:`repro.memory.planner.place` over their
closed ``[birth, death]`` intervals of instruction positions: a view or an
in-place reuse chain is its owner's buffer, alive to the last instruction
reading any of them (an alias reads nothing), a returned one to the end.
Those buffers, every feed from 0 to its last read (the whole step if
nothing reads it) and every register result from its instruction to its
free are the plan's byte ledger: ``peak_transient_bytes`` is their
unaligned :func:`repro.memory.planner.live_load` maximum, which
:mod:`repro.analysis.planlint` re-derives from the spec. The interpreter
charges a view or an in-place result beside the bytes it shares, so its
peak bounds this one, equal when the plan has no alias and no reuse.
"""

from __future__ import annotations

from ...kernels import (DENSE_OPS, DONATED_INPUTS, DONATING_KERNELS,
                        OUT_KERNELS, aliasable_inputs, into_form)
from ...kernels.shape import (c_strides, is_c_contiguous, normal_strides,
                             view_layout)
from ...memory.planner import live_load, place
from ..plan import (MODE_BASE, MODE_COPY, MODE_OUT, SLAB_ALIGNMENT,
                    AliasSpec, InstructionSpec, PlanSpec, PrecomputedSpec,
                    SlotSpec, VARIANT_BASE, VARIANT_DONATING)
from .fuse_elementwise import donatable_inputs
from .lower import LoweredOp, LoweringContext


def allocate(stream: list[LoweredOp], ctx: LoweringContext,
             passes: tuple[str, ...]) -> PlanSpec:
    """Assign slots, layouts and slab offsets; emit the final PlanSpec."""
    graph = ctx.graph
    state_names = ctx.state_names
    keep = ctx.keep
    nodes = ctx.nodes

    slots: dict[str, int] = {}

    def slot_of(name: str) -> int:
        slot = slots.get(name)
        if slot is None:
            slot = slots[name] = len(slots)
        return slot

    # State whose every use was scalar-constant folded needs no register
    # slot (and no per-step rebind): the step splices the live state
    # value straight into the kernel's inputs. Anything still referenced
    # by an instruction or returned to the caller keeps its slot.
    folded_states = {name for op in stream for _, name in op.const_inputs}
    if folded_states:
        referenced = set(keep)
        for op in stream:
            referenced.update(op.inputs)
            referenced.update(op.outputs)
        folded_states -= referenced

    #: names whose layout is known C-contiguous. Feeds and state are, by
    #: the executor's / Program.with_state's contract.
    dense: set[str] = set(graph.inputs)
    #: name -> strides of the values laid out otherwise, when known (views)
    strided: dict[str, tuple[int, ...]] = {}

    def strides_of(name: str) -> tuple[int, ...] | None:
        """``name``'s byte strides when they are a static fact."""
        if name in dense:
            shape, dtype = ctx.shape_dtype(name)
            return c_strides(shape, dtype.itemsize)
        return strided.get(name)

    for name in graph.inputs:
        slot_of(name)
    for name in sorted(state_names):
        if name not in folded_states:
            slot_of(name)
            dense.add(name)

    # Consumer facts over the *optimized* stream (fused chains consume
    # their deduplicated external inputs once each). ``private`` holds the
    # values whose bytes are provably nobody else's when their last
    # consumer retires: a kernel's own fresh result (feeds and state are
    # caller-owned, a view or an in-place result aliases something), not
    # returned to the caller, and never viewed.
    counts: dict[str, int] = {}
    private: set[str] = set()
    viewed: set[str] = set()
    for op in stream:
        if op.is_view:
            viewed.update(op.inputs)
        elif not op.is_inplace:
            private.update(op.outputs)
        for name in op.inputs:
            counts[name] = counts.get(name, 0) + 1
    private -= viewed
    private -= keep

    def dense_results(op: LoweredOp) -> bool:
        """Are ``op``'s results C-contiguous as a static fact?"""
        if dense.issuperset(op.inputs):
            return True  # the kernel layout contract
        predicate = DENSE_OPS.get(op.kernel) if op.fused is None else None
        if predicate is None:
            return False
        layouts = [(ctx.shape_dtype(name)[0], strides_of(name))
                   for name in op.inputs]
        return all(strides is not None for _, strides in layouts) \
            and predicate(layouts)

    #: slab buffers as [bytes, birth]; ``buffer_of`` maps every slab value
    #: (owner, in-place reuser or alias) to (buffer index, byte offset in it)
    buffers: list[list[int]] = []
    buffer_of: dict[str, tuple[int, int]] = {}
    #: register results as (name, birth)
    registers: list[tuple[str, int]] = []
    #: name -> the last instruction reading it
    read_at: dict[str, int] = {}

    # --- walk the stream ---------------------------------------------------
    instructions: list[InstructionSpec] = []
    aliases: list[AliasSpec] = []
    precomputed: dict[tuple[str, str], PrecomputedSpec] = {}

    slot_at = slots.__getitem__
    for op in stream:
        here = len(instructions)
        inplace = op.is_inplace
        input_slots = tuple(map(slot_at, op.inputs))
        output_slots = tuple(map(slot_of, op.outputs))

        # what dies here: outputs nobody reads, inputs read for the last time
        dead_outputs = [] if inplace else [
            out for out in op.outputs
            if counts.get(out, 0) == 0 and out not in keep]
        dying_inputs: list[str] = []
        for name in op.inputs:
            counts[name] -= 1
            if counts[name] == 0 and name not in state_names \
                    and name not in keep:
                dying_inputs.append(name)

        variant = VARIANT_BASE
        if op.precompute is not None:
            variant = op.precompute.variant
            key = (op.precompute.state, op.precompute.transform)
            entry = precomputed.get(key)
            if entry is None:
                entry = precomputed[key] = PrecomputedSpec(
                    slot=slot_of(f"__precomputed__{key[0]}.{key[1]}"),
                    state=op.precompute.state,
                    transform=op.precompute.transform,
                    shape=op.precompute.shape,
                    dtype=op.precompute.dtype)
            input_slots = input_slots + (entry.slot,)
        elif op.fused is None and op.kernel in DONATING_KERNELS:
            clobbered = DONATED_INPUTS[op.kernel]
            if all(i < len(op.inputs)
                   and op.inputs[i] in dying_inputs
                   and op.inputs[i] in private for i in clobbered):
                variant = VARIANT_DONATING

        # --- layout and storage of the outputs ---------------------------
        reuse_slot = -1
        if inplace:
            mode = MODE_BASE  # the result *is* the (C-contiguous) state
            dense.update(op.outputs)
        elif op.is_view:
            source = op.inputs[0]
            out = op.outputs[0]
            strides = strides_of(source)
            if strides is None:
                mode = MODE_BASE  # a view (or not) of who knows what layout
            else:
                shape, dtype = ctx.shape_dtype(source)
                # a DType's value *is* its numpy dtype name
                view = view_layout(op.kernel, nodes[op.node].attr_key(),
                                   shape, strides,
                                   ctx.spec(source).dtype.value)
                if view is None or source in state_names:
                    # numpy copies, or the view would watch the optimizer
                    # update its source in place: a copy into its own
                    # buffer
                    mode = MODE_OUT if op.kernel in OUT_KERNELS \
                        else MODE_COPY
                    dense.add(out)
                    buffer_of[out] = (len(buffers), 0)
                    buffers.append([ctx.nbytes(out), here])
                else:
                    offset, shape, strides = view
                    strides = normal_strides(shape, strides, dtype.itemsize)
                    if is_c_contiguous(shape, strides, dtype.itemsize):
                        dense.add(out)
                    else:
                        strided[out] = strides
                    based = buffer_of.get(source)
                    if based is not None:
                        # bytes of a slab buffer under another shape:
                        # resolved when the buffer set is built, never
                        # executed
                        buffer_of[out] = (based[0], based[1] + offset)
                        aliases.append(AliasSpec(
                            node=op.node, slot=output_slots[0],
                            base=input_slots[0], at=here))
                        continue
                    mode = MODE_BASE  # a view of a feed / a register value
        elif dense_results(op):
            # Statically C-contiguous results: they live in the slab. A
            # single result with an into-form (every fused chain has one by
            # construction) is written in place, over a same-shape input
            # dying here where the kernel allows it. For fused chains
            # only inputs read exclusively by the first link are eligible —
            # a later link would read the overwritten bytes.
            into = len(op.outputs) == 1 and (
                op.fused is not None or into_form(op.kernel, variant))
            mode = MODE_OUT if into else MODE_COPY
            dense.update(op.outputs)
            reused = None
            if into and dying_inputs:
                # Kernel inputs and fused link args index the assembled
                # input list (folded scalar constants spliced back in), not
                # ``op.inputs``.
                assembled = list(op.inputs)
                for at, const_name in op.const_inputs:
                    assembled.insert(at, const_name)
                out_form = ctx.shape_dtype(op.outputs[0])
                reusable = {assembled[i] for i in (
                    donatable_inputs(op) if op.fused is not None
                    else aliasable_inputs(op.kernel, variant,
                                          ctx.attrs(op.node), out_form[0],
                                          len(assembled)))}
                for name in dying_inputs:
                    if name in reusable and name in buffer_of \
                            and name in private \
                            and ctx.shape_dtype(name) == out_form:
                        reused = name
                        break
            if reused is not None:
                reuse_slot = slots[reused]
                buffer_of[op.outputs[0]] = buffer_of[reused]
            else:
                for out in op.outputs:
                    buffer_of[out] = (len(buffers), 0)
                    buffers.append([ctx.nbytes(out), here])
        else:
            # Some operand's layout is not C: the result follows it (or
            # nobody knows), so the base kernel runs and its fresh array
            # is the value. Only a shape with at most one non-unit
            # dimension is contiguous whatever produced it.
            mode = MODE_BASE
            dense.update(out for out in op.outputs if sum(
                dim != 1 for dim in ctx.shape_dtype(out)[0]) <= 1)

        if not inplace:  # an in-place result is the state array
            registers.extend((out, here) for out in op.outputs
                             if out not in buffer_of)
        for name in op.inputs:
            read_at[name] = here
        # registers dropped here: whatever died and is not slab bytes
        frees = tuple([slots[name] for name in dead_outputs + dying_inputs
                       if name not in buffer_of]) \
            if dead_outputs or dying_inputs else ()
        instructions.append(InstructionSpec(
            op.node, op.kernel, variant, input_slots, output_slots, mode,
            frees, reuse_slot, op.fused,
            tuple(sorted(op.const_inputs)) if op.const_inputs else ()))

    # --- place the slab ---------------------------------------------------
    end = len(instructions)

    def death(name: str, unread: int) -> int:
        return end if name in keep else read_at.get(name, unread)

    deaths = [birth for _, birth in buffers]
    for name, (index, _) in buffer_of.items():
        deaths[index] = max(deaths[index], death(name, 0))
    intervals = [(size, birth, dies)
                 for (size, birth), dies in zip(buffers, deaths)]
    plan = place(intervals, SLAB_ALIGNMENT)
    ledger = intervals \
        + [(ctx.nbytes(name), 0, death(name, end)) for name in graph.inputs] \
        + [(ctx.nbytes(name), birth, death(name, birth))
           for name, birth in registers]
    slab_slots = []
    for name, (index, offset) in buffer_of.items():
        shape, dtype = ctx.shape_dtype(name)
        slab_slots.append(SlotSpec(
            slots[name], plan.offsets[index] + offset, shape,
            strided.get(name) or c_strides(shape, dtype.itemsize),
            ctx.spec(name).dtype.value))

    entries = tuple(sorted(precomputed.values(), key=lambda e: e.slot))
    return PlanSpec(
        num_slots=len(slots),
        feed_specs=tuple((name, slots[name]) for name in graph.inputs),
        state_bindings=tuple(
            (slots[name], name) for name in sorted(state_names)
            if name in slots),
        output_slots=tuple((name, slots[name])
                           for name in ctx.program.outputs),
        slab_bytes=plan.slab_bytes,
        slab_slots=tuple(slab_slots),
        aliases=tuple(aliases),
        peak_transient_bytes=max(live_load(ledger, 1)),
        instructions=tuple(instructions),
        passes=passes,
        precomputed=entries,
        tuned_variants=tuple(ctx.tuned),
    )
