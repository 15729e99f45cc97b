"""Final lowering stage: slots, free-lists, arena caps, byte accounting.

Runs *after* the optimization passes, so everything it derives describes
the optimized stream: fused-away intermediates get no slot and no bytes,
free-lists reference the instructions that actually execute, and arena
caps count the buffers the fused stream can really re-request. For a
``passes="none"`` pipeline this reproduces the legacy monolithic lowering
(and hence the interpreter's measured byte timeline) exactly — that
equality is pinned by the plan equivalence tests.
"""

from __future__ import annotations

import functools

from ...kernels import (DONATED_INPUTS, DONATING_KERNELS, OUT_ALIAS_SAFE,
                        OUT_KERNELS)
from ..plan import (ArenaKey, InstructionSpec, PlanSpec, PrecomputedSpec,
                    VARIANT_BASE, VARIANT_DONATING)
from .fuse_elementwise import donatable_inputs
from .lower import LoweredOp, LoweringContext


def allocate(stream: list[LoweredOp], ctx: LoweringContext,
             passes: tuple[str, ...]) -> PlanSpec:
    """Assign slots and static bookkeeping; emit the final PlanSpec."""
    graph = ctx.graph
    state_names = ctx.state_names
    keep = ctx.keep

    slots: dict[str, int] = {}

    def slot_of(name: str) -> int:
        slot = slots.get(name)
        if slot is None:
            slot = slots[name] = len(slots)
        return slot

    # State whose every use was scalar-constant folded needs no register
    # slot (and no per-step rebind): the executor splices the live state
    # value straight into the kernel's inputs. Anything still referenced
    # by an instruction or returned to the caller keeps its slot.
    folded_states = {name for op in stream for _, name in op.const_inputs}
    if folded_states:
        referenced = set(keep)
        for op in stream:
            referenced.update(op.inputs)
            referenced.update(op.outputs)
        folded_states -= referenced

    for name in graph.inputs:
        slot_of(name)
    for name in sorted(state_names):
        if name not in folded_states:
            slot_of(name)

    # Producer/consumer facts over the *optimized* stream (fused chains
    # consume their deduplicated external inputs once each).
    producer: dict[str, LoweredOp] = {}
    consumers: dict[str, list[LoweredOp]] = {}
    counts: dict[str, int] = {}
    for op in stream:
        for out in op.outputs:
            producer[out] = op
        for name in op.inputs:
            consumers.setdefault(name, []).append(op)
            counts[name] = counts.get(name, 0) + 1

    @functools.cache  # asked once per free and per donation candidate
    def recyclable(name: str) -> bool:
        """True when the buffer behind ``name`` is provably unaliased at
        the moment its last consumer retires."""
        p = producer.get(name)
        if p is None:
            return False  # feeds and state are caller-owned
        if p.is_view or p.is_inplace:
            return False  # may alias another value / mutable state
        if name in keep:
            return False  # returned to the caller, who may hold it
        return all(not c.is_view for c in consumers.get(name, ()))

    # --- walk the stream, simulating the byte timeline -------------------
    live = set(graph.inputs)
    transient = sum(ctx.nbytes(name) for name in graph.inputs)
    peak = transient
    instructions: list[InstructionSpec] = []
    precomputed: dict[tuple[str, str], PrecomputedSpec] = {}
    arena_caps: dict[ArenaKey, int] = {}

    for op in stream:
        inplace = op.is_inplace
        input_slots = tuple(slots[name] for name in op.inputs)
        output_slots = tuple(slot_of(name) for name in op.outputs)

        # The interpreter materialises results aliasing mutable state; only
        # view-capable kernels with state inputs can produce such results.
        check_state_slots = ()
        if not inplace and op.is_view:
            check_state_slots = tuple(
                slot_of(name) for name in op.inputs if name in state_names)

        # Accounting, mirroring the interpreter loop over this stream.
        for out in op.outputs:
            live.add(out)
            if not inplace:
                transient += ctx.nbytes(out)
        if transient > peak:
            peak = transient

        frees: list[tuple[int, ArenaKey | None]] = []
        if not inplace:  # dead outputs are released immediately
            for out in op.outputs:
                if counts.get(out, 0) == 0 and out not in keep \
                        and out in live:
                    transient -= ctx.nbytes(out)
                    live.discard(out)
                    frees.append((slots[out],
                                  ctx.arena_key(out) if recyclable(out)
                                  else None))
        dying_inputs: list[str] = []
        for name in op.inputs:
            counts[name] -= 1
            if counts[name] == 0 and name in live \
                    and name not in state_names and name not in keep:
                transient -= ctx.nbytes(name)
                live.discard(name)
                dying_inputs.append(name)

        # out= + donation: single-output ops with a registered out-variant
        # (every fused chain has one by construction) get a recycled arena
        # buffer; alias-safe ones may instead write straight into a
        # same-shape input dying at this instruction. For fused chains
        # only inputs read exclusively by the first link are donation-
        # eligible — a later link would read the clobbered buffer.
        use_out = False
        out_shape = out_dtype = None
        donate_slot = -1
        if not inplace and len(op.outputs) == 1 \
                and (op.fused is not None or op.kernel in OUT_KERNELS):
            use_out = True
            out_name = op.outputs[0]
            # Donation demands an *exact* shape/dtype match (the out=
            # kernel writes element-for-element into the donated buffer);
            # the arena's byte-bucketing never applies here.
            out_form = ctx.shape_dtype(out_name)
            out_shape = out_form[0]
            # a DType's value *is* its numpy dtype name
            out_dtype = ctx.spec(out_name).dtype.value
            if op.fused is not None:
                # Fused link args index the assembled input list (folded
                # scalar constants spliced back in), not ``op.inputs``.
                assembled = list(op.inputs)
                for pos, const_name in op.const_inputs:
                    assembled.insert(pos, const_name)
                safe_idx = donatable_inputs(op)
                donate_ok = {assembled[i] for i in safe_idx}
            elif op.kernel in OUT_ALIAS_SAFE:
                donate_ok = set(op.inputs)
            else:
                donate_ok = set()
            for name in dying_inputs:
                if name in donate_ok and recyclable(name) \
                        and ctx.shape_dtype(name) == out_form:
                    donate_slot = slots[name]
                    break
            if donate_slot < 0:  # the output comes out of the arena
                key = ctx.arena_key(out_name)
                arena_caps[key] = arena_caps.get(key, 0) + 1

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
                   and recyclable(op.inputs[i]) for i in clobbered):
                variant = VARIANT_DONATING

        for name in dying_inputs:
            slot = slots[name]
            if slot == donate_slot:
                # The donated buffer lives on as this node's output.
                frees.append((slot, None))
            else:
                frees.append((slot, ctx.arena_key(name)
                              if recyclable(name) else None))

        if inplace:
            fresh = 0
        elif op.fused is not None:
            # The base-kernel fallback (non-contiguous inputs) really does
            # materialise every link; the out= path allocates at most one.
            fresh = len(op.fused)
        else:
            fresh = len(op.outputs)
        instructions.append(InstructionSpec(
            node=op.node, kernel=op.kernel, variant=variant,
            input_slots=input_slots, output_slots=output_slots,
            use_out=use_out, out_shape=out_shape, out_dtype=out_dtype,
            donate_slot=donate_slot, check_state_slots=check_state_slots,
            frees=tuple(frees), fresh_outputs=fresh, fused=op.fused,
            const_args=tuple(sorted(op.const_inputs))))

    state_slots = {slots[name] for name in state_names if name in slots}
    pre_slots = {entry.slot for entry in precomputed.values()}
    clear_slots = tuple(slot for name, slot in slots.items()
                        if slot not in state_slots and slot not in pre_slots)
    entries = tuple(sorted(precomputed.values(), key=lambda e: e.slot))
    return PlanSpec(
        num_slots=len(slots),
        feed_specs=tuple((name, slots[name]) for name in graph.inputs),
        state_bindings=tuple(
            (slots[name], name) for name in sorted(state_names)
            if name in slots),
        output_slots=tuple((name, slots[name])
                           for name in ctx.program.outputs),
        clear_slots=clear_slots,
        arena_caps=tuple(sorted(arena_caps.items(),
                                key=lambda item: repr(item[0]))),
        peak_transient_bytes=peak,
        final_transient_bytes=transient,
        instructions=tuple(instructions),
        passes=passes,
        precomputed=entries,
        precomputed_bytes=sum(entry.nbytes for entry in entries),
        tuned_variants=tuple(ctx.tuned),
    )
