"""Fuse adjacent elementwise instructions into single chain instructions.

A run of elementwise instructions where each link's sole consumer is the
*next* instruction in the stream collapses into one fused instruction
(:class:`~repro.runtime.plan.FusedLinkSpec` chain). The intermediate
values disappear entirely — no slot, no allocation, no free — because the
bound chain threads one shared output buffer through every link's ``out=``
kernel. Byte-identity with the unfused stream follows from two existing
contracts: ``out=`` kernels are bitwise equal to their base kernels, and
``alias_safe`` kernels read element *i* before writing it, so link *k*
may overwrite link *k-1*'s result in place.

Eligibility is deliberately strict (anything else falls back to the
unfused form, never to wrong answers):

* every link is a single-output, non-view, non-inplace op with an
  alias-safe ``out=`` registry entry;
* chain members are **adjacent** in the stream — fusing never reorders
  execution, so an in-place optimizer update scheduled between two
  elementwise ops keeps its observable position;
* every occurrence of a link's output is consumed by the immediately
  following instruction (a value also read later, or returned to the
  caller, must materialise);
* every link produces the same (shape, dtype) as the chain's final
  output — broadcasting may happen *into* a link (a ``bias_add`` bias, a
  scalar operand) but the carried value never changes shape, which is
  what makes the single shared buffer sound.

A second, **non-adjacent** phase then relaxes the adjacency rule for
sole-consumer values: a pure elementwise producer (or already-formed
chain) may be *deferred* down the stream to run immediately before its
single consumer and merge into it, provided the effect analysis
(:mod:`repro.analysis.effects`) proves no instruction in between may
mutate anything the moved computation reads. This catches the
forward-computed STE masks a sparse backward re-reads much later — the
mask chain moves next to its backward consumer and the intermediate
stops occupying memory across the whole forward. The producer's result
must feed the consumer's *first* link only (later links cannot see the
carried value), and the carried-form rule above still applies.

The deferral phase computes its whole-stream facts — the effect rows and
the value -> consumer / producer position maps — once, and carries them
across merges (:class:`_DeferralState`) instead of recomputing them per
merge. The carried effects are exact, not approximate: the only ops a
merge moves are pure (no writes), fresh-output (each result roots
itself) and sole-consumed, and an alias-root set belongs to a *value*,
not to a stream position. So moving them changes no other instruction's
reads or writes and not their own; the merged instruction reads what
producer and consumer read minus the eliminated intermediate, and writes
what the consumer wrote. The scan itself still restarts from the top
after every merge — a merge can unpin an *earlier* candidate's inputs —
only its set-up is no longer redone.

Donation interplay: an external input may be donated as the chain's
output buffer only when the *first* link is its sole reader — a dying
input consumed by a later link would be clobbered by the first link's
write. ``allocate`` enforces this via the per-instruction
``donatable_inputs`` computed here.
"""

from __future__ import annotations

from ...analysis.effects import OpEffects, safe_to_defer, stream_effects
from ...ir.ops import get_schema
from ...kernels import OUT_ALIAS_SAFE, OUT_KERNELS, VIEW_OPS
from ..plan import FusedLinkSpec
from .lower import LoweredOp, LoweringContext


def _fusable(op: LoweredOp) -> bool:
    if op.fused is not None or op.precompute is not None:
        return False
    k = op.kernel
    return (len(op.outputs) == 1
            and k in OUT_KERNELS and k in OUT_ALIAS_SAFE
            and k not in VIEW_OPS and not get_schema(k).inplace)


def fuse_elementwise(stream: list[LoweredOp], ctx: LoweringContext
                     ) -> tuple[list[LoweredOp], dict]:
    """Collapse maximal adjacent chains; returns (new stream, stats)."""
    # Occurrence map over the incoming stream: value -> consuming indices
    # (repeated per occurrence, so mul(v, v) records index twice).
    consumers: dict[str, list[int]] = {}
    for idx, op in enumerate(stream):
        for name in op.inputs:
            consumers.setdefault(name, []).append(idx)

    fusable = [_fusable(op) for op in stream]
    fused_stream: list[LoweredOp] = []
    chains = 0
    removed = 0
    i = 0
    while i < len(stream):
        members = [stream[i]]
        j = i
        while j + 1 < len(stream):
            link = stream[j]
            nxt = stream[j + 1]
            if not (fusable[j] and fusable[j + 1]):
                break
            value = link.outputs[0]
            uses = consumers.get(value, [])
            if not uses or any(use != j + 1 for use in uses):
                break  # dead, multi-consumer, or non-adjacent consumer
            if value in ctx.keep:
                break  # returned to the caller; must materialise
            v_spec = ctx.spec(value)
            n_spec = ctx.spec(nxt.outputs[0])
            if (tuple(v_spec.shape) != tuple(n_spec.shape)
                    or v_spec.dtype != n_spec.dtype):
                break  # carried value would change form mid-chain
            members.append(nxt)
            j += 1
        if len(members) < 2:
            fused_stream.append(stream[i])
            i += 1
            continue
        fused_stream.append(_build_chain(members))
        chains += 1
        removed += len(members) - 1
        i = j + 1
    fused_stream, deferred = _merge_sole_consumers(fused_stream, ctx)
    return fused_stream, {"chains": chains,
                          "instructions_removed": removed + deferred,
                          "deferred_merges": deferred}


def _build_chain(members: list[LoweredOp]) -> LoweredOp:
    """One fused LoweredOp from adjacent chain ``members``."""
    external: dict[str, int] = {}
    links: list[FusedLinkSpec] = []
    prev_value: str | None = None
    for member in members:
        args: list[int | None] = []
        for name in member.inputs:
            if name == prev_value:
                args.append(None)
            else:
                idx = external.get(name)
                if idx is None:
                    idx = external[name] = len(external)
                args.append(idx)
        links.append(FusedLinkSpec(node=member.node, kernel=member.kernel,
                                   args=tuple(args)))
        prev_value = member.outputs[0]
    last = members[-1]
    return LoweredOp(
        node=last.node, kernel=last.kernel,
        inputs=tuple(external), outputs=last.outputs,
        fused=tuple(links))


def _chain_candidate(op: LoweredOp) -> bool:
    """Ops the non-adjacent phase may move/merge: pure elementwise chains
    (already fused) or single ops the adjacent phase would accept."""
    return not op.const_inputs and (op.fused is not None or _fusable(op))


def _first_link_only(cons: LoweredOp, value: str) -> bool:
    """True when ``value`` feeds only the consumer's first link — the one
    position a merged producer's carried result can reach."""
    if cons.fused is None:
        return True
    idx = cons.inputs.index(value)
    return all(idx not in link.args for link in cons.fused[1:])


def _named_links(op: LoweredOp) -> list[tuple[str, str, list]]:
    """The op as (node, kernel, args) links with externals named (args are
    value names; None means the previous link's carried result)."""
    if op.fused is None:
        return [(op.node, op.kernel, list(op.inputs))]
    return [(link.node, link.kernel,
             [None if a is None else op.inputs[a] for a in link.args])
            for link in op.fused]


def _merge_ops(producer: LoweredOp, consumer: LoweredOp) -> LoweredOp:
    """One chain from ``producer`` feeding ``consumer``'s first link."""
    value = producer.outputs[0]
    links = _named_links(producer)
    for node, kern, args in _named_links(consumer):
        links.append((node, kern,
                      [None if a == value else a for a in args]))
    external: dict[str, int] = {}
    specs = []
    for node, kern, args in links:
        specs.append(FusedLinkSpec(node=node, kernel=kern, args=tuple(
            None if a is None else external.setdefault(a, len(external))
            for a in args)))
    return LoweredOp(
        node=consumer.node, kernel=consumer.kernel,
        inputs=tuple(external), outputs=consumer.outputs,
        fused=tuple(specs))


def _companion_ok(prod: LoweredOp) -> bool:
    """Ops that may *move* (not merge) alongside a deferred producer:
    pure, single-output, no pass-state attached."""
    return (prod.fused is None and prod.precompute is None
            and not prod.const_inputs and len(prod.outputs) == 1
            and not prod.is_view and not prod.is_inplace)


class _DeferralState:
    """The stream and the whole-stream facts the deferral scan consults,
    built once and kept exact across merges.

    * ``stream`` — the instructions; ``None`` marks the slot a merge
      vacated, so positions after a merge point never shift (dropped by
      :meth:`compact`);
    * ``effects`` — :func:`~repro.analysis.effects.stream_effects` rows,
      position for position (a vacated slot reads and writes nothing);
    * ``candidate`` — :func:`_chain_candidate` per position (a property
      of the op alone, so it travels with it);
    * ``consumers`` — value -> consuming positions, ascending, repeated
      per occurrence (``mul(v, v)`` lists its position twice);
    * ``producer_of`` — value -> producing position.

    The module docstring says why rows carried this way equal rows
    recomputed from scratch.
    """

    def __init__(self, stream: list[LoweredOp]) -> None:
        self.stream: list[LoweredOp | None] = list(stream)
        self.effects = stream_effects(stream)
        self.candidate = [_chain_candidate(op) for op in stream]
        self.consumers: dict[str, list[int]] = {}
        self.producer_of: dict[str, int] = {}
        for idx, op in enumerate(stream):
            for name in op.inputs:
                self.consumers.setdefault(name, []).append(idx)
            for name in op.outputs:
                self.producer_of[name] = idx

    def compact(self) -> list[LoweredOp]:
        return [op for op in self.stream if op is not None]

    def merge(self, i: int, j: int, companions: list[int]) -> None:
        """Move ``companions`` (ascending, all before ``i``) to just before
        ``j`` and merge ``i`` into ``j``.

        The first moved op's slot is vacated. Without companions nothing
        else moves: ``j`` just becomes the merged op. With companions the
        span from the second moved op to ``j`` keeps its length and is
        rewritten (stayers, then the companions, then the merged op). The
        index maps are patched for the values those ops touch.
        """
        stream, effects, candidate = self.stream, self.effects, self.candidate
        op, cons = stream[i], stream[j]
        value = op.outputs[0]
        group = companions + [i]
        first = group[0]
        lo = group[1] if companions else j
        moving = set(group)
        stay = [k for k in range(lo, j)
                if k not in moving and stream[k] is not None]
        touched = set(stream[first].inputs)
        for k in range(lo, j + 1):
            if stream[k] is not None:
                touched.update(stream[k].inputs)

        order = stay + companions
        ops = [stream[k] for k in order]
        rows = [effects[k] for k in order]
        flags = [candidate[k] for k in order]
        ops.append(_merge_ops(op, cons))
        rows.append(OpEffects(
            reads=(effects[i].reads | effects[j].reads) - {value},
            writes=effects[j].writes))
        flags.append(_chain_candidate(ops[-1]))
        # slots vacated by earlier merges inside the span stay at its head
        head = j + 1 - len(ops) - lo
        stream[first], effects[first], candidate[first] = \
            None, _NO_EFFECTS, False
        stream[lo:j + 1] = [None] * head + ops
        effects[lo:j + 1] = [_NO_EFFECTS] * head + rows
        candidate[lo:j + 1] = [False] * head + flags

        del self.producer_of[value]
        reads: dict[str, list[int]] = {name: [] for name in touched}
        for pos in range(lo + head, j + 1):
            cur = stream[pos]
            for name in cur.outputs:
                self.producer_of[name] = pos
            for name in cur.inputs:
                reads[name].append(pos)
        for name, inside in reads.items():
            old = self.consumers[name]
            uses = [u for u in old if u < lo and u != first] + inside \
                + [u for u in old if u > j]
            if uses:
                self.consumers[name] = uses
            else:
                del self.consumers[name]


_NO_EFFECTS = OpEffects(reads=frozenset(), writes=frozenset())


def _find_merge(state: _DeferralState, ctx: LoweringContext
                ) -> tuple[int, int, list[int]] | None:
    """The first (producer, consumer, companions) the scan accepts."""
    stream, effects, candidate = state.stream, state.effects, state.candidate
    consumers, producer_of = state.consumers, state.producer_of
    for i, op in enumerate(stream):
        if not candidate[i]:
            continue
        value = op.outputs[0]
        if value in ctx.keep:
            continue
        uses = consumers.get(value)
        if not uses or any(u != uses[0] for u in uses):
            continue
        j = uses[0]
        if j <= i:
            continue
        cons = stream[j]
        if not candidate[j]:
            continue
        if not _first_link_only(cons, value):
            continue
        if ctx.shape_dtype(value) != ctx.shape_dtype(cons.outputs[0]):
            continue  # carried value would change form mid-chain
        if not safe_to_defer(effects, i, j):
            continue
        # Recruit companions for inputs the move would otherwise pin.
        companions: list[int] = []
        for name in dict.fromkeys(op.inputs):
            if name in ctx.state_names or name in ctx.keep:
                continue
            if max(consumers.get(name, (i,))) >= j:
                continue  # alive past j regardless
            p = producer_of.get(name)
            if (p is not None and p < i and _companion_ok(stream[p])
                    and set(consumers.get(name, ())) == {i}
                    and safe_to_defer(effects, p, j)):
                companions.append(p)
        group = set(companions) | {i}
        group_outs = {out for k in group for out in stream[k].outputs}
        externals = {name for k in group for name in stream[k].inputs
                     if name not in group_outs}
        # a companion's result is live at the merge point too
        pinned = sum(ctx.nbytes(out) for p in companions
                     for out in stream[p].outputs)
        for name in externals:
            if name in ctx.state_names or name in ctx.keep:
                continue
            if max(consumers.get(name, (i,))) < j:
                pinned += ctx.nbytes(name)
        if pinned > ctx.nbytes(value):
            continue
        return i, j, sorted(companions)
    return None


def _merge_sole_consumers(stream: list[LoweredOp], ctx: LoweringContext
                          ) -> tuple[list[LoweredOp], int]:
    """Defer pure producers down to their sole consumer and merge.

    Repeats to a fixpoint so a merged chain can itself be deferred into a
    yet-later consumer. Each move is proven by the effect analysis: no
    instruction jumped over may mutate anything the moved group reads.
    After every merge the scan restarts from the top — a merge can unpin
    the inputs of an *earlier* candidate — but over the same
    :class:`_DeferralState`, never a rebuilt one.

    **Byte neutrality.** Deferring pins the producer's transient inputs
    until the consumer, so an unconditional merge could peak above the
    oracle stream. A merge is taken only when the eliminated intermediate
    frees at least as many bytes as the move pins. A pinned input whose
    producer is pure and sole-consumed by the deferred op may travel as a
    **companion** (the STE shape: ``step(x)`` feeding a *later* link of a
    float mask chain, so it cannot itself join the chain): it moves
    (unmerged) to just before the merge point, and its own result — live
    there — and its own inputs enter the ledger in its place.
    """
    state = _DeferralState(stream)
    merged = 0
    while (found := _find_merge(state, ctx)) is not None:
        state.merge(*found)
        merged += 1
    return state.compact(), merged


def donatable_inputs(op: LoweredOp) -> set[int]:
    """Input indices safe to donate as a fused chain's output buffer."""
    assert op.fused is not None
    first = {a for a in op.fused[0].args if a is not None}
    later = {a for link in op.fused[1:] for a in link.args if a is not None}
    return first - later
