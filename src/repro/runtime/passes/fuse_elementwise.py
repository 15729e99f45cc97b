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

Donation interplay: an external input may be donated as the chain's
output buffer only when the *first* link is its sole reader — a dying
input consumed by a later link would be clobbered by the first link's
write. ``allocate`` enforces this via the per-instruction
``donatable_inputs`` computed here.
"""

from __future__ import annotations

from ...ir.ops import get_schema
from ...kernels import OUT_ALIAS_SAFE, OUT_KERNELS, VIEW_OPS
from ..plan import FusedLinkSpec
from .lower import LoweredOp, LoweringContext


def _fusable(op: LoweredOp) -> bool:
    if op.fused is not None:
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
    return fused_stream, {"chains": chains, "instructions_removed": removed}


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


def donatable_inputs(op: LoweredOp) -> set[int]:
    """Input indices safe to donate as a fused chain's output buffer."""
    assert op.fused is not None
    first = {a for a in op.fused[0].args if a is not None}
    later = {a for link in op.fused[1:] for a in link.args if a is not None}
    return first - later
