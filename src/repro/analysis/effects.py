"""Schema-driven effect analysis over lowered instruction streams.

The pass pipeline's motion decisions (deferring a pure elementwise
producer down to its sole consumer) need one question answered: *may any
instruction between here and there mutate something the moved
instruction reads?* This module answers it from the stream alone — no
compiler, no graph — by tracking, per value, the set of **alias roots**
its buffer may share memory with:

* a value produced by a view-capable kernel aliases every root of every
  input (plus itself);
* a value produced by a fresh-output kernel roots itself;
* an in-place kernel's outputs alias its inputs' roots (the "result" is
  the mutated parameter), and the op **writes** all of those roots —
  deliberately conservative: the schema says *may mutate*, not *which
  element*, so every aliased buffer counts as written.

Duck-typed over the stream: ops only need ``inputs``, ``outputs``,
``is_view`` and ``is_inplace`` (the :class:`repro.runtime.passes.lower.
LoweredOp` surface, itself derived from the kernel schemas/registries).
This module imports nothing from the runtime so it stays safe in any
import closure, including deployed workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class OpEffects:
    """May-read / may-write root sets for one lowered instruction."""

    #: alias roots of every buffer the op reads
    reads: frozenset[str]
    #: alias roots the op may mutate (empty for pure and view ops)
    writes: frozenset[str]


def stream_effects(stream: Sequence) -> list[OpEffects]:
    """Per-op effects for a lowered stream, in stream order."""
    # Only values that alias something are recorded; a fresh-output value
    # (and a feed or state name) roots itself.
    roots: dict[str, frozenset[str]] = {}
    effects: list[OpEffects] = []
    for op in stream:
        acc: set[str] = set()
        for name in op.inputs:
            aliased = roots.get(name)
            if aliased is None:
                acc.add(name)
            else:
                acc |= aliased
        reads = frozenset(acc)
        if op.is_view:
            for out in op.outputs:
                roots[out] = reads | {out}
            writes = _EMPTY
        elif op.is_inplace:
            for out in op.outputs:
                roots[out] = reads
            writes = reads
        else:
            writes = _EMPTY
        effects.append(OpEffects(reads=reads, writes=writes))
    return effects


def safe_to_defer(effects: Sequence[OpEffects], i: int, j: int) -> bool:
    """True when instruction ``i`` may run just before instruction ``j``.

    Sound for a *pure* instruction ``i`` (fresh outputs, no writes) whose
    only consumer is ``j``: the move is observable only if some
    instruction in between mutates a buffer ``i`` reads.
    """
    moved_reads = effects[i].reads
    for k in range(i + 1, j):
        if effects[k].writes & moved_reads:
            return False
    return True
