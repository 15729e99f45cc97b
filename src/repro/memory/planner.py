"""Static slab placement: give every transient buffer a fixed offset.

Microcontroller deployments (TinyEngine-style) cannot malloc; the compiler
must lay all activations out in one arena. The paper's engine does the
same on every target — "compilation first" covers memory — so this is the
one placement routine of the repo: :func:`place` is what
:mod:`repro.runtime.passes.allocate` calls to turn the plan's buffers into
slab offsets, and :meth:`SlabPlan.validate` is what
:mod:`repro.analysis.planlint` re-checks them with.

The rule is greedy first-fit, most crowded first: buffers are taken in
order of the largest live load (aligned bytes of everything alive) at any
position of their lifetime, larger before smaller within a moment — the
"greedy by breadth" order of Pisarchyk & Lee (2020). The buffers alive at
the plan's peak are therefore placed first and pack without a gap, then
those of the next most crowded moment around them. The largest live load
is also the *live-load bound*: no placement can go below it
(:func:`live_load`).

That order is at the bound on most programs and strands a buffer on a
few — typically a long-lived one that bridges two crowded moments and,
placed after both, finds every byte under the bound taken at *some*
position of its life (``tests/test_memory.py`` pins the seven intervals of
``mcunet_micro`` sparse that do it: a residual alive 11-71 on top of a
slab it would fit into, 1.154x the bound). No fixed order measured packs
every program (by size alone — TFLite-Micro / TinyEngine's default, this
routine's rule until the ReLU masks shrank to bits — strands 98 KB on
``mobilenetv2_micro`` sparse, 1.14; size x lifetime, or longest-lived
first within a moment, fix ``mcunet_micro`` and lose up to 14% elsewhere;
the best pair of orders still leaves ``resnet_micro`` full at batch 8 at
1.04), and a one-walk stream-order best-fit fragments further (README
"Static slab"). So a slab more than 0.1% above the bound first gets a
second order: the buffers alive at the bound's moments longest-lived
first, the rest as before. Taken by size, a short buffer alive only at the
peak can land between long ones and split what they leave free at every
other moment of their lives: with the FFN activation recomputed beside
its weight gradient, ``bert_micro`` and ``distilbert_micro`` full at batch
8 strand a 16 KB buffer that way and sit 1.010 and 1.019 over the bound
after every repair round below; the second order packs both on it in two
passes instead of seven (and ``resnet50`` full at batch 4 1.008 -> 1.000,
``distilbert`` full at batch 4 1.006 -> 1.000). The smaller slab of the
two stands, the first on ties. Then the first order is *repaired*: while
the slab stands more than 0.1% above the bound, the largest buffer lying
above it is moved to the front of the order — placed first, it takes the
low offsets it is in nobody's way at — and first-fit runs again, at most
:data:`REPAIR_ROUNDS` times, keeping the smallest slab and the first
order on ties. A program on the bound (eleven of the twelve zoo programs
at batch 2, the transformers at batch 1, 2 and 8 but for those two) is
placed exactly as before and pays nothing. Slab / bound, 64-byte
alignment, before -> after the repair:
``mcunet_micro`` sparse 1.154 -> 1.000 (batch 1, 2 and 8: the first round
reaches 1.013, the next three find nothing smaller, the fifth the bound —
which is why there are six; with four it stopped at 1.013 once the loss
head stopped holding a one-hot row), ``resnet_micro`` full at batch 8
1.074 -> 1.005 (second round); every other zoo program x batch {1, 2, 8}
<= 1.001 either way (the two above by the second order). At paper scale (graph-only compiles) the first
order alone is worse and the repair matters more: ``mcunet`` sparse at
batch 4 1.246 -> 1.000, ``distilbert`` sparse at batch 1 1.471 -> 1.000,
``bert`` sparse at batch 1 1.267 -> 1.000 (fourth round), ``resnet50``
full at batch 4 1.055 -> 1.006. Measured again with the second order on
24 model x scheme x batch {1, 4} configurations (``mcunet``,
``mobilenetv2``, ``mobilenetv2_035``, ``resnet50``, ``bert``,
``distilbert``): <= 1.001 on all but ``bert`` and ``distilbert`` sparse
at batch 1 (1.012 and 1.023, as without the second order and before the
recompute rewrite).

Buffers are ``(size, birth, death)`` intervals over instruction positions.
Lifetimes are *closed*: a buffer dying at position ``p`` and one born at
``p`` are live together (an instruction's output exists while its inputs
still do).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import accumulate

from ..errors import MemoryPlanError

#: one buffer to place: (bytes, first position live, last position live)
Interval = tuple[int, int, int]


@dataclass
class SlabPlan:
    """Offsets for a list of buffers in a single byte slab."""

    slab_bytes: int
    offsets: list[int]
    intervals: list[Interval]

    def validate(self) -> None:
        """Assert no two simultaneously-live buffers overlap in the slab."""
        live: list[tuple[int, int, int, int]] = []
        for (size, birth, death), offset in zip(self.intervals,
                                                 self.offsets):
            if size:
                live.append((birth, death, offset, offset + size))
        live.sort()
        for i, (birth, death, begin, end) in enumerate(live):
            if begin < 0 or end > self.slab_bytes:
                raise MemoryPlanError(
                    f"buffer [{begin}, {end}) lies outside the "
                    f"{self.slab_bytes}-byte slab")
            for other_birth, _, other_begin, other_end in live[i + 1:]:
                if other_birth > death:
                    break  # sorted by birth: nothing later overlaps
                if begin < other_end and other_begin < end:
                    raise MemoryPlanError(
                        f"slab overlap between [{begin}, {end}) live "
                        f"{birth}..{death} and [{other_begin}, "
                        f"{other_end}) born {other_birth}")


def align(size: int, alignment: int) -> int:
    return (size + alignment - 1) // alignment * alignment


def live_load(intervals: list[Interval], alignment: int = 64) -> list[int]:
    """Aligned bytes alive at every position of ``(bytes, birth, death,
    ...)`` records; its maximum is the *live-load bound*, which no
    placement can go below (unaligned, over all a plan holds: its peak)."""
    deltas = [0] * (max((i[2] for i in intervals), default=0) + 2)
    for size, birth, death, *_ in intervals:
        size = align(size, alignment)
        deltas[birth] += size
        deltas[death + 1] -= size
    return list(accumulate(deltas))[:-1]


#: first-fit passes :func:`place` may spend on a slab above its bound
REPAIR_ROUNDS = 6


def place(intervals: list[Interval], alignment: int = 64) -> SlabPlan:
    """Greedy first-fit over ``intervals``, most crowded lifetime first,
    then (off the bound) longest-lived first at the peak, then repaired
    while the slab stands above the live-load bound.

    Every offset is a multiple of ``alignment``; zero-byte buffers sit at
    offset 0. Ties (same crowding, same size) keep input order, and the
    repair is deterministic, so the result is a function of the list alone.
    """
    sizes = [align(size, alignment) for size, _, _ in intervals]
    load = live_load(intervals, alignment)
    bound = max(load, default=0)
    crowding = [max(load[birth:death + 1]) for _, birth, death in intervals]
    order = sorted((index for index, size in enumerate(sizes) if size),
                   key=lambda i: (-crowding[i], -sizes[i]))
    best = plan = _first_fit(intervals, sizes, order)
    # Within 0.1% of the bound counts as on it: what is left is an
    # alignment unit or two, not a stranded buffer, and each round is a
    # whole first-fit pass (``llama_micro`` full sits 64 B over and spent
    # four of them, 8% of its compile, to stay there).
    near = bound + (bound >> 10)
    if best.slab_bytes > near:
        # The buffers alive at the peak, longest-lived first (the rest as
        # before): a short one placed among them splits what the long ones
        # leave free at every other moment of their lives.
        peak_long_first = sorted(
            order, key=lambda i: (-crowding[i], intervals[i][1]
                                  - intervals[i][2] if crowding[i] == bound
                                  else 0))
        second = _first_fit(intervals, sizes, peak_long_first)
        if second.slab_bytes < best.slab_bytes:
            best = second
    promoted: set[int] = set()
    for _ in range(REPAIR_ROUNDS):
        if best.slab_bytes <= near:
            break
        stranded = [i for i in order if i not in promoted
                    and plan.offsets[i] + sizes[i] > bound]
        if not stranded:
            break
        worst = max(stranded, key=sizes.__getitem__)
        promoted.add(worst)
        order.remove(worst)
        order.insert(0, worst)
        plan = _first_fit(intervals, sizes, order)
        if plan.slab_bytes < best.slab_bytes:
            best = plan
    return best


def _first_fit(intervals: list[Interval], sizes: list[int],
               order: list[int]) -> SlabPlan:
    """Each buffer of ``order`` in turn, at the lowest offset clear of
    every placed buffer whose lifetime meets its own."""
    offsets = [0] * len(intervals)
    # (begin, end, birth, death) of every placed buffer, by begin
    placed: list[tuple[int, int, int, int]] = []
    slab = 0
    for index in order:
        _, birth, death = intervals[index]
        size = sizes[index]
        cursor = 0
        for begin, end, other_birth, other_death in placed:
            if other_birth <= death and birth <= other_death:
                if begin - cursor >= size:
                    break
                if end > cursor:
                    cursor = end
        offsets[index] = cursor
        insort(placed, (cursor, cursor + size, birth, death))
        if cursor + size > slab:
            slab = cursor + size
    return SlabPlan(slab_bytes=slab, offsets=offsets,
                    intervals=list(intervals))
