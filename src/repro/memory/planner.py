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
those of the next most crowded moment around them. Measured on the zoo's
twelve training programs (64-byte alignment), slab bytes /
``peak_transient_bytes`` is 0.83-1.00; first-fit by decreasing size alone
(TFLite-Micro / TinyEngine's default, this routine's rule until the ReLU
masks shrank to bits) is within 0.03 of that on eleven programs but
strands a 98 KB block on ``mobilenetv2_micro`` sparse (1.14), and a
one-walk stream-order best-fit fragments further (README "Static slab").

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


def place(intervals: list[Interval], alignment: int = 64) -> SlabPlan:
    """Greedy first-fit over ``intervals``, most crowded lifetime first.

    Every offset is a multiple of ``alignment``; zero-byte buffers sit at
    offset 0. Ties (same crowding, same size) keep input order, so the
    result is a function of the list alone.
    """
    offsets = [0] * len(intervals)
    sizes = [align(size, alignment) for size, _, _ in intervals]
    # live load per position, then the most crowded moment of each lifetime
    deltas = [0] * (max((death for _, _, death in intervals), default=0) + 2)
    for size, (_, birth, death) in zip(sizes, intervals):
        deltas[birth] += size
        deltas[death + 1] -= size
    load = list(accumulate(deltas))
    order = sorted(
        (index for index, size in enumerate(sizes) if size),
        key=lambda i: (-max(load[intervals[i][1]:intervals[i][2] + 1]),
                       -sizes[i]))
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
