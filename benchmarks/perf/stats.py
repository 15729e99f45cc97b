"""Sample statistics shared by the harness, ``compare.py`` and the self-tests.

Pure Python (no numpy, no ``repro``) so the rules can be tested on synthetic
data and ``compare.py`` runs anywhere the result files are.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from typing import Hashable, Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 < q <= 1)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the q-th percentile."""
    return n - math.ceil(q * n)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples can carry the q-th percentile (>= 10 beyond)."""
    return samples_beyond(n, q) >= MIN_BEYOND


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Sample:
    """One completed op: when it ended, how long it took, what it was."""

    ended: float
    seconds: float
    key: Hashable = None


@dataclass(frozen=True)
class Chunk:
    began: float
    ended: float
    samples: tuple[Sample, ...]

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / (self.ended - self.began)


def after_settling(samples: Sequence[Sample], settled_at: float,
                   align: int = 1) -> tuple[list[Sample], float]:
    """Drop the ops that began before ``settled_at`` (caches, thread
    placement and connections settle first), a whole number of ``align``
    ops; returns the rest in order of completion and when they began."""
    ordered = sorted(samples, key=lambda s: s.ended)
    for i in range(0, len(ordered), align):
        began = ordered[i].ended - ordered[i].seconds
        if began >= settled_at:
            return ordered[i:], began
    return [], settled_at


#: completions closer together than this resolved together (one batch)
BURST_GAP_S = 0.0003


def cut_chunks(samples: Sequence[Sample], began: float, *,
               min_seconds: float, min_ops: int, align: int = 1
               ) -> list[Chunk]:
    """Split a run into consecutive chunks of comparable work.

    A chunk closes at the first sample where it holds at least ``min_ops``
    ops, a multiple of ``align`` ops (so every chunk of a sweep workload
    holds whole sweeps), spans at least ``min_seconds``, and the next
    completion is not part of the same burst: a batch's acks resolve
    microseconds apart, and a chunk that ended among them would hand the
    rest of the batch to the next chunk for free. The unfinished tail is
    dropped.
    """
    ordered = sorted(samples, key=lambda s: s.ended)
    chunks: list[Chunk] = []
    start, first = began, 0
    for i, sample in enumerate(ordered):
        count = i + 1 - first
        if count >= min_ops and count % align == 0 \
                and sample.ended - start >= min_seconds \
                and (i + 1 == len(ordered) or
                     ordered[i + 1].ended - sample.ended > BURST_GAP_S):
            chunks.append(Chunk(start, sample.ended,
                                tuple(ordered[first:i + 1])))
            start, first = sample.ended, i + 1
    return chunks


def best_of_chunks(values: Sequence[float], better: str) -> float:
    """The per-run figure for a per-chunk quantity: its quietest chunk
    (highest for a rate, lowest for a latency).

    The sandbox's CPUs are hardware threads whose siblings belong to other
    tenants. While a sibling is busy this process runs 1.4x to 2.3x slower,
    all of it, for spells of 50 ms to minutes, and in a bad hour for most of
    every run: a median or a quartile over the run then reads the
    neighbour, not the program. Gaps in which the sibling idles are short
    (tens of milliseconds) but turn up every few seconds, so the chunks are
    made just long enough to fit into one (``run.CHUNK_SECONDS``), and the
    quietest one is the program on an undisturbed core. Interference only
    ever slows a chunk; a change to the program moves every chunk, so it
    moves this figure by the same share.
    """
    return max(values) if better == "higher" else min(values)


def chunk_p50_ms(chunk: Chunk) -> float:
    """Median latency of one chunk; for keyed samples (one key per input
    program) the geometric mean of each key's median, so a slow program
    does not outweigh eleven fast ones."""
    by_key: dict[Hashable, list[float]] = {}
    for sample in chunk.samples:
        by_key.setdefault(sample.key, []).append(sample.seconds)
    return geomean([statistics.median(v) for v in by_key.values()]) * 1e3


def tail_ms(chunks: Sequence[Chunk], q: float = 0.95) -> tuple[float, str]:
    """The q-th percentile latency in ms of all chunked samples pooled
    (chunks are too short to carry a percentile each), and ``"pooled"``, or
    ``"unsupported"`` when the pool has fewer than ten samples beyond it."""
    if not chunks:
        raise ValueError("no complete chunk")
    pooled = sorted(s.seconds for c in chunks for s in c.samples)
    how = "pooled" if supported(len(pooled), q) else "unsupported"
    return percentile(pooled, q) * 1e3, how


def pooled_p95_ms(seconds: Sequence[float]) -> float:
    """p95 in ms of latencies pooled over the untraced chunks of a traced
    run (a diagnostic: a pool with fewer than ten samples beyond it is
    still reported, with a warning)."""
    if not seconds:
        return 0.0
    if not supported(len(seconds), 0.95):
        print(f"warning: op_ms_p95 rests on {len(seconds)} samples, "
              f"{samples_beyond(len(seconds), 0.95)} beyond it",
              file=sys.stderr)
    return percentile(sorted(seconds), 0.95) * 1e3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0
