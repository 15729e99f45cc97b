"""Rematerialization and paging: the POET-style baseline (paper §2.2).

POET (Patil et al., ICML 2022) fits training under a memory budget by
*recomputing* activations in the backward pass (rematerialization) or
spilling them to external flash (paging). The paper positions sparse
backpropagation against it: remat/paging trade extra computation or IO for
memory, while pruning the backward graph removes both. This module builds
that baseline so the trade-off is measurable on the same compiled graphs.

Two modes:

* :func:`rematerialize` — returns a **real transformed graph + schedule**
  in which evicted activations are freed at their last forward use and
  recomputed by cloned producer nodes right before the backward needs
  them. The result runs on the numeric executor and flows through the
  standard memory profiler and device cost model, so the extra FLOPs and
  the memory saving are both measured, not asserted.
* :func:`plan_paging` — analytic flash-spill plan: picks the values to
  page out, reports the surviving peak and the flash traffic, and prices
  the transfer time against a flash bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MemoryPlanError
from ..ir import Graph
from ..ir.node import Node
from ..ir.ops import get_schema, op_flops
from .liveness import value_lifetimes
from .planner import live_load
from .profiler import MemoryProfile, profile_memory

#: Ops that must never be re-executed (in-place parameter updates).
_NON_RECOMPUTABLE = {"apply_sgd", "apply_adam", "apply_lion"}


@dataclass
class Eviction:
    """One value dropped after its last pre-peak use and recomputed."""

    value: str
    alias: str           # name the recomputation produces
    producer: str        # original producer node name
    recompute: str       # cloned node name
    bytes: int
    idle_steps: int      # gap between last pre-peak use and next use


@dataclass
class RematResult:
    """A transformed training graph honouring (or approaching) a budget."""

    graph: Graph
    schedule: list[Node]
    budget_bytes: int
    fits: bool
    evictions: list[Eviction] = field(default_factory=list)
    peak_before: int = 0
    peak_after: int = 0
    extra_flops: int = 0

    @property
    def memory_saving(self) -> float:
        return self.peak_before / max(self.peak_after, 1)


def _uses(schedule: list[Node]) -> dict[str, list[int]]:
    uses: dict[str, list[int]] = {}
    for i, node in enumerate(schedule):
        for inp in node.inputs:
            uses.setdefault(inp, []).append(i)
    return uses


def _candidates(graph: Graph, schedule: list[Node], peak_step: int
                ) -> list[tuple[int, int, str, Node]]:
    """Values live-but-idle across the peak, with a recomputable producer.

    Returns (bytes, idle_steps, value, producer) sorted best-first; "best"
    frees the most bytes, tie-broken by how long the value sits idle.
    """
    producers = {out: node for node in schedule for out in node.outputs}
    uses = _uses(schedule)
    outputs = set(graph.outputs)
    found = []
    for value, node in producers.items():
        if value in outputs or value in graph.initializers:
            continue
        if node.op_type in _NON_RECOMPUTABLE \
                or get_schema(node.op_type).inplace:
            continue
        use_steps = uses.get(value, [])
        if peak_step in use_steps:
            continue  # consumed at the peak itself: cannot help there
        before = [u for u in use_steps if u < peak_step]
        after = [u for u in use_steps if u > peak_step]
        birth = next(i for i, n in enumerate(schedule) if n is node)
        if birth >= peak_step or not after:
            continue  # not live across the peak, or never used again
        last_before = max(before) if before else birth
        idle = min(after) - last_before
        if idle < 2:
            continue  # recomputing right away frees nothing
        found.append((graph.spec(value).nbytes, idle, value, node))
    found.sort(key=lambda item: (item[0], item[1]), reverse=True)
    return found


def rematerialize(
    graph: Graph,
    schedule: list[Node] | None = None,
    budget_bytes: int = 0,
    max_evictions: int = 64,
    max_attempts_per_round: int = 8,
) -> RematResult:
    """Evict-and-recompute activations until peak memory fits the budget.

    Greedy hill climbing with a best-state snapshot. Each round profiles
    the schedule, tentatively applies up to ``max_attempts_per_round``
    candidates at the peak step, and keeps the one yielding the lowest
    resulting peak — *even if that is temporarily higher* (recomputing
    extends producer-input lifetimes across the peak; evicting those in
    later rounds is often what unlocks deep savings). The best state seen
    is snapshotted and restored at the end, so the returned peak is never
    worse than the input's; the loop stops at the budget, at
    ``max_evictions``, when candidates run out, or after ``patience``
    rounds without a new best.

    The returned graph/schedule are numerically equivalent to the input —
    property-tested against the executor — and strictly larger in FLOPs.
    """
    graph = graph.clone()
    name_to_node = {n.name: n for n in graph.nodes}
    if schedule is None:
        schedule = graph.topological_order()
    else:
        schedule = [name_to_node[n.name] for n in schedule]

    base_profile = profile_memory(graph, schedule)
    result = RematResult(
        graph=graph, schedule=schedule, budget_bytes=budget_bytes,
        fits=base_profile.peak_total_bytes <= budget_bytes,
        peak_before=base_profile.peak_total_bytes,
        peak_after=base_profile.peak_total_bytes,
    )
    counter = 0

    def apply(value: str, producer: Node, peak_step: int):
        """Insert a recompute of ``value``; returns an undo record."""
        nonlocal counter
        counter += 1
        alias = f"{value}.remat{counter}"
        spec = graph.spec(value)
        added_values = [alias]
        graph.values[alias] = type(spec)(alias, spec.shape, spec.dtype)
        clone = Node(producer.op_type, f"{producer.name}.remat{counter}",
                     tuple(producer.inputs),
                     tuple(alias if o == value else f"{alias}.sib{i}"
                           for i, o in enumerate(producer.outputs)),
                     dict(producer.attrs))
        for i, out in enumerate(producer.outputs):
            if out != value:
                sib_spec = graph.spec(out)
                sib = f"{alias}.sib{i}"
                graph.values[sib] = type(sib_spec)(
                    sib, sib_spec.shape, sib_spec.dtype)
                added_values.append(sib)

        uses = _uses(schedule)
        # Deduplicate: a node like add(v, v) lists the step twice, and a
        # second visit would snapshot already-rewritten inputs.
        after = sorted({u for u in uses[value] if u > peak_step})
        rewired = []
        for step in after:
            node = schedule[step]
            rewired.append((node, node.inputs))
            node.inputs = tuple(alias if i == value else i
                                for i in node.inputs)
        schedule.insert(after[0], clone)
        graph.nodes = list(schedule)
        return clone, alias, rewired, added_values

    def undo(record) -> None:
        clone, _, rewired, added_values = record
        schedule.remove(clone)
        for node, inputs in reversed(rewired):
            node.inputs = inputs
        for name in added_values:
            del graph.values[name]
        graph.nodes = list(schedule)

    def snapshot():
        return (list(schedule), [(n, n.inputs) for n in schedule],
                list(result.evictions), result.extra_flops)

    def restore(state) -> None:
        saved_schedule, saved_inputs, evictions, flops = state
        schedule[:] = saved_schedule
        for node, inputs in saved_inputs:
            node.inputs = inputs
        result.evictions[:] = evictions
        result.extra_flops = flops
        graph.nodes = list(schedule)

    best_peak = base_profile.peak_total_bytes
    best_state = snapshot()
    patience = 24
    since_best = 0
    while not result.fits and len(result.evictions) < max_evictions:
        profile = profile_memory(graph, schedule)
        if profile.peak_total_bytes <= budget_bytes:
            result.fits = True
            break
        options = _candidates(graph, schedule, profile.peak_step)
        chosen = None  # (new_peak, option)
        for option in options[:max_attempts_per_round]:
            _, _, value, producer = option
            record = apply(value, producer, profile.peak_step)
            new_peak = profile_memory(graph, schedule).peak_total_bytes
            undo(record)
            if chosen is None or new_peak < chosen[0]:
                chosen = (new_peak, option)
            if new_peak < profile.peak_total_bytes:
                break  # a strict improvement is good enough; take it
        if chosen is None:
            break
        new_peak, (nbytes, idle, value, producer) = chosen
        clone, alias, _, _ = apply(value, producer, profile.peak_step)
        result.evictions.append(Eviction(
            value=value, alias=alias, producer=producer.name,
            recompute=clone.name, bytes=nbytes, idle_steps=idle))
        in_specs = [graph.spec(i) for i in clone.inputs]
        out_specs = [graph.spec(o) for o in clone.outputs]
        result.extra_flops += op_flops(
            clone.op_type, in_specs, out_specs, clone.attrs)
        if new_peak < best_peak:
            best_peak = new_peak
            best_state = snapshot()
            since_best = 0
        else:
            since_best += 1
            if since_best > patience:
                break

    if profile_memory(graph, schedule).peak_total_bytes > best_peak:
        restore(best_state)
    graph._drop_orphan_values()
    final = profile_memory(graph, schedule)
    result.peak_after = final.peak_total_bytes
    result.fits = final.peak_total_bytes <= budget_bytes
    result.schedule = schedule
    return result


@dataclass
class PagingPlan:
    """Analytic flash-spill plan (POET's second mechanism)."""

    budget_bytes: int
    fits: bool
    paged_values: list[str]
    peak_before: int
    peak_after: int
    flash_traffic_bytes: int     # write at eviction + read at reuse

    def transfer_ms(self, flash_bw_gbs: float) -> float:
        """Time spent moving spilled tensors at ``flash_bw_gbs`` GB/s."""
        if flash_bw_gbs <= 0:
            raise MemoryPlanError("flash bandwidth must be positive")
        return self.flash_traffic_bytes / (flash_bw_gbs * 1e9) * 1e3


def plan_paging(graph: Graph, schedule: list[Node] | None = None,
                budget_bytes: int = 0, max_spills: int = 128) -> PagingPlan:
    """Choose values to spill to flash until the peak fits the budget.

    Unlike :func:`rematerialize` this does not transform the graph — the
    saving comes from IO, which the plan prices as 2x the spilled bytes
    (write out, read back) per training iteration.
    """
    if schedule is None:
        schedule = graph.topological_order()
    lifetimes = value_lifetimes(graph, schedule)
    sizes = {name: graph.spec(name).nbytes for name in lifetimes}
    resident = profile_memory(graph, schedule).resident_bytes
    alias = {out for node in schedule if get_schema(node.op_type).inplace
             for out in node.outputs}

    # Mutable interval table: paging a value across the peak splits its
    # lifetime into [start, last_use_before] + [next_use_after, end].
    intervals: dict[str, list[tuple[int, int]]] = {
        name: [(life.start, life.end)] for name, life in lifetimes.items()
        if name not in graph.initializers and name not in alias
    }
    uses = _uses(schedule)
    horizon = len(schedule)

    def peak() -> tuple[int, int]:
        load = live_load([(sizes[name], max(birth, 0), min(death, horizon))
                          for name, spans in intervals.items()
                          for birth, death in spans], 1)
        best = max(load)
        return best + resident, load.index(best)

    peak_before, _ = peak()
    paged: list[str] = []
    traffic = 0
    current_peak, peak_step = peak()
    while current_peak > budget_bytes and len(paged) < max_spills:
        best = None
        for name, spans in intervals.items():
            if name in paged or name in graph.outputs:
                continue
            for si, (birth, death) in enumerate(spans):
                if not birth < peak_step <= death:
                    continue
                use_steps = [u for u in uses.get(name, [])
                             if birth < u <= death]
                if peak_step in use_steps:
                    continue  # consumed at the peak itself
                before = [u for u in use_steps if u < peak_step]
                after = [u for u in use_steps if u > peak_step]
                if not after:
                    continue
                last_before = max(before) if before else birth
                if min(after) - last_before < 2:
                    continue
                key = (sizes[name], min(after) - last_before)
                if best is None or key > best[0]:
                    best = (key, name, si, last_before, min(after))
        if best is None:
            break
        _, name, si, last_before, next_after = best
        birth, death = intervals[name][si]
        # Resident again from the step that consumes it (the read-back
        # overlaps the preceding kernel, as POET's DMA prefetch does).
        intervals[name][si:si + 1] = [(birth, last_before),
                                      (next_after, death)]
        paged.append(name)
        traffic += 2 * sizes[name]
        current_peak, peak_step = peak()

    return PagingPlan(
        budget_bytes=budget_bytes,
        fits=current_peak <= budget_bytes,
        paged_values=paged,
        peak_before=peak_before,
        peak_after=current_peak,
        flash_traffic_bytes=traffic,
    )
