"""Operator reordering and in-place update scheduling (paper §3.2).

Conventional frameworks compute *all* gradients, keep them alive, and then
run the optimizer; with small-batch sparse training the gradient buffers
rival the activation peak (paper Table 4 discussion). Because our optimizer
steps are graph nodes with in-place semantics, scheduling is free to apply
each gradient the moment it is produced — the gradient buffer dies
immediately.

:func:`memory_aware_schedule` is a greedy list scheduler: among ready nodes
it picks the one with the best immediate memory delta (bytes freed minus
bytes allocated). This one heuristic yields all three behaviours the paper
engineers explicitly: optimizer applies run early, activation-saving slices
hoist next to their producers, and large temporaries are consumed promptly.

One refinement, because a node's outputs exist before its inputs die: when
the pick would lift memory above anything the schedule has held between
steps so far, a ready node that allocates nothing and releases something
(an ``apply_*`` retiring its gradient) goes first. Running such a node
earlier can never raise a peak; the rule is confined to picks that set a
new mark so that every schedule it cannot improve stays as it was (the
six transformer zoo programs, byte for byte). It is what keeps
``resnet_micro`` full at batch 1 from reading 896 B *higher* once
``conv2d_dx`` takes its mask itself (the fused node frees the mask's 128 B
too, wins a tie it used to lose, and a residual ``add`` then met a
downsample weight gradient still waiting for its update): 99 788 ->
97 612 B instead of 100 684.

The greedy order competes with two others, profiled the same way: the
natural (breadth-first) order, and the node list itself with the updates
and masks moved up (:func:`_program_order`). The third one exists because
the breadth-first order is an accident of graph shape: once the loss
picked its label instead of multiplying by a one-hot row, the chain from
logits to the classifier's weight gradient got two levels shorter, and on
``bert_micro`` / ``distilbert_micro`` full at batch 1 that gradient was
then born beside the last block's GELU backward — +468 B on the plan's
ledger, +384 on its slab. The node list wins there (125 824 -> 125 784 B),
and no zoo program x batch {1, 2, 8} plans a higher peak or slab than it
did with the one-hot loss and two candidates. The natural order wins on
no zoo program x batch {1, 2, 8} any more, but it stays: on small random
DAGs it beats both others (108 of the 2001 seeds of
``tests/test_properties.py``'s generator, e.g. 384 against 480 B), and
with it "never worse than the natural order" holds by construction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from ..errors import CompileError
from ..ir import Graph
from ..ir.node import Node
from ..ir.ops import get_schema


def memory_aware_schedule(graph: Graph) -> list[Node]:
    """Return the best of three schedules by peak memory: greedy, natural
    (:meth:`Graph.topological_order`) and the node list with updates and
    masks moved up (:func:`_program_order`).

    The greedy list scheduler wins on most training graphs (it applies
    updates early and hoists activation-saving slices) but, being a
    heuristic, can lose on adversarial DAGs — so every candidate is
    profiled and the smallest peak wins, the earlier candidate on ties.
    Write-after-read hazards are honoured throughout: an in-place
    ``apply_*`` node is not ready until every other reader of its
    parameter has executed.

    The result is a :class:`~repro.memory.profiler.ProfiledSchedule`: the
    winner keeps the profile that chose it, so ``profile_memory`` on it
    costs nothing.
    """
    from ..memory.profiler import ProfiledSchedule, profile_memory

    best = _greedy_schedule(graph)
    profile = profile_memory(graph, best)
    for challenger in (graph.topological_order(), _program_order(graph)):
        if challenger is None:
            continue
        measured = profile_memory(graph, challenger)
        if measured.peak_transient_bytes < profile.peak_transient_bytes:
            best, profile = challenger, measured
    return ProfiledSchedule(best, graph, profile)


def greedy_schedule(graph: Graph,
                    after: Iterable[tuple[Node, Node]]) -> list[Node]:
    """The greedy candidate of :func:`memory_aware_schedule` alone, with
    ``(first, then)`` ordering edges honoured the way an ``apply_*``'s
    write-after-read hazards are: ``then`` is not ready before ``first``
    has run. A clone from
    :func:`~repro.passes.recompute.recompute_for_backward` waits so for the
    gradient its reader takes with it. The compiler keeps this schedule
    only where its peak is below :func:`memory_aware_schedule`'s on the
    graph without clones, so the other two candidates are not profiled
    again. Returned as a :class:`~repro.memory.profiler.ProfiledSchedule`.
    """
    from ..memory.profiler import ProfiledSchedule, profile_memory

    order = _greedy_schedule(graph, after)
    return ProfiledSchedule(order, graph, profile_memory(graph, order))


def _greedy_schedule(graph: Graph,
                     after: Iterable[tuple[Node, Node]] = ()) -> list[Node]:
    """Greedy minimum-live-bytes list scheduling (see module docstring).

    Nodes are handled by their position in ``graph.nodes``. Everything a
    pick's score needs is an integer worked out once per node; only the
    per-value ``remaining`` reader counts change while scheduling.
    """
    nodes = graph.nodes
    inplace = [get_schema(node.op_type).inplace for node in nodes]
    index = {id(node): i for i, node in enumerate(nodes)}
    producer = {out: index[id(node)]
                for out, node in graph.producer_map().items()}

    # Dataflow dependencies.
    deps: list[set[int]] = [set() for _ in nodes]
    dependents: list[list[int]] = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        for inp in node.inputs:
            p = producer.get(inp)
            if p is not None and p != i:
                deps[i].add(p)
                dependents[p].append(i)

    # Hazards: apply(param) must follow all other readers of param.
    readers: dict[str, list[int]] = defaultdict(list)
    for i, node in enumerate(nodes):
        for inp in node.inputs:
            if inp in graph.initializers:
                readers[inp].append(i)
    hazards: list[tuple[int, int, str]] = []  # (reader, apply, param)
    for i, node in enumerate(nodes):
        if not inplace[i]:
            continue
        param = node.inputs[0]
        for reader in readers[param]:
            if reader != i:
                deps[i].add(reader)
                dependents[reader].append(i)
                hazards.append((reader, i, param))
    # Ordering edges: ``then`` is not ready before ``first`` has run.
    for first, then in after:
        i, j = index[id(first)], index[id(then)]
        if i not in deps[j]:
            deps[j].add(i)
            dependents[i].append(j)

    # Remaining-reader counts, and per node what scoring it takes: the
    # bytes it allocates and, for each transient input, how many of the
    # value's reads are this node's and what the value frees when it dies.
    remaining: dict[str, int] = defaultdict(int)
    for node in nodes:
        for inp in node.inputs:
            remaining[inp] += 1
    persistent = set(graph.initializers) | set(graph.inputs) \
        | set(graph.outputs)
    alias = {
        out for i, node in enumerate(nodes) if inplace[i]
        for out in node.outputs
    }
    alloc = [
        sum(graph.spec(o).nbytes for o in node.outputs if o not in alias)
        for node in nodes
    ]
    frees = [
        [(inp, node.inputs.count(inp), graph.spec(inp).nbytes)
         for inp in dict.fromkeys(node.inputs) if inp not in persistent]
        for node in nodes
    ]

    pending = [len(d) for d in deps]
    ready = [i for i, count in enumerate(pending) if count == 0]
    schedule: list[Node] = []
    live = held = 0  # transient bytes now, and the most held between steps
    while ready:
        # Best immediate delta (allocated minus freed bytes); ties go to
        # the earlier node. ``free`` is the best of the ready nodes that
        # allocate nothing and release something (an ``apply_*`` retiring
        # its gradient).
        best, best_delta = -1, 0
        free, free_delta = -1, 0
        for i in ready:
            delta = alloc[i]
            for value, reads, size in frees[i]:
                if remaining[value] == reads:
                    delta -= size
            if best < 0 or delta < best_delta \
                    or (delta == best_delta and i < best):
                best, best_delta = i, delta
            if not alloc[i] and (delta < free_delta
                                 or (delta == free_delta < 0 and i < free)):
                free, free_delta = i, delta
        # A pick whose outputs would lift memory above anything held so
        # far waits for ``free``: outputs exist before inputs die, so its
        # bigger net release does not make it the cheaper step to take
        # first. The mark is what was held *between* steps — a step's own
        # bump counts an elementwise result beside the input it overwrites
        # in the slab, and would hide the real peaks behind those.
        if free >= 0 and live + alloc[best] > held:
            best, best_delta = free, free_delta
        live += best_delta
        held = max(held, live)
        ready.remove(best)
        node = nodes[best]
        schedule.append(node)
        for inp in node.inputs:
            remaining[inp] -= 1
        for dep in dependents[best]:
            pending[dep] -= 1
            if pending[dep] == 0:
                ready.append(dep)
    if len(schedule) != len(nodes):
        # A dataflow cycle would have been caught earlier; what is left
        # waits on a write-after-read hazard that can never clear.
        stuck = [nodes[i].name for i, count in enumerate(pending) if count]
        blocked = [
            f"{nodes[apply].name} must follow {nodes[reader].name} "
            f"(reads {param!r})"
            for reader, apply, param in hazards
            if pending[reader] and pending[apply]
        ]
        reason = "hazard: " + "; ".join(blocked) if blocked \
            else "dependency cycle"
        raise CompileError(
            f"memory-aware scheduling could not order {len(stuck)} node(s) "
            f"{stuck}: {reason}")
    return schedule


def _program_order(graph: Graph) -> list[Node] | None:
    """The node list as the graph passes leave it — the builder's order
    (forward, loss, each gradient rule's nodes in turn, optimizer) where
    no pass re-sorted it — with two kinds of node moved up:

    * an in-place ``apply_*`` to just behind the producers of its inputs
      and every other reader of its parameter (the write-after-read
      hazard): it allocates nothing and retires its gradient, so running
      it earlier lowers every moment it passes and raises none;
    * a ``range_mask`` to just behind its activation's producer, in the
      forward pass: the backward keeps no activation only to mask it
      later (one bit per element instead of a float).

    ``None`` when the node list is no topological order.
    """
    available = set(graph.inputs) | set(graph.initializers)
    produced: dict[str, int] = {}  # value -> its producer's place in body
    read: dict[str, int] = {}  # value -> its last reader's place in body
    body: list[Node] = []
    early: list[Node] = []
    for node in graph.nodes:
        if not available.issuperset(node.inputs):
            return None
        available.update(node.outputs)
        if node.op_type == "range_mask" or get_schema(node.op_type).inplace:
            early.append(node)
        else:
            for inp in node.inputs:
                read[inp] = len(body)
            for out in node.outputs:
                produced[out] = len(body)
            body.append(node)

    def follows(node: Node) -> int:
        """The place in ``body`` that ``node`` goes right behind."""
        place = max(produced.get(inp, -1) for inp in node.inputs)
        if node.op_type == "range_mask":
            return place
        return max(place, read.get(node.inputs[0], -1))

    # (place in ``body`` to follow, emission order, node)
    hoisted = sorted((follows(node), at, node)
                     for at, node in enumerate(early))
    schedule: list[Node] = []
    at = 0
    for pos, node in enumerate(body):
        while at < len(hoisted) and hoisted[at][0] < pos:
            schedule.append(hoisted[at][2])
            at += 1
        schedule.append(node)
    schedule.extend(entry[2] for entry in hoisted[at:])
    return schedule


def default_schedule(graph: Graph,
                     applies_last: bool = False) -> list[Node]:
    """Topological order; optionally push optimizer applies to the end.

    ``applies_last=True`` reproduces conventional framework behaviour
    (compute every gradient, then step the optimizer) for baseline
    simulation and the reorder-ablation benchmark.
    """
    order = graph.topological_order()
    if not applies_last:
        return order
    body = [n for n in order if not get_schema(n.op_type).inplace]
    tail = [n for n in order if get_schema(n.op_type).inplace]
    return body + tail
