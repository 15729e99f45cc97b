"""Recompute, don't hold: clone a cheap forward value for its backward readers.

A training step holds a forward value from its producer to its last
backward reader. When that value is one elementwise pass over inputs the
backward holds anyway, holding it buys nothing: its backward readers can
read a copy computed again from those inputs, and the original dies with
its last forward reader. The SwiGLU FFN is the case: ``swiglu(gate, up)``
is read by the down projection and by that projection's weight gradient,
while ``gate`` and ``up`` are held for ``swiglu``'s own adjoint anyway; on
a GELU FFN, ``gelu(h)`` stands where ``gelu_grad`` holds ``h``.

A forward node (an ancestor of the loss) is cloned when all three hold:

* it is a single-output elementwise op that costs one pass, one of the
  FFN activations in :data:`ONE_PASS`;
* its output is read by a backward node (one outside the loss's
  ancestors);
* its first backward reader that is no view takes a gradient beside it
  (the down projection's weight gradient takes its output's gradient),
  and every input is resident (an initializer or a feed) or read by a
  backward node downstream of that gradient.

Of a chain of such nodes only the first is cloned. So the clone reads
nothing the step does not hold for the backward anyway, and costs one
elementwise pass. It runs the same kernel over the same inputs, so its
bytes are the original's. No forward segment is re-run and no matmul is
recomputed: this is not checkpointing.

A clone must also run *just in time*, not in the forward where the
scheduler would otherwise put it (it frees nothing, so nothing argues for
waiting): :func:`recompute_for_backward` returns, with each clone, the
producers of that gradient (:func:`_gradient_producers`), and the
scheduler runs the clone after them
(:func:`~repro.passes.reorder.greedy_schedule`).

Run it after CSE, which would merge a clone back into its original, and
only when the schedule is memory-aware: a conventional framework holds
every forward value its backward reads. The compiler schedules the graph
without clones first and keeps them only when their schedule has the
lower peak (:meth:`Recompute.undo` takes them out again), so the rewrite
never raises the schedule's peak, whatever the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..ir import Graph, TensorSpec
from ..ir.node import Node
from ..kernels import VIEW_OPS

#: the single-output forward elementwise ops a clone may be made of: one
#: pass over their output each, and the ops a measured workload clones
#: (the GELU and SwiGLU FFNs; ``silu`` where the gate is traced as
#: ``mul(silu(gate), up)``). Another op joins when a workload needs it and
#: a test shows its peak does not rise.
ONE_PASS = frozenset({"gelu", "silu", "swiglu"})

#: suffix of a clone's node and output names
SUFFIX = ".recompute"


@dataclass
class Recompute:
    """What :func:`recompute_for_backward` did.

    ``after`` holds ``(producer, clone)`` ordering edges for the scheduler;
    ``stats`` the clone count and the bytes no longer held from the forward
    into the backward; ``rewired`` each clone with the backward readers
    it took over, for :meth:`undo`.
    """

    after: list[tuple[Node, Node]] = field(default_factory=list)
    stats: dict = field(
        default_factory=lambda: {"clones": 0, "bytes": 0})
    rewired: list[tuple[Node, list[Node]]] = field(default_factory=list)

    def undo(self, graph: Graph) -> None:
        """Take the clones out of ``graph`` again: its nodes, values and
        inputs are as before :func:`recompute_for_backward` ran."""
        clones = {id(clone) for clone, _ in self.rewired}
        graph.nodes[:] = [node for node in graph.nodes
                          if id(node) not in clones]
        for clone, readers in self.rewired:
            value = clone.outputs[0]
            for reader in readers:
                reader.replace_input(value, value[:-len(SUFFIX)])
            del graph.values[value]
        self.after, self.rewired = [], []
        self.stats = {"clones": 0, "bytes": 0}


def recompute_for_backward(graph: Graph, loss: str) -> Recompute:
    """Clone every qualifying forward node for its backward readers (see
    the module docstring); returns the scheduler's ordering edges."""
    producer = graph.producer_map()
    consumers = graph.consumer_map()
    forward: set[int] = set()  # ids of the loss's ancestors
    stack = [producer[loss]] if loss in producer else []
    while stack:
        node = stack.pop()
        if id(node) in forward:
            continue
        forward.add(id(node))
        stack.extend(producer[i] for i in node.inputs if i in producer)

    def backward_readers(value: str) -> list[Node]:
        return [r for r in consumers.get(value, ()) if id(r) not in forward]

    resident = set(graph.initializers) | set(graph.inputs)
    held = set(graph.outputs)
    qualified = [
        node for node in graph.nodes
        if id(node) in forward and node.op_type in ONE_PASS
        and len(node.outputs) == 1 and node.outputs[0] not in held
        and backward_readers(node.outputs[0])
    ]
    position = {id(node): at for at, node in enumerate(graph.nodes)}
    plans = []  # (node, its backward readers, the first, what it waits for)
    cloned: set[str] = set()
    for node in qualified:
        # Of a chain of clones only the first is made: a later one's clone
        # would hold the earlier one's output in the backward again.
        if not cloned.isdisjoint(node.inputs):
            continue
        readers = backward_readers(node.outputs[0])
        first = min(readers, key=lambda r: position[id(r)])
        waits = _gradient_producers(node.outputs[0], readers, first,
                                    consumers, producer, position)
        if not waits:
            continue  # no gradient to run just in time for
        # A transient input must be read downstream of that gradient too:
        # a backward reader the schedule can hoist into the forward (a
        # ``range_mask``) does not hold it there.
        if all(i in resident
               or _reaches(waits, backward_readers(i), consumers)
               for i in node.inputs):
            plans.append((node, readers, first, waits))
            cloned.add(node.outputs[0])

    result = Recompute()
    inserts: list[tuple[int, Node]] = []
    for node, readers, first, waits in plans:
        value = node.outputs[0]
        clone = Node(node.op_type, node.name + SUFFIX, node.inputs,
                     (value + SUFFIX,), dict(node.attrs))
        spec = graph.spec(value)
        graph.add_value(TensorSpec(value + SUFFIX, spec.shape, spec.dtype))
        for reader in readers:
            reader.replace_input(value, clone.outputs[0])
        # Right behind the gradient it waits for (before its first reader
        # at the latest): the greedy scheduler breaks ties by list
        # position, so the clone and its reader then run before the
        # gradient's other readers (the down projection's ``dX``) add
        # their outputs beside it.
        inserts.append((min(position[id(first)],
                            1 + max(position[id(p)] for p in waits)), clone))
        result.after.extend((p, clone) for p in waits)
        result.rewired.append((clone, readers))
        result.stats["clones"] += 1
        result.stats["bytes"] += spec.nbytes
    # Later positions first, so the earlier ones stay valid.
    for at, clone in sorted(inserts, key=lambda entry: -entry[0]):
        graph.nodes.insert(at, clone)
    return result


def _gradient_producers(value: str, readers: list[Node], first: Node,
                        consumers, producer, position) -> list[Node]:
    """Producers of the other operands of ``value``'s first non-view reader
    (through a chain of views from ``first``), each traced back through
    views to the node that computes it, leaving out any downstream of
    ``readers`` — waiting for one would be a cycle."""
    reader = first
    while reader.op_type in VIEW_OPS:
        later = consumers.get(reader.outputs[0])
        if not later:
            break
        value = reader.outputs[0]
        reader = min(later, key=lambda r: position[id(r)])
    found = []
    for operand in dict.fromkeys(reader.inputs):
        node = producer.get(operand) if operand != value else None
        while node is not None and node.op_type in VIEW_OPS \
                and node.inputs[0] in producer:
            node = producer[node.inputs[0]]
        if node is not None:
            found.append(node)
    return [node for node in found
            if not _reaches(readers, [node], consumers)]


def _reaches(sources: list[Node], targets: list[Node], consumers) -> bool:
    """Is any of ``targets`` one of ``sources`` or downstream of them?
    Breadth first, so a reader next to a gradient is found without
    walking the rest of the backward."""
    wanted = {id(node) for node in targets}
    seen = {id(node) for node in sources}
    if not wanted.isdisjoint(seen):
        return True
    queue = deque(sources)
    while queue:
        for out in queue.popleft().outputs:
            for reader in consumers.get(out, ()):
                if id(reader) in wanted:
                    return True
                if id(reader) not in seen:
                    seen.add(id(reader))
                    queue.append(reader)
    return False
