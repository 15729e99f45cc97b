"""The computation graph: a DAG of operator nodes over named tensors.

Graphs carry everything the compiler needs:

* ``nodes`` — operator applications (kept in a valid topological order),
* ``values`` — name -> :class:`TensorSpec` for every tensor,
* ``inputs`` / ``outputs`` — graph boundary,
* ``initializers`` — name -> numpy array for weights and constants,
* ``trainable`` — which initializers are parameters the optimizer may touch,
* ``metadata`` — free-form side information (e.g. parameter provenance used
  by sparse-update schemes).
"""

from __future__ import annotations

import copy
from collections import defaultdict
from typing import Any, Iterable

import numpy as np

from ..errors import GraphError
from .node import Node
from .tensor import TensorSpec


class Graph:
    """A static computation graph (forward, or full training graph)."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: list[Node] = []
        self.values: dict[str, TensorSpec] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.initializers: dict[str, np.ndarray] = {}
        self.trainable: set[str] = set()
        self.metadata: dict[str, Any] = {}

    # -- construction -------------------------------------------------------

    def add_value(self, spec: TensorSpec) -> None:
        if spec.name in self.values:
            raise GraphError(f"duplicate value name {spec.name!r}")
        self.values[spec.name] = spec

    def add_node(self, node: Node) -> None:
        for out in node.outputs:
            if out not in self.values:
                raise GraphError(f"node {node.name!r} output {out!r} has no spec")
        self.nodes.append(node)

    def add_initializer(
        self, name: str, array: np.ndarray, trainable: bool = False
    ) -> None:
        if name not in self.values:
            raise GraphError(f"initializer {name!r} has no value spec")
        self.initializers[name] = array
        if trainable:
            self.trainable.add(name)

    # -- queries ------------------------------------------------------------

    def spec(self, name: str) -> TensorSpec:
        try:
            return self.values[name]
        except KeyError:
            raise GraphError(f"unknown value {name!r}") from None

    def producer_map(self) -> dict[str, Node]:
        """Map each value name to the node that produces it."""
        producers: dict[str, Node] = {}
        for node in self.nodes:
            for out in node.outputs:
                if out in producers:
                    raise GraphError(f"value {out!r} produced twice")
                producers[out] = node
        return producers

    def consumer_map(self) -> dict[str, list[Node]]:
        """Map each value name to the nodes that consume it."""
        consumers: dict[str, list[Node]] = defaultdict(list)
        for node in self.nodes:
            for inp in node.inputs:
                consumers[inp].append(node)
        return dict(consumers)

    def node_by_name(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"no node named {name!r}")

    def is_source(self, name: str) -> bool:
        """True if a value is a graph input or an initializer."""
        return name in self.initializers or name in self.inputs

    # -- transforms ---------------------------------------------------------

    def topological_order(self) -> list[Node]:
        """Return nodes in a dependency-respecting order (Kahn's algorithm).

        Raises:
            GraphError: if the graph contains a cycle or a dangling input.
        """
        producers = self.producer_map()
        nodes = self.nodes
        indegree: list[int] = []
        dependents: dict[str, list[int]] = {}
        for idx, node in enumerate(nodes):
            count = 0
            for inp in node.inputs:
                if inp in producers:
                    count += 1
                    users = dependents.get(inp)
                    if users is None:
                        dependents[inp] = [idx]
                    else:
                        users.append(idx)
                elif not self.is_source(inp):
                    raise GraphError(
                        f"node {node.name!r} reads undefined value {inp!r}"
                    )
            indegree.append(count)

        # Seed with ready nodes, preserving current order for determinism;
        # ``ready`` grows while it is walked.
        ready = [idx for idx, count in enumerate(indegree) if count == 0]
        order: list[Node] = []
        for idx in ready:
            node = nodes[idx]
            order.append(node)
            for out in node.outputs:
                for consumer in dependents.get(out, ()):
                    indegree[consumer] -= 1
                    if indegree[consumer] == 0:
                        ready.append(consumer)
        if len(order) != len(nodes):
            raise GraphError("graph contains a cycle")
        return order

    def dead_code_elimination(self, keep: Iterable[str] | None = None) -> int:
        """Remove nodes whose outputs never reach ``keep`` (default: outputs).

        This is the mechanism that turns a pruned backward specification into
        *measured* savings (paper section 3.1): once a gradient is not
        requested, everything feeding only that gradient disappears.

        Returns:
            Number of nodes removed.
        """
        targets = set(keep if keep is not None else self.outputs)
        producers = self.producer_map()
        live_values: set[str] = set()
        stack = [t for t in targets if t in producers]
        live_nodes: set[str] = set()
        while stack:
            value = stack.pop()
            if value in live_values:
                continue
            live_values.add(value)
            node = producers.get(value)
            if node is None or node.name in live_nodes:
                continue
            live_nodes.add(node.name)
            stack.extend(node.inputs)

        before = len(self.nodes)
        self.nodes = [n for n in self.nodes if n.name in live_nodes]
        self._drop_orphan_values()
        return before - len(self.nodes)

    def _drop_orphan_values(self) -> None:
        """Drop specs/initializers no node or boundary references anymore."""
        used: set[str] = set(self.inputs) | set(self.outputs)
        for node in self.nodes:
            used.update(node.inputs)
            used.update(node.outputs)
        self.values = {k: v for k, v in self.values.items() if k in used}
        self.initializers = {
            k: v for k, v in self.initializers.items() if k in used
        }
        self.trainable &= set(self.initializers)

    def remove_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove ``nodes`` (matched by identity) in one list rebuild.

        A pass collects what it removes and calls this once; values the
        removal orphans are the caller's to drop (``_drop_orphan_values``),
        also once.
        """
        drop = {id(node) for node in nodes}
        self.nodes = [node for node in self.nodes if id(node) not in drop]

    def clone(self) -> "Graph":
        """Deep copy of the graph (initializer arrays are shared, not copied:
        they are treated as immutable by every pass)."""
        other = Graph(self.name)
        other.nodes = [
            Node(n.op_type, n.name, tuple(n.inputs), tuple(n.outputs),
                 copy.deepcopy(n.attrs))
            for n in self.nodes
        ]
        other.values = dict(self.values)
        other.inputs = list(self.inputs)
        other.outputs = list(self.outputs)
        other.initializers = dict(self.initializers)
        other.trainable = set(self.trainable)
        other.metadata = copy.deepcopy(self.metadata)
        return other

    # -- statistics ---------------------------------------------------------

    def num_params(self, trainable_only: bool = False) -> int:
        names = self.trainable if trainable_only else self.initializers.keys()
        return sum(int(np.prod(self.initializers[n].shape)) for n in names)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        from .printer import format_graph

        return format_graph(self)
