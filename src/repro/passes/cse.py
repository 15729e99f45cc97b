"""Common-subexpression elimination.

Training graphs repeat work the forward pass already did (e.g. gradient
rules that recompute normalization statistics); CSE merges identical
(op, inputs, attrs) nodes so each expression is evaluated once.
"""

from __future__ import annotations

from ..ir import Graph
from ..ir.ops import get_schema
from .base import Pass, PassContext, PassResult


class CommonSubexpressionEliminationPass(Pass):
    name = "cse"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        """One topological sweep with a running replacement map.

        That is already the fixpoint: a node is visited after all of its
        producers, so its inputs are canonical when it is keyed, and two
        surviving nodes never share a key — a second sweep would see the
        same keys and remove nothing.
        """
        seen: dict[tuple, tuple[str, ...]] = {}
        replace: dict[str, str] = {}
        survivors = []
        for node in graph.topological_order():
            if replace:
                node.inputs = tuple(replace.get(i, i) for i in node.inputs)
            if get_schema(node.op_type).inplace:
                survivors.append(node)
                continue
            key = (node.op_type, node.inputs, node.attr_key())
            canonical = seen.get(key)
            if canonical is not None:
                replace.update(zip(node.outputs, canonical))
                continue
            seen[key] = node.outputs
            survivors.append(node)
        removed = len(graph.nodes) - len(survivors)
        if removed:
            graph.nodes = survivors
            graph.outputs = [replace.get(o, o) for o in graph.outputs]
            graph._drop_orphan_values()
        return PassResult(changed=removed > 0, stats={"removed": removed})
