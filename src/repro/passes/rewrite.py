"""Functional-preserving graph rewrites (paper §2.4 / §3.2).

MetaFlow/TASO-style algebraic substitutions applied to the *training*
graph — profitable exactly because compile-time autodiff produces chains
(double transposes, nested reshapes, arithmetic identities) that runtime
tape differentiation never exposes to a compiler. Every rule is
semantics-preserving; the numeric-equivalence property test exercises them
on random graphs.

Implemented rules:

* ``transpose(transpose(x, p1), p2)`` -> ``x`` (when the composition is the
  identity) or a single fused transpose,
* ``reshape(reshape(x, s1), s2)`` -> ``reshape(x, s2)``,
* ``neg(neg(x))`` -> ``x``,
* ``cast`` to the input's own dtype -> identity,
* ``pad`` with all-zero padding -> identity,
* ``slice`` spanning the whole axis -> identity,
* ``mul(x, 1)`` / ``div(x, 1)`` / ``add(x, 0)`` / ``sub(x, 0)`` -> ``x``
  (scalar constant operands only),
* ``matmul(transpose(a), b)`` / ``matmul(a, transpose(b))`` ->
  ``matmul(a, b, trans_a/trans_b=True)`` when the transpose swaps only the
  last two axes — the dominant pattern in backward graphs
  (``dW = Xᵀ·G``, ``dX = G·Wᵀ``), the same folding ONNX ``Gemm`` and
  TASO perform.
"""

from __future__ import annotations

import numpy as np

from ..ir import Graph
from ..ir.node import Node
from .base import Pass, PassContext, PassResult


class AlgebraicRewritePass(Pass):
    name = "rewrite"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        total = 0
        while True:
            changed = self._one_round(graph)
            total += changed
            if not changed:
                break
        if total:
            graph.dead_code_elimination()
        return PassResult(changed=total > 0, stats={"rewrites": total})

    def _one_round(self, graph: Graph) -> int:
        producers = graph.producer_map()
        replace: dict[str, str] = {}
        drop: set[str] = set()
        changed = 0

        for node in graph.nodes:
            if node.name in drop:
                continue
            alias = self._match_identity(graph, node)
            if alias is not None:
                replace[node.outputs[0]] = alias
                drop.add(node.name)
                changed += 1
                continue
            fused = self._match_chain(graph, node, producers, drop)
            if fused:
                changed += 1

        if not changed:
            return 0
        # Resolve chained replacements (a -> b -> c).
        def resolve(name: str) -> str:
            seen = set()
            while name in replace and name not in seen:
                seen.add(name)
                name = replace[name]
            return name

        graph.nodes = [n for n in graph.nodes if n.name not in drop]
        for node in graph.nodes:
            node.inputs = tuple(resolve(i) for i in node.inputs)
        graph.outputs = [resolve(o) for o in graph.outputs]
        # Orphaned values are dropped once, by the DCE that closes ``run``.
        return changed

    # -- rules ----------------------------------------------------------

    def _match_identity(self, graph: Graph, node: Node) -> str | None:
        """Rules where the node output equals one of its inputs."""
        if node.op_type == "cast":
            src = graph.spec(node.inputs[0])
            if src.dtype.value == node.attrs["dtype"]:
                return node.inputs[0]
        elif node.op_type == "pad":
            if all(int(lo) == 0 and int(hi) == 0
                   for lo, hi in node.attrs["pads"]):
                return node.inputs[0]
        elif node.op_type == "slice":
            src = graph.spec(node.inputs[0])
            axis = int(node.attrs["axis"])
            if int(node.attrs["start"]) == 0 \
                    and int(node.attrs["end"]) >= src.shape[axis]:
                return node.inputs[0]
        elif node.op_type in ("mul", "div", "add", "sub"):
            neutral = 1.0 if node.op_type in ("mul", "div") else 0.0
            rhs = node.inputs[1]
            if rhs in graph.initializers:
                value = graph.initializers[rhs]
                if value.size == 1 and float(value.reshape(())) == neutral \
                        and graph.spec(node.outputs[0]).shape \
                        == graph.spec(node.inputs[0]).shape:
                    return node.inputs[0]
        elif node.op_type == "reshape":
            if graph.spec(node.inputs[0]).shape \
                    == tuple(node.attrs["shape"]):
                return node.inputs[0]
        return None

    def _match_chain(self, graph: Graph, node: Node, producers,
                     drop: set[str]) -> bool:
        """Fuse producer chains in place (node keeps its output name)."""
        if node.op_type == "transpose":
            parent = producers.get(node.inputs[0])
            if parent is not None and parent.op_type == "transpose" \
                    and parent.name not in drop:
                p1 = tuple(parent.attrs["perm"])
                p2 = tuple(node.attrs["perm"])
                composed = tuple(p1[p] for p in p2)
                node.inputs = (parent.inputs[0],)
                if composed == tuple(range(len(composed))):
                    # Identity: turn into a reshape to the same shape
                    # (cheap marker; the identity rule removes it next
                    # round).
                    node.op_type = "reshape"
                    node.attrs = {
                        "shape": graph.spec(node.outputs[0]).shape}
                else:
                    node.attrs = {"perm": composed}
                return True
        elif node.op_type == "reshape":
            parent = producers.get(node.inputs[0])
            if parent is not None and parent.op_type == "reshape" \
                    and parent.name not in drop:
                node.inputs = (parent.inputs[0],)
                return True
        elif node.op_type == "neg":
            parent = producers.get(node.inputs[0])
            if parent is not None and parent.op_type == "neg" \
                    and parent.name not in drop:
                node.op_type = "reshape"
                node.inputs = (parent.inputs[0],)
                node.attrs = {"shape": graph.spec(node.outputs[0]).shape}
                return True
        elif node.op_type == "matmul":
            return self._fold_matmul_transpose(node, producers, drop)
        return False

    @staticmethod
    def _fold_matmul_transpose(node: Node, producers,
                               drop: set[str]) -> bool:
        """Absorb a last-two-axes transpose into matmul trans flags."""
        folded = False
        for idx, flag in ((0, "trans_a"), (1, "trans_b")):
            parent = producers.get(node.inputs[idx])
            if parent is None or parent.op_type != "transpose" \
                    or parent.name in drop:
                continue
            perm = tuple(parent.attrs["perm"])
            rank = len(perm)
            if rank < 2 or perm[:-2] != tuple(range(rank - 2)) \
                    or perm[-2:] != (rank - 1, rank - 2):
                continue
            inputs = list(node.inputs)
            inputs[idx] = parent.inputs[0]
            node.inputs = tuple(inputs)
            node.attrs = {
                **node.attrs, flag: not node.attrs.get(flag, False)}
            folded = True
        return folded
