"""Parallel-linear fusion (paper §3.2: "parallel linear operations
(e.g. batch matmul) have been shown effective").

Multiple matmuls reading the *same* activation — the Q/K/V projections of
an attention block are the canonical case — merge into one wide matmul on
the concatenated weight, followed by cheap slices. One big GEMM replaces
``k`` small ones: fewer kernel launches and better arithmetic intensity.

Like Winograd selection, this is an optimization sparse backpropagation
*unlocks*: concatenating weights is only sound when none of them is being
updated (a merged parameter could not receive its per-branch gradients)
and when the backward pass does not read the individual weights — i.e. in
the frozen prefix below which the pruned backward graph never descends
(paper Figure 5, "backpropagation stops here"). The pass therefore
requires every branch weight to be frozen and single-consumer.

Branches may uniformly carry a trailing ``bias_add``; the biases are then
concatenated and folded into one merged ``bias_add``.
"""

from __future__ import annotations

import numpy as np

from ..ir import Graph, GraphBuilder
from ..ir.node import Node
from .base import Pass, PassContext, PassResult


def _concatenate(parts: list[np.ndarray], axis: int) -> np.ndarray:
    """``np.concatenate``, except that zero-stride placeholders of one fill
    (the weights of a graph-only compile, :func:`repro.frontend.init.
    lazy_init`) stay one: at Llama-7B the copies are 100 MB a block."""
    first = parts[0]
    if all(not any(part.strides) and part.dtype == first.dtype
           and part.flat[0] == first.flat[0] for part in parts):
        shape = list(first.shape)
        shape[axis] = sum(part.shape[axis] for part in parts)
        return np.broadcast_to(first.flat[0], shape)
    return np.concatenate(parts, axis=axis)


class ParallelLinearFusionPass(Pass):
    name = "parallel_fusion"

    def __init__(self, min_group: int = 2) -> None:
        self.min_group = min_group

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        groups = self._find_groups(graph, ctx)
        if groups:
            self._merge_all(graph, groups)
            graph.dead_code_elimination()
            graph.nodes = graph.topological_order()
        return PassResult(
            changed=bool(groups),
            stats={"groups": len(groups),
                   "branches": sum(len(group) for group in groups)},
        )

    # -- matching ---------------------------------------------------------

    def _find_groups(self, graph: Graph, ctx: PassContext
                     ) -> list[list[tuple[Node, Node | None]]]:
        """Every mergeable list of (matmul, bias_add | None), in the order
        of each group's first branch.

        One scan finds them all: a merge touches only its own branches,
        their sole-consumed weights and the names of their outputs, so it
        neither creates nor breaks another group.
        """
        consumers = graph.consumer_map()
        outputs = set(graph.outputs)
        candidates: dict[tuple, list[tuple[Node, Node | None]]] = {}
        for node in graph.nodes:
            branch = self._match_branch(graph, ctx, node, consumers,
                                        outputs)
            if branch is None:
                continue
            x = node.inputs[0]
            in_dim = graph.spec(node.inputs[1]).shape[0]
            has_bias = branch[1] is not None
            key = (x, in_dim, has_bias)
            candidates.setdefault(key, []).append(branch)
        return [group for group in candidates.values()
                if len(group) >= self.min_group]

    @staticmethod
    def _match_branch(graph: Graph, ctx: PassContext, node: Node,
                      consumers, outputs) -> tuple[Node, Node | None] | None:
        if node.op_type != "matmul" or len(node.inputs) != 2:
            return None
        if any(node.attrs.get(a) for a in ("activation", "trans_a",
                                           "trans_b")):
            return None
        weight = node.inputs[1]
        if weight not in graph.initializers \
                or graph.spec(weight).rank != 2:
            return None
        if weight in ctx.updated_params:
            return None  # a merged parameter cannot take per-branch updates
        if len(consumers.get(weight, [])) != 1:
            return None  # weight read elsewhere (e.g. by the backward pass)
        out = node.outputs[0]
        users = consumers.get(out, [])
        if len(users) == 1 and users[0].op_type == "bias_add" \
                and out not in outputs:
            bias_node = users[0]
            bias = bias_node.inputs[1]
            axis_ok = int(bias_node.attrs.get("axis", 1)) \
                == graph.spec(out).rank - 1
            if axis_ok and bias in graph.initializers \
                    and bias not in ctx.updated_params \
                    and len(consumers.get(bias, [])) == 1:
                return node, bias_node
        return node, None

    # -- rewriting --------------------------------------------------------

    @staticmethod
    def _merge_all(graph: Graph,
                   groups: list[list[tuple[Node, Node | None]]]) -> None:
        """Merge every group; branch removal and consumer renaming are
        applied to the node list once, after the last group."""
        b = GraphBuilder(graph=graph)
        original = len(graph.nodes)
        boundary = set(graph.inputs) | set(graph.outputs)
        rename: dict[str, str] = {}
        dropped: list[Node] = []
        for group in groups:
            matmuls = [mm for mm, _ in group]
            biases = [bias for _, bias in group]
            x = matmuls[0].inputs[0]
            x = rename.get(x, x)  # an earlier group's output feeds this one
            weights = [graph.initializers[mm.inputs[1]] for mm in matmuls]
            w_cat = b.initializer(
                f"{matmuls[0].inputs[1]}.qkv", _concatenate(weights, 1))
            merged = b.matmul(x, w_cat)
            if biases[0] is not None:
                b_cat = b.initializer(
                    f"{biases[0].inputs[1]}.qkv",
                    _concatenate(
                        [graph.initializers[bn.inputs[1]] for bn in biases],
                        0))
                merged = b.bias_add(merged, b_cat,
                                    axis=graph.spec(merged).rank - 1)

            rank = graph.spec(merged).rank
            offset = 0
            for (mm, bias), weight in zip(group, weights):
                width = weight.shape[1]
                piece = b.slice(merged, rank - 1, offset, offset + width)
                offset += width
                tail = bias.outputs[0] if bias is not None else mm.outputs[0]
                rename[tail] = piece

            # The branches' outputs and sole-consumed parameters are gone
            # from the graph as of this merge. Forget them now, not at the
            # end, so the next group draws the names it always drew (node
            # and value names are part of ``Program.fingerprint()``).
            gone = [node for branch in group for node in branch
                    if node is not None]
            values = [node.outputs[0] for node in gone]
            values += [node.inputs[1] for node in gone
                       if node.inputs[1] not in boundary]
            for name in values:
                del graph.values[name]
                graph.initializers.pop(name, None)
                graph.trainable.discard(name)
            b.release(values=values, nodes=[node.name for node in gone])
            dropped += gone

        # Only the nodes that predate the merges read the old names (a
        # merged node may have re-drawn a forgotten one for itself).
        for node in graph.nodes[:original]:
            node.inputs = tuple(rename.get(i, i) for i in node.inputs)
        graph.outputs = [rename.get(o, o) for o in graph.outputs]
        graph.remove_nodes(dropped)
