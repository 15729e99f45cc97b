"""Constant folding: precompute subgraphs that depend only on frozen data.

Because the compiler knows which parameters the scheme updates (paper §3.2,
"PockEngine obtains the complete training graph during compile-time thus
knowing the updating information of each parameter"), anything computed
purely from *frozen* initializers can be evaluated once at compile time —
e.g. scale constants, masks, or frozen-weight transforms.
"""

from __future__ import annotations

from ..ir import Graph
from ..ir.ops import get_schema
from ..kernels import run_op
from .base import Pass, PassContext, PassResult

#: do not materialise folded tensors above this size (bytes)
DEFAULT_FOLD_LIMIT = 4 << 20


class ConstantFoldingPass(Pass):
    name = "constant_folding"

    def __init__(self, size_limit: int = DEFAULT_FOLD_LIMIT) -> None:
        self.size_limit = size_limit

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        frozen = {
            name for name in graph.initializers
            if name not in ctx.updated_params
        }
        # Nodes are kept in topological order, so the first sweep already
        # folds every chain; a later sweep only finds work on a graph that
        # was not. Each sweep removes what it folded in one batch.
        folded = 0
        while True:
            batch = []
            for node in graph.nodes:
                if get_schema(node.op_type).inplace:
                    continue
                if not node.inputs:
                    continue
                if not all(inp in frozen for inp in node.inputs):
                    continue
                out_bytes = sum(
                    graph.spec(o).nbytes for o in node.outputs
                )
                if out_bytes > self.size_limit:
                    continue
                arrays = [graph.initializers[i] for i in node.inputs]
                results = run_op(node.op_type, arrays, node.attrs)
                for out, value in zip(node.outputs, results):
                    graph.initializers[out] = value
                    frozen.add(out)
                batch.append(node)
            if not batch:
                break
            graph.remove_nodes(batch)
            folded += len(batch)
        if folded:
            graph._drop_orphan_values()
        return PassResult(changed=folded > 0, stats={"folded": folded})
