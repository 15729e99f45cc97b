"""The compile-path bodies the single-sweep rewrite replaced, kept verbatim.

Each function or class below is the previous implementation of a piece of
the compiler, copied without edits except where noted, so that
``tests/test_compile_single_sweep.py`` can require the rewritten code to
produce the *same graph, schedule and plan* while doing less work:

* ``ReferenceBiasActivationFusionPass`` — rebuilds the consumer map and
  restarts from node 0 after every fusion (``Graph.remove_node`` is gone;
  its one-line body, ``graph.nodes.remove(node)``, is inlined);
* ``ReferenceCommonSubexpressionEliminationPass`` — sweeps until a round
  removes nothing;
* ``ReferenceParallelLinearFusionPass`` — rescans for one group at a time,
  with a new builder, a node-list rebuild and an orphan sweep per merge;
* ``ReferenceConstantFoldingPass`` — ``list.remove`` per folded node;
* ``ReferenceAlgebraicRewritePass`` — orphan sweep after every round;
* ``reference_greedy_schedule`` — scores every ready node through closures
  over ``graph.spec(...).nbytes``.

``swap_in_references`` installs any subset of them on the compile path.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

import numpy as np

from repro.ir import Graph, GraphBuilder
from repro.ir.node import Node
from repro.ir.ops import get_schema
from repro.kernels import run_op
from repro.passes import (AlgebraicRewritePass, BiasActivationFusionPass,
                          ConstantFoldingPass, ParallelLinearFusionPass)
from repro.passes.base import Pass, PassContext, PassResult
from repro.passes.constant_folding import FOLD_LIMIT
from repro.passes.fusion import _PRODUCERS
from repro.passes.parallel_fusion import MIN_GROUP


class ReferenceBiasActivationFusionPass(BiasActivationFusionPass):
    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        fused = 0
        changed = True
        while changed:
            changed = False
            consumers = graph.consumer_map()
            outputs = set(graph.outputs)
            for node in list(graph.nodes):
                if node.op_type not in _PRODUCERS:
                    continue
                if len(node.inputs) == 3:
                    pass  # bias already fused; may still take an activation
                chain = self._match_chain(graph, node, consumers, outputs)
                if chain is None:
                    continue
                self._apply(graph, node, chain)
                fused += 1
                changed = True
                break  # maps are stale; rebuild
        return PassResult(changed=fused > 0, stats={"fused": fused})


    @staticmethod
    def _apply(graph: Graph, node: Node, chain) -> None:
        bias, act = chain
        inputs = list(node.inputs)
        attrs = dict(node.attrs)
        tail = node
        if bias is not None:
            inputs.append(bias.inputs[1])
            tail = bias
            graph.nodes.remove(bias)
        if act is not None:
            attrs["activation"] = act.op_type
            tail = act
            graph.nodes.remove(act)
        final_out = tail.outputs[0]
        # The fused node adopts the tail's output name so downstream
        # consumers stay untouched.
        old_out = node.outputs[0]
        node.inputs = tuple(inputs)
        node.attrs = attrs
        node.outputs = (final_out,)
        if old_out != final_out:
            graph.values.pop(old_out, None)
        graph._drop_orphan_values()



class ReferenceCommonSubexpressionEliminationPass(Pass):
    name = "cse"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        removed_total = 0
        while True:
            removed = self._one_round(graph)
            removed_total += removed
            if not removed:
                break
        return PassResult(changed=removed_total > 0,
                          stats={"removed": removed_total})

    @staticmethod
    def _one_round(graph: Graph) -> int:
        seen: dict[tuple, tuple[str, ...]] = {}
        replace: dict[str, str] = {}
        survivors = []
        removed = 0
        for node in graph.topological_order():
            node.inputs = tuple(replace.get(i, i) for i in node.inputs)
            if get_schema(node.op_type).inplace:
                survivors.append(node)
                continue
            key = (node.op_type, node.inputs, node.attr_key())
            if key in seen:
                canonical = seen[key]
                for old, new in zip(node.outputs, canonical):
                    replace[old] = new
                removed += 1
                continue
            seen[key] = node.outputs
            survivors.append(node)
        if removed:
            graph.nodes = survivors
            graph.outputs = [replace.get(o, o) for o in graph.outputs]
            graph._drop_orphan_values()
        return removed


class ReferenceParallelLinearFusionPass(ParallelLinearFusionPass):
    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        merged_groups = 0
        merged_branches = 0
        while True:
            group = self._find_group(graph, ctx)
            if group is None:
                break
            self._merge(graph, group)
            merged_groups += 1
            merged_branches += len(group)
        if merged_groups:
            graph.dead_code_elimination()
            graph.nodes = graph.topological_order()
        return PassResult(
            changed=merged_groups > 0,
            stats={"groups": merged_groups, "branches": merged_branches},
        )

    # -- matching ---------------------------------------------------------

    def _find_group(self, graph: Graph, ctx: PassContext
                    ) -> list[tuple[Node, Node | None]] | None:
        """Return the first mergeable list of (matmul, bias_add | None)."""
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
        for group in candidates.values():
            if len(group) >= MIN_GROUP:
                return group
        return None


    @staticmethod
    def _merge(graph: Graph, group: list[tuple[Node, Node | None]]) -> None:
        b = GraphBuilder(graph=graph)
        matmuls = [mm for mm, _ in group]
        biases = [bias for _, bias in group]
        x = matmuls[0].inputs[0]
        weights = [graph.initializers[mm.inputs[1]] for mm in matmuls]
        w_cat = b.initializer(
            f"{matmuls[0].inputs[1]}.qkv",
            np.concatenate(weights, axis=1))
        merged = b.matmul(x, w_cat)
        if biases[0] is not None:
            b_cat = b.initializer(
                f"{biases[0].inputs[1]}.qkv",
                np.concatenate(
                    [graph.initializers[bn.inputs[1]] for bn in biases]))
            merged = b.bias_add(merged, b_cat,
                                axis=graph.spec(merged).rank - 1)

        rank = graph.spec(merged).rank
        rename: dict[str, str] = {}
        offset = 0
        for (mm, bias), weight in zip(group, weights):
            width = weight.shape[1]
            piece = b.slice(merged, rank - 1, offset, offset + width)
            offset += width
            tail = bias.outputs[0] if bias is not None else mm.outputs[0]
            rename[tail] = piece

        drop = {mm.name for mm in matmuls}
        drop |= {bias.name for bias in biases if bias is not None}
        graph.nodes = [n for n in graph.nodes if n.name not in drop]
        for node in graph.nodes:
            node.inputs = tuple(rename.get(i, i) for i in node.inputs)
        graph.outputs = [rename.get(o, o) for o in graph.outputs]
        graph._drop_orphan_values()


class ReferenceConstantFoldingPass(ConstantFoldingPass):
    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        frozen = {
            name for name in graph.initializers
            if name not in ctx.updated_params
        }
        folded = 0
        changed = True
        while changed:
            changed = False
            for node in list(graph.nodes):
                if get_schema(node.op_type).inplace:
                    continue
                if not node.inputs:
                    continue
                if not all(inp in frozen for inp in node.inputs):
                    continue
                out_bytes = sum(
                    graph.spec(o).nbytes for o in node.outputs
                )
                if out_bytes > FOLD_LIMIT:
                    continue
                arrays = [graph.initializers[i] for i in node.inputs]
                results = run_op(node.op_type, arrays, node.attrs)
                for out, value in zip(node.outputs, results):
                    graph.initializers[out] = value
                    frozen.add(out)
                graph.nodes.remove(node)
                folded += 1
                changed = True
        if folded:
            graph._drop_orphan_values()
        return PassResult(changed=folded > 0, stats={"folded": folded})


class ReferenceAlgebraicRewritePass(AlgebraicRewritePass):
    def _one_round(self, graph: Graph) -> int:
        changed = super()._one_round(graph)
        if changed:
            graph._drop_orphan_values()
        return changed


def reference_greedy_schedule(graph: Graph) -> list[Node]:
    """Greedy minimum-live-bytes list scheduling (see module docstring)."""
    nodes = graph.nodes
    producers = graph.producer_map()
    index = {node.name: i for i, node in enumerate(nodes)}

    # Dataflow dependencies.
    deps: dict[str, set[str]] = {node.name: set() for node in nodes}
    dependents: dict[str, list[str]] = defaultdict(list)
    for node in nodes:
        for inp in node.inputs:
            producer = producers.get(inp)
            if producer is not None and producer.name != node.name:
                deps[node.name].add(producer.name)
                dependents[producer.name].append(node.name)

    # Hazards: apply(param) must follow all other readers of param.
    readers: dict[str, list[Node]] = defaultdict(list)
    for node in nodes:
        for inp in node.inputs:
            if inp in graph.initializers:
                readers[inp].append(node)
    for node in nodes:
        if not get_schema(node.op_type).inplace:
            continue
        param = node.inputs[0]
        for reader in readers[param]:
            if reader.name != node.name:
                deps[node.name].add(reader.name)
                dependents[reader.name].append(node.name)

    # Remaining-consumer counts for freed-bytes scoring.
    remaining: dict[str, int] = defaultdict(int)
    for node in nodes:
        for inp in node.inputs:
            remaining[inp] += 1
    persistent = set(graph.initializers) | set(graph.inputs) \
        | set(graph.outputs)
    alias = {
        out for node in nodes if get_schema(node.op_type).inplace
        for out in node.outputs
    }

    def alloc_bytes(node: Node) -> int:
        return sum(
            graph.spec(o).nbytes for o in node.outputs if o not in alias
        )

    def freed_bytes(node: Node) -> int:
        freed = 0
        for inp in set(node.inputs):
            if inp in persistent:
                continue
            if remaining[inp] == node.inputs.count(inp):
                freed += graph.spec(inp).nbytes
        return freed

    pending = {name: len(d) for name, d in deps.items()}
    by_name = {node.name: node for node in nodes}
    ready = sorted(
        (name for name, count in pending.items() if count == 0),
        key=lambda n: index[n],
    )
    def score(n: str) -> tuple[int, int]:
        return (alloc_bytes(by_name[n]) - freed_bytes(by_name[n]), index[n])

    schedule: list[Node] = []
    live = held = 0
    while ready:
        best = min(ready, key=score)
        # The one rule added since the closure-scored body was replaced
        # (kept here in its naive form): a pick that would lift memory
        # above anything held between steps so far yields to a ready node
        # that allocates nothing and frees something.
        free = [n for n in ready if alloc_bytes(by_name[n]) == 0
                and freed_bytes(by_name[n]) > 0]
        if free and live + alloc_bytes(by_name[best]) > held:
            best = min(free, key=score)
        live += score(best)[0]
        held = max(held, live)
        ready.remove(best)
        node = by_name[best]
        schedule.append(node)
        for inp in node.inputs:
            remaining[inp] -= 1
        for dep in dependents[best]:
            pending[dep] -= 1
            if pending[dep] == 0:
                ready.append(dep)
    if len(schedule) != len(nodes):
        # A cycle would have been caught earlier; this is a hazard conflict.
        raise ValueError("memory-aware scheduling failed to order all nodes")
    return schedule



#: name -> (module, attribute, replacement) for ``swap_in_references``
REFERENCES = {
    "fuse_bias_act": ("repro.runtime.compiler", "BiasActivationFusionPass",
                      ReferenceBiasActivationFusionPass),
    "cse": ("repro.runtime.compiler", "CommonSubexpressionEliminationPass",
            ReferenceCommonSubexpressionEliminationPass),
    "parallel_fusion": ("repro.runtime.compiler", "ParallelLinearFusionPass",
                        ReferenceParallelLinearFusionPass),
    "constant_folding": ("repro.runtime.compiler", "ConstantFoldingPass",
                         ReferenceConstantFoldingPass),
    "rewrite": ("repro.runtime.compiler", "AlgebraicRewritePass",
                ReferenceAlgebraicRewritePass),
    "greedy_schedule": ("repro.passes.reorder", "_greedy_schedule",
                        reference_greedy_schedule),
}


def swap_in_references(monkeypatch, names=None) -> None:
    """Put the named references (default: all) on the compile path."""
    for name in REFERENCES if names is None else names:
        module, attr, replacement = REFERENCES[name]
        monkeypatch.setattr(importlib.import_module(module), attr,
                            replacement)
