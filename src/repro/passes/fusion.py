"""Operator fusion (paper §3.2).

Three fusions are implemented:

* **Physical bias/activation fusion** — ``conv2d/matmul -> bias_add ->
  activation`` collapses into a single node carrying the bias as a third
  input and an ``activation`` attribute. This is what SNPE/TensorRT-class
  backends do; our executor kernels honour the fused form directly.
* **Gradient-mask fusion** — the backward mirror of the above:
  ``conv2d_dx -> mask_mul`` (the gradient of a conv whose input was a
  relu-family activation, times that activation's bit mask) collapses into
  ``conv2d_dx(g, w, mask)``, the packed ``uint8`` mask riding as an
  optional third input exactly as the bias does on ``conv2d``. The kernel
  multiplies in its own output buffer, so the unmasked gradient never
  exists beside its masked copy — on ``mcunet_micro`` sparse that pair was
  72% of the peak — and one instruction per activation leaves the step. A
  ``mask_mul`` after anything else (the ``add`` joining two gradient
  branches, a pooling adjoint's ``broadcast_to``) stays: it already writes
  over its dying gradient in the slab, which used to be the common case
  and is now the minority one.
* **Elementwise group annotation** — runs of elementwise ops with
  single-consumer intermediates are tagged with a shared fusion-group id in
  ``graph.metadata["fusion_groups"]``. Execution is unchanged; the device
  cost model charges one kernel launch per group and skips intermediate
  memory traffic, modelling codegen'd fused kernels.
"""

from __future__ import annotations

from ..ir import Graph
from ..ir.node import Node
from .base import Pass, PassContext, PassResult

_FUSABLE_ACTIVATIONS = {"relu", "relu6", "gelu"}
_PRODUCERS = {"conv2d", "matmul"}

_ELEMENTWISE = {
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "abs", "sign",
    "step", "relu", "relu6", "gelu", "sigmoid", "tanh", "silu", "maximum",
    "minimum", "equal", "bias_add", "range_mask", "mask_mul", "silu_grad",
    "gelu_grad", "swiglu",
}


class BiasActivationFusionPass(Pass):
    """Fuse producer -> bias_add -> activation chains into one node."""

    name = "fuse_bias_act"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        # One sweep with one consumer map. A fusion only consumes the
        # sole-consumer bias_add / activation behind its own producer, so
        # fusions never enable or block one another; the single map entry
        # a fusion does change (the bias vector is now read by the fused
        # node) is patched in ``_apply``.
        consumers = graph.consumer_map()
        outputs = set(graph.outputs)
        absorbed: list[Node] = []
        fused = 0
        for node in graph.nodes:
            if node.op_type not in _PRODUCERS:
                continue
            chain = self._match_chain(graph, node, consumers, outputs)
            if chain is None:
                continue
            self._apply(node, chain, consumers)
            absorbed.extend(n for n in chain if n is not None)
            fused += 1
        if fused:
            graph.remove_nodes(absorbed)
            graph._drop_orphan_values()
        return PassResult(changed=fused > 0, stats={"fused": fused})

    @staticmethod
    def _match_chain(graph: Graph, node: Node, consumers, outputs):
        """Return (bias_node, act_node | None) when fusable."""
        if node.attrs.get("activation") not in (None, "none"):
            return None
        out = node.outputs[0]
        users = consumers.get(out, [])
        if out in outputs or len(users) != 1:
            return None
        bias = users[0]
        act = None
        if bias.op_type == "bias_add" and len(node.inputs) == 2:
            expected_axis = 1 if node.op_type == "conv2d" else (
                len(graph.spec(out).shape) - 1)
            if int(bias.attrs.get("axis", 1)) != expected_axis:
                return None
            bias_out = bias.outputs[0]
            bias_users = consumers.get(bias_out, [])
            if bias_out not in outputs and len(bias_users) == 1 \
                    and bias_users[0].op_type in _FUSABLE_ACTIVATIONS:
                act = bias_users[0]
        elif bias.op_type in _FUSABLE_ACTIVATIONS and len(node.inputs) == 3:
            act, bias = bias, None
        else:
            return None
        return bias, act

    @staticmethod
    def _apply(node: Node, chain, consumers) -> None:
        """Fold ``chain`` into ``node``; the absorbed nodes stay in the
        graph until the caller removes them in one batch."""
        bias, act = chain
        tail = node
        if bias is not None:
            vector = bias.inputs[1]
            node.inputs = node.inputs + (vector,)
            consumers[vector] = [node if user is bias else user
                                 for user in consumers[vector]]
            tail = bias
        if act is not None:
            node.attrs = {**node.attrs, "activation": act.op_type}
            tail = act
        # The fused node adopts the tail's output name so downstream
        # consumers stay untouched.
        node.outputs = (tail.outputs[0],)


class GradientMaskFusionPass(Pass):
    """Fold ``conv2d_dx -> mask_mul`` into ``conv2d_dx(g, w, mask)``."""

    name = "fuse_grad_mask"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        candidates = [node for node in graph.nodes
                      if node.op_type == "conv2d_dx" and len(node.inputs) == 2]
        #: id(mask_mul node) -> the conv2d_dx that absorbs it
        fused: dict[int, Node] = {}
        # (no conv, no consumer map: half the zoo is transformers)
        consumers = graph.consumer_map() if candidates else {}
        outputs = set(graph.outputs)
        for node in candidates:
            out = node.outputs[0]
            users = consumers.get(out, [])
            # (a float value read by a mask_mul is its gradient operand)
            if out in outputs or len(users) != 1 \
                    or users[0].op_type != "mask_mul":
                continue
            tail = users[0]
            node.inputs = node.inputs + (tail.inputs[1],)
            node.outputs = tail.outputs
            fused[id(tail)] = node
        if fused:
            # The fused node reads the mask, so it takes the mask_mul's
            # place in the (topologically ordered) node list.
            moved = {id(node) for node in fused.values()}
            graph.nodes = [fused.get(id(node), node) for node in graph.nodes
                           if id(node) not in moved]
            graph._drop_orphan_values()
        return PassResult(changed=bool(fused), stats={"fused": len(fused)})


class ElementwiseGroupPass(Pass):
    """Tag chains of elementwise ops as virtual fused kernels."""

    name = "fuse_elementwise"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        consumers = graph.consumer_map()
        outputs = set(graph.outputs)
        groups: dict[str, int] = {}
        gid = 0
        assigned: set[str] = set()
        for node in graph.topological_order():
            if node.op_type not in _ELEMENTWISE or node.name in assigned:
                continue
            chain = [node]
            cursor = node
            while True:
                out = cursor.outputs[0]
                users = consumers.get(out, [])
                if out in outputs or len(users) != 1:
                    break
                nxt = users[0]
                if nxt.op_type not in _ELEMENTWISE or nxt.name in assigned:
                    break
                chain.append(nxt)
                cursor = nxt
            if len(chain) >= 2:
                for member in chain:
                    groups[member.name] = gid
                    assigned.add(member.name)
                gid += 1
        graph.metadata["fusion_groups"] = groups
        return PassResult(
            changed=bool(groups),
            stats={"groups": gid, "nodes_grouped": len(groups)},
        )
