"""Backend/kernel switching: Winograd for frozen convolutions (paper §3.2).

Winograd convolution trades a per-weight transform for 2.25x fewer
multiplies. Training frameworks never use it because the transform must be
redone whenever weights change — but under sparse backpropagation most
convolutions are *frozen*, so the transform is paid once at compile time.
This pass binds every eligible frozen conv to the Winograd algorithm for
the *target device*: the device cost model (:mod:`repro.devices.cost`)
prices the multiply reduction. The host executes the conv direct — an
F(2x2,3x3) kernel here made the whole numpy step slower, so the
annotation changes no byte.
"""

from __future__ import annotations

from ..ir import Graph
from .base import Pass, PassContext, PassResult


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


class WinogradSelectionPass(Pass):
    name = "winograd"

    def run(self, graph: Graph, ctx: PassContext) -> PassResult:
        selected = 0
        for node in graph.nodes:
            if node.op_type != "conv2d":
                continue
            weight = node.inputs[1]
            if weight not in graph.initializers:
                continue
            if weight in ctx.updated_params:
                continue  # weights change every step: transform not amortisable
            w_spec = graph.spec(weight)
            if w_spec.shape[2:] != (3, 3):
                continue
            if _pair(node.attrs.get("stride", 1)) != (1, 1):
                continue
            if int(node.attrs.get("groups", 1)) != 1:
                continue
            node.attrs["algo"] = "winograd"
            selected += 1
        return PassResult(changed=selected > 0,
                          stats={"winograd_convs": selected})
