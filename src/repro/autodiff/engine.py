"""Reverse-mode differentiation over IR graphs, performed at compile time.

:func:`build_backward` extends a forward graph in place with the nodes that
compute ``d loss / d t`` for every requested tensor ``t``. Two structural
properties fall out of the construction and are load-bearing for the paper's
claims:

* **Backward stops at the deepest trainable tensor.** Gradient flow is only
  materialised for values on a path between a ``wrt`` tensor and the loss,
  so when only the last blocks are trainable, no ``dX`` chain is emitted for
  the early layers (paper Figure 5: "backpropagation stops here").
* **Channel-sparse weight gradients slice the saved activation**, so the
  large input feature map is not retained for backward (paper Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import AutodiffError, CompileError
from ..ir import Graph, GraphBuilder
from .rules import GRAD_RULES, NON_DIFFERENTIABLE, GradientContext


@dataclass
class BackwardResult:
    """Outcome of :func:`build_backward`."""

    graph: Graph
    #: requested tensor name -> gradient value name
    grads: dict[str, str] = field(default_factory=dict)
    #: weight name -> k for channel-sparse gradients (subset of requested)
    slice_k: dict[str, int] = field(default_factory=dict)


def build_backward(
    graph: Graph,
    loss: str,
    wrt: Iterable[str],
    slice_k: dict[str, int] | None = None,
) -> BackwardResult:
    """Extend ``graph`` with gradient computation for ``wrt`` tensors.

    Args:
        graph: forward graph; modified in place (clone first if needed).
        loss: name of the scalar (or any-shape) loss value.
        wrt: tensors whose gradients are needed (parameters and/or inputs).
        slice_k: optional channel-sparse map ``weight name -> k`` (paper's
            sub-layer sparse backpropagation).

    Returns:
        A :class:`BackwardResult` with the gradient value name per tensor.

    Raises:
        AutodiffError: when a needed op has no gradient rule, or a requested
            tensor cannot influence the loss.
        CompileError: when a ``slice_k`` parameter reaches the loss through
            a reader that cannot slice its gradient (anything but a
            ``matmul`` / ``conv2d`` taking it as the weight): the sliced
            update would meet a full-shape gradient.
    """
    wrt = list(dict.fromkeys(wrt))
    slice_k = dict(slice_k or {})
    for name in wrt:
        if name not in graph.values:
            raise AutodiffError(f"unknown tensor in wrt: {name!r}")
    if loss not in graph.values:
        raise AutodiffError(f"unknown loss value {loss!r}")
    for name in slice_k:
        if name not in wrt:
            raise AutodiffError(
                f"slice_k given for {name!r} which is not in wrt"
            )

    order = graph.topological_order()

    # Forward propagation of "requires gradient".
    requires: set[str] = set(wrt)
    for node in order:
        if node.op_type in NON_DIFFERENTIABLE:
            continue
        if any(inp in requires for inp in node.inputs):
            requires.update(node.outputs)

    if loss not in requires:
        raise AutodiffError(
            "loss does not depend on any requested tensor; nothing to train"
        )

    builder = GraphBuilder(graph=graph)
    ctx = GradientContext(builder, slice_k=slice_k)

    # Seed: d loss / d loss = 1.
    loss_spec = graph.spec(loss)
    seed = builder.initializer(
        builder.fresh("grad_seed"),
        np.ones(loss_spec.shape, dtype=loss_spec.dtype.np),
    )

    # Accumulated gradient per value (summed lazily on second contribution).
    grad_of: dict[str, str] = {loss: seed}

    for node in reversed(order):
        if node.op_type in NON_DIFFERENTIABLE:
            continue
        if not any(inp in requires for inp in node.inputs):
            continue
        out_grads = [grad_of.get(out) for out in node.outputs]
        if all(g is None for g in out_grads):
            continue
        if len(node.outputs) != 1:
            raise AutodiffError(
                f"op {node.op_type!r} has multiple outputs; unsupported"
            )
        rule = GRAD_RULES.get(node.op_type)
        if rule is None:
            raise AutodiffError(f"no gradient rule for op {node.op_type!r}")
        input_grads = rule(ctx, node, out_grads[0])
        if len(input_grads) != len(node.inputs):
            raise AutodiffError(
                f"rule for {node.op_type!r} returned {len(input_grads)} "
                f"gradients for {len(node.inputs)} inputs"
            )
        for at, (inp, grad) in enumerate(zip(node.inputs, input_grads)):
            if grad is None or inp not in requires:
                continue
            if inp in slice_k and not (
                    at == 1 and node.op_type in ("matmul", "conv2d")):
                raise CompileError(
                    f"sub-layer update of {inp!r} (first {slice_k[inp]} "
                    f"input channels) needs every reader on a backward path "
                    f"to slice its gradient, but {node.op_type} node "
                    f"{node.name!r} reads it whole")
            # Mixed precision: gradients live in the dtype of the value they
            # differentiate (fp16 models backpropagate in fp16).
            want = graph.spec(inp).dtype
            if graph.spec(grad).dtype != want:
                grad = builder.emit("cast", [grad], {"dtype": want.value})
            if inp in grad_of:
                grad_of[inp] = builder.add(grad_of[inp], grad)
            else:
                grad_of[inp] = grad

    result = BackwardResult(graph=graph, slice_k=dict(slice_k))
    for name in wrt:
        grad = grad_of.get(name)
        if grad is None:
            raise AutodiffError(
                f"tensor {name!r} does not influence the loss"
            )
        result.grads[name] = grad
        builder.mark_output(grad)
    return result
