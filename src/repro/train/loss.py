"""Loss functions, built from inference primitives inside the graph.

Losses are composites (log_softmax + pick + reductions), so autodiff
needs no loss-specific gradient rules — the paper's shared-op-set property
extends all the way to the objective. A label is an index: ``pick`` reads
one log-probability per row, and its adjoint folds into ``log_softmax``'s
(:mod:`repro.autodiff.rules`), so the loss region of a training step
holds the logits and one gradient of their size, nothing else.
"""

from __future__ import annotations

from ..errors import CompileError
from ..ir import DType, GraphBuilder


def softmax_cross_entropy(b: GraphBuilder, logits: str, labels: str) -> str:
    """Mean cross-entropy between ``logits [..., C]`` and int ``labels [...]``.

    Works for classification (``[N, C]`` vs ``[N]``) and language modelling
    (``[N, T, V]`` vs ``[N, T]``) alike.
    """
    logits_shape = b.shape(logits)
    labels_shape = b.shape(labels)
    if logits_shape[:-1] != labels_shape:
        raise CompileError(
            f"labels shape {labels_shape} must equal logits batch dims "
            f"{logits_shape[:-1]}"
        )
    logp = b.emit("log_softmax", [logits], {"axis": len(logits_shape) - 1})
    return b.reduce_mean(b.neg(b.emit("pick", [logp, labels])))


def mean_squared_error(b: GraphBuilder, pred: str, target: str) -> str:
    """Mean squared error over all elements."""
    diff = b.sub(pred, target)
    return b.reduce_mean(b.mul(diff, diff))


def add_loss(b: GraphBuilder, kind: str, output: str,
             label_name: str = "labels") -> tuple[str, str]:
    """Append a loss to a forward graph; returns (labels input, loss value).

    Args:
        b: builder wrapping the graph being extended.
        kind: ``"softmax_ce"`` or ``"mse"``.
        output: name of the model output (logits or regression value).
        label_name: name for the created labels/targets input.
    """
    out_shape = b.shape(output)
    if kind == "softmax_ce":
        labels = b.input(label_name, out_shape[:-1], DType.INT64)
        loss = softmax_cross_entropy(b, output, labels)
    elif kind == "mse":
        labels = b.input(label_name, out_shape, DType.FLOAT32)
        loss = mean_squared_error(b, output, labels)
    else:
        raise CompileError(f"unknown loss kind {kind!r}")
    b.mark_output(loss)
    return labels, loss
