"""The float-mask ``relu`` / ``relu6`` gradient rules, kept verbatim.

Until the backward pass learned to keep one *bit* per element of the
activation's output (``range_mask`` / ``mask_mul``), these two rules built
float32 tensors of 0.0 / 1.0 from the activation's *input*:
``step(x)`` and ``step(x) * step(6 - x)``. They are the previous bodies of
``repro.autodiff.rules._relu_grad`` / ``_relu6_grad``, copied without
edits, so that ``tests/test_activation_masks.py`` can require the bit-mask
rules to train to the *same bytes* while holding less memory.

``swap_in_float_masks`` installs them on the compile path.
"""

from __future__ import annotations

from repro.autodiff.rules import GRAD_RULES


def _relu_grad(ctx, node, g):
    mask = ctx.b.emit("step", [node.inputs[0]])
    return [ctx.b.mul(g, mask)]


def _relu6_grad(ctx, node, g):
    x = node.inputs[0]
    below = ctx.b.emit("step", [x])
    headroom = ctx.b.sub(ctx.scalar(6.0), x)
    above = ctx.b.emit("step", [headroom])
    return [ctx.b.mul(g, ctx.b.mul(below, above))]


FLOAT_MASK_RULES = {"relu": _relu_grad, "relu6": _relu6_grad}


def swap_in_float_masks(monkeypatch) -> None:
    """Differentiate ``relu`` / ``relu6`` the old way for this test."""
    for op, reference in FLOAT_MASK_RULES.items():
        monkeypatch.setitem(GRAD_RULES, op, reference)
