"""Gradient rules the compiler replaced, kept verbatim.

* **Float masks.** Until the backward pass learned to keep one *bit* per
  element of the activation's output (``range_mask`` / ``mask_mul``), the
  ``relu`` / ``relu6`` rules built float32 tensors of 0.0 / 1.0 from the
  activation's *input*: ``step(x)`` and ``step(x) * step(6 - x)``.
  ``tests/test_activation_masks.py`` requires the bit-mask rules to train
  to the *same bytes* while holding less memory;
  ``swap_in_float_masks`` installs the old rules on the compile path.
* **Primitive activation chains.** Until a smooth activation's adjoint
  was one op reading the activation's input (``silu_grad`` /
  ``gelu_grad``), SiLU was two forward primitives, ``x * sigmoid(x)``,
  differentiated by the ``mul`` and ``sigmoid`` rules, and GELU's rule
  emitted its derivative as a chain of elementwise primitives.
  ``tests/test_activation_adjoints.py`` holds the one-op adjoints to the
  same bytes and less memory; ``swap_in_primitive_activations`` installs
  the old forms.
* **The SwiGLU gate as two ops.** Until ``swiglu(gate, up)`` was one op
  whose adjoint reads ``gate`` and ``up``, the Llama FFN traced
  ``mul(silu(gate), up)``, and the ``mul`` rule's adjoint for ``up`` read
  the ``silu`` output, which the forward held for the backward.
  ``swap_in_primitive_swiglu`` traces it that way again.

The function bodies are the previous ones, copied without edits.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.rules import GRAD_RULES
from repro.frontend.functional import Sym


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


def _gelu_grad(ctx, node, g):
    # d/dx of the tanh-approximated GELU, expressed as elementwise primitives
    # (the fusion pass later collapses this chain for the cost model).
    x = node.inputs[0]
    b = ctx.b
    c_half = ctx.scalar(0.5)
    c_a = ctx.scalar(float(np.sqrt(2.0 / np.pi)))
    c_b = ctx.scalar(0.044715)
    c_3b = ctx.scalar(3 * 0.044715)
    one = ctx.scalar(1.0)
    x2 = b.mul(x, x)
    x3 = b.mul(x2, x)
    inner = b.mul(c_a, b.add(x, b.mul(c_b, x3)))
    t = b.emit("tanh", [inner])
    one_plus_t = b.add(one, t)
    sech2 = b.sub(one, b.mul(t, t))
    dinner = b.mul(c_a, b.add(one, b.mul(c_3b, x2)))
    left = b.mul(c_half, one_plus_t)
    right = b.mul(b.mul(b.mul(c_half, x), sech2), dinner)
    return [b.mul(g, b.add(left, right))]


def _silu_as_primitives(self: Sym) -> Sym:
    # the Llama FFN's gate: silu = gated * gated.sigmoid()
    return self * self.sigmoid()


def _swiglu_as_primitives(self: Sym, up: Sym) -> Sym:
    # GatedFeedForward.forward's gate: self.gate(x).silu() * self.up(x)
    return self.silu() * up


def swap_in_primitive_swiglu(monkeypatch) -> None:
    """Trace the SwiGLU gate as ``mul(silu(gate), up)``, for this test."""
    monkeypatch.setattr(Sym, "swiglu", _swiglu_as_primitives)


def swap_in_primitive_activations(monkeypatch) -> None:
    """Trace SiLU as ``x * sigmoid(x)`` (the SwiGLU gate as
    ``mul(silu(gate), up)`` around it) and differentiate GELU by its
    primitive chain, for this test."""
    monkeypatch.setitem(GRAD_RULES, "gelu", _gelu_grad)
    monkeypatch.setattr(Sym, "silu", _silu_as_primitives)
    swap_in_primitive_swiglu(monkeypatch)
