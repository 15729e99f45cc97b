"""A smooth activation's adjoint is one op that reads the activation's input.

``silu`` differentiates into ``silu_grad(g, x)`` and ``gelu`` into
``gelu_grad(g, x)``; the SwiGLU gate ``swiglu(gate, up) = silu(gate) * up``
into ``silu_grad(g·up, gate)`` and ``swiglu(gate, g)``. The forms they
replaced — SiLU traced as ``x * sigmoid(x)`` under the ``mul`` /
``sigmoid`` rules, GELU's rule as a chain of elementwise primitives, the
gate traced as ``mul(silu(gate), up)`` — live on in
``tests/reference_autodiff.py``; this file requires, against them,

* the same bytes: loss of four steps and every mutable state tensor, on
  ``llama_micro`` and ``bert_micro``, sparse and full, at batch 1, 2 and 8;
* less memory: the plan's ``peak_transient_bytes`` strictly lower on every
  one of them, and no more instructions — except the SwiGLU gate against
  its two-op form, where the compile that recomputes a held FFN activation
  for the backward (:mod:`repro.passes.recompute`) gives the two-op form
  its ``silu`` back too: never higher there, lower at the full update, for
  a stated number of instructions more (``tests/test_recompute.py`` holds
  the gate's comparison without that rewrite);
* the structure that buys it: no ``sigmoid`` or ``tanh`` is left in the
  training graph, no ``silu`` either on ``llama_micro``, each adjoint
  reads the inputs its activation reads, and runs after the loss (nothing
  of it is hoisted into the forward).
"""

from __future__ import annotations

import pytest

from repro.models import build_model, paper_scheme
from repro.runtime.compiler import compile_training
from repro.sparse import full_update
from repro.train import SGD, Adam

from reference_autodiff import (swap_in_primitive_activations,
                                swap_in_primitive_swiglu)
from test_activation_masks import position_of_loss, train
from test_codegen import assert_same_bytes

#: model -> (the forward activation op, the adjoint its rule emits)
MODELS = {"llama_micro": ("swiglu", "silu_grad"),
          "bert_micro": ("gelu", "gelu_grad")}
SCHEMES = {"paper_scheme": paper_scheme, "full_update": full_update}


def compile_at(model, scheme, batch):
    forward = build_model(model, batch=batch)
    optimizer = SGD(0.05) if scheme == "paper_scheme" else Adam(1e-3)
    return compile_training(forward, optimizer=optimizer,
                            scheme=SCHEMES[scheme](forward))


def assert_same_training(program, reference):
    """Loss of every step and every mutable state tensor, byte for byte."""
    losses, state = train(program)
    want_losses, want_state = train(reference)
    for step, (got, want) in enumerate(zip(losses, want_losses)):
        assert_same_bytes(got, want, f"loss of step {step}")
    assert state.keys() == want_state.keys()
    for name in state:
        assert_same_bytes(state[name], want_state[name], name)


def assert_same_bytes_less_memory(program, reference):
    assert_same_training(program, reference)
    spec, old = program.plan_spec(), reference.plan_spec()
    assert spec.peak_transient_bytes < old.peak_transient_bytes
    assert len(spec.instructions) <= len(old.instructions)


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", MODELS)
def test_same_bytes_less_memory(model, scheme, batch, monkeypatch):
    program = compile_at(model, scheme, batch)
    with monkeypatch.context() as patch:
        swap_in_primitive_activations(patch)
        reference = compile_at(model, scheme, batch)
    ops = {node.op_type for node in program.graph.nodes}
    old_ops = {node.op_type for node in reference.graph.nodes}
    adjoint = MODELS[model][1]
    assert adjoint in ops and not ops & {"sigmoid", "tanh"}
    assert "tanh" in old_ops or "sigmoid" in old_ops
    assert adjoint not in old_ops
    assert_same_bytes_less_memory(program, reference)


#: scheme -> instructions the one-op gate may run beyond the two-op form,
#: as shipped (at batch 1, 2 and 8 alike)
SWIGLU_EXTRA_INSTRUCTIONS = {"paper_scheme": 1, "full_update": 8}


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_swiglu_same_bytes_less_memory(scheme, batch, monkeypatch):
    """Against the gate traced as ``mul(silu(gate), up)``, ``silu`` itself
    one op, both as shipped. The two-op form's ``silu`` output is
    recomputed for the backward rather than held; with no held reader
    left, ``silu`` and ``mul`` fuse, and that form runs two instructions
    fewer than without the rewrite at the paper scheme, eight at the full
    update. So at the paper scheme the peaks are equal and the one-op gate
    runs one instruction more; at the full update its own output is
    recomputed too (four clones, four instructions) where the two-op
    form's product stays held: its peak is lower, for eight instructions
    more."""
    program = compile_at("llama_micro", scheme, batch)
    with monkeypatch.context() as patch:
        swap_in_primitive_swiglu(patch)
        reference = compile_at("llama_micro", scheme, batch)
    ops = {node.op_type for node in program.graph.nodes}
    old_ops = {node.op_type for node in reference.graph.nodes}
    assert "swiglu" in ops and "silu" not in ops
    assert "silu" in old_ops and "swiglu" not in old_ops
    assert_same_training(program, reference)
    spec, old = program.plan_spec(), reference.plan_spec()
    if scheme == "full_update":
        assert spec.peak_transient_bytes < old.peak_transient_bytes
    else:
        assert spec.peak_transient_bytes == old.peak_transient_bytes
    assert len(spec.instructions) \
        <= len(old.instructions) + SWIGLU_EXTRA_INSTRUCTIONS[scheme]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", MODELS)
def test_the_adjoint_reads_the_input_after_the_loss(model, scheme):
    program = compile_at(model, scheme, 2)
    activation, adjoint = MODELS[model]
    loss_at = position_of_loss(program)
    inputs = {node.inputs[0] for node in program.schedule[:loss_at]
              if node.op_type == activation}
    adjoints = [(at, node) for at, node in enumerate(program.schedule)
                if node.op_type == adjoint]
    assert adjoints and inputs
    for at, node in adjoints:
        assert node.inputs[1] in inputs
        assert at > loss_at, f"{node.name} runs at {at}, before the loss"
    # the backward swiglu, up's adjoint, reads its forward's gate
    for node in program.schedule[loss_at:]:
        if node.op_type == activation:
            assert node.inputs[0] in inputs, node.name
