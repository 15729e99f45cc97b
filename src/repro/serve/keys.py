"""Canonical cache keys for compiled training programs.

The whole point of the paper's compile-time pipeline is that the expensive
work (autodiff, pruning, graph optimization, scheduling) happens once per
*configuration*, not once per step. A configuration is fully determined by:

* the forward graph — structure, input shapes, **and weights** (constant
  folding can bake frozen weights into the compiled graph, so two tenants
  with different backbones must not share a program),
* the sparse-update scheme (which tensors train, at what channel ratio),
* the optimizer spec (it becomes in-place graph nodes),
* the loss kind and logits binding,
* the :class:`~repro.runtime.compiler.CompileOptions` switches.

:func:`program_key` hashes all of that into one stable hex digest via the
canonical graph encoding in :mod:`repro.ir.serialize`. Equal configurations
collide on purpose; any observable difference separates them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from ..ir import Graph, graph_fingerprint
from ..runtime.compiler import CompileOptions
from ..sparse import UpdateScheme
from ..train.optim import OptimizerSpec

#: v2: CompileOptions grew ``plan_passes`` (the plan-lowering pipeline
#: joins the key, so cached artifacts re-prebuild when lowering changes).
#: v3: plan-spec v3 — variant decision tables, const-folded scalars, and
#: byte-bucketed arena keys change what lowering produces for the *same*
#: options, so every cached artifact must re-prebuild once.
#: v4: plan-spec v7 — the kernel-variant selection options are gone and a
#: Winograd-annotated conv runs direct, so the same options lower (and
#: compute) differently.
#: v5: plan-spec v8 — the plan no longer folds frozen scalars, so the
#: default pipeline lowers the same options to a different plan.
KEY_VERSION = 5


def scheme_token(scheme: UpdateScheme) -> dict[str, Any]:
    """Scheme identity: the (param -> ratio) map, not the display name.

    Two schemes updating the same tensors at the same ratios compile to the
    same program regardless of what they are called.
    """
    return {"updates": {p: float(r) for p, r in sorted(scheme.updates.items())}}


def optimizer_token(spec: OptimizerSpec) -> dict[str, Any]:
    token = {k: v for k, v in sorted(dataclasses.asdict(spec).items())}
    token["family"] = spec.family
    return token


def options_token(options: CompileOptions) -> dict[str, Any]:
    token: dict[str, Any] = {}
    for field in dataclasses.fields(options):
        if field.name == "verify_plans":
            # Verification proves a plan; it never shapes one. Keying on
            # it would split otherwise-identical cached artifacts.
            continue
        value = getattr(options, field.name)
        if field.name == "device":
            # Device objects carry float cost-model constants; their
            # registry key is the stable identity.
            value = getattr(value, "key", None) if value is not None else None
        if isinstance(value, tuple):
            value = list(value)  # JSON-canonical (plan_passes sequences)
        token[field.name] = value
    return token


def program_key(
    forward: Graph,
    *,
    scheme: UpdateScheme,
    optimizer: OptimizerSpec,
    options: CompileOptions | None = None,
    loss: str = "softmax_ce",
    logits: str | None = None,
    include_weights: bool = True,
) -> str:
    """Canonical hash of one training-program configuration.

    ``include_weights=False`` keys on structure only — useful when the
    caller guarantees all tenants share one checkpoint and wants to skip
    hashing large weight tensors.
    """
    doc = key_document(forward, scheme=scheme, optimizer=optimizer,
                       options=options, loss=loss, logits=logits,
                       include_weights=include_weights)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def key_document(
    forward: Graph,
    *,
    scheme: UpdateScheme,
    optimizer: OptimizerSpec,
    options: CompileOptions | None = None,
    loss: str = "softmax_ce",
    logits: str | None = None,
    include_weights: bool = True,
) -> dict[str, Any]:
    """The pre-hash canonical document (exposed for tests/debugging)."""
    return {
        "key_version": KEY_VERSION,
        "graph": graph_fingerprint(forward, include_weights=include_weights),
        "input_shapes": {
            name: list(forward.spec(name).shape) for name in forward.inputs
        },
        "scheme": scheme_token(scheme),
        "optimizer": optimizer_token(optimizer),
        "options": options_token(options or CompileOptions()),
        "loss": loss,
        "logits": logits,
    }
