"""Optimizers as graph operators.

``attach_optimizer`` appends one in-place ``apply_*`` node per updated
parameter, allocating optimizer state as initializers. Because the step is
*in the graph*, the reorder pass can schedule each apply immediately after
its gradient — the memory optimization paper §3.2 highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompileError
from ..ir import Graph, GraphBuilder


@dataclass(frozen=True)
class SGD:
    lr: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 0.0
    #: micro-batches averaged before each weight update (paper Table 5
    #: fine-tunes Llama at batch 1 with 16-step accumulation)
    accum_steps: int = 1

    @property
    def state_slots(self) -> int:
        return 1 if self.momentum else 0

    family = "sgd"


@dataclass(frozen=True)
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    accum_steps: int = 1

    state_slots = 2
    family = "adam"


@dataclass(frozen=True)
class Lion:
    """Lion (Chen et al. 2023): one state buffer; used for Llama fine-tuning."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 0.0
    accum_steps: int = 1

    state_slots = 1
    family = "lion"


OptimizerSpec = SGD | Adam | Lion


def attach_optimizer(
    b: GraphBuilder,
    grads: dict[str, str],
    spec: OptimizerSpec,
    slice_k: dict[str, int] | None = None,
    slice_axis: dict[str, int] | None = None,
) -> list[str]:
    """Append apply nodes for every (param, grad) pair; returns their outputs.

    Channel-sparse parameters receive state buffers shaped like the *sliced*
    gradient — frozen channels carry no optimizer state, another measured
    memory saving of sub-layer sparse updates.
    """
    slice_k = slice_k or {}
    slice_axis = slice_axis or {}
    if spec.accum_steps < 1:
        raise CompileError(
            f"accum_steps must be >= 1, got {spec.accum_steps}")
    graph = b.graph
    updated_outputs: list[str] = []
    for param, grad in sorted(grads.items()):
        if param not in graph.initializers:
            raise CompileError(f"optimizer target {param!r} is not a parameter")
        grad_spec = graph.spec(grad)
        attrs: dict = {"lr": spec.lr, "weight_decay": spec.weight_decay}
        if spec.accum_steps > 1:
            attrs["accum_steps"] = spec.accum_steps
        if param in slice_k:
            attrs["slice_k"] = slice_k[param]
            attrs["slice_axis"] = slice_axis.get(param, 0)

        def state(suffix: str, shape=grad_spec.shape,
                  dtype=grad_spec.dtype.np) -> str:
            # Zero-stride views cost nothing to declare; Program.from_graph
            # copies state, which materialises real writable buffers only
            # for programs that will actually execute. State matches the
            # gradient dtype (fp16 training keeps fp16 optimizer state).
            view = np.broadcast_to(dtype.type(0), shape)
            return b.initializer(f"{param}.{suffix}", view)

        def counter(suffix: str) -> str:
            # Step counters are float32 whatever the gradient dtype: in
            # float16 2048 + 1 == 2048, which freezes Adam's bias
            # correction and parks the accumulation gate on a micro-step
            # forever. float32 counts exactly to 2**24.
            return state(suffix, (1,), np.dtype(np.float32))

        if isinstance(spec, SGD):
            attrs["momentum"] = spec.momentum
            inputs = [param, grad]
            if spec.momentum:
                inputs.append(state("momentum"))
            op = "apply_sgd"
        elif isinstance(spec, Adam):
            attrs.update(beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)
            inputs = [param, grad, state("m"), state("v"), counter("t")]
            op = "apply_adam"
        elif isinstance(spec, Lion):
            attrs.update(beta1=spec.beta1, beta2=spec.beta2)
            inputs = [param, grad, state("m")]
            op = "apply_lion"
        else:
            raise CompileError(f"unknown optimizer spec {spec!r}")
        if spec.accum_steps > 1:
            # Gradient accumulator + micro-step counter live with the
            # other optimizer state (this is the buffer conventional
            # frameworks also pay for when accumulating).
            inputs.extend([state("accum"), counter("tick")])
        out = b.emit(op, inputs, attrs, name_hint=f"upd.{param}")
        b.mark_output(out)
        updated_outputs.append(out)
    return updated_outputs


def optimizer_state_bytes(graph: Graph) -> int:
    """Bytes of optimizer state currently present in ``graph``."""
    return sum(
        graph.initializers[name].nbytes
        for name in graph.initializers
        if name.endswith((".momentum", ".m", ".v", ".t", ".accum", ".tick"))
    )
