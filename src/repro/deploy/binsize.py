"""Binary-size accounting for deployed programs.

The paper's runtime claim (§2.1, §2.5): host-language frameworks drag in
hundreds of megabytes, while a compilation-based engine links *only the
kernels the schedule uses* on top of a tiny scheduler core. This module
prices that: per-kernel compiled code sizes (CMSIS-NN/TinyEngine-class
ARM builds, -Os), a fixed runtime core, and the weight payload.

The code sizes are estimates of a representative embedded build and exist
to make the *structure* of the claim measurable — the slim binary grows
only with the operator set, not with the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Graph
from ..ir.node import Node

#: Compiled code bytes per kernel (ARM Thumb-2, -Os, CMSIS-NN-class).
KERNEL_CODE_BYTES: dict[str, int] = {
    "conv2d": 7400,           # im2col + tiled GEMM inner kernels
    "conv2d_dx": 8200,        # flipped-weight gather + strided col2im fold
    "conv2d_dw": 6800,
    "conv2d_i8": 5200,        # int8 direct conv + requantization
    "matmul": 3600,
    "matmul_i8": 2900,
    "bias_add": 520,
    "add_i8": 680,
    "maxpool2d": 980,
    "avgpool2d": 1040,
    "maxpool2d_grad": 1240,
    "avgpool2d_grad": 1180,
    "global_avg_pool": 620,
    "global_avg_pool_i8": 660,
    "layernorm": 1380,
    "rmsnorm": 1240,
    "softmax": 1100,
    "log_softmax": 1160,
    "log_softmax_grad": 1240,  # softmax + scale + subtract (+ row sum)
    "embedding": 540,
    "embedding_grad": 760,
    "pick": 380,
    "pick_grad": 460,
    "quantize_linear": 470,
    "dequantize_linear": 450,
    "fake_quant": 620,
    "apply_sgd": 700,
    "apply_adam": 1150,
    "apply_lion": 860,
    "reduce_sum": 760,
    "reduce_mean": 800,
    "reduce_max": 760,
    "transpose": 880,
    "broadcast_to": 410,
    "concat": 520,
    "pad": 640,
    # reshape/slice are views: pointer arithmetic inside the core.
    "reshape": 0,
    "slice": 0,
}

#: Anything unlisted links a generic elementwise kernel.
DEFAULT_KERNEL_BYTES = 500

#: Scheduler + arena allocator + tensor structs (no interpreter, no GC).
RUNTIME_CORE_BYTES = 18 * 1024

#: On-disk installation footprint of the baselines, for scale. Public pip
#: wheel / SDK sizes (CPU builds), not fine calibration.
FRAMEWORK_BINARY_BYTES: dict[str, int] = {
    "pytorch": 900 * 2 ** 20,
    "tensorflow": 1100 * 2 ** 20,
    "jax": 450 * 2 ** 20,
    "mnn": 5 * 2 ** 20,
    "tflite_micro": 120 * 2 ** 10,
    "pockengine": RUNTIME_CORE_BYTES,  # plus per-model kernels, see report
}


@dataclass
class BinarySizeReport:
    """Flash footprint of one deployed program."""

    model: str
    kernel_bytes: dict[str, int] = field(default_factory=dict)
    runtime_bytes: int = RUNTIME_CORE_BYTES
    weight_bytes: int = 0

    @property
    def code_bytes(self) -> int:
        return self.runtime_bytes + sum(self.kernel_bytes.values())

    @property
    def total_bytes(self) -> int:
        return self.code_bytes + self.weight_bytes

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_bytes)


def kernel_code_size(op_type: str) -> int:
    return KERNEL_CODE_BYTES.get(op_type, DEFAULT_KERNEL_BYTES)


def estimate_binary_size(graph: Graph,
                         schedule: list[Node] | None = None
                         ) -> BinarySizeReport:
    """Account the flash bytes for deploying ``graph``.

    Each distinct op type links its kernel once; weights ship at their
    stored precision (int8 graphs pay 4x less here too).
    """
    nodes = schedule if schedule is not None else graph.nodes
    report = BinarySizeReport(model=graph.name)
    for node in nodes:
        if node.op_type not in report.kernel_bytes:
            report.kernel_bytes[node.op_type] = kernel_code_size(
                node.op_type)
    report.weight_bytes = sum(
        arr.nbytes for arr in graph.initializers.values())
    return report
