"""Per-operator roofline latency model applied to compiled schedules.

For every scheduled node::

    compute_us = flops / (peak(dtype) * efficiency(op_class) * quality)
    memory_us  = bytes_moved / bandwidth
    node_us    = max(compute_us, memory_us) + launch (once per fusion group)
    (+ host_dispatch_us per op for interpreted frameworks)

Winograd-bound convolutions get the 2.25x multiply reduction; a layout
mismatch between the graph and the device's preferred layout halves
spatial-op efficiency (the penalty the layout pass exists to avoid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Graph, op_bytes, op_flops
from ..ir.node import Node
from .spec import DeviceSpec

OP_CLASS = {
    "matmul": "gemm", "conv2d": "gemm", "conv2d_dx": "gemm",
    "conv2d_i8": "gemm", "matmul_i8": "gemm",
    "conv2d_dw": "gemm",  # grouped/depthwise variants reclassified per-node
    "maxpool2d": "pool", "avgpool2d": "pool", "maxpool2d_grad": "pool",
    "avgpool2d_grad": "pool", "global_avg_pool": "pool",
    "global_avg_pool_i8": "pool",
    "softmax": "normalize", "log_softmax": "normalize",
    "log_softmax_grad": "normalize",
    "layernorm": "normalize", "rmsnorm": "normalize",
    "embedding": "gather", "embedding_grad": "gather",
    "pick": "gather", "pick_grad": "gather",
    "apply_sgd": "update", "apply_adam": "update", "apply_lion": "update",
    "reduce_sum": "reduce", "reduce_mean": "reduce", "reduce_max": "reduce",
}

_SPATIAL = {"conv2d", "conv2d_i8", "conv2d_dx", "conv2d_dw", "maxpool2d",
            "avgpool2d"}

#: Metadata-only ops: compiled runtimes implement these as pointer/stride
#: adjustments (zero copies, zero launches). Interpreted frameworks still
#: pay their per-op host dispatch.
VIEW_OPS = {"reshape", "slice"}

WINOGRAD_SPEEDUP = 2.25
LAYOUT_MISMATCH_PENALTY = 0.55

#: Strided-operand GEMM penalty: a ``trans_b`` matmul reads B through a
#: transposed (non-contiguous) view, which costs BLAS a packing pass the
#: contiguous layout skips. Only the plan-level model applies this — the
#: schedule-level estimate keeps its historical calibration.
STRIDED_GEMM_PENALTY = 0.85

#: FLOPs of the per-call Winograd weight transform ``U = G g Gᵀ`` per
#: (cout, cin) filter: two small (4x3)·(3x3) and (4x3)·(3x4) products.
_WINOGRAD_TRANSFORM_FLOPS_PER_FILTER = 168


@dataclass
class LatencyReport:
    """Simulated wall-clock for one iteration of a schedule."""

    total_us: float = 0.0
    compute_us: float = 0.0
    memory_us: float = 0.0
    launch_us: float = 0.0
    dispatch_us: float = 0.0
    autodiff_us: float = 0.0
    per_class_us: dict[str, float] = field(default_factory=dict)
    num_kernels: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0


def op_class(op_type: str, attrs: dict | None = None) -> str:
    """Operator cost class; grouped convolutions count as 'depthwise'.

    Depthwise convolutions get their own class because frameworks without
    edge-tuned kernels run them far below dense-conv efficiency (visible in
    the paper's Pi data: TF is ~4x closer to PockEngine on ResNet than on
    MobileNetV2/MCUNet).
    """
    cls = OP_CLASS.get(op_type, "elementwise")
    if cls == "gemm" and attrs and int(attrs.get("groups", 1)) > 1:
        return "depthwise"
    return cls


def _compute_itemsize(op_type: str, in_specs, out_specs) -> int:
    """Element width an op computes at: its narrowest output's — except
    ``range_mask``, which compares its float input (the packed ``uint8``
    it writes is no int8 arithmetic). With its FLOPs counted per input
    element, that prices it — like ``mask_mul`` — as one elementwise pass
    over the activation. A packed mask among the *inputs* (``mask_mul``,
    a ``conv2d_dx`` with ``mask_mul`` folded in) changes nothing here:
    against the unfused pair that node is one launch fewer, the same
    FLOPs (the schema adds one multiply per element of ``dx``) and the
    gradient's round trip through memory saved — ``op_bytes`` counts the
    mask's bytes once and ``dx`` once."""
    specs = in_specs if op_type == "range_mask" else out_specs
    return min((s.dtype.itemsize for s in specs), default=4)


def _quality_for(quality, cls: str) -> float:
    """Resolve a kernel-quality spec (float or per-class dict) for a class."""
    if isinstance(quality, dict):
        return quality.get(cls, quality.get("default", 0.1))
    return float(quality)


def estimate_latency(
    graph: Graph,
    schedule: list[Node],
    device: DeviceSpec,
    *,
    interpreted: bool = False,
    runtime_autodiff: bool = False,
    kernel_quality=1.0,
    layout_optimized: bool = True,
    events: list | None = None,
) -> LatencyReport:
    """Estimate one iteration's latency for ``schedule`` on ``device``.

    Args:
        interpreted: charge one host-language dispatch per op (PyTorch/TF
            eager runtimes).
        runtime_autodiff: charge per-iteration tape construction — the
            overhead Figure 7 contrasts with compile-time differentiation.
        kernel_quality: multiplier on op efficiency — a float, or a dict
            mapping op classes ('gemm', 'depthwise', ...; 'default') to
            multipliers (frameworks without edge-tuned kernels run below
            the device's attainable peak, unevenly across op classes).
        layout_optimized: whether the compiler matched the device layout.
        events: when given, one ``(node_name, op_type, us)`` tuple is
            appended per scheduled node (view ops included at their
            dispatch-only cost) — the input to the runtime profiler's
            chrome-trace export.
    """
    report = LatencyReport()
    fusion_groups: dict[str, int] = graph.metadata.get("fusion_groups", {})
    graph_layout = graph.metadata.get("layout", "NCHW")
    layout_match = layout_optimized and graph_layout == device.preferred_layout
    groups_seen: set[int] = set()
    group_members: dict[int, set[str]] = {}
    for name, gid in fusion_groups.items():
        group_members.setdefault(gid, set()).add(name)
    produced_by: dict[str, str] = {}
    for node in schedule:
        for out in node.outputs:
            produced_by[out] = node.name

    for node in schedule:
        if node.op_type in VIEW_OPS:
            cost = device.host_dispatch_us if interpreted else 0.0
            if interpreted:
                report.dispatch_us += cost
                report.total_us += cost
            if events is not None:
                events.append((node.name, node.op_type, cost))
            continue
        in_specs = [graph.spec(i) for i in node.inputs]
        out_specs = [graph.spec(o) for o in node.outputs]
        cls = op_class(node.op_type, node.attrs)
        flops = op_flops(node.op_type, in_specs, out_specs, node.attrs)
        if node.attrs.get("algo") == "winograd":
            flops /= WINOGRAD_SPEEDUP

        itemsize = _compute_itemsize(node.op_type, in_specs, out_specs)
        dev_cls = "gemm" if cls == "depthwise" else cls
        eff = device.efficiency(dev_cls) * _quality_for(kernel_quality, cls)
        if node.op_type in _SPATIAL and not layout_match:
            eff *= LAYOUT_MISMATCH_PENALTY
        peak = device.peak_for(itemsize) * 1e3  # -> flops per microsecond
        compute_us = flops / max(peak * eff, 1e-9)

        gid = fusion_groups.get(node.name)
        if gid is None:
            moved = op_bytes(in_specs, out_specs)
            launch = device.kernel_launch_us
            report.num_kernels += 1
        else:
            members = group_members[gid]
            # Only traffic crossing the group boundary hits memory.
            moved = sum(
                s.nbytes for i, s in zip(node.inputs, in_specs)
                if produced_by.get(i) not in members
            )
            moved += sum(s.nbytes for s in out_specs)
            if gid not in groups_seen:
                groups_seen.add(gid)
                launch = device.kernel_launch_us
                report.num_kernels += 1
            else:
                launch = 0.0
        memory_us = moved / max(device.mem_bw_gbs * 1e3, 1e-9)

        node_us = max(compute_us, memory_us) + launch
        if interpreted:
            node_us += device.host_dispatch_us
            report.dispatch_us += device.host_dispatch_us
        report.compute_us += compute_us
        report.memory_us += memory_us
        report.launch_us += launch
        report.per_class_us[cls] = report.per_class_us.get(cls, 0.0) \
            + max(compute_us, memory_us)
        report.total_us += node_us
        if events is not None:
            events.append((node.name, node.op_type, node_us))

    if runtime_autodiff:
        # Tape construction + bookkeeping: proportional to graph size, paid
        # every iteration on the host CPU.
        tape = 0.9 * device.host_dispatch_us * len(schedule)
        report.autodiff_us = tape
        report.total_us += tape
    return report


def _conv_cols_bytes(in_specs, attrs: dict) -> int:
    """Bytes of the im2col scratch a direct conv materialises per call:
    (cin/groups * kh * kw) x (n * ho * wo), written once and read once."""
    if len(in_specs) < 2:
        return 0
    x, w = in_specs[0], in_specs[1]
    if len(w.shape) < 4 or len(x.shape) < 4:
        return 0
    groups = int(attrs.get("groups", 1)) if attrs else 1
    kh, kw = int(w.shape[2]), int(w.shape[3])
    n = int(x.shape[0])
    elems_out = 1
    cin = int(x.shape[1])
    # Output spatial extent ~= input extent / stride (padding ignored:
    # this feeds a *ranking*, not a wall-clock promise).
    stride = attrs.get("stride", 1) if attrs else 1
    sh, sw = (stride if isinstance(stride, (tuple, list))
              else (stride, stride))
    ho = max(1, int(x.shape[2]) // max(int(sh), 1))
    wo = max(1, int(x.shape[3]) // max(int(sw), 1))
    elems_out = n * ho * wo
    cols = (cin // max(groups, 1)) * kh * kw * elems_out
    return 2 * cols * x.dtype.itemsize  # write + read


class PlanCostModel:
    """Memoized per-instruction roofline estimates for one plan compile.

    The autotune pass scores every candidate kernel variant of every
    lowered instruction. The facts shared across a node's variants — op
    class, FLOPs, boundary byte traffic, attainable peak — are derived
    once per node and cached for the lifetime of the model (one compile),
    so scoring V variants costs V cheap adjustments, not V full
    re-derivations.

    The per-variant adjustments model exactly what the registered variant
    kernels change:

    * ``winograd_precomputed`` — skips the per-call ``U = G g Gᵀ`` weight
      transform (the 2.25x multiply reduction is shared with plain
      ``algo="winograd"``);
    * ``pretransposed_b`` — lifts the strided-operand GEMM penalty a
      ``trans_b`` matmul pays for reading B through a transposed view.

    Unlike :func:`estimate_latency` (schedule-level, calibration frozen
    since the paper-figure experiments), this model *does* charge direct
    convolutions their im2col traffic and strided GEMMs their packing
    penalty — the candidates it ranks differ in precisely those terms.
    """

    def __init__(self, device: DeviceSpec, *, kernel_quality=1.0,
                 layout_match: bool = True):
        self.device = device
        self.kernel_quality = kernel_quality
        self.layout_match = layout_match
        self._facts: dict[str, tuple] = {}

    def _base_facts(self, key: str, op_type: str, in_specs, out_specs,
                    attrs: dict) -> tuple:
        facts = self._facts.get(key)
        if facts is not None:
            return facts
        cls = op_class(op_type, attrs)
        flops = op_flops(op_type, in_specs, out_specs, attrs)
        moved = op_bytes(in_specs, out_specs)
        itemsize = _compute_itemsize(op_type, in_specs, out_specs)
        dev_cls = "gemm" if cls == "depthwise" else cls
        eff = self.device.efficiency(dev_cls) \
            * _quality_for(self.kernel_quality, cls)
        if op_type in _SPATIAL and not self.layout_match:
            eff *= LAYOUT_MISMATCH_PENALTY
        peak = self.device.peak_for(itemsize) * 1e3  # flops / microsecond
        facts = (cls, float(flops), float(moved), eff, peak)
        self._facts[key] = facts
        return facts

    def estimate_us(self, key: str, op_type: str, in_specs, out_specs,
                    attrs: dict | None, variant: str = "base") -> float:
        """Latency estimate for one instruction under one kernel variant.

        ``key`` names the node (the memo key); ``variant`` is ``"base"``
        or a registered variant name. Unknown variants cost the same as
        base — the ranking then keeps base, which is always safe.
        """
        attrs = attrs or {}
        cls, flops, moved, eff, peak = self._base_facts(
            key, op_type, in_specs, out_specs, attrs)
        winograd = attrs.get("algo") == "winograd" \
            or variant == "winograd_precomputed"
        if winograd:
            flops = flops / WINOGRAD_SPEEDUP
            if len(in_specs) >= 2 and len(in_specs[1].shape) >= 2:
                w = in_specs[1]
                transform = (_WINOGRAD_TRANSFORM_FLOPS_PER_FILTER
                             * int(w.shape[0]) * int(w.shape[1]))
                if variant != "winograd_precomputed":
                    flops += transform  # base re-derives U every call
        if op_type in ("conv2d", "conv2d_i8") and not winograd:
            moved += _conv_cols_bytes(in_specs, attrs)
        if op_type in ("matmul", "matmul_i8") and attrs.get("trans_b"):
            if variant != "pretransposed_b":
                eff = eff * STRIDED_GEMM_PENALTY
        compute_us = flops / max(peak * eff, 1e-9)
        memory_us = moved / max(self.device.mem_bw_gbs * 1e3, 1e-9)
        return max(compute_us, memory_us) + self.device.kernel_launch_us
