"""Per-layer instrumentation: compile-stage wrappers and kernel grouping.

Layer names are the module names under ``src/repro/``. Every wrapper goes
where the *caller* looks the function up (``repro.runtime.compiler``'s
globals, the ``PASSES`` registry, ``repro.runtime.plan.bind_plan``), so the
timings are of the calls the real pipeline makes.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from typing import Any

from spans import END, NAME, START, Tracer

#: kernel groups reported as ``kernels.<group>_ms``
KERNEL_GROUPS = ("conv2d", "conv2d_dx", "conv2d_dw", "winograd", "matmul",
                 "elementwise", "fused", "norm", "reduce", "shape", "optim",
                 "embedding", "pooling", "other")

#: span name -> per-layer metric, for the stages of one compile
STAGE_METRICS = {
    "frontend.trace": "frontend.trace_ms",
    "train.attach": "train.attach_ms",
    "autodiff.build_backward": "autodiff.build_backward_ms",
    "passes.graph": "passes.graph_ms",
    "passes.schedule": "passes.schedule_ms",
    "memory.profile": "memory.profile_ms",
    "runtime.passes.lower": "runtime.passes.lower_ms",
    "runtime.passes.fuse_elementwise": "runtime.passes.fuse_elementwise_ms",
    "runtime.passes.fold_scalars": "runtime.passes.fold_scalars_ms",
    "runtime.passes.precompute_frozen": "runtime.passes.precompute_frozen_ms",
    "runtime.passes.allocate": "runtime.passes.allocate_ms",
    "runtime.passes.pipeline": "runtime.passes.pipeline_ms",
    "runtime.bind": "runtime.bind_ms",
}

#: counts accumulated by the wrappers, per compile
COUNT_METRICS = (
    "frontend.forward_nodes", "autodiff.backward_nodes",
    "passes.nodes_removed", "memory.graph_peak_transient_bytes",
    "runtime.passes.instructions_lowered",
    "runtime.passes.instructions_final", "runtime.passes.fused_chains",
    "runtime.passes.folded_args", "runtime.passes.precomputed_bytes",
)


class CompileProbe:
    """Wraps the compile pipeline's stages and keeps their counts.

    One *round* is one pass over the workload's programs (one program for a
    training workload, twelve for the zoo). Stage times and counts are
    summed within a round; the reported figure is the median over rounds.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._counts: dict[str, float] = defaultdict(float)
        #: nodes in the training graph right after autodiff, per compile
        self.graph_nodes_after_backward: list[int] = []
        self._rounds: list[dict[str, float]] = []
        self._mark = 0

    def install(self) -> None:
        wrap, counts = self.tracer.wrap, self._counts
        compiler = "repro.runtime.compiler"

        def backward(fn, args, kwargs):
            graph = args[0]
            before = len(graph.nodes)
            result = fn(*args, **kwargs)
            counts["autodiff.backward_nodes"] += len(graph.nodes) - before
            self.graph_nodes_after_backward.append(len(graph.nodes))
            return result

        def graph_passes(fn, args, kwargs):
            graph = args[1]
            before = len(graph.nodes)
            result = fn(*args, **kwargs)
            counts["passes.nodes_removed"] += before - len(graph.nodes)
            return result

        def profile(fn, args, kwargs):
            result = fn(*args, **kwargs)
            counts["memory.graph_peak_transient_bytes"] += \
                result.peak_transient_bytes
            return result

        def pipeline(fn, args, kwargs):
            # run_pipeline(report=...) is the hook the code exposes for
            # per-stage counts; ask for it when the caller did not.
            report = kwargs.get("report")
            if report is None and len(args) < 3:
                report = kwargs["report"] = {}
            result = fn(*args, **kwargs)
            stages = {s["stage"]: s for s in (report or {}).get("stages", ())}
            if stages:
                counts["runtime.passes.instructions_lowered"] += \
                    stages.get("lower", {}).get("instructions", 0)
                counts["runtime.passes.instructions_final"] += \
                    stages.get("allocate", {}).get("instructions", 0)
                counts["runtime.passes.fused_chains"] += \
                    stages.get("fuse_elementwise", {}).get("chains", 0)
                counts["runtime.passes.folded_args"] += \
                    stages.get("fold_scalars", {}).get("folded_args", 0)
                counts["runtime.passes.precomputed_bytes"] += \
                    stages.get("allocate", {}).get("precomputed_bytes", 0)
            return result

        wrap(compiler, "add_loss", "train.attach", "train")
        wrap(compiler, "attach_optimizer", "train.attach", "train")
        wrap(compiler, "build_backward", "autodiff.build_backward",
             "autodiff", around=backward)
        wrap(compiler, "memory_aware_schedule", "passes.schedule", "passes")
        wrap(compiler, "profile_memory", "memory.profile", "memory",
             around=profile)
        manager = _lookup(compiler, "PassManager")
        wrap(manager if manager is not None else f"{compiler}.PassManager",
             "run", "passes.graph", "passes", around=graph_passes)
        passes = "repro.runtime.passes"
        wrap(passes, "run_pipeline", "runtime.passes.pipeline",
             "runtime.passes", around=pipeline)
        wrap(passes, "lower", "runtime.passes.lower", "runtime.passes")
        wrap(passes, "allocate", "runtime.passes.allocate", "runtime.passes")
        registry = _lookup(passes, "PASSES")
        for name in ("fuse_elementwise", "fold_scalars",
                     "precompute_frozen"):
            wrap(registry if registry is not None else f"{passes}.PASSES",
                 name, f"runtime.passes.{name}", "runtime.passes")
        wrap("repro.runtime.plan", "bind_plan", "runtime.bind", "runtime")

    def count_forward(self, forward) -> None:
        if self.tracer.enabled:
            self._counts["frontend.forward_nodes"] += len(forward.nodes)

    def end_round(self) -> None:
        """Close one pass over the workload's programs."""
        figures: dict[str, float] = defaultdict(float)
        for span in self.tracer.spans[self._mark:]:
            metric = STAGE_METRICS.get(span[NAME])
            if metric is not None and span[END] is not None:
                figures[metric] += (span[END] - span[START]) * 1e3
        figures.update(self._counts)
        self._counts.clear()
        self._mark = len(self.tracer.spans)
        self._rounds.append(figures)

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric in (*STAGE_METRICS.values(), *COUNT_METRICS):
            values = [r.get(metric, 0.0) for r in self._rounds]
            out[metric] = statistics.median(values) if values else 0.0
        return out


def _lookup(module: str, attr: str) -> Any:
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def kernel_group(instr) -> str:
    """The ``kernels/`` file (or conv flavour) an instruction runs in."""
    op = instr.node.op_type
    if instr.variant == "fused":
        return "fused"
    if op == "conv2d":
        if "winograd" in instr.variant \
                or instr.node.attrs.get("algo") == "winograd":
            return "winograd"
        return "conv2d"
    if op in ("conv2d_dx", "conv2d_dw"):
        return op
    kernels = _lookup("repro.kernels", "KERNELS") or {}
    fn = kernels.get(op)
    group = getattr(fn, "__module__", "").rsplit(".", 1)[-1]
    return group if group in KERNEL_GROUPS else "other"


def instruction_flops(instr, graph) -> tuple[str, float]:
    """("conv" | "matmul" | "", multiply-add FLOPs) computed from the
    node's tensor shapes — not counted by the kernels themselves."""
    node = instr.node
    if instr.variant == "fused":
        return "", 0.0
    shape = lambda name: graph.spec(name).shape  # noqa: E731
    size = lambda dims: float(_product(dims))    # noqa: E731
    if node.op_type == "conv2d":
        weight = shape(node.inputs[1])
        return "conv", 2 * size(shape(node.outputs[0])) * size(weight[1:])
    if node.op_type == "conv2d_dx":
        weight = shape(node.inputs[1])
        return "conv", 2 * size(shape(node.inputs[0])) * size(weight[1:])
    if node.op_type == "conv2d_dw":
        weight = shape(node.outputs[0])
        return "conv", 2 * size(shape(node.inputs[1])) * size(weight[1:])
    if node.op_type == "matmul":
        a, out = shape(node.inputs[0]), shape(node.outputs[0])
        if not out or not size(out):
            return "", 0.0
        # a holds m*k per batch entry whatever its transpose flag says
        k = size(a) * out[-1] / size(out)
        return "matmul", 2 * size(out) * k
    return "", 0.0


def _product(dims) -> int:
    total = 1
    for dim in dims:
        total *= int(dim)
    return total
