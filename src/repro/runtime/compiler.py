"""The compilation pipeline: trace -> autodiff -> prune -> optimize -> plan.

This is the module that realises the paper's Figure 4 workflow:

1. take a forward graph (from any frontend),
2. append the loss,
3. derive the backward graph at **compile time** for exactly the tensors
   the sparse-update scheme selects (pruned by construction),
4. attach the optimizer as in-place graph nodes,
5. run graph optimizations (folding, CSE, fusion, Winograd, layout),
6. schedule memory-aware (operator reordering + immediate updates),
7. emit an executable :class:`~repro.runtime.program.Program`.

Winograd and layout selection are decisions for the *target device*: they
annotate nodes the device cost model (:mod:`repro.devices.cost`) prices,
and the numpy kernels compute the same convolution whatever the
annotation says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..autodiff import build_backward
from ..errors import CompileError
from ..ir import Graph, GraphBuilder
from ..memory import profile_memory
from ..passes import (AlgebraicRewritePass, BiasActivationFusionPass,
                      CommonSubexpressionEliminationPass, ConstantFoldingPass,
                      DeadCodeEliminationPass, ElementwiseGroupPass,
                      GradientMaskFusionPass, LayoutSelectionPass,
                      ParallelLinearFusionPass, PassContext, PassManager,
                      WinogradSelectionPass, default_schedule,
                      memory_aware_schedule)
from ..sparse import ResolvedScheme, UpdateScheme, full_update
from ..train.loss import add_loss
from ..train.optim import OptimizerSpec, SGD, attach_optimizer
from .program import Program


@dataclass
class CompileOptions:
    """Feature switches; defaults are "everything on" (PockEngine mode).

    Baseline framework simulations flip these off to model conventional
    runtime-autodiff engines.
    """

    constant_folding: bool = True
    cse: bool = True
    rewrite: bool = True
    fusion: bool = True
    #: merge frozen same-input linear branches (Q/K/V) into one wide matmul
    parallel_fusion: bool = True
    #: annotate frozen 3x3 stride-1 dense convs ``algo="winograd"`` for the
    #: target device's cost model (paper §3.2); the host runs them direct
    winograd: bool = True
    layout: bool = True
    reorder: bool = True
    #: conventional frameworks keep every gradient until the optimizer step
    applies_last: bool = False
    #: "masked" sparse support: compute the full backward, mask updates
    masked_sparse: bool = False
    #: False for simulation-only compiles of full-size models: program state
    #: keeps zero-stride placeholder views instead of copying real buffers
    materialize_state: bool = True
    #: plan-lowering pass pipeline (:mod:`repro.runtime.passes`):
    #: ``"default"`` fuses adjacent elementwise instructions; ``"none"`` is
    #: the unoptimized oracle stream (byte-exact interpreter accounting);
    #: an explicit tuple of pass names runs exactly those. Part of the
    #: program cache key — differently-lowered plans never share a cached
    #: artifact.
    plan_passes: Any = "default"
    #: run the static plan verifier (:mod:`repro.analysis.planlint`) after
    #: every pass stage of plan lowering. ``None`` defers to the
    #: ``REPRO_VERIFY_PLANS`` environment switch (on in CI); True/False
    #: force it for this compile. Not part of the cache key — verification
    #: never changes the plan, only whether a bad one is allowed to exist.
    verify_plans: bool | None = None
    device: Any = None
    debug_validate: bool = False


@dataclass
class CompileReport:
    """What compilation did — surfaced in program.meta["report"]."""

    scheme: str
    num_nodes: int
    pass_stats: dict[str, dict] = field(default_factory=dict)
    peak_transient_bytes: int = 0
    resident_bytes: int = 0


def graph_pass_manager(options: CompileOptions) -> PassManager:
    """The graph-level pass pipeline ``options`` selects — the one both
    training and inference compiles run."""
    pipeline = []
    if options.constant_folding:
        pipeline.append(ConstantFoldingPass())
    if options.cse:
        pipeline.append(CommonSubexpressionEliminationPass())
    if options.rewrite:
        pipeline.append(AlgebraicRewritePass())
    pipeline.append(DeadCodeEliminationPass())
    if options.parallel_fusion:
        pipeline.append(ParallelLinearFusionPass())
    if options.fusion:
        pipeline.append(BiasActivationFusionPass())
        pipeline.append(GradientMaskFusionPass())
    if options.winograd:
        pipeline.append(WinogradSelectionPass())
    if options.layout:
        pipeline.append(LayoutSelectionPass())
    if options.fusion:
        pipeline.append(ElementwiseGroupPass())
    return PassManager(pipeline, debug=options.debug_validate)


def _request_lowering(program: Program, options: CompileOptions) -> None:
    """Record in ``program.meta`` how ``options`` wants the plan lowered
    (read back by :func:`repro.runtime.passes.run_pipeline`)."""
    program.meta["plan_passes"] = options.plan_passes
    if options.verify_plans is not None:
        program.meta["verify_plans"] = options.verify_plans


def compile_training(
    forward: Graph,
    *,
    loss: str = "softmax_ce",
    logits: str | None = None,
    optimizer: OptimizerSpec | None = None,
    scheme: UpdateScheme | None = None,
    options: CompileOptions | None = None,
) -> Program:
    """Compile a complete training step for ``forward``.

    Args:
        forward: traced forward graph (left untouched; it is cloned).
        loss: loss kind (``softmax_ce`` or ``mse``).
        logits: model output to attach the loss to (default: first output).
        optimizer: optimizer spec (default ``SGD(lr=0.01)``).
        scheme: sparse-update scheme (default: full update).
        options: compilation switches.

    Returns:
        An executable Program whose meta carries ``loss``, ``logits``,
        ``labels`` value names and the compile report.
    """
    options = options or CompileOptions()
    optimizer = optimizer or SGD(lr=0.01)
    graph = forward.clone()
    graph.name = f"{forward.name}.train"
    builder = GraphBuilder(graph=graph)

    logits = logits or (graph.outputs[0] if graph.outputs else None)
    if logits is None:
        raise CompileError("forward graph has no outputs to attach a loss to")
    labels, loss_value = add_loss(builder, loss, logits)

    if scheme is None:  # explicit emptiness must error, not become full
        scheme = full_update(graph)
    resolved = scheme.resolve(graph)
    if not resolved.updates:
        raise CompileError(f"scheme {scheme.name!r} updates nothing")

    if options.masked_sparse:
        # Conventional-framework behaviour: differentiate every trainable
        # tensor, then only apply the scheme's updates (gradients for the
        # rest are computed and thrown away).
        wrt = sorted(graph.trainable)
        backward = build_backward(graph, loss_value, wrt, slice_k={})
        grads = {p: backward.grads[p] for p in resolved.updates}
    else:
        backward = build_backward(
            graph, loss_value, resolved.params, slice_k=resolved.slice_k
        )
        grads = {p: backward.grads[p] for p in resolved.updates}

    attach_optimizer(builder, grads, optimizer,
                     slice_k=resolved.slice_k,
                     slice_axis=resolved.slice_axis)

    # Gradients were marked as graph outputs by autodiff so DCE keeps them;
    # once the optimizer consumes them they need not stay outputs (keeping
    # them alive would defeat the reordering memory win). Masked-sparse mode
    # keeps every gradient as an output, matching frameworks that park all
    # gradients in `.grad` slots until the separate optimizer step.
    if not options.masked_sparse:
        consumed = set(backward.grads.values())
        graph.outputs = [
            o for o in graph.outputs
            if o not in consumed or o == loss_value
        ]

    ctx = PassContext(updated_params=set(resolved.updates),
                      device=options.device)
    pass_report = graph_pass_manager(options).run(graph, ctx)

    # A training step returns its loss and its updates, not the forward's
    # outputs: nobody reads logits from a step (evaluation compiles its own
    # inference program), and as an output they would be held through the
    # whole backward and copied out of the slab every step. They stop being
    # outputs only now — they lead ``graph.outputs``, where a pass that
    # merges a value into another (CSE) renames them — so ``meta["logits"]``
    # names a value of the graph (the loss reads it); whatever the loss
    # does not read goes with them.
    count = len(forward.outputs)
    if logits in forward.outputs:
        logits = graph.outputs[forward.outputs.index(logits)]
    graph.outputs = graph.outputs[count:]
    graph.dead_code_elimination()

    if options.reorder:
        schedule = memory_aware_schedule(graph)
    else:
        schedule = default_schedule(graph, applies_last=options.applies_last)

    program = Program.from_graph(graph, schedule,
                                 copy_state=options.materialize_state)
    _request_lowering(program, options)
    if options.materialize_state:
        # Pay the lowering cost here, with compilation, so the first step a
        # tenant runs is already the zero-interpretation fast path.
        # Simulation-only compiles (placeholder state) skip it.
        program.plan()
    profile = profile_memory(graph, schedule)
    program.meta.update(
        loss=loss_value,
        logits=logits,
        labels=labels,
        scheme=resolved,
        optimizer=optimizer,
        report=CompileReport(
            scheme=scheme.name,
            num_nodes=len(graph.nodes),
            pass_stats={k: v.stats for k, v in pass_report.items()},
            peak_transient_bytes=profile.peak_transient_bytes,
            resident_bytes=profile.resident_bytes,
        ),
    )
    return program


def compile_inference(forward: Graph,
                      options: CompileOptions | None = None, *,
                      updated: Iterable[str] = ()) -> Program:
    """Compile a forward-only program with inference optimizations.

    ``updated`` names parameters something else writes after this compile
    (a training program sharing its state arrays): the graph passes treat
    them as trainable, so no folded constant or merged weight holds a
    copy of their compile-time values.
    """
    options = options or CompileOptions()
    graph = forward.clone()
    graph.name = f"{forward.name}.infer"
    ctx = PassContext(updated_params=set(updated), device=options.device)
    graph_pass_manager(options).run(graph, ctx)
    schedule = memory_aware_schedule(graph) if options.reorder \
        else default_schedule(graph)
    program = Program.from_graph(graph, schedule)
    _request_lowering(program, options)
    program.plan()
    return program
