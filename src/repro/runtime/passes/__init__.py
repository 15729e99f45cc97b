"""The plan-lowering pass pipeline: ``lower -> [passes] -> allocate``.

This package is the optimizing half of plan construction
(:func:`repro.runtime.plan.build_plan_spec` delegates here):

* :mod:`lower` — scheduled graph -> linear instruction stream (names, no
  slots yet);
* optimization passes, each ``fn(stream, ctx) -> (stream, stats)``:

  - :mod:`fuse_elementwise` — collapse runs of adjacent elementwise
    instructions, each feeding only the next, into single fused
    instructions (the intermediate slots vanish; no instruction moves);

* :mod:`allocate` — slots, static layouts, the slab placement (every
  intermediate's offset in one buffer; views resolved into aliases) and
  the plan's byte ledger, computed *after* the passes so the numbers
  describe the optimized stream. Every feed and every state value is a
  register slot the executor binds per step.

Constants are decided once, on the graph, by
:class:`repro.passes.constant_folding.ConstantFoldingPass`; the plan
passes never fold state.

Adding a pass: write ``fn(stream, ctx) -> (stream, stats)`` in a new
module, register it in :data:`PASSES`, and (if it should run by default)
append its name to :data:`DEFAULT_PASSES`. The equivalence contract every
pass must honour: byte-identical outputs and mutable state versus the
unoptimized stream, for any program.

Pass selection (``CompileOptions.plan_passes`` / the ``passes=`` argument
throughout the runtime): ``"default"`` runs :data:`DEFAULT_PASSES`,
``"none"`` runs only lower+allocate (the interpreter-oracle
configuration), and an explicit sequence of names runs exactly those, in
the given order.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...errors import ExecutionError
from ..plan import PlanSpec
from .allocate import allocate
from .fuse_elementwise import fuse_elementwise
from .lower import LoweredOp, LoweringContext, lower

#: name -> pass fn(stream, ctx) -> (stream, stats)
PASSES = {
    "fuse_elementwise": fuse_elementwise,
}

#: the pipeline ``passes="default"`` runs, in order
DEFAULT_PASSES: tuple[str, ...] = ("fuse_elementwise",)


def resolve_passes(passes: Any) -> tuple[str, ...]:
    """Normalize a pass selection to a tuple of registered pass names.

    Raises:
        ExecutionError: on an unknown pass name or selection value.
    """
    if passes is None or passes == "default":
        return DEFAULT_PASSES
    if passes == "none":
        return ()
    if isinstance(passes, str):
        raise ExecutionError(
            f"unknown pass selection {passes!r}; use 'default', 'none', "
            f"or a sequence of names from {sorted(PASSES)}")
    if not isinstance(passes, Sequence):
        raise ExecutionError(
            f"pass selection must be a string or sequence, got "
            f"{type(passes).__name__}")
    names = tuple(passes)
    for name in names:
        if name not in PASSES:
            raise ExecutionError(
                f"unknown lowering pass {name!r}; registered: "
                f"{sorted(PASSES)}")
    return names


def run_pipeline(program, passes: Any = None,
                 report: dict | None = None,
                 verify: bool | None = None) -> PlanSpec:
    """Lower ``program`` through the configured pipeline into a PlanSpec.

    ``passes=None`` defers to ``program.meta["plan_passes"]`` (set by the
    compiler from ``CompileOptions.plan_passes``), falling back to the
    default pipeline. Pass a dict as ``report`` to receive per-stage
    instruction counts and pass statistics (the perf-smoke benchmark
    publishes these).

    ``verify=None`` defers to ``program.meta["verify_plans"]`` (set from
    ``CompileOptions.verify_plans``) and then the ``REPRO_VERIFY_PLANS``
    environment switch. When on, every pass stage's intermediate stream
    is allocated and checked by the static plan verifier
    (:mod:`repro.analysis.planlint`), so a miscompiling pass is blamed by
    name at compile time instead of corrupting state at run time.

    Raises:
        PlanVerifyError: when verification is on and any stage's plan
            fails a static proof.
    """
    if passes is None:
        passes = program.meta.get("plan_passes")
    names = resolve_passes(passes)
    if verify is None:
        verify = program.meta.get("verify_plans")
    if verify is None:
        from ...analysis.planlint import verify_enabled
        verify = verify_enabled()
    ctx = LoweringContext(program)
    stream = lower(ctx)
    if report is not None:
        report["stages"] = [
            {"stage": "lower", "instructions": len(stream)}]

    def checked(spec: PlanSpec, stage: str) -> PlanSpec:
        if verify:
            from ...analysis.planlint import check_plan
            check_plan(spec, program, stage=stage)
        return spec

    # allocate() is pure w.r.t. the stream, so checking an intermediate
    # stage is just: allocate it, verify the spec.
    if verify:
        checked(allocate(stream, ctx, passes=()), "lower")
    applied: list[str] = []
    for name in names:
        stream, stats = PASSES[name](stream, ctx)
        applied.append(name)
        if report is not None:
            report["stages"].append(
                {"stage": name, "instructions": len(stream), **stats})
        if verify and name != names[-1]:
            checked(allocate(stream, ctx, passes=tuple(applied)), name)
    spec = checked(allocate(stream, ctx, passes=names), "allocate")
    if report is not None:
        report["stages"].append(
            {"stage": "allocate", "instructions": len(spec.instructions),
             "num_slots": spec.num_slots,
             "aliases": len(spec.aliases),
             "slab_bytes": spec.slab_bytes,
             "peak_transient_bytes": spec.peak_transient_bytes})
    return spec


__all__ = [
    "DEFAULT_PASSES",
    "LoweredOp",
    "LoweringContext",
    "PASSES",
    "allocate",
    "fuse_elementwise",
    "lower",
    "resolve_passes",
    "run_pipeline",
]
