"""Deployable artifacts: freeze a compiled program, reload it anywhere.

An artifact is a directory:

* ``manifest.json`` — format version, model name, execution order, the
  static arena (the plan's own slab: its size and every value's byte
  offset in it), the list of kernels the binary must link, the
  program's meta entries (loss/label names for training artifacts), and
  the serialized execution plan (:class:`~repro.runtime.plan.PlanSpec`),
* ``graph.json`` / ``graph.npz`` — the ONNX-like graph-def plus weights
  (the existing :mod:`repro.ir.serialize` format).

The loader needs only the kernel registry and the executor — none of the
compiler passes — mirroring how the real engine ships a binary that knows
nothing about autodiff or graph optimization. The loader does not even
lower the graph: the embedded plan spec is bound against the kernel
registry (:func:`repro.runtime.plan.bind_plan`) and the reloaded program
executes the exact instruction stream the compiling process produced.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# planlint is deliberately compiler-free, so importing it here keeps the
# step worker's import closure clean (asynclint's worker-import check
# walks module-level imports and would flag anything heavier).
from ..analysis.planlint import check_plan, verify_enabled
from ..errors import (ExecutionError, GraphError, PlanVersionError,
                      ReproError)
from ..ir import Graph
from ..ir.serialize import load_graph, save_graph
from ..runtime.executor import Executor
from ..runtime.plan import PlanSpec, bind_plan
from ..runtime.program import Program

MANIFEST = "manifest.json"

#: v2: graph + schedule + kernels list + the serialized plan spec (v1,
#: without the plan, is no longer read)
MANIFEST_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (2,)


@dataclass
class DeployedProgram:
    """A reloaded artifact, ready to execute."""

    graph: Graph
    program: Program
    required_kernels: tuple[str, ...]
    arena_bytes: int
    meta: dict

    def run(self, feeds: dict[str, np.ndarray] | None = None
            ) -> dict[str, np.ndarray]:
        """Execute one step (inference forward, or a full training step
        for artifacts compiled from a training program)."""
        return Executor(self.program).run(feeds)

    @property
    def flash_bytes(self) -> int:
        """Weights + code footprint per the binary-size model."""
        from .binsize import estimate_binary_size

        return estimate_binary_size(self.graph).total_bytes


def _meta_to_json(meta: dict) -> dict:
    """Keep only the JSON-safe, load-time-useful meta entries."""
    out = {}
    for key in ("loss", "logits", "labels"):
        value = meta.get(key)
        if isinstance(value, str):
            out[key] = value
    return out


def save_artifact(program: Program, path: str | Path) -> Path:
    """Write ``program`` to ``path`` (a directory, created if missing).

    The manifest embeds the program's serialized execution plan
    (:meth:`Program.plan_spec` — cached, so saving an already-lowered
    program costs no extra lowering) alongside the graph, schedule, and
    kernel list.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    graph = program.graph
    save_graph(graph, path / "graph")
    plan_spec = program.plan_spec()
    # The arena a minimal runtime must reserve *is* the plan's slab: value
    # name -> byte offset, for every slab-resident slot.
    outputs = {node.name: node.outputs for node in program.schedule}
    slot_names = {alias.slot: outputs[alias.node][0]
                  for alias in plan_spec.aliases}
    for instr in plan_spec.instructions:
        slot_names.update(zip(instr.output_slots, outputs[instr.node]))
    manifest = {
        "format_version": MANIFEST_VERSION,
        "model": graph.name,
        "schedule": [node.name for node in program.schedule],
        "kernels": sorted({node.op_type for node in program.schedule}),
        "kernel_variants": {
            name: sorted(variants)
            for name, variants in sorted(plan_spec.required_kernels().items())
        },
        "plan_passes": list(plan_spec.passes),
        "arena": {
            "bytes": plan_spec.slab_bytes,
            "offsets": {slot_names[entry.slot]: entry.offset
                        for entry in plan_spec.slab_slots},
        },
        "plan": plan_spec.to_dict(),
        "meta": _meta_to_json(program.meta),
    }
    (path / MANIFEST).write_text(json.dumps(manifest, indent=1))
    return path


def load_artifact(path: str | Path, *,
                  verify: bool | None = None) -> DeployedProgram:
    """Reload an artifact saved by :func:`save_artifact`.

    The embedded plan spec is deserialized and bound against the live
    kernel registry, so the returned program executes the compiling
    process's instruction stream without re-lowering — and without
    importing anything from the compiler or autodiff.

    Raises:
        GraphError: on a missing/garbled manifest, an unsupported version,
            a schedule referencing unknown nodes, a kernel the runtime does
            not provide, or a corrupted embedded plan.
        PlanVersionError: when the embedded plan speaks a spec version this
            runtime does not — the artifact itself may be fine for another
            build, so the error stays distinguishable (the program cache
            catches it and recompiles instead of failing the request).
        PlanVerifyError: when the embedded plan decodes but fails static
            verification (:mod:`repro.analysis.planlint`) — executing it
            could corrupt state, so it is rejected before binding. On by
            default; ``REPRO_VERIFY_PLANS=0`` (or ``verify=False``) opts
            out. The program cache quarantines such artifacts like
            corrupt ones. ``verify=None`` defers to the environment;
            ``repro lint-plan`` passes ``verify=False`` so it can collect
            every finding into a report instead of stopping at the first.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST).read_text())
    except FileNotFoundError:
        raise GraphError(f"no artifact manifest in {path}") from None
    except json.JSONDecodeError as exc:
        raise GraphError(f"garbled artifact manifest: {exc}") from None
    version = manifest.get("format_version")
    if version not in SUPPORTED_MANIFEST_VERSIONS:
        raise GraphError(f"unsupported artifact version {version}")

    try:
        graph = load_graph(path / "graph")
    except ReproError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        # Missing/truncated graph.json or graph.npz (json and zipfile
        # errors are ValueError/OSError subclasses): honour the GraphError
        # contract so callers like the persistent program cache can treat
        # an unreadable artifact as a miss instead of crashing a request.
        raise GraphError(f"unreadable artifact graph in {path}: {exc}") \
            from None
    by_name = {node.name: node for node in graph.nodes}
    try:
        schedule = [by_name[name] for name in manifest["schedule"]]
    except KeyError as exc:
        raise GraphError(f"schedule references unknown node {exc}") from None

    from ..kernels import KERNELS
    missing = [k for k in manifest["kernels"] if k not in KERNELS]
    if missing:
        raise GraphError(f"runtime lacks kernels for {missing}")

    program = Program.from_graph(graph, schedule)
    meta = dict(manifest.get("meta", {}))
    # Loss/logits/labels names ride along so serving layers can drive the
    # reloaded program exactly like a freshly compiled one.
    program.meta.update(meta)

    try:
        spec = PlanSpec.from_dict(manifest["plan"])
    except KeyError:
        raise GraphError("artifact manifest lacks an embedded plan") from None
    except PlanVersionError:
        raise  # version skew, not corruption: callers may recompile
    except ExecutionError as exc:
        raise GraphError(f"corrupted artifact plan: {exc}") from None
    produced = {name for name, _ in spec.output_slots}
    if produced != set(program.outputs):
        raise GraphError(
            f"artifact plan outputs {sorted(produced)} disagree with "
            f"graph outputs {sorted(program.outputs)}")
    # Static verification before binding: a structurally-decodable plan
    # can still be a miscompile (tampered slots, lying byte accounting).
    # PlanVerifyError propagates as itself — it is not "corruption we can
    # shrug at" but a plan that would silently trash state; the program
    # cache quarantines the artifact.
    run_verify = verify if verify is not None \
        else verify_enabled(default=True)  # REPRO_VERIFY_PLANS=0 opts out
    if run_verify:
        check_plan(spec, program, stage=f"artifact load ({path})")
    try:
        program.attach_plan_spec(spec)
        program.meta["__plan__"] = bind_plan(spec, by_name)
    except ExecutionError as exc:
        raise GraphError(f"corrupted artifact plan: {exc}") from None

    return DeployedProgram(
        graph=graph,
        program=program,
        required_kernels=tuple(manifest["kernels"]),
        arena_bytes=int(manifest["arena"]["bytes"]),
        meta=meta,
    )
