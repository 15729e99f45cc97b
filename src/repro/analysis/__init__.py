"""Static analyzers: compile-time proofs the runtime used to discover late.

Two analyzers over one :class:`~repro.analysis.report.Finding` model:

* :mod:`repro.analysis.planlint` — verifies a lowered
  :class:`~repro.runtime.plan.PlanSpec` against its program: slot
  liveness, free-list safety, donation aliasing, kernel schemas, and an
  independent replay of ``allocate``'s byte accounting. Wired into the
  pass pipeline (``REPRO_VERIFY_PLANS`` / ``CompileOptions.
  verify_plans``), artifact load, the program cache, and
  ``repro lint-plan``.
* :mod:`repro.analysis.asynclint` — keeps the gateway's event loop
  honest (no blocking calls reachable from ``async def``) and proves the
  step worker's compiler-free import closure statically.

This package imports only the IR, kernel registries, and plan data
model — never the compiler — so the analyzers are safe to run anywhere,
including inside deployed workers.
"""

from .asynclint import (lint_module, lint_paths, lint_tree,
                        lint_worker_imports, worker_import_report)
from .planlint import (PlanInterval, check_plan, plan_intervals,
                       report_for, verify_enabled, verify_plan_spec,
                       verify_program)
from .report import Finding, Report, format_findings, parse_waivers

__all__ = [
    "Finding",
    "PlanInterval",
    "Report",
    "check_plan",
    "format_findings",
    "lint_module",
    "lint_paths",
    "lint_tree",
    "lint_worker_imports",
    "parse_waivers",
    "plan_intervals",
    "report_for",
    "verify_enabled",
    "verify_plan_spec",
    "verify_program",
]
