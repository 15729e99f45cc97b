"""Runtime: compiled programs and the numpy executor.

The compiler entry points (:func:`repro.runtime.compiler.compile_training`)
live in :mod:`repro.runtime.compiler`; they are re-exported here once the
pass pipeline is assembled.
"""

from .executor import Executor, interpret
from .plan import (BufferSet, ExecutionPlan, FusedLinkSpec, PlanSpec,
                   PrecomputedSpec, bind_plan, build_plan, build_plan_spec)
from .profiler import (NodeTiming, RuntimeProfile, analytical_profile,
                       profile_run)
from .program import Program

__all__ = [
    "BufferSet",
    "ExecutionPlan",
    "Executor",
    "FusedLinkSpec",
    "NodeTiming",
    "PlanSpec",
    "PrecomputedSpec",
    "Program",
    "RuntimeProfile",
    "analytical_profile",
    "bind_plan",
    "build_plan",
    "build_plan_spec",
    "interpret",
    "profile_run",
]
