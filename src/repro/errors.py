"""Exception hierarchy for the PockEngine reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch engine failures without accidentally swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(ReproError):
    """An operator received inputs whose shapes are incompatible."""


class GraphError(ReproError):
    """A graph is structurally invalid (dangling refs, duplicate names, ...)."""


class CompileError(ReproError):
    """The compilation pipeline could not produce a program."""


class AutodiffError(ReproError):
    """No gradient rule exists, or differentiation failed."""


class SchemeError(ReproError):
    """A sparse-update scheme references unknown tensors or is malformed."""


class MemoryPlanError(ReproError):
    """Memory planning failed (overlapping lifetimes, over-capacity, ...)."""


class ExecutionError(ReproError):
    """The runtime executor failed while running a compiled program."""


class PlanVersionError(ExecutionError):
    """A serialized execution plan speaks a version this runtime does not.

    Distinct from a garbled plan: the artifact may be perfectly valid for
    another runtime build. Callers holding the graph (the program cache)
    catch this and fall back to re-lowering/recompiling.
    """


class PlanVerifyError(ExecutionError):
    """The static plan verifier rejected an execution plan.

    Raised by :mod:`repro.analysis.planlint` when a :class:`~repro.runtime.
    plan.PlanSpec` fails a structural proof (def-before-use, free-list
    safety, donation aliasing, byte accounting, ...). Distinct from
    :class:`PlanVersionError`: the plan speaks our version but describes a
    stream that would corrupt state if executed. The program cache
    quarantines artifacts that raise this, exactly like corrupt ones.
    """


class DeviceError(ReproError):
    """An unknown device was requested or a cost model query is invalid."""


class ServeError(ReproError):
    """The fine-tuning service was misused (unknown session, closed, ...)."""


class ServiceClosed(ServeError):
    """The service or its scheduler is shutting down and refuses new work.

    Typed so callers map it without reading the message: the gateway
    answers ``503`` for it on every route, whatever ids the message names.
    """


class CheckpointError(ServeError):
    """A session checkpoint is unreadable (corrupt, truncated, or a
    version this runtime does not speak).

    Distinct from ``ServeError`` so restore paths can quarantine the bad
    file and fall back to an earlier checkpoint version instead of
    failing the request outright.
    """


class DeadlineExpired(ServeError):
    """A request's end-to-end deadline passed before the work ran.

    Raised *instead of* doing the work: the serving layer sheds expired
    requests at every stage (gateway admission, scheduler cut, service
    submit) so a saturated queue stops burning workers on results nobody
    is waiting for. Maps to HTTP 504 at the gateway.
    """


class FaultInjected(ReproError):
    """An armed fault point fired (fault-injection tests only, such as
    ``tests/test_durability.py``).

    Never raised in production paths unless a fault was explicitly armed
    through :mod:`repro.serve.faults`.
    """
