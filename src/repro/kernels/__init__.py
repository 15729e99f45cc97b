"""Reference numpy kernels for every registered operator.

The executor dispatches through :data:`KERNELS`; each kernel takes the
node's input arrays and attribute dict and returns the output arrays.
Kernels never mutate their inputs, with the single documented exception of
the ``apply_*`` optimizer ops which update parameters and optimizer state
in place (that in-place behaviour is what the reorder pass exploits to
shrink gradient-buffer lifetimes).

Every kernel keeps one layout contract, which is what lets the execution
plan (:mod:`repro.runtime.plan`) decide contiguity at compile time: given
C-contiguous inputs it returns C-contiguous outputs. Beyond the base
registry, kernels advertise the properties the plan's static slab is built
on:

* ``view=True`` kernels (:data:`VIEW_OPS`) may return an array aliasing
  their input (reshape/transpose/slice) — or, when numpy cannot express the
  result as a view, a fresh C-contiguous copy. Which of the two, and with
  what strides, is a function of the input's layout alone
  (:func:`repro.kernels.shape.view_layout` asks numpy), so the plan
  resolves views of slab slots when it binds and they never execute. Every
  kernel that can return an input alias MUST be registered with
  ``view=True`` — the slab's overlap analysis depends on this list being
  complete.
* ``dense=fn`` kernels (:data:`DENSE_OPS`) return C-contiguous outputs
  for some non-C input layouts too — ``fn(layouts)`` says for which
  (matmul: a transposed operand only picks the GEMM's transpose flag) —
  so a strided operand does not cost them their place in the slab.
* :data:`OUT_KERNELS` are into-forms writing a caller-provided C-contiguous
  buffer (``fn(inputs, attrs, out) -> out``); they must write results
  bitwise identical to the base kernel for C-contiguous inputs (for every
  input layout a dense op's predicate accepts). Which inputs ``out`` may
  alias (given one of the output's shape and dtype), so that an output
  takes over a dying input's bytes, is :func:`aliasable_inputs`: any of an
  elementwise op's (:data:`OUT_ALIAS_SAFE`, the ops a fused chain may
  link), and input 0 where an into-form's :data:`OUT_ALIAS_RULES` entry
  holds for the node's attrs (the stride-1 depthwise convolutions, whose
  output channel ``c`` reads input channel ``c`` alone —
  :mod:`repro.kernels.conv2d`).
* :data:`DONATING_KERNELS` are variants that may clobber the inputs listed
  in :data:`DONATED_INPUTS` as scratch (the in-place optimizer applies use
  the dying gradient buffer to avoid temporaries). Outputs must again be
  bitwise identical to the base kernel's.
* :data:`OUT_EMITTERS` give an into-form's body as Python source, for the
  step generator (:mod:`repro.runtime.codegen`) to splice into the
  generated step in place of the call. The rule: an emitter may exist only
  for an into-form whose body is one numpy statement, it lives next to
  that kernel, and ``tests/test_codegen.py`` proves the two equal byte for
  byte on generated inputs (an op that gains an into-form or an emitter
  without an input strategy there fails the suite).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError

Kernel = Callable[[list[np.ndarray], dict[str, Any]], list[np.ndarray]]
OutKernel = Callable[[list[np.ndarray], dict[str, Any], np.ndarray],
                     np.ndarray]

#: ``fn(args, attrs, out) -> source | None``: ``args`` and ``out`` are the
#: source expressions of the inputs and of the output buffer, static attrs
#: become literals, and the returned statement (over those and ``np`` only)
#: leaves the into-form's result in ``out``. ``None`` means these attrs /
#: this arity have no one-statement form and the kernel is called as usual.
OutEmitter = Callable[[list[str], dict[str, Any], str], "str | None"]

KERNELS: dict[str, Kernel] = {}

#: ops whose kernel may return a view aliasing an input array
VIEW_OPS: set[str] = set()

#: op -> ``fn(layouts) -> bool``: are the outputs C-contiguous for inputs
#: laid out ``[(shape, byte strides), ...]`` (slot inputs, in order)?
DENSE_OPS: dict[str, Callable[[list[tuple]], bool]] = {}

#: single-output into-forms writing a caller-provided buffer, by op — or
#: by ``(op, variant)`` for the into-form of a :data:`VARIANT_KERNELS` entry
OUT_KERNELS: dict[str | tuple[str, str], OutKernel] = {}

#: out-capable ops where ``out`` may alias any same-shape input, whatever
#: the attrs (elementwise ufuncs) — the ops a fused chain may link
OUT_ALIAS_SAFE: set[str] = set()

#: ``fn(attrs, out_shape) -> bool``: may the into-form write a node's output
#: over its input 0 (of the output's shape and dtype)?
AliasRule = Callable[[dict[str, Any], tuple[int, ...]], bool]

#: into-form key (as in :data:`OUT_KERNELS`) -> when its ``out`` may alias
#: input 0
OUT_ALIAS_RULES: dict[str | tuple[str, str], AliasRule] = {}

#: source form of one-statement into-forms (see :data:`OutEmitter`)
OUT_EMITTERS: dict[str, OutEmitter] = {}

#: variants that may clobber specific inputs as scratch space
DONATING_KERNELS: dict[str, Kernel] = {}

#: op -> input indices the donating variant may clobber
DONATED_INPUTS: dict[str, tuple[int, ...]] = {}

#: (op, variant name) -> special kernel forms the plan's optimization
#: passes select (e.g. ``("conv2d", "winograd_precomputed")`` takes the
#: hoisted weight transform as an extra trailing input). Outputs must be
#: bitwise identical to the base kernel's.
VARIANT_KERNELS: dict[tuple[str, str], Kernel] = {}

#: transform name -> fn(array) -> array, applied once to frozen state to
#: fill a plan-owned precomputed slot (:mod:`repro.runtime.passes.
#: precompute_frozen`). Must be deterministic: the hoist is bitwise-safe
#: only because recomputing yields identical bytes.
PRECOMPUTE_TRANSFORMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {}


def kernel(name: str, *, view: bool = False, dense=None
           ) -> Callable[[Kernel], Kernel]:
    """Decorator registering a kernel for operator ``name``.

    ``view=True`` declares that the kernel may return an array aliasing its
    input; ``dense`` is the predicate over input layouts for which its
    outputs are C-contiguous beyond the all-C-contiguous case (see the
    module docstring).
    """

    def wrap(fn: Kernel) -> Kernel:
        KERNELS[name] = fn
        if view:
            VIEW_OPS.add(name)
        if dense is not None:
            DENSE_OPS[name] = dense
        return fn

    return wrap


def out_kernel(name: str, *, variant: str | None = None,
               alias_safe: bool | AliasRule = False
               ) -> Callable[[OutKernel], OutKernel]:
    """Decorator registering the into-form of ``name`` (of its ``variant``
    kernel when given). ``alias_safe=True``: ``out`` may alias any input of
    its shape and dtype; a rule: it may alias input 0 where the rule holds.
    """

    def wrap(fn: OutKernel) -> OutKernel:
        key = name if variant is None else (name, variant)
        OUT_KERNELS[key] = fn
        if alias_safe is True:
            OUT_ALIAS_SAFE.add(name)
        elif alias_safe:
            OUT_ALIAS_RULES[key] = alias_safe
        return fn

    return wrap


def into_form(op: str, variant: str = "base") -> OutKernel | None:
    """The into-form of ``op`` — of its ``variant`` kernel when not base."""
    return OUT_KERNELS.get(op if variant == "base" else (op, variant))


def aliasable_inputs(op: str, variant: str, attrs: dict[str, Any],
                     out_shape: tuple[int, ...], arity: int) -> range:
    """The inputs the into-form of ``op`` (its ``variant``) may write a
    node's output over, given one of the output's shape and dtype: every
    input of an :data:`OUT_ALIAS_SAFE` op, input 0 where the into-form's
    :data:`OUT_ALIAS_RULES` entry holds for ``attrs``, none otherwise. The
    one rule the plan's in-place reuse and its verifier both apply."""
    if op in OUT_ALIAS_SAFE:
        return range(arity)
    rule = OUT_ALIAS_RULES.get(op if variant == "base" else (op, variant))
    return range(1 if rule is not None and rule(attrs, out_shape) else 0)


def out_emitter(name: str) -> Callable[[OutEmitter], OutEmitter]:
    """Decorator registering the source form of ``OUT_KERNELS[name]``."""

    def wrap(fn: OutEmitter) -> OutEmitter:
        OUT_EMITTERS[name] = fn
        return fn

    return wrap


def int_tuple(values) -> str:
    """A static shape / axes attr as a tuple literal for an emitter (the
    bytecode compiler folds it into one constant)."""
    return repr(tuple(int(v) for v in values))


def donating_kernel(name: str, clobbers: tuple[int, ...]
                    ) -> Callable[[Kernel], Kernel]:
    """Decorator registering a variant allowed to clobber ``clobbers``."""

    def wrap(fn: Kernel) -> Kernel:
        DONATING_KERNELS[name] = fn
        DONATED_INPUTS[name] = tuple(clobbers)
        return fn

    return wrap


def variant_kernel(name: str, variant: str) -> Callable[[Kernel], Kernel]:
    """Decorator registering a special plan-selected variant of ``name``."""

    def wrap(fn: Kernel) -> Kernel:
        VARIANT_KERNELS[(name, variant)] = fn
        return fn

    return wrap


def register_transform(name: str):
    """Decorator registering a precompute transform under ``name``."""

    def wrap(fn):
        PRECOMPUTE_TRANSFORMS[name] = fn
        return fn

    return wrap


def run_op(op_type: str, inputs: list[np.ndarray],
           attrs: dict[str, Any]) -> list[np.ndarray]:
    """Execute one operator; raises :class:`ExecutionError` on failure."""
    try:
        fn = KERNELS[op_type]
    except KeyError:
        raise ExecutionError(f"no kernel registered for op {op_type!r}") from None
    return fn(inputs, attrs)


# Importing the submodules populates the registry.
from . import conv2d  # noqa: E402,F401
from . import elementwise  # noqa: E402,F401
from . import embedding  # noqa: E402,F401
from . import matmul  # noqa: E402,F401
from . import norm  # noqa: E402,F401
from . import optim  # noqa: E402,F401
from . import pooling  # noqa: E402,F401
from . import quantized  # noqa: E402,F401
from . import reduce  # noqa: E402,F401
from . import shape  # noqa: E402,F401
from . import winograd  # noqa: E402,F401

from .elementwise import make_fused_kernel  # noqa: E402

__all__ = [
    "DENSE_OPS",
    "DONATED_INPUTS",
    "DONATING_KERNELS",
    "KERNELS",
    "OUT_ALIAS_RULES",
    "OUT_ALIAS_SAFE",
    "OUT_EMITTERS",
    "OUT_KERNELS",
    "PRECOMPUTE_TRANSFORMS",
    "VARIANT_KERNELS",
    "VIEW_OPS",
    "aliasable_inputs",
    "donating_kernel",
    "int_tuple",
    "into_form",
    "kernel",
    "make_fused_kernel",
    "out_emitter",
    "out_kernel",
    "register_transform",
    "run_op",
    "variant_kernel",
]
