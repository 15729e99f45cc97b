"""In-place optimizer apply kernels.

These are the only kernels that mutate inputs: ``param`` (and optimizer
state) are updated in place and the param array is returned as the output.
The ``slice_k``/``slice_axis`` attributes implement the paper's sub-layer
(channel-sparse) update: the provided gradient covers only the leading ``k``
input channels, so only that slice of the parameter/state is touched.

Adam and Lion follow the rule of :mod:`.reduce` / :mod:`.norm` — a fixed
ufunc sequence through ``out=`` — with every temporary in gradient-shaped
scratch: one buffer for Adam (``weight_decay`` adds the one array that is
the decayed gradient), two for Lion. Lion keeps the textbook operand order
and so its bits. Adam is the one kernel that does not: the single-buffer
form needs the bias corrections folded into Python scalars (``sqrt(v/c2)``
becomes ``sqrt(v)/sqrt(c2)`` and moves to the other side of the division),
which rounds differently in the last bit; tests hold it to a float64
reference.
"""

from __future__ import annotations

import math

import numpy as np

from . import donating_kernel, kernel


def _param_view(param: np.ndarray, attrs) -> np.ndarray:
    """View of the parameter slice being updated (whole tensor by default)."""
    k = attrs.get("slice_k")
    if k is None:
        return param
    axis = int(attrs.get("slice_axis", 0))
    index = [slice(None)] * param.ndim
    index[axis] = slice(0, int(k))
    return param[tuple(index)]


def _accumulation_gate(inputs, attrs):
    """Handle gradient accumulation (``accum_steps`` attr).

    Returns ``(core_inputs, grad)``: the inputs without the trailing
    [accumulator, tick] state, and the gradient to apply — ``None`` on
    micro-steps where the update is deferred.
    """
    n = int(attrs.get("accum_steps", 1))
    if n <= 1:
        return inputs, inputs[1]
    core, accum, tick = inputs[:-2], inputs[-2], inputs[-1]
    accum += inputs[1]
    tick += 1.0
    if int(tick.reshape(-1)[0]) % n:
        return core, None
    grad = accum / n
    accum[...] = 0.0
    return core, grad


def _sgd_step(inputs, attrs, donate: bool):
    """Shared SGD body; every numpy op matches the original temp-allocating
    sequence bitwise, ``donate`` only redirects writes into the dying
    gradient buffer instead of fresh temporaries."""
    inputs, grad = _accumulation_gate(inputs, attrs)
    param = inputs[0]
    if grad is None:
        return [param]
    lr = float(attrs["lr"])
    momentum = float(attrs.get("momentum", 0.0))
    wd = float(attrs.get("weight_decay", 0.0))
    view = _param_view(param, attrs)
    # With accumulation the gate already handed us a private averaged-grad
    # temporary, which is always safe to clobber.
    scratch = grad if (donate or int(attrs.get("accum_steps", 1)) > 1) \
        else None
    if wd:
        if scratch is None:
            grad = grad + wd * view
            scratch = grad  # the fresh sum is ours to clobber below
        else:
            grad = np.add(grad, wd * view, out=scratch)
    if momentum:
        mom = inputs[2]
        mom *= momentum
        mom += grad
        update = mom
    else:
        update = grad
    if scratch is None:
        view -= lr * update
    else:
        np.multiply(update, lr, out=scratch)
        np.subtract(view, scratch, out=view)
    return [param]


@kernel("apply_sgd")
def _apply_sgd(inputs, attrs):
    return _sgd_step(inputs, attrs, donate=False)


@donating_kernel("apply_sgd", clobbers=(1,))
def _apply_sgd_donating(inputs, attrs):
    return _sgd_step(inputs, attrs, donate=True)


@kernel("apply_adam")
def _apply_adam(inputs, attrs):
    inputs, grad = _accumulation_gate(inputs, attrs)
    param, _, m, v, step = inputs
    if grad is None:
        return [param]
    lr = float(attrs["lr"])
    b1 = float(attrs.get("beta1", 0.9))
    b2 = float(attrs.get("beta2", 0.999))
    eps = float(attrs.get("eps", 1e-8))
    wd = float(attrs.get("weight_decay", 0.0))
    view = _param_view(param, attrs)
    if wd:
        decayed = np.multiply(view, wd)
        grad = np.add(grad, decayed, out=decayed)
    t = float(step.reshape(-1)[0]) + 1.0
    step.fill(t)
    # Bias corrections as Python scalars, so no mhat / vhat pass exists:
    #   lr * (m/c1) / (sqrt(v/c2) + eps)
    #     == m * (lr*sqrt(c2)/c1) / (sqrt(v) + eps*sqrt(c2))
    root_c2 = math.sqrt(1 - b2 ** t)
    # m, v, view and the scratch all have the gradient's shape.
    s = np.multiply(grad, 1 - b1)
    m *= b1
    m += s
    np.multiply(grad, grad, out=s)
    s *= 1 - b2
    v *= b2
    v += s
    np.sqrt(v, out=s)
    s += eps * root_c2
    np.true_divide(m, s, out=s)
    s *= lr * root_c2 / (1 - b1 ** t)
    view -= s
    return [param]


@kernel("apply_lion")
def _apply_lion(inputs, attrs):
    # Lion (Chen et al. 2023): sign-of-interpolated-momentum update. The
    # paper fine-tunes LlamaV2 with Lion because it keeps a single state
    # buffer (memory-efficient vs Adam's two).
    inputs, grad = _accumulation_gate(inputs, attrs)
    param, _, m = inputs
    if grad is None:
        return [param]
    lr = float(attrs["lr"])
    b1 = float(attrs.get("beta1", 0.9))
    b2 = float(attrs.get("beta2", 0.99))
    wd = float(attrs.get("weight_decay", 0.0))
    view = _param_view(param, attrs)
    # Two gradient-shaped buffers, the interpolation and its sign: written
    # over its own input, np.sign leaves numpy's vectorised loop and costs
    # 4x at every size.
    s = np.multiply(m, b1)
    update = np.multiply(grad, 1 - b1)
    s += update
    np.sign(s, out=update)
    if wd:
        np.multiply(view, wd, out=s)
        update += s
    update *= lr
    view -= update
    np.multiply(grad, 1 - b2, out=s)
    m *= b2
    m += s
    return [param]
