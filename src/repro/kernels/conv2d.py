"""Convolution kernels: im2col forward, input gradient as a gather,
im2col-matmul weight gradient. Grouped (incl. depthwise) convolutions are
supported throughout.

Layout is NCHW with OIHW weights; the layout pass may annotate nodes with a
``layout`` attribute for cost modelling, but numeric kernels always compute
in NCHW (the transform only affects the *device cost model*, matching how we
simulate hardware rather than own it).

``conv2d_dx`` — the input gradient is itself a convolution, so wherever it
pays it runs through the *forward* kernel (im2col + one GEMM) instead of a
GEMM followed by :func:`col2im`'s ``kh*kw`` strided ``+=`` scatters:

* stride 1, any ``groups``: ``dx = conv2d_forward(grad, flipT(w), stride=1,
  padding=k-1-p)`` with ``flipT`` the 180-degree-rotated,
  in/out-transposed-per-group weight (:func:`_flip_transpose`);
* 1x1 / stride 1 / pad 0 / ungrouped: the GEMM result *is* ``dx`` —
  nothing to unfold and nothing to fold;
* stride > 1, depthwise: the same gather over the zero-inserted gradient
  (:func:`_dilate`). The inserted zeros waste ``sh*sw``x multiplies, which
  depthwise convs (9 multiplies per output) never notice;
* stride > 1, dense or grouped-but-not-depthwise: GEMM + ``col2im`` stays.
  There the multiplies are the cost, zero-insertion does ``sh*sw`` times
  too many of them, and the phase (sub-pixel) decomposition that avoids
  them pays ``sh*sw`` im2cols and GEMMs for the one it saves;
* ``pad > k-1`` has no gather form (negative padding) and also folds.

The rule reads only static attrs (stride, groups, kernel size, padding).
Best-of-N µs on the development host, one BLAS thread, old = GEMM +
``col2im`` everywhere (``zins`` = zero-insertion, ``phase`` = sub-pixel):

====================================  =======  =======  =======  =======
``conv2d_dx`` case (input, k3 p1)     old      gather   zins     phase
====================================  =======  =======  =======  =======
depthwise (2,24,16,16) s1                 360       93
depthwise (8,64,32,32) s1               15470     3950
dense (8,64->64,32,32) s1               11340     8420
dense (8,16->32,16,16) s1                 869      882
1x1 (2,24->8,16,16) s1 p0                  12        7
depthwise (2,24,16,16) s2                 228                107      191
depthwise (8,64,32,32) s2                6790               3810     2970
dense (8,64->64,32,32) s2                4300               8660     4550
dense (8,16->32,16,16) s2                 254                673      298
groups=2 (8,16->32,16,16) s2              242                543      410
====================================  =======  =======  =======  =======
"""

from __future__ import annotations

import numpy as np

from . import (kernel, out_kernel, register_transform, variant_kernel,
               workspace)
from .elementwise import epilogue_into


#: parsed stride/padding pairs, keyed by the raw attr value. Conv graphs
#: carry a handful of distinct configurations but the kernels parse them on
#: every step, so a tiny memo removes the per-call int() churn.
_PAIR_CACHE: dict = {}


def _pair(value) -> tuple[int, int]:
    key = (value[0], value[1]) if isinstance(value, (tuple, list)) else value
    try:
        return _PAIR_CACHE[key]
    except KeyError:
        pass
    except TypeError:  # unhashable attr value — parse without caching
        key = None
    pair = (int(value[0]), int(value[1])) \
        if isinstance(value, (tuple, list)) else (int(value), int(value))
    if key is not None:
        _PAIR_CACHE[key] = pair
    return pair


def _pad2d(x: np.ndarray, ph: int, pw: int,
           extra_h: int = 0, extra_w: int = 0) -> np.ndarray:
    """Zero-pad H/W (``extra_*`` more trailing rows/cols: Winograd rounds
    the padded input up to whole tiles). np.pad's generic machinery costs
    tens of µs per call, which dominates small-resolution convs;
    border-zero + interior-assign is ~5x cheaper, writes every element
    exactly once (so the buffer can come from the recycled workspace), and
    padding-free convs (every 1x1) skip the copy entirely."""
    if not (ph or pw or extra_h or extra_w):
        return x
    n, c, h, w = x.shape
    xp = workspace.take((n, c, h + 2 * ph + extra_h, w + 2 * pw + extra_w),
                        x.dtype)
    xp[:, :, :ph] = 0
    xp[:, :, ph + h:] = 0
    xp[:, :, ph:ph + h, :pw] = 0
    xp[:, :, ph:ph + h, pw + w:] = 0
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
           ph: int, pw: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` [N,C,H,W] into columns [N, C*kh*kw, Ho*Wo].

    The column matrix is workspace scratch: callers that finish consuming
    it (and every view of it) should hand it back via
    :func:`repro.kernels.workspace.give` so the next step's unfold
    recycles the buffer instead of allocating.
    """
    n, c, h, w = x.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xp = _pad2d(x, ph, pw)
    cols = workspace.take((n, c, kh, kw, ho, wo), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    if xp is not x:  # pad scratch dies here; the input is caller-owned
        workspace.give(xp)
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
           sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Fold columns [N, C*kh*kw, Ho*Wo] back, accumulating overlaps.

    The padded fold target is workspace scratch (the last un-pooled conv
    scratch path): for padded convs it is copied out and recycled, so each
    step's fold reuses the previous step's buffer instead of allocating.
    Padding-free folds return the buffer itself — it escapes the kernel as
    the gradient, so it is deliberately never given back (take-without-
    give is always safe; the plan copies the result into its slab and the
    buffer is simply freed).
    """
    n, c, h, w = x_shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    xp = workspace.take((n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
    xp[...] = 0
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += cols[:, :, i, j]
    if ph == 0 and pw == 0:
        return xp
    # Copy the interior out instead of returning a strided view: values are
    # identical, the scratch can be recycled, and the result keeps the
    # kernel layout contract (C-contiguous in, C-contiguous out).
    dx = np.empty((n, c, h, w), dtype=cols.dtype)
    dx[...] = xp[:, :, ph:ph + h, pw:pw + w]
    workspace.give(xp)
    return dx


#: im2col scratch bound for grouped convs: chunks of groups are unfolded
#: and matmul'd together (a per-group Python loop is an order of magnitude
#: slower on depthwise MBConv stacks, but unfolding *all* groups at once
#: would multiply kernel-side scratch ~groups-fold on big inputs — scratch
#: the transient-bytes accounting can't see).
_GROUP_SCRATCH_CAP = 16 << 20


def _group_chunk(groups: int, bytes_per_group: int) -> int:
    """How many groups to unfold per chunk under the scratch cap."""
    return max(1, min(groups, _GROUP_SCRATCH_CAP // max(1, bytes_per_group)))


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride=1, padding=0,
                   groups: int = 1, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """Plain (direct, im2col-backed) convolution forward.

    ``out`` (C-contiguous, of the result's shape) receives the GEMM's
    result directly — the same call into the same-layout buffer, so the
    same bytes as the fresh array it would otherwise allocate.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, cin, _, _ = x.shape
    cout, cin_g, kh, kw = w.shape
    if groups == 1:
        cols, ho, wo = im2col(x, kh, kw, sh, sw, ph, pw)
        # (cout, k) @ (n, k, l) broadcasts over the batch dim -> (n, cout, l)
        y = np.matmul(w.reshape(cout, -1), cols, out=None if out is None
                      else out.reshape(n, cout, ho * wo))
        workspace.give(cols)
        return y.reshape(n, cout, ho, wo)
    # Grouped path: batched matmul over (batch, group) chunks — im2col's
    # column layout is channel-major, so each group's rows are contiguous.
    cg_out = cout // groups
    k = cin_g * kh * kw
    ho = (x.shape[2] + 2 * ph - kh) // sh + 1
    wo = (x.shape[3] + 2 * pw - kw) // sw + 1
    chunk = _group_chunk(groups, n * k * ho * wo * x.itemsize)
    wg = w.reshape(groups, cg_out, k)
    out4 = None if out is None else out.reshape(n, groups, cg_out, ho * wo)
    outs = []
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        xg = x[:, g0 * cin_g:g1 * cin_g]
        cols, ho, wo = im2col(xg, kh, kw, sh, sw, ph, pw)
        colsg = cols.reshape(n, g1 - g0, k, ho * wo)
        yg = np.matmul(wg[None, g0:g1], colsg,  # (n, g1-g0, cg_out, l)
                       out=None if out4 is None else out4[:, g0:g1])
        workspace.give(cols)  # next chunk's im2col recycles the buffer
        outs.append(yg.reshape(n, (g1 - g0) * cg_out, ho, wo))
    if out is not None:
        return out
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)


def _epilogue(y: np.ndarray, bias: np.ndarray | None, attrs,
              out: np.ndarray | None) -> np.ndarray:
    """Fused per-channel bias and activation, in the conv's own result
    ``y`` — ``out``'s buffer when the caller gave one."""
    if bias is not None:
        bias = bias.reshape(1, -1, 1, 1)
    return epilogue_into(y, bias, attrs.get("activation"), out)


def _conv2d_into(inputs, attrs, out):
    x, w = inputs[0], inputs[1]
    algo = attrs.get("algo", "direct")
    if algo == "winograd":
        from .winograd import winograd_conv2d

        y = winograd_conv2d(x, w, padding=attrs.get("padding", 0), out=out)
    else:
        y = conv2d_forward(x, w, attrs.get("stride", 1),
                           attrs.get("padding", 0),
                           int(attrs.get("groups", 1)), out)
    return _epilogue(y, inputs[2] if len(inputs) == 3 else None, attrs,
                     out)


@kernel("conv2d")
def _conv2d(inputs, attrs):
    return [_conv2d_into(inputs, attrs, None)]


out_kernel("conv2d")(_conv2d_into)


@variant_kernel("conv2d", "winograd_precomputed")
def _conv2d_winograd_precomputed(inputs, attrs):
    return [_winograd_precomputed_into(inputs, attrs, None)]


@out_kernel("conv2d", variant="winograd_precomputed")
def _winograd_precomputed_into(inputs, attrs, out):
    """Winograd conv with the weight transform hoisted to a plan slot.

    The precompute_frozen pass appends the plan-owned ``U`` as the trailing
    input; everything else mirrors the ``algo == "winograd"`` branch of the
    base kernel, so outputs are bitwise identical — the transform was
    computed by the same function the base kernel would call inline, in
    the ``(16, O, C)`` layout the batched GEMM consumes as is.
    """
    from .winograd import winograd_conv2d

    x, w, u = inputs[0], inputs[1], inputs[-1]
    y = winograd_conv2d(x, w, padding=attrs.get("padding", 0), u=u, out=out)
    # a fused bias rides between the weights and U
    return _epilogue(y, inputs[2] if len(inputs) == 4 else None, attrs,
                     out)


@register_transform("im2col_weight")
def _im2col_weight(w: np.ndarray) -> np.ndarray:
    """Flatten a 1x1 OIHW weight to the (cout, cin) GEMM operand.

    Exactly the ``w.reshape(cout, -1)`` the base kernel performs inline
    for a 1x1/pad-0/groups-1 conv, made contiguous once (for contiguous
    state this is a free view of the same buffer).
    """
    return np.ascontiguousarray(w.reshape(w.shape[0], -1))


@variant_kernel("conv2d", "im2col_precomputed")
def _conv2d_im2col_precomputed(inputs, attrs):
    return [_im2col_precomputed_into(inputs, attrs, None)]


@out_kernel("conv2d", variant="im2col_precomputed")
def _im2col_precomputed_into(inputs, attrs, out):
    """1x1/pad-0/groups-1 conv with the weight pre-flattened to 2-D.

    For these convs im2col is a pure copy: every "column" is just the
    (strided) activation itself. The variant feeds the activation straight
    into the GEMM as a reshape view — skipping the whole-activation
    workspace copy the base kernel pays — with the plan-owned flattened
    weight as the trailing input. Bitwise identity with the base kernel
    holds because both GEMM operands keep the exact layout (C-contiguous)
    and values the base path produces.
    """
    x, w2 = inputs[0], inputs[-1]
    sh, sw = _pair(attrs.get("stride", 1))
    n, cin, h, wdim = x.shape
    cout = w2.shape[0]
    if sh == 1 and sw == 1:
        cols = np.ascontiguousarray(x).reshape(n, cin, h * wdim)
        ho, wo = h, wdim
    else:
        sub = x[:, :, ::sh, ::sw]
        ho, wo = sub.shape[2], sub.shape[3]
        cols = np.ascontiguousarray(sub).reshape(n, cin, ho * wo)
    y = np.matmul(w2, cols, out=None if out is None
                  else out.reshape(n, cout, ho * wo)).reshape(n, cout, ho, wo)
    # a fused bias rides between the weights and w2
    return _epilogue(y, inputs[2] if len(inputs) == 4 else None, attrs,
                     out)


def _flip_transpose(w: np.ndarray, groups: int) -> np.ndarray:
    """The weight of the adjoint conv: every filter rotated 180 degrees and
    in/out channels swapped within each group, ``(O, I/g, kh, kw)`` ->
    ``(I, O/g, kh, kw)``."""
    cout, cin_g, kh, kw = w.shape
    cg_out = cout // groups
    wf = w.reshape(groups, cg_out, cin_g, kh, kw)[..., ::-1, ::-1]
    return np.ascontiguousarray(wf.transpose(0, 2, 1, 3, 4)).reshape(
        groups * cin_g, cg_out, kh, kw)


def _dilate(grad: np.ndarray, in_hw: tuple[int, int], k_hw: tuple[int, int],
            stride: tuple[int, int], pad: tuple[int, int]) -> np.ndarray:
    """Zero-insert a strided conv's output gradient (and pad it) so that a
    stride-1, pad-0 conv over the flipped weight yields ``dx`` exactly.

    Rows/cols past the last window (``(h + 2p - k) % s != 0``) stay zero:
    they never reached the forward output, so they receive no gradient.
    Workspace scratch — the caller gives it back.
    """
    n, c, gh, gw = grad.shape
    top, left = k_hw[0] - 1 - pad[0], k_hw[1] - 1 - pad[1]
    z = workspace.take((n, c, in_hw[0] + k_hw[0] - 1,
                        in_hw[1] + k_hw[1] - 1), grad.dtype)
    z[...] = 0
    z[:, :, top:top + stride[0] * gh:stride[0],
      left:left + stride[1] * gw:stride[1]] = grad
    return z


@kernel("conv2d_dx")
def _conv2d_dx(inputs, attrs):
    return [_conv2d_dx_into(inputs, attrs, None)]


@out_kernel("conv2d_dx")
def _conv2d_dx_into(inputs, attrs, out):
    grad, w = inputs
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    in_shape = tuple(int(d) for d in attrs["input_shape"])
    n, cin, h, wdim = in_shape
    cout, cin_g, kh, kw = w.shape
    cg_out = cout // groups
    unit_stride = sh == 1 and sw == 1
    if ph > kh - 1 or pw > kw - 1 \
            or not (unit_stride or cin_g == cg_out == 1):
        dx = _conv2d_dx_fold(grad, w, in_shape, sh, sw, ph, pw, groups)
        if out is not None:  # the fold's own buffer: copied in
            np.copyto(out, dx)
    elif unit_stride and kh == kw == 1 and groups == 1:
        # 1x1/s1/p0: the GEMM result *is* dx, nothing to unfold or fold.
        dx = np.matmul(w.reshape(cout, cin).transpose(),
                       grad.reshape(n, cout, -1),
                       out=None if out is None
                       else out.reshape(n, cin, -1)).reshape(in_shape)
    elif unit_stride:
        dx = conv2d_forward(grad, _flip_transpose(w, groups), 1,
                            (kh - 1 - ph, kw - 1 - pw), groups, out)
    else:
        z = _dilate(grad, (h, wdim), (kh, kw), (sh, sw), (ph, pw))
        dx = conv2d_forward(z, _flip_transpose(w, groups), 1, 0, groups,
                            out)
        workspace.give(z)
    return dx if out is None else out


def _conv2d_dx_fold(grad, w, in_shape, sh, sw, ph, pw, groups):
    """``dx`` as GEMM + :func:`col2im` scatter — the static cases where the
    gather is not available (``pad > k - 1``) or loses (strided convs that
    are not depthwise; see the module docstring)."""
    n, cin, h, wdim = in_shape
    cout, cin_g, kh, kw = w.shape
    if groups == 1:
        # w^T @ grad broadcast over the batch (einsum would re-derive its
        # contraction path on every call, ~50µs of overhead per node).
        dcols = np.matmul(w.reshape(cout, -1).transpose(),
                          grad.reshape(n, cout, -1))
        return col2im(dcols, in_shape, kh, kw, sh, sw, ph, pw)
    # Vectorised over group chunks: each chunk's column gradients form a
    # channel-major block folded back with one col2im (scratch bounded by
    # _GROUP_SCRATCH_CAP).
    cg_out = cout // groups
    k = cin_g * kh * kw
    l = grad.shape[2] * grad.shape[3]
    g2 = grad.reshape(n, groups, cg_out, l)
    wgT = w.reshape(groups, cg_out, k).transpose(0, 2, 1)
    chunk = _group_chunk(groups, n * k * l * grad.itemsize)
    if chunk >= groups:
        dcols = np.matmul(wgT[None], g2).reshape(n, cin * kh * kw, l)
        return col2im(dcols, in_shape, kh, kw, sh, sw, ph, pw)
    dx = np.empty(in_shape, dtype=grad.dtype)
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        dcols = np.matmul(wgT[None, g0:g1], g2[:, g0:g1])
        dcols = dcols.reshape(n, (g1 - g0) * k, l)
        dx[:, g0 * cin_g:g1 * cin_g] = col2im(
            dcols, (n, (g1 - g0) * cin_g, h, wdim), kh, kw, sh, sw, ph, pw)
    return dx


@kernel("conv2d_dw")
def _conv2d_dw(inputs, attrs):
    x, grad = inputs
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    kh, kw = _pair(attrs["kernel_hw"])
    n, cin, _, _ = x.shape
    cout = grad.shape[1]
    cin_g = cin // groups
    if groups == 1:
        cols, _, _ = im2col(x, kh, kw, sh, sw, ph, pw)
        g2 = grad.reshape(n, cout, -1)
        dw = np.tensordot(g2, cols, axes=([0, 2], [0, 2]))
        workspace.give(cols)
        return [dw.reshape(cout, cin, kh, kw)]
    # Grouped path: batched grad @ cols^T per (batch, group) chunk,
    # reduced over the batch (scratch bounded by _GROUP_SCRATCH_CAP).
    cg_out = cout // groups
    k = cin_g * kh * kw
    l = grad.shape[2] * grad.shape[3]
    g2 = grad.reshape(n, groups, cg_out, l)
    chunk = _group_chunk(groups, n * k * l * x.itemsize)
    dw = np.empty((cout, cin_g, kh, kw), dtype=x.dtype)
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        xg = x[:, g0 * cin_g:g1 * cin_g]
        cols, _, _ = im2col(xg, kh, kw, sh, sw, ph, pw)
        colsg = cols.reshape(n, g1 - g0, k, l)
        dwg = np.matmul(g2[:, g0:g1], colsg.transpose(0, 1, 3, 2)).sum(axis=0)
        workspace.give(cols)
        dw[g0 * cg_out:g1 * cg_out] = dwg.reshape(
            (g1 - g0) * cg_out, cin_g, kh, kw)
    return [dw]
