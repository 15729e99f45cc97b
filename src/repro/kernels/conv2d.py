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

Whichever branch ran, a third input is the packed bit mask of the
activation that fed the conv (``mask_mul`` folded in by
:mod:`repro.passes.fusion`): ``dx`` is multiplied by it where it lies,
through ``mask_mul``'s own body, so the bytes are the unfused pair's.

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

:func:`im2col` — what a small conv costs is its unfold (the M=1, K=9 GEMM
is 7 of a depthwise (2,24,16,16) forward's 64 µs), and what the unfold costs
is run length, not call count: a tap sliced out of a padded copy moves ``h``
runs of ``w`` elements per plane — 64 bytes at ``w = 16`` — at 4.8 µs per
12 288 floats; as one run per plane they move in 2.1. So the column matrix
(same bytes, same layout, same GEMM) is built by three static rules:

1. stride 1, "same" (``2p = k - 1``), plane-contiguous input: output and
   input share a row pitch, so tap ``(i, j)`` is the flat plane shifted by
   ``(i - ph) * w + j - pw`` — one run per plane, no padded copy — and the
   padding is the rows / columns zeroed afterwards (:func:`_unfold_same`).
   Forwards, ``conv2d_dw`` and the stride-1 ``conv2d_dx`` all take it;
2. strided depthwise ``conv2d_dx``: the gradient is zero-inserted at the
   *input's own size* (odd ``k``, ``p <= (k - 1) / 2``), which makes its
   adjoint a "same" conv (:func:`_dilate`);
3. 1x1 / stride 1 / pad 0 / ungrouped, forward and ``conv2d_dw``: the
   operand is ``x.reshape(n, c, h * w)``, a view (:func:`_columns`).

Everything else pads and slices. Unfold alone, hot µs, padded -> flat:
(2,8,16,16) 29 -> 21; (2,24,16,16) 48 -> 29; (2,48,8,8) 55 -> 24;
(8,24,16,16) 260 -> 133; dense (2,16,16,16) 43 -> 22, (8,64,32,32) 2700 ->
2500. The depthwise (2,24,16,16) forward whole: 64 -> 38; measured and
rejected: all taps in one ``np.copyto`` over an ``as_strided`` window of the
padded copy 49 (the nine calls were worth 15 µs, the run length 26);
shift-and-accumulate with no column matrix 136; ``einsum`` over the window
271; multiply + ``add.reduce`` 72 — the last three also change the bits.

In place (:func:`_depthwise_in_place`, MCUNet's in-place depthwise
convolution): a stride-1 depthwise ``conv2d`` / ``conv2d_dx`` (groups ==
output channels > 1) may write its output over input 0
(``x`` / ``grad``) of the output's own shape. The grouped path copies each
chunk of groups into the im2col scratch before its GEMM writes
``out[:, g0:g1]``; with one channel in per channel out that slice is the
chunk's own channels, and later chunks read channels not yet written. The
epilogue and the mask run elementwise over ``out``. A 1x1 dense conv has
no such order: its
operand is a view of ``x`` (rule 3), and ``np.matmul`` handed an ``out``
over it copies ``x`` first, so the bytes the slab would save come back as
a temporary nothing accounts for. Dense and strided convs keep their own
buffers.

``algo`` (``"winograd"`` on frozen 3x3 stride-1 dense convs, set by
:class:`repro.passes.WinogradSelectionPass`) is a cost-model annotation
for the target device (:func:`repro.devices.estimate_latency` prices its
multiply reduction); the kernels read no ``algo`` and run every conv
direct.
"""

from __future__ import annotations

import numpy as np

from . import kernel, out_kernel, workspace
from .elementwise import epilogue_into, mask_mul_into


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


def _pad2d(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad H/W. np.pad's generic machinery costs tens of µs per call,
    which dominates small-resolution convs; border-zero + interior-assign
    is ~5x cheaper, writes every element exactly once (so a dirty scratch
    buffer is safe), and padding-free convs (every 1x1) skip the copy
    entirely."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    xp = workspace.take((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    xp[:, :, :ph] = 0
    xp[:, :, ph + h:] = 0
    xp[:, :, ph:ph + h, :pw] = 0
    xp[:, :, ph:ph + h, pw + w:] = 0
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
           ph: int, pw: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` [N,C,H,W] into columns [N, C*kh*kw, Ho*Wo].

    The column matrix is kernel scratch
    (:func:`repro.kernels.workspace.take`), owned, never a view of ``x``.
    """
    n, c, h, w = x.shape
    if sh == sw == 1 and 2 * ph == kh - 1 and 2 * pw == kw - 1 \
            and x.strides[2:] == (w * x.itemsize, x.itemsize):
        return _unfold_same(x, kh, kw, ph, pw), h, w
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xp = _pad2d(x, ph, pw)
    cols = workspace.take((n, c, kh, kw, ho, wo), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def _unfold_same(x: np.ndarray, kh: int, kw: int, ph: int, pw: int
                 ) -> np.ndarray:
    """Rule 1 (module docstring). Every element of the dirty scratch is
    written: what a shift wraps around a row end, or leaves unwritten at
    the plane's ends, is exactly the padding the fills zero. On a plane
    smaller than the kernel's reach a tap can be all padding — its shift
    is past the plane, nothing is copied and the fills own it."""
    n, c, h, w = x.shape
    hw = h * w
    cols = workspace.take((n, c, kh, kw, h, w), x.dtype)
    flat = cols.reshape(n, c, kh, kw, hw)
    xf = x.reshape(n, c, hw)
    for i in range(kh):
        for j in range(kw):
            d = (i - ph) * w + j - pw
            if 0 <= d < hw:
                flat[:, :, i, j, :hw - d] = xf[:, :, d:]
            elif -hw < d < 0:
                flat[:, :, i, j, -d:] = xf[:, :, :d]
    for i in range(ph):  # padding: top rows of the taps above, bottom below
        cols[:, :, i, :, :ph - i] = 0
        cols[:, :, kh - 1 - i, :, max(0, h - ph + i):] = 0
    for j in range(pw):
        cols[:, :, :, j, :, :pw - j] = 0
        cols[:, :, :, kw - 1 - j, :, max(0, w - pw + j):] = 0
    return cols.reshape(n, c * kh * kw, hw)


def _columns(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
             ph: int, pw: int) -> tuple[np.ndarray, int, int]:
    """An ungrouped conv's GEMM operand. Rule 3: over C-contiguous ``x`` a
    1x1 / stride 1 / pad 0 conv's column matrix *is*
    ``x.reshape(n, c, h * w)`` — a view, no scratch."""
    if kh == kw == sh == sw == 1 and ph == pw == 0 and x.flags.c_contiguous:
        n, c, h, w = x.shape
        return x.reshape(n, c, h * w), h, w
    return im2col(x, kh, kw, sh, sw, ph, pw)


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
           sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Fold columns [N, C*kh*kw, Ho*Wo] back, accumulating overlaps.

    The padded fold target is kernel scratch: for padded convs the interior
    is copied out of it; padding-free folds return the buffer itself as the
    gradient.
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
    # identical, the padded scratch is freed, and the result keeps the
    # kernel layout contract (C-contiguous in, C-contiguous out).
    dx = np.empty((n, c, h, w), dtype=cols.dtype)
    dx[...] = xp[:, :, ph:ph + h, pw:pw + w]
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
        cols, ho, wo = _columns(x, kh, kw, sh, sw, ph, pw)
        # (cout, k) @ (n, k, l) broadcasts over the batch dim -> (n, cout, l)
        y = np.matmul(w.reshape(cout, -1), cols, out=None if out is None
                      else out.reshape(n, cout, ho * wo))
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
        outs.append(yg.reshape(n, (g1 - g0) * cg_out, ho, wo))
        del cols, colsg  # freed before the next chunk's unfold
    if out is not None:
        return out
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)


def _depthwise_in_place(attrs, out_shape) -> bool:
    """The alias rule of ``conv2d`` and ``conv2d_dx`` (module docstring)."""
    return int(attrs.get("groups", 1)) == out_shape[1] > 1 \
        and _pair(attrs.get("stride", 1)) == (1, 1)


def _epilogue(y: np.ndarray, bias: np.ndarray | None, attrs,
              out: np.ndarray | None) -> np.ndarray:
    """Fused per-channel bias and activation, in the conv's own result
    ``y`` — ``out``'s buffer when the caller gave one."""
    if bias is not None:
        bias = bias.reshape(1, -1, 1, 1)
    return epilogue_into(y, bias, attrs.get("activation"), out)


def _conv2d_into(inputs, attrs, out):
    y = conv2d_forward(inputs[0], inputs[1], attrs.get("stride", 1),
                       attrs.get("padding", 0), int(attrs.get("groups", 1)),
                       out)
    return _epilogue(y, inputs[2] if len(inputs) == 3 else None, attrs,
                     out)


@kernel("conv2d")
def _conv2d(inputs, attrs):
    return [_conv2d_into(inputs, attrs, None)]


out_kernel("conv2d", alias_safe=_depthwise_in_place)(_conv2d_into)


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
            stride: tuple[int, int], pad: tuple[int, int]
            ) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-insert a strided conv's output gradient so that a stride-1 conv
    over the flipped weight, padded by the returned halo, yields ``dx``.

    Rule 2: for an odd kernel and ``pad <= (k - 1) / 2`` the gradient lands
    at the input's own size — row ``r`` at row ``(k - 1) / 2 - p + s * r``
    — and the halo ``(k - 1) / 2`` is the conv's to pad; otherwise it is
    materialised here (``k - 1 - p`` zero rows on top). Rows/cols past the
    last window (``(h + 2p - k) % s != 0``) never reached the forward output
    and stay zero. Kernel scratch.
    """
    n, c, gh, gw = grad.shape
    (kh, kw), (ph, pw) = k_hw, pad
    halo = ((kh - 1) // 2, (kw - 1) // 2) \
        if kh % 2 and kw % 2 and 2 * ph < kh and 2 * pw < kw else (0, 0)
    top, left = kh - 1 - ph - halo[0], kw - 1 - pw - halo[1]
    z = workspace.take((n, c, in_hw[0] + kh - 1 - 2 * halo[0],
                        in_hw[1] + kw - 1 - 2 * halo[1]), grad.dtype)
    z[...] = 0
    z[:, :, top:top + stride[0] * gh:stride[0],
      left:left + stride[1] * gw:stride[1]] = grad
    return z, halo


@kernel("conv2d_dx")
def _conv2d_dx(inputs, attrs):
    return [_conv2d_dx_into(inputs, attrs, None)]


@out_kernel("conv2d_dx", alias_safe=_depthwise_in_place)
def _conv2d_dx_into(inputs, attrs, out):
    """``dx``, times the unpacked bit mask when a third input carries one
    (``mask_mul`` folded in by :mod:`repro.passes.fusion`): every branch
    leaves ``dx`` in a buffer of its own — ``out``, or the fresh result —
    and the mask is applied there by ``mask_mul``'s own body, so the
    product is the unfused pair's bit for bit."""
    grad, w = inputs[0], inputs[1]
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
        z, halo = _dilate(grad, (h, wdim), (kh, kw), (sh, sw), (ph, pw))
        dx = conv2d_forward(z, _flip_transpose(w, groups), 1, halo, groups,
                            out)
    if out is not None:
        dx = out
    return mask_mul_into(dx, inputs[2], dx) if len(inputs) == 3 else dx


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
        del dcols  # freed before the next chunk's GEMM
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
        cols, _, _ = _columns(x, kh, kw, sh, sw, ph, pw)
        # np.tensordot's own GEMM over batch and plane, without its Python
        # bookkeeping: at batch 1 both operands reshape to views (BLAS gets
        # a transposed one), where a copy would change the summation order
        dw = np.dot(grad.reshape(n, cout, -1).transpose(1, 0, 2)
                    .reshape(cout, -1),
                    cols.transpose(0, 2, 1).reshape(-1, cols.shape[1]))
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
        dw[g0 * cg_out:g1 * cg_out] = dwg.reshape(
            (g1 - g0) * cg_out, cin_g, kh, kw)
        del cols, colsg  # freed before the next chunk's unfold
    return [dw]
