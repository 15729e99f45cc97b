"""The padded slice-copy ``im2col`` and the padded ``_dilate``, kept verbatim.

Until ``repro.kernels.conv2d`` learned to unfold a stride-1 "same" conv
from flat shifted runs of the input plane (and a 1x1 conv as a view, and a
strided depthwise ``conv2d_dx`` from a gradient zero-inserted at the
input's own size), every conv built its GEMM operand like this: a
zero-padded copy of the input (``_pad2d``), then one strided slice copy per
kernel tap — ``h`` runs of ``w`` elements each, 64 bytes at 16 columns of
float32. These are the previous bodies of ``_pad2d``, ``im2col`` and
``_dilate``, copied without edits but for the scratch pool's hand-backs
(the pool is gone), so that ``tests/test_conv_unfold.py``
can require the new unfold to produce the *same bytes*.

``swap_in_padded_unfold`` installs the old ``im2col`` on the compile path.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import workspace


def _pad2d(x: np.ndarray, ph: int, pw: int,
           extra_h: int = 0, extra_w: int = 0) -> np.ndarray:
    """Zero-pad H/W (``extra_*`` more trailing rows/cols: Winograd rounds
    the padded input up to whole tiles). np.pad's generic machinery costs
    tens of µs per call, which dominates small-resolution convs;
    border-zero + interior-assign is ~5x cheaper, writes every element
    exactly once (so a dirty scratch buffer is safe), and padding-free
    convs (every 1x1) skip the copy entirely."""
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

    The column matrix is kernel scratch
    (:func:`repro.kernels.workspace.take`).
    """
    n, c, h, w = x.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xp = _pad2d(x, ph, pw)
    cols = workspace.take((n, c, kh, kw, ho, wo), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def _dilate(grad: np.ndarray, in_hw: tuple[int, int], k_hw: tuple[int, int],
            stride: tuple[int, int], pad: tuple[int, int]) -> np.ndarray:
    """Zero-insert a strided conv's output gradient (and pad it) so that a
    stride-1, pad-0 conv over the flipped weight yields ``dx`` exactly.

    Rows/cols past the last window (``(h + 2p - k) % s != 0``) stay zero:
    they never reached the forward output, so they receive no gradient.
    Kernel scratch.
    """
    n, c, gh, gw = grad.shape
    top, left = k_hw[0] - 1 - pad[0], k_hw[1] - 1 - pad[1]
    z = workspace.take((n, c, in_hw[0] + k_hw[0] - 1,
                        in_hw[1] + k_hw[1] - 1), grad.dtype)
    z[...] = 0
    z[:, :, top:top + stride[0] * gh:stride[0],
      left:left + stride[1] * gw:stride[1]] = grad
    return z


def swap_in_padded_unfold(monkeypatch) -> None:
    """Unfold every conv and pooling window the old way for this test."""
    import repro.kernels.conv2d
    import repro.kernels.pooling

    monkeypatch.setattr(repro.kernels.conv2d, "im2col", im2col)
    monkeypatch.setattr(repro.kernels.pooling, "im2col", im2col)
