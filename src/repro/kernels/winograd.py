"""Winograd F(2x2, 3x3) convolution as one batched GEMM.

The paper's kernel-selection pass binds *frozen* 3x3 stride-1 convolutions
to Winograd: the weight transform ``U = G g Gᵀ`` is precomputable only when
weights do not change between iterations, which is exactly the situation
sparse backpropagation creates (section 3.2, "Functional-Preserving Graph
Transformation").

F(2x2, 3x3) computes a 2x2 output tile from a 4x4 input tile using 16
multiplies instead of 36 — a 2.25x multiply reduction. The kernel is the
Lavin-Gray formulation: each of the 16 positions of the transform domain
is an independent ``(O, C) @ (C, N*tiles)`` product, so the channel
contraction is a single ``np.matmul((16, O, C), (16, C, N*tiles))``.

* ``U`` is kept GEMM-ready as ``(16, O, C)``; a plan-owned precomputed
  slot (``winograd_weight`` transform) holds exactly that layout, so the
  per-step path never transposes it.
* ``V = Bᵀ d B`` and ``Y = Aᵀ m A`` are fixed add/subtract sequences — the
  non-zeros of ``Bᵀ``/``Aᵀ`` are all ±1 — over strided views of the padded
  input / the GEMM result, one pass over rows and one over columns,
  written with ``out=`` into contiguous kernel scratch (``V`` lands
  directly in the GEMM's layout; ``Y`` is interleaved into the output's
  2x2 tile positions by two strided copies). No ``einsum`` (which
  re-derives its contraction path on every call), no per-call ``zeros``.

Every scratch buffer is fully overwritten before it is read, so a call on
dirty (NaN-filled) scratch is bitwise identical to a zeroed one, and
the base ``algo="winograd"`` kernel and the ``winograd_precomputed`` variant
share this one function.
"""

from __future__ import annotations

import numpy as np

from . import register_transform, workspace
from .conv2d import _pad2d, _pair

# Weight transform G (4x3). The input transform Bᵀ and the output
# transform Aᵀ are spelled out as add/subtract sequences in the kernel:
#   Bᵀ = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
#   Aᵀ = [[1, 1, 1, 0], [0, 1, -1, -1]]
G = np.array(
    [[1, 0, 0],
     [0.5, 0.5, 0.5],
     [0.5, -0.5, 0.5],
     [0, 0, 1]], dtype=np.float32)


def transform_weights(w: np.ndarray) -> np.ndarray:
    """``U = G g Gᵀ`` for every (cout, cin) filter, laid out GEMM-ready:
    ``[O, C, 3, 3] -> [16, O, C]``, transform-domain position major in
    the kernel's (column, row) order."""
    cout, cin = w.shape[:2]
    u = np.matmul(np.matmul(G, w), G.T)  # [O, C, a, b]
    return np.ascontiguousarray(u.transpose(3, 2, 0, 1)).reshape(
        16, cout, cin)


@register_transform("winograd_weight")
def precompute_weight_transform(w: np.ndarray) -> np.ndarray:
    """The plan-level precompute entry point for frozen conv weights.

    Exactly the computation :func:`winograd_conv2d` performs inline when no
    ``u`` is supplied — same cast, same matmuls — so hoisting it to a
    plan-owned slot is bitwise-safe as long as ``w`` never changes (which
    is what "frozen under the sparse scheme" guarantees). The executor
    caches the result per session, keyed on the source array's identity.
    """
    return transform_weights(np.asarray(w).astype(np.float32))


def _bt_pass(d0, d1, d2, d3, out) -> None:
    """``out[a] = Σ_i Bᵀ[a, i] d_i`` — one side of ``Bᵀ d B``."""
    np.subtract(d0, d2, out=out[0])
    np.add(d1, d2, out=out[1])
    np.subtract(d2, d1, out=out[2])
    np.subtract(d1, d3, out=out[3])


def _at_pass(m0, m1, m2, m3, out) -> None:
    """``out[a] = Σ_i Aᵀ[a, i] m_i`` — one side of ``Aᵀ m A``."""
    np.add(m0, m1, out=out[0])
    np.add(out[0], m2, out=out[0])
    np.subtract(m1, m2, out=out[1])
    np.subtract(out[1], m3, out=out[1])


def winograd_conv2d(x: np.ndarray, w: np.ndarray, padding=0,
                    u: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """3x3 stride-1 convolution via Winograd F(2x2,3x3).

    Args:
        x: input [N, C, H, W].
        w: weights [O, C, 3, 3].
        padding: symmetric spatial padding (int or pair).
        u: optional precomputed weight transform [16, O, C] (frozen
            weights; see :func:`precompute_weight_transform`).
        out: optional C-contiguous buffer of the result's shape and
            ``x``'s dtype; the last stage writes it in place of a fresh
            array, and it is what is returned.
    """
    if w.shape[2:] != (3, 3):
        raise ValueError("winograd kernel requires 3x3 filters")
    ph, pw = _pair(padding)
    n, c, h, wd = x.shape
    cout = w.shape[0]
    ho, wo = h + 2 * ph - 2, wd + 2 * pw - 2
    th, tw = (ho + 1) // 2, (wo + 1) // 2  # 2x2 output tiles
    if u is None:
        u = transform_weights(w.astype(np.float32))

    # Conv padding, plus one trailing row/col when the output is odd so
    # the input covers whole 4x4 tiles (stride 2): [N, C, 2th+2, 2tw+2].
    x32 = x if x.dtype == np.float32 else x.astype(np.float32)
    xp = _pad2d(x32, ph, pw, 2 * th - ho, 2 * tw - wo)

    # V = Bᵀ d B over all tiles at once: rows, then columns. Row i of every
    # tile is the strided slice xp[..., i::2, :]; likewise for columns.
    # The row pass also swaps N and C (outer axes only — every inner run
    # stays contiguous), so the column pass writes V contiguously in the
    # (position, C, N*tiles) layout the GEMM reads.
    rows = workspace.take((4, c, n, th, 2 * tw + 2), np.float32)
    _bt_pass(*(xp[:, :, i:i + 2 * th:2] for i in range(4)),
             out=rows.transpose(0, 2, 1, 3, 4))
    v = workspace.take((4, 4, c, n, th, tw), np.float32)  # [b, a]
    _bt_pass(*(rows[..., j:j + 2 * tw:2] for j in range(4)), out=v)

    # The channel contraction: 16 independent (O, C) @ (C, N*tiles) GEMMs.
    m = workspace.take((16, cout, n * th * tw), np.float32)
    np.matmul(u, v.reshape(16, c, n * th * tw), out=m)

    # Y = Aᵀ m A: both passes into contiguous scratch, then each output
    # column parity interleaved into the 2x2 positions of every tile with
    # one strided copy (strided ``out=`` targets cost twice as much).
    m = m.reshape(4, 4, cout, n, th, tw)  # [b, a]
    half = workspace.take((2, 4, cout, n, th, tw), np.float32)  # [a', b]
    _at_pass(m[:, 0], m[:, 1], m[:, 2], m[:, 3], out=half)
    y = workspace.take((2, 2, cout, n, th, tw), np.float32)  # [b', a']
    _at_pass(half[:, 0], half[:, 1], half[:, 2], half[:, 3], out=y)
    cropped = (2 * th, 2 * tw) != (ho, wo)
    shape = (n, cout, 2 * th, 2 * tw)
    if cropped:
        full = workspace.take(shape, np.float32)
    elif out is not None and out.dtype == np.float32:
        full = out
    else:
        full = np.empty(shape, np.float32)
    tiles = full.reshape(n, cout, th, 2, tw, 2)
    tiles[..., 0] = y[0].transpose(2, 1, 3, 0, 4)
    tiles[..., 1] = y[1].transpose(2, 1, 3, 0, 4)
    if not cropped:
        if out is None or full is out:
            return full.astype(x.dtype, copy=False)
        np.copyto(out, full, casting="same_kind")  # a non-float32 out
        return out
    if out is None:
        out = np.empty((n, cout, ho, wo), x.dtype)
    out[...] = full[:, :, :ho, :wo]
    return out
