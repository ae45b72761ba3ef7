"""Pixel-grid geometry relating the two sensor views.

The second sensor sees the common scene content translated by the
parallax shift (dx, dy), so on the pixel grid we model

    view2(x, y) ~= view1(x - dx, y - dy)

with bilinear interpolation and zero fill outside the grid.  build_shift
materializes that resampling as a sparse matrix U (at most 4 entries per
row); for integer shifts it degenerates to a partial permutation with
exact 0/1 entries.  Region masks split each view into the part both
sensors can see and the per-sensor border strips.

For super-resolution each sensor k samples a double-width image through
S(dx_k) = S1 U(2 dx_k), with dx_1 = 0: S1 averages each pair of high-res
columns, and U is the bilinear shift on the double-width grid.
build_sampling writes S(dx) as CSR arrays directly, from U's column taps
without building U.  These two sparse builders import scipy when called,
so importing this module, or building region masks, loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


@dataclass
class ShiftOperator:
    """Sparse resampler computing out(x, y) = in(x - dx, y - dy)."""

    dx: float
    dy: float
    width: int
    height: int
    matrix: sparse.csr_matrix


def build_shift(dx: float, dy: float, width: int, height: int) -> ShiftOperator:
    """Build the bilinear shift operator for displacement (dx, dy).

    Output pixel (x, y) reads the input at (x - dx, y - dy); samples whose
    source lies outside the grid are zero-filled, so border rows have
    weight sum < 1.  Integer displacements produce a 0/1 partial
    permutation.  dx and dy must be finite, |dx| < width and |dy| < height.

    The CSR arrays are assembled directly.  Each (y tap, x tap) plane
    whose two axes carry some weight fills one column of (pixel, plane)
    weight and column arrays; the positive weights are kept in row-major
    order, so each row's columns ascend, and indptr counts them per pixel.
    """
    from scipy import sparse

    _require_in_range(dx, dy, width, height)
    xt, xw = _axis_taps(np.arange(width, dtype=np.float64) - dx, width)
    yt, yw = _axis_taps(np.arange(height, dtype=np.float64) - dy, height)

    planes = [(ay, ax) for ay in range(2) for ax in range(2)
              if yw[:, ay].any() and xw[:, ax].any()]
    n = width * height
    idx = sparse.get_index_dtype(maxval=len(planes) * n)
    val = np.empty((height, width, len(planes)))
    col = np.empty((height, width, len(planes)), dtype=idx)
    for p, (ay, ax) in enumerate(planes):
        np.multiply(yw[:, ay, None], xw[None, :, ax], out=val[:, :, p])
        col[:, :, p] = yt[:, ay, None] * width + xt[None, :, ax]
    keep = val > 0.0
    indptr = np.zeros(n + 1, dtype=idx)
    for p in range(len(planes)):
        indptr[1:] += keep[:, :, p].ravel()
    np.cumsum(indptr, out=indptr)
    mat = sparse.csr_matrix((val[keep], col[keep], indptr), shape=(n, n))
    return ShiftOperator(dx=dx, dy=dy, width=width, height=height, matrix=mat)


def _axis_taps(src: np.ndarray, size: int):
    """Per-output taps (indices, weights) along one axis.  Fractional
    positions get two taps with bilinear weights; exact integers get one
    tap with weight 1.  Out-of-range taps get weight 0."""
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    taps = np.stack([i0, i0 + 1], axis=1)
    weights = np.stack([1.0 - frac, frac], axis=1)
    inside = (taps >= 0) & (taps < size)
    weights = np.where(inside, weights, 0.0)
    taps = np.clip(taps, 0, size - 1)
    return taps, weights


def build_sampling(dx: float, width: int, height: int) -> sparse.csr_matrix:
    """Sampling S(dx) = S1 U(2 dx) of the 2*width grid, its CSR arrays
    written directly: byte for byte those of
    (S1 @ build_shift(2 dx, 0, 2 width, height).matrix).tocsr(), with
    build_shift's ValueError for |2 dx| >= 2 width.  S1 maps low-res pixel
    p = y*width + x to the mean of high-res columns 2p and 2p + 1.

    U moves no row, so one template over the low-res columns x, tiled over
    the rows at column offset y * 2 width, is the whole matrix.  The
    product meets the taps (t0, t1) of high-res 2x, then of 2x + 1, each
    halved; it sums each column from 0 in that order, where tap 1 of 2x
    and tap 0 of 2x + 1 share one, and emits the columns last first, that
    is descending.  Taps at weight 0 (off the grid) are not in U; here
    they are dropped with any zero sum."""
    from scipy import sparse

    hw = 2 * width
    _require_in_range(2.0 * dx, 0.0, hw, height)
    taps, weights = _axis_taps(np.arange(hw, dtype=np.float64) - 2.0 * dx, hw)
    # per x, descending: (2x+1, t1), (2x+1, t0), (2x, t1), (2x, t0)
    cols = taps.reshape(width, 4)[:, ::-1]
    vals = (0.5 * weights).reshape(width, 4)[:, ::-1].copy()
    same = cols[:, 1] == cols[:, 2]
    vals[same, 1] = vals[same, 2] + vals[same, 1]
    vals[same, 2] = 0.0
    keep = vals != 0.0
    n_lo = width * height
    idx = sparse.get_index_dtype(maxval=4 * n_lo)
    indices = (np.arange(0, hw * height, hw, dtype=idx)[:, None]
               + cols[keep].astype(idx))
    indptr = np.zeros(n_lo + 1, dtype=idx)
    np.cumsum(np.tile(keep.sum(axis=1), height), out=indptr[1:])
    return sparse.csr_matrix((np.tile(vals[keep], height), indices.ravel(), indptr),
                             shape=(n_lo, hw * height))


def apply_shift(op: ShiftOperator, image: np.ndarray) -> np.ndarray:
    """Apply a shift operator to a (height, width) image."""
    img = np.asarray(image, dtype=np.float64)
    if img.shape != (op.height, op.width):
        raise ValueError(
            f"image shape {img.shape} does not match operator grid "
            f"{(op.height, op.width)}"
        )
    return (op.matrix @ img.ravel()).reshape(op.height, op.width)


# ---------------------------------------------------------------------------
# region bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class RegionMasks:
    """Common/disjoint support masks for a two-sensor view pair.

    `common` lives on the reference (sensor 1) grid; `disjoint[k-1]` is the
    border strip only sensor k sees, on sensor k's own grid.
    """

    dx: float
    dy: float
    common: np.ndarray
    disjoint: tuple

    def common_for(self, sensor_index: int) -> np.ndarray:
        """Common-region mask expressed on the given sensor's grid (1 or 2)."""
        if sensor_index == 1:
            return self.common
        if sensor_index != 2:
            raise ValueError(f"sensor index {sensor_index} out of range")
        return ~self.disjoint[1]


def build_region_masks(dx: float, dy: float, width: int, height: int) -> RegionMasks:
    """Boolean masks for the jointly visible region and per-sensor borders.

    A reference pixel (x, y) is common when the bilinear stencil of
    (x + dx, y + dy) lies fully inside the grid, i.e. the second sensor
    actually observes it; the mirrored rule with (x - dx, y - dy) places
    the common region on sensor 2's grid.  dx and dy must be finite.
    """
    _require_finite(dx, dy)
    common1 = _stencil_inside(dx, dy, width, height, sign=+1.0)
    common2 = _stencil_inside(dx, dy, width, height, sign=-1.0)
    return RegionMasks(dx=dx, dy=dy, common=common1,
                       disjoint=(~common1, ~common2))


def _require_finite(dx, dy) -> None:
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise ValueError(f"shift ({dx}, {dy}) must be finite")


def _require_in_range(dx, dy, width, height) -> None:
    _require_finite(dx, dy)
    if abs(dx) >= width or abs(dy) >= height:
        raise ValueError(
            f"shift ({dx}, {dy}) out of range for a {width}x{height} grid"
        )


def _stencil_inside(dx, dy, width, height, sign):
    xs = np.arange(width, dtype=np.float64) + sign * dx
    ys = np.arange(height, dtype=np.float64) + sign * dy
    okx = (xs >= 0.0) & (xs <= width - 1.0)
    oky = (ys >= 0.0) & (ys <= height - 1.0)
    return oky[:, None] & okx[None, :]
