"""Pixel-grid geometry relating the two sensor views.

The second sensor sees the common scene content translated by the
parallax shift (dx, dy), so on the pixel grid we model

    view2(x, y) ~= view1(x - dx, y - dy)

with bilinear interpolation and zero fill outside the grid.  build_shift
writes that resampling U as a Stencil: one tap per (y, x) pair of bilinear
neighbours, each a few rectangles of pixels read at one offset with one
weight; for integer shifts one tap remains, with weight 1.  Region masks
split each view into the part both sensors can see and the per-sensor
border strips.

For super-resolution each sensor k samples a double-width image through
S(dx_k) = S1 U(2 dx_k), with dx_1 = 0: S1 averages each pair of high-res
columns, and U is the bilinear shift on the double-width grid.
build_sampling writes S(dx) as a Stencil whose taps read every second
high-res column, from U's column taps without building U.

A Stencil writes each output plane in place, in one pass over all its
rows, and reads and writes the double-width grid as two planes of
interleaved columns.  Its products carry the bits of the sparse matrix
products that these operators were first written as
(tests/test_geometry.py holds that COO reference): each output sums its
taps from +0.0 in the matrix's row order, and each transposed output in
ascending order of the rows it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# the kinds of step an apply runs
_ADD, _FIRST, _ZERO = range(3)


class Stencil:
    """A linear map between two pixel grids held as weighted slice taps.

    Each grid is one or two planes of one (h, w) plane shape, interleaved
    along the columns: column p * u + k of a grid row is column u of plane
    k, for a grid of p planes.  `taps` lists, in the order each output sums
    them, the runs of one tap: (y0, y1, oy, u0, u1, pd, od, ps, os, wt)
    adds wt * in_ps[y + oy, u + os] to out_pd[y, u + od] for y in [y0, y1)
    and u in [u0, u1).  The transpose sums the taps in the order `order_t`,
    which must be ascending output order for every input.  `shape` is
    (outputs, inputs), as for a matrix; `op @ v` maps flat vectors, and
    `op.T` is the transpose.

    Each output plane is written in place, in one pass over all its rows.
    Where every run covers whole rows at oy = 0 (every dy = 0 operator),
    each tap's longest run into a plane is one 1-D multiply and add over
    the plane's flattened rows, the first writing the plane.  The wrapped
    rows land on border columns, which are then zeroed and summed again
    from every run's 2-D slices, the path that every run of a stencil
    without that form takes.  Every slice and scratch array is fixed here,
    so an apply is a fixed short list of ufunc calls; as it writes the
    scratch that the stencil and its transpose share, one stencil serves
    one caller at a time.

    A sum that starts from its first product rather than from +0.0 differs
    only where every product is a zero and one is -0.0, where it may end at
    -0.0 instead of +0.0; adding +0.0 then gives the sum from +0.0 bit for
    bit.  So the plane's first product adds +0.0 as it is written.
    """

    def __init__(self, plane, planes_out, planes_in, taps, order_t):
        back = [[(y0 + oy, y1 + oy, -oy, u0, u1, ps, os, pd, od, wt)
                 for y0, y1, oy, u0, u1, pd, od, ps, os, wt in taps[k]] for k in order_t]
        h, w = plane
        n = h * w
        scratch = np.empty(n)

        def direction(taps, po, pi):
            """(shape, grids, steps) of one direction."""
            return ((po * n, pi * n), ((h, po * w), (h, pi * w)),
                    _steps(taps, plane, po, pi, scratch))

        # both directions, held without a reference cycle so that a dropped
        # stencil frees its buffers at once
        self._dirs = (direction(taps, planes_out, planes_in),
                      direction(back, planes_in, planes_out))

    @property
    def shape(self):
        return self._dirs[0][0]

    @property
    def T(self):
        t = object.__new__(Stencil)
        t._dirs = self._dirs[::-1]
        return t

    def __matmul__(self, v):
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != self.shape[1:]:
            raise ValueError(f"vector of shape {v.shape} for a stencil of shape "
                             f"{self.shape}")
        return self.apply(v, np.empty(self.shape[0]))

    def apply(self, x, out):
        """Write op @ x over out and return out; x and out are C-contiguous
        float64 arrays of the input and output sizes, of any shape, and do
        not overlap."""
        _, grids, steps = self._dirs[0]
        xf, of = x.reshape(-1), out.reshape(-1)
        ins = (xf, xf.reshape(grids[1]))
        outs = (of, of.reshape(grids[0]))
        for kind, d, a, i, wt, s in steps:
            o = outs[d]
            if kind == _ADD:
                np.add(o[a], np.multiply(ins[d][i], wt, out=s), out=o[a])
            elif kind == _ZERO:
                o[a] = 0.0
            else:
                np.add(np.multiply(ins[d][i], wt, out=s), 0.0, out=o[a])
        return out


def _steps(taps, plane, po, pi, scratch):
    """One direction's steps (kind, dim, out index, in index, weight,
    scratch), over the flat (dim 0) or 2-D (dim 1) input and output, grids
    of pi and po planes.

    Per output plane, over all its rows: the plane's flat ops (_FIRST,
    then _ADD per further tap); _ZERO of the border columns, all columns
    without a flat form; and an _ADD of every run's part on them, a
    strided 1-D one for a single column."""
    h, w = plane

    def grid(p, k, j, m, step):
        """Plane k's m elements from plane index j, step apart, in a grid
        of p planes."""
        return slice(p * j + k, p * (j + (m - 1) * step) + k + 1, p * step)

    steps = []
    for pd in range(po):
        runs = [[r for r in tap if r[5] == pd] for tap in taps]
        mains = [max(tap, key=lambda r: r[4] - r[3]) for tap in runs if tap]
        # columns [lo, hi) take every tap from its longest run alone
        lo = hi = w
        if mains and all(r[:3] == (0, h, 0) for tap in runs for r in tap):
            lo = max(r[3] + r[6] for r in mains)
            hi = min(r[4] + r[6] for r in mains)
        if lo >= hi:
            lo = hi = w
        for k, (_, _, _, u0, u1, _, od, ps, os, wt) in enumerate(mains if lo < hi else []):
            a, m = u0 + od, (h - 1) * w + u1 - u0
            steps.append((_ADD if k else _FIRST, 0, grid(po, pd, a, m, 1),
                          grid(pi, ps, a - od + os, m, 1), wt, scratch[:m]))
        for a, b in ((0, lo), (hi, w)):
            if a < b:
                steps.append((_ZERO, 1, (slice(0, h), grid(po, pd, a, b - a, 1)),
                              None, None, None))
        for y0, y1, oy, u0, u1, _, od, ps, os, wt in (r for tap in runs for r in tap):
            for ua, ub in ((u0, min(u1, lo - od)), (max(u0, hi - od), u1)):
                m, c = y1 - y0, ub - ua
                if c <= 0:
                    continue
                if c == 1:
                    steps.append((_ADD, 0, grid(po, pd, y0 * w + ua + od, m, w),
                                  grid(pi, ps, (y0 + oy) * w + ua + os, m, w), wt,
                                  scratch[:m]))
                else:
                    steps.append((_ADD, 1, (slice(y0, y1), grid(po, pd, ua + od, c, 1)),
                                  (slice(y0 + oy, y1 + oy), grid(pi, ps, ua + os, c, 1)),
                                  wt, scratch[:m * c].reshape(m, c)))
    return steps


def _runs(src, weights, step=1):
    """(u0, u1, offset, weight) for each maximal range of outputs u whose
    source src[u] - step u and weight are constant and the weight nonzero."""
    off = src - step * np.arange(len(src))
    cut = np.flatnonzero((off[1:] != off[:-1]) | (weights[1:] != weights[:-1])) + 1
    bounds = [0, *cut.tolist(), len(src)]
    return [(a, b, int(off[a]), float(weights[a]))
            for a, b in zip(bounds, bounds[1:]) if weights[a] != 0.0]


@dataclass
class ShiftOperator:
    """Bilinear resampler computing out(x, y) = in(x - dx, y - dy)."""

    dx: float
    dy: float
    width: int
    height: int
    matrix: Stencil


def build_shift(dx: float, dy: float, width: int, height: int) -> ShiftOperator:
    """Build the bilinear shift operator for displacement (dx, dy).

    Output pixel (x, y) reads the input at (x - dx, y - dy); samples whose
    source lies outside the grid are zero-filled, so border rows have
    weight sum < 1.  Integer displacements produce a 0/1 partial
    permutation.  dx and dy must be finite, |dx| < width and |dy| < height.

    Tap (ay, ax) pairs the y taps ay with the x taps ax; its runs are the
    products of the two axes' runs, each weighted yw * xw and dropped where
    that product is 0.  Each output sums the taps in (ay, ax) order, which
    reads its sources in ascending order, so the transpose, which sums
    each input in ascending output order, takes them in reverse.
    """
    _require_in_range(dx, dy, width, height)
    xt, xw = _axis_taps(np.arange(width, dtype=np.float64) - dx, width)
    yt, yw = _axis_taps(np.arange(height, dtype=np.float64) - dy, height)
    taps = [[(y0, y1, oy, u0, u1, 0, 0, 0, ox, wy * wx)
             for y0, y1, oy, wy in _runs(yt[:, ay], yw[:, ay])
             for u0, u1, ox, wx in _runs(xt[:, ax], xw[:, ax]) if wy * wx != 0.0]
            for ay in range(2) for ax in range(2)]
    mat = Stencil((height, width), 1, 1, taps, [3, 2, 1, 0])
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


def build_sampling(dx: float, width: int, height: int) -> Stencil:
    """Sampling S(dx) = S1 U(2 dx) of the 2*width grid, with
    build_shift's ValueError for |2 dx| >= 2 width.  S1 maps low-res pixel
    p = y*width + x to the mean of high-res columns 2p and 2p + 1.

    U moves no row, so one template over the low-res columns x, run over
    every row, is the whole map.  The product meets the taps (t0, t1) of
    high-res 2x, then of 2x + 1, each halved; it sums each column from 0 in
    that order, where tap 1 of 2x and tap 0 of 2x + 1 share one, and sums
    the columns last first, that is descending: the four taps below, which
    each step two high-res columns per output.  The transpose sums each
    high-res column in ascending output order, which is that tap order.
    Taps at weight 0 (off the grid) are dropped with any zero sum."""
    hw = 2 * width
    _require_in_range(2.0 * dx, 0.0, hw, height)
    taps, weights = _axis_taps(np.arange(hw, dtype=np.float64) - 2.0 * dx, hw)
    # per x, descending: (2x+1, t1), (2x+1, t0), (2x, t1), (2x, t0)
    cols = taps.reshape(width, 4)[:, ::-1]
    vals = (0.5 * weights).reshape(width, 4)[:, ::-1].copy()
    same = cols[:, 1] == cols[:, 2]
    vals[same, 1] = vals[same, 2] + vals[same, 1]
    vals[same, 2] = 0.0
    # high-res column 2x + c is column x + c // 2 of plane c % 2
    taps = [[(0, height, 0, u0, u1, 0, 0, c % 2, c // 2, wt)
             for u0, u1, c, wt in _runs(cols[:, k], vals[:, k], 2)] for k in range(4)]
    return Stencil((height, width), 1, 2, taps, range(4))


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
