"""Total-variation reconstruction from aperture measurements.

All three modes minimize an anisotropic-TV objective subject to the
measurement constraints, via an augmented-Lagrangian splitting: auxiliary
gradient variables are updated by soft thresholding, the quadratic
subproblem in the image variables is solved by warm-started conjugate
gradients on the FWHT-based normal operator, and both multipliers and a
doubling penalty continuation drive the constraints tight.

SINGLE    min ||D x||_1            s.t.  A x = z            (per sensor)
JOINT     min ||D c||_1 + (sigma/2)(||D d1||_1 + ||D d2||_1)
                                   s.t.  A (c + d1)        = z1
                                         A (U(c + d1) + d2) = z2
SUPERRES  same as JOINT with c replaced by a double-width image seen
          through per-sensor sampling operators S1, S2.

For integer offsets U d1 vanishes (the strip shifts off the grid) and the
second constraint reduces to the familiar A (U c + d2) = z2; for
fractional offsets the extra term keeps the model consistent with how the
second sensor actually sees the first view's border column.

Support constraints (c zero off the common region, dk zero off sensor k's
border strip) are enforced by projection inside the inner solve, so they
hold bitwise at the output.  With noise_sigma > 0 each sensor's equality
constraint relaxes to ||A x - z_k|| <= epsilon_k, its ball sized from its
own vector by sensing.epsilon_for_noise.  The disjoint-region weight sigma
defaults to 1.

The operator is normalized from its spectrum in closed form: for m rows
(row 0 all-ones) over a full order-N image, A^T A has the nonzero
eigenvalues N/4 (m - 2 times), N lam and N/(4 lam), where
lam = (t + sqrt(t^2 - 1)) / 2 and t = 1 + m/4.

One solve is one Problem: its Components (each an image on a canvas,
with a support mask and a TV weight), its Blocks (one sensor's equation
each), the spec they are measured through and the SolverConfig.
Problem.single, Problem.joint and Problem.superres build it from the
arguments of the matching reconstruct_*, and Problem.solve runs the
splitting on it.  Its linear pieces (vec, forward, adjoint, grad, normal
and project) are public, so other consumers of the same D, E, A and
operators need not rebuild them.

Across an iteration the solve keeps x, the splits w = D x with their
multipliers, the fidelity multipliers, and g = E D x and A x of the current
x.  Every array that the iteration and CG touch is a view of one float64
working block that the solve allocates at its start and frees before it
lays out the outputs, so the loop allocates no array: x and the previous
x; w, its multipliers and g; each block's A x, fidelity targets and
multipliers; and one stretch for the CG residual r and the normal
operator's scratch.  Buffers whose lives do not overlap share space: g
holds CG's p and H p (and first the right-hand side's TV term), A x
holds its data terms, the previous x holds the right-hand side, and r's
stretch holds the shrink's |v|, the objective's |g| and the change in x.
The normal operator forms one component's gradient, one difference
direction at a time, or one block's measurements at a time in that
scratch and drops it once taken back through its adjoint.  Freeing one
block that holds the working set raises glibc's mmap and trim
thresholds, so a later large solve reuses heap that is already mapped
rather than faulting its memory in again.

Every per-component array lives on the component's support window, the
bounding box of its mask: the full canvas without a mask, empty for an
all-False one (a joint strip is as wide as the parallax shift).  x, the
right-hand side, H x and the CG vectors are each one contiguous array
laying every window end to end, used through the list of window views
that Problem.vec makes: an update, fill or scale is one call, while the
dot products and the change in x sum window by window.  w, its
multipliers and g are one (2, h, w) array per component.  The projection
and the TV terms run on the window, the differences over its flattened
rows, and the edge mask E zeroes every difference leaving it.  Only the
data term needs canvases.

Each Block is one sensor's equation z = A(op B_through x + B_direct x),
with at most one operator, a geometry.Stencil: joint's shift U over
c + d1, or superres's sampling S_k of the double-width image.  The
block's image is composed in the work line of the problem's one
Aperture, which holds the line and the transform's views and buffer for
the whole solve: the windows seen through the operator are added into
the problem's zeroed canvas (the double-width image is its own), the
operator writes its product over the line, the direct windows are added
into it, the padding past pixel_count is zeroed before each transform,
and the adjoint, a view of the line, is cropped back to each window
before the next transform; the operator's transpose writes its product
over the canvas.  A component whose window is the whole canvas is its
own canvas, so single-view solves run the full-canvas operations
unchanged.  The outputs are laid on zeroed canvases once, at return.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import (
    RegionMasks,
    ShiftOperator,
    Stencil,
    apply_shift,
    build_region_masks,
    build_sampling,
)
from .sensing import Aperture, SensingSpec, epsilon_for_noise


class SolverError(RuntimeError):
    pass


# The penalty schedule and inner-solve limits: mu starts at PENALTY and
# doubles every CONTINUATION_EVERY iterations up to CONTINUATION_CAP times
# the start, and each inner CG runs at most CG_MAX_ITERS steps, stopping
# once its residual is CG_TOL relative to ||rhs||.
PENALTY = 32.0
CONTINUATION_EVERY = 50
CONTINUATION_CAP = 1024.0
CG_MAX_ITERS = 12
CG_TOL = 1.0e-6


@dataclass
class SolverConfig:
    max_iters: int = 500
    rel_tol: float = 1.0e-4
    sigma: float = 1.0                # weight of the disjoint-region TV terms
    noise_sigma: float = 0.0          # relative noise level (0 = equality fit)

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name, zero_ok in (("rel_tol", False), ("sigma", False),
                              ("noise_sigma", True)):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v)
                    and (v > 0.0 or (zero_ok and v == 0.0))):
                raise ValueError(f"{name} must be a finite number "
                                 + (">= 0" if zero_ok else "> 0"))


@dataclass
class ReconstructionResult:
    image: np.ndarray | None = None
    common: np.ndarray | None = None
    disjoint1: np.ndarray | None = None
    disjoint2: np.ndarray | None = None
    view1: np.ndarray | None = None
    view2: np.ndarray | None = None
    iterations: int = 0
    converged: bool = False
    objective_history: np.ndarray | None = None    # (iterations,)
    residual_history: np.ndarray | None = None     # (iterations, blocks), relative
    epsilon: list | None = None    # (blocks,) fidelity radius, units of z


# ---------------------------------------------------------------------------
# anisotropic TV pieces
# ---------------------------------------------------------------------------

# Direction k's differences (k = 0 along x, 1 along y) run over an image's
# flattened rows, pixel p to p + s with s = 1 along x and the row length
# along y, so each runs on contiguous memory; the last column (row) has none.

def _diff(img: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Direction k's differences of the C-contiguous img, written to the
    head of out's flat form (out C-contiguous and shaped as img) and
    returned as that flat view; along x the caller zeroes the row ends
    (an edge mask, False on the last column, does)."""
    s = (1, img.shape[1])[k]
    a = img.reshape(-1)
    return np.subtract(a[s:], a[:a.size - s], out=out.reshape(-1)[:a.size - s])


def _diff_adjoint(d: np.ndarray, k: int, out: np.ndarray) -> None:
    """Add D_k^T d into the C-contiguous out, from _diff's flat view or the
    flat head of an array shaped as out.  Along x, d's row ends must be
    zeros and out zero beforehand: the zeros then land as +0.0 on the next
    row's start and leave the row's end as the per-row form leaves them."""
    s = (1, out.shape[1])[k]
    o = out.reshape(-1)
    d = d.reshape(-1)[:o.size - s]
    o[s:] += d
    o[:d.size] -= d


def _tv_adjoint(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add D^T g into the zeroed C-contiguous out and return it; g's row
    ends along x are zeros, as tv_grad leaves them."""
    for k in (0, 1):
        _diff_adjoint(g[k], k, out)
    return out


def tv_grad(image: np.ndarray, out=None) -> np.ndarray:
    """Forward differences with replicate boundary, stacked as (2, h, w),
    written over `out` (C-contiguous float64 of that shape) when given."""
    img = np.ascontiguousarray(image, dtype=np.float64)
    g = np.empty((2,) + img.shape) if out is None else out
    for k in (0, 1):
        _diff(img, k, g[k])
    g[0][:, -1:] = g[1][-1:] = 0.0    # the entries D leaves empty
    return g


def tv_grad_adjoint(g: np.ndarray) -> np.ndarray:
    """D^T g; the entries that D leaves empty, g[0][:, -1] and g[1][-1],
    are ignored."""
    g = np.array(g, dtype=np.float64, order="C")
    g[0][:, -1:] = 0.0
    return _tv_adjoint(g, np.zeros(g.shape[1:]))


def tv_shrink(values: np.ndarray, threshold: float, out=None, work=None) -> np.ndarray:
    """Soft threshold toward zero: sign(v) * max(|v| - threshold, 0), into
    `out` when given (it may be `values` itself).  |v| is formed in
    `work`, an array shaped as v that overlaps neither, or else in the
    one temporary."""
    v = np.asarray(values, dtype=np.float64)
    mag = np.abs(v, out=work)
    mag -= threshold
    np.maximum(mag, 0.0, out=mag)
    return np.multiply(np.sign(v, out=out), mag, out=out)


def check_fractional_dx(dx: float) -> None:
    """Raise ValueError unless dx is a finite, non-integer horizontal offset,
    the only kind that gives the second sensor a new sample phase."""
    if not math.isfinite(dx):
        raise ValueError(f"super-resolution needs a finite dx, got {dx}")
    if float(dx) == int(dx):
        raise ValueError(
            "super-resolution needs a fractional horizontal offset; "
            f"dx={dx} gives the second sensor no new sample phase"
        )


# ---------------------------------------------------------------------------
# the problem description and its solve
# ---------------------------------------------------------------------------

@dataclass
class Component:
    """One image component: a canvas of `shape`, zero off its support
    `mask` (None for the whole canvas), with `weight` on its TV term.

    Derived once: `window`, the support's bounding box, and its
    `window_shape`; `full`, whether the window is the whole canvas;
    `edges`, the bool mask E of TV differences interior to the support,
    on the window; and `crop`, the mask on the window.  `edges` is None
    for full support, where tv_grad already zeroes the replicate border,
    and `crop` is None wherever the mask fills its window.

    Differences that straddle the support boundary are excluded, so a
    component pays no TV for the cliff between its content and the
    zeroed-out remainder of the canvas.  Every difference off the
    window, or leaving it, has an end outside the support and is
    excluded, so the TV terms need only the window: its replicate
    border stands in for the differences that leave it.
    """
    shape: tuple
    mask: np.ndarray | None = None   # bool (h, w) or None for full support
    weight: float = 1.0              # l1 weight on its TV term

    def __post_init__(self):
        # the support window: the bounding box of the mask, the full canvas
        # without one and empty for an all-False mask
        h, w = self.shape
        if self.mask is None:
            self.window = (slice(0, h), slice(0, w))
        elif not self.mask.any():
            self.window = (slice(0, 0), slice(0, 0))
        else:
            rows = np.flatnonzero(self.mask.any(axis=1))
            cols = np.flatnonzero(self.mask.any(axis=0))
            self.window = (slice(int(rows[0]), int(rows[-1]) + 1),
                           slice(int(cols[0]), int(cols[-1]) + 1))
        self.window_shape = tuple(s.stop - s.start for s in self.window)
        # a component whose window is the canvas is its own canvas
        self.full = self.window_shape == tuple(self.shape)
        self.edges = self.crop = None
        if self.mask is not None:
            m = self.mask[self.window]
            self.edges = np.zeros((2,) + m.shape, dtype=bool)
            self.edges[0][:, :-1] = m[:, :-1] & m[:, 1:]
            self.edges[1][:-1, :] = m[:-1, :] & m[1:, :]
            # the cropped mask stays None where it fills the window (every
            # mask but an L-shaped strip's), so projecting is a no-op
            if not m.all():
                self.crop = m


@dataclass
class Block:
    """One sensor's equation z = A(op B_through x + B_direct x): the
    components in `through` are seen through the stencil op, those in
    `direct` as they are."""
    z: np.ndarray             # raw measurement vector
    direct: list              # component indices
    op: Stencil | None = None
    through: tuple = ()


class _Vec(list):
    """Component window arrays that are views of one contiguous array, held
    as .flat, which lays the windows end to end."""


class Problem:
    """One augmented-Lagrangian TV problem over a list of image components,
    with one block per sensor, all measured through the same spec and
    solved under cfg.  Problem.single, .joint and .superres build it from
    the arguments that the matching reconstruct_* takes; solve() runs it."""

    # while a solve runs: CG's p and H p, and normal's scratch (one window
    # per component and one measurement vector), views of its working block
    _work = (None, None, None, None)

    def __init__(self, spec: SensingSpec, comps, blocks, cfg: SolverConfig):
        self.spec = spec
        self.comps = comps
        self.blocks = blocks
        self.cfg = cfg
        # With m rows, row 0 all-ones and pixel_count = order = N,
        # A = (H_S + 1 1^T)/2 and H_S H_S^T = N I: A^T A has eigenvalues N/4
        # (m - 2 times) and the mean-intensity pair N lam, N/(4 lam) of the
        # module docstring: ||A||^2 = pixel_count * lam, exact at N pixels
        # and close when padded.  [A_1; A_2; ...] is divided by the outlier
        # over the order, sqrt(blocks * ||A||^2 / N), not by the norm, which
        # would starve the data term relative to the TV penalty; one shared
        # scale keeps stacked rows identical to the same rows as one block.
        t = 1.0 + spec.count / 4.0
        norm_sq = spec.pixel_count * (t + math.sqrt(t * t - 1.0)) / 2.0
        self.scale = math.sqrt(len(blocks) * norm_sq / spec.order)
        self.zbar = [np.asarray(b.z, dtype=np.float64) / self.scale for b in blocks]
        self.znorm = [float(np.linalg.norm(z)) for z in self.zbar]
        # each block's noise ball, sized from its own vector as add_noise
        # scaled that sensor's noise
        self.radii = [epsilon_for_noise(cfg.noise_sigma, b.z)
                      if cfg.noise_sigma > 0.0 else 0.0 for b in blocks]
        self.eps = [r / self.scale for r in self.radii]
        # each window's place in a _Vec's array
        ends = np.cumsum([0] + [math.prod(c.window_shape) for c in comps]).tolist()
        self.spans = list(zip(ends, ends[1:], [c.window_shape for c in comps]))
        self.size = ends[-1]
        # one work line for every transform of the solve, and one canvas of
        # the operators' input grid: the image an operator reads is composed
        # in it, and its transpose products are written over it
        self.aperture = Aperture(spec)
        self.canvas = next((np.empty(comps[b.through[0]].shape) for b in blocks
                            if b.op is not None), None)

    # -- builders -----------------------------------------------------------

    @staticmethod
    def _measurements(spec: SensingSpec, width: int, height: int, *zs) -> list:
        """The measurement vectors of one solve as float64, each checked to
        hold one value per selected row of a width x height image."""
        if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (width, height)):
            raise ValueError("width and height must be >= 1 and integers, "
                             f"got {width!r} x {height!r}")
        if width * height != spec.pixel_count:
            raise ValueError("width*height must equal spec.pixel_count")
        zs = [np.asarray(z, dtype=np.float64) for z in zs]
        for z in zs:
            if z.shape != (spec.count,):
                raise ValueError(
                    "measurement vectors must have the same length as the spec's "
                    f"row count ({spec.count}), got shape {z.shape}")
        return zs

    @staticmethod
    def _strips(masks: RegionMasks, cfg: SolverConfig) -> list:
        """The two border-strip components, each weighted sigma / 2."""
        return [Component(m.shape, m, float(cfg.sigma) / 2.0) for m in masks.disjoint]

    # The builders take the arguments of the matching reconstruct_*.

    @classmethod
    def single(cls, z, spec, width, height, cfg=None):
        """One full-canvas component and one block per measurement vector;
        `z` is a vector or a non-empty (k, rows) stack."""
        z = np.asarray(z, dtype=np.float64)
        # a non-empty stack is checked row by row; anything else as one vector
        zs = cls._measurements(spec, width, height,
                               *(z if z.ndim == 2 and len(z) else [z]))
        return cls(spec, [Component((height, width))],
                   [Block(zrow, [0]) for zrow in zs], cfg or SolverConfig())

    @classmethod
    def joint(cls, z1, z2, spec, width, height, shift, masks, cfg=None):
        """The common component and the two strips, with sensor 2's block
        seeing the first view through the shift."""
        cfg = cfg or SolverConfig()
        z1, z2 = cls._measurements(spec, width, height, z1, z2)
        if (shift.width, shift.height) != (width, height):
            raise ValueError("shift dimensions disagree with the image size")
        if masks.common.shape != (height, width):
            raise ValueError("mask dimensions disagree with the image size")
        if (shift.dx, shift.dy) != (masks.dx, masks.dy):
            raise ValueError("shift and masks were built for different offsets")
        comps = [Component((height, width), masks.common), *cls._strips(masks, cfg)]
        # Sensor 2 sees the first view shifted: for integer dx the shift of
        # I_D1 falls outside the grid and the constraint reduces to the usual
        # A(U I_C + I_D2) = z2, but for fractional dx the boundary column of
        # I_D1 leaks half a tap into the last common column of view 2, so the
        # shift is routed over I_C + I_D1 to keep the model exact.
        blocks = [Block(z1, [0, 1]), Block(z2, [2], shift.matrix, [0, 1])]
        return cls(spec, comps, blocks, cfg)

    @classmethod
    def superres(cls, z1, z2, spec, width, height, dx, cfg=None):
        """The double-width image and the two strips, each sensor's block
        seeing the image through its sampling S(dx_k), dx_1 = 0 and dx_2 = dx;
        a dx that is not strictly fractional raises ValueError."""
        cfg = cfg or SolverConfig()
        z1, z2 = cls._measurements(spec, width, height, z1, z2)
        check_fractional_dx(dx)
        masks = build_region_masks(dx, 0.0, width, height)
        comps = [Component((height, 2 * width)), *cls._strips(masks, cfg)]
        blocks = [Block(z1, [1], build_sampling(0.0, width, height), [0]),
                  Block(z2, [2], build_sampling(dx, width, height), [0])]
        return cls(spec, comps, blocks, cfg)

    # -- linear pieces ------------------------------------------------------

    def vec(self, flat=None):
        """The window views of `flat` (a new array by default) as a _Vec."""
        if flat is None:
            flat = np.empty(self.size)
        v = _Vec(flat[a:b].reshape(shape) for a, b, shape in self.spans)
        v.flat = flat
        return v

    def _compose(self, xl, cis, canvas=None):
        """The canvas of components cis: a lone full component is its own
        canvas, and any other set is written over `canvas` or a new one."""
        c = self.comps[cis[0]]
        if len(cis) == 1 and c.full:
            return xl[cis[0]]
        if canvas is None:
            canvas = np.zeros(c.shape)
        else:
            canvas.fill(0.0)
        # +0.0 + x, as the first add into the zeros would form it, without
        # an aliased in-place add
        np.add(xl[cis[0]], 0.0, out=canvas[c.window])
        self._add(xl, cis[1:], canvas)
        return canvas

    def _add(self, xl, cis, canvas):
        for ci in cis:
            canvas[self.comps[ci].window] += xl[ci]

    def forward(self, xl, bi, out=None):
        """A_bar applied to the composed image of block bi, composed in the
        aperture's line: the operator's product, if the block has one,
        written over the line from the image composed in the problem's
        canvas, with the direct components added into it.  The
        measurements are written over `out` or a new vector."""
        b = self.blocks[bi]
        img = self.aperture.image
        canvas = img.reshape(self.comps[b.direct[0]].shape)
        if b.op is None:
            own = self._compose(xl, b.direct, canvas)
            if own is not canvas:
                canvas[...] = own
        else:
            b.op.apply(self._compose(xl, b.through, self.canvas), img)
            self._add(xl, b.direct, canvas)
        z = self.aperture.forward(out)
        z /= self.scale
        return z

    def adjoint(self, r, bi, out, factor):
        """Accumulate factor * (A_bar B)^T r into the component list `out`."""
        b = self.blocks[bi]
        g = self.aperture.adjoint(r)    # a view of the line
        g /= self.scale
        # op.T g, written over the canvas, is taken before g is scaled in
        # place; each product is scaled and cropped to its components' windows
        vs = [(g, b.direct)]
        if b.op is not None:
            vs.append((b.op.T.apply(g, self.canvas), b.through))
        for v, cis in vs:
            v *= factor
            for ci in cis:
                c = self.comps[ci]
                out[ci] += v.reshape(c.shape)[c.window]

    def grad(self, x, ci, out=None):
        """E_c D x_c: component ci's masked TV differences on its window,
        written over `out` or a new array."""
        g, e = tv_grad(x, out), self.comps[ci].edges
        # one direction at a time, so numpy casts E through half the buffer
        for k in range(0 if e is None else 2):
            g[k] *= e[k]
        return g

    def normal(self, xl, mu, g=None, fwd=None, out=None):
        """H x = mu (D^T E D x + sum_b (A_bar B_b)^T A_bar B_b x), projected,
        written over the _Vec `out` or a new one.  Each E_c D x_c and
        A_bar B_b x is dropped once taken back through its adjoint, and a
        fresh E_c D x_c is formed one direction at a time; a caller that
        carries them for this x passes them as g, fwd.  Inside a solve the
        fresh direction and the measurements are formed in its scratch."""
        _, _, ds, zs = self._work
        if out is None:
            out = self.vec()
        out.flat.fill(0.0)
        for ci, (x, h) in enumerate(zip(xl, out)):
            if g is not None:
                _tv_adjoint(g[ci], h)
                continue
            d, e = np.empty(x.shape) if ds is None else ds[ci], self.comps[ci].edges
            for k in (0, 1):
                dk = _diff(x, k, d)
                if e is not None:
                    dk *= e[k].reshape(-1)[:dk.size]
                elif not k:
                    d[:, -1:] = 0.0
                _diff_adjoint(dk, k, h)
        out.flat *= mu
        for bi in range(len(self.blocks)):
            self.adjoint(self.forward(xl, bi, zs) if fwd is None else fwd[bi],
                         bi, out, mu)
        self.project(out)
        return out

    def project(self, xl):
        """Zero each component off its support, in place."""
        for c, x in zip(self.comps, xl):
            if c.crop is not None:
                x *= c.crop

    def _dot(self, al, bl):
        return sum(float(np.dot(a.ravel(), b.ravel())) for a, b in zip(al, bl))

    # -- main loop ----------------------------------------------------------

    def solve(self):
        """Solve; returns the component images and a result carrying every
        field but the mode-specific images."""
        try:
            x, res = self._iterate()
        finally:
            self._work = (None, None, None, None)
        # each full component is a view of x's copy, and each windowed one
        # is laid on a zeroed canvas
        xl = self.vec(x)
        return [self._compose(xl, [ci]) for ci in range(len(self.comps))], res

    def _carry(self, xl, g, fwd):
        """Write E D x over the carried g and A_bar B x over fwd."""
        for ci, x in enumerate(xl):
            self.grad(x, ci, g[ci])
        for bi, f in enumerate(fwd):
            self.forward(xl, bi, f)

    def _iterate(self):
        """The splitting on one working block; returns a copy of the final
        x's array, so that the block goes with the call, and the result."""
        n, m, nb = self.size, self.spec.count, len(self.blocks)
        big = max([m] + [math.prod(c.window_shape) for c in self.comps])
        # the working block: x and x_old; w, lambda and g as (2, h, w) per
        # component; fwd, the targets and nu per block; and q, the residual
        # r with normal's scratch in CG and every other temporary outside
        xf, xo, wf, lf, gf, ff, tf, vf, q = np.split(
            np.empty(9 * n + 3 * nb * m + big),
            np.cumsum([n, n, 2 * n, 2 * n, 2 * n, nb * m, nb * m, nb * m]))
        wl, ll, g = ([f[2 * a:2 * b].reshape((2,) + shape) for a, b, shape in self.spans]
                     for f in (wf, lf, gf))
        fwd, targets, nu = (np.split(f, nb) for f in (ff, tf, vf))
        # g is dead from the warm-start residual to the end of CG, so p and
        # H p live there; q's head holds each component's (2, h, w) scratch
        # outside CG, and past r normal's scratch
        qg = [q[:2 * (b - a)].reshape((2,) + s) for a, b, s in self.spans]
        self._work = (self.vec(gf[:n]), self.vec(gf[n:]),
                      [q[n:n + b - a].reshape(s) for a, b, s in self.spans], q[n:n + m])
        xl, x_old, rl = self.vec(xf), self.vec(xo), self.vec(q[:n])
        cfg = self.cfg
        mu = PENALTY    # one penalty on both the TV and the data splits
        cap = PENALTY * CONTINUATION_CAP

        # init: adjoint back-projection sum_b A_b^T z_b / ||A||^2, which puts
        # the flat (mean-intensity) part at image scale; adjoint already
        # divides by scale^2 = ||A||^2 / order, so correct by 1/order; the
        # multipliers for D x = w and A x = z start at zero
        for f in (xf, lf, vf):
            f.fill(0.0)
        for bi in range(nb):
            self.adjoint(self.zbar[bi], bi, xl, 1.0)
        xl.flat /= float(self.spec.order)
        self.project(xl)

        # g = E D x and fwd = A_bar B x are taken once per new x and carried
        # to all their uses: the multiplier update and the objective, then
        # the next shrink, the next fidelity targets and the next CG's
        # warm-start residual.  Each use sees the same bits it would get by
        # recomputing the product on the same x.
        self._carry(xl, g, fwd)

        obj_hist = []
        res_hist = []
        converged = False

        for t in range(1, cfg.max_iters + 1):
            # shrinkage step on the gradient splits
            for ci, c in enumerate(self.comps):
                w = np.divide(ll[ci], mu, out=wl[ci])
                w += g[ci]
                tv_shrink(w, c.weight / mu, out=w, work=qg[ci])
            # fidelity targets zbar + shrink r: projection onto each block's
            # eps ball; a noise-free block has radius 0, so shrink is 0 and
            # the target is zbar
            for bi, r in enumerate(targets):
                np.add(fwd[bi], np.divide(nu[bi], mu, out=r), out=r)
                r -= self.zbar[bi]
                rn = float(np.linalg.norm(r))
                shrink = min(1.0, self.eps[bi] / rn) if rn > 0.0 else 0.0
                r *= shrink
                np.add(self.zbar[bi], r, out=r)

            # quadratic subproblem by projected conjugate gradients, from
            # the warm-start residual rhs - H x: H x reuses g and fwd, whose
            # buffers then hold the right-hand side's temporaries; rhs is
            # formed over x_old, which then takes a copy of x for CG to
            # iterate x in place
            x_prev_norm = math.sqrt(self._dot(xl, xl))
            r0 = self.normal(xl, mu, g, fwd, out=rl)
            rhs = x_old
            rhs.flat.fill(0.0)
            for w, lam, u, h in zip(wl, ll, g, rhs):
                _tv_adjoint(np.subtract(w, np.divide(lam, mu, out=u), out=u), h)
            rhs.flat *= mu
            for bi, (z, v, u) in enumerate(zip(targets, nu, fwd)):
                self.adjoint(np.subtract(z, np.divide(v, mu, out=u), out=u), bi, rhs, mu)
            self.project(rhs)
            np.subtract(rhs.flat, r0.flat, out=r0.flat)
            target = CG_TOL * math.sqrt(max(self._dot(rhs, rhs), 1.0e-300))
            x_old.flat[...] = xl.flat
            xl = self._cg(xl, r0, target, mu)
            self.project(xl)

            if not np.isfinite(xl.flat, out=q.view(np.bool_)[:n]).all():
                raise SolverError(f"solver diverged (non-finite values) at iteration {t}")

            # dual updates (wl and the targets are scratch until reformed)
            self._carry(xl, g, fwd)
            for f, u, v in zip(fwd, targets, nu):
                v += np.multiply(mu, np.subtract(f, u, out=u), out=u)
            for ci, w in enumerate(wl):
                ll[ci] += np.multiply(mu, np.subtract(g[ci], w, out=w), out=w)

            obj = sum(c.weight * float(np.abs(gc, out=u).sum())
                      for c, gc, u in zip(self.comps, g, qg))
            res_abs = [float(np.linalg.norm(np.subtract(f, z, out=u)))
                       for f, z, u in zip(fwd, self.zbar, targets)]
            res_rel = [res_abs[bi] / (self.znorm[bi] if self.znorm[bi] > 0.0 else 1.0)
                       for bi in range(nb)]
            obj_hist.append(obj)
            res_hist.append(res_rel)

            step = self.vec(np.subtract(xl.flat, x_old.flat, out=q[:n]))
            diff = math.sqrt(sum(float(np.sum(np.square(a, out=a))) for a in step))
            change = diff / max(x_prev_norm, 1.0e-12)
            feasible = all(
                res_abs[bi] <= max(cfg.rel_tol * self.znorm[bi], self.eps[bi])
                for bi in range(nb))
            if change < cfg.rel_tol and feasible:
                converged = True
                break

            if t % CONTINUATION_EVERY == 0:
                mu = min(2.0 * mu, cap)

        return xl.flat.copy(), ReconstructionResult(
            iterations=len(obj_hist),
            converged=converged,
            objective_history=np.asarray(obj_hist),
            residual_history=np.asarray(res_hist),
            epsilon=self.radii,
        )

    def _cg(self, x0, r0, target, mu):
        """Conjugate gradients for H x = rhs at penalty mu from x0 until the
        residual norm is at most `target`; x0 and r0 = rhs - H x0 are
        updated in place, and p and H p are the solve's."""
        pl, hp = self._work[:2]
        x, r, p, h = x0.flat, r0.flat, pl.flat, hp.flat
        p[...] = r
        rs = self._dot(r0, r0)
        for _ in range(CG_MAX_ITERS):
            if math.sqrt(rs) <= target:
                break
            self.normal(pl, mu, out=hp)
            denom = self._dot(pl, hp)
            if denom <= 0.0:
                break
            alpha = rs / denom
            r -= np.multiply(alpha, h, out=h)
            x += np.multiply(alpha, p, out=h)
            rs_new = self._dot(r0, r0)
            ratio = rs_new / rs
            rs = rs_new
            p *= ratio
            p += r
        return x0


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def reconstruct_single(z: np.ndarray, spec: SensingSpec, width: int, height: int,
                       cfg: SolverConfig | None = None) -> ReconstructionResult:
    """TV reconstruction of one view from its measurements.

    `z` may be a single vector or a (k, rows) stack of vectors measured
    from the same image with the same spec; each stacked vector adds an
    independent fidelity constraint.
    """
    (image,), res = Problem.single(z, spec, width, height, cfg).solve()
    res.image = image
    return res


def reconstruct_joint(z1: np.ndarray, z2: np.ndarray, spec: SensingSpec,
                      width: int, height: int, shift: ShiftOperator,
                      masks: RegionMasks,
                      cfg: SolverConfig | None = None) -> ReconstructionResult:
    """Joint two-sensor reconstruction into common + disjoint components.

    Both sensors record the same displayed pattern sequence, so one spec
    covers both measurement vectors.
    """
    problem = Problem.joint(z1, z2, spec, width, height, shift, masks, cfg)
    (common, d1, d2), res = problem.solve()
    res.common, res.disjoint1, res.disjoint2 = common, d1, d2
    res.view1 = common + d1
    res.view2 = apply_shift(shift, res.view1) + d2
    return res


def reconstruct_superres(z1: np.ndarray, z2: np.ndarray, spec: SensingSpec,
                         width: int, height: int, dx: float,
                         cfg: SolverConfig | None = None) -> ReconstructionResult:
    """Reconstruct a double-horizontal-resolution image from both sensors.

    The horizontal offset dx must be strictly fractional: the second
    sensor then samples the high-res grid at a new phase (dx = 3.5 low-res
    pixels is a 7-pixel high-res shift).  Integer or non-finite dx raises
    ValueError.
    """
    problem = Problem.superres(z1, z2, spec, width, height, dx, cfg)
    (hr, d1, d2), res = problem.solve()
    res.image, res.disjoint1, res.disjoint2 = hr, d1, d2
    # each view is its sensor's sampling of hr plus its strip
    res.view1, res.view2 = ((b.op @ hr.ravel()).reshape(height, width) + d
                            for b, d in zip(problem.blocks, (d1, d2)))
    return res
