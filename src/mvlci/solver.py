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
own vector by epsilon_for_noise.  The disjoint-region weight sigma
defaults to 1.

The operator is normalized from its spectrum in closed form: for m rows
(row 0 all-ones) over a full order-N image, A^T A has the nonzero
eigenvalues N/4 (m - 2 times), N lam and N/(4 lam), where
lam = (t + sqrt(t^2 - 1)) / 2 and t = 1 + m/4.

Across an iteration the engine keeps x, the splits w = D x with their
multipliers, the fidelity multipliers, and g = E D x and A x of the current
x.  The shrink, both multiplier updates, the right-hand side and the CG
vectors are updated in place; the normal operator forms one component's
gradient or one block's measurements at a time and drops it once taken
back through its adjoint.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .geometry import (
    RegionMasks,
    ShiftOperator,
    apply_shift,
    build_region_masks,
    build_shift,
)
from .sensing import SensingSpec, measure, measure_adjoint


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

def tv_grad(image: np.ndarray) -> np.ndarray:
    """Forward differences with replicate boundary, stacked as (2, h, w)."""
    img = np.asarray(image, dtype=np.float64)
    g = np.zeros((2,) + img.shape)
    g[0][:, :-1] = img[:, 1:] - img[:, :-1]
    g[1][:-1, :] = img[1:, :] - img[:-1, :]
    return g


def tv_grad_adjoint(g: np.ndarray) -> np.ndarray:
    out = np.zeros(g.shape[1:])
    gx = g[0]
    gy = g[1]
    out[:, 1:] += gx[:, :-1]
    out[:, :-1] -= gx[:, :-1]
    out[1:, :] += gy[:-1, :]
    out[:-1, :] -= gy[:-1, :]
    return out


def tv_shrink(values: np.ndarray, threshold: float, out=None) -> np.ndarray:
    """Soft threshold toward zero: sign(v) * max(|v| - threshold, 0), into
    `out` when given (it may be `values` itself)."""
    v = np.asarray(values, dtype=np.float64)
    mag = np.maximum(np.abs(v) - threshold, 0.0)
    return np.multiply(np.sign(v, out=out), mag, out=out)


def epsilon_for_noise(noise_sigma: float, z: np.ndarray) -> float:
    """Discrepancy-principle fidelity ball matching add_noise's scaling."""
    z = np.asarray(z, dtype=np.float64)
    return float(noise_sigma * math.sqrt(z.size) * np.mean(np.abs(z)))


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
# shared engine
# ---------------------------------------------------------------------------

@dataclass
class _Comp:
    shape: tuple
    mask: np.ndarray | None   # bool (h, w) or None for full support
    weight: float             # l1 weight on its TV term

    def edge_mask(self) -> np.ndarray | None:
        """Bool mask of TV differences interior to the support; None for
        full support, where tv_grad already zeroes the replicate border.

        Differences that straddle the support boundary are excluded, so a
        component pays no TV for the cliff between its content and the
        zeroed-out remainder of the canvas.
        """
        if self.mask is None:
            return None
        m = self.mask
        e = np.zeros((2,) + self.shape, dtype=bool)
        e[0][:, :-1] = m[:, :-1] & m[:, 1:]
        e[1][:-1, :] = m[:-1, :] & m[1:, :]
        return e


@dataclass
class _Block:
    z: np.ndarray             # raw measurement vector
    terms: list               # [(comp_index, csr matrix or None), ...]


class _Engine:
    """One augmented-Lagrangian TV solve over a list of image components,
    with one block per sensor, all measured through the same spec."""

    def __init__(self, comps, blocks, spec: SensingSpec, cfg: SolverConfig):
        self.comps = comps
        self.blocks = blocks
        self.spec = spec
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
        self.edges = [c.edge_mask() for c in comps]
        # each term with its operator's transpose, taken once: op.T is a CSC
        # view of the CSR op that sums in the order a CSR copy of it would
        self.terms = [[(ci, op, None if op is None else op.T) for ci, op in b.terms]
                      for b in blocks]

    # -- linear pieces ------------------------------------------------------

    def _forward(self, xl, bi):
        """A_bar applied to the composed image of block bi."""
        img = None
        for ci, op, _ in self.terms[bi]:
            v = xl[ci].ravel() if op is None else op @ xl[ci].ravel()
            img = v if img is None else img + v
        return measure(img, self.spec) / self.scale

    def _backward(self, r, bi, out, factor):
        """Accumulate factor * (A_bar B)^T r into the component list `out`."""
        g = measure_adjoint(r, self.spec) / self.scale
        done = {}  # op_t @ g once per operator: joint's shift serves c and d1
        for ci, op, op_t in self.terms[bi]:
            v = g if op is None else done.get(id(op))
            if v is None:
                v = done[id(op)] = op_t @ g
            out[ci] += factor * v.reshape(self.comps[ci].shape)

    def _forwards(self, xl):
        """A_bar B_b x for every block b."""
        return [self._forward(xl, bi) for bi in range(len(self.blocks))]

    def _grad(self, x, ci):
        """E_c D x_c: component ci's masked TV differences."""
        g, e = tv_grad(x), self.edges[ci]
        return g if e is None else np.multiply(g, e, out=g)

    def _normal(self, xl, mu, g=None, fwd=None):
        """H x = mu (D^T E D x + sum_b (A_bar B_b)^T A_bar B_b x), projected.
        Each E_c D x_c and A_bar B_b x is dropped once taken back through its
        adjoint; a caller that carries them for this x passes them as g, fwd."""
        out = [tv_grad_adjoint(self._grad(x, ci) if g is None else g[ci])
               for ci, x in enumerate(xl)]
        for h in out:
            h *= mu
        for bi in range(len(self.blocks)):
            self._backward(self._forward(xl, bi) if fwd is None else fwd[bi],
                           bi, out, mu)
        self._project(out)
        return out

    def _project(self, xl):
        for c, x in zip(self.comps, xl):
            if c.mask is not None:
                x *= c.mask

    def _dot(self, al, bl):
        return sum(float(np.dot(a.ravel(), b.ravel())) for a, b in zip(al, bl))

    # -- main loop ----------------------------------------------------------

    def run(self):
        """Solve; returns the component images and a result carrying every
        field but the mode-specific images."""
        cfg = self.cfg
        nb = len(self.blocks)
        mu = PENALTY    # one penalty on both the TV and the data splits
        cap = PENALTY * CONTINUATION_CAP

        # init: adjoint back-projection sum_b A_b^T z_b / ||A||^2, which puts
        # the flat (mean-intensity) part at image scale; _backward already
        # divides by scale^2 = ||A||^2 / order, so correct by 1/order
        xl = [np.zeros(c.shape) for c in self.comps]
        for bi in range(nb):
            self._backward(self.zbar[bi], bi, xl, 1.0)
        for ci in range(len(self.comps)):
            xl[ci] /= float(self.spec.order)
        self._project(xl)

        # g = E D x and fwd = A_bar B x are taken once per new x and carried
        # to all their uses: the multiplier update and the objective, then
        # the next shrink, the next fidelity targets and the next CG's
        # warm-start residual.  Each use sees the same bits it would get by
        # recomputing the product on the same x.
        g = [self._grad(x, ci) for ci, x in enumerate(xl)]
        fwd = self._forwards(xl)
        wl = [np.empty_like(gc) for gc in g]      # splits w = D x
        ll = [np.zeros_like(gc) for gc in g]      # multipliers for D x = w
        nu = [np.zeros_like(z) for z in self.zbar]  # multipliers for A x = z

        obj_hist = []
        res_hist = []
        converged = False

        for t in range(1, cfg.max_iters + 1):
            # shrinkage step on the gradient splits
            for ci, c in enumerate(self.comps):
                w = np.divide(ll[ci], mu, out=wl[ci])
                w += g[ci]
                tv_shrink(w, c.weight / mu, out=w)
            # fidelity targets zbar + shrink r: projection onto each block's
            # eps ball, formed in r's buffer; a noise-free block has radius 0,
            # so shrink is 0 and the target is zbar
            targets = []
            for bi in range(nb):
                r = fwd[bi] + nu[bi] / mu
                r -= self.zbar[bi]
                rn = float(np.linalg.norm(r))
                shrink = min(1.0, self.eps[bi] / rn) if rn > 0.0 else 0.0
                r *= shrink
                targets.append(np.add(self.zbar[bi], r, out=r))

            # quadratic subproblem by projected conjugate gradients
            rhs = [tv_grad_adjoint(w - lc / mu) for w, lc in zip(wl, ll)]
            for h in rhs:
                h *= mu
            for bi in range(nb):
                self._backward(targets[bi] - nu[bi] / mu, bi, rhs, mu)
            self._project(rhs)

            x_prev_norm = math.sqrt(self._dot(xl, xl))
            # the warm-start residual rhs - H x reuses g and fwd and is
            # written over H x; g, fwd and rhs are dropped before CG runs
            r0 = self._normal(xl, mu, g, fwd)
            g = fwd = None
            for ci, h in enumerate(r0):
                np.subtract(rhs[ci], h, out=h)
            target = CG_TOL * math.sqrt(max(self._dot(rhs, rhs), 1.0e-300))
            rhs = None
            x_old = xl    # _cg iterates on copies
            xl = self._cg(xl, r0, target, mu)
            self._project(xl)

            if not all(np.all(np.isfinite(x)) for x in xl):
                raise SolverError(f"solver diverged (non-finite values) at iteration {t}")

            # dual updates (wl is scratch until the next shrink)
            fwd = self._forwards(xl)
            g = [self._grad(x, ci) for ci, x in enumerate(xl)]
            for bi in range(nb):
                nu[bi] += mu * (fwd[bi] - targets[bi])
            for ci, w in enumerate(wl):
                ll[ci] += np.multiply(mu, np.subtract(g[ci], w, out=w), out=w)

            obj = sum(c.weight * float(np.abs(gc).sum())
                      for c, gc in zip(self.comps, g))
            res_abs = [float(np.linalg.norm(fwd[bi] - self.zbar[bi]))
                       for bi in range(nb)]
            res_rel = [res_abs[bi] / (self.znorm[bi] if self.znorm[bi] > 0.0 else 1.0)
                       for bi in range(nb)]
            obj_hist.append(obj)
            res_hist.append(res_rel)

            diff = math.sqrt(sum(float(np.sum((a - b) ** 2))
                                 for a, b in zip(xl, x_old)))
            x_old = None    # not held through the next warm start
            change = diff / max(x_prev_norm, 1.0e-12)
            feasible = all(
                res_abs[bi] <= max(cfg.rel_tol * self.znorm[bi], self.eps[bi])
                for bi in range(nb))
            if change < cfg.rel_tol and feasible:
                converged = True
                break

            if t % CONTINUATION_EVERY == 0:
                mu = min(2.0 * mu, cap)

        return xl, ReconstructionResult(
            iterations=len(obj_hist),
            converged=converged,
            objective_history=np.asarray(obj_hist),
            residual_history=np.asarray(res_hist),
            epsilon=self.radii,
        )

    def _cg(self, x0, r0, target, mu):
        """Conjugate gradients for H x = rhs at penalty mu from x0 until the
        residual norm is at most `target`; r0 = rhs - H x0 is updated in place."""
        xl = [x.copy() for x in x0]
        rl = r0
        pl = [r.copy() for r in rl]
        rs = self._dot(rl, rl)
        for _ in range(CG_MAX_ITERS):
            if math.sqrt(rs) <= target:
                break
            hp = self._normal(pl, mu)
            denom = self._dot(pl, hp)
            if denom <= 0.0:
                break
            alpha = rs / denom
            for ci, p in enumerate(pl):
                xl[ci] += alpha * p
                rl[ci] -= np.multiply(alpha, hp[ci], out=hp[ci])
            hp = None    # not held while the next _normal builds its successor
            rs_new = self._dot(rl, rl)
            ratio = rs_new / rs
            rs = rs_new
            for r, p in zip(rl, pl):
                p *= ratio
                p += r
        return xl


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _measurements(spec: SensingSpec, width: int, height: int, *zs) -> list:
    """The measurement vectors of one solve as float64, each checked to
    hold one value per selected row."""
    if width * height != spec.pixel_count:
        raise ValueError("width*height must equal spec.pixel_count")
    zs = [np.asarray(z, dtype=np.float64) for z in zs]
    for z in zs:
        if z.shape != (spec.count,):
            raise ValueError(
                "measurement vectors must have the same length as the spec's "
                f"row count ({spec.count}), got shape {z.shape}")
    return zs


def reconstruct_single(z: np.ndarray, spec: SensingSpec, width: int, height: int,
                       cfg: SolverConfig | None = None) -> ReconstructionResult:
    """TV reconstruction of one view from its measurements.

    `z` may be a single vector or a (k, rows) stack of vectors measured
    from the same image with the same spec; each stacked vector adds an
    independent fidelity constraint.
    """
    cfg = cfg or SolverConfig()
    z = np.asarray(z, dtype=np.float64)
    # a non-empty stack is checked row by row; anything else as one vector
    zs = _measurements(spec, width, height, *(z if z.ndim == 2 and len(z) else [z]))
    comps = [_Comp((height, width), None, 1.0)]
    blocks = [_Block(zrow, [(0, None)]) for zrow in zs]
    (image,), res = _Engine(comps, blocks, spec, cfg).run()
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
    cfg = cfg or SolverConfig()
    z1, z2 = _measurements(spec, width, height, z1, z2)
    if (shift.width, shift.height) != (width, height):
        raise ValueError("shift dimensions disagree with the image size")
    if masks.common.shape != (height, width):
        raise ValueError("mask dimensions disagree with the image size")
    if (shift.dx, shift.dy) != (masks.dx, masks.dy):
        raise ValueError("shift and masks were built for different offsets")
    comps = [
        _Comp((height, width), masks.common, 1.0),
        _Comp((height, width), masks.disjoint[0], float(cfg.sigma) / 2.0),
        _Comp((height, width), masks.disjoint[1], float(cfg.sigma) / 2.0),
    ]
    # Sensor 2 sees the first view shifted: for integer dx the shift of
    # I_D1 falls outside the grid and the constraint reduces to the usual
    # A(U I_C + I_D2) = z2, but for fractional dx the boundary column of
    # I_D1 leaks half a tap into the last common column of view 2, so the
    # shift is routed over I_C + I_D1 to keep the model exact.
    blocks = [
        _Block(z1, [(0, None), (1, None)]),
        _Block(z2, [(0, shift.matrix), (1, shift.matrix), (2, None)]),
    ]
    (common, d1, d2), res = _Engine(comps, blocks, spec, cfg).run()
    res.common, res.disjoint1, res.disjoint2 = common, d1, d2
    res.view1 = common + d1
    res.view2 = apply_shift(shift, res.view1) + d2
    return res


def _pair_average_matrix(width: int, height: int) -> sparse.csr_matrix:
    """Sampling S: low-res pixel (x, y) = mean of high-res (2x, 2x+1), so
    row p = y*width + x holds 0.5 at columns 2p and 2p + 1 (CSR, direct)."""
    n_lo = width * height
    idx = sparse.get_index_dtype(maxval=2 * n_lo)
    return sparse.csr_matrix(
        (np.full(2 * n_lo, 0.5), np.arange(2 * n_lo, dtype=idx),
         np.arange(0, 2 * n_lo + 1, 2, dtype=idx)),
        shape=(n_lo, 2 * n_lo))


def reconstruct_superres(z1: np.ndarray, z2: np.ndarray, spec: SensingSpec,
                         width: int, height: int, dx: float,
                         cfg: SolverConfig | None = None) -> ReconstructionResult:
    """Reconstruct a double-horizontal-resolution image from both sensors.

    The horizontal offset dx must be strictly fractional: the second
    sensor then samples the high-res grid at a new phase (dx = 3.5 low-res
    pixels is a 7-pixel high-res shift).  Integer or non-finite dx raises
    ValueError.
    """
    cfg = cfg or SolverConfig()
    z1, z2 = _measurements(spec, width, height, z1, z2)
    check_fractional_dx(dx)
    masks = build_region_masks(dx, 0.0, width, height)
    s1 = _pair_average_matrix(width, height)
    s2 = (s1 @ build_shift(2.0 * dx, 0.0, 2 * width, height).matrix).tocsr()
    comps = [
        _Comp((height, 2 * width), None, 1.0),
        _Comp((height, width), masks.disjoint[0], float(cfg.sigma) / 2.0),
        _Comp((height, width), masks.disjoint[1], float(cfg.sigma) / 2.0),
    ]
    blocks = [
        _Block(z1, [(0, s1), (1, None)]),
        _Block(z2, [(0, s2), (2, None)]),
    ]
    (hr, d1, d2), res = _Engine(comps, blocks, spec, cfg).run()
    res.image, res.disjoint1, res.disjoint2 = hr, d1, d2
    res.view1 = (s1 @ hr.ravel()).reshape(height, width) + d1
    res.view2 = (s2 @ hr.ravel()).reshape(height, width) + d2
    return res
