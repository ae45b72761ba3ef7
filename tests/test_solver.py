"""TV pieces, the problem description and its solve, and the reconstruction APIs."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from mvlci import geometry, sensing, solver
from mvlci.geometry import apply_shift, build_region_masks, build_sampling, build_shift
from mvlci.scene import CameraGeometry, make_test_scene, render_view
from mvlci.sensing import (
    SensingSpec,
    add_noise,
    epsilon_for_noise,
    measure,
    measure_adjoint,
    select_rows,
)
from mvlci.solver import (
    PENALTY,
    Block,
    Component,
    Problem,
    SolverConfig,
    reconstruct_joint,
    reconstruct_single,
    reconstruct_superres,
    tv_grad,
    tv_grad_adjoint,
    tv_shrink,
)
from test_geometry import assert_same_products, coo_build_shift_matrix


def make_spec(order, rate, seed, pixel_count):
    rows = select_rows(order, rate, seed)
    return SensingSpec(order=order, rows=rows, seed=seed, pixel_count=pixel_count)


# ---------------------------------------------------------------------------
# total variation pieces
# ---------------------------------------------------------------------------

def test_tv_of_a_vertical_step_edge():
    img = np.zeros((8, 8))
    img[:, 4:] = 1.0
    assert np.abs(tv_grad(img)).sum() == 8.0


def test_tv_of_a_constant_is_zero():
    assert not tv_grad(np.full((5, 9), 0.7)).any()


def test_tv_grad_shape_and_replicate_boundary():
    g = tv_grad(np.random.default_rng(0).uniform(size=(6, 11)))
    assert g.shape == (2, 6, 11)
    assert np.all(g[0][:, -1] == 0.0)
    assert np.all(g[1][-1, :] == 0.0)


def test_tv_grad_and_adjoint_are_adjoint():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 9))
    g = rng.standard_normal((2, 7, 9))
    lhs = np.sum(tv_grad(x) * g)
    rhs = np.sum(x * tv_grad_adjoint(g))
    assert abs(lhs - rhs) < 1e-12


def test_tv_shrink_closed_form():
    assert tv_shrink(np.array([0.3]), 0.5)[0] == 0.0
    assert tv_shrink(np.array([-0.3]), 0.5)[0] == 0.0
    assert np.allclose(tv_shrink(np.array([2.0, -1.5]), 0.5), [1.5, -1.0])
    v = np.random.default_rng(2).standard_normal(100)
    out = tv_shrink(v, 0.25)
    assert np.allclose(out, np.sign(v) * np.maximum(np.abs(v) - 0.25, 0.0))


def signed_zeros(rng, shape):
    """Normal values with about a fifth set to -0.0, a tenth to +0.0 and a
    constant run of -0.0, so sign-of-zero slips show in the bytes."""
    v = rng.standard_normal(shape)
    u = rng.uniform(size=shape)
    v[u < 0.2] = -0.0
    v[(u >= 0.2) & (u < 0.3)] = 0.0
    v.reshape(-1)[: v.size // 8] = -0.0
    return v


@pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
def test_tv_shrink_is_bytewise_the_closed_form(threshold):
    """tv_shrink matches sign(v) * max(|v| - t, 0) byte for byte (array_equal
    would count -0.0 as 0.0), into a new array, into `out` and in place."""
    rng = np.random.default_rng(3)
    v = signed_zeros(rng, (2, 9, 7))
    v[0, 0, :4] = [threshold, -threshold, np.inf, -np.inf]
    want = (np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)).tobytes()
    before = v.tobytes()
    assert tv_shrink(v, threshold).tobytes() == want
    assert v.tobytes() == before
    out = np.full_like(v, np.nan)
    assert tv_shrink(v, threshold, out=out) is out
    assert out.tobytes() == want
    assert tv_shrink(v, threshold, out=v) is v
    assert v.tobytes() == want


def test_tv_shrink_makes_one_temporary():
    """Into `out` or in place, the shrink's only temporary is |v|: its
    traced peak stays at one input size."""
    v = np.random.default_rng(6).standard_normal((2, 256, 512))
    out = np.empty_like(v)
    for target in (out, v):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tv_shrink(v, 0.5, out=target)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= v.nbytes + 4096


def loop_tv_grad(x):
    """D x pixel by pixel: each difference to the next pixel along x (k = 0)
    or y (k = 1), +0.0 where there is none."""
    h, w = x.shape
    g = np.zeros((2, h, w))
    for i in range(h):
        for j in range(w):
            if j < w - 1:
                g[0, i, j] = x[i, j + 1] - x[i, j]
            if i < h - 1:
                g[1, i, j] = x[i + 1, j] - x[i, j]
    return g


def loop_tv_grad_adjoint(g):
    """D^T g pixel by pixel, from +0.0, in the order of the array form: the
    x-difference ending at the pixel, the one starting there, then the same
    along y.  g[0][:, -1] and g[1][-1] are never read."""
    h, w = g.shape[1:]
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            v = out[i, j]
            if j > 0:
                v += g[0, i, j - 1]
            if j < w - 1:
                v -= g[0, i, j]
            if i > 0:
                v += g[1, i - 1, j]
            if i < h - 1:
                v -= g[1, i, j]
            out[i, j] = v
    return out


@pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1), (1, 1), (0, 0), (0, 5),
                                   (5, 0)])
def test_tv_pieces_are_bytewise_the_pixel_loops(shape):
    """tv_grad and tv_grad_adjoint match the loops byte for byte, signed
    zeros included, on one-row, one-column and empty shapes and on
    non-contiguous views; the adjoint leaves NaN in the entries D never
    writes unread, and neither function writes to its input."""
    rng = np.random.default_rng(6)
    x = signed_zeros(rng, shape)
    g = signed_zeros(rng, (2,) + shape)
    wide = signed_zeros(rng, (shape[0], 2 * shape[1]))
    gwide = signed_zeros(rng, (2, shape[0], 2 * shape[1]))
    tall = signed_zeros(rng, shape[::-1])
    gtall = signed_zeros(rng, (2,) + shape[::-1])
    nan = g.copy()
    nan[0][:, -1:] = np.nan
    nan[1][-1:] = np.nan
    for img in (x, wide[:, ::2], tall.T):
        before = img.tobytes()
        assert tv_grad(img).tobytes() == loop_tv_grad(img).tobytes()
        assert img.tobytes() == before
    for gi in (g, gwide[:, :, ::2], gtall.transpose(0, 2, 1), nan):
        before = gi.tobytes()
        got = tv_grad_adjoint(gi)
        assert got.shape == shape
        assert got.tobytes() == loop_tv_grad_adjoint(gi).tobytes()
        assert not np.isnan(got).any()
        assert gi.tobytes() == before


def stale(shape):
    """A buffer of `shape` holding NaN and -0.0 in alternate entries, the
    entries a reused buffer could leave behind."""
    buf = np.full(shape, np.nan)
    buf.reshape(-1)[::2] = -0.0
    return buf


@pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1), (1, 1), (0, 5)])
def test_tv_pieces_into_stale_buffers_are_bytewise_the_fresh_ones(shape):
    """tv_grad(x, out=buf) over a buffer of NaN and -0.0 gives a fresh
    tv_grad(x) byte for byte, the entries D leaves empty included, and
    returns buf; tv_shrink with such a buffer as its work array gives the
    fresh shrink, into a new array, into `out` and in place.  Inputs are
    one-row, one-column and strided, with zeros of both signs."""
    rng = np.random.default_rng(8)
    x = signed_zeros(rng, shape)
    wide = signed_zeros(rng, (shape[0], 2 * shape[1]))
    for img in (x, wide[:, ::2], signed_zeros(rng, shape[::-1]).T):
        want = tv_grad(img).tobytes()
        buf = stale((2,) + shape)
        assert tv_grad(img, out=buf) is buf
        assert buf.tobytes() == want
    v = signed_zeros(rng, (2,) + shape)
    for threshold in (0.0, 0.25):
        want = tv_shrink(v, threshold).tobytes()
        assert tv_shrink(v, threshold, work=stale(v.shape)).tobytes() == want
        out = stale(v.shape)
        assert tv_shrink(v, threshold, out=out, work=stale(v.shape)) is out
        assert out.tobytes() == want
        w = v.copy()
        assert tv_shrink(w, threshold, out=w, work=stale(v.shape)) is w
        assert w.tobytes() == want


def test_epsilon_for_noise_closed_form():
    z = np.array([1.0, -3.0, 2.0, -2.0])
    assert abs(epsilon_for_noise(0.1, z) - 0.1 * 2.0 * 2.0) < 1e-15


def power_iteration(spec, iters=30):
    """Reference estimate of ||A||_2^2: `iters` steps of the power method on
    A^T A from the flat image."""
    v = np.full(spec.pixel_count, 1.0 / math.sqrt(spec.pixel_count))
    lam = 1.0
    for _ in range(iters):
        w = measure_adjoint(measure(v, spec), spec)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


def dense_norm_sq(spec):
    """||A||_2^2 of the dense 0/1 aperture matrix, H[i, j] = (-1)^popcount(i & j)."""
    cols = np.arange(spec.pixel_count)
    h = 1.0 - 2.0 * (np.bitwise_count(spec.rows[:, None] & cols) & 1)
    return np.linalg.norm((h + 1.0) / 2.0, 2) ** 2


def problem_norm_sq(spec):
    """The ||A||^2 a one-block problem is scaled by: scale^2 * order."""
    problem = Problem(spec, [Component((1, spec.pixel_count))],
                      [Block(np.zeros(spec.count), [0])], SolverConfig())
    return problem.scale ** 2 * spec.order


@pytest.mark.parametrize("order", [16, 64, 256, 1024])
def test_closed_form_norm_is_the_dense_norm_on_a_full_image(order):
    for rate in (1.0 / order, 0.05, 0.25, 1.0):
        for seed in (0, 44):
            spec = make_spec(order, rate, seed, pixel_count=order)
            dense = dense_norm_sq(spec)
            assert abs(problem_norm_sq(spec) - dense) <= 1e-12 * dense, (rate, seed)


@pytest.mark.parametrize("order,rate", [(4096, 0.125), (4096, 0.25)])
def test_closed_form_norm_is_the_power_iteration_at_bench_specs(order, rate):
    spec = make_spec(order, rate, 42, pixel_count=order)
    power = power_iteration(spec)
    assert abs(problem_norm_sq(spec) - power) <= 1e-14 * power


# (order, rate, seed, pixel_count) with the image filling the order, where
# the closed form is exact; (4096, 0.125, 44) is a spec whose power loop
# ends in a 2-cycle.
NORM_SPECS = [
    (order, rate, seed, order)
    for order in (16, 64, 256, 1024)
    for rate in (0.05, 0.25, 1.0)
    for seed in (0, 44)
] + [(4096, 0.125, 44, 4096)]


@pytest.mark.parametrize("order,rate,seed,pixels", NORM_SPECS)
def test_closed_form_norm_is_within_4_ulps_of_the_power_loop(order, rate, seed, pixels):
    """The problem's closed-form ||A||^2 against all 30 steps of the power
    loop: within 4 ulps, the last ulps the two roundings leave."""
    spec = make_spec(order, rate, seed, pixel_count=pixels)
    power = power_iteration(spec)
    assert abs(problem_norm_sq(spec) - power) <= 4 * np.spacing(power)


@pytest.mark.parametrize("rate,seed", [(0.125, 42), (0.25, 43)])
def test_closed_form_norm_at_65536_takes_no_transform(monkeypatch, rate, seed):
    """The benchmark's 256x256 specs: the problem's closed-form scale takes
    no transform at all, and matches the full power loop within 4 ulps."""
    spec = make_spec(65536, rate, seed, pixel_count=65536)
    calls = []
    fwht = sensing.fwht

    def counting_fwht(x):
        calls.append(1)
        return fwht(x)

    monkeypatch.setattr(sensing, "fwht", counting_fwht)
    value = problem_norm_sq(spec)
    assert calls == []
    monkeypatch.undo()
    power = power_iteration(spec)
    assert abs(value - power) <= 4 * np.spacing(power)


def test_closed_form_norm_is_close_on_a_padded_image():
    """60x60 pixels in order 4096: the closed form is exact only at
    pixel_count = order, and stays within 0.1% here."""
    spec = make_spec(4096, 0.125, 42, pixel_count=60 * 60)
    dense = dense_norm_sq(spec)
    assert abs(problem_norm_sq(spec) - dense) <= 1e-3 * dense


# ---------------------------------------------------------------------------
# the problem's linear pieces
# ---------------------------------------------------------------------------

def fidelity_value_grad(problem, xl):
    """Value and gradient of 1/2 sum_b ||A_bar B x - z_bar||^2, built from
    the problem's forward and adjoint operators."""
    grad = [np.zeros(c.shape) for c in problem.comps]
    value = 0.0
    for bi in range(len(problem.blocks)):
        r = problem.forward(xl, bi) - problem.zbar[bi]
        value += 0.5 * float(np.dot(r, r))
        problem.adjoint(r, bi, grad, 1.0)
    return value, grad


def test_fidelity_gradient_passes_finite_difference_check():
    spec = make_spec(64, 0.5, 5, pixel_count=64)
    rng = np.random.default_rng(5)
    z = measure(rng.uniform(size=64), spec)
    problem = Problem(spec, [Component((8, 8))], [Block(z, [0])], SolverConfig())
    x = [rng.standard_normal((8, 8))]
    _, grad = fidelity_value_grad(problem, x)
    h = 1e-6
    worst = 0.0
    for (i, j) in [(0, 0), (3, 4), (7, 7), (2, 6), (5, 1), (6, 3)]:
        xp = [x[0].copy()]
        xm = [x[0].copy()]
        xp[0][i, j] += h
        xm[0][i, j] -= h
        fp, _ = fidelity_value_grad(problem, xp)
        fm, _ = fidelity_value_grad(problem, xm)
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - grad[0][i, j]) / max(1.0, abs(fd)))
    assert worst < 1e-5


def float_edge_mask(comp):
    """E as a float64 0/1 array for every component, full support included:
    the plain form that a Component's bool edges (None for full support)
    must reproduce bit for bit."""
    e = np.ones((2,) + comp.shape)
    e[0][:, -1] = 0.0
    e[1][-1, :] = 0.0
    if comp.mask is not None:
        m = comp.mask.astype(np.float64)
        e[0][:, :-1] *= m[:, :-1] * m[:, 1:]
        e[1][:-1, :] *= m[:-1, :] * m[1:, :]
    return e


def assembled_normal(problem, xl, mu):
    """H x assembled from whole full-canvas lists: every masked gradient
    and every block's forward product first, then mu D^T g, then each
    block's adjoint through its operator's transpose.  A block's image is
    its operator applied once to the sum of the components behind it, plus
    the sum of its direct components, as in A (U(c + d1) + d2).  Returns H x, the
    gradients and the forwards."""
    def summed(cis):
        u = xl[cis[0]].ravel().copy()
        for ci in cis[1:]:
            u = u + xl[ci].ravel()
        return u

    gl = [float_edge_mask(c) * tv_grad(x) for c, x in zip(problem.comps, xl)]
    fl = []
    for b in problem.blocks:
        img = summed(b.direct)
        if b.op is not None:
            img = b.op @ summed(b.through) + img
        fl.append(measure(img, problem.spec) / problem.scale)
    out = [mu * tv_grad_adjoint(g) for g in gl]
    for b, f in zip(problem.blocks, fl):
        g = measure_adjoint(f, problem.spec) / problem.scale
        views = [(ci, g) for ci in b.direct]
        if b.op is not None:
            views += [(ci, b.op.T @ g) for ci in b.through]
        for ci, v in views:
            out[ci] += mu * v.reshape(problem.comps[ci].shape)
    for c, x in zip(problem.comps, out):
        if c.mask is not None:
            x *= c.mask
    return out, gl, fl


def normal_case(mode, dx, dy):
    """The Problem a reconstruct_* call on a 16x16 image builds; single
    mode stacks two vectors."""
    spec = make_spec(256, 0.5, 11, pixel_count=256)
    z = np.zeros(spec.count)
    if mode == "single":
        return Problem.single(np.stack([z, z]), spec, 16, 16)
    if mode == "superres":
        return Problem.superres(z, z, spec, 16, 16, dx)
    masks = build_region_masks(dx, dy, 16, 16)
    shift = build_shift(dx, dy, 16, 16)
    return Problem.joint(z, z, spec, 16, 16, shift, masks, SolverConfig(sigma=1.0))


@pytest.mark.parametrize("mode,dx,dy", [
    ("single", 0.0, 0.0), ("joint", 3.5, 0.0), ("joint", -2.5, -1.25),
    ("joint", 3.0, -2.0), ("joint", 0.0, 0.0), ("superres", 3.5, 0.0),
    ("superres", -2.5, 0.0),
])
def test_streamed_normal_is_bytewise_the_assembled_one(mode, dx, dy):
    """normal, fresh, from carried products and written over a dirty list,
    gives the assembled operator cropped to each support window; forward
    gives the assembled products and grad the assembled gradient on each
    window.  The assembled operator runs on each window laid on a zeroed
    canvas."""
    problem = normal_case(mode, dx, dy)
    rng = np.random.default_rng(4)
    for mu in (PENALTY, 3.0 * PENALTY):
        xl = [signed_zeros(rng, c.window_shape) for c in problem.comps]
        canvases = [np.zeros(c.shape) for c in problem.comps]
        for c, x, canvas in zip(problem.comps, xl, canvases):
            canvas[c.window] = x
        want, gl, fl = assembled_normal(problem, canvases, mu)
        want = [w[c.window] for c, w in zip(problem.comps, want)]
        g = [problem.grad(x, ci) for ci, x in enumerate(xl)]
        fwd = [problem.forward(xl, bi) for bi in range(len(problem.blocks))]
        # equal values, not bytes: the canvas keeps a masked difference
        # that leaves the window as -0.0 where the window's replicate
        # border holds +0.0; nothing reads those entries
        for c, gc, full in zip(problem.comps, g, gl):
            win = (slice(None),) + c.window
            assert np.array_equal(gc, full[win])
            off = full.copy()
            off[win] = 0.0
            assert not off.any()
        assert [a.tobytes() for a in fwd] == [a.tobytes() for a in fl]
        dirty = problem.vec()
        dirty.flat.fill(np.nan)
        problem.normal(xl, mu, out=dirty)
        for got in (problem.normal(xl, mu), problem.normal(xl, mu, g, fwd), dirty):
            assert [a.shape for a in got] == [c.window_shape for c in problem.comps]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_edge_mask_excludes_support_boundary():
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, :3] = True
    c = Component((4, 6), mask)
    assert c.window == (slice(0, 4), slice(0, 3))
    e = c.edges
    # horizontal differences across the support edge (col 2 -> 3) are off;
    # on the window that edge is its replicate border column
    assert np.all(e[0][:, 2] == 0.0)
    assert np.all(e[0][:, :2] == 1.0)
    # the replicate boundary column never contributes
    assert np.all(e[0][:, -1] == 0.0)
    assert e.dtype == bool
    full = Component((4, 6))
    assert full.window == (slice(0, 4), slice(0, 6))
    assert full.edges is None
    # the window is the mask's bounding box, the edge mask is the
    # full-canvas one on it, and the full-canvas one is zero off it
    strips = build_region_masks(3.5, 0.0, 16, 16)
    ell = build_region_masks(-2.5, -1.25, 16, 16)
    for m, window in (
            (strips.disjoint[0], (slice(0, 16), slice(12, 16))),
            (strips.disjoint[1], (slice(0, 16), slice(0, 4))),
            (ell.disjoint[0], (slice(0, 16), slice(0, 16))),
            (ell.disjoint[1], (slice(0, 16), slice(0, 16))),
            (ell.common, (slice(2, 16), slice(3, 16))),
            (np.zeros((16, 16), dtype=bool), (slice(0, 0), slice(0, 0))),
    ):
        c = Component((16, 16), m)
        assert c.window == window
        win = (slice(None),) + window
        want = float_edge_mask(c)
        assert np.array_equal(c.edges, want[win] == 1.0)
        want[win] = 0.0
        assert not want.any()


def test_cg_vectors_are_window_views_of_one_contiguous_array(monkeypatch):
    """In a joint solve, x, the warm-start residual r, the direction p and
    H p are each one contiguous float64 array that lays every component's
    window end to end, in component order, and the list CG indexes by
    component is views of it: writing the array writes every window."""
    size = 16
    spec = make_spec(256, 0.5, 11, pixel_count=size * size)
    v = np.random.default_rng(2).uniform(size=(size, size))
    masks = build_region_masks(3.5, 0.0, size, size)
    shift = build_shift(3.5, 0.0, size, size)
    seen = {}
    real_cg, real_normal = Problem._cg, Problem.normal

    def cg(self, x0, r0, target, mu):
        seen.update(x=(self, x0), r=(self, r0))
        return real_cg(self, x0, r0, target, mu)

    def normal(self, xl, mu, g=None, fwd=None, out=None):
        if out is not None:
            seen.update(p=(self, xl), hp=(self, out))
        return real_normal(self, xl, mu, g, fwd, out)

    monkeypatch.setattr(Problem, "_cg", cg)
    monkeypatch.setattr(Problem, "normal", normal)
    reconstruct_joint(measure(v, spec), measure(apply_shift(shift, v), spec), spec,
                      size, size, shift, masks, SolverConfig(max_iters=1))
    assert sorted(seen) == ["hp", "p", "r", "x"]
    for problem, vec in seen.values():
        flat = vec.flat
        assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
        assert [a.shape for a in vec] == [c.window_shape for c in problem.comps]
        assert all(a.size for a in vec)
        flat[...] = np.arange(flat.size)
        assert np.concatenate([a.ravel() for a in vec]).tobytes() == \
            np.arange(flat.size, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode,dx,dy,projected", [
    ("joint", 3.5, 0.0, []), ("joint", -2.5, -1.25, [1, 2]),
    ("joint", 3.0, -2.0, [1, 2]), ("joint", 0.0, 0.0, []),
    ("superres", 3.5, 0.0, []),
])
def test_projection_keeps_only_masks_that_leave_part_of_their_window(
        mode, dx, dy, projected):
    """A component keeps a cropped mask only where it is not all True on
    its window, the L-shaped strips of a shift along both axes; every other
    component skips the multiply, which could change nothing.  Projecting
    ones leaves each component's mask on its window either way."""
    problem = normal_case(mode, dx, dy)
    assert [ci for ci, c in enumerate(problem.comps) if c.crop is not None] == projected
    xl = [np.ones(c.window_shape) for c in problem.comps]
    problem.project(xl)
    for c, x in zip(problem.comps, xl):
        want = np.ones(c.window_shape) if c.mask is None else c.mask[c.window]
        assert np.array_equal(x, want)


@pytest.mark.parametrize("mode", ["single", "joint", "joint-shifted"])
def test_engine_forward_and_adjoint_allocate_only_the_measurements(mode):
    """At 256x256 (order 65536) a forward and an adjoint of block 0 compose
    the image in the problem's work line and take the adjoint as a view of
    it: together they allocate the measurement vector and no order-length
    array.  Joint's common window is strided, and numpy stages each add
    into or out of it through iteration buffers of getbufsize() elements
    (two at most, 128 KiB), still a quarter of one order-length array.
    Joint's block 1 (joint-shifted), z2 = A(U(c + d1) + d2), composes
    c + d1 in the problem's canvas, and U writes its product over the
    line and U^T g over the canvas: it adds no product and no zeroed
    canvas."""
    size = 256
    spec = make_spec(65536, 0.125, 42, pixel_count=size * size)
    z = np.zeros(spec.count)
    if mode == "single":
        problem = Problem.single(z, spec, size, size)
    else:
        masks = build_region_masks(3.5, 0.0, size, size)
        shift = build_shift(3.5, 0.0, size, size)
        problem = Problem.joint(z, z, spec, size, size, shift, masks)
    bi = 1 if mode == "joint-shifted" else 0
    rng = np.random.default_rng(1)
    xl = [rng.standard_normal(c.window_shape) for c in problem.comps]
    out = [np.zeros(c.window_shape) for c in problem.comps]
    problem.adjoint(problem.forward(xl, bi), bi, out, 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fwd = problem.forward(xl, bi)
        problem.adjoint(fwd, bi, out, PENALTY)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    strided = 0 if mode == "single" else 2 * 8 * np.getbufsize()
    assert peak <= fwd.nbytes + strided + 4096


@pytest.mark.parametrize("mode", ["joint", "superres"])
def test_solve_peak_memory_stays_within_6x_and_10x_the_unknowns(mode):
    """A two-iteration 64x64 solve allocates at most 6 (joint) or 10
    (superres) times the bytes of its unknowns at its peak (tracemalloc),
    inputs excluded.  Every per-component array lives on its support
    window, so the two border strips cost their 4 columns, not two
    canvases: 5.6x and 9.2x measured, 8.7x and 11.9x with full-canvas
    strips."""
    bound = {"joint": 6, "superres": 10}[mode]
    size = 64
    masks = build_region_masks(3.5, 0.0, size, size)
    shift = build_shift(3.5, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 7).base
    v2 = apply_shift(shift, v1) + np.where(masks.disjoint[1], 0.6, 0.0)
    spec = make_spec(4096, 0.25, 42, pixel_count=size * size)
    z1, z2 = measure(v1, spec), measure(v2, spec)
    cfg = SolverConfig(sigma=1.0, max_iters=2)
    if mode == "joint":
        unknowns = 3 * size * size
        solve = lambda: reconstruct_joint(z1, z2, spec, size, size, shift, masks, cfg)
    else:
        unknowns = 4 * size * size     # the double-width image and two strips
        solve = lambda: reconstruct_superres(z1, z2, spec, size, size, 3.5, cfg)
    solve()     # first-call allocations (lazy imports, caches) are not the solve's
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * unknowns, f"{peak / (8 * unknowns):.1f}x the unknowns"


@pytest.mark.parametrize("mode", ["joint", "superres"])
def test_solve_allocates_its_working_block_and_little_else(mode, monkeypatch):
    """A three-iteration 64x64 solve's traced peak exceeds its working
    block only by named terms, so that a per-iteration temporary cannot
    come back unseen: superres, whose largest iteration buffer is a
    strip's 2 KiB, sees one of a measurement vector (8 KiB), and joint one
    larger than the 30 KiB cast buffer of its common window.

    The block holds 9 n + 3 b m + max(m, w) float64 entries for n unknowns
    (every component's window), b blocks of m measurements and the
    largest window w: two x buffers, w, lambda and g (two per unknown
    each), fwd, the targets and nu, and the residual r with normal's
    scratch.  Not counted, because the Problem is built before tracing
    starts: its measurement vectors, stencils, aperture line and pair
    buffer, and canvas.  Counted on top of the block:
    - while the splitting runs (the peak so far after each iteration's
      carried products are formed), numpy's iteration buffer for a bool edge
      mask cast, or an add into or out of a strided window, of at most
      min(getbufsize(), v) float64 entries, v the largest window that is
      not the whole canvas (the common window in joint, a strip in
      superres);
    - at the end, the copy of x that the returned full components are
      views of, taken while the block is alive; the block is freed before the windowed components are
      laid on their zeroed canvases;
    - 16 KiB for the Python objects: views, lists, the histories."""
    size = 64
    masks = build_region_masks(3.5, 0.0, size, size)
    shift = build_shift(3.5, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 7).base
    v2 = apply_shift(shift, v1) + np.where(masks.disjoint[1], 0.6, 0.0)
    spec = make_spec(4096, 0.25, 42, pixel_count=size * size)
    z1, z2 = measure(v1, spec), measure(v2, spec)
    cfg = SolverConfig(sigma=1.0, max_iters=3)
    if mode == "joint":
        build = lambda: Problem.joint(z1, z2, spec, size, size, shift, masks, cfg)
    else:
        build = lambda: Problem.superres(z1, z2, spec, size, size, 3.5, cfg)
    build().solve()     # first-call allocations (lazy imports, caches) are not the solve's
    problem = build()
    n, m, b = problem.size, spec.count, len(problem.blocks)
    windows = [math.prod(c.window_shape) for c in problem.comps]
    block = 8 * (9 * n + 3 * b * m + max([m] + windows))
    strided = max(w for c, w in zip(problem.comps, windows) if not c.full)
    iteration_buffer = 8 * min(np.getbufsize(), strided)
    loop = []
    real_carry = Problem._carry

    def carry(self, *args):
        real_carry(self, *args)
        loop.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(Problem, "_carry", carry)
    tracemalloc.start()
    try:
        problem.solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    objects = 16 * 1024
    assert len(loop) == 1 + cfg.max_iters
    assert loop[-1] <= block + iteration_buffer + objects, \
        f"loop {loop[-1] - block - iteration_buffer} B over the block and buffer"
    assert peak <= block + 8 * n + objects, \
        f"solve {peak - block - 8 * n} B over the block and x's copy"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0},
    {"rel_tol": 0.0},
    {"sigma": 0.0},
    {"rel_tol": -1.0},
    {"max_iters": -5},
    {"sigma": "AUTO"},
    {"sigma": "bogus"},
    {"sigma": -1.0},
    {"noise_sigma": -0.5},
    {"rel_tol": math.nan},
    {"rel_tol": math.inf},
    {"noise_sigma": math.nan},
    {"noise_sigma": math.inf},
    {"rel_tol": -math.inf},
    {"max_iters": math.nan},
    {"sigma": math.nan},
    {"sigma": math.inf},
    {"noise_sigma": -math.inf},
    {"sigma": -math.inf},
    {"max_iters": "5"},
    {"max_iters": math.inf},
    {"max_iters": 3.0},
    {"max_iters": 2.5},
    {"sigma": "auto"},
    {"rel_tol": "1e-4"},
    {"noise_sigma": None},
    {"noise_sigma": -0.1},
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# single-view reconstruction
# ---------------------------------------------------------------------------

def test_full_rate_recovery_is_near_exact():
    truth = make_test_scene("blocks", 16, 16, 3).base
    spec = make_spec(256, 1.0, 0, pixel_count=256)
    z = measure(truth, spec)
    res = reconstruct_single(z, spec, 16, 16)
    rel = np.linalg.norm(res.image - truth) / np.linalg.norm(truth)
    assert res.converged
    assert rel < 1e-3


def test_zero_measurements_give_bitwise_zero():
    spec = make_spec(256, 0.25, 1, pixel_count=256)
    res = reconstruct_single(np.zeros(spec.count), spec, 16, 16)
    assert np.all(res.image == 0.0)
    assert res.converged


def test_converged_run_satisfies_the_residual_criterion():
    truth = make_test_scene("blocks", 16, 16, 9).base
    spec = make_spec(256, 0.5, 2, pixel_count=256)
    z = measure(truth, spec)
    cfg = SolverConfig(rel_tol=1e-4)
    res = reconstruct_single(z, spec, 16, 16, cfg)
    assert res.converged
    for r in res.residual_history[-1]:
        assert r <= cfg.rel_tol * (1.0 + 1e-12)
    assert res.residual_history.shape == (res.iterations, 1)
    assert res.objective_history.shape == (res.iterations,)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: false convergence")
def test_full_scale_single_solve_is_not_converged_after_20_iterations():
    """The benchmark's first 256x256 single input: the blocks scene 7 seen
    by the first of two sensors 3.5 apart from a far scene, a quarter of
    the 65536 rows at seed 42.  Twenty iterations leave this solve far from
    its optimum, so it must not report convergence."""
    size, pad = 256, 4
    geo = CameraGeometry(aperture_width=size, aperture_height=size,
                         sensor_offsets=[(0.0, 0.0), (3.5, 0.0)],
                         sensor_plane_distance=1.0, scene_distance=1.0e7)
    view = render_view(make_test_scene("blocks", size + 2 * pad, size, 7), geo, 1)
    spec = make_spec(65536, 0.25, 42, pixel_count=size * size)
    res = reconstruct_single(measure(view, spec), spec, size, size,
                             SolverConfig(sigma=1.0, max_iters=20))
    assert not res.converged


def test_epsilon_ball_relaxes_the_fit():
    truth = make_test_scene("blocks", 16, 16, 9).base
    spec = make_spec(256, 0.5, 2, pixel_count=256)
    z = measure(truth, spec)
    cfg = SolverConfig(noise_sigma=0.02)
    res = reconstruct_single(z, spec, 16, 16, cfg)
    eps = epsilon_for_noise(0.02, z)
    assert res.epsilon == [eps]
    assert res.converged
    bound = max(cfg.rel_tol, eps / np.linalg.norm(z))
    for r in res.residual_history[-1]:
        assert r <= bound * (1.0 + 1e-9)


def test_noise_free_solve_has_zero_radii():
    spec = make_spec(256, 0.5, 2, pixel_count=256)
    z = measure(make_test_scene("blocks", 16, 16, 9).base, spec)
    res = reconstruct_single(np.stack([z, z]), spec, 16, 16,
                             SolverConfig(max_iters=3))
    assert res.epsilon == [0.0, 0.0]


def test_noisy_joint_blocks_each_fit_their_own_ball():
    """Each block's noise ball is sized from its own vector.  Sensor 1 here
    sees a bright strip that sensor 2 does not, so a ball sized from z1
    would be too wide for block 2."""
    size, dx, noise = 16, 3.0, 0.02
    spec = make_spec(256, 0.5, 2, pixel_count=size * size)
    masks = build_region_masks(dx, 0.0, size, size)
    shift = build_shift(dx, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 9).base + 2.0 * masks.disjoint[0]
    v2 = apply_shift(shift, v1)
    zs = [add_noise(measure(v, spec), noise, 30 + k) for k, v in enumerate((v1, v2))]
    cfg = SolverConfig(noise_sigma=noise)
    res = reconstruct_joint(*zs, spec, size, size, shift, masks, cfg)
    radii = [epsilon_for_noise(noise, z) for z in zs]
    assert res.epsilon == radii
    assert radii[1] < radii[0]
    assert res.converged
    for z, eps, rel in zip(zs, radii, res.residual_history[-1]):
        znorm = float(np.linalg.norm(z))
        assert cfg.rel_tol * znorm < eps          # the ball decides feasibility
        assert rel * znorm <= eps * (1.0 + 1e-9)


def test_objective_settles_within_each_continuation_stage(monkeypatch):
    """Once a continuation stage has settled, its objective tail is flat:
    non-increasing within 1e-6 relative slack over the last 10 iterations.
    Stages need to be long enough to settle (the penalty starts small) and
    the inner solves accurate enough not to inject noise."""
    truth = make_test_scene("blocks", 16, 16, 3).base
    spec = make_spec(256, 0.5, 2, pixel_count=256)
    z = measure(truth, spec)
    monkeypatch.setattr(solver, "CONTINUATION_EVERY", 150)
    monkeypatch.setattr(solver, "CG_MAX_ITERS", 40)
    monkeypatch.setattr(solver, "CG_TOL", 1e-10)
    cfg = SolverConfig(max_iters=450, rel_tol=1e-14)
    res = reconstruct_single(z, spec, 16, 16, cfg)
    hist = res.objective_history
    assert len(hist) == 450
    for end in (150, 300, 450):
        window = hist[end - 10 : end]
        for a, b in zip(window[:-1], window[1:]):
            assert b <= a + 1e-6 * max(1.0, abs(a))


def test_single_view_validates_pixel_count():
    spec = make_spec(64, 0.5, 0, pixel_count=64)
    with pytest.raises(ValueError, match="pixel_count"):
        reconstruct_single(np.zeros(spec.count), spec, 8, 9)


@pytest.mark.parametrize("mode", ["single", "joint", "superres"])
def test_non_positive_sizes_are_refused_up_front(mode):
    """A width or height below 1 is refused by name, as MeasurementSet
    refuses it, also where width * height still equals pixel_count."""
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    shift = build_shift(3.5, 0.0, 16, 16)
    masks = build_region_masks(3.5, 0.0, 16, 16)
    solve = {
        "single": lambda w, h: reconstruct_single(z, spec, w, h),
        "joint": lambda w, h: reconstruct_joint(z, z, spec, w, h, shift, masks),
        "superres": lambda w, h: reconstruct_superres(z, z, spec, w, h, 3.5),
    }[mode]
    for width, height in ((-16, -16), (-1, -256), (0, 16), (16, 0)):
        with pytest.raises(ValueError, match="width and height must be >= 1"):
            solve(width, height)


@pytest.mark.parametrize("mode", ["single", "joint", "superres"])
def test_non_integral_sizes_are_refused_up_front(mode):
    """A float or other non-integer width or height is refused with a
    ValueError naming both, even where its value is whole, instead of
    failing inside numpy's array constructors."""
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    shift = build_shift(3.5, 0.0, 16, 16)
    masks = build_region_masks(3.5, 0.0, 16, 16)
    solve = {
        "single": lambda w, h: reconstruct_single(z, spec, w, h),
        "joint": lambda w, h: reconstruct_joint(z, z, spec, w, h, shift, masks),
        "superres": lambda w, h: reconstruct_superres(z, z, spec, w, h, 3.5),
    }[mode]
    for width, height in ((16.0, 16.0), (16, 16.0), (16.0, 16), (np.float64(16), 16),
                          ("16", 16), (None, 16)):
        with pytest.raises(ValueError, match="width and height must be >= 1 and integers"):
            solve(width, height)
    solve(np.int64(16), np.int64(16))  # numpy integers are integers


def test_single_rejects_wrong_length_measurements():
    """A vector or a (k, count) stack; anything else is refused up front,
    naming the row count, instead of failing inside the adjoint."""
    spec = make_spec(64, 0.5, 0, pixel_count=64)
    z = np.zeros(spec.count)
    for bad in (z[:-1], np.append(z, 0.0), np.zeros((2, spec.count - 1)),
                np.zeros((0, spec.count)), np.zeros((2, 3, spec.count)),
                np.float64(0.0)):
        with pytest.raises(ValueError, match=f"row count \\({spec.count}\\)"):
            reconstruct_single(bad, spec, 8, 8)


# ---------------------------------------------------------------------------
# joint two-sensor reconstruction
# ---------------------------------------------------------------------------

def joint_problem(width=16, height=16, dx=3.5, rate=0.5):
    """A measurement pair that exactly satisfies the two-view model."""
    masks = build_region_masks(dx, 0.0, width, height)
    shift = build_shift(dx, 0.0, width, height)
    v1 = make_test_scene("blocks", width, height, 3).base
    d2 = np.where(masks.disjoint[1], 0.6, 0.0)
    v2 = apply_shift(shift, v1) + d2
    spec = make_spec(256, rate, 11, pixel_count=width * height)
    return spec, masks, shift, v1, v2, measure(v1, spec), measure(v2, spec)


def test_joint_reconstruction_recovers_both_views():
    spec, masks, shift, v1, v2, z1, z2 = joint_problem()
    res = reconstruct_joint(z1, z2, spec, 16, 16, shift, masks,
                            SolverConfig(sigma=1.0))
    assert res.converged
    assert np.mean(np.abs(res.view1 - v1)) < 0.02
    assert np.mean(np.abs(res.view2 - v2)) < 0.02


def test_joint_components_have_bitwise_support():
    """Joint and superres components are +0.0, sign bit clear, off their
    supports: each windowed component is laid on a zeroed canvas."""
    spec, masks, shift, _, _, z1, z2 = joint_problem()
    cfg = SolverConfig(sigma=1.0, max_iters=40, rel_tol=1e-9)
    res = reconstruct_joint(z1, z2, spec, 16, 16, shift, masks, cfg)
    sr = reconstruct_superres(z1, z2, spec, 16, 16, 3.5, cfg)
    for image, support in ((res.common, masks.common),
                           (res.disjoint1, masks.disjoint[0]),
                           (res.disjoint2, masks.disjoint[1]),
                           (sr.disjoint1, masks.disjoint[0]),
                           (sr.disjoint2, masks.disjoint[1])):
        off = image[~support]
        assert off.size and np.all(off == 0.0)
        assert not np.signbit(off).any()


def test_joint_zero_measurements_stay_zero():
    spec, masks, shift, _, _, z1, _ = joint_problem()
    zero = np.zeros_like(z1)
    res = reconstruct_joint(zero, zero, spec, 16, 16, shift, masks)
    assert np.all(res.common == 0.0)
    assert np.all(res.view2 == 0.0)


def test_degenerate_joint_equals_stacked_single():
    """With no offset and duplicated measurements the joint model collapses
    to one image measured twice."""
    truth = make_test_scene("blocks", 16, 16, 5).base
    spec = make_spec(256, 0.4, 6, pixel_count=256)
    z = measure(truth, spec)
    masks = build_region_masks(0.0, 0.0, 16, 16)
    shift = build_shift(0.0, 0.0, 16, 16)
    joint = reconstruct_joint(z, z, spec, 16, 16, shift, masks)
    single = reconstruct_single(np.stack([z, z]), spec, 16, 16)
    diff = np.linalg.norm(joint.view1 - single.image)
    assert diff <= 1e-6 * max(1.0, np.linalg.norm(single.image))


def test_joint_rejects_wrong_length_measurements():
    """Joint mode takes one vector per sensor, never a stack."""
    spec, masks, shift, _, _, z1, z2 = joint_problem()
    for bad in (z1[:-1], np.append(z1, 0.0), np.stack([z1, z1])):
        for pair in ((bad, z2), (z1, bad)):
            with pytest.raises(ValueError, match=f"row count \\({spec.count}\\)"):
                reconstruct_joint(*pair, spec, 16, 16, shift, masks)


def test_joint_validates_inputs():
    spec, masks, shift, _, _, z1, z2 = joint_problem()
    with pytest.raises(ValueError, match="pixel_count"):
        reconstruct_joint(z1, z2, spec, 16, 15, shift, masks)
    with pytest.raises(ValueError, match="same length"):
        reconstruct_joint(z1, z2[:-1], spec, 16, 16, shift, masks)
    with pytest.raises(ValueError, match="shift dimensions"):
        reconstruct_joint(z1, z2, spec, 16, 16, build_shift(3.5, 0.0, 8, 8), masks)
    with pytest.raises(ValueError, match="mask dimensions"):
        reconstruct_joint(z1, z2, spec, 16, 16, shift,
                          build_region_masks(3.5, 0.0, 8, 8))
    with pytest.raises(ValueError, match="different offsets"):
        reconstruct_joint(z1, z2, spec, 16, 16, shift,
                          build_region_masks(2.5, 0.0, 16, 16))


# ---------------------------------------------------------------------------
# super-resolution
# ---------------------------------------------------------------------------

def test_pair_average_matrix_averages_pairs():
    s = build_sampling(0.0, 4, 3)
    assert s.shape == (12, 24)
    hr = np.arange(24, dtype=np.float64).reshape(3, 8)
    lo = (s @ hr.ravel()).reshape(3, 4)
    assert np.array_equal(lo, 0.5 * (hr[:, 0::2] + hr[:, 1::2]))


def shifted_pair_average_by_product(dx, width, height):
    """S(dx) = S1 U(2 dx) as the sparse product of S1 and the COO assembly
    of U, the reference whose products build_sampling's must equal.  S1's
    row p holds 0.5 at columns 2p and 2p + 1."""
    n_lo = width * height
    idx = sparse.get_index_dtype(maxval=2 * n_lo)
    s1 = sparse.csr_matrix(
        (np.full(2 * n_lo, 0.5), np.arange(2 * n_lo, dtype=idx),
         np.arange(0, 2 * n_lo + 1, 2, dtype=idx)),
        shape=(n_lo, 2 * n_lo))
    return (s1 @ coo_build_shift_matrix(2.0 * dx, 0.0, 2 * width, height)).tocsr()


@pytest.mark.parametrize("dx", [0.0, 3.5, 3.499999650000035, -2.5, 1.25, 0.3,
                                -0.7, 0.001, -0.999, 7.5, 15.5])
def test_shifted_pair_average_csr_equals_the_product(dx):
    """Byte for byte the sparse product's products, forward and transposed,
    on every grid the shift fits (|2 dx| < 2 width), and build_shift's
    ValueError on the others.  dx = 0 is sensor 1's S1, whose rows the
    product writes in descending column order.  3.499999650000035 is the
    benchmark's far-field shift."""
    for width, height in ((1, 1), (3, 2), (8, 4), (16, 16), (64, 64), (256, 256),
                          (150, 301)):
        if abs(dx) < width:
            assert_same_products(build_sampling(dx, width, height),
                                 shifted_pair_average_by_product(dx, width, height))
            continue
        with pytest.raises(ValueError) as want:
            build_shift(2.0 * dx, 0.0, 2 * width, height)
        with pytest.raises(ValueError, match="out of range") as got:
            build_sampling(dx, width, height)
        assert str(got.value) == str(want.value)


def test_superres_builds_no_shift_operator(monkeypatch):
    """reconstruct_superres assembles its sampling operators directly and
    never calls build_shift."""
    def refuse(*args):
        raise AssertionError("build_shift called")

    monkeypatch.setattr(geometry, "build_shift", refuse)
    monkeypatch.setattr(solver, "build_shift", refuse, raising=False)
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = measure(np.full((16, 16), 0.4), spec)
    res = reconstruct_superres(z, z, spec, 16, 16, 3.5, SolverConfig(max_iters=2))
    assert res.image.shape == (16, 32)


def test_superres_rejects_integer_offsets():
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    with pytest.raises(ValueError, match="fractional"):
        reconstruct_superres(z, z, spec, 16, 16, 3.0)


@pytest.mark.parametrize("dx", [math.inf, -math.inf, math.nan])
def test_superres_rejects_non_finite_offsets(dx):
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    with pytest.raises(ValueError, match="finite"):
        reconstruct_superres(z, z, spec, 16, 16, dx)


def test_superres_output_is_double_width():
    spec = make_spec(256, 1.0, 7, pixel_count=256)
    truth = np.full((16, 16), 0.4)
    z = measure(truth, spec)
    res = reconstruct_superres(z, z, spec, 16, 16, 3.5,
                               SolverConfig(max_iters=200))
    assert res.image.shape == (16, 32)
    assert res.view1.shape == (16, 16)
    # a constant scene should come back constant on the doubled grid
    interior = res.image[:, 8:-8]
    assert np.max(np.abs(interior - 0.4)) < 5e-3


def test_superres_views_are_each_sensors_sampling_plus_its_strip():
    """view_k is S(dx_k) applied to the double-width image plus strip k,
    with dx_1 = 0 and dx_2 = dx, byte for byte."""
    size, dx = 16, 3.5
    masks = build_region_masks(dx, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 7).base
    v2 = apply_shift(build_shift(dx, 0.0, size, size), v1) + np.where(
        masks.disjoint[1], 0.6, 0.0)
    spec = make_spec(256, 0.5, 3, pixel_count=size * size)
    res = reconstruct_superres(measure(v1, spec), measure(v2, spec), spec,
                               size, size, dx, SolverConfig(max_iters=5))
    for view, dx_k, strip in ((res.view1, 0.0, res.disjoint1),
                              (res.view2, dx, res.disjoint2)):
        want = (build_sampling(dx_k, size, size) @ res.image.ravel()
                ).reshape(size, size) + strip
        assert view.dtype == want.dtype and view.shape == want.shape
        assert view.tobytes() == want.tobytes()


def test_superres_rejects_wrong_length_measurements():
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    for bad in (z[1:], np.append(z, 0.0), np.stack([z, z])):
        for pair in ((bad, z), (z, bad)):
            with pytest.raises(ValueError, match=f"row count \\({spec.count}\\)"):
                reconstruct_superres(*pair, spec, 16, 16, 3.5)


def test_superres_validates_measurement_lengths():
    spec = make_spec(256, 0.5, 0, pixel_count=256)
    z = np.zeros(spec.count)
    with pytest.raises(ValueError, match="same length"):
        reconstruct_superres(z, z[:-1], spec, 16, 16, 3.5)
