"""TV pieces, the augmented-Lagrangian engine and the reconstruction APIs."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from mvlci import sensing, solver
from mvlci.geometry import apply_shift, build_region_masks, build_shift
from mvlci.scene import make_test_scene
from mvlci.sensing import (
    SensingSpec,
    add_noise,
    measure,
    measure_adjoint,
    select_rows,
)
from mvlci.solver import (
    PENALTY,
    SolverConfig,
    _Block,
    _Comp,
    _Engine,
    _pair_average_matrix,
    epsilon_for_noise,
    reconstruct_joint,
    reconstruct_single,
    reconstruct_superres,
    tv_grad,
    tv_grad_adjoint,
    tv_shrink,
)
from test_geometry import assert_same_csr


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


def engine_norm_sq(spec):
    """The ||A||^2 a one-block engine is scaled by: scale^2 * order."""
    engine = _Engine([_Comp((1, spec.pixel_count), None, 1.0)],
                     [_Block(np.zeros(spec.count), [(0, None)])], spec,
                     SolverConfig())
    return engine.scale ** 2 * spec.order


@pytest.mark.parametrize("order", [16, 64, 256, 1024])
def test_closed_form_norm_is_the_dense_norm_on_a_full_image(order):
    for rate in (1.0 / order, 0.05, 0.25, 1.0):
        for seed in (0, 44):
            spec = make_spec(order, rate, seed, pixel_count=order)
            dense = dense_norm_sq(spec)
            assert abs(engine_norm_sq(spec) - dense) <= 1e-12 * dense, (rate, seed)


@pytest.mark.parametrize("order,rate", [(4096, 0.125), (4096, 0.25)])
def test_closed_form_norm_is_the_power_iteration_at_bench_specs(order, rate):
    spec = make_spec(order, rate, 42, pixel_count=order)
    power = power_iteration(spec)
    assert abs(engine_norm_sq(spec) - power) <= 1e-14 * power


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
def test_estimate_norm_sq_is_bit_identical_to_the_full_loop(order, rate, seed, pixels):
    """The engine's norm estimate against all 30 steps of the power loop:
    equal up to the last ulps the two roundings leave."""
    spec = make_spec(order, rate, seed, pixel_count=pixels)
    power = power_iteration(spec)
    assert abs(engine_norm_sq(spec) - power) <= 4 * np.spacing(power)


@pytest.mark.parametrize("rate,seed", [(0.125, 42), (0.25, 43)])
def test_estimate_norm_sq_at_65536_stops_early_and_exactly(monkeypatch, rate, seed):
    """The benchmark's 256x256 specs: the engine's scale takes no
    transform at all, and matches the full power loop."""
    spec = make_spec(65536, rate, seed, pixel_count=65536)
    calls = []
    fwht = sensing.fwht

    def counting_fwht(x):
        calls.append(1)
        return fwht(x)

    monkeypatch.setattr(sensing, "fwht", counting_fwht)
    value = engine_norm_sq(spec)
    assert calls == []
    monkeypatch.undo()
    power = power_iteration(spec)
    assert abs(value - power) <= 4 * np.spacing(power)


def test_closed_form_norm_is_close_on_a_padded_image():
    """60x60 pixels in order 4096: the closed form is exact only at
    pixel_count = order, and stays within 0.1% here."""
    spec = make_spec(4096, 0.125, 42, pixel_count=60 * 60)
    dense = dense_norm_sq(spec)
    assert abs(engine_norm_sq(spec) - dense) <= 1e-3 * dense


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------

def fidelity_value_grad(engine, xl):
    """Value and gradient of 1/2 sum_b ||A_bar B x - z_bar||^2, built from
    the engine's forward and backward operators."""
    grad = [np.zeros(c.shape) for c in engine.comps]
    value = 0.0
    for bi in range(len(engine.blocks)):
        r = engine._forward(xl, bi) - engine.zbar[bi]
        value += 0.5 * float(np.dot(r, r))
        engine._backward(r, bi, grad, 1.0)
    return value, grad


def test_fidelity_gradient_passes_finite_difference_check():
    spec = make_spec(64, 0.5, 5, pixel_count=64)
    rng = np.random.default_rng(5)
    z = measure(rng.uniform(size=64), spec)
    comps = [_Comp((8, 8), None, 1.0)]
    engine = _Engine(comps, [_Block(z, [(0, None)])], spec, SolverConfig())
    x = [rng.standard_normal((8, 8))]
    _, grad = fidelity_value_grad(engine, x)
    h = 1e-6
    worst = 0.0
    for (i, j) in [(0, 0), (3, 4), (7, 7), (2, 6), (5, 1), (6, 3)]:
        xp = [x[0].copy()]
        xm = [x[0].copy()]
        xp[0][i, j] += h
        xm[0][i, j] -= h
        fp, _ = fidelity_value_grad(engine, xp)
        fm, _ = fidelity_value_grad(engine, xm)
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - grad[0][i, j]) / max(1.0, abs(fd)))
    assert worst < 1e-5


class _Built(Exception):
    pass


def built_engine(monkeypatch, solve):
    """The _Engine that a reconstruct_* call builds, taken before it runs."""
    engines = []

    def capture(self):
        engines.append(self)
        raise _Built

    with monkeypatch.context() as m:
        m.setattr(_Engine, "run", capture)
        with pytest.raises(_Built):
            solve()
    return engines[0]


def float_edge_mask(comp):
    """E as a float64 0/1 array for every component, full support included:
    the plain form that the engine's bool masks (None for full support)
    must reproduce bit for bit."""
    e = np.ones((2,) + comp.shape)
    e[0][:, -1] = 0.0
    e[1][-1, :] = 0.0
    if comp.mask is not None:
        m = comp.mask.astype(np.float64)
        e[0][:, :-1] *= m[:, :-1] * m[:, 1:]
        e[1][:-1, :] *= m[:-1, :] * m[1:, :]
    return e


def assembled_normal(engine, xl, mu):
    """H x assembled from whole lists, as _normal(_grads(x), _forwards(x),
    mu) did: every masked gradient and every block's forward product first,
    then mu D^T g, then each block's adjoint through a CSR copy of each
    transpose.  Returns H x, the gradients and the forwards."""
    gl = [float_edge_mask(c) * tv_grad(x) for c, x in zip(engine.comps, xl)]
    fl = []
    for b in engine.blocks:
        img = None
        for ci, op in b.terms:
            v = xl[ci].ravel() if op is None else op @ xl[ci].ravel()
            img = v.copy() if img is None else img + v
        fl.append(measure(img, engine.spec) / engine.scale)
    out = [mu * tv_grad_adjoint(g) for g in gl]
    for b, f in zip(engine.blocks, fl):
        g = measure_adjoint(f, engine.spec) / engine.scale
        for ci, op in b.terms:
            v = g if op is None else op.T.tocsr() @ g
            out[ci] += mu * v.reshape(engine.comps[ci].shape)
    for c, x in zip(engine.comps, out):
        if c.mask is not None:
            x *= c.mask
    return out, gl, fl


def normal_case(mode, dx, dy):
    """A reconstruct_* call on a 16x16 problem, for built_engine; single
    mode stacks two vectors."""
    spec = make_spec(256, 0.5, 11, pixel_count=256)
    z = np.zeros(spec.count)
    if mode == "single":
        return lambda: reconstruct_single(np.stack([z, z]), spec, 16, 16)
    if mode == "superres":
        return lambda: reconstruct_superres(z, z, spec, 16, 16, dx)
    masks = build_region_masks(dx, dy, 16, 16)
    shift = build_shift(dx, dy, 16, 16)
    return lambda: reconstruct_joint(z, z, spec, 16, 16, shift, masks,
                                     SolverConfig(sigma=1.0))


@pytest.mark.parametrize("mode,dx,dy", [
    ("single", 0.0, 0.0), ("joint", 3.5, 0.0), ("joint", -2.5, -1.25),
    ("joint", 3.0, -2.0), ("superres", 3.5, 0.0), ("superres", -2.5, 0.0),
])
def test_streamed_normal_is_bytewise_the_assembled_one(monkeypatch, mode, dx, dy):
    """_normal, fresh and from carried products, gives the bytes of the
    assembled operator; _grad and _forwards give the assembled products."""
    engine = built_engine(monkeypatch, normal_case(mode, dx, dy))
    rng = np.random.default_rng(4)
    for mu in (PENALTY, 3.0 * PENALTY):
        xl = [signed_zeros(rng, c.shape) for c in engine.comps]
        want, gl, fl = assembled_normal(engine, xl, mu)
        g = [engine._grad(x, ci) for ci, x in enumerate(xl)]
        fwd = engine._forwards(xl)
        assert [a.tobytes() for a in g] == [a.tobytes() for a in gl]
        assert [a.tobytes() for a in fwd] == [a.tobytes() for a in fl]
        for got in (engine._normal(xl, mu), engine._normal(xl, mu, g, fwd)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_edge_mask_excludes_support_boundary():
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, :3] = True
    e = _Comp((4, 6), mask, 1.0).edge_mask()
    # horizontal differences across the support edge (col 2 -> 3) are off
    assert np.all(e[0][:, 2] == 0.0)
    assert np.all(e[0][:, :2] == 1.0)
    # the replicate boundary column never contributes
    assert np.all(e[0][:, -1] == 0.0)
    assert e.dtype == bool
    assert _Comp((4, 6), None, 1.0).edge_mask() is None


@pytest.mark.parametrize("mode", ["joint", "superres"])
def test_solve_peak_memory_stays_within_17x_the_unknowns(mode):
    """A two-iteration 64x64 solve allocates at most 17 times the bytes of
    its unknowns at its peak (tracemalloc), inputs excluded."""
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
    assert peak <= 17 * 8 * unknowns, f"{peak / (8 * unknowns):.1f}x the unknowns"


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
    spec, masks, shift, _, _, z1, z2 = joint_problem()
    res = reconstruct_joint(z1, z2, spec, 16, 16, shift, masks,
                            SolverConfig(sigma=1.0, max_iters=40, rel_tol=1e-9))
    assert np.all(res.common[~masks.common] == 0.0)
    assert np.all(res.disjoint1[~masks.disjoint[0]] == 0.0)
    assert np.all(res.disjoint2[~masks.disjoint[1]] == 0.0)


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
    s = _pair_average_matrix(4, 3)
    assert s.shape == (12, 24)
    hr = np.arange(24, dtype=np.float64).reshape(3, 8)
    lo = (s @ hr.ravel()).reshape(3, 4)
    assert np.array_equal(lo, 0.5 * (hr[:, 0::2] + hr[:, 1::2]))


def coo_pair_average_matrix(width, height):
    """The sampling matrix built from (row, col) triplets, the reference
    that the directly written CSR arrays must match array for array."""
    n_lo = width * height
    rows = np.repeat(np.arange(n_lo, dtype=np.int64), 2)
    y, x = np.divmod(np.arange(n_lo, dtype=np.int64), width)
    cols = np.empty(2 * n_lo, dtype=np.int64)
    cols[0::2] = y * (2 * width) + 2 * x
    cols[1::2] = y * (2 * width) + 2 * x + 1
    vals = np.full(2 * n_lo, 0.5)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_lo, 2 * n_lo))


@pytest.mark.parametrize("width,height", [(1, 1), (1, 5), (4, 3), (7, 2),
                                          (64, 64), (256, 256)])
def test_pair_average_csr_equals_the_triplet_assembly(width, height):
    assert_same_csr(_pair_average_matrix(width, height),
                    coo_pair_average_matrix(width, height))


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
