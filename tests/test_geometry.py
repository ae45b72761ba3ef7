"""Shift and sampling operators and region masks.

The operators are checked against references built here with scipy.sparse
(a test-only dependency): their products must equal those of the COO
assembly, and of its product with the pair average, byte for byte."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

from mvlci.geometry import (
    RegionMasks,
    apply_shift,
    build_region_masks,
    build_sampling,
    build_shift,
)
from mvlci.scene import CameraGeometry, parallax_shift


# ---------------------------------------------------------------------------
# shift operator
# ---------------------------------------------------------------------------

def dense(op):
    """The matrix of a linear operator, column j being op @ e_j."""
    return np.stack([op @ e for e in np.eye(op.shape[1])], axis=1)


def test_integer_shift_is_a_partial_permutation():
    op = build_shift(3.0, 0.0, 16, 8)
    mat = dense(op.matrix)
    assert set(np.unique(mat)) <= {0.0, 1.0}
    # every row has at most one tap; the first 3 columns of the output are
    # zero-filled, so exactly 3 rows per line are empty
    assert np.all(mat.sum(axis=1) <= 1.0)
    assert mat.sum() == (16 - 3) * 8

    img = np.arange(16 * 8, dtype=np.float64).reshape(8, 16) / 128.0
    out = apply_shift(op, img)
    assert np.array_equal(out[:, 3:], img[:, :-3])
    assert np.all(out[:, :3] == 0.0)


def test_negative_vertical_shift():
    op = build_shift(0.0, -2.0, 8, 8)
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    out = apply_shift(op, img)
    assert np.array_equal(out[:-2, :], img[2:, :])
    assert np.all(out[-2:, :] == 0.0)


def test_fractional_shift_reproduces_a_ramp_exactly():
    """Bilinear resampling is exact on affine images, away from the
    zero-filled border."""
    w, h = 20, 12
    x = np.arange(w, dtype=np.float64)[None, :]
    y = np.arange(h, dtype=np.float64)[:, None]
    ramp = 0.3 + 0.02 * x + 0.05 * y
    dx, dy = 3.5, 1.25
    op = build_shift(dx, dy, w, h)
    out = apply_shift(op, ramp)
    expected = 0.3 + 0.02 * (x - dx) + 0.05 * (y - dy)
    interior = (y >= np.ceil(dy)) & (x >= np.ceil(dx))
    assert np.max(np.abs(np.where(interior, out - expected, 0.0))) < 1e-12


def test_fractional_shift_row_weights():
    op = build_shift(3.5, 0.0, 16, 4)
    mat = dense(op.matrix)
    sums = mat.sum(axis=1).reshape(4, 16)
    # interior rows interpolate two taps summing to 1
    assert np.allclose(sums[:, 4:], 1.0, atol=1e-15)
    # the first covered column keeps only the in-range tap (weight 0.5)
    assert np.allclose(sums[:, 3], 0.5, atol=1e-15)
    assert np.all(sums[:, :3] == 0.0)


def test_shift_transpose_matches_matrix_transpose():
    op = build_shift(2.5, -1.5, 10, 10)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(100)
    v = rng.standard_normal(100)
    assert abs(np.dot(op.matrix @ u, v) - np.dot(u, op.matrix.T @ v)) < 1e-12


@pytest.mark.parametrize("dx,dy", [(16.0, 0.0), (-16.0, 0.0), (0.0, 8.0)])
def test_shift_out_of_range_raises(dx, dy):
    with pytest.raises(ValueError, match="out of range"):
        build_shift(dx, dy, 16, 8)


@pytest.mark.parametrize("dx,dy", [(math.nan, 0.0), (0.0, math.nan),
                                   (math.inf, 0.0), (0.0, -math.inf)])
def test_non_finite_shift_raises(dx, dy):
    with pytest.raises(ValueError, match="finite"):
        build_shift(dx, dy, 16, 8)
    with pytest.raises(ValueError, match="finite"):
        build_region_masks(dx, dy, 16, 8)


def loop_axis_taps(src, size):
    """Each output's two bilinear taps along one axis, element by element:
    floor(s) and floor(s) + 1 with weights 1 - frac and frac, and weight 0
    (index 0) for a tap off the grid."""
    taps = np.zeros((len(src), 2), dtype=np.int64)
    weights = np.zeros((len(src), 2))
    for i, s in enumerate(src):
        i0 = math.floor(s)
        frac = s - i0
        for k, (t, w) in enumerate(((i0, 1.0 - frac), (i0 + 1, frac))):
            if 0 <= t < size:
                taps[i, k], weights[i, k] = t, w
    return taps, weights


def coo_build_shift_matrix(dx, dy, width, height):
    """build_shift's matrix assembled as COO triplets and converted to CSR,
    the reference that the direct CSR assembly must match array for array."""
    xt, xw = loop_axis_taps(np.arange(width, dtype=np.float64) - dx, width)
    yt, yw = loop_axis_taps(np.arange(height, dtype=np.float64) - dy, height)
    n = width * height
    rows_idx = []
    cols_idx = []
    vals = []
    for ay in range(yt.shape[1]):
        for ax in range(xt.shape[1]):
            wgt = yw[:, ay][:, None] * xw[:, ax][None, :]
            col = yt[:, ay][:, None] * width + xt[:, ax][None, :]
            keep = wgt > 0.0
            if not keep.any():
                continue
            out_idx = np.nonzero(keep.ravel())[0]
            rows_idx.append(out_idx)
            cols_idx.append(col.ravel()[out_idx])
            vals.append(wgt.ravel()[out_idx])
    if rows_idx:
        return sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows_idx), np.concatenate(cols_idx))),
            shape=(n, n),
        ).tocsr()
    return sparse.csr_matrix((n, n))


def probe_vectors(n, seed):
    """A standard normal vector, the same scaled by 1e-300, and a normal
    vector with about a fifth -0.0 and a tenth +0.0 entries."""
    rng = np.random.default_rng(seed)
    v, z = rng.standard_normal(n), rng.standard_normal(n)
    u = rng.uniform(size=n)
    z[u < 0.2] = -0.0
    z[(u >= 0.2) & (u < 0.3)] = 0.0
    return [v, v * 1e-300, z]


def assert_same_products(op, ref):
    """op @ v equals ref @ v and op.T @ v equals ref.T @ v (scipy's CSC
    view of the CSR ref, which sums each output in ascending order of the
    rows it reads), dtype and bytes, on each probe vector."""
    assert op.shape == ref.shape
    for got, want in ((op, ref), (op.T, ref.T)):
        for v in probe_vectors(want.shape[1], want.shape[1]):
            a, b = got @ v, want @ v
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the far-field shift of the studies and the benchmark, 3.4999996...
FAR_DX = parallax_shift(CameraGeometry(
    aperture_width=64, aperture_height=64, sensor_offsets=[(0.0, 0.0), (3.5, 0.0)],
    sensor_plane_distance=1.0, scene_distance=1.0e7), 2)[0]
STEPS = [0.0, 3.0, -2.0, 2.5, -1.25, 0.75, FAR_DX, -FAR_DX]
UNDER_16 = math.nextafter(16.0, 0.0)
UNDER_8 = math.nextafter(8.0, 0.0)


@pytest.mark.parametrize("dx,dy,width,height", [
    *[(dx, dy, 16, 8) for dx in STEPS for dy in STEPS[:6]],
    # |shift| just under the grid
    (UNDER_16, 0.0, 16, 8), (-UNDER_16, 0.5, 16, 8),
    (2.5, UNDER_8, 16, 8), (0.0, -UNDER_8, 16, 8), (UNDER_16, -UNDER_8, 16, 8),
    # a 1x1 grid
    (0.0, 0.0, 1, 1), (0.5, 0.0, 1, 1), (-0.5, 0.25, 1, 1),
    (math.nextafter(1.0, 0.0), 0.0, 1, 1),
    # weights that underflow to zero (1e-300 * 1e-300) or round to one
    (1e-300, 0.0, 16, 8), (-1e-300, 0.0, 16, 8), (1e-300, 1e-300, 16, 8),
    (-1e-300, -1e-300, 16, 8), (-1e-300, 1e-300, 16, 8), (-1e-300, -1e-300, 1, 1),
    # the study, benchmark and superres-grid shifts
    (FAR_DX, 0.0, 64, 64), (FAR_DX, 0.0, 256, 256), (2.0 * FAR_DX, 0.0, 512, 256),
    # a large grid, and weights that change along each row
    (1.25, 0.0, 300, 230), (0.3, -1.5, 300, 230),
])
def test_shift_csr_equals_the_coo_assembly(dx, dy, width, height):
    """The shift's products are those of the COO assembly's CSR matrix,
    forward and transposed, bit for bit."""
    assert_same_products(build_shift(dx, dy, width, height).matrix,
                         coo_build_shift_matrix(dx, dy, width, height))


def dense_shift(dx, dy, width, height):
    """U as a dense matrix: the outer (Kronecker) product of the per-axis
    bilinear matrices built from loop_axis_taps."""
    axes = []
    for d, n in ((dy, height), (dx, width)):
        taps, weights = loop_axis_taps(np.arange(n, dtype=np.float64) - d, n)
        m = np.zeros((n, n))
        for i in range(n):
            for k in range(2):
                m[i, taps[i, k]] += weights[i, k]
        axes.append(m)
    return np.kron(*axes)


@pytest.mark.parametrize("dx,dy", [(2.5, -1.25), (-3.75, 0.5), (0.3, 0.0),
                                   (-0.7, 2.25), (FAR_DX, 0.0), (-FAR_DX, -0.6)])
def test_operators_match_dense_oracles_and_their_transposes_are_adjoints(dx, dy):
    """At 12x20, U and (for dy = 0) S = S1 U(2 dx) agree with dense
    matrices built from the axis taps, and <A x, y> = <x, A^T y>."""
    width, height = 20, 12
    rng = np.random.default_rng(5)
    cases = [(build_shift(dx, dy, width, height).matrix,
              dense_shift(dx, dy, width, height))]
    if dy == 0.0 and abs(dx) < width / 2:
        s1 = np.kron(np.eye(width * height // 2), [0.5, 0.5])
        cases.append((build_sampling(dx, width // 2, height),
                      s1 @ dense_shift(2 * dx, 0.0, width, height)))
    for op, mat in cases:
        assert op.shape == mat.shape
        assert np.allclose(dense(op), mat, rtol=0.0, atol=1e-15)
        assert np.allclose(dense(op.T), mat.T, rtol=0.0, atol=1e-15)
        x, y = rng.standard_normal(op.shape[1]), rng.standard_normal(op.shape[0])
        assert abs(np.dot(op @ x, y) - np.dot(x, op.T @ y)) < 1e-12


def test_a_dropped_operator_frees_its_buffers_without_the_cycle_collector():
    """A stencil and its transpose hold no reference cycle, so each solve's
    operators (and their scratch arrays) go when the last reference does;
    objects in a cycle wait for a full collection, and a run of 256x256
    solves would pile them up."""
    gc.disable()
    try:
        for build in (lambda: build_shift(2.5, -1.25, 16, 8).matrix,
                      lambda: build_sampling(3.5, 8, 4)):
            op = build()
            ref, transposed = weakref.ref(op), op.T
            assert transposed.T.shape == op.shape
            del op, transposed
            assert ref() is None
    finally:
        gc.enable()


def test_a_built_stencil_holds_one_plane_of_scratch():
    """A stencil writes each output plane in place, so a built 256x256
    shift or sampling stencil holds little more than its one plane of
    float64 scratch, shared with its transpose."""
    for build in (lambda: build_sampling(FAR_DX, 256, 256),
                  lambda: build_shift(FAR_DX, 0.0, 256, 256).matrix):
        tracemalloc.start()
        try:
            op = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert op.shape[0] == 256 * 256
        assert held < 1.25 * 8 * 256 * 256


def test_apply_shift_validates_image_shape():
    op = build_shift(1.0, 0.0, 8, 4)
    with pytest.raises(ValueError, match="shape"):
        apply_shift(op, np.zeros((8, 4)))


# ---------------------------------------------------------------------------
# region masks
# ---------------------------------------------------------------------------

def test_masks_at_the_working_shift():
    masks = build_region_masks(3.5, 0.0, 64, 64)
    assert masks.common.sum() == 64 * 60          # 3840
    assert masks.disjoint[0].sum() == 64 * 4      # 256
    assert masks.disjoint[1].sum() == 64 * 4      # 256
    # sensor 1 misses the right strip, sensor 2 the left strip
    assert np.all(~masks.common[:, -4:])
    assert np.all(masks.disjoint[1][:, :4])


def test_masks_unknown_count_stays_below_two_images():
    for dx in (0.0, 1.0, 3.5, 17.25, 63.0):
        masks = build_region_masks(dx, 0.0, 64, 64)
        unknowns = (masks.common.sum() + masks.disjoint[0].sum()
                    + masks.disjoint[1].sum())
        assert unknowns < 2 * 64 * 64


def test_masks_zero_shift_sees_everything():
    masks = build_region_masks(0.0, 0.0, 32, 16)
    assert np.all(masks.common)
    assert not masks.disjoint[0].any()
    assert not masks.disjoint[1].any()


def test_masks_partition_each_grid():
    masks = build_region_masks(-2.5, 1.5, 24, 20)
    assert np.array_equal(masks.common, ~masks.disjoint[0])
    assert np.array_equal(masks.common_for(2), ~masks.disjoint[1])
    assert masks.common.sum() == masks.common_for(2).sum()


def test_common_for_reference_sensor_is_common():
    masks = build_region_masks(3.5, 0.0, 16, 16)
    assert masks.common_for(1) is masks.common


@pytest.mark.parametrize("sensor_index", [0, -1, 3])
def test_common_for_rejects_a_sensor_index_outside_one_and_two(sensor_index):
    masks = build_region_masks(3.5, 0.0, 16, 8)
    with pytest.raises(ValueError, match="out of range"):
        masks.common_for(sensor_index)
