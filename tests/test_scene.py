"""Scene generation, parallax geometry and view rendering."""

import math

import numpy as np
import pytest

from mvlci.rng import SplitMix64
from mvlci.scene import (
    SCENE_KINDS,
    CameraGeometry,
    SceneModel,
    make_test_scene,
    parallax_shift,
    render_pair,
    render_view,
)


def _two_sensor_geometry(w, h, dx, dy=0.0, f=1.0, z=1.0e6):
    return CameraGeometry(
        aperture_width=w, aperture_height=h,
        sensor_offsets=[(0.0, 0.0), (dx, dy)],
        sensor_plane_distance=f, scene_distance=z,
    )


# ---------------------------------------------------------------------------
# scene models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_scene_values_lie_in_unit_range(kind):
    scene = make_test_scene(kind, 96, 48, 3)
    assert scene.base.shape == (48, 96)
    assert scene.base.min() >= 0.0 and scene.base.max() <= 1.0


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_scene_generation_is_deterministic(kind):
    a = make_test_scene(kind, 64, 64, 11).base
    b = make_test_scene(kind, 64, 64, 11).base
    c = make_test_scene(kind, 64, 64, 12).base
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unknown_scene_kind_raises():
    with pytest.raises(ValueError, match="unknown scene kind"):
        make_test_scene("noise", 64, 64, 0)


def test_tiny_scene_raises():
    with pytest.raises(ValueError):
        make_test_scene("blocks", 4, 64, 0)


def test_scene_model_validates_range():
    with pytest.raises(ValueError):
        SceneModel(base=np.array([[2.0]]))


def test_blocks_scene_is_piecewise_constant():
    img = make_test_scene("blocks", 64, 64, 7).base
    assert len(np.unique(img)) <= 12


# ---------------------------------------------------------------------------
# parallax
# ---------------------------------------------------------------------------

def _ray_intersection_shift(d, f, z):
    """Oracle: trace where a scene point lands on the aperture plane.

    The sensor sits at distance f behind the aperture, offset d along x;
    a scene point at (p, z) in front maps to the aperture crossing of the
    straight line between them.  The view shift is the crossing-point
    displacement between the offset sensor and the reference sensor, and
    is independent of p.
    """
    p = 17.3  # arbitrary scene position
    # line from (d, -f) to (p, z): x(t) = d + t*(p - d), t = f / (f + z)
    t = f / (f + z)
    x_offset = d + t * (p - d)
    x_reference = 0.0 + t * (p - 0.0)
    return x_offset - x_reference


def test_parallax_shift_matches_ray_oracle():
    rng = SplitMix64(2718)
    worst = 0.0
    for _ in range(100):
        d = -10.0 + 20.0 * rng.uniform()
        f = 0.1 + 10.0 * rng.uniform()
        z = 10.0 ** (1.0 + 6.0 * rng.uniform())
        geo = _two_sensor_geometry(64, 64, d, f=f, z=z)
        dx, dy = parallax_shift(geo, 2)
        worst = max(worst, abs(dx - _ray_intersection_shift(d, f, z)))
        assert dy == 0.0
    assert worst < 1e-9


def test_parallax_of_reference_sensor_is_zero():
    geo = _two_sensor_geometry(32, 32, 3.5)
    assert parallax_shift(geo, 1) == (0.0, 0.0)


def test_parallax_approaches_offset_for_far_scenes():
    geo = _two_sensor_geometry(64, 64, 3.5, f=100.0, z=1.0e8)
    dx, _ = parallax_shift(geo, 2)
    assert abs(dx - 3.5) < 1e-4


def test_parallax_sensor_index_validated():
    geo = _two_sensor_geometry(32, 32, 1.0)
    with pytest.raises(ValueError):
        parallax_shift(geo, 3)


# ---------------------------------------------------------------------------
# view rendering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,kwargs", [
    ("sensor_plane_distance", {"f": float("inf")}),
    ("sensor_plane_distance", {"f": float("nan")}),
    ("scene_distance", {"z": float("inf")}),
    ("scene_distance", {"z": float("nan")}),
    ("sensor_offsets", {"dx": float("inf")}),
    ("sensor_offsets", {"dx": float("nan")}),
    ("sensor_offsets", {"dy": float("-inf")}),
])
def test_geometry_rejects_non_finite_placement(field, kwargs):
    with pytest.raises(ValueError, match=field):
        _two_sensor_geometry(64, 64, **{"dx": 3.5, **kwargs})


def test_reference_view_at_scene_resolution_is_identity():
    scene = make_test_scene("blocks", 64, 64, 5)
    geo = CameraGeometry(aperture_width=64, aperture_height=64)
    assert np.array_equal(render_view(scene, geo, 1), scene.base)


def test_integer_shift_view_is_a_column_slice():
    # z == f makes the parallax factor exactly 0.5, so offset -4 -> shift -2
    scene = make_test_scene("blocks", 72, 64, 5)
    geo = _two_sensor_geometry(64, 64, -4.0, f=1.0, z=1.0)
    v1 = render_view(scene, geo, 1)
    v2 = render_view(scene, geo, 2)
    anchor = (72 - 64) // 2
    assert np.array_equal(v1, scene.base[:, anchor : anchor + 64])
    # a sensor shifted by -2 sees the window slide the other way: v2(x) = base(x+2)
    assert np.array_equal(v2, scene.base[:, anchor + 2 : anchor + 2 + 64])


def test_views_box_average_doubled_scenes():
    scene = SceneModel(base=np.full((32, 128), 0.25))
    geo = CameraGeometry(aperture_width=64, aperture_height=32)
    view = render_view(scene, geo, 1)
    assert view.shape == (32, 64)
    assert np.allclose(view, 0.25, atol=1e-15)


def test_fractional_shift_interpolates_linear_ramp():
    w = 40
    ramp = np.tile(np.linspace(0.0, 1.0, w + 8), (16, 1))
    scene = SceneModel(base=ramp)
    geo = _two_sensor_geometry(w, 16, 1.5, z=1.0e9)
    v1 = render_view(scene, geo, 1)
    v2 = render_view(scene, geo, 2)
    dx_eff, _ = parallax_shift(geo, 2)
    step = 1.0 / (w + 7)
    assert np.allclose(v1 - v2, dx_eff * step, atol=1e-9)


@pytest.mark.parametrize("scale", [1, 2])
def test_render_pair_is_the_hand_built_far_field_sequence(scale):
    """The studies' far field: a 64x64 aperture, dx 3.5, f 1, Z 1e7, on a
    scene at `scale` times the aperture width plus the shift's margin."""
    margin = math.ceil(scale * 3.5)
    scene = make_test_scene("checker-text", scale * 64 + 2 * margin, 64, 7)
    geo = _two_sensor_geometry(64, 64, 3.5, f=1.0, z=1.0e7)
    views, shift = render_pair(scene, 64, 64, 3.5, 1.0, 1.0e7)
    assert shift == parallax_shift(geo, 2)
    assert len(views) == 2
    for k, view in enumerate(views, start=1):
        assert view.tobytes() == render_view(scene, geo, k).tobytes()


def test_render_raises_when_sampling_leaves_scene():
    scene = make_test_scene("blocks", 64, 64, 5)
    geo = _two_sensor_geometry(64, 64, 3.5)
    with pytest.raises(ValueError, match="margin"):
        render_view(scene, geo, 2)


def reference_render(base, wa, ha, dx, dy):
    """The view formula render_view keeps bit for bit: interpolate each
    axis as (1 - frac) * lo + frac * hi, then box-average the window with
    .mean(axis=(1, 3))."""
    bh, bw = base.shape
    sx, sy = bw // wa, bh // ha

    def sample(img, axis, start, count):
        i0 = math.floor(start)
        frac = start - i0
        if i0 < 0 or i0 + count + (frac != 0.0) > img.shape[axis]:
            raise ValueError("margin")
        sl = [slice(None)] * 2
        sl[axis] = slice(i0, i0 + count)
        lo = img[tuple(sl)]
        if frac == 0.0:
            return np.ascontiguousarray(lo)
        sl[axis] = slice(i0 + 1, i0 + 1 + count)
        return (1.0 - frac) * lo + frac * img[tuple(sl)]

    rows = sample(base, 0, (bh - sy * ha) // 2 - sy * dy, sy * ha)
    window = sample(rows, 1, (bw - sx * wa) // 2 - sx * dx, sx * wa)
    return window.reshape(ha, sy, wa, sx).mean(axis=(1, 3))


def wide_range_base(rng, shape):
    """Values in [0, 1] spread over 30 binades, a tenth of them +0.0 and a
    tenth -0.0, so that adding in any other order changes some bits."""
    base = rng.uniform(0.5, 1.0, shape) * 2.0 ** rng.integers(-30, 0, shape)
    u = rng.uniform(size=shape)
    base[u < 0.1] = 0.0
    base[(u >= 0.1) & (u < 0.2)] = -0.0
    return base


# (dx, dy) in aperture pixels: none, integer on the base grid, and
# fractional of both signs along each axis and along both
VIEW_SHIFTS = ((0.0, 0.0), (1.0, -1.0), (0.25, 0.0), (-0.75, 0.0), (0.0, 0.5),
               (0.0, -0.3), (0.4, -0.6), (-0.35, 0.45))


@pytest.mark.parametrize("sx", range(1, 10))
@pytest.mark.parametrize("sy", [1, 2, 3])
def test_render_view_is_bytewise_the_reference_formula(sy, sx):
    """Every box size sy x sx, on apertures of one row or column too, where
    numpy merges the summed axes.  A shift whose window leaves the base
    must raise in render_view as it does in the reference."""
    rng = np.random.default_rng(10 * sy + sx)
    checked = 0
    for ha, wa in ((12, 20), (1, 20), (12, 1), (1, 1)):
        # the largest margin that keeps the scale at sy x sx
        base = wide_range_base(rng, (sy * ha + ha - 1, sx * wa + wa - 1))
        for dx, dy in VIEW_SHIFTS:
            geo = _two_sensor_geometry(wa, ha, dx, dy, z=1.0e300)  # shift is exact
            try:
                ref = reference_render(base, wa, ha, dx, dy)
            except ValueError:
                with pytest.raises(ValueError, match="margin"):
                    render_view(SceneModel(base), geo, 2)
                continue
            view = render_view(SceneModel(base), geo, 2)
            assert view.dtype == ref.dtype and view.shape == ref.shape == (ha, wa)
            assert view.tobytes() == ref.tobytes(), (ha, wa, dx, dy)
            checked += 1
    assert checked >= 12
