"""Scene and camera geometry for a two-sensor lensless aperture camera.

A scene is a planar image placed at distance Z in front of the aperture.
Each point sensor sits a small offset behind the aperture plane, so the
virtual image it observes through the aperture is the scene translated by
a parallax shift and averaged down to the aperture's pixel grid.  The
shift for sensor k at offset (dx_k, dy_k) and sensor-plane distance f is

    (dx_k * Z / (Z + f), dy_k * Z / (Z + f))

in aperture pixel units, which tends to (dx_k, dy_k) for far scenes.

Rendering maps the scene base image onto the aperture with an integer
scale per axis (base // aperture); any leftover pixels become a centered
margin so that shifted sensors can sample beyond the reference footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import SplitMix64

SCENE_KINDS = ("blocks", "gradient-bars", "checker-text")


@dataclass
class SceneModel:
    """Planar scene: a base image in [0, 1].  Its distance Z from the
    aperture is CameraGeometry.scene_distance."""

    base: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=np.float64)
        if self.base.ndim != 2 or self.base.size == 0:
            raise ValueError("scene base must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.base)):
            raise ValueError("scene base contains non-finite values")
        if self.base.min() < 0.0 or self.base.max() > 1.0:
            raise ValueError("scene base values must lie in [0, 1]")


@dataclass
class CameraGeometry:
    """Aperture size plus per-sensor placement.

    Sensor offsets are expressed in aperture pixel units in the aperture
    plane; sensor 1 is the reference and must sit at (0, 0).
    """

    aperture_width: int
    aperture_height: int
    sensor_offsets: list = field(default_factory=lambda: [(0.0, 0.0)])
    sensor_plane_distance: float = 1.0
    scene_distance: float = 1.0e6

    def __post_init__(self):
        if self.aperture_width < 1 or self.aperture_height < 1:
            raise ValueError("aperture dimensions must be positive")
        if len(self.sensor_offsets) < 1:
            raise ValueError("need at least one sensor")
        if not all(math.isfinite(v) for offset in self.sensor_offsets for v in offset):
            raise ValueError(f"sensor_offsets must be finite, got {self.sensor_offsets}")
        ox, oy = self.sensor_offsets[0]
        if ox != 0.0 or oy != 0.0:
            raise ValueError("sensor 1 must sit at offset (0, 0)")
        for name in ("sensor_plane_distance", "scene_distance"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")

    @property
    def sensor_count(self) -> int:
        return len(self.sensor_offsets)


def parallax_shift(geometry: CameraGeometry, sensor_index: int):
    """Image-plane shift (dx, dy) of sensor `sensor_index` (1-based)."""
    if not 1 <= sensor_index <= geometry.sensor_count:
        raise ValueError(f"sensor index {sensor_index} out of range")
    dx, dy = geometry.sensor_offsets[sensor_index - 1]
    z = geometry.scene_distance
    f = geometry.sensor_plane_distance
    factor = z / (z + f)
    return dx * factor, dy * factor


def render_view(scene: SceneModel, geometry: CameraGeometry, sensor_index: int) -> np.ndarray:
    """Render the virtual image seen by one sensor.

    The scene base is translated by the sensor's parallax shift (bilinear
    interpolation for fractional shifts) and box-averaged down to the
    aperture grid.  With a single sensor at (0, 0) and a base already at
    aperture resolution this is the identity.  Raises ValueError when the
    shifted sampling window leaves the base image, naming the margin that
    would be required.

    The box average is bit for bit window.reshape(ha, sy, wa, sx).mean(
    axis=(1, 3)).  Where sx < 8 and wa > 1, that mean adds each box row's
    sx samples to 0 from left to right, adds those row sums to 0 from top
    to bottom and divides by sy * sx; the same adds run here as whole-slice
    adds over every box at once.  Elsewhere numpy sums in pairwise blocks
    of 8 or along one merged axis, and the mean itself is taken.
    """
    base = scene.base
    bh, bw = base.shape
    wa, ha = geometry.aperture_width, geometry.aperture_height
    if bw < wa or bh < ha:
        raise ValueError(
            f"scene base {bw}x{bh} smaller than aperture {wa}x{ha}"
        )
    sx, sy = bw // wa, bh // ha
    anchor_x = (bw - sx * wa) // 2
    anchor_y = (bh - sy * ha) // 2
    dx, dy = parallax_shift(geometry, sensor_index)

    rows = _sample_axis(base, axis=0, start=anchor_y - sy * dy, count=sy * ha,
                        sensor=sensor_index, name="rows")
    window = _sample_axis(rows, axis=1, start=anchor_x - sx * dx, count=sx * wa,
                          sensor=sensor_index, name="columns")
    box = window.reshape(ha, sy, wa, sx)
    if sx >= 8 or wa == 1:  # numpy adds in blocks of 8 or along one merged axis
        return np.ascontiguousarray(box).mean(axis=(1, 3))
    return sum(sum(box[:, r, :, c] for c in range(sx)) for r in range(sy)) / (sy * sx)


def render_pair(scene: SceneModel, width: int, height: int, dx: float,
                sensor_plane_distance: float, scene_distance: float):
    """Render the two views of `scene` seen through a width x height
    aperture by sensor 1 at (0, 0) and sensor 2 at (dx, 0).

    Returns ([view1, view2], (dx_eff, dy_eff)), the second sensor's
    parallax shift.  The CLI and the studies acquire their views here.
    """
    geo = CameraGeometry(width, height, [(0.0, 0.0), (dx, 0.0)],
                         sensor_plane_distance, scene_distance)
    return [render_view(scene, geo, k) for k in (1, 2)], parallax_shift(geo, 2)


def _sample_axis(img: np.ndarray, axis: int, start: float, count: int,
                 sensor: int, name: str) -> np.ndarray:
    """Take `count` consecutive samples along one axis starting at a
    fractional position, interpolating linearly between neighbors:
    (1 - frac) * lo + frac * hi in one new array, or a view of img when
    frac is 0."""
    size = img.shape[axis]
    i0 = math.floor(start)
    frac = start - i0
    taps = count if frac == 0.0 else count + 1
    if i0 < 0 or i0 + taps > size:
        need_lo = max(0, -i0)
        need_hi = max(0, i0 + taps - size)
        raise ValueError(
            f"sensor {sensor} samples outside the scene base along {name}: "
            f"need {need_lo} more pixel(s) of margin at the low edge and "
            f"{need_hi} at the high edge"
        )
    sl = [slice(None)] * img.ndim
    sl[axis] = slice(i0, i0 + count)
    lo = img[tuple(sl)]
    if frac == 0.0:
        return lo
    sl[axis] = slice(i0 + 1, i0 + 1 + count)
    out = (1.0 - frac) * lo
    return np.add(out, frac * img[tuple(sl)], out=out)


# ---------------------------------------------------------------------------
# deterministic test scenes
# ---------------------------------------------------------------------------

def make_test_scene(kind: str, width: int, height: int, seed: int) -> SceneModel:
    """Generate a deterministic test scene of the requested kind.

    blocks        piecewise-constant rectangles (at most 12 constant regions)
    gradient-bars smooth ramps crossed by sharp vertical bars
    checker-text  fine checkers, 1-px gratings and glyph-like strokes
    """
    if width < 8 or height < 8:
        raise ValueError("test scenes need width and height >= 8")
    if kind == "blocks":
        img = _blocks(width, height, SplitMix64(seed))
    elif kind == "gradient-bars":
        img = _gradient_bars(width, height, SplitMix64(seed))
    elif kind == "checker-text":
        img = _checker_text(width, height, SplitMix64(seed))
    else:
        raise ValueError(f"unknown scene kind {kind!r}; choose from {SCENE_KINDS}")
    return SceneModel(base=img)


def _blocks(w: int, h: int, rng: SplitMix64) -> np.ndarray:
    """Background plus up to 7 non-overlapping rectangles, all interior,
    so the constant-region count stays at (rectangles + 1) <= 12."""
    levels = [0.15 + 0.07 * rng.below(5)]  # background in [0.15, 0.43]
    img = np.full((h, w), levels[0])
    placed = []
    attempts = 0
    while len(placed) < 7 and attempts < 400:
        attempts += 1
        rw = rng.integers(max(2, w // 8), max(3, w // 3))
        rh = rng.integers(max(2, h // 8), max(3, h // 3))
        if rw >= w - 2 or rh >= h - 2:
            continue
        x0 = rng.integers(1, w - rw)
        y0 = rng.integers(1, h - rh)
        box = (x0, y0, x0 + rw, y0 + rh)
        # one-pixel gap keeps rectangles (and the background) simply connected
        if any(not (box[2] + 1 <= b[0] or b[2] + 1 <= box[0]
                    or box[3] + 1 <= b[1] or b[3] + 1 <= box[1])
               for b in placed):
            continue
        value = None
        for _ in range(50):
            cand = 0.05 + 0.9 * rng.uniform()
            if all(abs(cand - lv) >= 0.08 for lv in levels):
                value = cand
                break
        if value is None:
            continue
        levels.append(value)
        placed.append(box)
        img[y0 : y0 + rh, x0 : x0 + rw] = value
    return img


def _gradient_bars(w: int, h: int, rng: SplitMix64) -> np.ndarray:
    ix = np.linspace(0.0, 1.0, w)[None, :]
    iy = np.linspace(0.0, 1.0, h)[:, None]
    img = 0.15 + 0.55 * ix + 0.15 * iy
    # sharp vertical bars over the smooth background
    for _ in range(3):
        bw = rng.integers(max(1, w // 20), max(2, w // 8))
        x0 = rng.integers(1, max(2, w - bw - 1))
        img[:, x0 : x0 + bw] = 0.05 + 0.9 * rng.uniform()
    # one horizontal bar carrying its own ramp
    bh = max(1, h // 10)
    y0 = rng.integers(1, max(2, h - bh - 1))
    img[y0 : y0 + bh, :] = 0.9 - 0.8 * ix
    return np.clip(img, 0.0, 1.0)


def _checker_text(w: int, h: int, rng: SplitMix64) -> np.ndarray:
    """Printed page with a coarse checker, a fine 2-px checker patch, a
    short period-3 grating and two lines of glyph-like strokes.

    The finest texture is 2 px: a 1-px checker averages to flat gray under
    any 2-px box sampling, so it would be invisible to the sensors at
    every phase and only inflate the TV budget.  Stroke positions land on
    even and odd columns alike, which is where doubled horizontal
    resolution pays off.
    """
    page = 0.88
    ink = 0.08
    img = np.full((h, w), page)
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]

    # coarse checker band across the top (cheap structure, strong edges)
    cell = max(4, h // 8)
    bh = 2 * cell
    bw = min(w, 6 * cell)
    img[:bh, :bw] = np.where(
        ((ys[:bh] // cell) + (xs[:, :bw] // cell)) % 2 == 0, ink, page)
    # fine 2-px checker patch in the top-right corner
    patch = max(8, h // 6)
    x0 = max(bw + 2, w - patch - 2)
    img[2 : 2 + patch, x0 : x0 + patch] = np.where(
        ((ys[2 : 2 + patch] // 2) + (xs[:, x0 : x0 + patch] // 2)) % 2 == 0,
        ink, page)
    # short vertical grating, period 3 (1 px ink, 2 px page)
    g0 = bh + 3
    g1 = min(h, g0 + max(4, h // 10))
    gx1 = max(4, w // 4)
    img[g0:g1, 2:gx1] = np.where(xs[:, 2:gx1] % 3 == 0, ink, page)
    # two lines of glyph-like strokes: 1-2 px verticals, a few crossbars
    row = g1 + 3
    cell_h = max(6, h // 8)
    lines = 0
    while row + cell_h <= h and lines < 2:
        col = 3
        while col + 8 <= w:
            sx = col + rng.below(4)
            sw = 1 + rng.below(2)
            img[row : row + cell_h - 2, sx : min(sx + sw, w)] = ink
            if rng.uniform() < 0.4:
                bar_y = row + 1 + rng.below(max(1, cell_h - 4))
                img[bar_y : bar_y + 1, sx : min(sx + 4, w)] = ink
            col += 8 + rng.below(5)
        row += cell_h + 2
        lines += 1
    return img
