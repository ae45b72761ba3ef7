"""SHA-256 digests over the outputs of a fixed set of solves, studies and CLI runs.

Two source trees that print the same digest give the same bits on every
output covered: each field of each ReconstructionResult (arrays by dtype,
shape and bytes; scalars by repr), the fig3/fig4 reports, and the files
`mvlci measure` and `mvlci reconstruct` write (manifest `wall_time_s`
lines excluded) and what each reconstruct prints to stderr.  The package
is imported from PYTHONPATH, so the digest of another checkout is

    PYTHONPATH=<checkout>/src python tools/solve_digest.py

It prints one `<section> <sha256>` line per section, then the total over
all of them, so two trees that differ show which outputs moved.  The
sections are each `_solves` size/config per mode (`64.single`,
`64.joint`, `64.superres`, ...), so a change that keeps one mode's bits
shows it; the stacked solve, the shifted joints, the co-located joint,
the padded solves per mode, fig3/fig4 at each noise level, the CLI's
scene and measure files, each CLI reconstruct run, the rows, the
operators, the TV pieces, and one `epsilon.<section>` per section of solves: the
per-block fidelity radii of its results, kept apart so the other
sections compare like for like with a tree whose results lack that
field, and per section so adding a solve moves no other section.

Covered at full size (the default): single/joint/superres at 64x64 with
the default SolverConfig and with max_iters=60, the same three at
256x256, a seven-vector stacked single solve at noise 0.02, two 32x32
joint solves (20 iterations) at the shifts (-2.5, -1.25) and (3, -2)
and one at (0, 0), whose all-False disjoint masks have empty windows,
the three modes at 60x60, whose 3600 pixels are zero-padded to order
4096 (the one case where the operator norm is approximate, and where
each forward zeroes the padding its last adjoint left),
fig3/fig4 at noise 0 and 0.02, the CLI pipeline (3 views measured at
noise 0.05, then `--sensor 1 --verbose`, `--sensor all`, joint and
superres, all at the default --sigma), the rows select_rows picks at
(2**18, 0.25, 7), (65536, 1.0, -1) and (4096, 0.125, 2**64 + 3), (section
`views`) render_view at every box size sy x sx, sy in 1..3 and sx in
1..9, on apertures of 12x20, 1x20, 12x1 and 1x1, at shifts that are
zero, whole on the base grid and fractional of both signs on each axis
(with the error message where the window leaves the base), and
the products, forward and transposed, of six operators on a normal
vector, the same scaled by 1e-300 and one with zeros of both signs:
build_shift at the study shift on 64x64, at the benchmark shift on
256x256 and at twice it on the 512x256 superres grid, an integer shift
with dy != 0 and a negative fractional shift, and the 64x64 superres
sensor-1 sampling build_sampling(0, ...), (section `operators.superres`)
the same of superres's sensor-2 sampling build_sampling(dx, ...) at the
study shift on 64x64 and at the benchmark shift on 256x256, (section
`tv`) tv_grad, tv_grad_adjoint and tv_shrink on one-row, one-column,
empty, strided and transposed inputs with zeros of both signs, and
(section `cli.experiment`) the report that
`mvlci experiment --which fig4` prints and the files it writes; 10-20 s
on two cores.
`--reduced` runs the three modes and the stacked solve at 16x16 and the
CLI, each for at most 20 iterations, and the `rows` and `views` sections
(a fraction of a second; the test suite runs it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np

from mvlci.cli import main as cli_main
from mvlci.experiments import run_measurement_increase, run_superres
from mvlci.geometry import apply_shift, build_region_masks, build_sampling, build_shift
from mvlci.scene import (CameraGeometry, SceneModel, make_test_scene, parallax_shift,
                         render_view)
from mvlci.sensing import SensingSpec, add_noise, measure, order_for_pixels, select_rows
from mvlci.solver import (
    SolverConfig,
    reconstruct_joint,
    reconstruct_single,
    reconstruct_superres,
    tv_grad,
    tv_grad_adjoint,
    tv_shrink,
)

DX = 3.5


class _Digest:
    """A running SHA-256 over every output, and one per named section."""

    def __init__(self):
        self.total = hashlib.sha256()
        self.sections = {}

    def part(self, name: str) -> "_Part":
        return _Part(self, name)


class _Part:
    """Feeds one section and the total with the same bytes."""

    def __init__(self, digest: _Digest, name: str):
        self.digest = digest
        self.name = name
        self.own = digest.sections.setdefault(name, hashlib.sha256())

    def update(self, data: bytes) -> None:
        self.digest.total.update(data)
        self.own.update(data)


def _put(h, label: str, value) -> None:
    h.update(label.encode() + b"\0")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"\0")


def _put_result(h, label: str, res) -> None:
    """Every field of `res`, in declaration order; `epsilon` goes to the
    section `epsilon.<h's section>`."""
    for f in dataclasses.fields(res):
        _put(h.digest.part(f"epsilon.{h.name}") if f.name == "epsilon" else h,
             f"{label}.{f.name}", getattr(res, f.name))


def _spec(size: int, rate: float, seed: int = 42) -> SensingSpec:
    order = order_for_pixels(size * size)
    return SensingSpec(order=order, rows=select_rows(order, rate, seed),
                       seed=seed, pixel_count=size * size)


def _single_joint(d: _Digest, size: int, cfg: SolverConfig, label: str) -> None:
    """Single and joint on one blocks input, in sections <label>.<mode>."""
    masks = build_region_masks(DX, 0.0, size, size)
    shift = build_shift(DX, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 7).base
    v2 = apply_shift(shift, v1) + np.where(masks.disjoint[1], 0.6, 0.0)
    spec = _spec(size, 0.125)
    z1, z2 = measure(v1, spec), measure(v2, spec)
    _put_result(d.part(f"{label}.single"), f"{label}.single",
                reconstruct_single(z1, spec, size, size, cfg))
    _put_result(d.part(f"{label}.joint"), f"{label}.joint",
                reconstruct_joint(z1, z2, spec, size, size, shift, masks, cfg))


def _solves(d: _Digest, size: int, cfg: SolverConfig, label: str) -> None:
    """Single, joint and superres on one blocks / checker-text input."""
    _single_joint(d, size, cfg, label)
    geo = CameraGeometry(aperture_width=size, aperture_height=size,
                         sensor_offsets=[(0.0, 0.0), (DX, 0.0)],
                         sensor_plane_distance=1.0, scene_distance=1.0e7)
    pad = math.ceil(2.0 * DX)
    text = make_test_scene("checker-text", 2 * size + 2 * pad, size, 7)
    spec = _spec(size, 0.25)
    z1, z2 = (measure(render_view(text, geo, k), spec) for k in (1, 2))
    _put_result(d.part(f"{label}.superres"), f"{label}.superres",
                reconstruct_superres(z1, z2, spec, size, size, DX, cfg))


def _shifted_joints(h) -> None:
    """Joint solves whose shift moves rows as well as columns, one
    fractional and one integer, so the transposed shift carries dy != 0."""
    size = 32
    spec = _spec(size, 0.25, seed=8)
    v1 = make_test_scene("blocks", size, size, 11).base
    for dx, dy in ((-2.5, -1.25), (3.0, -2.0)):
        masks = build_region_masks(dx, dy, size, size)
        shift = build_shift(dx, dy, size, size)
        v2 = apply_shift(shift, v1) + np.where(masks.disjoint[1], 0.4, 0.0)
        _put_result(h, f"joint.{dx}.{dy}", reconstruct_joint(
            measure(v1, spec), measure(v2, spec), spec, size, size, shift, masks,
            SolverConfig(max_iters=20)))


def _colocated_joint(h) -> None:
    """A joint solve with both sensors at one position (dx = dy = 0): both
    disjoint masks are all False, so their support windows are empty."""
    size = 32
    spec = _spec(size, 0.25, seed=8)
    v = make_test_scene("blocks", size, size, 11).base
    z = measure(v, spec)
    _put_result(h, "joint.colocated", reconstruct_joint(
        z, z, spec, size, size, build_shift(0.0, 0.0, size, size),
        build_region_masks(0.0, 0.0, size, size), SolverConfig(max_iters=20)))


def _stacked(h, size: int, max_iters: int) -> None:
    """Seven noisy vectors of one view in one stacked solve at noise 0.02."""
    v = make_test_scene("gradient-bars", size, size, 3).base
    spec = _spec(size, 0.25, seed=5)
    z = np.stack([add_noise(measure(v, spec), 0.02, 100 + k) for k in range(7)])
    cfg = SolverConfig(noise_sigma=0.02, max_iters=max_iters)
    _put_result(h, "stacked", reconstruct_single(z, spec, size, size, cfg))


def _studies(d: _Digest) -> None:
    for noise in (0.0, 0.02):
        for name, run in (("fig3", run_measurement_increase), ("fig4", run_superres)):
            h = d.part(f"{name}.{noise}")
            report = run(noise_sigma=noise)
            for c in report.cases:
                c.wall_time_s = 0.0
            _put(h, f"{name}.{noise}.cases", report.cases)
            _put(h, f"{name}.{noise}.verdicts", report.verdicts)
            for key in sorted(report.images):
                _put(h, f"{name}.{noise}.image.{key}", report.images[key])


def _cli(d: _Digest, max_iters: int) -> None:
    """scene -> measure -> reconstruct on a 16x16 aperture; the stderr of
    each reconstruct, then every file written, in name order.  A run's
    stderr and output directory form section cli.<run>; the scene and
    measure files form cli.acquire."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def run(*argv):
            code = cli_main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"mvlci {' '.join(map(str, argv))} exited {code}")

        run("scene", "--kind", "blocks", "--width", 46, "--height", 16,
            "--seed", 5, "--views", "--z", "1e9", "--f", "1",
            "--out", root / "scene.pgm")
        views = [root / "view1.pgm", root / "view2.pgm", root / "view1.pgm"]
        run("measure", "--views", *views, "--rate", 0.5, "--seed", 9,
            "--noise", 0.05, "--out", root / "m.mvm")
        for name, flags in (("s1", ["--sensor", "1", "--verbose"]),
                            ("all", ["--sensor", "all"]),
                            ("joint", ["--mode", "joint"]),
                            ("superres", ["--mode", "superres"])):
            log = io.StringIO()
            with contextlib.redirect_stderr(log):
                run("reconstruct", "--meas", root / "m.mvm", "--max-iters",
                    max_iters, "--out", root / name, *flags)
            _put(d.part(f"cli.{name}"), f"cli.{name}.stderr", log.getvalue())
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            rel = path.relative_to(root)
            h = d.part(f"cli.{rel.parts[0]}" if len(rel.parts) > 1 else "cli.acquire")
            data = path.read_bytes()
            if path.name.endswith("manifest") or path.name == "manifest.txt":
                data = _timeless_manifest(data, str(root))
            _put(h, f"cli.{rel}", data)


def _timeless_manifest(data: bytes, root: str) -> bytes:
    """A manifest without its `wall_time_s` line, with `root` as <root>."""
    data = b"\n".join(line for line in data.split(b"\n")
                      if not line.startswith(b"wall_time_s="))
    return data.replace(root.encode(), b"<root>")


def _experiment(h) -> None:
    """`mvlci experiment --which fig4`: what it prints, then every file it
    writes, in name order, without the manifest's `wall_time_s` line and
    the `wall_time_s` column of report.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["experiment", "--which", "fig4", "--out", tmp])
        if code != 0:
            raise RuntimeError(f"mvlci experiment exited {code}")
        _put(h, "cli.experiment.stdout", out.getvalue())
        for path in sorted(Path(tmp).iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = _timeless_manifest(data, tmp)
            elif path.name == "report.csv":
                rows = [line.split(b",") for line in data.split(b"\n")]
                col = rows[0].index(b"wall_time_s")
                data = b"\n".join(b",".join(r[:col] + r[col + 1:]) for r in rows)
            _put(h, f"cli.experiment.{path.name}", data)


def _rows(h) -> None:
    """Row selections at full scale, at full rate and with a seed taken
    mod 2**64."""
    for order, rate, seed in ((2**18, 0.25, 7), (65536, 1.0, -1),
                              (4096, 0.125, 2**64 + 3)):
        _put(h, f"rows.{order}.{rate}.{seed}", select_rows(order, rate, seed))


# (dx, dy): none, whole on the base grid, fractional of both signs
VIEW_SHIFTS = ((0.0, 0.0), (1.0, -1.0), (0.25, 0.0), (-0.75, 0.0), (0.0, 0.5),
               (0.0, -0.3), (0.4, -0.6), (-0.35, 0.45))


def _views(h) -> None:
    """render_view of sensor 2 over every box size sy x sx (sy 1-3, sx
    1-9) and aperture shape, on bases whose values span 30 binades and
    hold zeros of both signs, at each of VIEW_SHIFTS; a window that leaves
    the base contributes its error message."""
    rng = np.random.default_rng(13)
    for sy in (1, 2, 3):
        for sx in range(1, 10):
            for ha, wa in ((12, 20), (1, 20), (12, 1), (1, 1)):
                shape = (sy * ha + ha - 1, sx * wa + wa - 1)
                base = rng.uniform(0.5, 1.0, shape) * 2.0 ** rng.integers(-30, 0, shape)
                u = rng.uniform(size=shape)
                base[u < 0.1] = 0.0
                base[(u >= 0.1) & (u < 0.2)] = -0.0
                for dx, dy in VIEW_SHIFTS:
                    geo = CameraGeometry(aperture_width=wa, aperture_height=ha,
                                         sensor_offsets=[(0.0, 0.0), (dx, dy)],
                                         sensor_plane_distance=1.0,
                                         scene_distance=1.0e300)
                    try:
                        view = render_view(SceneModel(base), geo, 2)
                    except ValueError as exc:
                        view = str(exc)
                    _put(h, f"views.{sy}x{sx}.{ha}x{wa}.{dx}.{dy}", view)


def _operators(d: _Digest) -> None:
    """Shape, and the products forward and transposed on each of three
    vectors (`_probes`), of the shift and sampling operators the solves
    build, with superres's sensor-2 sampling S2 in a section of its own,
    `operators.superres`.  Any linear operator with `shape`, `@` and `.T`
    can be digested, so trees that represent the operators differently
    compare product for product."""
    geo = CameraGeometry(aperture_width=64, aperture_height=64,
                         sensor_offsets=[(0.0, 0.0), (DX, 0.0)],
                         sensor_plane_distance=1.0, scene_distance=1.0e7)
    dx_eff, _ = parallax_shift(geo, 2)
    ops = {
        "shift.64": build_shift(dx_eff, 0.0, 64, 64).matrix,
        "shift.256": build_shift(dx_eff, 0.0, 256, 256).matrix,
        "shift.superres.512x256": build_shift(2.0 * dx_eff, 0.0, 512, 256).matrix,
        "shift.integer": build_shift(3.0, -2.0, 64, 64).matrix,
        "shift.negative": build_shift(-2.5, -1.25, 64, 48).matrix,
        "pair_average.64": build_sampling(0.0, 64, 64),
    }
    s2 = {f"shifted_pair_average.{size}":
          build_sampling(dx_eff, size, size) for size in (64, 256)}
    for section, group in (("operators", ops), ("operators.superres", s2)):
        h = d.part(section)
        for name, op in group.items():
            _put(h, f"{name}.shape", op.shape)
            for side, m in (("forward", op), ("transpose", op.T)):
                for k, v in enumerate(_probes(m.shape[1])):
                    _put(h, f"{name}.{side}.{k}", m @ v)


def _probes(n: int) -> list:
    """Three length-n vectors: standard normal, the same scaled by 1e-300,
    and normal with zeros of both signs (`_signed`)."""
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    return [v, v * 1e-300, _signed(rng, n)]


def _signed(rng, shape) -> np.ndarray:
    """Normal values with about a fifth -0.0 and a tenth +0.0."""
    v = rng.standard_normal(shape)
    u = rng.uniform(size=shape)
    v[u < 0.2] = -0.0
    v[(u >= 0.2) & (u < 0.3)] = 0.0
    return v


def _tv(h) -> None:
    """tv_grad, tv_grad_adjoint and tv_shrink on inputs with zeros of both
    signs: one-row, one-column and empty shapes, strided and transposed
    views, and gradients with NaN in the entries D leaves empty."""
    rng = np.random.default_rng(11)
    for shape in ((5, 7), (1, 6), (6, 1), (0, 0), (0, 5), (64, 4)):
        x = _signed(rng, (shape[0], 2 * shape[1]))
        g = _signed(rng, (2, shape[0], 2 * shape[1]))
        nan = g[:, :, ::2].copy()
        nan[0][:, -1:] = np.nan
        nan[1][-1:] = np.nan
        for name, img in (("strided", x[:, ::2]), ("copy", x[:, ::2].copy()),
                          ("transposed", x[:, ::2].T)):
            _put(h, f"tv_grad.{shape}.{name}", tv_grad(img))
        for name, gi in (("strided", g[:, :, ::2]), ("nan", nan),
                         ("transposed", g[:, :, ::2].transpose(0, 2, 1))):
            _put(h, f"tv_grad_adjoint.{shape}.{name}", tv_grad_adjoint(gi))
        for t in (0.0, 0.5):
            _put(h, f"tv_shrink.{shape}.{t}", tv_shrink(g, t))


def sections(reduced: bool = False) -> list:
    """[(section, hex SHA-256), ...] in the order first written, then
    ("total", hex SHA-256 over every covered output in that order)."""
    d = _Digest()
    if reduced:
        _solves(d, 16, SolverConfig(max_iters=20), "16")
        _stacked(d.part("stacked"), 16, 20)
        _cli(d, 10)
        _rows(d.part("rows"))
        _views(d.part("views"))
    else:
        _solves(d, 64, SolverConfig(), "64")
        _solves(d, 64, SolverConfig(max_iters=60), "64.max60")
        _solves(d, 256, SolverConfig(), "256")
        _stacked(d.part("stacked"), 64, 120)
        _shifted_joints(d.part("shifted-joints"))
        _colocated_joint(d.part("colocated-joint"))
        _solves(d, 60, SolverConfig(), "padded")
        _studies(d)
        _cli(d, 80)
        _rows(d.part("rows"))
        _views(d.part("views"))
        _operators(d)
        _tv(d.part("tv"))
        _experiment(d.part("cli.experiment"))
    return ([(name, h.hexdigest()) for name, h in d.sections.items()]
            + [("total", d.total.hexdigest())])


def digest(reduced: bool = False) -> str:
    """The hex SHA-256 over every covered output (see the module docstring)."""
    return sections(reduced)[-1][1]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reduced", action="store_true",
                        help="short 16x16 solves and CLI runs only")
    for name, hexdigest in sections(parser.parse_args().reduced):
        print(f"{name:24s} {hexdigest}")
