"""Command-line interface.

Four subcommands cover the simulation pipeline end to end:

    mvlci scene        generate a test scene (and optionally its two views)
    mvlci measure      apply aperture patterns to view images
    mvlci reconstruct  solve single / joint / superres from a measurement file
    mvlci experiment   run one of the packaged comparisons

Every command writes a flat key=value manifest next to its outputs with
all resolved parameters, enough to reproduce the run bit for bit.  Each
`cmd_*` returns the manifest's path and its own entries, and `main` alone
writes every manifest: the command name and version first, the entries,
then the wall time of the command.  A command that fails writes none.
`main` builds the parse tree once per process and reuses it, and at
each call it picks the `cmd_*` function by the command's name.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np
from pathlib import Path

from . import __version__
from .experiments import run_measurement_increase, run_superres
from .geometry import build_region_masks, build_shift
from .pgm import clamp01, read_pgm, write_pgm
from .scene import make_test_scene, render_pair, SCENE_KINDS
from .sensing import acquire, read_mvm, write_mvm
from .solver import SolverConfig, check_fractional_dx, reconstruct_joint, reconstruct_single, reconstruct_superres


class _UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


def write_manifest(path, entries: dict) -> None:
    """Write a flat key=value manifest (one entry per line)."""
    lines = [f"{key}={entries[key]}" for key in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

def cmd_scene(args) -> tuple[Path, dict]:
    scene = make_test_scene(args.kind, args.width, args.height, args.seed)
    out = Path(args.out)
    views = []
    entries = {
        "kind": args.kind, "width": args.width, "height": args.height,
        "seed": args.seed, "maxval": args.maxval, "out": out,
    }
    if args.views:
        # two low-res views rendered from a window of the scene at 2x
        # horizontal scale; the margin covers the second sensor's shift
        if not math.isfinite(args.dx):
            raise _UsageError(f"--dx must be finite, got {args.dx}")
        if 2.0 * abs(args.dx) >= args.width:
            raise _UsageError(f"--dx {args.dx} leaves no room for two views: "
                              f"2*|dx| must be below the width {args.width}")
        pad = math.ceil(2.0 * abs(args.dx))
        aperture_w = (args.width - 2 * pad) // 2
        aperture_h = args.height
        # render_pair scales by width // aperture_w, which must come out 2:
        # width = 2 pad + 2 aperture_w + odd with odd in {0, 1} needs
        # aperture_w > 2 pad + odd
        if aperture_w < 8 or args.width // aperture_w != 2:
            smallest = 2 * pad + 2 * max(8, 2 * pad + 1)
            every = 2 * pad + 2 * max(8, 2 * pad + 2)
            raise _UsageError(
                f"scene width {args.width} does not give two views of at least "
                f"8 columns at 2x scale with dx={args.dx}; the smallest width "
                f"that does is {smallest}"
                + (f", and every width from {every} up" if every > smallest else "")
            )
        views, (dx_eff, dy_eff) = render_pair(scene, aperture_w, aperture_h,
                                              args.dx, args.f, args.z)
        entries.update({
            "views": 1, "dx": args.dx, "f": args.f, "z": args.z,
            "dx_effective": repr(dx_eff), "dy_effective": repr(dy_eff),
            "aperture_width": aperture_w, "aperture_height": aperture_h,
            "view1": out.parent / "view1.pgm",
            "view2": out.parent / "view2.pgm",
        })
    # every check has passed and every image exists: only now write
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, scene.base, maxval=args.maxval)
    for k, view in enumerate(views, start=1):
        write_pgm(out.parent / f"view{k}.pgm", view, maxval=args.maxval)
    return out.with_suffix(out.suffix + ".manifest"), entries


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def cmd_measure(args) -> tuple[Path, dict]:
    views = [read_pgm(p) for p in args.views]
    if any(v.shape != views[0].shape for v in views):
        raise _UsageError("all views must have identical dimensions")
    ms = acquire(views, args.rate, args.seed, args.noise)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_mvm(out, ms)
    return out.with_suffix(out.suffix + ".manifest"), {
        "views": ",".join(str(p) for p in args.views),
        "rate": repr(args.rate), "seed": args.seed, "noise": repr(args.noise),
        "order": ms.spec.order, "rows": ms.spec.count, "width": ms.width,
        "height": ms.height, "out": out,
    }


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(args) -> tuple[Path, dict]:
    # a flag the mode ignores is an error, not a silent no-op; the manifest
    # records only the flags the mode uses
    single = args.mode == "single"
    for flag, value, used in (("--sensor", args.sensor, single),
                              ("--dx", args.dx, not single),
                              ("--dy", args.dy, not single),
                              ("--sigma", args.sigma, not single)):
        if value is not None and not used:
            raise _UsageError(f"{args.mode} mode does not take {flag}")
    sensor = "1" if args.sensor is None else args.sensor
    dx = 3.5 if args.dx is None else args.dx
    dy = 0.0 if args.dy is None else args.dy
    sigma = SolverConfig.sigma if args.sigma is None else args.sigma
    for flag, value in (("--dx", dx), ("--dy", dy)):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value}")
    mode_flags = ({"sensor": sensor} if single else
                  {"dx": repr(dx), "dy": repr(dy), "sigma": repr(sigma)})
    ms = read_mvm(args.meas)
    cfg = SolverConfig(max_iters=args.max_iters, rel_tol=args.tol,
                       sigma=sigma, noise_sigma=ms.noise_sigma)

    if single:
        if sensor == "all":
            # stacked solve over every sensor's vector (useful when the
            # sensors are co-located and the vectors constrain one image)
            z = np.stack(ms.values)
        else:
            idx = _parse_sensor(sensor)
            if not 1 <= idx <= ms.sensor_count:
                raise _UsageError(f"sensor {idx} not in measurement file")
            z = ms.values[idx - 1]
        res = reconstruct_single(z, ms.spec, ms.width, ms.height, cfg)
        written = {"recon": res.image}
    else:
        if ms.sensor_count < 2:
            raise _UsageError(f"{args.mode} mode needs a two-sensor measurement file")
        if args.mode == "superres":
            if dy != 0.0:
                raise _UsageError(
                    f"superres mode models a horizontal offset only; got --dy {dy}")
            try:
                check_fractional_dx(dx)
            except ValueError as exc:
                raise _UsageError(str(exc)) from None
        masks = build_region_masks(dx, dy, ms.width, ms.height)
        if not masks.common.any():
            raise _UsageError(
                f"offset ({dx}, {dy}) leaves no region that both sensors see "
                f"on the {ms.width}x{ms.height} grid")
        if args.mode == "joint":
            shift = build_shift(dx, dy, ms.width, ms.height)
            res = reconstruct_joint(ms.values[0], ms.values[1], ms.spec,
                                    ms.width, ms.height, shift, masks, cfg)
            written = {"common": res.common, "disjoint1": res.disjoint1,
                       "disjoint2": res.disjoint2, "view1": res.view1,
                       "view2": res.view2}
        else:
            res = reconstruct_superres(ms.values[0], ms.values[1], ms.spec,
                                       ms.width, ms.height, dx, cfg)
            written = {"superres": res.image, "disjoint1": res.disjoint1,
                       "disjoint2": res.disjoint2}
    if args.verbose:
        for t, (obj, res_rel) in enumerate(
                zip(res.objective_history, res.residual_history), start=1):
            print(f"iter={t} obj={obj:.6e}" + "".join(
                f" res{k}={r:.3e}" for k, r in enumerate(res_rel, start=1)),
                file=sys.stderr)

    # created only now, so a run that fails leaves no empty directory behind
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, img in written.items():
        write_pgm(outdir / f"{name}.pgm", clamp01(img), maxval=65535)
    return outdir / "manifest.txt", {
        "meas": args.meas, "mode": args.mode, **mode_flags,
        "tol": repr(args.tol), "max_iters": args.max_iters,
        "epsilon": ",".join(repr(e) for e in res.epsilon), "out": outdir,
        "iterations": res.iterations, "converged": int(res.converged),
        "objective": f"{res.objective_history[-1]:.6e}",
        "residuals": ",".join(f"{r:.6e}" for r in res.residual_history[-1]),
        "outputs": ",".join(sorted(written)),
    }


def _parse_sensor(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"--sensor must be a sensor index or 'all', got {text!r}")


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def cmd_experiment(args) -> tuple[Path, dict]:
    outdir = Path(args.out)
    run = run_measurement_increase if args.which == "fig3" else run_superres
    report = run(scene_seed=args.scene_seed, meas_seed=args.meas_seed)
    report.write(outdir)
    print(report.summary_text(), end="")
    return outdir / "manifest.txt", {
        "which": args.which, "scene_seed": args.scene_seed,
        "meas_seed": args.meas_seed, "out": outdir,
        "verdicts": ",".join(f"{v.claim}:{'pass' if v.passed else 'fail'}"
                             for v in report.verdicts),
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlci",
        description="two-sensor lensless compressive camera simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="generate a test scene and optional views")
    p.add_argument("--kind", choices=SCENE_KINDS, default="blocks")
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.add_argument("--maxval", type=int, choices=(255, 65535), default=65535)
    p.add_argument("--views", action="store_true",
                   help="also render the two sensor views")
    p.add_argument("--dx", type=float, default=3.5,
                   help="horizontal sensor separation in aperture pixels")
    p.add_argument("--f", type=float, default=100.0,
                   help="sensor plane distance behind the aperture")
    p.add_argument("--z", type=float, default=1.0e6, help="scene distance")

    p = sub.add_parser("measure", help="measure view images through the aperture")
    p.add_argument("--views", nargs="+", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)

    solver_defaults = SolverConfig()
    p = sub.add_parser("reconstruct", help="reconstruct from a measurement file")
    p.add_argument("--meas", required=True)
    p.add_argument("--mode", choices=("single", "joint", "superres"),
                   default="single")
    p.add_argument("--sensor", help="single mode: 1-based sensor index "
                   "(default 1), or 'all' for a stacked solve")
    p.add_argument("--dx", type=float, help="joint/superres (default 3.5)")
    p.add_argument("--dy", type=float, help="joint/superres (default 0)")
    p.add_argument("--sigma", type=float, help="joint/superres: weight of "
                   f"the disjoint-region TV terms (default {solver_defaults.sigma})")
    p.add_argument("--tol", type=float, default=solver_defaults.rel_tol)
    p.add_argument("--max-iters", type=int, default=solver_defaults.max_iters)
    p.add_argument("--verbose", action="store_true",
                   help="after the solve, print one line per iteration on stderr")
    p.add_argument("--out", required=True)

    p = sub.add_parser("experiment", help="run a packaged comparison")
    p.add_argument("--which", choices=("fig3", "fig4"), required=True)
    p.add_argument("--scene-seed", type=int, default=7)
    p.add_argument("--meas-seed", type=int, default=42)
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parse tree of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* is the one that runs
    command = {"scene": cmd_scene, "measure": cmd_measure,
               "reconstruct": cmd_reconstruct,
               "experiment": cmd_experiment}[args.command]
    try:
        t0 = time.perf_counter()
        path, entries = command(args)
        write_manifest(path, {"command": args.command, "version": __version__,
                              **entries,
                              "wall_time_s": f"{time.perf_counter() - t0:.3f}"})
        return 0
    except _UsageError as exc:
        print(f"mvlci: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"mvlci: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a Hadamard order too large to transform
        print(f"mvlci: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
