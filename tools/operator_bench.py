"""Time the shift and sampling operators' products, forward and transposed.

For the tree on PYTHONPATH, prints one JSON object: per operator (U, S(0)
and S(dx) at the studies' far-field shift, on 64x64 and 256x256 grids,
and Udy.64, a 64x64 shift by (2.5, -1.25) that, moving rows, has only
the 2-D path every `--dy` joint solve runs) and side (`forward`,
`transpose`), the minimum over `--repeats` repeats of the mean time of
one `op.apply(v, out)` into a kept output, in microseconds.  Only
`apply` is timed: every tree whose shift and sampling operators are
`Stencil`s has it, so two such checkouts compare like for like (a tree
with CSR operators cannot be timed):

    PYTHONPATH=<checkout>/src python tools/operator_bench.py
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from mvlci.geometry import build_sampling, build_shift
from mvlci.scene import CameraGeometry, parallax_shift


def operators(size: int) -> dict:
    geo = CameraGeometry(aperture_width=64, aperture_height=64,
                         sensor_offsets=[(0.0, 0.0), (3.5, 0.0)],
                         sensor_plane_distance=1.0, scene_distance=1.0e7)
    dx, _ = parallax_shift(geo, 2)
    ops = {f"U.{size}": build_shift(dx, 0.0, size, size).matrix,
           f"S0.{size}": build_sampling(0.0, size, size),
           f"Sdx.{size}": build_sampling(dx, size, size)}
    if size == 64:
        ops["Udy.64"] = build_shift(2.5, -1.25, 64, 64).matrix
    return ops


def timings(repeats: int) -> dict:
    """{operator: {side: apply_us}}."""
    out = {}
    for size in (64, 256):
        number = 400 if size == 64 else 40
        for name, op in operators(size).items():
            out[name] = {}
            for side, m in (("forward", op), ("transpose", op.T)):
                v = np.random.default_rng(m.shape[1]).standard_normal(m.shape[1])
                dst = np.empty(m.shape[0])
                out[name][side] = min(timeit.repeat(
                    lambda: m.apply(v, dst), number=number,
                    repeat=repeats)) / number * 1e6
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    print(json.dumps(timings(parser.parse_args().repeats)))
