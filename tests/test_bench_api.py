"""The benchmark's solve cases and span tracer still run against the package.

A full `bench/run.py --seconds 0` takes several seconds; this drives the
same pieces on one 64x64 input with a two-iteration budget.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import mvlci.cli  # Tracer.installed looks up every traced module
import cases
from spans import NAME, Tracer


@pytest.fixture(scope="module")
def inputs():
    return cases.build_inputs(64, *cases.pool_seeds(0))


@pytest.mark.parametrize("mode", cases.MODES)
def test_traced_bench_solve_runs(inputs, mode):
    tracer = Tracer()
    with tracer.installed(holders=[cases]):
        out = cases.solve(inputs[mode], 2)
    assert out.error is None
    assert out.iterations == 2
    assert math.isfinite(out.psnr)
    names = {span[NAME] for span in tracer.spans}
    for name in ("solver.estimate_norm_sq", "sensing.fwht", "solver.tv_grad",
                 f"solver.reconstruct_{mode}"):
        assert name in names
