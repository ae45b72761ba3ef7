"""The benchmark's solve cases, span tracer and timed run still work
against the package.

The traced-solve tests drive the benchmark's pieces on one 64x64 input
with a two-iteration budget; the timed-run test runs `bench/run.py`'s
untraced path in process on `solve-64` with no timed seconds, a
one-build set-up and one-iteration budgets.
"""

import importlib.util
import json
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
    for name in ("sensing.fwht", "solver.tv_grad", f"solver.reconstruct_{mode}"):
        assert name in names


def load_run():
    """bench/run.py as a module (its own name, `run`, is too generic)."""
    spec = importlib.util.spec_from_file_location("bench_run", Path(BENCH) / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_run_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    """run.py's untraced path on solve-64: one set-up build, the k*
    calibration and one mixed pass (two rounds, four acquire ops).  The
    PSNR targets are lowered to 0 dB, which every clamped output meets, so
    k* is 1 and the whole run takes about a second instead of ten."""
    run = load_run()
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(cases.TARGETS_DB, 64, dict.fromkeys(cases.MODES, 0.0))
    b = run.Bench("solve-64", 0, 0.0)
    try:
        metrics, record = run.timed_run(b)
    finally:
        b.cleanup()
    assert [c["k_star"] for c in record["calibration"]] == [1] * 6
    assert b.errors == []          # the record's "correct"
    assert b.failed == 0
    assert b.attempted == 2 + run.SOLVE_PASS_ACQUIRES
    declared = json.loads((Path(BENCH).parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["end_to_end"]}
    assert len(names) == 7
    assert set(metrics) == names
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
