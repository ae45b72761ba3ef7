"""Time-to-target benchmark for mvlci.

    python3 bench/run.py --workload solve-64 --seed 0 --seconds 20 --trace 0

The package is imported from src/ of the checkout that holds this file;
without it the script exits with code 2 and prints no result.  Every
stdout line but the last is a JSON record for a reader (environment,
calibration, timing distributions); the last line is one JSON object
with keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of
a traced run.  bench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# workload -> (image size, kind of op its main loop runs)
WORKLOADS = {
    "solve-64": (64, "round"),
    "solve-256": (256, "round"),
    "acquire": (256, "acquire"),
}
# Set-up builds the round inputs for at least SETUP_SECONDS and
# SETUP_REPS builds before the timed loop, then once more at the start of
# every pass, so its samples too spread over the run.
SETUP_SECONDS = 1.0
SETUP_REPS = 5
# Every pass of the main loop also runs ops of the other kind, so every
# workload reports every end-to-end metric from samples spread over the
# whole run: a solve workload's pass is one round per round input plus
# SOLVE_PASS_ACQUIRES acquire ops; an acquire pass is ACQUIRE_PASS_OPS
# acquire ops plus one round, alternating the round input.
SOLVE_PASS_ACQUIRES = 4
ACQUIRE_PASS_OPS = 20
# Reported times are wall times scaled by R_NOMINAL / (median time of
# reference(), run after every op and set-up build).  The host's speed
# drifts by up to +-25% over tens of seconds, and the reference drifts
# with it; see README.md.  R_NOMINAL is the reference's median on the
# machine the bounds were set on, so scaled times read as seconds there.
R_NOMINAL = 0.019
# the acquire op, the same on every workload
ACQUIRE_SIZE = 256
ACQUIRE_RATE = 0.25
ACQUIRE_NOISE = 0.01
ROUND_METRICS = ("round_s", "single_s", "joint_s", "superres_s")


def bootstrap() -> bool:
    """Cap BLAS/OpenMP threads at nproc and put the checkout's src/ first
    on the path.  Must run before numpy is imported."""
    if not (ROOT / "src" / "mvlci" / "__init__.py").is_file():
        return False
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    return True


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def distribution(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n,
           "tail_pct": None, "tail": None}
    if n > 10:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = sorted(samples)[n - 11]
    return out


def make_reference():
    """A fixed kernel shaped like the solver's work that uses no mvlci
    code: a short interpreter loop and in-place butterfly passes over the
    two transform lengths the benchmark uses (65536 and 4096).  No change
    to the program can move its time."""
    import numpy as np

    base = np.linspace(0.0, 1.0, 1 << 16)

    def butterfly(x):
        n, h = x.shape[0], 1
        while h < n:
            y = x.reshape(-1, 2 * h)
            a, b = y[:, :h], y[:, h:]
            t = a - b
            a += b
            b[...] = t
            h *= 2
        x *= 1.0 / n

    def reference() -> float:
        t0 = time.perf_counter()
        acc = 0
        for k in range(40000):
            acc = (acc + k * k) & 0xFFFFFFFF
        for n, reps in ((1 << 16, 2), (1 << 12, 16)):
            x = base[:n].copy()
            for _ in range(reps):
                butterfly(x)
        return time.perf_counter() - t0

    return reference


def round_value(rounds: list[dict], metric: str) -> float:
    """Per round input, the median over its rounds; then the mean over the
    inputs, so each input weighs the same whatever its k*."""
    by_input = {}
    for op in rounds:
        by_input.setdefault(op["input"], []).append(op[metric])
    return statistics.fmean(statistics.median(v) for v in by_input.values())


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        import cases
        import mvlci.cli
        import mvlci.sensing

        self.cases, self.cli, self.sensing = cases, mvlci.cli, mvlci.sensing
        self.size, self.main_kind = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.targets = cases.TARGETS_DB[self.size]
        # The round inputs are fixed; the seed sets the order they are
        # visited in (seed 0 starts with the studies' input) and the
        # seeds of every acquire op.
        self.order = [(seed + j) % cases.ROUND_INPUTS
                      for j in range(cases.ROUND_INPUTS)]
        self.op_rng = random.Random(seed)
        self.work = OUT / f"work-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.inputs = None
        self.budgets = None
        self.setup_times: list[float] = []
        self.passes_run = 0
        self.reference = make_reference()
        self.references: list[float] = []

    # -- set-up and calibration ------------------------------------------

    def build(self):
        """Build the round inputs from scratch (one timed set-up)."""
        t0 = time.perf_counter()
        self.inputs = [self.cases.build_inputs(self.size, *self.cases.pool_seeds(i))
                       for i in range(self.cases.ROUND_INPUTS)]
        self.setup_times.append(time.perf_counter() - t0)
        self.references.append(self.reference())

    def setup(self):
        t_end = time.perf_counter() + SETUP_SECONDS
        while len(self.setup_times) < SETUP_REPS or time.perf_counter() < t_end:
            self.build()

    def calibrate(self) -> list[dict]:
        """Find k* for every (input, case); the record says what was found."""
        self.budgets = {}
        record = []
        for i, inp in enumerate(self.inputs):
            scene_seed, meas_seed = self.cases.pool_seeds(i)
            for mode in self.cases.MODES:
                t0 = time.perf_counter()
                k, found = self.cases.calibrate(inp[mode], self.targets[mode])
                entry = {"case": mode, "size": self.size, "scene_seed": scene_seed,
                         "meas_seed": meas_seed, "target_db": self.targets[mode],
                         "k_star": k, "calibrate_s": time.perf_counter() - t0}
                self.budgets[(i, mode)] = k
                if k is None:
                    entry["error"] = found
                    self.errors.append(f"calibration {mode} input {i}: {found}")
                else:
                    entry["psnr_db"] = found
                record.append(entry)
        return record

    # -- ops ----------------------------------------------------------------

    def round(self, i: int) -> dict:
        """One op: the three time-to-target solves on round input i."""
        self.attempted += 1
        op = {"input": i, "results": {}}
        ok = True
        t0 = time.perf_counter()
        for mode in self.cases.MODES:
            out = self.cases.solve(self.inputs[i][mode], self.budgets[(i, mode)])
            op[f"{mode}_s"] = out.seconds
            op["results"][mode] = (out.iterations, out.psnr)
            if out.error or out.psnr < self.targets[mode]:
                ok = False
                self.errors.append(f"{mode} input {i}: " + (
                    out.error or f"{out.psnr:.3f} dB < {self.targets[mode]} dB"))
        op["round_s"] = time.perf_counter() - t0
        self.failed += not ok
        return op

    def acquire(self, seeds: tuple[int, int], tracer=None) -> dict:
        """One op: scene -> measure -> read back, through the CLI."""
        import numpy as np

        self.attempted += 1
        scene_seed, meas_seed = seeds
        self.work.mkdir(parents=True, exist_ok=True)
        meas_out = self.work / "meas.mvm"
        t0 = time.perf_counter()
        code = self.cli.main(["scene", "--kind", "checker-text",
                              "--width", str(2 * ACQUIRE_SIZE + 14),
                              "--height", str(ACQUIRE_SIZE), "--seed", str(scene_seed),
                              "--views", "--out", str(self.work / "scene.pgm")])
        if code == 0:
            code = self.cli.main(["measure", "--views", str(self.work / "view1.pgm"),
                                  str(self.work / "view2.pgm"),
                                  "--rate", str(ACQUIRE_RATE),
                                  "--noise", str(ACQUIRE_NOISE),
                                  "--seed", str(meas_seed), "--out", str(meas_out)])
        ms, error = None, None
        if code == 0:
            try:
                ms = self.sensing.read_mvm(meas_out)
            except (ValueError, OSError) as exc:
                error = f"read_mvm: {exc}"
        elapsed = time.perf_counter() - t0

        # checks: outside the timed op, and outside any traced op
        op_id = None
        if tracer is not None:
            op_id, tracer.op = tracer.op, 0
        if code != 0:
            error = f"exit code {code}"
        elif ms is not None:
            order = ACQUIRE_SIZE * ACQUIRE_SIZE
            expected = self.sensing.select_rows(order, ACQUIRE_RATE, meas_seed)
            if ms.spec.order != order or not np.array_equal(ms.spec.rows, expected):
                error = "re-read rows differ from select_rows"
            elif (len(ms.values) != 2
                  or any(v.size != expected.size for v in ms.values)):
                error = "wrong value count"
            elif not all(np.all(np.isfinite(v)) for v in ms.values):
                error = "non-finite values"
        if tracer is not None:
            tracer.op = op_id
        if error:
            self.failed += 1
            self.errors.append(f"acquire {seeds}: {error}")
        digest = None if ms is None else hashlib.sha256(
            b"".join(v.tobytes() for v in ms.values)).hexdigest()
        return {"acquire_s": elapsed, "results": digest}

    def fresh_seeds(self) -> tuple[int, int]:
        """Scene and measurement seeds for the next acquire op."""
        return self.op_rng.randrange(1 << 31), self.op_rng.randrange(1 << 31)

    def next_pass(self, mixed: bool = True) -> list[tuple]:
        """The ops of one pass of the main loop; with `mixed`, plus the
        ops of the other kind (see SOLVE_PASS_ACQUIRES)."""
        if self.main_kind == "round":
            ops = [("round", i) for i in self.order]
            extra = SOLVE_PASS_ACQUIRES if mixed else 0
            ops += [("acquire", self.fresh_seeds()) for _ in range(extra)]
        else:
            ops = [("acquire", self.fresh_seeds()) for _ in range(ACQUIRE_PASS_OPS)]
            if mixed:
                ops.append(("round", self.order[self.passes_run % len(self.order)]))
        self.passes_run += 1
        return ops

    def run_op(self, op: tuple, tracer=None) -> dict:
        kind, arg = op
        out = self.round(arg) if kind == "round" else self.acquire(arg, tracer)
        self.references.append(self.reference())
        return out

    def passes(self, seconds: float) -> list[dict]:
        """Whole mixed passes for `seconds`, at least one."""
        ops = []
        t_end = time.perf_counter() + seconds
        while not ops or time.perf_counter() < t_end:
            self.build()
            ops += [self.run_op(op) for op in self.next_pass()]
        return ops

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(b: Bench) -> tuple[dict, dict]:
    """Untraced run: every end-to-end metric."""
    b.setup()
    calibration = b.calibrate()
    ops = b.passes(b.seconds)
    rounds = [op for op in ops if "round_s" in op]
    acquires = [op for op in ops if "acquire_s" in op]
    # the timing record holds unscaled wall times
    timings = {m: distribution([op[m] for op in rounds]) for m in ROUND_METRICS}
    timings["acquire_s"] = distribution([op["acquire_s"] for op in acquires])
    timings["setup_s"] = distribution(b.setup_times)
    timings["reference_s"] = distribution(b.references)
    scale = R_NOMINAL / timings["reference_s"]["median"]
    metrics = {m: {"value": round_value(rounds, m) * scale, "unit": "s"}
               for m in ROUND_METRICS}
    metrics["acquire_s"] = {"value": timings["acquire_s"]["median"] * scale, "unit": "s"}
    metrics["setup_s"] = {"value": timings["setup_s"]["median"] * scale, "unit": "s"}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return metrics, {"calibration": calibration, "scale": scale, "timings": timings}


def traced_run(b: Bench) -> tuple[dict, dict]:
    """Every pass run untraced and traced: per-layer metrics from the
    traced copies, trace overhead, and a check that tracing changes no
    output."""
    import cases
    from spans import Tracer, layer_metrics

    calibration = []
    if b.main_kind == "round":
        b.setup()
        calibration = b.calibrate()
    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    t_end = t0 + b.seconds
    while not plain or time.perf_counter() < t_end:
        batch = b.next_pass(mixed=False)
        # alternate which copy of a pass runs first
        for traced_copy in ((False, True) if len(plain) % 2 else (True, False)):
            if not traced_copy:
                plain += [b.run_op(op) for op in batch]
                continue
            with tracer.installed(holders=[cases]):
                for op in batch:
                    tracer.op = len(traced) + 1
                    traced.append(b.run_op(op, tracer))
            tracer.op = 0
    mismatches = sum(p["results"] != t["results"] for p, t in zip(plain, traced))
    if mismatches:
        b.errors.append(f"{mismatches} traced op(s) differ from untraced")
    if b.main_kind == "round":
        overhead = round_value(traced, "round_s") / round_value(plain, "round_s")
    else:
        overhead = (statistics.median(t["acquire_s"] for t in traced)
                    / statistics.median(p["acquire_s"] for p in plain))
    metrics = layer_metrics(tracer, traced, b.main_kind)
    metrics["trace_overhead"] = {"value": overhead - 1.0, "unit": "ratio"}
    spans = OUT / f"spans-{b.size}-{b.main_kind}-seed{b.seed}.jsonl"
    tracer.write(spans, t0)
    return metrics, {"calibration": calibration, "spans": str(spans.relative_to(ROOT)),
                     "traced_ops": len(traced), "trace_mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"bench: no mvlci package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import mvlci

    if not Path(mvlci.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported mvlci from {mvlci.__file__}, not from src/",
              file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), flush=True)
    b = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics, record = (traced_run if args.trace else timed_run)(b)
    finally:
        b.cleanup()
    for entry in record.pop("calibration"):
        print(json.dumps({"calibration": entry}))
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  errors=b.errors[:20])
    print(json.dumps(record))
    print(json.dumps({"correct": not b.errors, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
