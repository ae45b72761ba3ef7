"""Span tracing of the package from outside it, and the per-layer metrics.

Every public function of the traced modules is replaced, wherever a loaded
module holds a reference to it, by a wrapper that records a span: name,
start, end, parent span, op id and an amount of work (file bytes for the
I/O functions, computed adds for the FWHT).  Spans stay in memory and are
written out once, at the end of the run.  Nothing under src/ changes.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

TRACED_MODULES = ("sensing", "solver", "geometry", "scene", "rng", "pgm", "cli")

# span fields
NAME, START, END, PARENT, OP, AMOUNT = range(6)


def _fwht_adds(args, kwargs):
    n = len(args[0]) if args else len(kwargs["x"])
    return n * int(math.log2(n))


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


AMOUNTS = {
    "sensing.fwht": _fwht_adds,
    "sensing.read_mvm": _file_bytes,
    "sensing.write_mvm": _file_bytes,
    "pgm.read_pgm": _file_bytes,
    "pgm.write_pgm": _file_bytes,
}


class Tracer:
    """Collects spans; `op` is stamped on each span (0 = outside any op)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, amount = self.spans, self._stack, AMOUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if amount is not None:
                rec[AMOUNT] = amount(args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self, holders=()):
        """Patch every reference to a traced function, then restore them.

        References are looked up in the mvlci modules and in `holders`
        (the benchmark's own modules), e.g. both mvlci.sensing.fwht and
        mvlci.cli.select_rows.
        """
        wrappers = {}   # id(function) -> wrapper; the modules keep the functions alive
        for short in TRACED_MODULES:
            module = sys.modules[f"mvlci.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        modules = [m for n, m in sys.modules.items()
                   if n == "mvlci" or n.startswith("mvlci.")] + list(holders)
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: Path, origin: float) -> None:
        """One JSON object per span, times in seconds since `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT], "op": s[OP],
                    "amount": s[AMOUNT]}) + "\n")


MODES = ("single", "joint", "superres")
# per-layer metric -> the traced functions it sums over
GROUPS = {
    "sensing.fwht": ("sensing.fwht",),
    "sensing.select_rows": ("sensing.select_rows",),
    "sensing.measure": ("sensing.measure", "sensing.measure_adjoint"),
    "sensing.add_noise": ("sensing.add_noise",),
    "sensing.mvm_io": ("sensing.read_mvm", "sensing.write_mvm"),
    "solver.tv": ("solver.tv_grad", "solver.tv_grad_adjoint", "solver.tv_shrink"),
    "solver": tuple(f"solver.reconstruct_{m}" for m in MODES),
    "geometry.build_shift": ("geometry.build_shift",),
    "scene.render": ("scene.make_test_scene", "scene.render_view",
                     "scene.parallax_shift"),
    "pgm.io": ("pgm.read_pgm", "pgm.write_pgm"),
    "rng.normal_stream": ("rng.normal_stream", "rng.u64_stream"),
}


def layer_metrics(tracer: Tracer, ops: list[dict], kind: str) -> dict:
    """Per-layer metrics over the traced ops, each per op (times in s/op).

    Shares are of the traced ops' wall time.  Spans outside an op (op id
    0, e.g. the output checks) are left out.
    """
    n = len(ops)
    wall = sum(op["round_s" if kind == "round" else "acquire_s"] for op in ops)
    own = tracer.self_times()
    calls, self_s, total_s, amount = {}, {}, {}, {}
    solve_of = [None] * len(tracer.spans)   # enclosing reconstruct_* mode
    fwht_in = dict.fromkeys(MODES, 0)
    cli_self = 0.0
    for i, s in enumerate(tracer.spans):
        name = s[NAME]
        if name.startswith("solver.reconstruct_"):
            solve_of[i] = name[len("solver.reconstruct_"):]
        elif s[PARENT] >= 0:
            solve_of[i] = solve_of[s[PARENT]]
        if s[OP] == 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + s[END] - s[START]
        amount[name] = amount.get(name, 0) + s[AMOUNT]
        if name.startswith("cli."):
            cli_self += own[i]
        if name == "sensing.fwht" and solve_of[i] is not None:
            fwht_in[solve_of[i]] += 1

    def group(table, key):
        return sum(table.get(name, 0) for name in GROUPS[key])

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    out = {}
    fwht_s = group(self_s, "sensing.fwht")
    put("sensing.fwht.calls", group(calls, "sensing.fwht") / n, "count/op")
    put("sensing.fwht.self_s", fwht_s / n, "s/op")
    put("sensing.fwht.share", fwht_s / wall, "ratio")
    # computed, not counted: N log2 N adds per length-N transform
    put("sensing.fwht.gops",
        group(amount, "sensing.fwht") / fwht_s / 1e9 if fwht_s else 0.0, "Gadd/s")
    for key in ("sensing.select_rows", "sensing.measure", "sensing.add_noise",
                "sensing.mvm_io"):
        put(f"{key}.self_s", group(self_s, key) / n, "s/op")
    put("sensing.mvm_io.bytes", group(amount, "sensing.mvm_io") / n, "B/op")

    iters = dict.fromkeys(MODES, 0)
    solves = dict.fromkeys(MODES, 0)
    for op in ops if kind == "round" else ():
        for mode, (k, _) in op["results"].items():
            iters[mode] += k
            solves[mode] += 1
    for mode in MODES:
        put(f"solver.iters.{mode}", iters[mode] / solves[mode] if solves[mode] else 0.0,
            "count")
        put(f"solver.fwht_per_iter.{mode}",
            fwht_in[mode] / iters[mode] if iters[mode] else 0.0, "count")
    put("solver.estimate_norm_sq.total_s",
        total_s.get("solver.estimate_norm_sq", 0.0) / n, "s/op")
    put("solver.tv.calls", group(calls, "solver.tv") / n, "count/op")
    put("solver.tv.self_s", group(self_s, "solver.tv") / n, "s/op")
    solver_s = group(self_s, "solver")
    put("solver.self_s", solver_s / n, "s/op")
    put("solver.self_share", solver_s / wall, "ratio")
    for key in ("geometry.build_shift", "scene.render", "pgm.io",
                "rng.normal_stream"):
        put(f"{key}.self_s", group(self_s, key) / n, "s/op")
    put("pgm.io.bytes", group(amount, "pgm.io") / n, "B/op")
    put("cli.self_s", cli_self / n, "s/op")
    return out
