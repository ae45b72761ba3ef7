"""Re-derive the PSNR targets in cases.TARGETS_DB.

    python3 bench/targets.py

Solves every case on every pool input with the default configuration,
SolverConfig(sigma=1.0), prints each PSNR, and per case the target: the
largest multiple of 0.5 dB at least 0.5 dB below the lowest PSNR.  Exits
1 if a derived target differs from the recorded one.  The recorded
targets come from the seed code; raising them once the solver's stop
rule is fixed is a change to the benchmark, not a side effect of a
solver change.
"""

from __future__ import annotations

import json
import math
import sys

from run import bootstrap


def main() -> int:
    if not bootstrap():
        print("targets: no mvlci package under src/", file=sys.stderr)
        return 2
    import cases

    differ = 0
    for size, recorded in cases.TARGETS_DB.items():
        lows = dict.fromkeys(cases.MODES, math.inf)
        for index in range(cases.POOL):
            scene_seed, meas_seed = cases.pool_seeds(index)
            inputs = cases.build_inputs(size, scene_seed, meas_seed)
            for mode in cases.MODES:
                out = cases.solve(inputs[mode], None)
                lows[mode] = min(lows[mode], out.psnr)
                print(json.dumps({"size": size, "case": mode, "scene_seed": scene_seed,
                                  "meas_seed": meas_seed, "psnr_db": out.psnr,
                                  "iterations": out.iterations,
                                  "converged": out.converged}), flush=True)
        for mode in cases.MODES:
            target = math.floor(2.0 * (lows[mode] - 0.5)) / 2.0
            differ += target != recorded[mode]
            print(json.dumps({"size": size, "case": mode, "lowest_db": lows[mode],
                              "target_db": target, "recorded_db": recorded[mode]}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
