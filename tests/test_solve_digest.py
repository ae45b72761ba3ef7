"""The bit-identity digest script still runs against the package.

`tools/solve_digest.py` with no flags takes 10-20 s; this runs its
reduced 16x16 set twice in one process.
"""

import re
import sys
import time
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import solve_digest


def test_reduced_digest_is_stable_and_quick():
    t0 = time.perf_counter()
    sections = dict(solve_digest.sections(reduced=True))
    second = solve_digest.digest(reduced=True)
    assert time.perf_counter() - t0 < 2.0
    assert re.fullmatch(r"[0-9a-f]{64}", sections["total"])
    assert sections["total"] == second
    # each section of solves hashes its own radii, so adding a solve to one
    # section moves no other section
    assert "epsilon" not in sections
    assert {"epsilon.16.single", "epsilon.16.joint", "epsilon.16.superres",
            "epsilon.stacked"} <= set(sections)
    # the front end (row selection and view rendering) is covered too
    assert {"rows", "views"} <= set(sections)
