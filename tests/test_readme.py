"""The README's library examples run as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    """Every python block of "Library use" runs, in order in one namespace,
    and prints its solve's iteration count and a mean error under 0.1."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for code in blocks:
        exec(compile(code, f"{README}:Library use", "exec"), namespace)
        iterations, error = capsys.readouterr().out.split()
        assert int(iterations) >= 1 and float(error) < 0.1
