"""The line counter in tools/code_lines.py."""

import sys
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import code_lines

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves its line a code line

# a comment line


class Box:
    """A class docstring."""

    def area(self,
             scale):
        """A function docstring
        over two lines."""
        sides = [self.w,
                 self.h]
        "a string statement that is no docstring"
        return math.prod(sides) * scale
'''

# import, class, the two lines of def, the two of sides, the string
# statement and return
SNIPPET_CODE_LINES = 8


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    assert code_lines.count(SNIPPET) == (len(SNIPPET.splitlines()), SNIPPET_CODE_LINES)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    physical = len(SNIPPET.splitlines())
    assert rows == [["a.py", str(physical), str(SNIPPET_CODE_LINES)],
                    ["b.py", "3", "1"],
                    ["total", str(physical + 3), str(SNIPPET_CODE_LINES + 1)]]
