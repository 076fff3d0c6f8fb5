"""tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as its code line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self,
          y):
        """Function docstring."""

        return (y
                + 1)
'''


def test_counts_code_lines_outside_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, class, the two lines of x, the two of def f, the two of return
    assert code_lines.code_lines(path) == 8
