"""tools/src_lines.py: the source-line count the ROADMAP tracks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        over two lines."""
        return (x +
                os.sep)


TEXT = """a string value
over two lines"""
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    total, code = src_lines.count(SOURCE)
    # import, class, def, the two-line return, the two-line assignment
    assert code == 7
    assert total == SOURCE.count("\n") == 20


def test_main_sums_every_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("22 lines, 8 code lines")
