"""Repository tooling: ``tools/src_lines.py``, the source-line count the
ROADMAP tracks, ``tools/step_peaks.py``, its step-peak table, and the
benchmark's smoke run, which reaches names of the
package (``guided_epoch(update_aux=...)``, ``memory.estimate``'s positional
arguments, ``training.Schedule``, the traced ``DecoupledModel`` and
``NesterovSGD`` methods) that no other test calls the way it does."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)
_spec = importlib.util.spec_from_file_location("step_peaks", ROOT / "tools" / "step_peaks.py")
step_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_peaks)

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


def test_step_peaks_prints_the_table_row_by_row(capsys):
    # ResNet-8 on 8x8 images: the ROADMAP table's columns, one row per DEPTH:J
    assert step_peaks.main(["8:2", "8:3", "--batch", "16", "--hw", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| net | J | local | guided | checkpointed `bp` | `bp` (J=1) |")
    assert len(lines) == 4
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert [row[:2] for row in rows] == [["ResNet-8", "2"], ["ResNet-8", "3"]]
    for row in rows:
        local, guided, checkpointed, bp, measured, memest = (float(cell) for cell in row[2:])
        assert min(local, guided, checkpointed, bp) > 0 and 0 < memest < 1
        assert checkpointed <= guided                   # the same step without its heads
        assert abs(measured - local / bp) <= 0.02       # of the unrounded peaks
    assert rows[0][5] == rows[1][5]          # one J=1 step per depth


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
def test_benchmark_smoke_run_passes(tmp_path, trace):
    # a copy, so the run's outputs stay out of the checkout
    for part in ("benchmarks", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "all", "--smoke",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == 2, proc.stdout
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
