"""The four demos run to the end, in-process, writing their SVGs to a temporary directory."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out
