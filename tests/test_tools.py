"""``tools/canonical_outputs.py --compare``: the change it reports per file
and column, and what makes it fail."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "canonical_outputs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("canonical_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dirs(tmp_path, old_files, new_files):
    dirs = []
    for name, files in (("old", old_files), ("new", new_files)):
        directory = tmp_path / name
        directory.mkdir()
        for file_name, text in files.items():
            (directory / file_name).write_text(text, encoding="utf-8")
        dirs.append(str(directory))
    return dirs


def test_changes_within_tolerance_pass(tmp_path, tool, capsys):
    rows = [{"t": 0.0, "norm": 1.0}, {"t": 1.0, "norm": 1.0}]
    moved = [{"t": 0.0, "norm": 1.0}, {"t": 1.0, "norm": 1.0 + 2e-9}]
    old, new = _dirs(
        tmp_path,
        {"a.csv": "tau,fidelity,p\n1,0.5,nan\n300,0.9,1e-30\n",
         "b.json": json.dumps(rows)},
        {"a.csv": ("tau,fidelity,p\n1,0.5000000001,nan\n"
                   "300.0000015,0.9,3e-30\n"),
         "b.json": json.dumps(moved)})
    assert tool.compare(old, new) == []
    out = capsys.readouterr().out.splitlines()
    # relative above 1, absolute below it; a NaN in both is no change
    assert "a.csv: tau: 5e-09 (row 1)" in out
    assert "a.csv: fidelity: 1e-10 (row 0)" in out
    assert "a.csv: p: 2e-30 (row 1)" in out
    assert "b.json: norm: 2e-09 (row 1)" in out


def test_each_fault_is_reported(tmp_path, tool):
    old, new = _dirs(
        tmp_path,
        {"a.csv": "tau,fidelity\n1,0.5\n2,0.6\n", "b.csv": "x\n1\n2\n",
         "c.csv": "x\n1\n", "d.csv": "x\n1\n"},
        {"a.csv": "tau,fidelity\n1,0.50000002\n2,nan\n", "b.csv": "x\n1\n",
         "c.csv": "x\n1\n", "e.csv": "x\n1\n"})
    problems = tool.compare(old, new)
    assert problems == [
        f"d.csv: only in {old}",
        f"e.csv: only in {new}",
        "a.csv: fidelity row 1 is NaN, was 0.6",
        "a.csv: fidelity changed by inf at row 1",
        "b.csv: 2 rows, now 1",
    ]


def test_summary_line_names_the_largest_change(tmp_path, tool, capsys):
    old, new = _dirs(
        tmp_path,
        {"a.csv": "tau,fidelity\n1,0.5\n300,0.9\n", "b.csv": "x\n1\n2\n",
         "c.csv": "x\n0.25\n", "d.csv": "x\n1\n"},
        {"a.csv": "tau,fidelity\n1,0.5000000001\n300.0000015,0.9\n",
         "b.csv": "x\n1\n2.000000003\n", "c.csv": "x\n0.250\n",
         "d.csv": "x\n1\n2\n"})
    problems = tool.compare(old, new)
    assert problems == ["d.csv: 1 rows, now 2"]
    out = capsys.readouterr().out.splitlines()
    # one line, last: the largest change over every file and column, and
    # the files whose every value is unchanged (c.csv: same value, other
    # text; d.csv, with a row more, is not)
    assert out[-1] == ("largest change 5e-09 (a.csv, tau, row 1); "
                       "1 of 4 files unchanged")


def test_summary_line_without_a_change(tmp_path, tool, capsys):
    old, new = _dirs(tmp_path, {"a.csv": "x\n1\n"}, {"a.csv": "x\n1\n"})
    assert tool.compare(old, new) == []
    assert capsys.readouterr().out.splitlines()[-1] == (
        "largest change 0; 1 of 1 files unchanged")
