"""The tools: ``tools/canonical_outputs.py``, its command line and the
change ``--compare`` reports per file and column, and what makes it fail;
``tools/coverage.py``, the statements it counts as run."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _load("canonical_outputs")


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_the_usage(tool, capsys, flag):
    assert tool.run([flag]) == 0
    assert capsys.readouterr().out.startswith(
        "Usage: python tools/canonical_outputs.py OUTDIR")


@pytest.mark.parametrize("argv", [["--out"], ["-x"], ["a", "b"], [],
                                  ["--compare", "a"]])
def test_bad_arguments_exit_2_before_writing(tool, tmp_path, monkeypatch,
                                             capsys, argv):
    # --help ran all the configs into a directory named --help
    def write_outputs(outdir):
        raise AssertionError("configs ran")

    monkeypatch.setattr(tool, "write_outputs", write_outputs)
    monkeypatch.chdir(tmp_path)
    assert tool.run(argv) == 2
    assert capsys.readouterr().err.startswith("Usage:")
    assert not os.listdir(tmp_path)


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


def _git_head():
    return subprocess.run(["git", "rev-parse", "HEAD"],
                          cwd=os.path.join(_TOOLS, os.pardir),
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not _git_head(), reason="needs a git checkout")
def test_against_head_is_byte_identical(tmp_path, tool, capsys):
    # HEAD's src and this checkout's, each in a fresh interpreter
    assert tool.against("HEAD", str(tmp_path), ["evolve"]) == []
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 of 1 files byte-identical")
    assert ((tmp_path / "old" / "evolve.csv").read_bytes()
            == (tmp_path / "new" / "evolve.csv").read_bytes())


@pytest.mark.skipif(not _git_head(), reason="needs a git checkout")
def test_against_reports_a_byte_difference(tmp_path, tool, monkeypatch,
                                           capsys):
    # one value, unchanged for --compare, written with other digits
    def write_with(src, outdir, names):
        os.makedirs(outdir)
        with open(os.path.join(outdir, "a.csv"), "w") as fh:
            fh.write("x\n0.5\n" if outdir.endswith("old") else "x\n0.50\n")
        return []

    monkeypatch.setattr(tool, "_write_with", write_with)
    problems = tool.against("HEAD", str(tmp_path))
    assert problems == ["not byte-identical: a.csv"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 of 1 files byte-identical")


def test_against_an_unknown_revision_exits_2_before_writing(tmp_path, tool,
                                                            capsys):
    assert tool.run(["--against", "no-such-revision", str(tmp_path)]) == 2
    assert "git archive no-such-revision" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


_TRACED = textwrap.dedent("""\
    \"\"\"A module.\"\"\"
    import functools


    def f(x):
        \"\"\"Doc.\"\"\"
        if x > 0:
            return -x
        try:
            y = (x
                 + 1)
        except TypeError:
            raise
        return y


    @functools.lru_cache(
        maxsize=None)
    def g():
        global _G
        pass
    """)


def test_coverage_counts_statements_by_their_own_lines(tmp_path):
    coverage = _load("coverage")
    path = tmp_path / "traced.py"
    path.write_text(_TRACED, encoding="utf-8")
    with coverage.LineTracer(tmp_path) as tracer:
        spec = importlib.util.spec_from_file_location("traced", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.f(2.0)
    hits = tracer.hits[os.path.realpath(path)]
    # no docstring and no global is a statement: 11 are; f's branch that
    # returns ran, the try and the body of g did not
    assert coverage.unexecuted(str(path), hits) == (11, [9, 10, 12, 13, 14,
                                                         21])
    assert coverage._ranges([9, 10, 12, 13, 14, 21]) == "9-10, 12-14, 21"


def test_coverage_reports_every_package_file(tmp_path):
    # a pytest run of one test, traced: a line per file of src/cdgate, then
    # the total, and pytest's exit code
    result = subprocess.run(
        [sys.executable, os.path.join(_TOOLS, "coverage.py"),
         "tests/test_tools.py::test_summary_line_without_a_change", "-q",
         "-p", "no:cacheprovider"],
        cwd=os.path.join(_TOOLS, os.pardir), capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "model.py: " in "\n".join(lines)
    assert lines[-1].startswith("total: ")
