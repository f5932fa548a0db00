import argparse
import contextlib
import inspect
import io
import json
import math
import os
import pathlib
import runpy
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgate import cli
from cdgate.cli import (RunConfig, emit_csv, emit_json, main, parse_axis,
                        parse_config)
from cdgate.dynamics import EvolutionConfig
from cdgate.experiments import GateCheckReport, find_optimal_tau
from cdgate.model import CnotParams, analytic_spectrum, linear_ramp


class TestParseAxis:
    def test_log_range(self):
        axis = parse_axis("1:200:60log")
        assert axis.size == 60
        assert abs(axis[0] - 1.0) < 1e-12 and abs(axis[-1] - 200.0) < 1e-10
        ratios = axis[1:] / axis[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_linear_range(self):
        assert np.allclose(parse_axis("0:1:5"), [0, 0.25, 0.5, 0.75, 1.0])

    def test_comma_list_and_scalar(self):
        assert np.allclose(parse_axis("0.5,1,7.3"), [0.5, 1.0, 7.3])
        assert np.allclose(parse_axis("42"), [42.0])

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_axis("1:2")
        with pytest.raises(ValueError):
            parse_axis("0:10:5log")  # log range with zero endpoint
        with pytest.raises(ValueError):
            parse_axis("1:10:0")

    @pytest.mark.parametrize("spec", ["nan,1", "inf", "-inf", "1:nan:3",
                                      "1:inf:4log", ","])
    def test_rejects_non_finite_or_empty(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_axis(spec)


class TestParseConfig:
    def test_sweep_tau_flags(self):
        rc = parse_config(["sweep-tau", "--tau", "1:200:60log", "--cd"])
        assert rc.command == "sweep-tau"
        assert rc.cd is True
        assert parse_axis(rc.tau).size == 60

    def test_default_parameter_set(self):
        rc = parse_config(["sweep-tau"])
        assert rc.params() == CnotParams(j1=1.0, g=0.5, j2_amp=10.0)
        assert rc.tau == "1:200:60log"

    def test_missing_alpha_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep-noise"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_config_file_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"g": 0.3, "cd": True}))
        rc = parse_config(["sweep-tau", "--config", str(cfg), "--g", "0.5"])
        assert rc.g == 0.5  # flag wins
        assert rc.cd is True  # file value survives

    def test_config_file_alone(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"g": 0.3}))
        rc = parse_config(["sweep-tau", "--config", str(cfg)])
        assert rc.g == 0.3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gg": 0.3}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep-tau", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "gg" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "phase_offset", "seed",
                                     "workers", "samples"])
    @pytest.mark.parametrize("value", [3.7, 3.0])
    def test_non_integer_config_number_exits_2(self, key, value, tmp_path,
                                               capsys):
        # argparse rejects --n 3.0 as well; a file value is not truncated
        argv = {"n": ["nqubit"], "phase_offset": ["gate-check"]}.get(
            key, ["spectrum"])
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["--config", str(cfg),
                            "--output", str(out / "r")]) == 2
        assert key in capsys.readouterr().err
        assert not os.listdir(out)
        cfg.write_text(json.dumps({key: 3}))
        assert getattr(parse_config(argv + ["--config", str(cfg)]), key) == 3

    def test_invalid_params_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep-tau", "--g", "-1"])
        assert exc.value.code == 2

    def test_nqubit_requires_valid_n(self):
        with pytest.raises(SystemExit):
            parse_config(["nqubit"])
        with pytest.raises(SystemExit):
            parse_config(["nqubit", "--n", "9"])

    def test_threshold_validation(self):
        with pytest.raises(SystemExit):
            parse_config(["tradeoff", "--threshold", "0.3"])

    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "nan,1"],
        ["sweep-tau", "--tau", "inf"],
        ["heatmap", "--alpha", "nan", "--tau", "1,2"],
        ["sweep-noise", "--alpha", "0.04", "--tau", "1,inf"],
        ["sweep-tau", "--tau", "1", "--g", "nan"],
        ["sweep-tau", "--tau", "1", "--j2", "inf"],
    ])
    def test_non_finite_input_exits_2(self, argv, tmp_path, capsys):
        assert main(argv + ["--output", str(tmp_path / "r")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, problem", [
        (["evolve", "--tau", "1", "--g", "1e-300"], "g^2 underflows"),
        (["evolve", "--tau", "1", "--g", "1e-160"], "g^2 underflows"),
        (["sweep-tau", "--tau", "1", "--j2", "1e160"], "j2_amp^2 overflows"),
        (["evolve", "--tau", "10", "--alpha", "1e308"], "2 alpha finite"),
        (["heatmap", "--alpha", "0:1e308:2", "--tau", "1,2"],
         "2 alpha finite"),
        (["optimal-tau", "--alpha", "1e308"], "2 alpha finite"),
        (["evolve", "--tau", "1", "--j1", "1e308"], "10 j1 overflows"),
        (["sweep-tau", "--tau", "1:2:2", "--j1", "1e308"], "10 j1 overflows"),
        (["spectrum", "--tau", "1e-308", "--samples", "3"], "rate 10.0 / tau"),
        (["heatmap", "--alpha", "0", "--tau", "1e-308"], "rate 10.0 / tau"),
        (["sweep-tau", "--tau", "1e-308,1"], "rate 10.0 / tau"),
        (["evolve", "--tau", "1e-308"], "rate 10.0 / tau"),
        (["gate-check", "--tau", "1e-308"], "rate 3.141592653589793 / tau"),
        (["optimal-tau", "--alpha", "0.1", "--tau-window", "1e-308:2"],
         "rate 10.0 / tau"),
        (["spectrum", "--g", "1e300"], "g^2 + j2_amp^2 overflows"),
        (["gate-check", "--tau", "1", "--phase-offset", "1" + "0" * 400],
         "the phase offset 2 pi n is not finite"),
        (["evolve", "--tau", "1", "--rel-tol", "1e-300", "--abs-tol",
          "1e-300"], "with abs_tol >= 1e-150"),
    ], ids=["g-1e-300", "g-1e-160", "j2", "evolve-alpha", "heatmap-alpha",
            "optimal-tau-alpha", "evolve-j1", "sweep-tau-j1", "spectrum-tau",
            "heatmap-tau", "sweep-tau-tau", "evolve-tau", "gate-check-tau",
            "optimal-tau-window", "g-1e300", "phase-offset", "abs-tol"])
    def test_unrepresentable_input_exits_2(self, argv, problem, tmp_path,
                                           capsys):
        # each ran before: a tiny g wrote NaN rows or a start vector whose
        # norm is off, and exited 0; a huge J2, alpha or j1 overflowed
        # mid-run; a tau whose ramp rate overflows wrote inf and NaN rows,
        # aborted a heatmap or failed with a misleading step underflow; a
        # huge g wrote inf rows with exit 0, a 401-digit phase offset ended
        # in an OverflowError traceback, and tiny tolerances overflowed the
        # error norm with warnings
        assert main(argv + ["--output", str(tmp_path / "r")]) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "20,1"],
        ["sweep-tau", "--tau", "20:1:5log"],
        ["nqubit", "--n", "3", "--tau", "5,0.5"],
        ["sweep-noise", "--alpha", "0.04", "--tau", "1,2,1.5"],
        ["sweep-noise", "--alpha", "0.1,0.04", "--tau", "1"],
        ["heatmap", "--alpha", "0.1,0", "--tau", "1"],
        ["tradeoff", "--alpha", "0.2,0.02", "--tau", "1,5"],
    ], ids=["sweep-tau", "sweep-tau-range", "nqubit", "sweep-noise-tau",
            "sweep-noise-alpha", "heatmap", "tradeoff"])
    def test_descending_grid_axis_exits_2(self, argv, tmp_path, capsys):
        assert main(argv + ["--output", str(tmp_path / "r")]) == 2
        assert "must be ascending" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, file_values, problem", [
        (["evolve", "--tau", "-3"], None, "--tau must be positive"),
        (["spectrum", "--tau", "0"], None, "--tau must be positive"),
        (["sweep-tau", "--tau=-1,2"], None, "--tau must be positive"),
        (["heatmap", "--alpha=-0.1,0.1", "--tau", "1,2"], None,
         "--alpha must be non-negative"),
        (["evolve", "--tau", "5", "--alpha=-0.1"], None,
         "--alpha must be non-negative"),
        (["gate-check", "--tau=0.5,-1"], None, "--tau must be positive"),
        (["optimal-tau", "--alpha", "0"], None, "--alpha must be positive"),
        (["nqubit", "--n", "3"], {"tau": "0:5:3"}, "--tau must be positive"),
        (["tradeoff"], {"alpha": "-0.2,0.1"}, "--alpha must be non-negative"),
        (["optimal-tau"], {"alpha": "0.04,0"}, "--alpha must be positive"),
    ], ids=["evolve-tau", "spectrum-tau", "sweep-tau", "heatmap-alpha",
            "evolve-alpha", "gate-check", "optimal-tau-alpha", "file-tau",
            "file-alpha", "file-optimal-tau-alpha"])
    def test_out_of_range_axis_exits_2(self, argv, file_values, problem,
                                       tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        if file_values is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(file_values))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--output", str(out / "r")]) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(out)

    # 1e13 values ask numpy for 72.8 TiB, which it refuses at once
    @pytest.mark.parametrize("argv, file_values", [
        (["sweep-tau", "--tau", "1:2:10000000000000"], None),
        (["heatmap", "--alpha", "0.01:0.1:10000000000000log"], None),
        (["nqubit", "--n", "3"], {"tau": "1:2:10000000000000"}),
    ], ids=["tau", "alpha-log", "file-tau"])
    def test_unallocatable_axis_exits_2(self, argv, file_values, tmp_path,
                                        capsys):
        out = tmp_path / "out"
        out.mkdir()
        if file_values is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(file_values))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--output", str(out / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("cdgate: error: Unable to allocate 72.8 TiB")
        assert "Traceback" not in "\n".join(err)
        assert not os.listdir(out)

    @pytest.mark.parametrize("argv", [
        ["evolve", "--tau", "5,10", "--samples", "3"],
        ["evolve", "--alpha", "0.1,0.2"],
        ["evolve", "--tau", "1:10:3log"],
        ["spectrum", "--tau", "1,2"],
    ], ids=["evolve-tau", "evolve-alpha", "evolve-tau-range", "spectrum"])
    def test_single_run_takes_one_value(self, argv, tmp_path, capsys):
        assert main(argv + ["--output", str(tmp_path / "r")]) == 2
        assert "takes one value" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_one_value_range_is_one_value(self):
        assert parse_config(["spectrum", "--tau", "5:9:1"]).tau == "5:9:1"
        rc = parse_config(["evolve", "--tau", "5", "--alpha", "0"])
        assert (rc.tau, rc.alpha) == ("5", "0")

    def test_descending_axis_outside_a_grid_is_accepted(self, tmp_path):
        rc = parse_config(["gate-check", "--tau", "7.3,1"])
        assert list(parse_axis(rc.tau)) == [7.3, 1.0]
        rc = parse_config(["optimal-tau", "--alpha", "0.1,0.04"])
        assert list(parse_axis(rc.alpha)) == [0.1, 0.04]
        # an axis the command does not take is not checked
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": "0.1,0"}))
        assert parse_config(["sweep-tau", "--config", str(cfg)]).alpha == "0.1,0"

    @pytest.mark.parametrize("flags, file_values", [
        (["--rel-tol", "nan"], None),
        (["--abs-tol", "0"], None),
        (["--rel-tol", "-1"], None),
        ([], {"abs_tol": -1e-12}),
        ([], {"rel_tol": float("inf")}),
    ], ids=["flag-rel-nan", "flag-abs-zero", "flag-rel-negative",
            "file-abs-negative", "file-rel-inf"])
    def test_bad_tolerance_exits_2(self, flags, file_values, tmp_path,
                                   capsys):
        if file_values is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(file_values))
            flags = ["--config", str(cfg)]
        out = tmp_path / "out"
        out.mkdir()
        code = main(["sweep-tau", "--tau", "1", *flags,
                     "--output", str(out / "r")])
        assert code == 2
        assert "tolerances must be positive and finite" in capsys.readouterr().err
        assert not os.listdir(out)

    @pytest.mark.parametrize("window", ["5", "-1:5", "5:2", "3:3", "0:5",
                                        "1:inf", "nan:5", "1:2:3"])
    def test_bad_tau_window_exits_2(self, window, tmp_path, capsys):
        code = main(["optimal-tau", "--alpha", "0.04",
                     f"--tau-window={window}",
                     "--output", str(tmp_path / "r")])
        assert code == 2
        assert "--tau-window" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("text, problem", [
        (None, "cannot read config file"),
        ("{not json", "cannot read config file"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"cd": 1}', "config key 'cd' must be of type bool"),
        ('{"g": true}', "config key 'g' must be of type float"),
        ('{"command": "heatmap"}', "config file is for 'heatmap'"),
        ('{"g": "abc"}', "config key 'g' has an invalid value"),
        ('{"g": [1]}', "config key 'g' has an invalid value"),
        ('{"g": 1' + "0" * 400 + "}", "config key 'g' has an invalid value"),
    ], ids=["missing", "not-json", "not-object", "bool-key", "bool-number",
            "other-command", "not-a-number", "list", "int-too-large"])
    def test_bad_config_file_exits_2(self, text, problem, tmp_path, capsys):
        # a 401-digit integer for a float key raised OverflowError, a
        # traceback
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep-tau", "--config", str(cfg),
                     "--output", str(out / "r")]) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(out)

    @pytest.mark.parametrize("argv, problem", [
        (["spectrum", "--format", "xml"], "unsupported format 'xml'"),
        (["spectrum", "--samples", "1"],
         "--samples: sample_count must be at least 2"),
        (["nqubit", "--n", "9"], "--n: supported qubit counts are 2..6, got 9"),
        (["tradeoff", "--threshold", "0.3"],
         "--threshold: threshold must lie in (0.5, 1), got 0.3"),
        (["optimal-tau", "--alpha", "0.04", "--tau-window", "5:2"],
         "--tau-window: tau_window needs 0 < lo < hi, got (5.0, 2.0)"),
    ], ids=["format", "samples", "n", "threshold", "tau-window"])
    def test_library_check_exits_2_naming_its_flag(self, argv, problem,
                                                   tmp_path, capsys):
        # each range is the library's own check, its error named by its flag
        assert main(argv + ["--output", str(tmp_path / "r")]) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_defaults_are_the_librarys(self):
        rc = RunConfig(command="optimal-tau")
        assert rc.params() == CnotParams()
        assert rc.evolution_config() == EvolutionConfig()
        window = inspect.signature(find_optimal_tau).parameters["tau_window"]
        assert cli._parse_window(rc.tau_window) == window.default

    def test_one_parser_keeps_nothing_between_parses(self, tmp_path, capsys):
        # the parser is built once per process; a parse, a failed one
        # included, leaves nothing that the next one reads
        assert cli._build_parser() is cli._build_parser()
        first = parse_config(["nqubit", "--n", "3", "--cd", "--tau", "5"])
        with pytest.raises(SystemExit):
            parse_config(["sweep-noise", "--cd"])
        assert "--alpha is required" in capsys.readouterr().err
        second = parse_config(["nqubit", "--n", "4"])
        assert (first.n, first.cd, first.tau) == (3, True, "5")
        assert second == RunConfig(command="nqubit", n=4, tau="0.5:50:20log")

    def test_shared_flags_parse_and_print_as_when_flat(self, monkeypatch,
                                                       capsys):
        # oracle: the parser as each subcommand once defined it, --config,
        # then the common flags, then its own options, on the subparser
        flat = argparse.ArgumentParser(
            prog="cdgate",
            description="Driven CNOT gate simulator: spectra, gate runs, "
                        "noise sweeps and counterdiabatic control "
                        "experiments.")
        flat.add_argument("--version", action="version",
                          version=f"cdgate {cli.__version__}")
        sub = flat.add_subparsers(dest="command", required=True)
        per_command = {f for c in cli._COMMANDS.values() for f in c.options}
        common = [f for f in cli._HELP if f not in per_command]
        for name, command in cli._COMMANDS.items():
            p = sub.add_parser(name, help=command.help,
                               description=command.help)
            p.add_argument("--config",
                           help="JSON config file; flags override it")
            for field in common + list(command.options):
                flag = ("--j2" if field == "j2_amp"
                        else "--" + field.replace("_", "-"))
                kwargs = ({"action": "store_const", "const": True}
                          if cli._FIELDS[field] is bool
                          else {"type": cli._FIELDS[field]})
                p.add_argument(flag, dest=field, help=cli._HELP[field],
                               **kwargs)

        def subparsers(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        def outcome(parser, argv):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        monkeypatch.setenv("COLUMNS", "80")
        ours = cli._build_parser()
        pairs = [(flat, ours)] + list(zip(subparsers(flat).values(),
                                          subparsers(ours).values()))
        assert list(subparsers(ours)) == list(cli._COMMANDS)
        for old, new in pairs:
            assert new.format_help() == old.format_help()
            assert new.format_usage() == old.format_usage()
        for argv in ([], ["--help"], ["--version"], ["nope"]):
            assert outcome(ours, argv) == outcome(flat, argv)
        for name, command in cli._COMMANDS.items():
            # every flag given, then each way an argument can be refused
            given_all = [name, "--config", "c.json"]
            for action in subparsers(ours)[name]._actions[2:]:
                given_all += action.option_strings[:1]
                if action.nargs is None:
                    given_all.append("2" if action.type in (int, float)
                                     else "x")
            for argv in ([name], given_all, [name, "--help"],
                         [name, "--bogus"], [name, "--seed"],
                         [name, "--seed", "x"]):
                assert outcome(ours, argv) == outcome(flat, argv), argv

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        # found before any gate is computed, so no file is written
        code = main(["gate-check", "--tau", "7.3,1",
                     "--output", str(tmp_path / "missing" / "r")])
        assert code == 2
        assert "--output directory does not exist" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class _HalfWriter:
    """A file that writes half of its first chunk, then fails as a full
    disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        assert os.path.getsize(self.fh.name) > 0  # a partial file exists
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestWriter:
    """Every file goes through ``cli._write``: one that fails halfway is
    removed, the run exits 1 with an ``error:`` line, and the manifest,
    written last, exists only when every file before it was written."""

    @pytest.mark.parametrize("argv, failing, kept", [
        (["spectrum"], "r_spectrum.csv", []),
        (["spectrum", "--format", "json"], "r_spectrum.json", []),
        (["spectrum", "--gnuplot"], "r_spectrum.csv.gp", ["r_spectrum.csv"]),
        (["spectrum", "--gnuplot"], "r_manifest.json",
         ["r_spectrum.csv", "r_spectrum.csv.gp"]),
    ], ids=["csv", "json", "gnuplot", "manifest"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch,
                                                 capsys, argv, failing, kept):
        # the gnuplot script and the manifest were left half written
        def fake_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _HalfWriter(fh) if path.endswith(failing) else fh

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        code = main(argv + ["--samples", "5", "--output",
                            str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == (
            "cdgate: error: [Errno 28] No space left on device\n")
        assert sorted(os.listdir(tmp_path)) == kept

    @pytest.mark.parametrize("emit", [emit_csv, emit_json])
    def test_failed_row_leaves_no_partial_file(self, tmp_path, emit):
        path = tmp_path / "x"
        with pytest.raises(ValueError):
            emit(str(path), ["a"], [(1.0,), ("not a number",)])
        assert not path.exists()


class TestEmitCsv:
    def test_seventeen_digit_floats_and_lf(self, tmp_path):
        path = tmp_path / "x.csv"
        count = emit_csv(str(path), ["a", "b"], [(0.1, 1), (2.0, 3)])
        raw = path.read_bytes()
        assert count == 2
        assert b"\r" not in raw
        text = raw.decode("utf-8").split("\n")
        assert text[0] == "a,b"
        assert text[1] == "0.10000000000000001,1"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        count = emit_csv(str(path), ["a", "b"], [])
        assert count == 0
        assert path.read_text() == "a,b\n"


def _run(tmp_path, args):
    out = tmp_path / "run"
    code = main(args + ["--output", str(out)])
    return code, out


class TestCommands:
    def test_spectrum_matches_closed_form(self, tmp_path):
        code, out = _run(tmp_path, ["spectrum", "--tau", "20", "--samples", "9"])
        assert code == 0
        lines = (tmp_path / "run_spectrum.csv").read_text().splitlines()
        assert lines[0] == "t,J2,E1,E2,E3,E4,gap"
        params = CnotParams()
        ramp = linear_ramp(params, 20.0)
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            snap = analytic_spectrum(params, ramp.value(vals[0]))
            assert abs(vals[1] - ramp.value(vals[0])) < 1e-12
            assert np.abs(np.array(vals[2:6]) - np.array(snap.energies)).max() < 1e-12
            assert abs(vals[6] - snap.gap) < 1e-12

    def test_sweep_tau_lz_column(self, tmp_path):
        code, _ = _run(tmp_path, ["sweep-tau", "--tau", "1:50:6log"])
        assert code == 0
        lines = (tmp_path / "run_sweep-tau.csv").read_text().splitlines()
        g, j2 = 0.5, 10.0
        for line in lines[1:]:
            tau, fid, trans, lz = (float(x) for x in line.split(","))
            assert abs(lz - np.exp(-np.pi * g * g * tau / j2)) < 1e-15
            assert abs(trans - lz) < 0.02

    def test_manifest_lists_all_files(self, tmp_path):
        code, out = _run(tmp_path, ["spectrum", "--samples", "5",
                                    "--gnuplot"])
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["version"]
        for entry in manifest["files"]:
            assert os.path.exists(entry["path"])
        paths = [os.path.basename(e["path"]) for e in manifest["files"]]
        assert "run_spectrum.csv" in paths
        assert "run_spectrum.csv.gp" in paths
        assert manifest["files"][0]["rows"] == 5

    def test_config_round_trip(self, tmp_path):
        code, out = _run(tmp_path, ["sweep-tau", "--tau", "1,2", "--cd",
                                    "--g", "0.4"])
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(manifest["config"]))
        rc = parse_config(["sweep-tau", "--config", str(echo_path)])
        original = RunConfig(**{k: v for k, v in manifest["config"].items()})
        assert rc == original

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        args = ["sweep-noise", "--alpha", "0.05", "--tau", "1,5", "--seed", "3"]
        d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
        for d in (d1, d2, d3):
            d.mkdir()
        code1 = main(args + ["--workers", "1", "--output", str(d1 / "r")])
        code2 = main(args + ["--workers", "1", "--output", str(d2 / "r")])
        code3 = main(args + ["--workers", "3", "--output", str(d3 / "r")])
        assert code1 == code2 == code3 == 0
        b1 = (d1 / "r_sweep-noise.csv").read_bytes()
        b2 = (d2 / "r_sweep-noise.csv").read_bytes()
        b3 = (d3 / "r_sweep-noise.csv").read_bytes()
        assert b1 == b2 == b3

    def test_gate_check_passes(self, tmp_path):
        code, _ = _run(tmp_path, ["gate-check", "--tau", "1,7.3"])
        assert code == 0
        lines = (tmp_path / "run_gate-check.csv").read_text().splitlines()
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[2]) < 1e-10
            assert vals[4] == "1"

    def test_evolve_json_format(self, tmp_path):
        code, _ = _run(tmp_path, ["evolve", "--tau", "5", "--samples", "5",
                                  "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "run_evolve.json").read_text())
        assert len(payload) == 5
        assert set(payload[0]) == {"t", "fidelity", "ground_prob",
                                   "transition_prob", "norm"}

    def test_failed_gate_check_exits_1_with_cause(self, tmp_path, capsys,
                                                 monkeypatch):
        def failing(tau, n_offset=0):
            return GateCheckReport(tau=tau, distance=1.0,
                                   phase_insensitive=1.0,
                                   commutator_residual=0.0, passed=False)

        monkeypatch.setattr(cli, "gate_unitary_check", failing)
        code, _ = _run(tmp_path, ["gate-check", "--tau", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "cdgate: gate check failed the 1e-10 distance bound\n")
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"] == {"all_passed": False}
        row = (tmp_path / "run_gate-check.csv").read_text().splitlines()[1]
        assert row.endswith(",0")

    def test_unexpected_error_exits_1_without_traceback(self, tmp_path,
                                                        capsys, monkeypatch):
        # only CdgateError, ValueError and OSError were caught; any other
        # exception from a run ended in a traceback
        def broken(*args):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(cli, "analytic_spectrum", broken)
        code, _ = _run(tmp_path, ["spectrum", "--samples", "3"])
        assert code == 1
        assert capsys.readouterr().err == "cdgate: error: injected failure\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
    def test_module_runs_as_a_script(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "run")
        monkeypatch.setattr(sys, "argv", ["cdgate", "spectrum", "--samples",
                                          "3", "--output", out])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("cdgate.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.split() == [
            out + "_spectrum.csv", out + "_manifest.json"]

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        code = main(["optimal-tau", "--alpha", "1e-6",
                     "--tau-window", "2:20",
                     "--output", str(tmp_path / "r")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_heatmap_long_form(self, tmp_path):
        code, _ = _run(tmp_path, ["heatmap", "--alpha", "0,0.1",
                                  "--tau", "1,2"])
        assert code == 0
        lines = (tmp_path / "run_heatmap.csv").read_text().splitlines()
        assert lines[0] == "alpha_abs,alpha_in_gap_units,tau,fidelity"
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["failed_cells"] == []

    def test_failed_noise_cells_reported(self, tmp_path, capsys, monkeypatch):
        import cdgate.experiments as exp
        real = exp._cell

        def flaky(params, tau, *rest, **kwargs):
            if tau == 2.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, *rest, **kwargs)

        monkeypatch.setattr(exp, "_cell", flaky)
        code, _ = _run(tmp_path, ["sweep-noise", "--alpha", "0.05",
                                  "--tau", "1,2"])
        assert code == 1
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["failed_cells"] == [
            "cell (0,1): injected failure"]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("cdgate: warning: ")]
        assert len(warnings) == 1
        assert "cell (0,1): injected failure" in warnings[0]
        lines = (tmp_path / "run_sweep-noise.csv").read_text().splitlines()
        assert lines[2].endswith(",nan")

    def test_failed_heatmap_cells_exit_1_with_cause(self, tmp_path, capsys,
                                                    monkeypatch):
        import cdgate.experiments as exp
        real = exp._cell

        def flaky(params, tau, cd, cfg, n=2, alpha=None):
            if alpha > 0.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, cd, cfg, n, alpha)

        monkeypatch.setattr(exp, "_cell", flaky)
        code, _ = _run(tmp_path, ["heatmap", "--alpha", "0,0.1",
                                  "--tau", "1,2"])
        assert code == 1
        assert (tmp_path / "run_heatmap.csv").exists()
        assert (tmp_path / "run_manifest.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("cdgate: 2 sweep cell(s) failed; their fidelity "
                           "is written as NaN")

    def test_failed_sweep_tau_cells_exit_1_with_cause(self, tmp_path, capsys,
                                                      monkeypatch):
        import cdgate.experiments as exp
        real = exp._cell

        def flaky(params, tau, *rest, **kwargs):
            if tau > 50.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, *rest, **kwargs)

        monkeypatch.setattr(exp, "_cell", flaky)
        code, _ = _run(tmp_path, ["sweep-tau", "--tau", "1,20,60,100"])
        assert code == 1
        lines = (tmp_path / "run_sweep-tau.csv").read_text().splitlines()
        for line in lines[1:]:
            tau, fid, trans, lz = line.split(",")
            failed = float(tau) > 50.0
            assert (fid == "nan") == failed and (trans == "nan") == failed
            assert np.isfinite(float(lz))
        cells = [f"cell (0,{j}): injected failure" for j in (2, 3)]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["failed_cells"] == cells
        err = capsys.readouterr().err.splitlines()
        warnings = [line for line in err if line.startswith("cdgate: warning: ")]
        assert warnings == [f"cdgate: warning: {cell}; its fidelity is "
                            "written as NaN" for cell in cells]
        assert err[-1] == ("cdgate: 2 sweep cell(s) failed; their fidelity "
                           "is written as NaN")

    def test_failed_tradeoff_cells_exit_1_with_cause(self, tmp_path, capsys,
                                                     monkeypatch):
        import cdgate.experiments as exp
        real = exp._cell

        def flaky(params, tau, *rest, **kwargs):
            if tau > 50.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, *rest, **kwargs)

        monkeypatch.setattr(exp, "_cell", flaky)
        code, _ = _run(tmp_path, ["tradeoff", "--alpha", "0.02,0.2",
                                  "--tau", "1:100:4log"])
        assert code == 1
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["failed_cells"] == [
            "cell (0,3): injected failure", "cell (1,3): injected failure"]
        err = capsys.readouterr().err.splitlines()
        warnings = [line for line in err if line.startswith("cdgate: warning: ")]
        assert warnings == [
            f"cdgate: warning: cell ({i},3): injected failure; it counts as "
            "below the threshold" for i in (0, 1)]
        assert err[-1] == ("cdgate: 2 sweep cell(s) failed; they count as "
                           "below the threshold")

    def test_json_files_are_strict(self, tmp_path, monkeypatch):
        import cdgate.experiments as exp
        real = exp._cell

        def flaky(params, tau, *rest, **kwargs):
            if tau > 1.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, *rest, **kwargs)

        def strict(text):
            def reject(name):
                raise ValueError(f"{name} is not JSON")
            return json.loads(text, parse_constant=reject)

        # one alpha on a short axis: no product, so its mean is undefined
        code, _ = _run(tmp_path, ["tradeoff", "--alpha", "0.02",
                                  "--tau", "1,2", "--threshold", "0.9"])
        assert code == 0
        summary = strict((tmp_path / "run_manifest.json").read_text())["summary"]
        assert summary["product_mean"] is None
        monkeypatch.setattr(exp, "_cell", flaky)
        code, _ = _run(tmp_path, ["sweep-tau", "--tau", "1,2",
                                  "--format", "json"])
        assert code == 1
        rows = strict((tmp_path / "run_sweep-tau.json").read_text())
        assert [row["fidelity"] is None for row in rows] == [False, True]
        strict((tmp_path / "run_manifest.json").read_text())

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--alpha", "0.02,0.2", "--tau", "1,4"],
        ["sweep-tau", "--tau", "1,4"],
        ["nqubit", "--n", "3", "--tau", "1,4"],
    ], ids=["tradeoff", "sweep-tau", "nqubit"])
    def test_summary_lists_no_failed_cells(self, tmp_path, argv):
        code, _ = _run(tmp_path, argv)
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["summary"]["failed_cells"] == []


class TestLoudFailures:
    """Runs that cannot give a number fail loudly, each with its cause: a
    sweep cell is NaN, listed in ``failed_cells``, and the sweep exits 1; a
    single run exits 1 with an ``error:`` line. None warns (RuntimeWarnings
    are errors under pytest) or exits 0 with a NaN."""

    @staticmethod
    def _failed_cells(tmp_path):
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        return manifest["summary"]["failed_cells"]

    @pytest.mark.parametrize("cd, drift", [(False, "1.194e-08"),
                                           (True, "1.239e-08")],
                             ids=["plain", "cd"])
    def test_norm_drift_fails_the_cell(self, tmp_path, cd, drift):
        # the default tolerances do not hold the 1e-8 drift monitor at
        # n = 6, tau 200 with j2_amp 20 (EvolutionConfig)
        argv = ["nqubit", "--n", "6", "--tau", "200", "--j2", "20"]
        code, _ = _run(tmp_path, argv + (["--cd"] if cd else []))
        assert code == 1
        assert self._failed_cells(tmp_path) == [
            f"cell (0,0): norm^2 drifted by {drift} (limit 1e-08); tighten "
            "the tolerances"]
        row = (tmp_path / "run_nqubit.csv").read_text().splitlines()[1]
        assert row.split(",")[1:3] == ["nan", "nan"]

    def test_norm_drift_fails_a_single_run(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["evolve", "--tau", "2000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "cdgate: error: norm^2 drifted by 1.119e-08 (limit 1e-08); "
            "tighten the tolerances\n")
        assert not os.listdir(tmp_path)

    @pytest.mark.filterwarnings("ignore:.*not much larger:UserWarning")
    def test_overflowing_phase_fails_the_cell(self, tmp_path):
        # the sector's restored phase (n - 1) j1 (t - t0) is 5e308 at
        # tau 10: it wrote NaN with exit 0 and two RuntimeWarnings
        code, _ = _run(tmp_path, ["nqubit", "--n", "6", "--j1", "1e307",
                                  "--tau", "1,10"])
        assert code == 1
        assert self._failed_cells(tmp_path) == [
            "cell (0,1): the sector's global phase -5.000e+307 (t - t0) "
            "overflows over 1.000e+01"]
        rows = (tmp_path / "run_nqubit.csv").read_text().splitlines()[1:]
        assert np.isfinite(float(rows[0].split(",")[1]))
        assert rows[1].split(",")[1] == "nan"

    @pytest.mark.filterwarnings("ignore:.*not much larger:UserWarning")
    def test_overflowing_phase_fails_a_single_run(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["evolve", "--tau", "100", "--j1", "1e307",
                                  "--samples", "3"])
        assert code == 1
        assert ("cdgate: error: the sector's global phase -1.000e+307 "
                "(t - t0) overflows over 1.000e+02") in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_gate_check_at_a_short_tau(self, tmp_path):
        # samples near pi / tau = 3e300: their product overflowed and wrote
        # a NaN residual with passed = 1
        code, _ = _run(tmp_path, ["gate-check", "--tau", "1e-300,0.5"])
        assert code == 0
        lines = (tmp_path / "run_gate-check.csv").read_text().splitlines()
        for line in lines[1:]:
            values = line.split(",")
            assert values[3] == "0" and values[4] == "1"
            assert np.isfinite([float(v) for v in values]).all()


def _columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class TestSharedGateRun:
    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "2,5,10"],
        ["nqubit", "--n", "3", "--cd", "--tau", "1:5:3"],
    ], ids=["sweep-tau", "nqubit"])
    def test_negative_amplitude_matches_positive(self, tmp_path, argv):
        # the Landau-Zener exponent depends on the sweep rate's magnitude,
        # and J2 -> -J2 is a basis swap within the coupled sector
        columns = []
        for amp in ("-10", "10"):
            out = tmp_path / f"amp{amp}"
            assert main(argv + ["--j2", amp, "--output", str(out)]) == 0
            columns.append(_columns(tmp_path / f"amp{amp}_{argv[0]}.csv"))
        neg, pos = columns
        assert neg["lz_prediction"] == pos["lz_prediction"]
        np.testing.assert_allclose(neg["transition_prob"],
                                   pos["transition_prob"], rtol=0, atol=1e-12)

    def test_evolve_fidelity_is_the_adiabatic_profile(self, tmp_path):
        from cdgate.experiments import adiabatic_profile

        code, _ = _run(tmp_path, ["evolve", "--tau", "10"])
        assert code == 0
        columns = _columns(tmp_path / "run_evolve.csv")
        profile = adiabatic_profile(CnotParams(), tau=10.0)
        assert columns["t"] == [p.t for p in profile]
        assert columns["fidelity"] == [p.value for p in profile]


class TestFullRangeRamp:
    """``--full-range-ramp`` is ``--j2`` doubled: ``RunConfig.params`` folds
    it into the amplitude, and the manifest still echoes both as given."""

    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "1:20:3log"],
        ["sweep-tau", "--tau", "1:20:3log", "--cd"],
        ["nqubit", "--n", "3", "--cd", "--tau", "1:5:3"],
        ["heatmap", "--alpha", "0,0.1", "--tau", "1,10"],
        ["sweep-noise", "--alpha", "0.05", "--tau", "1,10", "--cd"],
        ["optimal-tau", "--alpha", "0.04", "--tau-window", "5:120"],
        ["tradeoff", "--alpha", "0.05,0.1", "--tau", "1:40:4log"],
        ["spectrum", "--samples", "9"],
        ["evolve", "--tau", "10", "--samples", "6"],
        ["evolve", "--tau", "10", "--alpha", "0.05", "--cd", "--samples", "6"],
    ], ids=["sweep-tau", "sweep-tau-cd", "nqubit-cd", "heatmap",
            "sweep-noise", "optimal-tau", "tradeoff", "spectrum", "evolve",
            "evolve-noisy"])
    def test_data_file_is_the_doubled_amplitudes(self, tmp_path, argv):
        assert main(argv + ["--full-range-ramp",
                            "--output", str(tmp_path / "full")]) == 0
        assert main(argv + ["--j2", "20",
                            "--output", str(tmp_path / "j2")]) == 0
        name = f"_{argv[0]}.csv"
        assert ((tmp_path / ("full" + name)).read_bytes()
                == (tmp_path / ("j2" + name)).read_bytes())
        config = json.loads(
            (tmp_path / "full_manifest.json").read_text())["config"]
        assert config["full_range_ramp"] is True
        assert config["j2_amp"] == 10.0

    def test_non_finite_doubled_amplitude_exits_2(self, tmp_path, capsys,
                                                  monkeypatch):
        from cdgate import cli

        def no_work(*args):
            raise AssertionError("a command ran")
        monkeypatch.setattr(cli, "run_command", no_work)
        assert main(["sweep-tau", "--j2", "1e308", "--full-range-ramp",
                     "--output", str(tmp_path / "r")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flags, warns", [
        (["--j2", "1.5", "--full-range-ramp"], True),
        (["--j2", "3"], True),
        (["--j2", "3", "--full-range-ramp"], False),
        (["--j2", "6"], False),
    ])
    def test_small_amplitude_warning_follows_the_run(self, flags, warns):
        # j1 = 1, g = 0.5: the warning fires below |j2_amp| = 4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(["spectrum"] + flags)
        small = [w for w in caught if "not much larger" in str(w.message)]
        assert bool(small) == warns


class TestNegativeAmplitude:
    """J2 -> -J2 swaps |1..10> and |1..11> within the coupled sector, so a
    negative amplitude ends the ramp near |1..10>; the fidelity is scored
    against that state and reads as the positive run's."""

    @pytest.mark.parametrize("argv", [
        ["sweep-tau", "--tau", "1,10,40"],
        ["sweep-tau", "--tau", "1:5:3", "--cd"],
        ["nqubit", "--n", "3", "--cd", "--tau", "1:5:3"],
        ["evolve", "--tau", "10", "--samples", "6"],
        ["evolve", "--tau", "10", "--alpha", "0.05", "--cd", "--samples", "6"],
        ["heatmap", "--alpha", "0,0.1", "--tau", "1,10", "--cd"],
    ], ids=["sweep-tau", "sweep-tau-cd", "nqubit", "evolve", "evolve-noisy",
            "heatmap"])
    def test_fidelity_matches_positive(self, tmp_path, argv):
        columns = []
        for amp in ("-10", "10"):
            out = tmp_path / f"amp{amp}"
            assert main(argv + ["--j2", amp, "--output", str(out)]) == 0
            columns.append(_columns(tmp_path / f"amp{amp}_{argv[0]}.csv"))
        neg, pos = columns
        assert max(pos["fidelity"]) > 0.5  # the run reaches its target
        np.testing.assert_allclose(neg["fidelity"], pos["fidelity"],
                                   rtol=0, atol=1e-12)


class TestSectorWidth:
    """Every gate-run cell integrates its coupled pair alone: the stepper
    gets 2 amplitudes, or the 4 entries of a 2x2 density block, whatever
    the number of qubits, and the full state's length as the width of its
    error norm."""

    @pytest.mark.parametrize("argv, cells, size, width", [
        (["sweep-tau", "--tau", "1:5:3"], 3, 2, 4),
        (["sweep-tau", "--tau", "1:5:3", "--cd"], 3, 2, 4),
        (["nqubit", "--n", "3", "--tau", "1:5:3"], 3, 2, 8),
        (["nqubit", "--n", "4", "--cd", "--tau", "1:5:3"], 3, 2, 16),
        (["heatmap", "--alpha", "0,0.1", "--tau", "1,10", "--cd"], 4, 4, 16),
    ], ids=["sweep-tau", "sweep-tau-cd", "nqubit-3", "nqubit-4-cd",
            "heatmap"])
    def test_stepper_gets_the_sector(self, tmp_path, monkeypatch, argv,
                                     cells, size, width):
        import inspect

        from cdgate import _kernels

        real = _kernels.dop853
        signature = inspect.signature(real)
        seen = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            seen.append((bound["y0"].size, bound["width"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(_kernels, "dop853", spy)
        code, _ = _run(tmp_path, argv)
        assert code == 0
        assert seen == [(size, width)] * cells


def _number(lo, hi, extremes):
    """A flag value: a finite float in [lo, hi], or one of ``extremes``."""
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(extremes))


_BAD = ["nan", "inf", "-inf", "0", "-1"]


@st.composite
def _cli_argv(draw):
    """CLI commands over finite and extreme values, bounded so that each
    run takes milliseconds: no value makes an integration long. A huge one
    fails before any step, and a rate near the float maximum that passes
    the parameter checks (alpha 5e307, j2 5e153, tau 5e28) fails at its
    first steps, without a numpy warning."""
    command = draw(st.sampled_from(["spectrum", "evolve", "sweep-tau",
                                    "heatmap", "gate-check", "nqubit"]))
    argv = [command]
    flags = {
        "--j1": _number(0.1, 3.0, _BAD + ["1e307", "1e308", "1e-300"]),
        "--g": _number(0.1, 2.0, _BAD + ["1e-150", "1e-160", "1e-300",
                                         "1e300"]),
        "--j2": _number(-20.0, 20.0, _BAD + ["1e-3", "1e160", "-1e308",
                                             "5e153"]),
        "--rel-tol": _number(1e-10, 1e-6, _BAD + ["1e-300", "1", "1e300"]),
        "--abs-tol": _number(1e-12, 1e-8, _BAD + ["1e-300", "1", "1e300"]),
    }
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    tau = _number(0.1, 10.0, _BAD + ["1e-300", "1e-308", "5e28"])
    alpha = _number(0.0, 0.2, ["nan", "inf", "-0.1", "1e309", "5e307"])
    one_or_two = st.lists(tau, min_size=1, max_size=2).map(",".join)
    if command in ("spectrum", "evolve"):
        argv += ["--tau", draw(tau), "--samples",
                 draw(st.sampled_from(["2", "5", "1", "0"]))]
    else:
        argv += ["--tau", draw(one_or_two)]
    if command == "evolve" and draw(st.booleans()):
        argv += ["--alpha", draw(alpha)]
    if command == "heatmap":
        argv += ["--alpha", draw(st.lists(alpha, min_size=1,
                                          max_size=2).map(",".join))]
    if command == "nqubit":
        argv += ["--n", draw(st.sampled_from(["2", "3", "4", "1", "7"]))]
    if command == "gate-check":
        offset = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                           st.sampled_from([10 ** 308, -10 ** 400]))
        argv += ["--phase-offset", str(draw(offset))]
    elif command != "spectrum" and draw(st.booleans()):
        argv.append("--cd")
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


def _data_values(path):
    """Every value of a CSV or JSON data file, NaN for a JSON null."""
    text = path.read_text()
    if path.suffix == ".json":
        rows = json.loads(text, parse_constant=pytest.fail)
        return [math.nan if v is None else float(v)
                for row in rows for v in row.values()]
    return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]


def _check_exit_contract(argv):
    """Run ``argv`` and check the exit contract: 0 with finite data; 1 with
    an ``error:`` line and no manifest, or with its cause after files whose
    manifest records it; 2 before any file is written; never a traceback
    or a numeric warning; the manifest written last, as strict JSON."""
    written = []
    real_write = cli._write

    def spy(path, chunks):
        written.append(os.path.basename(path))
        return real_write(path, chunks)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        patch.setattr(cli, "_write", spy)
        code = main(argv + ["--output", os.path.join(tmp, "r")])
        err = err.getvalue()
        files = sorted(os.listdir(tmp))
        manifest_path = pathlib.Path(tmp, "r_manifest.json")
        manifest = (json.loads(manifest_path.read_text(),
                               parse_constant=pytest.fail)
                    if manifest_path.exists() else None)
        data = [_data_values(pathlib.Path(tmp, name)) for name in files
                if name.startswith(f"r_{argv[0]}.") and not name.endswith(".gp")]
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sorted(written) == files
    if code == 2:
        assert files == [] and "error:" in err
        return
    lines = err.splitlines()
    if code == 0:
        assert manifest is not None and written[-1] == "r_manifest.json"
        assert all(math.isfinite(v) for values in data for v in values)
        return
    assert code == 1
    if lines[-1].startswith("cdgate: error: "):
        assert manifest is None
    else:
        assert written[-1] == "r_manifest.json"
        summary = manifest["summary"]
        assert summary.get("failed_cells") or summary.get("all_passed") is False


class TestExitContract:
    """Generated commands, finite and extreme, keep the exit contract."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(argv=_cli_argv())
    def test_generated_commands(self, argv):
        _check_exit_contract(argv)
