import json
import os
import warnings

import numpy as np
import pytest

from cdgate.cli import RunConfig, emit_csv, main, parse_axis, parse_config
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
    ], ids=["g-1e-300", "g-1e-160", "j2", "evolve-alpha", "heatmap-alpha",
            "optimal-tau-alpha", "evolve-j1", "sweep-tau-j1", "spectrum-tau",
            "heatmap-tau", "sweep-tau-tau", "evolve-tau", "gate-check-tau",
            "optimal-tau-window"])
    def test_unrepresentable_input_exits_2(self, argv, problem, tmp_path,
                                           capsys):
        # each ran before: a tiny g wrote NaN rows or a start vector whose
        # norm is off, and exited 0; a huge J2, alpha or j1 overflowed
        # mid-run; a tau whose ramp rate overflows wrote inf and NaN rows,
        # aborted a heatmap or failed with a misleading step underflow
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

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        # found before any gate is computed, so no file is written
        code = main(["gate-check", "--tau", "7.3,1",
                     "--output", str(tmp_path / "missing" / "r")])
        assert code == 2
        assert "--output directory does not exist" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


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
        real = exp._noise_cell

        def flaky(params, alpha, tau, *rest):
            if tau == 2.0:
                raise exp.CdgateError("injected failure")
            return real(params, alpha, tau, *rest)

        monkeypatch.setattr(exp, "_noise_cell", flaky)
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
        real = exp._noise_cell

        def flaky(params, alpha, tau, *rest):
            if alpha > 0.0:
                raise exp.CdgateError("injected failure")
            return real(params, alpha, tau, *rest)

        monkeypatch.setattr(exp, "_noise_cell", flaky)
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
        real = exp._unitary_cell

        def flaky(n, params, tau, *rest):
            if tau > 50.0:
                raise exp.CdgateError("injected failure")
            return real(n, params, tau, *rest)

        monkeypatch.setattr(exp, "_unitary_cell", flaky)
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
        real = exp._noise_cell

        def flaky(params, alpha, tau, *rest):
            if tau > 50.0:
                raise exp.CdgateError("injected failure")
            return real(params, alpha, tau, *rest)

        monkeypatch.setattr(exp, "_noise_cell", flaky)
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
        real = exp._unitary_cell

        def flaky(n, params, tau, *rest):
            if tau > 1.0:
                raise exp.CdgateError("injected failure")
            return real(n, params, tau, *rest)

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
        monkeypatch.setattr(exp, "_unitary_cell", flaky)
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
