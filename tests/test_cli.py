import json
import os

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
