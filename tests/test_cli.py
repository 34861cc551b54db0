"""The command-line front-end, run in-process through ``main``.

Each documented exit status is checked together with its single
``error: CODE detail`` line on stderr, and every command is rerun to
check that its output files come out byte-identical.
"""

import numpy as np
import pytest

import biphoton.cli
from biphoton.cli import main
from biphoton.errors import ParameterError
from biphoton.fitting import Theta, synthesize_series
from biphoton.ingest import make_synthetic_histogram, save_histogram
from biphoton.observables import DetectionChain
from biphoton.units import ghz_to_gamma

SYSTEM_15MW = ("system.b = 0.375\n"
               "system.omega_c = 11.4\n"
               "system.gamma_dec = 0.013\n")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    """Exit status and stderr lines of one in-process CLI call."""
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().err.splitlines()


def assert_one_error_line(err, code):
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1, err
    assert errors[0].startswith(f"error: {code} ")
    assert not any("Traceback" in line for line in err)


def read_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def histogram_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "hist.csv"
    save_histogram(make_synthetic_histogram(2.0e5, 20.0, DetectionChain(),
                                            seed=11), path)
    return path


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    series = synthesize_series(
        Theta(b=0.375, omega_c=11.4, gamma_dec=0.013, scale=2.0e9),
        [0.2, 0.6, 1.0, 2.2], noise=0.0, seed=5)
    rows = ["delta_c_ghz,rg,rg_err,tau_w_ns,tau_w_err"]
    for cols in zip(series.delta_c_ghz, series.rg, series.rg_err,
                    series.tau_w_ns, series.tau_w_err):
        rows.append(",".join(repr(float(v)) for v in cols))
    path = tmp_path_factory.mktemp("data") / "series.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestSuccess:
    def test_simulate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        status, err = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path / "a")
        assert status == 0 and err == []
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"observables.csv", "spectrum.csv",
                                "wavepacket.csv"}
        observables = outputs["observables.csv"].decode().splitlines()
        assert observables[0] == "name,value,units,calibrated"
        assert [row.split(",")[0] for row in observables[1:]] == [
            "rg", "tau_w", "delta_omega"]
        run(capsys, "simulate", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        status, _ = run(capsys, "spectrum", "--config", cfg,
                        "--out", tmp_path / "a")
        assert status == 0
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"observables.csv", "spectrum.csv"}
        run(capsys, "spectrum", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "sweep.delta_c_ghz = 0.5, 1.0\n")
        status, err = run(capsys, "sweep", "--config", cfg,
                          "--out", tmp_path / "a")
        assert status == 0 and err == []
        outputs = read_outputs(tmp_path / "a")
        rows = outputs["sweep.csv"].decode().splitlines()
        assert rows[0] == "delta_c_ghz,rg_arb,tau_w_ns,domega_mhz"
        assert [row.split(",")[0] for row in rows[1:]] == ["0.5", "1.0"]
        run(capsys, "sweep", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_analyze(self, tmp_path, capsys, histogram_path):
        status, err = run(capsys, "analyze", histogram_path,
                          "--out", tmp_path / "a")
        assert status == 0
        assert not any(line.startswith("error:") for line in err)
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"g2.csv", "observables.csv"}
        run(capsys, "analyze", histogram_path, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_fit_one_iteration(self, tmp_path, capsys, series_path):
        cfg = write_config(tmp_path, (
            f"fit.series = {series_path}\n"
            "fit.init_b = 0.375\nfit.init_omega_c = 12.0\n"
            "fit.init_gamma_dec = 0.013\nfit.init_scale = 1.8e9\n"
            "fit.max_iterations = 1\nfit.freeze = b, gamma_dec\n"))
        status, err = run(capsys, "fit", "--config", cfg,
                          "--out", tmp_path / "a")
        assert status == 0 and err == []
        outputs = read_outputs(tmp_path / "a")
        report = outputs["fit_report.txt"].decode()
        assert "iterations: 1" in report
        assert "b: 0.375 +- 0.0" in report
        curve = outputs["fit_curve.csv"].decode().splitlines()
        assert len(curve) == 1 + 4
        run(capsys, "fit", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs


class TestExitStatus:
    def test_config_missing(self, tmp_path, capsys):
        status, err = run(capsys, "simulate", "--out", tmp_path)
        assert status == 2
        assert_one_error_line(err, "CONFIG_MISSING")

    def test_leftover_quadrature_key_is_unknown(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, SYSTEM_15MW + "quadrature.method = dense_trapezoid\n")
        status, err = run(capsys, "simulate", "--config", cfg, "--strict",
                          "--out", tmp_path)
        assert status == 2
        assert_one_error_line(err, "CONFIG_UNKNOWN_KEY")
        assert err == ["error: CONFIG_UNKNOWN_KEY quadrature.method"]
        # without --strict the key is ignored with a warning
        status, err = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path)
        assert status == 0
        assert err == ["warning: ignoring unknown config key "
                       "'quadrature.method'"]

    def test_config_bad_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW.replace("0.375", "lots"))
        status, err = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path)
        assert status == 2
        assert_one_error_line(err, "CONFIG_BAD_VALUE")
        assert err == ["error: CONFIG_BAD_VALUE system.b = lots"]

    def test_data_parse(self, tmp_path, capsys, histogram_path):
        bad = tmp_path / "bad.csv"
        lines = histogram_path.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",seven"
        bad.write_text("\n".join(lines) + "\n")
        bad.with_suffix(".meta").write_bytes(
            histogram_path.with_suffix(".meta").read_bytes())
        status, err = run(capsys, "analyze", bad, "--out", tmp_path / "out")
        assert status == 3
        assert_one_error_line(err, "DATA_PARSE")
        assert "bad.csv:6" in err[0]

    def test_numerical(self, tmp_path, capsys):
        # a 1 MHz span needs more than 3 widenings to reach the edge decay
        cfg = write_config(tmp_path, SYSTEM_15MW + (
            "grid.delta_max_mhz = 1\ngrid.n_points = 16384\n"))
        status, err = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path)
        assert status == 4
        assert_one_error_line(err, "NUMERICAL")

    def test_quadrature_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--config", cfg, "--out", str(tmp_path),
                  "--quadrature", "dense_trapezoid"])
        assert excinfo.value.code == 2
        assert "--quadrature" in capsys.readouterr().err


class TestSweepFailures:
    @pytest.fixture
    def failing_at_1ghz(self, monkeypatch):
        real_predict = biphoton.cli.predict

        def install(exc):
            def predict(params, **kwargs):
                if params.delta_c == ghz_to_gamma(1.0):
                    raise exc
                return real_predict(params, **kwargs)
            monkeypatch.setattr(biphoton.cli, "predict", predict)

        return install

    def test_package_error_becomes_an_error_row(self, tmp_path, capsys,
                                                failing_at_1ghz):
        failing_at_1ghz(ParameterError("no good"))
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "sweep.delta_c_ghz = 0.5, 1.0\n")
        status, err = run(capsys, "sweep", "--config", cfg,
                          "--out", tmp_path)
        assert status == 0
        assert err == ["warning: point delta_c=1.0 GHz failed: no good"]
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[2] == "1.0,ERROR,ERROR,ERROR"
        assert np.isfinite(float(rows[1].split(",")[1]))

    def test_programming_error_propagates(self, tmp_path, capsys,
                                          failing_at_1ghz):
        failing_at_1ghz(TypeError("a bug"))
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "sweep.delta_c_ghz = 0.5, 1.0\n")
        with pytest.raises(TypeError, match="a bug"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path)])

    def test_all_points_failed(self, tmp_path, capsys, failing_at_1ghz):
        failing_at_1ghz(ParameterError("no good"))
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "sweep.delta_c_ghz = 1.0, 1\n")
        status, err = run(capsys, "sweep", "--config", cfg,
                          "--out", tmp_path)
        assert status == 4
        assert_one_error_line(err, "SWEEP_ALL_POINTS_FAILED")
