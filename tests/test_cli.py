"""The command-line front-end, run in-process through ``main``.

Each documented exit status is checked together with its single
``error: CODE detail`` line on stderr, every command is rerun to check
that its output files come out byte-identical, and every CSV it writes
must equal the per-value oracle's formatting of the columns it wrote.

The tests that take the ``run_cli`` fixture, the success runs and the
``PROBES`` table, also run through the installed ``biphoton`` script:
``pytest tests/test_cli.py --console-script`` runs only them, each call
in a subprocess.  The oracle check of the CSVs needs the columns, so it
runs in-process only.
"""

import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from conftest import first_difference, oracle_table

import biphoton.cli
import biphoton.forward
from biphoton.cli import main
from biphoton.config import ConfigError
from biphoton.errors import BiphotonError, ParameterError
from biphoton.fitting import Theta, synthesize_series
from biphoton.ingest import (SERIES_HEADER, make_synthetic_histogram,
                             save_histogram)
from biphoton.observables import DetectionChain
from biphoton.units import ghz_to_gamma

SYSTEM_15MW = ("system.b = 0.375\n"
               "system.omega_c = 11.4\n"
               "system.gamma_dec = 0.013\n")
SERIES_ROWS = ["0.2,1.0,0.1,60.0,1.0", "0.6,1.1,0.1,62.0,1.0",
               "1.0,1.2,0.1,64.0,1.0", "2.2,1.3,0.1,66.0,1.0"]
FIT_INIT = ("fit.init_b = 0.35\nfit.init_omega_c = 12\n"
            "fit.init_gamma_dec = 0.012\nfit.init_scale = 1.8e9\n")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    """Exit status and stderr lines of one in-process CLI call."""
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().err.splitlines()


@pytest.fixture
def run_cli(request, capsys):
    """Exit status and stderr lines of one CLI call: in-process, or
    through the installed ``biphoton`` script under ``--console-script``."""
    if not request.config.getoption("console_script"):
        return lambda *argv: run(capsys, *argv)
    script = shutil.which("biphoton")
    if script is None:
        pytest.fail("--console-script: no biphoton script on PATH")

    def run_script(*argv):
        done = subprocess.run([script, *map(str, argv)], capture_output=True,
                              text=True, timeout=600)
        return done.returncode, done.stderr.splitlines()
    return run_script


def assert_one_error_line(err, code):
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1, err
    assert errors[0].startswith(f"error: {code} ")
    assert not any("Traceback" in line for line in err)


def read_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture
def tables(request, monkeypatch):
    """Every table the CLI writes, as (path, header, columns); a test
    checks them with ``assert_tables_match_oracle``.  None under
    ``--console-script``, whose writes happen in another process."""
    if request.config.getoption("console_script"):
        return None
    written = []
    real_write_table = biphoton.cli.write_table

    def write_table(path, header, columns):
        written.append((Path(path), header, columns))
        real_write_table(path, header, columns)

    monkeypatch.setattr(biphoton.cli, "write_table", write_table)
    return written


def assert_tables_match_oracle(tables, out):
    """Each CSV in ``out`` was written as a table whose bytes equal the
    oracle's formatting of its columns."""
    if tables is None:
        return
    written = {path: (header, columns) for path, header, columns in tables}
    csvs = sorted(out.glob("*.csv"))
    assert csvs and set(csvs) <= set(written)
    for path in csvs:
        assert first_difference(path.read_text(),
                                oracle_table(*written[path])) is None, path


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
    def test_simulate(self, tmp_path, run_cli, tables):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        status, err = run_cli("simulate", "--config", cfg,
                              "--out", tmp_path / "a")
        assert status == 0 and err == []
        assert_tables_match_oracle(tables, tmp_path / "a")
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"observables.csv", "spectrum.csv",
                                "wavepacket.csv"}
        observables = outputs["observables.csv"].decode().splitlines()
        assert observables[0] == "name,value,units,calibrated"
        assert [row.split(",")[0] for row in observables[1:]] == [
            "rg", "tau_w", "delta_omega"]
        run_cli("simulate", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_spectrum(self, tmp_path, run_cli, tables):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        status, _ = run_cli("spectrum", "--config", cfg,
                            "--out", tmp_path / "a")
        assert status == 0
        assert_tables_match_oracle(tables, tmp_path / "a")
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"observables.csv", "spectrum.csv"}
        run_cli("spectrum", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_sweep(self, tmp_path, run_cli, tables):
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "sweep.delta_c_ghz = 0.5, 1.0\n")
        status, err = run_cli("sweep", "--config", cfg,
                              "--out", tmp_path / "a")
        assert status == 0 and err == []
        assert_tables_match_oracle(tables, tmp_path / "a")
        outputs = read_outputs(tmp_path / "a")
        rows = outputs["sweep.csv"].decode().splitlines()
        assert rows[0] == "delta_c_ghz,rg_arb,tau_w_ns,domega_mhz"
        assert [row.split(",")[0] for row in rows[1:]] == ["0.5", "1.0"]
        run_cli("sweep", "--config", cfg, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_analyze(self, tmp_path, run_cli, histogram_path, tables):
        status, err = run_cli("analyze", histogram_path,
                              "--out", tmp_path / "a")
        assert status == 0
        assert not any(line.startswith("error:") for line in err)
        assert_tables_match_oracle(tables, tmp_path / "a")
        outputs = read_outputs(tmp_path / "a")
        assert set(outputs) == {"g2.csv", "observables.csv"}
        run_cli("analyze", histogram_path, "--out", tmp_path / "b")
        assert read_outputs(tmp_path / "b") == outputs

    def test_fit_one_iteration(self, tmp_path, run_cli, series_path, tables):
        cfg = write_config(tmp_path, (
            f"fit.series = {series_path}\n"
            "fit.init_b = 0.375\nfit.init_omega_c = 12.0\n"
            "fit.init_gamma_dec = 0.013\nfit.init_scale = 1.8e9\n"
            "fit.max_iterations = 1\nfit.freeze = b, gamma_dec\n"))
        status, err = run_cli("fit", "--config", cfg,
                              "--out", tmp_path / "a")
        assert status == 0 and err == []
        assert_tables_match_oracle(tables, tmp_path / "a")
        outputs = read_outputs(tmp_path / "a")
        report = outputs["fit_report.txt"].decode()
        assert "iterations: 1" in report
        assert "b: 0.375 +- 0.0" in report
        curve = outputs["fit_curve.csv"].decode().splitlines()
        assert len(curve) == 1 + 4
        run_cli("fit", "--config", cfg, "--out", tmp_path / "b")
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

    def test_tiny_doppler_width_runs_clean(self, tmp_path, run_cli):
        # the poles sit past |zeta| = 1e154, where zeta**2 overflows
        cfg = write_config(tmp_path,
                           SYSTEM_15MW + "system.gamma_doppler = 1e-300\n")
        status, err = run_cli("simulate", "--config", cfg,
                              "--out", tmp_path / "out")
        assert status == 0 and err == []

    @pytest.mark.parametrize("init", ["", FIT_INIT],
                             ids=["default_init", "init"])
    def test_tiny_doppler_width_fit_ends_in_one_line(self, tmp_path, capsys,
                                                     init):
        # gamma_doppler**2 underflows to 0: kappa's merged-pole values in
        # the default-init scan, or the tangents from an init, are not
        # finite, and the first grid says so
        cfg = write_series(tmp_path, SERIES_ROWS)
        with open(cfg, "a") as f:
            f.write("system.gamma_doppler = 1e-300\n" + init)
        status, err = run(capsys, "fit", "--config", cfg,
                          "--out", tmp_path / "out")
        assert status == 4 and len(err) == 1, err
        assert err[0].startswith("error: NUMERICAL spectral amplitude")
        assert "not finite" in err[0] and "decay" not in err[0]

    @pytest.mark.parametrize("gamma_doppler", ["1e-100", "1e-150"])
    def test_overflowing_normal_matrix_ends_in_one_line(
            self, tmp_path, capsys, gamma_doppler):
        # the tangents are finite but so large that J^T J overflows; the
        # fit stops before a step, without a warning
        cfg = write_series(tmp_path, SERIES_ROWS)
        with open(cfg, "a") as f:
            f.write(f"system.gamma_doppler = {gamma_doppler}\n" + FIT_INIT)
        status, err = run(capsys, "fit", "--config", cfg,
                          "--out", tmp_path / "out")
        assert status == 4 and len(err) == 1, err
        assert err[0].startswith("error: NUMERICAL normal matrix J^T J")

    def test_magnitudes_just_below_the_cap_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW.replace("11.4", "9.9e149")
                           + "system.omega_p = 9.9e149\n"
                           "system.gamma_doppler = 9.9e149\n")
        status, err = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path / "out")
        assert status == 0 and err == []

    def test_quadrature_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYSTEM_15MW)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--config", cfg, "--out", str(tmp_path),
                  "--quadrature", "dense_trapezoid"])
        assert excinfo.value.code == 2
        assert "--quadrature" in capsys.readouterr().err


EDGE_KEYS = ("gamma_doppler", "gamma_etalon", "gamma_dec", "alpha", "omega_p",
             "omega_c")
EDGE_VALUES = ("5e-324", "1e-320", "2.2250738585072014e-308", "1e-300",
               "1e149", "1e151", "1e200", "1e308")


class TestEdgeValues:
    """simulate at the float range's edges, one system key at a time:
    success with nothing on stderr, or exactly one error line.  A
    RuntimeWarning fails the test (see pyproject.toml)."""

    @staticmethod
    def simulate(tmp_path, capsys, key, value):
        config = "".join(line for line in SYSTEM_15MW.splitlines(True)
                         if not line.startswith(f"system.{key} ="))
        cfg = write_config(tmp_path, config + f"system.{key} = {value}\n")
        return run(capsys, "simulate", "--config", cfg,
                   "--out", tmp_path / "out")

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_success_or_one_error_line(self, tmp_path, capsys, key, value):
        status, err = self.simulate(tmp_path, capsys, key, value)
        if status == 0:
            assert err == []
        else:
            assert status in (2, 4)
            assert len(err) == 1 and err[0].startswith("error: "), err

    def test_decoherence_past_any_scale(self, tmp_path, capsys):
        # the gamma_dec -> inf limit: kappa ~ 1/q vanishes, so no pairs
        # and no width to measure
        status, err = self.simulate(tmp_path, capsys, "gamma_dec", "1e308")
        assert status == 0 and err == []
        rows = (tmp_path / "out" / "observables.csv").read_text().splitlines()
        values = dict(row.split(",")[:2] for row in rows[1:])
        assert values["rg"] == "0.0"
        assert values["tau_w"] == values["delta_omega"] == "nan"


def write_series(tmp_path, rows, header=SERIES_HEADER):
    path = tmp_path / "s.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return write_config(tmp_path, f"fit.series = {path}\n", name="fit.cfg")




def _probe_out_is_file(tmp_path):
    (tmp_path / "afile").write_text("x\n")
    return ["simulate", "--config", write_config(tmp_path, SYSTEM_15MW),
            "--out", tmp_path / "afile"]


def _probe_out_under_file(tmp_path):
    (tmp_path / "afile").write_text("x\n")
    return ["simulate", "--config", write_config(tmp_path, SYSTEM_15MW),
            "--out", tmp_path / "afile" / "sub"]


def _probe_output_file_is_directory(tmp_path):
    (tmp_path / "out" / "sweep.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, SYSTEM_15MW + "sweep.delta_c_ghz = 0.5, 1\n")
    return ["sweep", "--config", cfg, "--out", tmp_path / "out"]


def _probe_histogram_is_directory(tmp_path):
    (tmp_path / "hist.csv").mkdir()
    return ["analyze", tmp_path / "hist.csv", "--out", tmp_path / "out"]


def _probe_histogram_missing(tmp_path):
    return ["analyze", tmp_path / "absent.csv", "--out", tmp_path / "out"]


def _probe_histogram_not_utf8(tmp_path):
    (tmp_path / "hist.csv").write_bytes(b"tau_ns,counts\n0.0,5\xff\n")
    return ["analyze", tmp_path / "hist.csv", "--out", tmp_path / "out"]


def _probe_config_is_directory(tmp_path):
    (tmp_path / "run.cfg").mkdir()
    return ["simulate", "--config", tmp_path / "run.cfg", "--out", tmp_path]


def _probe_config_missing(tmp_path):
    return ["simulate", "--config", tmp_path / "absent.cfg",
            "--out", tmp_path]


def _probe_config_not_utf8(tmp_path):
    (tmp_path / "run.cfg").write_bytes(b"system.b = 0.3\xe9\n")
    return ["simulate", "--config", tmp_path / "run.cfg", "--out", tmp_path]


def _probe_series_is_directory(tmp_path):
    (tmp_path / "s.csv").mkdir()
    cfg = write_config(tmp_path, f"fit.series = {tmp_path / 's.csv'}\n")
    return ["fit", "--config", cfg, "--out", tmp_path / "out"]


def _probe_series_missing(tmp_path):
    cfg = write_config(tmp_path, f"fit.series = {tmp_path / 's.csv'}\n")
    return ["fit", "--config", cfg, "--out", tmp_path / "out"]


def _probe_series(*rows, header=SERIES_HEADER):
    def build(tmp_path):
        return ["fit", "--config", write_series(tmp_path, rows, header),
                "--out", tmp_path / "out"]
    return build


def _probe_background(config="", pair_rate=2e5, background=20.0, **kwargs):
    # a synthetic histogram whose background window analyze cannot use
    def build(tmp_path):
        hist = make_synthetic_histogram(
            pair_rate, background, DetectionChain(), seed=3,
            singles_signal=8e5, singles_probe=1e6, **kwargs)
        save_histogram(hist, tmp_path / "hist.csv")
        argv = ["analyze", tmp_path / "hist.csv", "--out", tmp_path / "out"]
        if config:
            argv += ["--config", write_config(tmp_path, config)]
        return argv
    return build


def _probe_histogram(row=None, meta=None):
    """The test histogram with data row ``row`` = (index, text) replaced,
    or with ``.meta`` line ``meta`` = (key, value) set."""
    def build(tmp_path):
        path = tmp_path / "hist.csv"
        save_histogram(make_synthetic_histogram(2.0e5, 20.0, DetectionChain(),
                                                seed=11), path)
        if row is not None:
            lines = path.read_text().splitlines()
            lines[row[0]] = row[1]
            path.write_text("\n".join(lines) + "\n")
        if meta is not None:
            with_meta(path, tmp_path, *meta)
        return ["analyze", path, "--out", tmp_path / "out"]
    return build


def _probe_config(command, config):
    def build(tmp_path):
        return [command, "--config", write_config(tmp_path, config),
                "--out", tmp_path / "out"]
    return build


def _probe_fit_init(config):
    def build(tmp_path):
        cfg = write_series(tmp_path, SERIES_ROWS)
        with open(cfg, "a") as f:
            f.write(config)
        return ["fit", "--config", cfg, "--out", tmp_path / "out"]
    return build


USER_WINDOW = ("analyze.background_lo_ns = 1100.0\n"
               "analyze.background_hi_ns = 1300.0\n")

# (input, exit status, error code, text the error line must contain)
PROBES = [
    pytest.param(_probe_out_is_file, 2, "OUTPUT_UNWRITABLE", "afile",
                 id="out_is_file"),
    pytest.param(_probe_out_under_file, 2, "OUTPUT_UNWRITABLE", "sub",
                 id="out_under_file"),
    pytest.param(_probe_output_file_is_directory, 2, "OUTPUT_UNWRITABLE",
                 "sweep.csv", id="output_file_is_directory"),
    pytest.param(_probe_histogram_is_directory, 3, "DATA_UNREADABLE",
                 "hist.csv", id="histogram_is_directory"),
    pytest.param(_probe_histogram_missing, 3, "DATA_PARSE", "absent.csv",
                 id="histogram_missing"),
    pytest.param(_probe_histogram_not_utf8, 3, "DATA_UNREADABLE",
                 "not UTF-8", id="histogram_not_utf8"),
    pytest.param(_probe_config_is_directory, 2, "CONFIG_UNREADABLE",
                 "run.cfg", id="config_is_directory"),
    pytest.param(_probe_config_missing, 2, "CONFIG_NOT_FOUND", "absent.cfg",
                 id="config_missing"),
    pytest.param(_probe_config_not_utf8, 2, "CONFIG_UNREADABLE", "not UTF-8",
                 id="config_not_utf8"),
    pytest.param(_probe_series_is_directory, 3, "DATA_UNREADABLE", "s.csv",
                 id="series_is_directory"),
    pytest.param(_probe_series_missing, 3, "DATA_NOT_FOUND", "s.csv",
                 id="series_missing"),
    pytest.param(_probe_series(*SERIES_ROWS[:3], "2.2,1.3,nan,66.0,1.0"),
                 3, "DATA_PARSE", "(s.csv:5)", id="series_nan_error_bar"),
    pytest.param(_probe_series(*SERIES_ROWS[:2], "1.0,1.2,0.1,64.0",
                               SERIES_ROWS[3]),
                 3, "DATA_PARSE", "(s.csv:4)", id="series_four_fields"),
    pytest.param(_probe_series(*SERIES_ROWS, header="delta_c,rg"), 3,
                 "DATA_PARSE", "(s.csv:1)", id="series_bad_header"),
    pytest.param(_probe_series(SERIES_HEADER, *SERIES_ROWS), 3,
                 "DATA_PARSE", "(s.csv:2)", id="series_repeated_header"),
    pytest.param(_probe_series(*SERIES_ROWS[:2], "1.0,1.2,0.1,\x00,1.0",
                               SERIES_ROWS[3]),
                 3, "DATA_PARSE", "(s.csv:4)", id="series_nul_cell"),
    pytest.param(_probe_series(*SERIES_ROWS[:2], SERIES_ROWS[2] + ",",
                               SERIES_ROWS[3]),
                 3, "DATA_PARSE", "is not 5 numbers (s.csv:4)",
                 id="series_trailing_comma"),
    # the whitespace-only line counts in the line number, not as a row
    pytest.param(_probe_series(*SERIES_ROWS[:2], " \t ", SERIES_ROWS[2],
                               "2.2,1.3,nan,66.0,1.0"),
                 3, "DATA_PARSE", "non-finite value in row "
                 "'2.2,1.3,nan,66.0,1.0' (s.csv:6)",
                 id="series_whitespace_line_between_rows"),
    # finite in GHz, inf in units of Gamma: a fault of the data file, and
    # no overflow warning
    pytest.param(_probe_series(SERIES_ROWS[0], "1e307,1.1,0.1,62.0,1.0",
                               *SERIES_ROWS[2:]),
                 3, "DATA_PARSE", "delta_c_ghz in row '1e307,1.1,0.1,62.0,1.0'"
                 " is not finite in units of Gamma (s.csv:3)",
                 id="series_detuning_overflows_in_gamma_units"),
    pytest.param(_probe_histogram(row=(5, "3.2,1e20")), 3, "DATA_PARSE",
                 "count in row '3.2,1e20' is not an integer in [0, 2^53) "
                 "(hist.csv:6)", id="histogram_count_past_float_integers"),
    pytest.param(_probe_histogram(row=(5, "3.2,9007199254740993")), 3,
                 "DATA_PARSE", "is not an integer in [0, 2^53) (hist.csv:6)",
                 id="histogram_count_rounds_to_2_53"),
    pytest.param(_probe_histogram(meta=("singles_signal_per_s", "0")), 3,
                 "DATA_PARSE", "singles_signal_per_s = 0: must be positive "
                 "(hist.meta)", id="meta_singles_rate_zero"),
    pytest.param(_probe_series(*SERIES_ROWS[:3]), 2, "SERIES_TOO_SHORT",
                 "got 3", id="series_too_short"),
    pytest.param(_probe_series(*SERIES_ROWS[:3], SERIES_ROWS[0]), 3,
                 "DATA_PARSE", "distinct", id="series_repeated_detuning"),
    pytest.param(_probe_background(n_bins=2048, tau_peak_ns=1200.0), 3,
                 "DATA_BAD_VALUE", "overlaps the detected wave packet",
                 id="default_background_window_overlaps_peak"),
    pytest.param(_probe_background(n_bins=150), 3, "DATA_BAD_VALUE",
                 "need >= 50", id="default_background_window_too_short"),
    pytest.param(_probe_background(background=0.0, tau_peak_ns=100.0,
                                   noiseless=True),
                 3, "DATA_BAD_VALUE", "mean must be positive",
                 id="default_background_window_empty"),
    pytest.param(_probe_background(USER_WINDOW, n_bins=2048,
                                   tau_peak_ns=1200.0),
                 2, "CONFIG_BAD_VALUE", "overlaps the detected wave packet",
                 id="set_background_window_overlaps_peak"),
    pytest.param(_probe_background("analyze.background_lo_ns = 1100.0\n"),
                 2, "CONFIG_BAD_VALUE", "analyze.background_hi_ns missing",
                 id="background_window_half_set"),
    pytest.param(_probe_fit_init("fit.init_b = 0.3\nfit.init_omega_c = 11\n"),
                 2, "CONFIG_BAD_VALUE",
                 "fit.init_gamma_dec, fit.init_scale missing",
                 id="fit_init_half_set"),
    pytest.param(_probe_fit_init("fit.init_b = 2\nfit.init_omega_c = 11\n"
                                 "fit.init_gamma_dec = 0.01\n"
                                 "fit.init_scale = 1e9\n"),
                 2, "CONFIG_BAD_VALUE", "fit.init_b = 2.0 is outside [0, 1]",
                 id="fit_init_out_of_bounds"),
    pytest.param(_probe_fit_init("fit.max_iterations = -3\n"), 2,
                 "CONFIG_BAD_VALUE",
                 "fit.max_iterations = -3: must be an integer >= 1",
                 id="fit_max_iterations_negative"),
    pytest.param(_probe_fit_init("fit.max_iterations = 0\n"), 2,
                 "CONFIG_BAD_VALUE",
                 "fit.max_iterations = 0: must be an integer >= 1",
                 id="fit_max_iterations_zero"),
    pytest.param(_probe_fit_init("fit.freeze = b, bb\n"), 2,
                 "CONFIG_BAD_VALUE",
                 "fit.freeze = b, bb: cannot freeze unknown parameters bb",
                 id="fit_freeze_unknown"),
    pytest.param(_probe_fit_init("fit.freeze = b, omega_c, gamma_dec, "
                                 "scale\n"), 2, "CONFIG_BAD_VALUE",
                 "fit.freeze = b, omega_c, gamma_dec, scale: all parameters "
                 "are frozen; nothing to fit", id="fit_freeze_all"),
    # finite in GHz, inf in units of Gamma: one error line, no overflow
    # warning
    pytest.param(_probe_config("sweep", SYSTEM_15MW
                               + "sweep.delta_c_ghz = 1e307, 0\n"),
                 2, "CONFIG_BAD_VALUE",
                 "sweep.delta_c_ghz = 1e307, 0: must all be finite",
                 id="sweep_detuning_past_gamma_units"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW.replace(
        "0.375", "1.5")), 2, "CONFIG_BAD_VALUE",
                 "system.b = 1.5: must lie in [0, 1]", id="system_b_above_1"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.delta_c_ghz = nan\n"),
                 2, "CONFIG_BAD_VALUE",
                 "system.delta_c_ghz = nan: must be finite",
                 id="system_delta_c_nan"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.delta_c_ghz = 1e300\n"),
                 4, "NUMERICAL", "global maximum sits on a curve endpoint",
                 id="system_delta_c_past_the_faddeeva_radius"),
    pytest.param(_probe_config("sweep", SYSTEM_15MW
                               + "sweep.delta_c_ghz = 0.5, nan\n"),
                 2, "CONFIG_BAD_VALUE",
                 "sweep.delta_c_ghz = 0.5, nan: must all be finite",
                 id="sweep_nan_detuning"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW + (
        "grid.delta_max_mhz = inf\ngrid.n_points = 16384\n")),
                 2, "CONFIG_BAD_VALUE",
                 "grid.delta_max_mhz = inf: must be positive and below",
                 id="grid_span_infinite"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW + (
        "grid.delta_max_mhz = 1e300\ngrid.n_points = 16384\n")),
                 2, "CONFIG_BAD_VALUE",
                 "grid.delta_max_mhz = 1e300: must be positive and below",
                 id="grid_span_squares_past_overflow"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW + (
        "grid.delta_max_mhz = 1e-320\ngrid.n_points = 16384\n")),
                 2, "CONFIG_BAD_VALUE", "grid.delta_max_mhz = 1e-320: must "
                 "be wide enough to space 16384 points apart",
                 id="grid_span_too_small_to_space_its_points"),
    pytest.param(_probe_config("simulate",
                               SYSTEM_15MW + "grid.n_points = 16384\n"),
                 2, "CONFIG_BAD_VALUE", "grid.delta_max_mhz missing",
                 id="grid_half_set"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW + (
        "grid.delta_max_mhz = 600\ngrid.n_points = 8388608\n")),
                 2, "CONFIG_BAD_VALUE",
                 "grid.n_points = 8388608: passes the 4194304-point limit",
                 id="grid_above_the_cap"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW.replace(
        "0.013", "1e-9")), 4, "NUMERICAL", "gamma_dec = 1e-09",
                 id="auto_grid_above_the_cap"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_etalon = 2000\n"),
                 4, "NUMERICAL", "gamma_dec = 0.013 over +-10000 Gamma "
                 "(set by gamma_etalon = 2000) needs over 4194304 points",
                 id="auto_grid_span_set_by_the_etalon"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_etalon = 1e300\n"),
                 4, "NUMERICAL", "(set by gamma_etalon = 1e+300) needs "
                 "over 4194304 points",
                 id="auto_grid_span_past_any_count"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW.replace(
        "11.4", "1e160")), 2, "CONFIG_BAD_VALUE",
                 "system.omega_c = 1e160: must be >= 0 and below 1e+150",
                 id="system_omega_c_squares_past_overflow"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_doppler = 1e155\n"),
                 2, "CONFIG_BAD_VALUE",
                 "system.gamma_doppler = 1e155: must be positive and "
                 "below 1e+150",
                 id="system_gamma_doppler_squares_past_overflow"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.omega_p = 1e200\n"),
                 2, "CONFIG_BAD_VALUE",
                 "system.omega_p = 1e200: must be >= 0 and below 1e+150",
                 id="system_omega_p_squares_past_overflow"),
    pytest.param(_probe_fit_init(FIT_INIT.replace("= 12", "= 1e200")), 2,
                 "CONFIG_BAD_VALUE",
                 "fit.init_omega_c = 1e+200 is outside [0.001, 1e+150]",
                 id="fit_init_omega_c_past_the_cap"),
    # the kappa prefactor overflows: one error line and no warning
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.alpha = 1e308\n"),
                 4, "NUMERICAL", "spectral amplitude is not finite",
                 id="system_alpha_overflows_kappa"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.alpha = 1e200\n"
                               "system.omega_p = 1e149\n"),
                 4, "NUMERICAL", "spectral amplitude is not finite",
                 id="system_alpha_omega_p_overflow_kappa"),
    pytest.param(_probe_fit_init("system.alpha = 1e308\n"), 4, "NUMERICAL",
                 "spectral amplitude is not finite (at delta_c = 0.2 GHz)",
                 id="fit_alpha_overflows_kappa"),
    # gamma_doppler**2 underflows to 0: the tangents are not finite
    pytest.param(_probe_fit_init("system.gamma_doppler = 1e-300\n"
                                 + FIT_INIT),
                 4, "NUMERICAL", "spectral amplitude derivatives are not "
                 "finite (at delta_c = 0.2 GHz)", id="fit_tiny_doppler_width"),
    # finite tangents so large that J^T J overflows: no step is taken
    pytest.param(_probe_fit_init("system.gamma_doppler = 1e-100\n"
                                 + FIT_INIT),
                 4, "NUMERICAL", "normal matrix J^T J is not finite",
                 id="fit_normal_matrix_overflows"),
    # width tangents that overflow reach J^T J without a warning
    pytest.param(_probe_fit_init(FIT_INIT.replace("0.012", "1e149")), 4,
                 "NUMERICAL", "normal matrix J^T J is not finite at "
                 "iteration 1", id="fit_init_gamma_dec_overflows_tangents"),
    pytest.param(_probe_fit_init(FIT_INIT.replace("= 12", "= 1e149")), 4,
                 "NUMERICAL", "normal matrix J^T J is not finite at "
                 "iteration 1", id="fit_init_omega_c_overflows_tangents"),
    pytest.param(_probe_fit_init("system.omega_p = 1e149\n" + FIT_INIT), 4,
                 "NUMERICAL", "normal matrix J^T J is not finite at "
                 "iteration 1", id="fit_omega_p_overflows_tangents"),
    # a decoherence or etalon scale that divides to 0: one grid overflow
    # line, and no ZeroDivisionError or divide warning
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_etalon = 5e-324\n"),
                 4, "NUMERICAL", "gamma_etalon = 4.94066e-324 over +-20 Gamma "
                 "needs over 4194304 points", id="auto_grid_etalon_subnormal"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW.replace(
        "0.013", "5e-324")), 4, "NUMERICAL", "gamma_dec = 4.94066e-324 over",
                 id="auto_grid_gamma_dec_subnormal"),
    pytest.param(_probe_fit_init(FIT_INIT.replace("0.012", "5e-324")), 4,
                 "NUMERICAL", "fit grid at gamma_dec = 4.94066e-324: passes",
                 id="fit_init_gamma_dec_subnormal"),
    pytest.param(_probe_fit_init(FIT_INIT.replace("0.012", "1e-320")), 4,
                 "NUMERICAL", "fit grid at gamma_dec = 9.99989e-321: passes",
                 id="fit_init_gamma_dec_1e-320"),
    pytest.param(_probe_fit_init(FIT_INIT.replace(
        "0.012", "2.2250738585072014e-308")), 4, "NUMERICAL",
                 "fit grid at gamma_dec = 2.22507e-308: passes",
                 id="fit_init_gamma_dec_smallest_normal"),
    # 2 init_gamma_dec would overflow to a field the user never set
    pytest.param(_probe_fit_init(FIT_INIT.replace("0.012", "1e308")), 2,
                 "CONFIG_BAD_VALUE",
                 "fit.init_gamma_dec = 1e+308 is outside [0, 1e+150]",
                 id="fit_init_gamma_dec_past_the_cap"),
    # a Doppler width whose poles pass the float range: the amplitude is
    # not finite, without a warning
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_doppler = 1e-320\n"),
                 4, "NUMERICAL", "spectral amplitude is not finite",
                 id="system_gamma_doppler_subnormal"),
    pytest.param(_probe_config("simulate", SYSTEM_15MW
                               + "system.gamma_doppler = "
                               "2.2250738585072014e-308\n"),
                 4, "NUMERICAL", "spectral amplitude is not finite",
                 id="system_gamma_doppler_smallest_normal"),
    pytest.param(_probe_fit_init("system.gamma_doppler = 1e-320\n"), 4,
                 "NUMERICAL", "spectral amplitude is not finite (at "
                 "delta_c = 0.2 GHz)", id="fit_gamma_doppler_subnormal"),
    pytest.param(_probe_fit_init("system.gamma_doppler = "
                                 "2.2250738585072014e-308\n"), 4,
                 "NUMERICAL", "spectral amplitude is not finite (at "
                 "delta_c = 0.2 GHz)", id="fit_gamma_doppler_smallest_normal"),
    # an empty path would name the working directory
    pytest.param(_probe_config("fit", "fit.series =\n"), 2,
                 "CONFIG_BAD_VALUE", "fit.series = ", id="fit_series_empty"),
    pytest.param(_probe_config("analyze", "analyze.histogram =\n"), 2,
                 "CONFIG_BAD_VALUE", "analyze.histogram = ",
                 id="analyze_histogram_empty"),
]


def with_meta(histogram_path, tmp_path, key, value):
    """A copy of the histogram whose .meta sets ``key = value``."""
    path = tmp_path / "hist.csv"
    path.write_bytes(histogram_path.read_bytes())
    meta = histogram_path.with_suffix(".meta").read_text().splitlines()
    path.with_suffix(".meta").write_text("\n".join(
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in meta) + "\n")
    return path


class TestMetaValues:
    @pytest.mark.parametrize("key, value, reason", [
        ("singles_signal_per_s", "0", "must be positive"),
        ("singles_signal_per_s", "-5", "must be positive"),
        ("singles_signal_per_s", "nan", "must be finite"),
        ("singles_signal_per_s", "inf", "must be finite"),
        ("singles_probe_per_s", "0", "must be positive"),
        ("fiber_factor", "inf", "must be finite"),
        ("fiber_factor", "0.5", "must be >= 1"),
        ("d_s", "nan", "must be finite"),
        ("d_p", "1.5", "must lie in (0, 1]"),
        ("bin_width_ns", "nan", "must be finite"),
        ("accumulation_s", "inf", "must be finite"),
        ("accumulation_s", "lots", "not a number"),
        ("saturation_corrected", "maybe", "must be true or false"),
    ])
    def test_bad_value_names_key_and_file(self, tmp_path, capsys,
                                          histogram_path, key, value,
                                          reason):
        path = with_meta(histogram_path, tmp_path, key, value)
        status, err = run(capsys, "analyze", path, "--out", tmp_path / "out")
        assert status == 3
        assert err == [f"error: DATA_PARSE {key} = {value}: {reason} "
                       "(hist.meta)"]

    def test_zero_pair_rate_round_trips(self, tmp_path, capsys):
        # the default singles rates stay positive at a zero pair rate
        path = tmp_path / "flat.csv"
        save_histogram(make_synthetic_histogram(0.0, 20.0, DetectionChain(),
                                                noiseless=True), path)
        status, err = run(capsys, "analyze", path, "--out", tmp_path / "out")
        assert status == 0
        assert err == ["warning: NO_WAVEPACKET no coincidence peak above "
                       "background"]
        observables = (tmp_path / "out" / "observables.csv").read_text()
        assert "h_p,0.0,,true" in observables.splitlines()

    def test_pair_rate_above_singles_warns(self, tmp_path, capsys,
                                           histogram_path):
        path = with_meta(histogram_path, tmp_path, "singles_signal_per_s", "1")
        status, err = run(capsys, "analyze", path, "--out", tmp_path / "out")
        assert status == 0
        assert err == ["warning: INCONSISTENT_RATES pair rate exceeds "
                       "singles rate; h_p omitted"]
        observables = (tmp_path / "out" / "observables.csv").read_text()
        assert "h_p" not in observables


class TestProbeInputs:
    @pytest.mark.parametrize("build, status, code, text", PROBES)
    def test_documented_status_and_one_error_line(self, tmp_path, run_cli,
                                                  build, status, code, text):
        got, err = run_cli(*build(tmp_path))
        assert got == status
        assert len(err) == 1, err
        assert_one_error_line(err, code)
        assert text in err[-1]
        # the remedy for an unusable default background window
        remedy = code == "DATA_BAD_VALUE"
        assert ("set analyze.background_lo_ns and analyze.background_hi_ns"
                in err[-1]) == remedy


def _error_classes():
    seen, todo = [], [BiphotonError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def test_every_error_class_has_a_code_and_status():
    classes = _error_classes()
    assert ConfigError in classes
    for cls in classes:
        assert isinstance(cls.code, str) and cls.code.isupper(), cls
        assert cls.status in (2, 3, 4), cls


class TestSweepFailures:
    @pytest.fixture
    def failing_at_1ghz(self, monkeypatch):
        real_predict = biphoton.forward.predict

        def install(exc):
            def predict(params, **kwargs):
                if params.delta_c == ghz_to_gamma(1.0):
                    raise exc
                return real_predict(params, **kwargs)
            monkeypatch.setattr(biphoton.forward, "predict", predict)

        return install

    def test_package_error_becomes_an_error_row(self, tmp_path, capsys,
                                                failing_at_1ghz, tables):
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
        assert_tables_match_oracle(tables, tmp_path)

    def test_detuning_sweep_keeps_failures_in_place(self, failing_at_1ghz,
                                                     params_15mw):
        exc = ParameterError("no good")
        failing_at_1ghz(exc)
        results = list(biphoton.forward.detuning_sweep(
            params_15mw, ghz_to_gamma(np.array([0.5, 1.0, 0.5]))))
        assert results[1] is exc
        assert results[0].rg_arb == results[2].rg_arb > 0

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
