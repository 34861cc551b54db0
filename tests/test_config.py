"""Run configuration: parsing, strictness, typed accessors, error codes."""

import inspect
from pathlib import Path

import numpy as np
import pytest

from biphoton.config import (KNOWN_KEYS, ConfigError, RunConfig,
                             comma_list, file_path)
from biphoton.fitting import FitOptions
from biphoton.params import SystemParams, coupling_15mw_params
from biphoton.units import mhz_to_gamma
from biphoton.wavepacket import DetuningGrid


def load(tmp_path, text, strict=False):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return RunConfig.load(path, strict=strict)


def keys_of(section, unit_suffix):
    """The ``section.*`` keys of KNOWN_KEYS, without prefix or unit."""
    return {key.removeprefix(section + ".").removesuffix(unit_suffix)
            for key in KNOWN_KEYS if key.startswith(section + ".")}


@pytest.mark.parametrize("make, section, unit_suffix", [
    pytest.param(SystemParams, "system", "_ghz",
                 id="SystemParams-system-_ghz"),
    pytest.param(DetuningGrid.spanning, "grid", "_mhz",
                 id="DetuningGrid-grid-_mhz")])
def test_every_field_has_a_key(make, section, unit_suffix):
    """Each parameter of the constructor the config calls has its key."""
    assert (set(inspect.signature(make).parameters)
            == keys_of(section, unit_suffix))


class TestLoad:
    def test_comments_blank_lines_and_whitespace(self, tmp_path):
        cfg = load(tmp_path, "# header\n\n  system.b =  0.375  # inline\n"
                             "fit.max_iterations=4\n")
        assert cfg.values == {"system.b": "0.375", "fit.max_iterations": "4"}
        assert cfg.warnings == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.load(tmp_path / "absent.cfg")
        assert excinfo.value.code == "CONFIG_NOT_FOUND"

    def test_line_without_equals_names_its_line(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, "system.b = 0.3\nsystem.omega_c 11.4\n")
        assert excinfo.value.code == "CONFIG_BAD_LINE"
        assert excinfo.value.detail == "run.cfg:2"

    @pytest.mark.parametrize("key", [
        "quadrature.method", "quadrature.trapezoid_points",
        "quadrature.panel_tolerance", "quadrature.support_halfwidth",
        "output.oversample", "system.typo"])
    def test_unknown_keys(self, tmp_path, key):
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, f"{key} = 1\n", strict=True)
        assert excinfo.value.code == "CONFIG_UNKNOWN_KEY"
        assert excinfo.value.detail == key
        cfg = load(tmp_path, f"{key} = 1\nsystem.b = 0.3\n")
        assert cfg.values == {"system.b": "0.3"}
        assert cfg.warnings == [f"ignoring unknown config key {key!r}"]

    def test_unknown_key_before_a_malformed_line(self, tmp_path):
        # the reader is lazy: in strict mode the first failing line wins
        text = "system.typo = 1\nsystem.omega_c 11.4\n"
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, text, strict=True)
        assert excinfo.value.code == "CONFIG_UNKNOWN_KEY"
        assert excinfo.value.detail == "system.typo"
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, text)
        assert excinfo.value.code == "CONFIG_BAD_LINE"
        assert excinfo.value.detail == "run.cfg:2"

    def test_repeated_unknown_key_warns_once_per_line(self, tmp_path):
        cfg = load(tmp_path, "system.typo = 1\nsystem.b = 0.3\n"
                             "system.typo = 2\n")
        assert cfg.values == {"system.b": "0.3"}
        assert cfg.warnings == [
            "ignoring unknown config key 'system.typo'"] * 2


class TestAccessors:
    def test_typed_values_and_defaults(self, tmp_path):
        cfg = load(tmp_path, "fit.max_iterations = 7\n"
                             "sweep.delta_c_ghz = 0.5, 1.0,2\n")
        assert cfg.get("fit.max_iterations", int) == 7
        assert cfg.get("fit.max_iterations") == "7"
        assert cfg.get("fit.init_b", float, 0.3) == 0.3
        assert cfg.get("sweep.delta_c_ghz", comma_list(float)) == \
            [0.5, 1.0, 2.0]
        assert cfg.grid_hint() is None

    def test_group_all_or_none(self, tmp_path):
        casts = {"analyze.background_lo_ns": float,
                 "analyze.background_hi_ns": float}
        assert load(tmp_path, "system.b = 0.3\n").get_group(casts) is None
        cfg = load(tmp_path, "analyze.background_hi_ns = 2\n"
                             "analyze.background_lo_ns = 1\n")
        assert cfg.get_group(casts) == [1.0, 2.0]
        cfg = load(tmp_path, "analyze.background_lo_ns = 1\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.get_group(casts)
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail.startswith(
            "analyze.background_hi_ns missing")

    def test_bad_value(self, tmp_path):
        cfg = load(tmp_path, "fit.max_iterations = many\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.get("fit.max_iterations", int)
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == "fit.max_iterations = many"

    def test_empty_path_names_its_key(self, tmp_path):
        cfg = load(tmp_path, "fit.series =\nanalyze.histogram = h.csv\n")
        assert cfg.get("analyze.histogram", file_path) == Path("h.csv")
        with pytest.raises(ConfigError) as excinfo:
            cfg.get("fit.series", file_path)
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == "fit.series = "

    def test_require(self, tmp_path):
        cfg = load(tmp_path, "system.b = 0.3\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.require("system.b", "fit.series")
        assert excinfo.value.code == "CONFIG_MISSING_KEY"
        assert excinfo.value.detail == "fit.series"


class TestSystemParams:
    def test_lab_units_match_the_operating_point(self, tmp_path):
        cfg = load(tmp_path, "system.b = 0.375\nsystem.omega_c = 11.4\n"
                             "system.gamma_dec = 0.013\n"
                             "system.delta_c_ghz = 1.0\n")
        assert cfg.system_params() == coupling_15mw_params(delta_c_ghz=1.0)

    def test_required_keys(self, tmp_path):
        cfg = load(tmp_path, "system.b = 0.375\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.system_params()
        assert excinfo.value.code == "CONFIG_MISSING_KEY"
        assert cfg.system_params(require=False).b == 0.375

    def test_out_of_range_value(self, tmp_path):
        cfg = load(tmp_path, "system.b = 1.5\nsystem.omega_c = 11.4\n"
                             "system.gamma_dec = 0.013\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.system_params()
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == "system.b = 1.5: must lie in [0, 1]"

    @pytest.mark.parametrize("line, detail", [
        ("system.delta_c_ghz = nan",
         "system.delta_c_ghz = nan: must be finite"),
        ("system.delta_p_ghz = -inf",
         "system.delta_p_ghz = -inf: must be finite"),
        ("system.gamma_dec = -1e-3", "system.gamma_dec = -1e-3: must be >= 0"),
        ("system.alpha = 0", "system.alpha = 0: must be positive")])
    def test_error_names_the_key_as_written(self, tmp_path, line, detail):
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, line + "\n").system_params(require=False)
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == detail


class TestBuild:
    FIT_KEYS = {"FitOptions.max_iterations": "fit.max_iterations",
                "FitOptions.freeze": "fit.freeze"}

    def test_value_passes_through(self, tmp_path):
        cfg = load(tmp_path, "fit.freeze = bb\n")
        assert cfg.build(lambda: FitOptions(7), self.FIT_KEYS) == \
            FitOptions(7)

    @pytest.mark.parametrize("text, make, detail", [
        ("fit.max_iterations = 0\n", lambda: FitOptions(0),
         "fit.max_iterations = 0: must be an integer >= 1"),
        ("fit.freeze = bb\n", lambda: FitOptions(freeze=("bb",)),
         "fit.freeze = bb: cannot freeze unknown parameters bb; the "
         "parameters are b, omega_c, gamma_dec, scale"),
        # a field no key in the config set is named as the package names it
        ("", lambda: FitOptions(0),
         "FitOptions.max_iterations = 0: must be an integer >= 1")])
    def test_error_names_the_key(self, tmp_path, text, make, detail):
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, text).build(make, self.FIT_KEYS)
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == detail


class TestGridAndSweep:
    def test_grid_hint_in_mhz(self, tmp_path):
        cfg = load(tmp_path, "grid.delta_max_mhz = 600\n"
                             "grid.n_points = 16384\n")
        grid = cfg.grid_hint()
        assert grid.spacing == 2.0 * mhz_to_gamma(600.0) / (16384 - 1)
        assert grid.n_points == 16384

    @pytest.mark.parametrize("text", [
        "grid.delta_max_mhz = 600\n",
        "grid.delta_max_mhz = 600\ngrid.n_points = 1000\n",
        "grid.delta_max_mhz = 600\ngrid.n_points = 1\n",
        "grid.delta_max_mhz = 600\ngrid.n_points = 8388608\n"])
    def test_grid_hint_errors(self, tmp_path, text):
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, text).grid_hint()
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert "grid.n_points" in excinfo.value.detail

    @pytest.mark.parametrize("value", ["inf", "nan", "-600", "0", "1e300"])
    def test_unsampleable_span(self, tmp_path, value):
        cfg = load(tmp_path, f"grid.delta_max_mhz = {value}\n"
                             "grid.n_points = 16384\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.grid_hint()
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == (
            f"grid.delta_max_mhz = {value}: must be positive and below "
            "1e+150 Gamma")

    def test_sweep_detunings(self, tmp_path):
        cfg = load(tmp_path, "sweep.delta_c_ghz = 0.0, 1.5\n")
        assert np.array_equal(cfg.sweep_detunings(), [0.0, 1.5])
        with pytest.raises(ConfigError) as excinfo:
            load(tmp_path, "sweep.delta_c_ghz = 1.5\n").sweep_detunings()
        assert excinfo.value.code == "CONFIG_SWEEP_TOO_SHORT"

    # 1e307 GHz is finite, but not in units of Gamma
    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e307",
                                       "-1e307"])
    def test_sweep_detunings_must_be_finite(self, tmp_path, entry):
        cfg = load(tmp_path, f"sweep.delta_c_ghz = 0.5, {entry}, 1.5\n")
        with pytest.raises(ConfigError) as excinfo:
            cfg.sweep_detunings()
        assert excinfo.value.code == "CONFIG_BAD_VALUE"
        assert excinfo.value.detail == (
            f"sweep.delta_c_ghz = 0.5, {entry}, 1.5: must all be finite")
