"""Residuals, the series generator, and the damped least-squares fitter.

Every test works on small inputs so the suite stays fast: the fits run
on one noise-free 5-point series at the 15 mW operating point, with
short iteration budgets where convergence is not the point.
"""

import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import biphoton.fitting
import biphoton.forward
import biphoton.kernels
from biphoton.config import ConfigError
from biphoton.errors import ExtractionError, GridOverflowError, ParameterError
from biphoton.forward import predict
from biphoton.fitting import (_LOWER, _UPPER, PARAM_NAMES, DetuningSeries,
                              FitOptions, Theta, _ForwardModel, _gradient,
                              _chi2, _linearize, _residual_vector,
                              apply_multiplicative_noise, default_init,
                              fit_series, format_fit_report, residuals,
                              synthesize_series)
from biphoton.params import SystemParams
from biphoton.units import ghz_to_gamma, tau_to_ns
from biphoton.wavepacket import _CHUNK, DetuningGrid

THETA_TRUE = Theta(b=0.375, omega_c=11.4, gamma_dec=0.013, scale=2.0e9)
DETUNINGS = [0.2, 0.6, 1.0, 1.5, 2.2]
# the starting point of most fits below
INIT = Theta(b=0.35, omega_c=12.0, gamma_dec=0.012, scale=1.8e9)


def central_difference_jacobian(x, series, model, rel_step=1e-6, floor=1e-4):
    """The residuals' Jacobian by central differences, the fitter's own
    method before it had exact derivatives: step rel_step * max(|x|,
    floor) in each entry, one-sided where a bound is closer.

    The widths come from ``fwhm``'s linear interpolation, which has kinks
    where the peak or a bracketing sample of the wave packet changes; at
    gamma_dec = 0 and 0.002 a step of 1e-4 relative already straddles one,
    hence the small step.  The floor keeps the step at gamma_dec = 0 at
    1e-10, as the fitter had it.
    """
    def residual_vector(theta):
        return _residual_vector(theta, series, *model(theta)[:2])

    f0 = residual_vector(x)
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), floor)
        up = min(h, _UPPER[i] - x[i])
        dn = min(h, x[i] - _LOWER[i])
        x_hi, x_lo = x.copy(), x.copy()
        x_hi[i] += up
        x_lo[i] -= dn
        r_hi = residual_vector(x_hi) if up > 0 else f0
        r_lo = residual_vector(x_lo) if dn > 0 else f0
        jac[:, i] = (r_hi - r_lo) / (up + dn)
    return jac


@pytest.fixture(scope="module")
def clean_series():
    return synthesize_series(THETA_TRUE, DETUNINGS, noise=0.0, seed=123)


@pytest.fixture(scope="module")
def rescaled_fits():
    """Fits from INIT of a 2 %-noisy series, and of the same series with
    its rates and their error bars 1e6 times larger."""
    series = synthesize_series(THETA_TRUE, DETUNINGS, noise=0.02, seed=7)
    big = replace(series, rg=1e6 * series.rg, rg_err=1e6 * series.rg_err)
    return (fit_series(series, init=INIT),
            fit_series(big, init=INIT._replace(scale=1e6 * INIT.scale)))


class TestSeries:
    def test_too_few_points(self):
        with pytest.raises(ParameterError, match="4"):
            DetuningSeries(delta_c_ghz=np.array([0.1, 0.5, 1.0]),
                           rg=np.ones(3), rg_err=np.ones(3),
                           tau_w_ns=np.ones(3), tau_w_err=np.ones(3))

    def test_duplicate_detunings(self):
        with pytest.raises(ParameterError, match="distinct"):
            DetuningSeries(delta_c_ghz=np.array([0.1, 0.5, 0.5, 1.0]),
                           rg=np.ones(4), rg_err=np.ones(4),
                           tau_w_ns=np.ones(4), tau_w_err=np.ones(4))

    def test_nonpositive_errors(self):
        with pytest.raises(ParameterError, match="error"):
            DetuningSeries(delta_c_ghz=np.array([0.1, 0.5, 0.9, 1.0]),
                           rg=np.ones(4), rg_err=np.zeros(4),
                           tau_w_ns=np.ones(4), tau_w_err=np.ones(4))

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "5"])
    def test_max_iterations_must_be_a_positive_integer(self, n):
        with pytest.raises(ParameterError, match="max_iterations"):
            FitOptions(max_iterations=n)

    def test_max_iterations_accepts_numpy_integers(self):
        assert FitOptions(max_iterations=np.int64(3)).max_iterations == 3

    def test_nan_error_bar(self):
        with pytest.raises(ParameterError, match="error"):
            DetuningSeries(delta_c_ghz=np.array([0.1, 0.5, 0.9, 1.0]),
                           rg=np.ones(4), rg_err=np.ones(4),
                           tau_w_ns=np.ones(4),
                           tau_w_err=np.array([1.0, 1.0, np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["delta_c_ghz", "rg", "rg_err",
                                        "tau_w_ns", "tau_w_err"])
    def test_non_finite_entry_names_its_column(self, column, bad):
        columns = {"delta_c_ghz": np.array([0.1, 0.5, 0.9, 1.0]),
                   "rg": np.ones(4), "rg_err": np.ones(4),
                   "tau_w_ns": np.ones(4), "tau_w_err": np.ones(4)}
        columns[column][2] = bad
        # \b: the rate column is not named by its error bars' name
        with pytest.raises(ParameterError, match=rf"\b{column}\b"):
            DetuningSeries(**columns)


class TestSynthesize:
    def test_noiseless_is_exact_forward_model(self, clean_series):
        r = residuals(THETA_TRUE, clean_series)
        assert np.max(np.abs(r)) < 1e-6

    def test_fixed_seed_bit_identical(self):
        a = synthesize_series(THETA_TRUE, DETUNINGS, noise=0.02, seed=7)
        b = synthesize_series(THETA_TRUE, DETUNINGS, noise=0.02, seed=7)
        assert np.array_equal(a.rg, b.rg)
        assert np.array_equal(a.tau_w_ns, b.tau_w_ns)

    def test_noise_statistics(self):
        rng = np.random.default_rng(2024)
        draws = apply_multiplicative_noise(np.full(1000, 5.0), 0.02, rng)
        rel_sigma = np.std(draws / 5.0 - 1.0)
        assert 0.018 <= rel_sigma <= 0.022

    def test_error_bars_match_noise(self):
        s = synthesize_series(THETA_TRUE, DETUNINGS, noise=0.05, seed=1)
        assert np.allclose(s.rg_err / np.abs(s.rg / (1 + 0)), 0.05, atol=0.02)


class TestResiduals:
    def test_scale_shift_touches_only_rates(self, clean_series):
        base = residuals(THETA_TRUE, clean_series)
        doubled = residuals(THETA_TRUE._replace(scale=2 * THETA_TRUE.scale),
                            clean_series)
        # width residuals unchanged
        assert np.array_equal(base[1::2], doubled[1::2])
        # rate residuals shift exactly by the extra predicted rate
        extra = (doubled[0::2] - base[0::2]) * clean_series.rg_err
        predicted = THETA_TRUE.scale * (clean_series.rg /
                                        THETA_TRUE.scale)
        assert np.allclose(extra, predicted, rtol=1e-10)

    def test_point_reordering_invariance(self, clean_series):
        perm = [3, 0, 4, 1, 2]
        shuffled = DetuningSeries(
            delta_c_ghz=clean_series.delta_c_ghz[perm],
            rg=clean_series.rg[perm], rg_err=clean_series.rg_err[perm],
            tau_w_ns=clean_series.tau_w_ns[perm],
            tau_w_err=clean_series.tau_w_err[perm],
            fixed=clean_series.fixed)
        import math
        r1 = residuals(THETA_TRUE, clean_series)
        r2 = residuals(THETA_TRUE, shuffled)
        chi1 = math.fsum(float(v) ** 2 for v in r1)
        chi2 = math.fsum(float(v) ** 2 for v in r2)
        assert chi1 == chi2

    @pytest.mark.parametrize("exc", [
        GridOverflowError("no decay"),
        ConfigError("CONFIG_BAD_VALUE", "two-argument constructor")])
    def test_failure_names_the_failing_detuning(self, clean_series,
                                                monkeypatch, exc):
        real_predict = biphoton.forward.predict
        bad_delta_c = ghz_to_gamma(1.5)

        def predict(params, **kwargs):
            if params.delta_c == bad_delta_c:
                raise exc
            return real_predict(params, **kwargs)

        monkeypatch.setattr(biphoton.forward, "predict", predict)
        with pytest.raises(type(exc)) as excinfo:
            residuals(THETA_TRUE, clean_series)
        assert excinfo.value is exc
        assert str(excinfo.value).endswith("(at delta_c = 1.5 GHz)")
        for other in (0.2, 0.6, 1.0, 2.2):
            assert f"{other} GHz" not in str(excinfo.value)

    def test_first_failure_in_detuning_order_propagates(self, clean_series,
                                                        monkeypatch):
        real_predict = biphoton.forward.predict
        failures = {ghz_to_gamma(2.2): ParameterError("late"),
                    ghz_to_gamma(0.6): ParameterError("early")}
        calls = []

        def predict(params, **kwargs):
            calls.append(params.delta_c)
            if params.delta_c in failures:
                raise failures[params.delta_c]
            return real_predict(params, **kwargs)

        monkeypatch.setattr(biphoton.forward, "predict", predict)
        with pytest.raises(ParameterError) as excinfo:
            residuals(THETA_TRUE, clean_series)
        assert str(excinfo.value) == "early (at delta_c = 0.6 GHz)"
        assert calls == list(ghz_to_gamma(np.array([0.2, 0.6])))

    def test_bounds_enforced(self, clean_series):
        with pytest.raises(ParameterError) as excinfo:
            residuals(Theta(-0.1, 11.4, 0.013, 1.0), clean_series)
        assert str(excinfo.value) == "b = -0.1 is outside [0, 1]"
        # every entry out of bounds is named, NaN included
        with pytest.raises(ParameterError) as excinfo:
            fit_series(clean_series, init=Theta(2.0, 11.4, -1.0, np.nan))
        assert str(excinfo.value) == (
            "b = 2.0 is outside [0, 1]; gamma_dec = -1.0 is outside "
            "[0, 1e+150]; scale = nan is outside [1e-300, inf]")


class TestForwardModel:
    # building the model sizes its grid without sampling anything: the
    # auto grid of twice the initial gamma_dec, widened once, which at
    # gamma_dec = 0 and at the floor (0.03) is that of gamma_dec itself
    @pytest.mark.parametrize("gamma_dec, n_points", [(0.0, 2**15),
                                                     (0.013, 2**15),
                                                     (0.03, 2**15)])
    def test_grid_from_the_initial_gamma_dec(self, gamma_dec, n_points):
        model = _ForwardModel(SystemParams(), DETUNINGS, gamma_dec)
        assert model.grid.n_points == n_points
        # the span of the auto grid of gamma_dec itself, widened: 89.0014
        if gamma_dec == 0.013:
            assert model.grid.delta_max == pytest.approx(89.0014, abs=0.01)

    def test_default_init_fit_shares_one_model(self, clean_series,
                                               monkeypatch):
        # the starting point's scan and the fit run on the same model
        real = biphoton.fitting._ForwardModel
        built = []

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(biphoton.fitting, "_ForwardModel", counted)
        fit_series(clean_series, options=FitOptions(max_iterations=1))
        assert len(built) == 1

    def test_model_is_bit_identical_to_a_fresh_one(self):
        model = _ForwardModel(SystemParams(), DETUNINGS, THETA_TRUE.gamma_dec)
        model(np.asarray(THETA_TRUE))
        moved = np.asarray(THETA_TRUE) * np.array([1.1, 0.97, 1.2, 1.0])
        rg, tw, _, _ = model(moved)
        fresh = _ForwardModel(SystemParams(), DETUNINGS, THETA_TRUE.gamma_dec)
        rg_fresh, tw_fresh, _, _ = fresh(moved)
        assert np.array_equal(rg, rg_fresh)
        assert np.array_equal(tw, tw_fresh)
        # and equal to a plain predict on the model's grid
        params = SystemParams().replace(b=moved[0], omega_c=moved[1],
                                        gamma_dec=moved[2],
                                        delta_c=ghz_to_gamma(DETUNINGS[-1]))
        plain = predict(params, grid_hint=model.grid)
        assert plain.rg_arb == rg[-1] and plain.tau_w_ns == tw[-1]

    @pytest.mark.parametrize("theta", [
        THETA_TRUE, Theta(b=0.315, omega_c=16.6, gamma_dec=0.010, scale=1.0)],
        ids=["15mW", "30mW"])
    def test_fit_grid_resolves_what_the_fit_reads(self, theta):
        """R_g and tau_w and their derivatives on the fit grid match those
        on a grid of a quarter of its spacing over the same span."""
        model = _ForwardModel(SystemParams(), DETUNINGS, theta.gamma_dec)
        rg, tw, d_rg, d_tw = model(np.asarray(theta), derivatives=True)
        fine = DetuningGrid(model.grid.spacing / 4, 4 * model.grid.n_points)
        params = SystemParams().replace(b=theta.b, omega_c=theta.omega_c,
                                        gamma_dec=theta.gamma_dec)
        for i, dc in enumerate(model.delta_c):
            ref = predict(params.replace(delta_c=float(dc)), grid_hint=fine,
                          derivatives=True)
            assert ref.amplitude.grid == fine
            assert rg[i] == pytest.approx(ref.rg_arb, rel=1e-10, abs=0)
            assert tw[i] == pytest.approx(ref.tau_w_ns, rel=1e-9, abs=0)
            assert np.allclose(d_rg[i], ref.d_rg_arb, rtol=1e-8, atol=0)
            assert np.allclose(d_tw[i], tau_to_ns(ref.d_tau_w), rtol=1e-6,
                               atol=0)

    def test_line_failure_names_its_detuning(self, clean_series):
        # finite in GHz, but inf in units of Gamma: refused before the
        # model builds a line, with no overflow warning (the suite fails
        # a test on any RuntimeWarning)
        dc = clean_series.delta_c_ghz.copy()
        dc[1] = 1e307
        with pytest.raises(ParameterError) as excinfo:
            fit_series(replace(clean_series, delta_c_ghz=dc), init=INIT)
        assert str(excinfo.value) == (
            "delta_c_ghz = 1e+307 is not finite in units of Gamma")

    def test_synthesized_detuning_past_gamma_units(self):
        with pytest.raises(ParameterError) as excinfo:
            synthesize_series(THETA_TRUE, [0.2, -1e307, 1.0, 1.5], noise=0.0,
                              seed=0)
        assert str(excinfo.value) == (
            "delta_c_ghz = -1e+307 is not finite in units of Gamma")

    # 5e-5 sizes a grid at the cap, which the fit widens past it; 1e-5
    # passes the cap at once; 1e-4 widens to the cap itself, and fits
    @pytest.mark.parametrize("gamma_dec", [5e-5, 1e-5])
    def test_too_narrow_initial_gamma_dec(self, gamma_dec):
        with pytest.raises(GridOverflowError) as excinfo:
            _ForwardModel(SystemParams(), DETUNINGS, gamma_dec)
        assert str(excinfo.value) == (
            f"fit grid at gamma_dec = {gamma_dec:g}: passes the "
            "4194304-point limit")


class TestJacobian:
    """The exact Jacobian against central differences of the residuals."""

    @pytest.fixture
    def merged_poles(self, monkeypatch):
        """The sizes of the merged-pole sets kappa's derivative meets."""
        real = biphoton.kernels.gaussian_pole_difference
        sizes = []

        def counted(zeta0, zeta1):
            sizes.append(np.size(zeta0))
            return real(zeta0, zeta1)

        monkeypatch.setattr(biphoton.kernels, "gaussian_pole_difference",
                            counted)
        return sizes

    # the generating theta, the tests' init, and gamma_dec at its lower
    # bound, where the differences in gamma_dec are one-sided
    @pytest.mark.parametrize("theta", [THETA_TRUE, INIT,
                                       THETA_TRUE._replace(gamma_dec=0.0)],
                             ids=["theta_true", "init", "gamma_zero"])
    def test_matches_central_differences(self, clean_series, theta,
                                         merged_poles):
        x = np.asarray(theta, dtype=float)
        model = _ForwardModel(clean_series.fixed, DETUNINGS, INIT.gamma_dec)
        _, exact = _linearize(x, clean_series, model(x, derivatives=True))
        # kappa's dressed and pump poles merge on some samples here
        assert sum(merged_poles) > 0
        oracle = central_difference_jacobian(x, clean_series, model)
        rel = (np.linalg.norm(exact - oracle, axis=0)
               / np.linalg.norm(oracle, axis=0))
        assert np.all(rel <= 1e-5), rel

    def test_frozen_columns_are_left_out(self, clean_series):
        x = np.asarray(INIT, dtype=float)
        model = _ForwardModel(clean_series.fixed, DETUNINGS, INIT.gamma_dec)
        values = model(x, derivatives=True)
        r, full = _linearize(x, clean_series, values)
        # J has every column; the step's mask leaves the frozen ones out
        assert full.shape == (2 * clean_series.n_points, 4)
        assert full.flags.f_contiguous
        free = np.array([False, True, False, True])
        assert np.array_equal(_gradient(x, r, full, free)[1], free)
        # the scale moves the rates alone, by the model rate
        rg = values[0]
        assert np.array_equal(full[0::2, 3], rg / clean_series.rg_err)
        assert not full[1::2, 3].any()

    @pytest.mark.parametrize("theta", [THETA_TRUE,
                                       Theta(0.3, 12.5, 0.011, 1.5e9)])
    def test_linearized_pass_reproduces_the_forward_values(self, theta):
        model = _ForwardModel(SystemParams(), DETUNINGS, THETA_TRUE.gamma_dec)
        params = SystemParams().replace(b=theta.b, omega_c=theta.omega_c,
                                        gamma_dec=theta.gamma_dec)
        for dc in model.delta_c:
            at = params.replace(delta_c=float(dc))
            plain = predict(at, grid_hint=model.grid)
            lin = predict(at, grid_hint=model.grid, derivatives=True)
            assert plain.d_rg_arb is None and plain.d_tau_w is None
            assert lin.d_rg_arb.shape == lin.d_tau_w.shape == (3,)
            for name in ("rg_arb", "tau_w", "delta_omega"):
                assert getattr(lin, name) == getattr(plain, name), name
            assert np.array_equal(lin.wavepacket.g2, plain.wavepacket.g2)
        # and so the fitter's values, with derivatives or without
        x = np.asarray(theta)
        with_tangents = model(x, derivatives=True)[:2]
        fresh = _ForwardModel(SystemParams(), DETUNINGS, THETA_TRUE.gamma_dec)
        for got, want in zip(with_tangents, fresh(x)[:2]):
            assert np.array_equal(got, want)


class TestOnePassPerTheta:
    def test_amplitude_evaluated_once_per_detuning(self, clean_series,
                                                   monkeypatch):
        """A fit samples each detuning's amplitude once per theta triple,
        derivatives included: every chunk of the grid exactly once."""
        real = biphoton.kernels._responses
        chunks = Counter()

        def counted(d, params):
            theta = (params.b, params.omega_c, params.gamma_dec)
            chunks[theta, params.delta_c, float(d[0]), d.size] += 1
            return real(d, params)

        monkeypatch.setattr(biphoton.kernels, "_responses", counted)
        fit_series(clean_series, init=INIT,
                   options=FitOptions(max_iterations=2))
        grid = _ForwardModel(clean_series.fixed, DETUNINGS,
                             INIT.gamma_dec).grid
        per_chunk = Counter()
        for (theta, dc, start, _), calls in chunks.items():
            per_chunk[theta, dc, start] += calls
        assert set(per_chunk.values()) == {1}
        assert {size for *_, size in chunks} == {_CHUNK}
        thetas = {theta for theta, *_ in per_chunk}
        # the init and at least one accepted step per iteration
        assert len(thetas) >= 3
        assert len(per_chunk) == (len(thetas) * len(DETUNINGS)
                                  * grid.n_points // _CHUNK)


class TestFit:
    def test_recovery_from_nearby_init(self, clean_series):
        init = Theta(b=0.35, omega_c=12.0, gamma_dec=0.012, scale=1.8e9)
        result = fit_series(clean_series, init=init)
        theta = result.theta
        assert abs(theta.b - THETA_TRUE.b) < 0.02
        assert abs(theta.omega_c / THETA_TRUE.omega_c - 1) < 0.02
        assert abs(theta.gamma_dec / THETA_TRUE.gamma_dec - 1) < 0.10
        assert abs(theta.scale / THETA_TRUE.scale - 1) < 0.02
        assert result.converged
        assert result.iterations >= 1
        # every iterate respected the bounds; spot check the solution
        assert 0.0 <= theta.b <= 1.0
        assert theta.omega_c > 0 and theta.gamma_dec >= 0

    def test_result_is_reproducible(self, clean_series):
        init = Theta(b=0.3, omega_c=12.5, gamma_dec=0.011, scale=1.5e9)
        opts = FitOptions(max_iterations=6)
        r1 = fit_series(clean_series, init=init, options=opts)
        r2 = fit_series(clean_series, init=init, options=opts)
        assert r1.theta == r2.theta
        assert r1.chi2 == r2.chi2

    def test_result_does_not_depend_on_blas_threads(self):
        """One fit, run at 1 and at 2 BLAS threads, gives the same bits."""
        script = (
            "import numpy as np\n"
            "from biphoton.fitting import (FitOptions, Theta, fit_series,\n"
            "                              synthesize_series)\n"
            f"series = synthesize_series({THETA_TRUE!r}, {DETUNINGS!r},\n"
            "                           noise=0.02, seed=7)\n"
            f"r = fit_series(series, init={INIT!r},\n"
            "               options=FitOptions(max_iterations=2))\n"
            "print(repr(tuple(r.theta)), repr(r.chi2),\n"
            "      r.per_point.tobytes().hex())\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_errors_follow_the_units_of_the_rates(self, rescaled_fits):
        """Rates and their error bars 1e6 times larger scale the scale's
        error by 1e6 and leave b's: pinv drops no column of the Jacobian
        for its units alone."""
        base, scaled = rescaled_fits
        assert scaled.theta_err.scale == pytest.approx(
            1e6 * base.theta_err.scale, rel=1e-6)
        assert scaled.theta_err.b == pytest.approx(base.theta_err.b,
                                                   rel=1e-9)

    def test_zero_amplitude_at_the_start(self, clean_series):
        # with the pump off, A is zero at every detuning
        series = replace(clean_series,
                         fixed=clean_series.fixed.replace(omega_p=0.0))
        with pytest.raises(ExtractionError) as excinfo:
            fit_series(series, init=INIT)
        assert str(excinfo.value) == ("zero amplitude: no width to "
                                      "differentiate (at delta_c = 0.2 GHz)")

    def test_zero_amplitude_trial_is_rejected(self, clean_series,
                                              monkeypatch):
        """A trial clipped to b = 1, where kappa = 0, has a NaN chi2: the
        loop rejects it, without raising, and tries a shorter step."""
        real = _ForwardModel.__call__
        b_seen = []

        def first_trial_at_b_one(model, theta, derivatives=False):
            b_seen.append(theta[0])
            if len(b_seen) == 2:
                theta = np.array([1.0, theta[1], theta[2]])
            return real(model, theta, derivatives)

        monkeypatch.setattr(_ForwardModel, "__call__", first_trial_at_b_one)
        result = fit_series(clean_series, init=INIT,
                            options=FitOptions(max_iterations=1))
        assert len(b_seen) == 3 and b_seen[0] == INIT.b
        assert result.theta.b == b_seen[2] != b_seen[1]
        assert np.isfinite(result.chi2)

    def test_iteration_budget_returns_best_so_far(self, clean_series):
        init = Theta(b=0.1, omega_c=18.0, gamma_dec=0.03, scale=5e8)
        result = fit_series(clean_series, init=init,
                            options=FitOptions(max_iterations=1))
        assert result.converged is False
        assert result.stop_reason == "iteration_budget"
        assert np.isfinite(result.chi2)

    def test_freezing_b_degrades_impurity_data_fit(self, clean_series):
        init = Theta(b=0.35, omega_c=12.0, gamma_dec=0.012, scale=1.8e9)
        free = fit_series(clean_series, init=init)
        frozen = fit_series(
            clean_series, init=init._replace(b=0.0),
            options=FitOptions(freeze=("b",)))
        assert frozen.chi2 > 10.0 * max(free.chi2, 1e-12)

    @pytest.mark.parametrize("freeze", [("b",), ("gamma_dec",),
                                        ("omega_c", "gamma_dec"),
                                        ("b", "omega_c", "gamma_dec")],
                             ids="+".join)
    def test_frozen_entries_keep_their_init(self, clean_series, freeze):
        result = fit_series(clean_series, init=INIT, options=FitOptions(
            max_iterations=2, freeze=freeze))
        for name in PARAM_NAMES:
            value, err = (getattr(result.theta, name),
                          getattr(result.theta_err, name))
            if name in freeze:
                assert value == getattr(INIT, name) and err == 0.0, name
            else:
                assert err > 0.0, name

    def test_report_format(self, clean_series):
        init = Theta(b=0.35, omega_c=12.0, gamma_dec=0.012, scale=1.8e9)
        result = fit_series(clean_series, init=init,
                            options=FitOptions(max_iterations=3))
        report = format_fit_report(result, clean_series)
        assert "per_point: delta_c_ghz,rg_meas,rg_pred,tauw_meas,tauw_pred" \
            in report
        assert f"stop_reason: {result.stop_reason}\n" in report
        assert report.count("\n") == 10 + clean_series.n_points

    def test_default_init_lands_in_basin(self, clean_series):
        init = default_init(clean_series)
        assert 4.0 <= init.omega_c <= 30.0
        assert init.scale > 0
        r = residuals(init, clean_series)
        assert np.all(np.isfinite(r))


class TestStopRule:
    """A fit stops when a full Gauss-Newton step would lower chi2 by no
    more than 1e-6, a test that rescaling the data does not move."""

    def test_scale_only_fit_reaches_the_closed_form_optimum(self,
                                                            clean_series):
        result = fit_series(clean_series, init=INIT, options=FitOptions(
            freeze=("b", "omega_c", "gamma_dec")))
        # the rates are linear in the scale, so its optimum is closed form
        model = _ForwardModel(clean_series.fixed, DETUNINGS, INIT.gamma_dec)
        rg, tw, _, _ = model(np.asarray(INIT))
        weight = clean_series.rg_err ** -2.0
        scale = (np.sum(weight * rg * clean_series.rg)
                 / np.sum(weight * rg * rg))
        best = _chi2(_residual_vector(INIT._replace(scale=scale),
                                      clean_series, rg, tw))
        assert result.stop_reason == "decrement" and result.converged
        assert abs(result.chi2 - best) <= 1e-6
        assert result.theta[:3] == INIT[:3]

    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_noisy_fits_converge_on_the_decrement(self, seed):
        series = synthesize_series(THETA_TRUE, DETUNINGS, noise=0.02,
                                   seed=seed)
        result = fit_series(series, init=INIT)
        assert result.stop_reason == "decrement" and result.converged
        assert result.chi2 <= _chi2(residuals(THETA_TRUE, series))

    def test_rescaled_rates_stop_the_same_way(self, rescaled_fits):
        base, scaled = rescaled_fits
        assert base.converged
        assert ((scaled.iterations, scaled.converged, scaled.stop_reason)
                == (base.iterations, base.converged, base.stop_reason))

    def test_clean_fit_takes_at_most_five_passes(self, clean_series,
                                                 monkeypatch):
        real = _ForwardModel.__call__
        passes = []

        def counted(model, theta, derivatives=False):
            passes.append(derivatives)
            return real(model, theta, derivatives)

        monkeypatch.setattr(_ForwardModel, "__call__", counted)
        result = fit_series(clean_series, init=INIT)
        assert result.stop_reason == "decrement" and result.converged
        assert len(passes) <= 5 and all(passes)

    def test_no_improving_step(self, clean_series, monkeypatch):
        # every trial theta has a NaN rate, so no damping lowers chi2
        real = _ForwardModel.__call__
        start = []

        def nan_after_the_start(model, theta, derivatives=False):
            if not start:
                start.append(real(model, theta, derivatives))
                return start[0]
            rg, tw, d_rg, d_tw = start[0]
            return np.full_like(rg, np.nan), tw, d_rg, d_tw

        monkeypatch.setattr(_ForwardModel, "__call__", nan_after_the_start)
        result = fit_series(clean_series, init=INIT)
        assert result.stop_reason == "no_improving_step"
        assert not result.converged and result.iterations == 1
        assert result.theta == INIT

    def test_chi2_stall(self, clean_series, monkeypatch):
        # with a relative tolerance of 1, every accepted step stalls; the
        # verdict then comes from the decrement at the step's theta
        monkeypatch.setattr(biphoton.fitting, "_CHI2_REL_TOL", 1.0)
        result = fit_series(clean_series, init=INIT)
        assert result.stop_reason == "chi2_stall"
        assert not result.converged and result.iterations == 1
        assert result.theta != INIT
