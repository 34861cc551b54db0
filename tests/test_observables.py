"""Observable extraction: widths, rates, ratios, and the detuning trends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.errors import (ExtractionError, InconsistentRatesError,
                             ParameterError)
from biphoton.forward import detuning_sweep, predict
from biphoton.observables import (DetectionChain, detected_to_generated,
                                  fwhm, fwhm_tangent, generation_rate,
                                  half_maximum, heralding_probability,
                                  sbr_from_g2, spectral_brightness)
from biphoton.units import ghz_to_gamma, mhz_to_gamma
from biphoton.wavepacket import sample_spectral_amplitude, wave_packet


class TestFwhm:
    def test_gaussian(self):
        t = np.linspace(-100.0, 100.0, 20001)
        sigma = 10.0
        width = fwhm(t, np.exp(-t**2 / (2 * sigma**2)))
        assert width == pytest.approx(2 * sigma * np.sqrt(2 * np.log(2)),
                                      rel=1e-3)
        assert width == pytest.approx(23.548, rel=1e-3)

    def test_lorentzian(self):
        t = np.linspace(-200.0, 200.0, 40001)
        half_width = 5.0
        width = fwhm(t, 1.0 / (1.0 + (t / half_width) ** 2))
        assert width == pytest.approx(10.0, rel=1e-3)

    def test_endpoint_peak_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ExtractionError, match="endpoint"):
            fwhm(t, np.exp(t))

    def test_missing_crossing_names_side(self):
        t = np.linspace(0.0, 1.0, 101)
        y = np.ones_like(t)
        y[50] = 2.0  # right side after the peak never falls below half? it
        # does; craft a curve flat at 0.9 on the right instead
        y = 0.9 * np.ones_like(t)
        y[50] = 1.0
        y[:50] = np.linspace(0.0, 0.9, 50)
        with pytest.raises(ExtractionError, match="right"):
            fwhm(t, y)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(1e-6, 1e6), shift=st.floats(-1e3, 1e3))
    def test_invariances(self, scale, shift):
        t = np.linspace(-30.0, 30.0, 4001)
        y = 1.0 / (1.0 + t**2)
        base = fwhm(t, y)
        assert fwhm(t + shift, y) == pytest.approx(base, rel=1e-12)
        assert fwhm(t, scale * y) == pytest.approx(base, rel=1e-12)

    def test_half_maximum_samples(self):
        t = np.linspace(-10.0, 10.0, 201)
        hm = half_maximum(t, np.exp(-((t - 0.31) / 2.0) ** 2))
        assert hm.peak == 103
        # first samples below half maximum, the half-width is 2 sqrt(ln 2)
        assert t[hm.right - 1] <= 0.31 + 2 * np.sqrt(np.log(2)) < t[hm.right]
        assert t[hm.left] < 0.31 - 2 * np.sqrt(np.log(2)) <= t[hm.left + 1]
        assert hm.indices == (hm.peak, hm.left + 1, hm.left, hm.right - 1,
                              hm.right)

    def test_tangent_matches_central_differences(self):
        # a skewed peak whose width, height and position all move with s
        t = np.linspace(-10.0, 10.0, 401)

        def curve(s):
            return (1.0 + s) * np.exp(-(t - 0.2 * s) ** 2 / (2.0 * s**2)
                                      - 0.1 * s * t)

        s, h = 1.7, 1e-7
        y = curve(s)
        hm = half_maximum(t, y)
        dy = (curve(s + h) - curve(s - h)) / (2 * h)
        got = fwhm_tangent(hm, t, y, dy[list(hm.indices)])
        want = (fwhm(t, curve(s + h)) - fwhm(t, curve(s - h))) / (2 * h)
        assert got == pytest.approx(want, rel=1e-6)


class TestGenerationRate:
    def test_zero_packet(self, params_15mw):
        wp = wave_packet(
            sample_spectral_amplitude(params_15mw.replace(omega_p=0.0)))
        assert generation_rate(wp) == 0.0

    def test_quadratic_in_pump_rabi_frequency(self, params_15mw):
        # A(delta) is linear in Omega_p through kappa_bar alone, so
        # doubling the pump quadruples the rate
        rates = [generation_rate(wave_packet(sample_spectral_amplitude(
            params_15mw.replace(omega_p=k * params_15mw.omega_p))))
            for k in (1.0, 2.0)]
        assert rates[1] == pytest.approx(4.0 * rates[0], rel=1e-12)

    def test_matches_parseval_value(self, params_15mw):
        sa = sample_spectral_amplitude(params_15mw)
        wp = wave_packet(sa)
        freq_side = np.trapezoid(np.abs(sa.amplitude) ** 2,
                                 sa.grid.values) / (2.0 * np.pi)
        assert generation_rate(wp) == pytest.approx(freq_side, rel=1e-6)


class TestHeralding:
    def test_equal_rates(self):
        assert heralding_probability(3.0, 3.0) == 1.0

    def test_table_row_resonant(self):
        # singles rate back-computed so the quoted 26.2% holds
        assert heralding_probability(1.79e5, 6.832e5) == pytest.approx(
            0.262, abs=5e-4)

    def test_table_row_detuned_inverts(self):
        singles = 6.42e5 / 0.799
        assert singles == pytest.approx(8.035e5, rel=1e-3)
        assert heralding_probability(6.42e5, singles) == pytest.approx(0.799)

    def test_rate_excess_raises(self):
        with pytest.raises(InconsistentRatesError):
            heralding_probability(2.0, 1.0)


class TestSbr:
    def test_flat_background(self):
        assert sbr_from_g2(np.ones(100)) == 0.0

    def test_resonant_table_value(self):
        g2 = np.ones(500)
        g2[250] = 13.4
        assert sbr_from_g2(g2) == pytest.approx(12.4)

    def test_detuned_table_value(self):
        g2 = np.ones(500)
        g2[250] = 7.8
        assert sbr_from_g2(g2) == pytest.approx(6.8)

    def test_unnormalized_curve_rejected(self):
        with pytest.raises(ParameterError, match="normalized"):
            sbr_from_g2(np.full(100, 250.0))


class TestDetectionChain:
    def test_unity_efficiencies(self):
        rates = detected_to_generated(1.0, DetectionChain(1.0, 1.0, 1.9))
        assert rates.fiber == 1.0
        assert rates.cell == pytest.approx(1.9)

    def test_table_row_arithmetic(self):
        rates = detected_to_generated(2187.7, DetectionChain(0.13, 0.094))
        assert rates.fiber == pytest.approx(1.79e5, rel=0.01)

    def test_linearity_in_efficiency(self):
        chain = DetectionChain(0.13, 0.094)
        halved = DetectionChain(0.13, 0.047)
        assert detected_to_generated(1.0, halved).fiber == pytest.approx(
            2.0 * detected_to_generated(1.0, chain).fiber)

    def test_validation(self):
        with pytest.raises(ParameterError):
            DetectionChain(d_s=0.0)
        with pytest.raises(ParameterError):
            DetectionChain(fiber_factor=0.5)


class TestSpectralBrightness:
    def test_best_setting(self):
        sb = spectral_brightness(6.42e5, mhz_to_gamma(1.83))
        assert sb == pytest.approx(3.51e5, rel=0.01)

    def test_high_power_resonant_setting(self):
        sb = spectral_brightness(5.8e5, mhz_to_gamma(3.2))
        assert sb == pytest.approx(1.8e5, rel=0.01)

    def test_zero_rate(self):
        assert spectral_brightness(0.0, mhz_to_gamma(1.0)) == 0.0


GHZ_GRID_COARSE = np.arange(0.1, 3.05, 0.29)


class TestDetuningTrends:
    def test_impurity_free_rate_decreases_outside_recovery_window(
            self, params_15mw):
        p = params_15mw.replace(b=0.0)
        low = [generation_rate(pr.wavepacket) for pr in detuning_sweep(
            p, ghz_to_gamma(np.arange(0.1, 0.55, 0.1)))]
        assert np.all(np.diff(low) < 0)
        high = [generation_rate(pr.wavepacket) for pr in detuning_sweep(
            p, ghz_to_gamma(np.arange(1.0, 3.05, 0.25)))]
        assert np.all(np.diff(high) < 0)
        # the 0.1 GHz end is the global maximum of the scan
        assert low[0] > max(high)

    @pytest.mark.xfail(
        strict=True,
        reason="the impurity-free model genuinely recovers ~2.8% between "
               "0.5 and 0.9 GHz as the coupling detuning exits the Doppler "
               "width (grid-independent; both kernel paths agree), so "
               "strict monotonicity over the whole scan cannot hold")
    def test_impurity_free_rate_strictly_decreasing_everywhere(
            self, params_15mw):
        p = params_15mw.replace(b=0.0)
        rates = [generation_rate(pr.wavepacket) for pr in detuning_sweep(
            p, ghz_to_gamma(np.arange(0.1, 3.05, 0.1)))]
        assert np.all(np.diff(rates) < 0)

    def test_impurity_rate_peaks_at_positive_detuning(self, params_15mw):
        rates = [generation_rate(pr.wavepacket) for pr in detuning_sweep(
            params_15mw, ghz_to_gamma(GHZ_GRID_COARSE))]
        r0 = generation_rate(predict(params_15mw).wavepacket)
        peak = int(np.argmax(rates))
        assert 0 < peak < len(rates) - 1
        assert rates[peak] / r0 > 1.0

    @pytest.mark.parametrize("params_fixture",
                             ["params_15mw", "params_30mw"])
    def test_width_grows_at_large_detuning(self, params_fixture, request):
        params = request.getfixturevalue(params_fixture)
        widths = [pr.tau_w for pr in detuning_sweep(
            params, ghz_to_gamma(np.arange(1.0, 3.05, 0.5)))]
        assert np.all(np.diff(widths) > 0)
