"""Response kernels: trivial identities, frozen oracle values, properties.

Frozen complex literals below were produced by the dense-trapezoid oracle
(1e6 points over +-8 Doppler widths) at the canonical 15 mW operating
point; the tests both pin those numbers and re-derive the analytic/oracle
agreement live.  An oracle value is the brute-force Doppler average of
the kernel's integrand, ``oracle(K.kappa_integrand, delta, params, spec)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import kernels as K
from biphoton.errors import ConvergenceError, ParameterError
from biphoton.params import SystemParams
from biphoton.units import ghz_to_gamma
from biphoton.wavepacket import auto_grid

from conftest import rel_err

def oracle(integrand, delta, params, spec):
    """Brute-force Doppler average of a kernel's integrand at ``delta``."""
    return K.doppler_average(integrand(float(delta), params), params, spec)


# dense-trapezoid oracle values, frozen (see module docstring)
RHO_M_AT_0 = 1.5663630045418437e-18 + 0.7613221526785102j
RHO_C_AT_0P1 = 0.12185135808885929 + 0.01652121258171523j
KAPPA_AT_0_1GHZ = 0.02187170016392948 + 0.0013802798469250337j
DOPPLER_TWO_LEVEL_AVG = -1.6707872048446333e-20 - 0.008120769628570775j


class TestEtalon:
    def test_identity_at_line_center(self):
        assert K.etalon_response(0.0, 8.9) == 1.0

    def test_half_width_point(self):
        # 4 delta^2/Gamma_e^2 = 1 forces (1/2)^2
        assert K.etalon_response(8.9 / 2.0, 8.9) == pytest.approx(0.25)

    def test_far_tail(self):
        assert K.etalon_response(89.0, 8.9) == pytest.approx((1 / 401.0) ** 2,
                                                             rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(delta=st.floats(-1e3, 1e3), ge=st.floats(0.1, 50))
    def test_even_and_bounded(self, delta, ge):
        val = K.etalon_response(delta, ge)
        assert K.etalon_response(-delta, ge) == val
        assert 0.0 < val <= 1.0

    def test_monotone_in_magnitude(self):
        d = np.linspace(0.0, 60.0, 501)
        vals = K.etalon_response(d, 8.9)
        assert np.all(np.diff(vals) < 0)

    def test_invalid_width(self):
        with pytest.raises(ParameterError):
            K.etalon_response(1.0, 0.0)


class TestComplexSinc:
    def test_removable_singularity(self):
        assert K.complex_sinc(0.0) == 1.0

    def test_zero_at_pi(self):
        assert abs(K.complex_sinc(np.pi)) < 1e-12

    def test_imaginary_argument(self):
        assert K.complex_sinc(1j) == pytest.approx(np.sinh(1.0), rel=1e-12)

    def test_series_direct_agreement_across_cutoff(self):
        for mag in (0.9e-4, 1.1e-4):
            for phase in (0.0, 0.7, 2.1):
                z = mag * np.exp(1j * phase)
                direct = np.sin(z) / z
                assert K.complex_sinc(z) == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(-20, 20), y=st.floats(-20, 20))
    def test_conjugation(self, x, y):
        z = complex(x, y)
        assert K.complex_sinc(np.conj(z)) == pytest.approx(
            np.conj(K.complex_sinc(z)), rel=1e-12)


class TestDopplerAverage:
    def test_normalization(self, params_15mw, trapezoid_oracle):
        avg = K.doppler_average(lambda w: np.ones_like(w), params_15mw,
                                trapezoid_oracle)
        assert avg == pytest.approx(1.0, rel=1e-10)

    def test_odd_integrand_vanishes(self, params_15mw, trapezoid_oracle):
        avg = K.doppler_average(lambda w: w, params_15mw, trapezoid_oracle)
        assert abs(avg) < 1e-10

    def test_two_level_average_and_method_agreement(
            self, params_15mw, trapezoid_oracle, adaptive_oracle):
        f = lambda w: 1.0 / (4.0 * (w + 0.5j))
        trap = K.doppler_average(f, params_15mw, trapezoid_oracle)
        adaptive = K.doppler_average(f, params_15mw, adaptive_oracle)
        assert trap == pytest.approx(DOPPLER_TWO_LEVEL_AVG, rel=1e-9)
        assert rel_err(adaptive, trap) < 1e-8
        # the impurity kernel is that average with the absorbing sign and
        # prefactor b*alpha/2
        p = params_15mw.replace(b=2.0 / params_15mw.alpha)
        assert oracle(K.rho_m_integrand, 0.0, p,
                      trapezoid_oracle) == pytest.approx(-trap, rel=1e-12)

    def test_analytic_method_rejected(self):
        # the Faddeeva reduction is the kernels themselves, not an oracle
        with pytest.raises(ParameterError):
            K.QuadratureSpec(method="faddeeva_analytic")

    def test_panel_budget_exhaustion_carries_tolerance(self, params_15mw):
        tight = K.QuadratureSpec(method=K.METHOD_ADAPTIVE,
                                 panel_tolerance=1e-13, max_panels=16)
        sharp = lambda w: 1.0 / (w**2 + 1e-4)
        with pytest.raises(ConvergenceError) as excinfo:
            K.doppler_average(sharp, params_15mw, tight)
        assert excinfo.value.achieved_tolerance is not None
        assert excinfo.value.achieved_tolerance > 0

    def test_deterministic(self, params_15mw, trapezoid_oracle):
        f = lambda w: 1.0 / (4.0 * (w + 0.5j))
        a = K.doppler_average(f, params_15mw, trapezoid_oracle)
        b = K.doppler_average(f, params_15mw, trapezoid_oracle)
        assert a == b


class TestRhoM:
    def test_no_impurities_no_response(self, params_15mw):
        assert K.rho_m_bar(0.37, params_15mw.replace(b=0.0)) == 0.0

    def test_oracle_value_and_analytic_match(self, params_15mw,
                                             trapezoid_oracle):
        ref = oracle(K.rho_m_integrand, 0.0, params_15mw, trapezoid_oracle)
        assert ref == pytest.approx(RHO_M_AT_0, rel=1e-9)
        assert rel_err(K.rho_m_bar(0.0, params_15mw), ref) < 1e-8

    def test_far_detuned_suppression(self, params_15mw, trapezoid_oracle):
        near = oracle(K.rho_m_integrand, 0.0, params_15mw, trapezoid_oracle)
        far = oracle(K.rho_m_integrand, 0.0,
                     params_15mw.replace(delta_c=ghz_to_gamma(3.0)),
                     trapezoid_oracle)
        assert abs(far) < abs(near)

    def test_linear_in_impurity_weight(self, params_15mw):
        base = K.rho_m_bar(1.2, params_15mw)
        doubled_b = K.rho_m_bar(1.2, params_15mw.replace(b=2 * params_15mw.b))
        assert doubled_b == pytest.approx(2.0 * base, rel=1e-14)
        scaled_alpha = K.rho_m_bar(
            1.2, params_15mw.replace(alpha=3.0 * params_15mw.alpha))
        assert scaled_alpha == pytest.approx(3.0 * base, rel=1e-14)

    def test_strictly_absorbing(self, params_15mw):
        deltas = np.concatenate([np.linspace(-300, 300, 401), [-1e5, 1e5]])
        vals = K.rho_m_bar(deltas, params_15mw)
        assert np.all(vals.imag > 0)


class TestRhoC:
    def test_two_photon_resonance_without_decoherence(self, params_15mw):
        assert K.rho_c_bar(0.0, params_15mw.replace(gamma_dec=0.0)) == 0.0

    def test_all_impurities_no_coherent_response(self, params_15mw):
        assert K.rho_c_bar(0.3, params_15mw.replace(b=1.0)) == 0.0

    def test_oracle_value_and_analytic_match(self, params_15mw,
                                             trapezoid_oracle):
        ref = oracle(K.rho_c_integrand, 0.1, params_15mw, trapezoid_oracle)
        assert ref == pytest.approx(RHO_C_AT_0P1, rel=1e-9)
        assert rel_err(K.rho_c_bar(0.1, params_15mw), ref) < 1e-8

    def test_pole_sign_spanning_grid(self, params_15mw, trapezoid_oracle):
        # the reduction must hold on both sides of the two-photon resonance
        # and for detunings that move the pole across quadrants
        for delta in (-5.0, -0.1, 0.1, 5.0):
            for dcg in (0.0, 0.7, 3.0):
                p = params_15mw.replace(delta_c=ghz_to_gamma(dcg))
                ref = oracle(K.rho_c_integrand, delta, p, trapezoid_oracle)
                assert rel_err(K.rho_c_bar(delta, p), ref) < 1e-8

    def test_coupling_off_reduces_to_two_level(self, params_15mw,
                                               trapezoid_oracle):
        p = params_15mw.replace(omega_c=0.0)
        analytic = K.rho_c_bar(0.2, p)
        ref = oracle(K.rho_c_integrand, 0.2, p, trapezoid_oracle)
        assert rel_err(analytic, ref) < 1e-8
        # and equals the impurity line reweighted by (1-b)/b
        two_level = K.rho_m_bar(0.2, params_15mw)
        weight = (1 - params_15mw.b) / params_15mw.b
        assert analytic == pytest.approx(weight * two_level, rel=1e-12)

    def test_coupling_off_on_exact_resonance_is_finite(self, params_15mw):
        p = params_15mw.replace(omega_c=0.0, gamma_dec=0.0)
        val = K.rho_c_bar(0.0, p)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert val.imag > 0


class TestKappa:
    def test_pump_off(self, params_15mw):
        assert K.kappa_bar(0.4, params_15mw.replace(omega_p=0.0)) == 0.0

    def test_all_impurities(self, params_15mw):
        assert K.kappa_bar(0.4, params_15mw.replace(b=1.0)) == 0.0

    def test_oracle_value_and_analytic_match(self, params_15mw,
                                             trapezoid_oracle):
        p = params_15mw.replace(delta_c=ghz_to_gamma(1.0))
        ref = oracle(K.kappa_integrand, 0.0, p, trapezoid_oracle)
        assert ref == pytest.approx(KAPPA_AT_0_1GHZ, rel=1e-9)
        assert rel_err(K.kappa_bar(0.0, p), ref) < 1e-8

    def test_linear_in_pump_and_coherent_weight(self, params_15mw):
        base = K.kappa_bar(0.7, params_15mw)
        assert K.kappa_bar(
            0.7, params_15mw.replace(omega_p=2.0)) == pytest.approx(
                2.0 * base, rel=1e-14)
        assert K.kappa_bar(
            0.7, params_15mw.replace(alpha=2.0 * params_15mw.alpha)
        ) == pytest.approx(2.0 * base, rel=1e-14)
        ratio = (1.0 - 0.25) / (1.0 - params_15mw.b)
        assert K.kappa_bar(
            0.7, params_15mw.replace(b=0.25)) == pytest.approx(
                ratio * base, rel=1e-13)

    def test_exact_resonance_limit_matches_oracle(self, params_15mw,
                                                  trapezoid_oracle):
        p = params_15mw.replace(gamma_dec=0.0)
        analytic = K.kappa_bar(0.0, p)
        ref = oracle(K.kappa_integrand, 0.0, p, trapezoid_oracle)
        assert rel_err(analytic, ref) < 1e-8

    def test_vectorized_matches_scalar(self, params_15mw):
        deltas = np.array([-2.0, 0.0, 0.3, 40.0])
        vec = K.kappa_bar(deltas, params_15mw)
        for i, d in enumerate(deltas):
            assert vec[i] == K.kappa_bar(float(d), params_15mw)


class TestMergedPoles:
    """With gamma_dec = 0 the pump pole and the dressed pole of kappa_bar
    coincide at the real roots of delta^2 + (Delta_c - Delta_p) delta
    - Omega_c^2/4 = 0: delta ~ -0.1026 and 316.77 Gamma at 15 mW, where
    zeta = omega/Gamma_D ~ 5.9.  A Doppler width of 2 Gamma moves the
    poles to |zeta| ~ 160, past the |zeta| = 8 switch to the asymptotic
    series of the divided difference."""

    @staticmethod
    def roots(p):
        big = 0.5 * (p.delta_p - p.delta_c + np.hypot(p.delta_p - p.delta_c,
                                                      p.omega_c))
        # the product of the roots is -Omega_c^2/4; no cancellation
        return (-0.25 * p.omega_c**2 / big, big)

    @pytest.mark.parametrize("gamma_doppler", [54.0, 2.0])
    @pytest.mark.parametrize("root", [0, 1])
    @pytest.mark.parametrize("rel_dist", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_matches_oracle_approaching_the_root(
            self, params_15mw, trapezoid_oracle, gamma_doppler, root,
            rel_dist):
        p = params_15mw.replace(gamma_dec=0.0, gamma_doppler=gamma_doppler)
        delta = self.roots(p)[root] * (1.0 + rel_dist)
        ref = oracle(K.kappa_integrand, delta, p, trapezoid_oracle)
        assert rel_err(K.kappa_bar(delta, p), ref) < 1e-10

    def test_grid_through_the_roots_needs_no_quadrature(self, params_15mw,
                                                        monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kappa_bar fell back to quadrature")

        monkeypatch.setattr(K, "doppler_average", forbidden)
        p = params_15mw.replace(gamma_dec=0.0)
        roots = np.array(self.roots(p))
        deltas = np.sort(np.concatenate(
            [np.linspace(-400.0, 400.0, 4097), roots,
             roots * (1.0 + 1e-9), roots * (1.0 - 1e-4)]))
        vals = K.kappa_bar(deltas, p)
        assert np.all(np.isfinite(vals))
        for d in (*roots, *(roots * (1.0 + 1e-9))):
            assert vals[np.searchsorted(deltas, d)] == K.kappa_bar(d, p)


class TestDopplerResponses:
    """The fused pass equals the public kernels bit for bit."""

    @staticmethod
    def assert_fused_equals_kernels(delta, p):
        rho, kap = K.doppler_responses(delta, p)
        want_rho = K.rho_c_bar(delta, p) + K.rho_m_bar(delta, p)
        want_kap = K.kappa_bar(delta, p)
        assert np.array_equal(rho, want_rho)
        assert np.array_equal(kap, want_kap)
        assert np.ndim(rho) == np.ndim(want_rho)

    def test_random_params_on_their_auto_grids(self, random_valid_params):
        for draw in random_valid_params(20):
            dc = ghz_to_gamma(draw.pop("delta_c_ghz"))
            p = SystemParams(delta_c=dc, **draw)
            self.assert_fused_equals_kernels(auto_grid(p).values, p)

    def test_degenerate_resonance(self, params_15mw):
        p = params_15mw.replace(gamma_dec=0.0)
        self.assert_fused_equals_kernels(0.0, p)
        self.assert_fused_equals_kernels(np.array([-0.5, 0.0, 0.5]), p)

    @pytest.mark.parametrize("off", ["omega_c", "omega_p"])
    def test_field_off(self, params_15mw, off):
        deltas = np.array([-3.0, 0.0, 0.25, 40.0])
        for p in (params_15mw, params_15mw.replace(gamma_dec=0.0)):
            self.assert_fused_equals_kernels(deltas, p.replace(**{off: 0.0}))
            self.assert_fused_equals_kernels(0.0, p.replace(**{off: 0.0}))

    @pytest.mark.parametrize("gamma_doppler", [54.0, 2.0])
    def test_merged_pole_roots(self, params_15mw, gamma_doppler):
        p = params_15mw.replace(gamma_dec=0.0, gamma_doppler=gamma_doppler)
        roots = np.array(TestMergedPoles.roots(p))
        deltas = np.concatenate([roots, roots * (1.0 + 1e-9),
                                 roots * (1.0 - 1e-4)])
        self.assert_fused_equals_kernels(deltas, p)
        for d in deltas:
            self.assert_fused_equals_kernels(float(d), p)


def test_quadrature_spec_validation():
    with pytest.raises(ParameterError):
        K.QuadratureSpec(method="simpson")
    with pytest.raises(ParameterError):
        K.QuadratureSpec(trapezoid_points=10)
    with pytest.raises(ParameterError):
        K.QuadratureSpec(support_halfwidth=2.0)
    with pytest.raises(ParameterError):
        K.QuadratureSpec(panel_tolerance=0.0)


class TestResponseTangents:
    """Closed-form derivatives of (rho, kappa) against central differences
    of ``doppler_responses`` in b, Omega_c and gamma_dec."""

    NAMES = ("b", "omega_c", "gamma_dec")

    @classmethod
    def assert_matches_differences(cls, deltas, p, rel_step=1e-6, tol=1e-6):
        rho, kap, tangents = K.response_tangents(deltas, p)
        assert np.array_equal(rho, K.doppler_responses(deltas, p)[0])
        assert np.array_equal(kap, K.doppler_responses(deltas, p)[1])
        for name, (d_rho, d_kap) in zip(cls.NAMES, tangents, strict=True):
            x = getattr(p, name)
            h = rel_step * max(x, 1e-2)
            lo = max(x - h, 0.0)
            hi_rho, hi_kap = K.doppler_responses(
                deltas, p.replace(**{name: x + h}))
            lo_rho, lo_kap = K.doppler_responses(
                deltas, p.replace(**{name: lo}))
            for got, hi, low, value in ((d_rho, hi_rho, lo_rho, rho),
                                        (d_kap, hi_kap, lo_kap, kap)):
                want = (hi - low) / (x + h - lo)
                # a response that does not move leaves rounding noise
                scale = max(np.max(np.abs(want)), np.max(np.abs(value)))
                assert np.max(np.abs(got - want)) <= tol * scale, name

    def test_on_an_auto_grid(self, params_15mw):
        deltas = auto_grid(params_15mw).values[::64]
        self.assert_matches_differences(deltas, params_15mw)

    def test_random_params(self, random_valid_params):
        for draw in random_valid_params(5):
            dc = ghz_to_gamma(draw.pop("delta_c_ghz"))
            p = SystemParams(delta_c=dc, **draw)
            self.assert_matches_differences(np.linspace(-40.0, 40.0, 801), p)

    @pytest.mark.parametrize("gamma_doppler", [54.0, 2.0])
    def test_through_merged_poles(self, params_15mw, gamma_doppler,
                                  monkeypatch):
        merged = []
        real = K.gaussian_pole_difference_dz0

        def counted(z0, z1):
            merged.append(np.size(z0))
            return real(z0, z1)

        monkeypatch.setattr(K, "gaussian_pole_difference_dz0", counted)
        # gamma_dec = 0 is the lower end: its differences are one-sided
        p = params_15mw.replace(gamma_dec=0.0, gamma_doppler=gamma_doppler)
        roots = np.array(TestMergedPoles.roots(p))
        deltas = np.concatenate([roots * (1.0 + 1e-4), roots * (1.0 - 1e-4),
                                 np.linspace(-30.5, 30.5, 60)])
        self.assert_matches_differences(deltas, p, tol=1e-5)
        assert sum(merged) >= 4

    @pytest.mark.parametrize("off", ["omega_c", "omega_p"])
    def test_field_off(self, params_15mw, off):
        p = params_15mw.replace(**{off: 0.0})
        self.assert_matches_differences(np.linspace(-20.5, 20.5, 40), p)


class TestSincPhaseDerivative:
    @staticmethod
    def derivative(z):
        z = np.asarray(z, dtype=complex)
        phase = np.exp(1j * z)
        return K.sinc_phase_derivative(z, K.complex_sinc(z) * phase, phase)

    def test_matches_central_differences(self):
        z = np.array([1e-3 + 2e-3j, 0.3 - 0.1j, 2.0 + 0.5j, -4.0 + 1.0j])
        h = 1e-6

        def s(v):
            return K.complex_sinc(v) * np.exp(1j * v)

        want = (s(z + h) - s(z - h)) / (2 * h)
        assert np.max(np.abs(self.derivative(z) - want)) < 1e-8

    def test_series_direct_agreement_across_cutoff(self):
        cut = K._SINC_SERIES_CUTOFF
        for direction in (1.0, 1j, np.exp(0.7j)):
            below = self.derivative(np.array([cut * (1 - 1e-9) * direction]))
            above = self.derivative(np.array([cut * (1 + 1e-9) * direction]))
            assert abs(below[0] - above[0]) < 1e-10
        assert self.derivative(np.zeros(1))[0] == 1j
