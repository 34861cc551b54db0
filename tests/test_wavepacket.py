"""Spectral amplitude sampling and the delay-domain transform."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.faddeeva as F
import biphoton.wavepacket
from biphoton import kernels as K
from biphoton.errors import BiphotonError, GridOverflowError, ParameterError
from biphoton.forward import predict
from biphoton.observables import fwhm, generation_rate
from biphoton.params import SystemParams, coupling_15mw_params
from biphoton.units import ghz_to_gamma
from biphoton.wavepacket import (_CHUNK, _STRIDE, MAX_GRID_POINTS,
                                 MAX_WIDENINGS, DetuningGrid,
                                 SpectralAmplitude, amplitude_at, auto_grid,
                                 biphoton_spectrum, sample_spectral_amplitude,
                                 wave_packet)

from conftest import at_point

# frozen full-pipeline regression values (analytic kernels, auto grid)
RG_15MW_DC0 = 3.524736636384084e-05
TAUW_NS_15MW_DC0 = 47.04681950849404
RG_15MW_1GHZ = 0.00010906379352597714
TAUW_NS_15MW_1GHZ = 131.41749671071227
# spectral FWHM regressions (units of Gamma); the measured Table value at
# 1 GHz was 1.83 MHz = 0.305 Gamma, same order as the model line
DOMEGA_15MW_DC0 = 1.1353171055468487
DOMEGA_15MW_1GHZ = 0.12434521182031971


class TestGrid:
    def test_auto_grid_resolves_decoherence_scale(self, params_15mw):
        g = auto_grid(params_15mw)
        span = max(20.0, 5.0 * params_15mw.gamma_etalon)
        assert g.spacing == 2.0 * span / (g.n_points - 1)
        assert g.spacing <= min(params_15mw.gamma_dec,
                                params_15mw.gamma_etalon / 100.0) / 4.0
        assert g.n_points >= 2**14 and (g.n_points & (g.n_points - 1)) == 0

    def test_auto_grid_with_zero_decoherence(self, params_15mw):
        g = auto_grid(params_15mw.replace(gamma_dec=0.0))
        assert g.spacing <= params_15mw.gamma_etalon / 400.0

    @pytest.mark.xfail(
        strict=True,
        reason="with gamma_dec = 0 the spacing resolves Gamma_e/100 = "
               "0.089 Gamma, but the spectrum's FWHM is 0.028 Gamma: R_g "
               "is 1.363985e-4 against 1.3602056e-4 on denser grids")
    def test_auto_grid_resolves_the_line_at_zero_decoherence(self):
        p = SystemParams(b=0.375, omega_c=11.4, gamma_dec=0.0,
                         delta_c=ghz_to_gamma(3.0))
        grid = auto_grid(p)
        denser = DetuningGrid.spanning(grid.delta_max, 4 * grid.n_points)
        assert predict(p).rg_arb == pytest.approx(
            predict(p, grid_hint=denser).rg_arb, rel=1e-10, abs=0.0)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            DetuningGrid.spanning(2.0, 2**14 + 1)
        with pytest.raises(ParameterError):
            DetuningGrid.spanning(2.0, 2**10)

    def test_widened_grid_keeps_its_core(self):
        grid = DetuningGrid.spanning(2.0, 2**14)
        assert grid.core_points == 2**14
        assert grid == DetuningGrid(grid.spacing, 2**14, 2**14)
        wide = grid.widened().widened()
        assert (wide.n_points, wide.core_points) == (2**16, 2**14)
        for core in (2**13, 2**14 + 32, 2**17):
            with pytest.raises(ParameterError, match="core_points"):
                DetuningGrid(grid.spacing, 2**16, core)

    def test_grid_size_is_capped(self):
        # every case raises before any grid array exists
        with pytest.raises(GridOverflowError, match=str(MAX_GRID_POINTS)):
            DetuningGrid.spanning(2.0, 2 * MAX_GRID_POINTS)
        with pytest.raises(GridOverflowError, match="limit"):
            DetuningGrid.spanning(2.0, MAX_GRID_POINTS).widened()

    @pytest.mark.parametrize("field, value", [("gamma_dec", 1e-9),
                                              ("gamma_etalon", 1e-4)])
    def test_auto_grid_names_the_scale_that_overflows(self, params_15mw,
                                                      field, value):
        with pytest.raises(GridOverflowError, match=f"^{field} = {value:g} "):
            auto_grid(params_15mw.replace(**{field: value}))

    def test_grid_symmetric_values(self):
        g = DetuningGrid.spanning(30.0, 2**14)
        v = g.values
        assert v[0] == -30.0 and v[-1] == 30.0
        assert np.allclose(v + v[::-1], 0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(log2_n=st.integers(14, 21), span=st.floats(1e-3, 1e4))
    def test_widened_grid_nests_its_parent(self, log2_n, span):
        grid = DetuningGrid.spanning(span, 2**log2_n)
        # every widening the sampler takes, up to the size cap
        last = min(MAX_GRID_POINTS, grid.n_points << MAX_WIDENINGS)
        while grid.n_points < last:
            v = grid.values
            assert np.array_equal(v, -v[::-1]) and not np.any(v == 0.0)
            wide = grid.widened()
            assert wide.n_points == 2 * grid.n_points
            q = grid.n_points // 2
            assert np.array_equal(wide.values[q:-q], v)
            grid = wide
        with pytest.raises(GridOverflowError, match="limit"):
            DetuningGrid.spanning(span, MAX_GRID_POINTS).widened()


class TestSampling:
    def test_pump_off_amplitude_identically_zero(self, params_15mw):
        sa = sample_spectral_amplitude(params_15mw.replace(omega_p=0.0))
        assert np.all(sa.amplitude == 0.0)

    def test_non_finite_amplitude_raises_on_the_first_grid(
            self, params_15mw, monkeypatch):
        real = biphoton.wavepacket.amplitude_at
        sizes = []

        def one_nan(delta, *args):
            sizes.append(delta.size)
            amp, d_amp = real(delta, *args)
            amp[1] = np.nan
            return amp, d_amp

        monkeypatch.setattr(biphoton.wavepacket, "amplitude_at", one_nan)
        with pytest.raises(BiphotonError, match="not finite") as excinfo:
            sample_spectral_amplitude(params_15mw)
        # not a decay failure after the widenings
        assert type(excinfo.value) is BiphotonError
        assert sizes == [auto_grid(params_15mw).n_points]

    def test_edge_decay_invariant(self, params_15mw):
        sa = sample_spectral_amplitude(params_15mw)
        edge = max(abs(sa.amplitude[0]), abs(sa.amplitude[-1]))
        assert edge <= 1e-6 * sa.peak_magnitude

    def test_impurity_free_spot_value_composes_kernel_oracles(
            self, params_15mw, trapezoid_oracle):
        # compose the three oracle kernel values through the amplitude
        # formula and compare with the analytic-path sample at delta = 0
        p = params_15mw.replace(b=0.0)

        def avg(integrand):
            return K.doppler_average(integrand(0.0, p), p, trapezoid_oracle)

        rho = avg(K.rho_c_integrand) + avg(K.rho_m_integrand)
        kap = avg(K.kappa_integrand)
        composed = (kap * at_point(K.complex_sinc, rho) * np.exp(1j * rho)
                    * at_point(K.etalon_response, 0.0, p.gamma_etalon))
        analytic = amplitude_at(np.array([0.0]), p)[0][0]
        assert abs(analytic - composed) / abs(composed) < 1e-8

    def test_peak_near_raman_resonance_at_1ghz(self, params_15mw):
        p = params_15mw.replace(delta_c=ghz_to_gamma(1.0))
        sa = sample_spectral_amplitude(p)
        power = np.abs(sa.amplitude) ** 2
        peak_delta = sa.grid.values[int(np.argmax(power))]
        assert abs(peak_delta) < 1.0

    def test_grid_hint_is_respected(self, params_15mw):
        hint = auto_grid(params_15mw).widened()
        sa = sample_spectral_amplitude(params_15mw, grid_hint=hint)
        assert sa.grid == hint

    def test_tangent_pass_gives_the_same_amplitude(self, random_valid_params):
        """A from amplitude_at with derivatives equals A without, bit for
        bit, as does the amplitude sampled with derivatives."""
        for draw in random_valid_params(6):
            dc = ghz_to_gamma(draw.pop("delta_c_ghz"))
            p = SystemParams(delta_c=dc, **draw)
            delta = auto_grid(p).values
            want, no_tangents = amplitude_at(delta, p)
            assert no_tangents is None
            whole, d_whole = amplitude_at(delta, p, derivatives=True)
            assert np.array_equal(whole, want)
            assert d_whole.shape == (3, delta.size)
            sa = sample_spectral_amplitude(p, derivatives=True)
            plain = sample_spectral_amplitude(p)
            assert plain.tangents is None
            assert np.array_equal(sa.amplitude, plain.amplitude)
            if sa.grid == auto_grid(p):
                assert np.array_equal(sa.tangents, d_whole)

    @pytest.mark.parametrize("delta_c_ghz", [0.0, 1.0])
    def test_slices_equal_the_whole_grid_kernels(self, params_15mw,
                                                 delta_c_ghz):
        """amplitude_at walks the grid in _CHUNK slices; A equals the
        formula evaluated by the public kernels on the whole grid."""
        p = params_15mw.replace(delta_c=ghz_to_gamma(delta_c_ghz))
        delta = auto_grid(p).widened().values
        assert delta.size >= 4 * _CHUNK
        whole = (K.sinc_phase(K.rho_c_bar(delta, p) + K.rho_m_bar(delta, p))
                 * K.kappa_bar(delta, p)
                 * K.etalon_response(delta, p.gamma_etalon))
        assert np.array_equal(amplitude_at(delta, p)[0], whole)

    def test_peak_memory_is_a_small_multiple_of_the_output(self):
        """On the widest grid the benchmark samples (2^18 points), the
        slices keep the traced peak within 2.5x the amplitude itself."""
        p = SystemParams(alpha=800.0, b=0.0, omega_c=20.0, gamma_dec=0.005,
                         gamma_doppler=30.0, gamma_etalon=15.0)
        delta = auto_grid(p).widened().values
        assert delta.size == 2**18
        tracemalloc.start()
        try:
            amp, _ = amplitude_at(delta, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * amp.nbytes

    def test_derivative_slice_peak_memory(self, params_15mw):
        """A and its three tangents on one 2^14-point slice of the 15 mW,
        1 GHz auto grid peak within 26 complex arrays of the slice's
        size: each array the kernels hold past its use adds its size to
        the working set of every derivative pass of a fit."""
        p = params_15mw.replace(delta_c=ghz_to_gamma(1.0))
        delta = auto_grid(p).values[:_CHUNK]
        tracemalloc.start()
        try:
            amplitude_at(delta, p, derivatives=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 16 * _CHUNK


class TestIncrementalWidening:
    """A widening keeps the samples already taken, the middle half of the
    widened grid, and evaluates A on its two new outer quarters at every
    _STRIDE-th point alone, in one amplitude_at call, outward from the
    middle sample next to each; the points between are the linear
    interpolant of those samples."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        """The number of detunings of every amplitude_at call the sampler
        makes."""
        real = biphoton.wavepacket.amplitude_at
        log = []

        def counted(delta, *args):
            log.append(np.size(delta))
            return real(delta, *args)

        monkeypatch.setattr(biphoton.wavepacket, "amplitude_at", counted)
        return log

    # (20, 2^14) widens twice; the auto grid (2^15) is widened once
    @pytest.mark.parametrize("hint", [(44.5, 2**14), (20.0, 2**14), None])
    @pytest.mark.parametrize("mode", ["plain", "derivatives"])
    def test_equals_the_whole_widened_grid(self, params_15mw, sizes, hint,
                                           mode):
        grid = (DetuningGrid.spanning(*hint) if hint
                else auto_grid(params_15mw))
        derivatives = mode == "derivatives"
        sa = sample_spectral_amplitude(params_15mw, grid_hint=grid,
                                       derivatives=derivatives)
        n = grid.n_points
        widenings = (sa.grid.n_points // n).bit_length() - 1
        assert widenings >= 1 and sa.grid.core_points == n
        # the grid whole, then n/_STRIDE points per widening from n
        assert sizes == [n] + [(n << k) // _STRIDE for k in range(widenings)]

        def rows(amp, tangents):
            return np.vstack([amp] + ([] if tangents is None else
                                      list(tangents)))

        got = rows(sa.amplitude, sa.tangents)
        delta = sa.grid.values
        total = delta.size
        lo = (total - n) // 2
        core = rows(*amplitude_at(delta[lo:lo + n], params_15mw,
                                  derivatives=derivatives))
        assert np.array_equal(got[:, lo:lo + n], core)
        # so the middle half of each widening is the grid it widened: the
        # core, then the core and the quarters checked before
        index = np.arange(total, dtype=float)
        m = n
        while m < total:
            q, lo = m // 2, (total - m) // 2
            # the nodes of each quarter and the middle sample next to it
            left = np.arange(lo - q, lo + 1, _STRIDE)
            right = np.arange(lo + m - 1, lo + m + q, _STRIDE)
            nodes = rows(*amplitude_at(
                delta[np.r_[left[:-1], right[1:]]], params_15mw,
                derivatives=derivatives))
            k = left.size - 1
            for row, node in zip(got, nodes):
                left_want = np.interp(index[lo - q:lo], left,
                                      np.append(node[:k], row[lo]))
                right_want = np.interp(index[lo + m:lo + m + q], right,
                                       np.append(row[lo + m - 1], node[k:]))
                assert np.array_equal(row[lo - q:lo], left_want)
                assert np.array_equal(row[lo + m:lo + m + q], right_want)
            m *= 2
        assert sa.peak_magnitude == float(np.max(np.abs(sa.amplitude)))

    @pytest.mark.parametrize("delta_c_ghz", [0.0, 0.2, 1.0, 2.2, 3.0])
    def test_matches_the_widened_grid_sampled_densely(self, delta_c_ghz,
                                                      random_valid_params):
        """Each predict that widens, from the auto grid or from the auto
        grid widened once as the fit's grid is, against one on the same
        grid sampled at every point: R_g within 1e-12 and tau_w within
        1e-8, and delta_omega bit for bit.  A predict that does not widen
        samples every point of its grid."""
        widened = 0
        for draw in random_valid_params(6):
            del draw["delta_c_ghz"]
            p = SystemParams(delta_c=ghz_to_gamma(delta_c_ghz), **draw)
            for hint in (None, auto_grid(p).widened()):
                got = predict(p, grid_hint=hint)
                grid = got.amplitude.grid
                if grid.core_points == grid.n_points:
                    want, _ = amplitude_at(grid.values, p)
                    assert np.array_equal(got.amplitude.amplitude, want)
                    continue
                widened += 1
                dense = predict(p, grid_hint=DetuningGrid(grid.spacing,
                                                          grid.n_points))
                assert dense.amplitude.grid.n_points == grid.n_points
                assert got.rg_arb == pytest.approx(dense.rg_arb, rel=1e-12,
                                                   abs=0)
                assert got.tau_w == pytest.approx(dense.tau_w, rel=1e-8,
                                                  abs=0)
                assert got.delta_omega == dense.delta_omega
        assert widened >= 6


class TestOnePointwiseCallPerSlice:
    """Each slice of amplitude_at evaluates J pointwise in one
    gaussian_pole_integral call: the anchors of both paths, the blocks
    that are not carried and the pump pole together.  Only the merged-pole
    series makes calls of its own, on slices where the poles merge."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The sizes of the pointwise J calls made outside the merged-pole
        series, and of the gaussian_pole_difference calls."""
        log = {"integral": [], "difference": []}
        inside = []
        real_integral = F.gaussian_pole_integral
        real_difference = K.gaussian_pole_difference

        def integral(zeta):
            if not inside:
                log["integral"].append(np.size(zeta))
            return real_integral(zeta)

        def difference(zeta0, zeta1):
            log["difference"].append(np.size(zeta0))
            inside.append(True)
            try:
                return real_difference(zeta0, zeta1)
            finally:
                inside.pop()

        monkeypatch.setattr(F, "gaussian_pole_integral", integral)
        monkeypatch.setattr(K, "gaussian_pole_difference", difference)
        return log

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_one_call_per_slice(self, params_15mw, calls, derivatives):
        # the widened auto grid at 0.2 GHz: its middle slices have 33
        # blocks each that are evaluated pointwise
        p = params_15mw.replace(delta_c=ghz_to_gamma(0.2))
        delta = auto_grid(p).widened().values
        amplitude_at(delta, p, derivatives=derivatives)
        assert len(calls["integral"]) == delta.size // _CHUNK
        # per path one anchor per block, and the pump pole
        anchors = 2 * _CHUNK // F._ALONG_BLOCK + 1
        assert min(calls["integral"]) == anchors
        assert max(calls["integral"]) == anchors + 33 * F._ALONG_BLOCK
        assert calls["difference"] == []

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_series_only_where_the_poles_merge(self, params_15mw, calls,
                                               derivatives):
        # at gamma_dec = 0 and 1 GHz the poles merge on the last of the
        # four slices of this grid alone
        p = params_15mw.replace(gamma_dec=0.0, delta_c=ghz_to_gamma(1.0))
        delta = auto_grid(p).widened().widened().values
        assert delta.size == 4 * _CHUNK
        amplitude_at(delta, p, derivatives=derivatives)
        assert len(calls["integral"]) == 4
        assert calls["difference"] == [117]


class TestWavePacket:
    def test_zero_amplitude_zero_packet(self, params_15mw):
        sa = sample_spectral_amplitude(params_15mw.replace(omega_p=0.0))
        wp = wave_packet(sa)
        assert np.all(wp.g2 == 0.0)

    def test_gaussian_transform_pair(self):
        # inject A = exp(-delta^2/(2 sigma^2)); G2 ~ exp(-sigma^2 tau^2),
        # so the temporal FWHM must be 2 sqrt(ln 2)/sigma
        sigma = 2.0
        grid = DetuningGrid.spanning(40.0, 2**15)
        amp = np.exp(-grid.values**2 / (2.0 * sigma**2)).astype(complex)
        sa = SpectralAmplitude(grid, amp, np.max(np.abs(amp)))
        wp = wave_packet(sa)
        measured = fwhm(wp.tau, wp.g2)
        expected = 2.0 * np.sqrt(np.log(2.0)) / sigma
        assert measured == pytest.approx(expected, rel=1e-3)

    def test_parseval(self, params_15mw, params_30mw):
        # at the benchmark's PARSEVAL_RTOL, at both powers, off resonance
        # and on a widened grid
        p_1ghz = params_15mw.replace(delta_c=ghz_to_gamma(1.0))
        for sa in (sample_spectral_amplitude(params_15mw),
                   sample_spectral_amplitude(params_30mw),
                   sample_spectral_amplitude(p_1ghz),
                   sample_spectral_amplitude(
                       p_1ghz, grid_hint=auto_grid(p_1ghz).widened())):
            wp = wave_packet(sa)
            time_side = np.trapezoid(wp.g2, wp.tau)
            freq_side = np.trapezoid(np.abs(sa.amplitude) ** 2,
                                     sa.grid.values) / (2.0 * np.pi)
            assert time_side == pytest.approx(freq_side, rel=1e-12)

    def test_doubling_grid_changes_nothing(self, params_15mw):
        coarse = predict(params_15mw)
        # twice the points at the same spacing: about twice the span
        hint = coarse.amplitude.grid.widened()
        dense = predict(params_15mw, grid_hint=hint)
        assert dense.rg_arb == pytest.approx(coarse.rg_arb, rel=1e-6)

    def test_nonnegative_by_construction(self, params_15mw):
        wp = wave_packet(sample_spectral_amplitude(params_15mw))
        assert np.all(wp.g2 >= 0.0)

    def test_tau_span_covers_wave_packet(self, params_15mw):
        pred = predict(params_15mw)
        wp = pred.wavepacket
        assert wp.tau[0] < -5.0 * pred.tau_w
        assert wp.tau[-1] > 5.0 * pred.tau_w

    def test_narrower_etalon_never_shortens_packet(self, params_15mw):
        for dcg in (0.0, 1.0):
            p = params_15mw.replace(delta_c=ghz_to_gamma(dcg))
            wide = predict(p)
            narrow = predict(p.replace(gamma_etalon=p.gamma_etalon / 2.0))
            assert narrow.tau_w >= wide.tau_w

    def test_matches_the_phased_argsort_transform(self, params_15mw):
        # reference: the twofold zero-padded DFT with the
        # exp(i delta_max tau) phase applied and tau sorted by argsort
        p = params_15mw.replace(delta_c=ghz_to_gamma(1.0))
        span = auto_grid(p).delta_max
        widened = sample_spectral_amplitude(
            p, grid_hint=auto_grid(p).widened())
        assert widened.grid.core_points < widened.grid.n_points
        cases = [sample_spectral_amplitude(p), widened]
        for n in (2**14, 2**15, 2**17):
            grid = DetuningGrid.spanning(span, n)
            amp, _ = amplitude_at(grid.values, p)
            cases.append(SpectralAmplitude(grid, amp, np.max(np.abs(amp))))
        # a complex ramp under the line: two unequal, nonzero end samples
        grid = cases[-1].grid
        ramp = cases[-1].peak_magnitude * (
            (0.3 + 0.2j) + (0.1 - 0.05j) * grid.values / grid.delta_max)
        amp = cases[-1].amplitude + ramp
        assert 0.0 != abs(amp[0]) != abs(amp[-1]) != 0.0
        cases.append(SpectralAmplitude(grid, amp, np.max(np.abs(amp))))

        for sa in cases:
            grid = sa.grid
            m = 2 * grid.n_points
            padded = np.zeros(m, dtype=complex)
            padded[:grid.n_points] = sa.amplitude
            padded[0] *= 0.5
            padded[grid.n_points - 1] *= 0.5
            tau = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
            g = (grid.spacing / (2.0 * np.pi)) * np.exp(
                1j * grid.delta_max * tau) * np.fft.fft(padded)
            order = np.argsort(tau, kind="stable")
            want_g2 = np.abs(g[order]) ** 2

            wp = wave_packet(sa)
            assert np.array_equal(wp.tau, tau[order])
            assert np.all(np.diff(wp.tau) > 0.0)
            assert (np.max(np.abs(wp.g2 - want_g2))
                    <= 1e-14 * np.max(want_g2))

    def test_holds_no_padded_buffer(self):
        # the returned tau and g2 and one n-point complex work array; the
        # zero-padded 2n-point transform peaks at 4 x 16n bytes
        grid = DetuningGrid.spanning(40.0, 2**17)
        amp = np.exp(-grid.values**2 / 8.0).astype(complex)
        sa = SpectralAmplitude(grid, amp, 1.0)
        tracemalloc.start()
        try:
            wave_packet(sa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * grid.n_points

    def test_full_pipeline_regressions(self, params_15mw):
        pr0 = predict(params_15mw)
        assert pr0.rg_arb == pytest.approx(RG_15MW_DC0, rel=1e-9)
        assert pr0.tau_w_ns == pytest.approx(TAUW_NS_15MW_DC0, rel=1e-6)
        assert pr0.delta_omega == pytest.approx(DOMEGA_15MW_DC0, rel=1e-6)
        pr1 = predict(coupling_15mw_params(delta_c_ghz=1.0))
        assert pr1.rg_arb == pytest.approx(RG_15MW_1GHZ, rel=1e-9)
        assert pr1.tau_w_ns == pytest.approx(TAUW_NS_15MW_1GHZ, rel=1e-6)
        assert pr1.delta_omega == pytest.approx(DOMEGA_15MW_1GHZ, rel=1e-6)


class TestSpectrum:
    def test_gaussian_amplitude_squares(self):
        grid = DetuningGrid.spanning(40.0, 2**14)
        amp = np.exp(-grid.values**2 / 8.0).astype(complex)
        spec = biphoton_spectrum(SpectralAmplitude(grid, amp,
                                                   np.max(np.abs(amp))))
        assert spec.max() == 1.0
        assert np.argmax(spec) in (grid.n_points // 2 - 1, grid.n_points // 2)
        power = np.abs(amp) ** 2
        assert np.allclose(spec, power / power.max(), rtol=1e-12)

    def test_zero_amplitude_rejected(self, params_15mw):
        sa = sample_spectral_amplitude(params_15mw.replace(omega_p=0.0))
        with pytest.raises(ParameterError, match="empty spectrum"):
            biphoton_spectrum(sa)

    def test_linewidth_same_order_as_measured(self):
        # measured spectral FWHM at 1.0 GHz was 1.83 MHz = 0.305 Gamma (at
        # slightly higher coupling power); the model line is narrower but
        # must stay the same order of magnitude
        pred = predict(coupling_15mw_params(delta_c_ghz=1.0))
        assert 0.305 / 3.0 < pred.delta_omega < 0.305 * 3.0

    def test_impurity_changes_linewidth(self, params_15mw):
        with_b = predict(params_15mw)
        without_b = predict(params_15mw.replace(b=0.0))
        assert with_b.delta_omega != pytest.approx(without_b.delta_omega,
                                                   rel=1e-3)
