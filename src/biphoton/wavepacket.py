"""Spectral amplitude assembly and the delay-time correlation function.

The spectral amplitude at two-photon detuning delta is

    A(delta) = kappa_bar * sinc(rho_c_bar + rho_m_bar)
               * exp(i (rho_c_bar + rho_m_bar)) * B(delta)

and the two-photon correlation function is the squared continuous Fourier
transform G2(tau) = | (1/2pi) Integral[ A(delta) exp(-i delta tau) ] |^2.

The transform is a trapezoid-weighted DFT, zero-padded to OVERSAMPLE
times the grid size and scaled by d_delta/2pi, so the 1/2pi
normalization is exact for the sampled amplitude.  Starting the sum at
delta_min instead of 0 multiplies G(tau) by the unit-modulus factor
exp(-i delta_min tau); only |G|^2 is formed, so that factor is never
applied, and fftshift puts tau in increasing order.

``amplitude_at`` is the one place that walks a detuning grid: it takes
``_CHUNK`` = 2^14 points at a time, so no temporary of the grid's size
is formed and every slice takes the Faddeeva layer's Taylor path (a
slice of a grid gives the same bits as the whole grid would).  With
``derivatives`` it samples dA/d(b, Omega_c, gamma_dec) in the same
pass, for the fitter, and ``transform_tangents`` then sums a few samples
of the transform and their derivatives directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BiphotonError, GridOverflowError, ParameterError
from .faddeeva import _HUGE_RADIUS, ALONG_MIN_POINTS as _CHUNK
from .kernels import (doppler_responses, etalon_response,
                      impurity_line_integral, response_tangents, sinc_phase,
                      sinc_phase_tangent)
from .params import SystemParams

# a grid holds at least one slice of amplitude_at.  _CHUNK is also a
# multiple of transform_tangents' row length for every grid up to
# MAX_GRID_POINTS
MIN_GRID_POINTS = _CHUNK
# 64 MiB of complex amplitude, 16x the widest grid the tests and benchmark use
MAX_GRID_POINTS = 2**22
# |A| at the grid edge must fall below this fraction of the peak |A|
EDGE_DECAY = 1e-6
MAX_WIDENINGS = 3
# zero-padding factor of the DFT: halves the tau step below pi/delta_max
OVERSAMPLE = 2


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform two-photon-detuning grid on [-delta_max, delta_max]
    (units of Gamma)."""

    delta_max: float
    n_points: int

    def __post_init__(self):
        # the etalon squares delta, and delta_max**2 must stay finite
        if not 0.0 < self.delta_max < _HUGE_RADIUS:
            raise ParameterError.on_field(
                "DetuningGrid.delta_max", self.delta_max,
                f"must be positive and below {_HUGE_RADIUS:.0e} Gamma")
        n = self.n_points
        if n < MIN_GRID_POINTS or (n & (n - 1)) != 0:
            raise ParameterError.on_field(
                "DetuningGrid.n_points", n,
                f"must be a power of two >= {MIN_GRID_POINTS}")
        if n > MAX_GRID_POINTS:
            raise GridOverflowError.on_field(
                "DetuningGrid.n_points", n,
                f"passes the {MAX_GRID_POINTS}-point limit")

    @property
    def delta_min(self) -> float:
        return -self.delta_max

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.delta_max / (self.n_points - 1)

    def widened(self) -> "DetuningGrid":
        """Double the span and the point count (same spacing class)."""
        return DetuningGrid(2.0 * self.delta_max, 2 * self.n_points)


def _next_pow2(n):
    return 1 << max(int(n) - 1, 1).bit_length()


def auto_grid(params: SystemParams) -> DetuningGrid:
    """Size the detuning grid from the sharpest spectral feature.

    The span is max(20 Gamma, 5 Gamma_e), wide enough that the quartic
    etalon roll-off dominates the edges.  The spacing resolves
    min(gamma_dec, Gamma_e/100) with at least 4 samples: the narrowest
    structure in A(delta) sits on the ground-state-decoherence scale,
    two orders below Gamma, and a grid tied to Gamma alone would alias it.
    A gamma_dec of exactly 0 is excluded from the minimum (the etalon
    scale then rules).  A scale so narrow that the grid would pass
    MAX_GRID_POINTS raises GridOverflowError naming it and the span, and
    the gamma_etalon that set the span when it is wider than 20 Gamma.
    """
    delta_max = max(20.0, 5.0 * params.gamma_etalon)
    scales = {"gamma_etalon": params.gamma_etalon / 100.0}
    if params.gamma_dec > 0.0:
        scales["gamma_dec"] = params.gamma_dec
    narrowest = min(scales, key=scales.get)
    points = 2.0 * delta_max / (scales[narrowest] / 4.0)
    # compared as a float: the count can pass any integer size, or inf
    if points > MAX_GRID_POINTS:
        etalon = (f" (set by gamma_etalon = {params.gamma_etalon:g})"
                  if delta_max > 20.0 else "")
        raise GridOverflowError(
            f"{narrowest} = {getattr(params, narrowest):g} over +-"
            f"{delta_max:g} Gamma{etalon} needs over {MAX_GRID_POINTS} points")
    return DetuningGrid(delta_max,
                        max(MIN_GRID_POINTS, _next_pow2(math.ceil(points))))


@dataclass(frozen=True)
class SpectralAmplitude:
    """A(delta) sampled on a detuning grid.

    ``tangents``, when asked for, is the (3, n) array of dA with respect
    to b, Omega_c and gamma_dec on the same grid.
    """

    grid: DetuningGrid
    amplitude: np.ndarray
    tangents: np.ndarray | None = None

    @property
    def peak_magnitude(self) -> float:
        return float(np.max(np.abs(self.amplitude)))


def amplitude_at(delta, params: SystemParams, impurity_line=None,
                 derivatives=False):
    """The integrand A(delta), at a scalar or along a 1-d array of
    detunings, or (A, dA) with ``derivatives``.

    An array is walked ``_CHUNK`` points at a time.  dA is the (3, n)
    array of the derivatives of A with respect to b, Omega_c and
    gamma_dec, and A is the same, bit for bit, with or without it.
    ``impurity_line`` is an optional precomputed
    ``kernels.impurity_line_integral(delta, params)``.
    """
    if np.ndim(delta) == 0 and not derivatives:
        return _amplitude(delta, params, impurity_line)
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    amp = np.empty(delta.size, dtype=complex)
    d_amp = np.empty((3, delta.size), dtype=complex) if derivatives else None
    for lo in range(0, delta.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        line = None if impurity_line is None else impurity_line[part]
        if derivatives:
            amp[part], d_amp[:, part] = _amplitude_tangents(delta[part],
                                                            params, line)
        else:
            amp[part] = _amplitude(delta[part], params, line)
    return (amp, d_amp) if derivatives else amp


def _amplitude(delta, params: SystemParams, impurity_line):
    rho, kap = doppler_responses(delta, params, impurity_line=impurity_line)
    return _assemble(sinc_phase(rho), kap,
                     etalon_response(delta, params.gamma_etalon))


def _assemble(s, kap, etalon):
    """S kappa B, taken in place in S: the one formula for A, so that
    both slice bodies round it alike."""
    s *= kap
    s *= etalon
    return s


def _amplitude_tangents(delta, params: SystemParams, impurity_line):
    """(A, dA) on one slice.  With S = sinc(rho) exp(i rho),
    dA = (d kappa S + kappa S'(rho) d rho) B.

    A Doppler width far below Gamma (1e-300, say) drives the tangents'
    intermediate products past the float range; they then come out inf
    or NaN without a warning, and the caller reports that as NUMERICAL.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho, kap, responses = response_tangents(delta, params,
                                                impurity_line=impurity_line)
        s, ds = sinc_phase_tangent(rho)
        etalon = etalon_response(delta, params.gamma_etalon)
        s_etalon = s * etalon       # before S turns into A in place
        kap_ds = _assemble(ds, kap, etalon)
        d_amp = np.empty((3, rho.size), dtype=complex)
        for row, (d_rho, d_kap) in zip(d_amp, responses):
            np.multiply(d_kap, s_etalon, out=row)
            d_rho *= kap_ds
            row += d_rho
        return _assemble(s, kap, etalon), d_amp


def cached_impurity_line(impurity_lines, grid, delta, params):
    """The impurity line of ``params`` on ``grid`` from the cache dict
    ``impurity_lines`` (see :func:`sample_spectral_amplitude`), computed
    and kept on a miss; None when there is no cache."""
    if impurity_lines is None:
        return None
    key = (grid, params.delta_c, params.gamma_doppler)
    if key not in impurity_lines:
        impurity_lines[key] = impurity_line_integral(delta, params)
    return impurity_lines[key]


def sample_spectral_amplitude(params: SystemParams,
                              grid_hint: DetuningGrid | None = None,
                              impurity_lines: dict | None = None,
                              derivatives: bool = False) -> SpectralAmplitude:
    """Sample A(delta), widening the grid until the edges have decayed.

    Starts from ``grid_hint`` or the auto-sized grid and doubles the span
    (keeping the spacing class) until |A| at both edges is below 1e-6 of
    the peak, giving up after 3 widenings.  A pump-free amplitude is
    identically zero and returned as-is.  An amplitude with an inf or NaN
    sample raises on the grid that has it, as NUMERICAL, without widening.

    With ``derivatives``, A and its ``tangents`` come from one pass of
    :func:`amplitude_at`; A is the same, bit for bit, as without.

    ``impurity_lines``, if given, is a dict that keeps the impurity-line
    integral of each (grid, delta_c, gamma_doppler) it has seen: a caller
    that varies only b, Omega_c or gamma_dec between calls then evaluates
    it once per grid and detuning.  The amplitude is the same, bit for
    bit, with or without it.
    """
    grid = grid_hint if grid_hint is not None else auto_grid(params)
    for _ in range(MAX_WIDENINGS + 1):
        delta = grid.values
        line = cached_impurity_line(impurity_lines, grid, delta, params)
        sampled = amplitude_at(delta, params, line, derivatives)
        amp, tangents = sampled if derivatives else (sampled, None)
        peak = float(np.max(np.abs(amp)))
        if not math.isfinite(peak):
            raise BiphotonError("spectral amplitude is not finite")
        edge = max(abs(amp[0]), abs(amp[-1]))
        if edge <= EDGE_DECAY * peak:
            return SpectralAmplitude(grid, amp, tangents)
        grid = grid.widened()
    raise GridOverflowError(
        f"spectral amplitude does not decay below {EDGE_DECAY:.0e} of its "
        f"peak within {MAX_WIDENINGS} grid widenings")


@dataclass(frozen=True)
class WavePacket:
    """G2 on a uniform delay-time grid (tau in 1/Gamma, g2 arbitrary units)."""

    tau: np.ndarray
    g2: np.ndarray


def wave_packet(sa: SpectralAmplitude) -> WavePacket:
    """Transform the spectral amplitude to the delay-time domain.

    The DFT is zero-padded by OVERSAMPLE, so the tau step is half the
    Nyquist step pi/delta_max.  The tau grid spans one full period
    2 pi/spacing, which exceeds any wave-packet support by orders of
    magnitude, so Parseval holds on it to rounding error.
    """
    grid = sa.grid
    d_delta = grid.spacing
    n = grid.n_points
    m = n * OVERSAMPLE

    # the end-halved amplitude, zero-padded and transformed in place
    g = np.zeros(m, dtype=complex)
    g[:n] = sa.amplitude
    g[0] *= 0.5
    g[n - 1] *= 0.5
    np.fft.fft(g, out=g)
    g *= d_delta / (2.0 * np.pi)
    g2 = np.abs(g) ** 2
    del g       # before the shift copies g2
    # tau_k = 2 pi k/(M d_delta) for k = -M/2 .. M/2 - 1
    tau = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, d=d_delta))
    return WavePacket(tau, np.fft.fftshift(g2))


def transform_tangents(sa: SpectralAmplitude, indices):
    """The transform of ``sa`` at tau ``indices``, to first order in (b,
    Omega_c, gamma_dec), from its amplitude and tangents, without an FFT.

    Returns (G, dG, dE): G at the indices, dG (3, K) its derivatives, and
    dE (3,) the derivatives 2 Re<a, da> of sum |a|^2 over the end-halved
    amplitude a.  ``indices`` index the increasing tau grid of :func:`wave_packet`; each
    sample is the direct sum (d_delta/2pi) sum_j a_j exp(-2 pi i j k/M)
    with k its unshifted DFT index.  The roots of unity factor over
    j = r B + c, B ~ sqrt(n), into an (n/B, K) and a (B, K) table, so a
    sum is one small matrix product; the phases are reduced mod M in
    integers before the exponential.  The grid is summed ``_CHUNK``
    points at a time, so no temporary of the grid's size is formed.  The
    energy sums are numpy reductions, not BLAS dot products, whose
    summation order would change with the BLAS thread count.
    """
    n = sa.grid.n_points
    m = n * OVERSAMPLE
    k = (np.asarray(indices, dtype=np.int64) + m // 2) % m
    block = 1 << (n.bit_length() - 1) // 2
    c = np.arange(block, dtype=np.int64)[:, None]
    r = np.arange(n // block, dtype=np.int64)[:, None]
    inner = np.exp((-2j * np.pi / m) * ((c * k) % m))
    outer = np.exp((-2j * np.pi / m) * ((r * block * k) % m))
    g = np.zeros(k.size, dtype=complex)
    d_g = np.zeros((3, k.size), dtype=complex)
    d_energy = np.zeros(3)
    for lo in range(0, n, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        amp, d_amp = sa.amplitude[part], sa.tangents[:, part]
        # trapezoid weights: the grid's two end samples count half
        ends = [i for i, at_end in ((0, lo == 0), (-1, lo + _CHUNK == n))
                if at_end]
        if ends:
            amp, d_amp = amp.copy(), d_amp.copy()
            amp[ends] *= 0.5
            d_amp[:, ends] *= 0.5
        rows = outer[lo // block:(lo + _CHUNK) // block]
        g += np.sum(np.dot(amp.reshape(-1, block), inner) * rows, axis=0)
        amp_conj = amp.conj()
        for col, d_col in enumerate(d_amp):
            d_g[col] += np.sum(np.dot(d_col.reshape(-1, block), inner)
                               * rows, axis=0)
            d_energy[col] += 2.0 * np.sum((amp_conj * d_col).real)
    scale = sa.grid.spacing / (2.0 * np.pi)
    return scale * g, scale * d_g, d_energy


def biphoton_spectrum(sa: SpectralAmplitude) -> np.ndarray:
    """|A(delta)|^2 over the grid, normalized to unit peak."""
    power = np.abs(sa.amplitude) ** 2
    peak = float(np.max(power))
    if peak == 0.0:
        raise ParameterError("empty spectrum: amplitude is identically zero")
    return power / peak
