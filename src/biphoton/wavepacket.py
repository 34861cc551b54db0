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

For the fitter's derivatives, ``amplitude_tangents`` gives dA/d(b,
Omega_c, gamma_dec) one array at a time, and ``transform_tangents`` a few
samples of the transform and their derivatives by direct sums.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridOverflowError, ParameterError
from .kernels import (complex_sinc, doppler_responses, etalon_response,
                      impurity_line_integral, response_tangents,
                      sinc_phase_derivative)
from .params import SystemParams

MIN_GRID_POINTS = 2**14
# 64 MiB of complex amplitude, 16x the widest grid the tests and benchmark use
MAX_GRID_POINTS = 2**22
# |A| at the grid edge must fall below this fraction of the peak |A|
EDGE_DECAY = 1e-6
MAX_WIDENINGS = 3
# zero-padding factor of the DFT: halves the tau step below pi/delta_max
OVERSAMPLE = 2
# grid points per step of transform_tangents (a multiple of its row
# length for every grid up to MAX_GRID_POINTS)
_CHUNK = 2**14


@dataclass(frozen=True)
class DetuningGrid:
    """Uniform, zero-symmetric two-photon-detuning grid (units of Gamma)."""

    delta_min: float
    delta_max: float
    n_points: int

    def __post_init__(self):
        if self.delta_min != -self.delta_max or not self.delta_max > 0:
            raise ParameterError("grid must be symmetric about delta = 0")
        n = self.n_points
        if n < MIN_GRID_POINTS or (n & (n - 1)) != 0:
            raise ParameterError(
                f"n_points must be a power of two >= {MIN_GRID_POINTS}")
        if n > MAX_GRID_POINTS:
            raise GridOverflowError(
                f"a {n}-point grid passes the {MAX_GRID_POINTS}-point limit")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.delta_max / (self.n_points - 1)

    def widened(self) -> "DetuningGrid":
        """Double the span and the point count (same spacing class)."""
        return DetuningGrid(2.0 * self.delta_min, 2.0 * self.delta_max,
                            2 * self.n_points)


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
    MAX_GRID_POINTS raises GridOverflowError naming it.
    """
    delta_max = max(20.0 * params.gamma_natural, 5.0 * params.gamma_etalon)
    scales = {"gamma_etalon": params.gamma_etalon / 100.0}
    if params.gamma_dec > 0.0:
        scales["gamma_dec"] = params.gamma_dec
    narrowest = min(scales, key=scales.get)
    spacing = scales[narrowest] / 4.0
    n = max(MIN_GRID_POINTS, _next_pow2(math.ceil(2.0 * delta_max / spacing)))
    if n > MAX_GRID_POINTS:
        raise GridOverflowError(
            f"{narrowest} = {getattr(params, narrowest):g} needs a {n}-point "
            f"grid; the limit is {MAX_GRID_POINTS}")
    return DetuningGrid(-delta_max, delta_max, n)


@dataclass(frozen=True)
class SpectralAmplitude:
    """A(delta) sampled on a detuning grid, with the generating params."""

    grid: DetuningGrid
    amplitude: np.ndarray
    params: SystemParams

    @property
    def peak_magnitude(self) -> float:
        return float(np.max(np.abs(self.amplitude)))


def amplitude_at(delta, params: SystemParams, impurity_line=None):
    """The integrand A(delta) itself, at scalar or array detunings.

    ``impurity_line`` is an optional precomputed
    ``kernels.impurity_line_integral(delta, params)``.
    """
    rho, kap = doppler_responses(delta, params, impurity_line=impurity_line)
    return (kap * complex_sinc(rho) * np.exp(1j * rho)
            * etalon_response(delta, params.gamma_etalon))


def amplitude_tangents(delta, params: SystemParams, impurity_line=None):
    """``amplitude_at`` on an array ``delta``, with its derivatives.

    Returns (A, tangents): A equals ``amplitude_at`` bit for bit, and
    ``tangents`` yields dA with respect to b, Omega_c and gamma_dec in
    turn, one array at a time.  With S = sinc(rho) exp(i rho),
    dA = (d kappa S + kappa S'(rho) d rho) B.
    """
    rho, kap, responses = response_tangents(delta, params,
                                            impurity_line=impurity_line)
    sinc = complex_sinc(rho)
    phase = np.exp(1j * rho)
    etalon = etalon_response(delta, params.gamma_etalon)
    amp = kap * sinc * phase * etalon

    def tangents():
        s = sinc * phase
        kap_ds = kap * sinc_phase_derivative(rho, s, phase) * etalon
        s *= etalon
        for d_rho, d_kap in responses:
            d_amp = d_kap * s
            d_amp += kap_ds * d_rho
            yield d_amp

    return amp, tangents()


def cached_impurity_line(impurity_lines, grid, delta, params):
    """The impurity line of ``params`` on ``grid`` from the cache dict
    ``impurity_lines`` (see :func:`sample_spectral_amplitude`), computed
    and kept on a miss; None when there is no cache."""
    if impurity_lines is None:
        return None
    key = (grid, params.delta_c, params.gamma_doppler, params.gamma_natural)
    if key not in impurity_lines:
        impurity_lines[key] = impurity_line_integral(delta, params)
    return impurity_lines[key]


def sample_spectral_amplitude(params: SystemParams,
                              grid_hint: DetuningGrid | None = None,
                              impurity_lines: dict | None = None
                              ) -> SpectralAmplitude:
    """Sample A(delta), widening the grid until the edges have decayed.

    Starts from ``grid_hint`` or the auto-sized grid and doubles the span
    (keeping the spacing class) until |A| at both edges is below 1e-6 of
    the peak, giving up after 3 widenings.  A pump-free amplitude is
    identically zero and returned as-is.

    ``impurity_lines``, if given, is a dict that keeps the impurity-line
    integral of each (grid, delta_c, gamma_doppler, gamma_natural) it has
    seen: a caller that varies only b, Omega_c or gamma_dec between calls
    then evaluates it once per grid and detuning.  The amplitude is the
    same, bit for bit, with or without it.
    """
    grid = grid_hint if grid_hint is not None else auto_grid(params)
    for _ in range(MAX_WIDENINGS + 1):
        delta = grid.values
        amp = amplitude_at(delta, params, impurity_line=cached_impurity_line(
            impurity_lines, grid, delta, params))
        peak = float(np.max(np.abs(amp)))
        if peak == 0.0:
            return SpectralAmplitude(grid, amp, params)
        edge = max(abs(amp[0]), abs(amp[-1]))
        if edge <= EDGE_DECAY * peak:
            return SpectralAmplitude(grid, amp, params)
        grid = grid.widened()
    raise GridOverflowError(
        f"spectral amplitude does not decay below {EDGE_DECAY:.0e} of its "
        f"peak within {MAX_WIDENINGS} grid widenings")


@dataclass(frozen=True)
class WavePacket:
    """G2 on a uniform delay-time grid (tau in 1/Gamma, g2 arbitrary units)."""

    tau: np.ndarray
    g2: np.ndarray
    params: SystemParams

    @property
    def spacing(self) -> float:
        return float(self.tau[1] - self.tau[0])


def wave_packet(sa: SpectralAmplitude) -> WavePacket:
    """Transform the spectral amplitude to the delay-time domain.

    The DFT is zero-padded by OVERSAMPLE, so the tau step is half the
    Nyquist step pi/delta_max.  The tau grid spans one full period
    2 pi/spacing, which exceeds any wave-packet support by orders of
    magnitude, so Parseval holds on it to rounding error.
    """
    grid = sa.grid
    d_delta = grid.spacing
    m = grid.n_points * OVERSAMPLE

    weighted = sa.amplitude.astype(complex)
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    # tau_k = 2 pi k/(M d_delta) for k = -M/2 .. M/2 - 1
    tau = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, d=d_delta))
    g = (d_delta / (2.0 * np.pi)) * np.fft.fftshift(np.fft.fft(weighted, n=m))
    return WavePacket(tau, np.abs(g) ** 2, sa.params)


class TransformTangents(NamedTuple):
    """A few samples of the ``wave_packet`` transform, with derivatives.

    ``g`` holds G at the requested tau indices and ``d_g`` (3, K) its
    derivatives in (b, Omega_c, gamma_dec); ``energy`` is sum |a|^2 over
    the end-halved amplitude a, and ``d_energy`` (3,) its derivatives
    2 Re<a, da>.
    """

    g: np.ndarray
    d_g: np.ndarray
    energy: float
    d_energy: np.ndarray


def transform_tangents(params: SystemParams, grid: DetuningGrid, indices,
                       impurity_line=None) -> TransformTangents:
    """The transform of A(delta) on ``grid`` at tau ``indices``, to first
    order in (b, Omega_c, gamma_dec), without an FFT.

    ``indices`` index the increasing tau grid of :func:`wave_packet`; each
    sample is the direct sum (d_delta/2pi) sum_j a_j exp(-2 pi i j k/M)
    with k its unshifted DFT index.  The roots of unity factor over
    j = r B + c, B ~ sqrt(n), into an (n/B, K) and a (B, K) table, so a
    sum is one small matrix product; the phases are reduced mod M in
    integers before the exponential.  The grid is taken ``_CHUNK`` points
    at a time, and within a chunk the three derivative arrays one at a
    time, so no array of the grid's size is formed.  ``impurity_line`` is
    an optional precomputed impurity line on the whole grid.
    """
    n = grid.n_points
    m = n * OVERSAMPLE
    k = (np.asarray(indices, dtype=np.int64) + m // 2) % m
    block = 1 << (n.bit_length() - 1) // 2
    c = np.arange(block, dtype=np.int64)[:, None]
    r = np.arange(n // block, dtype=np.int64)[:, None]
    inner = np.exp((-2j * np.pi / m) * ((c * k) % m))
    outer = np.exp((-2j * np.pi / m) * ((r * block * k) % m))
    delta = grid.values
    g = np.zeros(k.size, dtype=complex)
    d_g = np.zeros((3, k.size), dtype=complex)
    energy = 0.0
    d_energy = np.zeros(3)
    for lo in range(0, n, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        line = None if impurity_line is None else impurity_line[part]
        amp, tangents = amplitude_tangents(delta[part], params,
                                           impurity_line=line)
        # trapezoid weights: the grid's two end samples count half
        ends = [i for i, at_end in ((0, lo == 0), (-1, lo + _CHUNK == n))
                if at_end]
        rows = outer[lo // block:(lo + _CHUNK) // block]
        amp[ends] *= 0.5
        g += np.sum((amp.reshape(-1, block) @ inner) * rows, axis=0)
        energy += np.vdot(amp, amp).real
        for col, d_amp in enumerate(tangents):
            d_amp[ends] *= 0.5
            d_g[col] += np.sum((d_amp.reshape(-1, block) @ inner) * rows,
                               axis=0)
            d_energy[col] += 2.0 * np.vdot(amp, d_amp).real
    scale = grid.spacing / (2.0 * np.pi)
    return TransformTangents(scale * g, scale * d_g, energy, d_energy)


def biphoton_spectrum(sa: SpectralAmplitude) -> np.ndarray:
    """|A(delta)|^2 over the grid, normalized to unit peak."""
    power = np.abs(sa.amplitude) ** 2
    peak = float(np.max(power))
    if peak == 0.0:
        raise ParameterError("empty spectrum: amplitude is identically zero")
    return power / peak
